"""Reference code the tests check ``tfl`` against; no command runs it.

``gradient_check`` compares backprop with central finite differences of the
Huber loss.  ``accuracy`` and ``persistence_forecast`` give the paper's
accuracy figure and the naive baseline the acceptance criteria compare with.
``column_table`` computes a per-step metrics table one 1-D column at a time
with ``mae``, ``rmse`` and ``wape``; ``evaluation.per_step_table`` must
match it bit for bit.

The scalar references below are the element-at-a-time forms of vectorised
``tfl`` code, which must match them bit for bit (byte for byte for the CSV
writer): ``uniform`` and ``normal`` draw one value from an ``Rng`` with
``next_u64``, ``shuffle`` swaps as it draws, ``write_csv`` formats one row
at a time with ``strftime`` and ``csv.writer``, and ``adam_step`` is Adam
as one allocating expression per moment.  ``lstm_backward`` is the reverse
LSTM pass one step at a time in float64; the step-vectorised pass must
match it within a tolerance set by its dtype, since it groups the gate
products differently.
"""

from __future__ import annotations

import csv
import math
from datetime import timedelta

import numpy as np

from tfl.dataset import CSV_HEADER, TimeSeries
from tfl.network import GATES, Seq2SeqModel, backward_batch, forward_batch
from tfl.numeric import Rng
from tfl.training import BETA1, BETA2, EPS, AdamState, huber

_INV_2_53 = 2.0 ** -53


def uniform(rng: Rng, lo: float, hi: float) -> float:
    """One draw from [lo, hi).  Degenerate lo == hi returns lo."""
    if lo > hi:
        raise ValueError(f"uniform bounds out of order: lo={lo} > hi={hi}")
    frac = (rng.next_u64() >> 11) * _INV_2_53
    value = lo + frac * (hi - lo)
    if value >= hi and lo < hi:
        # guard against rounding up to the open end
        value = math.nextafter(hi, lo)
    return value


def normal(rng: Rng, mu: float = 0.0, sigma: float = 1.0) -> float:
    """Box-Muller; consumes exactly two draws per value."""
    u1 = ((rng.next_u64() >> 11) + 1) * _INV_2_53  # (0, 1]
    u2 = (rng.next_u64() >> 11) * _INV_2_53
    return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def shuffle(rng: Rng, indices) -> None:
    """In-place Fisher-Yates, one draw per swap."""
    for i in range(len(indices) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        indices[i], indices[j] = indices[j], indices[i]


def write_csv(series: TimeSeries, path) -> None:
    """``dataset.write_csv`` one row at a time (``strftime`` does not pad
    years before 1000 to four digits; the vectorised writer does)."""
    whole = series.start.microsecond == 0 and float(series.interval).is_integer()
    fmt = "%Y-%m-%dT%H:%M:%SZ" if whole else "%Y-%m-%dT%H:%M:%S.%fZ"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for k, v in enumerate(series.values):
            ts = series.start + timedelta(seconds=k * series.interval)
            writer.writerow([ts.strftime(fmt), repr(float(v))])


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """Bias-corrected Adam with a fresh array per operation."""
    state.t += 1
    correction1 = 1.0 - BETA1 ** state.t
    correction2 = 1.0 - BETA2 ** state.t
    m, v = state.flat[0], state.flat[1]
    m *= BETA1
    m += (1.0 - BETA1) * grads
    v *= BETA2
    v += (1.0 - BETA2) * grads ** 2
    m_hat = m / correction1
    v_hat = v / correction2
    params -= state.lr * m_hat / (np.sqrt(v_hat) + EPS)


def mae(pred: np.ndarray, obs: np.ndarray) -> float:
    return float(np.mean(np.abs(pred - obs)))


def rmse(pred: np.ndarray, obs: np.ndarray) -> float:
    return float(np.sqrt(np.mean((pred - obs) ** 2)))


def wape(pred: np.ndarray, obs: np.ndarray) -> float:
    """Weighted absolute percentage error; undefined when sum|obs| is 0."""
    denom = float(np.sum(np.abs(obs)))
    if denom == 0.0:
        raise ValueError("WAPE undefined: observations sum to zero absolute value")
    return float(np.sum(np.abs(pred - obs)) / denom * 100.0)


def column_table(predictions: np.ndarray, targets: np.ndarray) -> list[tuple[float, float, float]]:
    """(mae, rmse, wape) of each (windows, horizon) column, then the average
    row: the mean of each metric over the steps."""
    rows = [(mae(p, o), rmse(p, o), wape(p, o)) for p, o in zip(predictions.T, targets.T)]
    return rows + [tuple(float(np.mean(column)) for column in zip(*rows))]


def accuracy(wape_pct: float) -> float:
    """100 - WAPE, floored at zero."""
    if wape_pct < 0:
        raise ValueError(f"WAPE must be >= 0, got {wape_pct}")
    return max(0.0, 100.0 - wape_pct)


def persistence_forecast(inputs: np.ndarray, n_future: int) -> np.ndarray:
    """Naive baseline: repeat each window's last observed value."""
    inputs = np.asarray(inputs, dtype=np.float64)
    return np.repeat(inputs[:, -1:], n_future, axis=1)


def gradient_check(
    model: Seq2SeqModel,
    window: np.ndarray,
    targets: np.ndarray,
    epsilon: float,
    samples_per_block: int = 20,
    seed: int = 0,
) -> float:
    """Worst relative error between backprop and central finite differences
    of the Huber loss, over a random parameter sample from every block;
    each gate's rows of an LSTM array count as a block of their own.

    Relative error is |a - b| / max(|a|, |b|); entries where both sides are
    below 1e-8 (beneath finite-difference resolution) count as exact.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    window = np.asarray(window, dtype=np.float64).reshape(-1)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)

    cache = forward_batch(model, window[None, :])
    _, dpred = huber(cache.preds[0], targets)
    grads = backward_batch(model, cache, dpred[None, :])

    def loss_at() -> float:
        preds = forward_batch(model, window[None, :]).preds[0]
        value, _ = huber(preds, targets)
        return value

    rng = Rng(seed)
    worst = 0.0
    blocks = []
    for name, arr in model.params.items():
        pieces = 1 if name.startswith("out.") else len(GATES)
        blocks += zip(np.split(arr, pieces), np.split(grads.params[name], pieces))
    for arr, grad in blocks:
        flat = arr.reshape(-1)  # a view: row blocks of C-ordered arrays are contiguous
        count = min(samples_per_block, flat.size)
        picked: set[int] = set()
        while len(picked) < count:
            picked.add(int(rng.next_u64() % flat.size))
        for idx in sorted(picked):
            orig = flat[idx]
            flat[idx] = orig + epsilon
            up = loss_at()
            flat[idx] = orig - epsilon
            down = loss_at()
            flat[idx] = orig
            fd = (up - down) / (2.0 * epsilon)
            bp = grad.reshape(-1)[idx]
            scale = max(abs(fd), abs(bp))
            if scale < 1e-8:
                continue
            worst = max(worst, abs(fd - bp) / scale)
    return worst


def lstm_backward(w, cache, dh_seq, dh_final, dc_final):
    """``network._lstm_backward`` one reverse step at a time, in float64 from
    the cache's values whatever their dtype, with each gate's gradient as
    its own product chain.  Returns (gate preactivation grads, w grad,
    dh_0, dc_0)."""
    def wide(arr):
        return np.asarray(arr, dtype=np.float64)

    T, B, hid = dh_seq.shape
    gates, c, tanh_c = wide(cache.gates), wide(cache.c), wide(cache.tanh_c)
    w_h = wide(w)[:, :hid]
    dh_carry, dc_carry = wide(dh_final), wide(dc_final)
    dpre_seq = np.empty_like(gates)
    for t in reversed(range(T)):
        f, i, g, o = np.split(gates[t], len(GATES), axis=1)
        tc = tanh_c[t]
        dh = wide(dh_seq[t]) + dh_carry
        dc = dh * o * (1.0 - tc ** 2) + dc_carry
        c_prev = c[t]  # c holds c0 in slot 0
        dpre_seq[t] = np.concatenate([dc * c_prev * f * (1.0 - f), dc * g * i * (1.0 - i),
                                      dc * i * (1.0 - g ** 2), dh * tc * o * (1.0 - o)], axis=1)
        dc_carry = dc * f
        dh_carry = dpre_seq[t] @ w_h
    dw = np.einsum("tbk,tbj->kj", dpre_seq, wide(cache.z[:-1]))
    return dpre_seq, dw, dh_carry, dc_carry
