"""Huber loss, Adam over the trained blocks, the training loop, and
two-phase transfer learning.

A block is trained exactly when Adam holds moments for it: the optimizer
state of a run names the trained blocks, and every other block stays
bitwise unchanged.  Transfer re-targets a trained model: the output layer
is re-initialized, phase 1 trains only that layer at the higher learning
rate, phase 2 trains every block and fine-tunes at the reduced rate.
Optimizer moments start fresh in each phase because their scale is
coupled to the learning rate.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import WindowedDataset
from .errors import NumericError
from .network import (
    GATES,
    Seq2SeqModel,
    backward_batch,
    copy_model,
    forward_batch,
    init_output_layer,
    param_items,
)
from .numeric import Rng

DEFAULT_PHASE1_LR = 0.001
DEFAULT_PHASE2_LR = 0.0001

# Adam's decay rates and denominator guard (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def huber(pred: np.ndarray, target: np.ndarray, delta: float = 1.0) -> tuple[float, np.ndarray]:
    """Mean-reduced Huber loss and its exact gradient wrt predictions.

    Per element: 0.5 e^2 for |e| <= delta, else delta (|e| - 0.5 delta).
    """
    if not delta > 0:
        raise ValueError(f"huber delta must be > 0, got {delta}")
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"prediction/target shape mismatch: {pred.shape} vs {target.shape}")
    err = pred - target
    abs_err = np.abs(err)
    quad = abs_err <= delta
    per_elem = np.where(quad, 0.5 * err ** 2, delta * (abs_err - 0.5 * delta))
    n = err.size
    loss = float(per_elem.sum() / n)
    grad = np.where(quad, err, delta * np.sign(err)) / n
    return loss, grad


@dataclass
class AdamState:
    """First/second moments of the trained blocks plus step count; one
    state per run."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int
    lr: float

    @classmethod
    def fresh(cls, model: Seq2SeqModel, lr: float, trainable: Iterable[str] | None = None) -> "AdamState":
        """Zero moments for the ``param_items`` blocks named in ``trainable``
        (None names them all); only these blocks are trained."""
        params = param_items(model)
        if trainable is not None:
            trainable = set(trainable)
            unknown = trainable - {name for name, _ in params}
            if unknown:
                raise ValueError(f"unknown trainable block(s): {sorted(unknown)}")
            params = [(name, arr) for name, arr in params if name in trainable]
        m = {name: np.zeros_like(arr) for name, arr in params}
        v = {name: np.zeros_like(arr) for name, arr in params}
        return cls(m=m, v=v, t=0, lr=lr)


def adam_step(model: Seq2SeqModel, grads: dict[str, np.ndarray], state: AdamState) -> None:
    """Bias-corrected Adam update in place of the blocks ``state`` holds
    moments for.  Every other block stays bitwise unchanged."""
    params = dict(param_items(model))
    if set(grads) != set(params):
        raise ValueError(
            f"gradient tree does not match model parameters: "
            f"{sorted(set(grads) ^ set(params))}"
        )
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name}")
    state.t += 1
    correction1 = 1.0 - BETA1 ** state.t
    correction2 = 1.0 - BETA2 ** state.t
    for name, m in state.m.items():
        g = grads[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g ** 2
        m_hat = m / correction1
        v_hat = v / correction2
        p = params[name]
        p -= state.lr * m_hat / (np.sqrt(v_hat) + EPS)


@dataclass
class TrainConfig:
    epochs: int = 100
    batch: int = 32
    lr: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")


def train(
    model: Seq2SeqModel,
    data: WindowedDataset,
    cfg: TrainConfig,
    delta: float = 1.0,
    trainable: Iterable[str] | None = None,
) -> tuple[Seq2SeqModel, list[float]]:
    """Minibatch Adam on a copy of the model; returns (model, per-epoch loss).

    Only the blocks named in ``trainable`` (None: all) are updated.
    Deterministic for a fixed seed: each epoch's shuffle order comes from
    the toolkit's own stream, batches are visited in order, and gradient
    reduction is a fixed summation.
    """
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    if cfg.epochs == 0:
        raise ValueError("train requires epochs >= 1")
    mc = model.config
    if data.n_past != mc.n_past or data.n_future != mc.n_future:
        raise ValueError(
            f"dataset windows ({data.n_past}->{data.n_future}) do not match "
            f"model config ({mc.n_past}->{mc.n_future})"
        )
    model = copy_model(model)
    state = AdamState.fresh(model, cfg.lr, trainable)
    rng = Rng(cfg.seed)
    history: list[float] = []
    for _ in range(cfg.epochs):
        order = np.arange(len(data))
        rng.shuffle(order)
        total = 0.0
        for k in range(0, len(order), cfg.batch):
            idx = order[k : k + cfg.batch]
            cache = forward_batch(model, data.inputs[idx])
            loss, dpred = huber(cache.preds, data.targets[idx], delta)
            if not math.isfinite(loss):
                raise NumericError(f"training loss became non-finite at step {state.t + 1}")
            grads = backward_batch(model, cache, dpred)
            adam_step(model, grads, state)
            total += loss * len(idx)
        history.append(total / len(data))
    return model, history


@dataclass
class PhaseLog:
    """What one training phase did: its name, rate and per-epoch loss."""

    name: str
    lr: float
    history: list[float]


def transfer(
    source: Seq2SeqModel,
    data: WindowedDataset,
    phases: Sequence[tuple[int, float]],
    batch: int,
    seed: int,
    delta: float = 1.0,
) -> tuple[Seq2SeqModel, list[PhaseLog]]:
    """Adapt a source-domain model to target windows in two phases; returns
    (model, one log per phase).

    ``phases`` gives (epochs, lr) for phase 1 and phase 2, which share
    ``batch`` and ``seed``; both are checked before either trains.  The
    output layer is replaced (Glorot, seeded by ``seed``); phase 1 trains
    only it, phase 2 fine-tunes every block.  A phase with 0 epochs is
    skipped and logs no loss.
    """
    cfg1, cfg2 = (TrainConfig(epochs=epochs, batch=batch, lr=lr, seed=seed)
                  for epochs, lr in phases)
    mc = source.config
    mismatches = [f"{name}: model {getattr(mc, name)} vs data {getattr(data, name)}"
                  for name in ("n_past", "n_future") if getattr(mc, name) != getattr(data, name)]
    if mismatches:
        raise ValueError("transfer config mismatch: " + "; ".join(mismatches))

    model = copy_model(source)
    model.output = init_output_layer(mc, Rng(seed))
    head = [name for name, _ in param_items(model) if name.startswith("out.")]
    logs = []
    for name, cfg, trainable in (("freeze-body", cfg1, head), ("fine-tune", cfg2, None)):
        history = []
        if cfg.epochs > 0:
            model, history = train(model, data, cfg, delta, trainable)
        logs.append(PhaseLog(name, cfg.lr, history))
    return model, logs


def gradient_check(
    model: Seq2SeqModel,
    window: np.ndarray,
    targets: np.ndarray,
    epsilon: float,
    samples_per_block: int = 20,
    seed: int = 0,
    delta: float = 1.0,
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
    _, dpred = huber(cache.preds[0], targets, delta)
    grads = backward_batch(model, cache, dpred[None, :])

    def loss_at() -> float:
        preds = forward_batch(model, window[None, :]).preds[0]
        value, _ = huber(preds, targets, delta)
        return value

    rng = Rng(seed)
    worst = 0.0
    blocks = []
    for name, arr in param_items(model):
        pieces = 1 if name.startswith("out.") else len(GATES)
        blocks += zip(np.split(arr, pieces), np.split(grads[name], pieces))
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
