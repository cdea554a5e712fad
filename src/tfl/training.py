"""Huber loss, Adam on one flat parameter vector, the training loop, and
two-phase transfer learning.

Training has two modes: ``train`` trains a float64 copy of the model's
vector whole, or with ``head_only`` only its output-layer tail.
Transfer re-targets a trained model: the output layer is re-initialized,
phase 1 trains only that layer (the head-only mode) at the higher
learning rate, phase 2 trains every block and fine-tunes at the
reduced rate.  Optimizer moments start fresh in each phase because their
scale is coupled to the learning rate.

Phase 1 is a linear probe on the frozen body (the LP half of LP-FT, Kumar
et al. 2022, arXiv:2202.10054): a step runs the forward pass without the
backprop cache and takes only the output layer's gradient, so it runs no
BPTT; its batches and GEMM shapes are a full step's, and so are its bits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import WindowedDataset
from .errors import NumericError
from .network import Seq2SeqModel, backward_batch, forward_batch, init_output_layer, output_grads
from .numeric import Rng, assert_finite, quiet

DEFAULT_PHASE1_LR = 0.001
DEFAULT_PHASE2_LR = 0.0001

# Adam's decay rates and denominator guard (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# Huber loss transition point: quadratic below it, linear above
HUBER_DELTA = 1.0


def huber(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean-reduced Huber loss and its exact gradient wrt predictions.

    Per element, with d = ``HUBER_DELTA``: 0.5 e^2 for |e| <= d, else
    d (|e| - 0.5 d).
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"prediction/target shape mismatch: {pred.shape} vs {target.shape}")
    err = pred - target
    abs_err = np.abs(err)
    quad = abs_err <= HUBER_DELTA
    per_elem = np.where(quad, 0.5 * err ** 2, HUBER_DELTA * (abs_err - 0.5 * HUBER_DELTA))
    n = err.size
    loss = float(per_elem.sum() / n)
    grad = np.where(quad, err, HUBER_DELTA * np.sign(err)) / n
    return loss, grad


class AdamState:
    """Adam's state for one trained vector of ``size`` parameters; one state
    per run.  ``flat`` holds, row by row, the first moments, the second
    moments and two work rows, so a step runs each operation once over the
    vector and allocates nothing; ``t`` counts the steps taken."""

    def __init__(self, size: int, lr: float):
        self.flat = np.zeros((4, size))
        self.t = 0
        self.lr = lr


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """Bias-corrected Adam update of the flat float64 vector ``params`` in
    place, from ``grads`` of the same shape.

    Elementwise, in this order: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    then p -= (lr (m / c1)) / (sqrt(v / c2) + eps), each operation writing
    into the state's own rows.  Moments, work rows and params are float64;
    float32 gradients (what ``train`` passes) are widened exactly on entry,
    so they give the bits of the same gradients cast to float64 first.
    """
    if not params.shape == grads.shape == state.flat.shape[1:]:
        raise ValueError(f"gradient shape {grads.shape} and parameter shape {params.shape} "
                         f"do not match the state's {state.flat.shape[1:]}")
    state.t += 1
    correction1 = 1.0 - BETA1 ** state.t
    correction2 = 1.0 - BETA2 ** state.t
    m, v, step, denom = state.flat
    np.multiply(grads, 1.0 - BETA1, out=step, dtype=np.float64)
    m *= BETA1
    m += step
    np.square(grads, out=step, dtype=np.float64)
    step *= 1.0 - BETA2
    v *= BETA2
    v += step
    np.divide(m, correction1, out=step)
    step *= state.lr
    np.divide(v, correction2, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    params -= step


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
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")


@quiet()
def train(
    model: Seq2SeqModel,
    data: WindowedDataset,
    cfg: TrainConfig,
    head_only: bool = False,
) -> tuple[Seq2SeqModel, list[float]]:
    """Minibatch Adam on a copy of the model; returns (model, per-epoch loss).

    The copy, which the returned model holds, is the model's vector at
    float64.  A run trains all of it, or with ``head_only`` the tail that
    holds ``out.w`` and ``out.b``, with no backprop cache or BPTT.
    Deterministic for a fixed seed: each epoch's shuffle order comes from
    the toolkit's own stream, batches are visited in order, and gradient
    reduction is a fixed summation.

    Mixed precision: forward and backward run on a float32 mirror model,
    Huber is taken in float64, ``adam_step`` updates the trained slice in
    float64 from the float32 gradient vector as the pass returns it, and
    one copy rounds the slice into the mirror.  The bits were pinned with
    numpy 2.4.6 on scipy-openblas 0.3.31 (x86-64).  The run computes under
    ``numeric.quiet``, and each step's predictions and loss, then the mirror
    once at the end, are checked: weights that left float32's range raise
    ``NumericError``.
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
    model = Seq2SeqModel(mc, model.flat.astype(np.float64))
    mirror = Seq2SeqModel(mc, model.flat.astype(np.float32))
    tail = model.params["out.w"].size + 1 if head_only else model.flat.size
    trained, trained32 = model.flat[-tail:], mirror.flat[-tail:]
    state = AdamState(tail, cfg.lr)
    rng = Rng(cfg.seed)
    history: list[float] = []
    for _ in range(cfg.epochs):
        order = np.arange(len(data))
        rng.shuffle(order)
        total = 0.0
        for k in range(0, len(order), cfg.batch):
            idx = order[k : k + cfg.batch]
            inputs = data.inputs[idx]
            fwd = forward_batch(mirror, inputs, keep=not head_only)
            loss, dpred = huber(fwd.preds, data.targets[idx])
            if not math.isfinite(loss):
                raise NumericError(f"training loss became non-finite at step {state.t + 1}")
            grads = output_grads(dpred, fwd.feats) if head_only else backward_batch(mirror, fwd, dpred).flat
            adam_step(trained, grads, state)
            np.copyto(trained32, trained, casting="same_kind")
            total += loss * len(idx)
        history.append(total / len(data))
    assert_finite(mirror.flat, "float32 weights after the last step")
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

    model = Seq2SeqModel(mc, source.flat.copy())
    init_output_layer(model, Rng(seed))
    logs = []
    for name, cfg, head_only in (("freeze-body", cfg1, True), ("fine-tune", cfg2, False)):
        history = []
        if cfg.epochs > 0:
            model, history = train(model, data, cfg, head_only)
        logs.append(PhaseLog(name, cfg.lr, history))
    return model, logs

