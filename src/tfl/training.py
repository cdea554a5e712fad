"""Huber loss, Adam over the trained blocks, the training loop, and
two-phase transfer learning.

A block is trained exactly when Adam holds moments for it: the optimizer
state of a run names the trained blocks, each step passes gradients for
those blocks alone, and every other block stays bitwise unchanged.
Transfer re-targets a trained model: the output layer is re-initialized,
phase 1 trains only that layer at the higher learning rate, phase 2
trains every block and fine-tunes at the reduced rate.  Optimizer
moments start fresh in each phase because their scale is coupled to the
learning rate.

Phase 1 is a linear probe on the frozen body (the LP half of LP-FT, Kumar
et al. 2022, arXiv:2202.10054): a step runs the forward pass without the
backprop cache and takes only the output layer's gradient, so it runs no
BPTT; its batches and GEMM shapes are a full step's, and so are its bits.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import WindowedDataset
from .errors import NumericError
from .network import (
    Seq2SeqModel,
    _forward,
    backward_batch,
    forward_batch,
    init_output_layer,
    output_grads,
)
from .numeric import Rng

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


@dataclass
class AdamState:
    """First/second moments of the trained blocks plus step count; one
    state per run.

    ``flat`` holds, row by row, the first moments, the second moments and
    two work rows of every trained block laid end to end; ``m``, ``v`` and
    ``step`` map each block to its view of rows 0, 1 and 2.  A step runs
    the moment arithmetic once over all blocks and allocates nothing.
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int
    lr: float
    flat: np.ndarray
    step: dict[str, np.ndarray]

    @classmethod
    def fresh(cls, model: Seq2SeqModel, lr: float, trainable: Iterable[str] | None = None) -> "AdamState":
        """Zero moments for the ``model.params`` blocks named in ``trainable``
        (None names them all); only these blocks are trained."""
        names = set(model.params if trainable is None else trainable)
        unknown = names - set(model.params)
        if unknown:
            raise ValueError(f"unknown trainable block(s): {sorted(unknown)}")
        params = {name: arr for name, arr in model.params.items() if name in names}
        bounds = np.cumsum([0] + [arr.size for arr in params.values()])
        flat = np.zeros((4, bounds[-1]))

        def views(row: np.ndarray) -> dict[str, np.ndarray]:
            return {name: row[a:b].reshape(arr.shape)
                    for (name, arr), a, b in zip(params.items(), bounds, bounds[1:])}

        return cls(m=views(flat[0]), v=views(flat[1]), t=0, lr=lr, flat=flat, step=views(flat[2]))


def adam_step(model: Seq2SeqModel, grads: dict[str, np.ndarray], state: AdamState) -> None:
    """Bias-corrected Adam update in place of the blocks ``state`` holds
    moments for; ``grads`` names exactly those blocks.  Every other block
    stays bitwise unchanged.

    Elementwise, in this order: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    then p -= (lr (m / c1)) / (sqrt(v / c2) + eps), each operation writing
    into the state's own rows.
    """
    if set(grads) != set(state.m):
        raise ValueError(
            f"gradient tree does not match the trained blocks: "
            f"{sorted(set(grads) ^ set(state.m))}"
        )
    params = model.params
    for name, g in grads.items():
        if g.shape != params[name].shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape "
                             f"{params[name].shape} for {name}")
    state.t += 1
    correction1 = 1.0 - BETA1 ** state.t
    correction2 = 1.0 - BETA2 ** state.t
    m, v, step, denom = state.flat
    for name, g in grads.items():
        np.multiply(g, 1.0 - BETA1, out=state.step[name])
    m *= BETA1
    m += step
    for name, g in grads.items():
        np.square(g, out=state.step[name])
    step *= 1.0 - BETA2
    v *= BETA2
    v += step
    np.divide(m, correction1, out=step)
    step *= state.lr
    np.divide(v, correction2, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    for name, update in state.step.items():
        params[name] -= update


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


def train(
    model: Seq2SeqModel,
    data: WindowedDataset,
    cfg: TrainConfig,
    trainable: Iterable[str] | None = None,
) -> tuple[Seq2SeqModel, list[float]]:
    """Minibatch Adam on a copy of the model; returns (model, per-epoch loss).

    Only the blocks named in ``trainable`` (None: all) are updated; when
    all are output-layer blocks, a step skips the backprop cache and BPTT.
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
    model = copy.deepcopy(model)
    state = AdamState.fresh(model, cfg.lr, trainable)
    head_only = all(name.startswith("out.") for name in state.m)
    rng = Rng(cfg.seed)
    history: list[float] = []
    for _ in range(cfg.epochs):
        order = np.arange(len(data))
        rng.shuffle(order)
        total = 0.0
        for k in range(0, len(order), cfg.batch):
            idx = order[k : k + cfg.batch]
            inputs = data.inputs[idx]
            fwd = _forward(model, inputs, keep=False) if head_only else forward_batch(model, inputs)
            loss, dpred = huber(fwd.preds, data.targets[idx])
            if not math.isfinite(loss):
                raise NumericError(f"training loss became non-finite at step {state.t + 1}")
            grads = output_grads(dpred, fwd.feats) if head_only else backward_batch(model, fwd, dpred)
            adam_step(model, {name: grads[name] for name in state.m}, state)
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

    model = copy.deepcopy(source)
    head = init_output_layer(mc, Rng(seed))
    model.params.update(head)
    logs = []
    for name, cfg, trainable in (("freeze-body", cfg1, list(head)), ("fine-tune", cfg2, None)):
        history = []
        if cfg.epochs > 0:
            model, history = train(model, data, cfg, trainable)
        logs.append(PhaseLog(name, cfg.lr, history))
    return model, logs

