"""Seq2seq LSTM forecaster: forward pass and backpropagation through time.

Two architectures share one skeleton.  An encoder LSTM consumes the input
window from a zero initial state; the decoder LSTM starts from the
encoder's final (h, c) and receives that same final hidden state as its
input at every step (non-autoregressive).  A single affine output layer,
shared across decoder steps, maps each decoder hidden state (plain) or
the concatenation of attention context and decoder hidden state
(attention variant) to one scalar forecast per step.

Attention scores are unscaled dot products between decoder and encoder
hidden states, softmax-normalized over encoder positions.

Everything runs batched, time-major (step, batch, width); a single window
is a batch of one.  Each LSTM keeps its four gates stacked in one weight
matrix, so a step is one GEMM (Appleyard, Kocisky & Blunsom 2016,
arXiv:1604.01946, section 3) that reads [h_{t-1}, x_t] from slot t of one
(T+1)-slot array per run, where step t-1 wrote h.

The forward pass pads the batch once with zero windows to whole slabs of
``SLAB`` rows, and every forward GEMM (the gate GEMMs, the decoder's input
projection and the output layer) runs over those slabs, so a window's
forecast has the same bits whatever batch, position, chunk or worker it
runs in: BLAS picks its GEMM kernel by the row count, and with one row
count it picks one kernel (the batch-invariance fix of Horace He,
"Defeating Nondeterminism in LLM Inference", Thinking Machines Lab, 2025).
Checked in float32 and float64 at hidden 3, 24, 49, 51 and 100, plain and
attention, with numpy 2.4.6 on scipy-openblas 0.3.31 (x86-64).  The
forward cache views the real windows alone: backward never reads a pad.

A model is its config plus one vector, viewed per array by ``params``;
gradients come in the same layout, and only the model file splits the
stacked arrays per gate.  ``param_shapes`` states the layer widths.

The decoder's input is h_final at every step, so its input projection
h_final @ W_x.T + b is formed once per batch as a (batch, 4 hidden) bias
and a decoder step is only the recurrent GEMM; backward forms W_x's and
h_final's gradients from the step-summed gate gradients, one GEMM each.

The forward and backward passes run at the dtype of the vector they are
given: float32 in training (on a mirror of the float64 master weights, see
``training.train``) and in ``predict_batch``, float64 in the model file and
the tests' finite-difference check.  ``forward_batch`` runs under
``numeric.quiet``, per call and thread (so each ``predict_batch`` worker),
and refuses non-finite predictions; so does ``predict_batch``, which casts
the params to float32 under it.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .numeric import Rng, assert_finite, quiet, sigmoid, softmax

GATES = ("f", "i", "c", "o")

# windows per predict_batch chunk.  Two workers hand the interpreter lock
# back and forth between numpy calls, so a larger chunk (fewer calls per
# window) forecasts faster, at a memory cost: an evaluate of a plain and an
# attention hidden-100 model peaks at 40.5 MB max RSS at 128, 45.8 MB at 256
# and 52-55 MB at 512 (2 CPUs)
PREDICT_CHUNK = 256

# rows per forward GEMM, so that a window's bits do not depend on its batch
SLAB = 8

EMPTY_BATCH = "empty batch: the forward and backward passes need at least one window"


@dataclass
class ModelConfig:
    n_past: int = 12
    n_future: int = 6
    hidden: int = 100
    attention: bool = False

    def __post_init__(self):
        for name in ("n_past", "n_future", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True, eq=False)
class Seq2SeqModel:
    """``flat`` holds the trainable arrays end to end in ``param_shapes``
    order, the output layer last; ``params`` is a read-only mapping of views
    into it, built once, and a copy is rebuilt from config and vector.  An
    LSTM's gate preactivations are W @ [h_prev, x] + b; rows k*hidden to
    (k+1)*hidden of W and b belong to gate ``GATES[k]``.  The output layer
    maps features to one scalar: out.w . features + out.b."""

    config: ModelConfig
    flat: np.ndarray
    params: MappingProxyType = field(init=False, repr=False)

    def __post_init__(self):
        shapes = param_shapes(self.config)
        ends = list(itertools.accumulate(math.prod(shape) for shape in shapes.values()))
        if self.flat.shape != (ends[-1],):
            raise ValueError(f"{self.config} needs {ends[-1]} parameters, got shape {self.flat.shape}")
        object.__setattr__(self, "params", MappingProxyType({
            name: self.flat[start:end].reshape(shape)
            for (name, shape), start, end in zip(shapes.items(), [0, *ends], ends)}))

    def __reduce__(self):
        return Seq2SeqModel, (self.config, self.flat)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every trainable array, in the order of the model's vector.
    Inputs per step: encoder 1, decoder ``hidden`` (h_final); output layer:
    decoder h, after the attention context when there is one."""
    hid = config.hidden
    rows = len(GATES) * hid
    return {
        "enc.w": (rows, hid + 1), "enc.b": (rows,),
        "dec.w": (rows, hid + hid), "dec.b": (rows,),
        "out.w": (2 * hid if config.attention else hid,), "out.b": (1,),
    }


def _gate_blocks(stacked: np.ndarray) -> list[np.ndarray]:
    """Views of the GATES-ordered blocks of a (..., 4H) gate array's last axis."""
    hid = stacked.shape[-1] // len(GATES)
    return [stacked[..., k * hid:(k + 1) * hid] for k in range(len(GATES))]


def _glorot(out: np.ndarray, rng: Rng) -> None:
    """Fill a (rows, cols) view with draws within Glorot's uniform bound."""
    bound = np.sqrt(6.0 / sum(out.shape))
    out[...] = rng.uniform_array(out.size, -bound, bound).reshape(out.shape)


def init(config: ModelConfig, rng: Rng) -> Seq2SeqModel:
    """Glorot-uniform weights, zero biases; draw order is fixed (encoder
    gates f,i,c,o row-major, then decoder, then output) so a seed pins the
    model bitwise."""
    model = Seq2SeqModel(config, np.zeros(sum(math.prod(s) for s in param_shapes(config).values())))
    for lstm in ("enc", "dec"):
        # one Glorot draw per gate block, each bounded by the block's own fan-in/out
        for block in np.split(model.params[lstm + ".w"], len(GATES)):
            _glorot(block, rng)
    init_output_layer(model, rng)
    return model


def init_output_layer(model: Seq2SeqModel, rng: Rng) -> None:
    """Re-target ``model`` in place: a fresh ``out.w`` and a zero ``out.b``."""
    _glorot(model.params["out.w"][None], rng)
    model.params["out.b"][:] = 0.0


@dataclass
class _SeqCache:
    """Everything the reversed pass needs from one LSTM run.

    Slot t of ``z`` is step t's GEMM input [h_{t-1}, x_t], so ``h`` is the
    view z[1:, :, :hidden] and ``c`` holds c0 in slot 0.  A run without the
    backprop cache keeps ``z`` and one slot of ``c``, the last cell state.
    A run covers the padded batch; ``first`` views its real windows.
    """

    z: np.ndarray               # (T+1, B, hidden+input); slot T's input part is unset
    gates: np.ndarray | None    # (T, B, 4 hidden): activated f, i, g (candidate), o
    c: np.ndarray               # (T+1, B, hidden): c0, then each c_t; or the last alone
    tanh_c: np.ndarray | None
    h: np.ndarray               # (T, B, hidden)

    def first(self, n: int) -> _SeqCache:
        """Views of the first ``n`` windows of every array."""
        return _SeqCache(**{k: None if a is None else a[:, :n] for k, a in vars(self).items()})


def _run_lstm(w: np.ndarray, bias: np.ndarray, xs: np.ndarray, h0: np.ndarray,
              c0: np.ndarray, keep: bool = True) -> _SeqCache:
    """Run the recurrence over ``xs`` (T, B, input; B whole ``SLAB``-row
    slabs, input may be 0 wide) from (h0, c0), copied into ``z`` once.

    Every step writes into preallocated slots: the gate GEMM z[t] @ w.T over
    the slabs, ``bias`` ((4H,) or (B, 4H)), the candidate's tanh saved aside
    while one in-place sigmoid covers all 4H columns, then the cell update
    and h_t into z[t+1].  Without ``keep`` there is one slot of gates and
    one of the cell state, updated in place.  The slots take ``w``'s dtype.
    """
    T, B, width = xs.shape
    hid = h0.shape[1]
    slots = T if keep else 1
    dtype = w.dtype
    z = np.empty((T + 1, B, hid + width), dtype)
    z[:T, :, hid:] = xs
    z[0, :, :hid] = h0
    h = z[1:, :, :hid]
    gates = np.empty((slots, B, len(GATES) * hid), dtype)
    tanh_c = np.empty((slots, B, hid), dtype)
    c = np.empty((T + 1 if keep else 1, B, hid), dtype)
    c[0] = c0
    # per slot, built once: the views a step reads and writes, its four gate blocks last
    steps = list(zip(gates.reshape(slots, -1, SLAB, gates.shape[-1]), gates, tanh_c, c,
                     c[1:] if keep else c, *_gate_blocks(gates)))
    z_slabs = z.reshape(T + 1, -1, SLAB, z.shape[-1])
    w_t = np.ascontiguousarray(w.T)  # a strided w.T slows the slab GEMMs 1.4-5x
    cand = slice(2 * hid, 3 * hid)
    g_act = np.empty((B, hid), dtype)
    for t in range(T):
        act_slabs, act, tc, c_prev, c_t, f, i, g, o = steps[t if keep else 0]
        np.matmul(z_slabs[t], w_t, out=act_slabs)
        act += bias
        np.tanh(act[:, cand], out=g_act)
        sigmoid(act)
        act[:, cand] = g_act
        np.multiply(f, c_prev, out=c_t)
        np.multiply(i, g, out=g_act)
        c_t += g_act
        np.tanh(c_t, out=tc)
        np.multiply(o, tc, out=h[t])
    if not keep:
        gates = tanh_c = None
    return _SeqCache(z=z, gates=gates, c=c, tanh_c=tanh_c, h=h)


def _lstm_backward(
    w: np.ndarray,
    cache: _SeqCache,
    dh_seq: np.ndarray,
    dh_final: np.ndarray,
    dc_final: np.ndarray,
    dw: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reverse the recurrence that ``_run_lstm(w, ...)`` ran.

    dh_seq carries external gradients on each h_t; dh_final/dc_final are
    extra gradients on the last state.  Writes the grad of w into ``dw``;
    returns the gate preactivation grads (T, B, 4 hidden), which are also
    the bias grads, and the gradients on the initial state.

    Each gate's local derivative is formed for all steps at once, in place
    of the gate grads, so a reverse step is five elementwise calls, one
    broadcast copy and the recurrent GEMM.
    """
    T, B, hid = dh_seq.shape
    w_h = w[:, :hid]
    f, i, g, o = _gate_blocks(cache.gates)
    tc = cache.tanh_c
    # a step's gate grads are [dc, dc, dc, dh] times these local derivatives
    dpre_seq = np.subtract(1, cache.gates)
    dpre_seq *= cache.gates  # the sigmoid's x (1 - x)
    d_f, d_i, d_g, d_o = _gate_blocks(dpre_seq)
    np.square(g, out=d_g)
    np.subtract(1, d_g, out=d_g)  # the candidate's tanh: 1 - g^2
    d_f *= cache.c[:-1]
    d_i *= g
    d_g *= i
    d_o *= tc
    dtc = np.square(tc)
    np.subtract(1, dtc, out=dtc)
    dtc *= o  # dh_t -> dc_t
    dcdh = np.empty((B, len(GATES), hid), w.dtype)
    dc, dh = dcdh[:, 0], dcdh[:, -1]
    dh_carry, dc_carry = dh_final.copy(), dc_final.copy()
    for t in reversed(range(T)):
        np.add(dh_seq[t], dh_carry, out=dh)
        np.multiply(dh, dtc[t], out=dc)
        dc += dc_carry
        dcdh[:, 1:-1] = dc[:, None]
        dpre = dpre_seq[t]
        np.multiply(dcdh.reshape(B, -1), dpre, out=dpre)
        np.multiply(dc, f[t], out=dc_carry)
        np.matmul(dpre, w_h, out=dh_carry)
    # the weight grad sums over every (step, window) row at once
    np.matmul(dpre_seq.reshape(T * B, -1).T, cache.z[:-1].reshape(T * B, -1), out=dw)
    return dpre_seq, dh_carry, dc_carry


@dataclass
class ForwardCache:
    """Batched forward activations kept for backprop, the real windows' views."""

    enc: _SeqCache
    dec: _SeqCache
    preds: np.ndarray         # (n, n_future)
    attn: np.ndarray | None   # (n_future, n, n_past)
    feats: np.ndarray         # (n_future, n, width): what the output layer read,
                              # [attention context, decoder h], or dec.h itself


@quiet()
def forward_batch(model: Seq2SeqModel, inputs: np.ndarray, keep: bool = True) -> ForwardCache:
    """Run encoder + decoder + output layer over a batch of windows;
    ``keep=False`` skips the per-step backprop cache and keeps only the
    hidden sequences that attention and the output layer read.

    ``feats`` is ``dec.h``, or with attention [context, copy of ``dec.h``].
    Everything runs at the dtype of the params: float32 for training's
    mirror and ``predict_batch``'s copy.  An empty batch is refused.
    """
    cfg, p = model.config, model.params
    dtype = model.flat.dtype
    inputs = np.asarray(inputs, dtype=dtype)
    if inputs.ndim != 2 or inputs.shape[1] != cfg.n_past:
        raise ValueError(f"expected inputs (batch, {cfg.n_past}), got {inputs.shape}")
    n = inputs.shape[0]
    if n == 0:
        raise ValueError(EMPTY_BATCH)
    B = n + -n % SLAB  # zero windows pad the batch to whole slabs
    hid = cfg.hidden
    xs = np.zeros((cfg.n_past, B, 1), dtype)
    xs[:, :n, 0] = inputs.T
    zero = np.zeros((B, hid), dtype)
    enc = _run_lstm(p["enc.w"], p["enc.b"], xs, zero, zero, keep)
    h_final = enc.h[-1]
    w_h, w_x = p["dec.w"][:, :hid], p["dec.w"][:, hid:]
    # the constant input, projected once; the (B, 4 hidden) bias goes with the run
    proj = np.matmul(h_final.reshape(-1, SLAB, hid), np.ascontiguousarray(w_x.T)).reshape(B, -1)
    proj += p["dec.b"]
    dec = _run_lstm(w_h, proj, np.empty((cfg.n_future, B, 0), dtype), h_final, enc.c[-1], keep)
    attn, feats = None, dec.h
    if cfg.attention:
        feats = np.empty((cfg.n_future, B, 2 * hid), dtype)
        feats[:, :, hid:] = dec.h
        enc_b = enc.h.transpose(1, 0, 2)  # (B, n_past, hidden): matmul batches over windows
        scores = np.matmul(dec.h.transpose(1, 0, 2), enc_b.transpose(0, 2, 1))
        attn = softmax(scores).transpose(1, 0, 2)
        np.matmul(attn.transpose(1, 0, 2), enc_b, out=feats[:, :, :hid].transpose(1, 0, 2))
    # the output layer in slabs too, one row per (step, window)
    out = np.matmul(feats.reshape(-1, SLAB, feats.shape[-1]), p["out.w"][:, None])
    preds = out.reshape(cfg.n_future, B)[:, :n].T + p["out.b"][0]  # (n, n_future)
    assert_finite(preds, "forward predictions")
    return ForwardCache(enc=enc.first(n), dec=dec.first(n), preds=preds,
                        attn=None if attn is None else attn[:, :n], feats=feats[:, :n])


def backward_batch(model: Seq2SeqModel, cache: ForwardCache, dpreds: np.ndarray) -> Seq2SeqModel:
    """Exact gradients of the (summed) loss wrt every parameter, written
    into the views of a model of ``model``'s layout and dtype.

    dpreds is dLoss/dpredictions, shape (batch, n_future), cast to the
    params' dtype.  Gradients flow through the attention path and through
    both the decoder's repeated input and its initial state back into the
    encoder.
    """
    cfg, p = model.config, model.params
    if not isinstance(cache, ForwardCache) or any(
            seq.gates is None for seq in (cache.enc, cache.dec)):
        raise ValueError("backward requires the full ForwardCache from forward_batch")
    dtype = model.flat.dtype
    dpreds = np.asarray(dpreds, dtype=dtype)
    if not dpreds.size:
        raise ValueError(EMPTY_BATCH)
    if dpreds.shape != cache.preds.shape:
        raise ValueError(f"loss gradient shape {dpreds.shape} != predictions {cache.preds.shape}")
    hid = cfg.hidden
    B = dpreds.shape[0]
    dfeats = dpreds.T[:, :, None] * p["out.w"]  # (n_future, B, width)

    denc_seq = np.zeros((cfg.n_past, B, hid), dtype)
    if cfg.attention:
        dctx = dfeats[:, :, :hid]
        ddec_seq = dfeats[:, :, hid:]  # a view: dfeats is this call's own array
        attn, enc_h, dec_h = cache.attn, cache.enc.h, cache.dec.h
        dattn = np.einsum("sbh,tbh->sbt", dctx, enc_h)
        denc_seq += np.einsum("sbt,sbh->tbh", attn, dctx)
        dscores = attn * (dattn - np.sum(attn * dattn, axis=-1, keepdims=True))
        ddec_seq += np.einsum("sbt,tbh->sbh", dscores, enc_h)
        denc_seq += np.einsum("sbt,sbh->tbh", dscores, dec_h)
    else:
        ddec_seq = dfeats

    grads = Seq2SeqModel(cfg, np.empty(model.flat.shape, dtype))
    g = grads.params
    zero = np.zeros((B, hid), dtype)
    w_h, w_x = p["dec.w"][:, :hid], p["dec.w"][:, hid:]
    dec_dpre, ddec_h0, ddec_c0 = _lstm_backward(w_h, cache.dec, ddec_seq, zero, zero, g["dec.w"][:, :hid])
    # h_final fed every step through the one projection and started the recurrence
    dpre_sum = dec_dpre.sum(axis=0)  # (B, 4 hidden)
    np.matmul(dpre_sum.T, cache.enc.h[-1], out=g["dec.w"][:, hid:])
    np.sum(dpre_sum, axis=0, out=g["dec.b"])
    dh_final = dpre_sum @ w_x + ddec_h0
    enc_dpre, _, _ = _lstm_backward(p["enc.w"], cache.enc, denc_seq, dh_final, ddec_c0, g["enc.w"])
    np.sum(enc_dpre, axis=(0, 1), out=g["enc.b"])
    grads.flat[-p["out.w"].size - 1:] = output_grads(dpreds, cache.feats)
    return grads


def output_grads(dpreds: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Gradients of the output layer alone, from dLoss/dpredictions (batch,
    n_future) and the features it read (n_future, batch, width), at the
    features' dtype: the model vector's tail, ``out.w``'s then ``out.b``'s."""
    dy = np.asarray(dpreds, dtype=feats.dtype).T
    return np.append(np.einsum("sb,sbk->k", dy, feats), dy.sum())


@quiet()
def predict_batch(model: Seq2SeqModel, inputs: np.ndarray) -> np.ndarray:
    """Predictions for many windows, in ``PREDICT_CHUNK``-window chunks run
    on a thread pool of one worker per CPU this process may use, at most one
    per chunk.

    Chunk j fills slot j, and a window's bits do not depend on the batch it
    runs in, so the output depends neither on the chunk size nor on the
    worker count.  numpy releases the interpreter lock in the GEMMs
    and ufuncs where the time goes.  No backprop cache is kept: a chunk
    holds the encoder's and decoder's state arrays, the attention model's
    output features and one step's slots.  If chunks fail, e.g. with
    ``NumericError`` from non-finite predictions, the lowest-numbered
    failing chunk's error is raised once every worker has joined; chunks
    still queued then are cancelled.

    The forecasts are computed in float32, from a float32 copy of the
    params that the workers share, and returned as float64; they can differ
    from ``forward_batch``'s float64 predictions in about the 7th
    significant digit.  ``model`` itself is left as it is.
    """
    # imported here: it loads logging, queue and traceback, which no other
    # command needs at start-up
    from concurrent.futures import ThreadPoolExecutor

    inputs = np.asarray(inputs, dtype=np.float64)
    if not len(inputs):
        return np.empty((0, model.config.n_future))
    model32 = Seq2SeqModel(model.config, model.flat.astype(np.float32))
    chunks = [inputs[k:k + PREDICT_CHUNK] for k in range(0, len(inputs), PREDICT_CHUNK)]
    # the CPUs this process may run on; platforms without affinity report all
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # leaving the block shuts the pool down, joining every worker
    with ThreadPoolExecutor(min(cpus or 1, len(chunks))) as pool:
        parts = list(pool.map(lambda chunk: forward_batch(model32, chunk, keep=False).preds, chunks))
    return np.concatenate(parts).astype(np.float64)
