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

Everything runs batched, time-major (step, batch, width); a single
window is a batch of one.  Each LSTM keeps its four gates stacked in one
weight matrix, so a step is one GEMM (Appleyard, Kocisky & Blunsom 2016,
arXiv:1604.01946, section 3).  A model is its config plus one flat dict of
trainable arrays keyed by ``PARAMS``; the optimizer, the gradients and the
model file all walk that dict, and only the file splits the stacked arrays
per gate.  ``param_shapes`` is the one place the layer widths are stated.

The decoder's input is h_final at every step, so its input projection
h_final @ W_x.T + b is formed once per batch as a (batch, 4 hidden) bias
and a decoder step is only the recurrent GEMM; backward forms W_x's and
h_final's gradients from the step-summed gate gradients, one GEMM each.

The forward pass runs at the dtype of the params it is given.  Training,
every gradient and the model file are float64; ``predict_batch`` forecasts
from a float32 copy and returns float64, so a forecast can differ from the
float64 forward's in about the 7th significant digit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .numeric import Rng, assert_finite, sigmoid, softmax

GATES = ("f", "i", "c", "o")

# windows per predict_batch chunk: keeps a step's working set in a core's
# L2 cache at hidden 100
PREDICT_CHUNK = 128


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


# a model's trainable arrays, in the order gradients and the model file list them
PARAMS = ("enc.w", "enc.b", "dec.w", "dec.b", "out.w", "out.b")


@dataclass
class Seq2SeqModel:
    """A model is its config plus its trainable arrays, keyed by ``PARAMS``.
    An LSTM's gate preactivations are W @ [h_prev, x] + b; rows k*hidden to
    (k+1)*hidden of W and b belong to gate ``GATES[k]``.  The output layer
    maps features to one scalar: out.w . features + out.b."""

    config: ModelConfig
    params: dict[str, np.ndarray]


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every trainable array, in ``PARAMS`` order.  Inputs per step:
    encoder 1, decoder ``hidden`` (h_final); output layer: decoder h, after
    the attention context when there is one."""
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


def _glorot(rows: int, cols: int, rng: Rng) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform_array(rows * cols, -bound, bound).reshape(rows, cols)


def init(config: ModelConfig, rng: Rng) -> Seq2SeqModel:
    """Glorot-uniform weights, zero biases; draw order is fixed (encoder
    gates f,i,c,o row-major, then decoder, then output) so a seed pins the
    model bitwise."""
    shapes = param_shapes(config)
    params = {}
    for lstm in ("enc", "dec"):
        rows, cols = shapes[lstm + ".w"]
        # one Glorot draw per gate block, each bounded by the block's own fan-in/out
        params[lstm + ".w"] = np.concatenate([_glorot(rows // len(GATES), cols, rng) for _ in GATES])
        params[lstm + ".b"] = np.zeros(rows)
    params.update(init_output_layer(config, rng))
    return Seq2SeqModel(config=config, params=params)


def init_output_layer(config: ModelConfig, rng: Rng) -> dict[str, np.ndarray]:
    """Fresh ``out.w`` and ``out.b`` (used when re-targeting a trained model)."""
    (width,) = param_shapes(config)["out.w"]
    return {"out.w": _glorot(1, width, rng).reshape(width), "out.b": np.zeros(1)}


@dataclass
class _SeqCache:
    """Everything the reversed pass needs from one LSTM run.

    A run without the backprop cache keeps only ``h`` and the last cell
    state (``c`` holds one slot); its step slots are gone with the run.
    """

    z: np.ndarray | None        # (T, B, hidden+input): concatenated [h_prev, x]
    gates: np.ndarray | None    # (T, B, 4 hidden): activated f, i, g (candidate), o
    c: np.ndarray               # (T, B, hidden), or the last cell state alone
    tanh_c: np.ndarray | None
    h: np.ndarray       # (T, B, hidden)
    c0: np.ndarray      # (B, hidden)


def _run_lstm(w: np.ndarray, bias: np.ndarray, xs: np.ndarray, h0: np.ndarray,
              c0: np.ndarray, h: np.ndarray, keep: bool = True) -> _SeqCache:
    """Run the recurrence over ``xs`` (T, B, input; input may be 0 wide) from
    (h0, c0), writing the hidden sequence into ``h`` (T, B, hidden; may be a
    strided view).

    Every step writes into preallocated slots: one gate GEMM [h_prev, x_t] @ w.T,
    ``bias`` ((4H,) or (B, 4H)), the candidate's tanh saved aside while one
    in-place sigmoid covers all 4H columns, then the cell and hidden updates.
    Without ``keep`` there is one slot of each, the cell state included,
    updated in place.  The slots take ``w``'s dtype.
    """
    T, B, width = xs.shape
    hid = h0.shape[1]
    slots = T if keep else 1
    dtype = w.dtype
    z = np.empty((slots, B, hid + width), dtype)
    gates = np.empty((slots, B, len(GATES) * hid), dtype)
    tanh_c = np.empty((slots, B, hid), dtype)
    c = np.empty((slots, B, hid), dtype)
    # per slot, built once: the views a step writes, its four gate blocks last
    steps = list(zip(z, gates, tanh_c, c, *_gate_blocks(gates)))
    w_t = w.T
    cand = slice(2 * hid, 3 * hid)
    g_act = np.empty((B, hid), dtype)
    h_prev, c_prev = h0, c0
    for t in range(T):
        z_t, act, tc, c_t, f, i, g, o = steps[t if keep else 0]
        h_t = h[t]
        z_t[:, :hid] = h_prev
        z_t[:, hid:] = xs[t]
        np.matmul(z_t, w_t, out=act)
        act += bias
        np.tanh(act[:, cand], out=g_act)
        sigmoid(act, out=act)
        act[:, cand] = g_act
        np.multiply(f, c_prev, out=c_t)
        np.multiply(i, g, out=h_t)  # h_t holds i*g until the hidden update
        c_t += h_t
        np.tanh(c_t, out=tc)
        np.multiply(o, tc, out=h_t)
        h_prev, c_prev = h_t, c_t
    if not keep:
        z = gates = tanh_c = None
    return _SeqCache(z=z, gates=gates, c=c, tanh_c=tanh_c, h=h, c0=c0)


def _lstm_backward(
    w: np.ndarray,
    cache: _SeqCache,
    dh_seq: np.ndarray,
    dh_final: np.ndarray,
    dc_final: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reverse the recurrence that ``_run_lstm(w, ...)`` ran.

    dh_seq carries external gradients on each h_t; dh_final/dc_final are
    extra gradients on the last state.  Returns the gate preactivation
    grads (T, B, 4 hidden), which are also the bias grads, the grad of w,
    and the gradients on the initial state.
    """
    T, B, hid = dh_seq.shape
    w_h = w[:, :hid]
    dpre_seq = np.empty_like(cache.gates)
    dh_carry = dh_final.copy()
    dc_carry = dc_final.copy()
    f_seq, i_seq, g_seq, o_seq = _gate_blocks(cache.gates)
    for t in reversed(range(T)):
        f, i, g, o = f_seq[t], i_seq[t], g_seq[t], o_seq[t]
        tc = cache.tanh_c[t]
        dh = dh_seq[t] + dh_carry
        dc = dh * o * (1.0 - tc ** 2) + dc_carry
        c_prev = cache.c[t - 1] if t > 0 else cache.c0
        dpre = dpre_seq[t]
        np.concatenate([
            dc * c_prev * f * (1.0 - f),
            dc * g * i * (1.0 - i),
            dc * i * (1.0 - g ** 2),
            dh * tc * o * (1.0 - o),
        ], axis=1, out=dpre)
        dc_carry = dc * f
        dh_carry = dpre @ w_h
    # the weight grad sums over every (step, window) row at once
    dw = dpre_seq.reshape(T * B, -1).T @ cache.z.reshape(T * B, -1)
    return dpre_seq, dw, dh_carry, dc_carry


@dataclass
class ForwardCache:
    """Batched forward activations kept for backprop."""

    enc: _SeqCache
    dec: _SeqCache
    preds: np.ndarray         # (B, n_future)
    attn: np.ndarray | None   # (n_future, B, n_past)
    feats: np.ndarray         # (n_future, B, width): what the output layer read,
                              # [attention context, decoder h] or decoder h alone


def forward_batch(model: Seq2SeqModel, inputs: np.ndarray) -> ForwardCache:
    """Run encoder + decoder + output layer over a batch of windows."""
    return _forward(model, inputs, keep=True)


def _forward(model: Seq2SeqModel, inputs: np.ndarray, keep: bool) -> ForwardCache:
    """The forward pass; ``keep=False`` skips the per-step backprop cache and
    keeps only the hidden sequences that attention and the output layer read.

    With attention the context and the decoder's h are written straight into
    their halves of ``feats``.  Everything runs at the dtype of the params:
    float64 for training, float32 for ``predict_batch``'s copy.
    """
    cfg, p = model.config, model.params
    dtype = p["enc.w"].dtype
    inputs = np.asarray(inputs, dtype=dtype)
    if inputs.ndim != 2 or inputs.shape[1] != cfg.n_past:
        raise ValueError(f"expected inputs (batch, {cfg.n_past}), got {inputs.shape}")
    B = inputs.shape[0]
    hid = cfg.hidden
    xs_enc = inputs.T[:, :, None]  # (T, B, 1)
    zero = np.zeros((B, hid), dtype)
    enc = _run_lstm(p["enc.w"], p["enc.b"], xs_enc, zero, zero,
                    np.empty((cfg.n_past, B, hid), dtype), keep)
    h_final = enc.h[-1]
    feats = np.empty((cfg.n_future, B, 2 * hid if cfg.attention else hid), dtype)
    w_h, w_x = np.hsplit(p["dec.w"], [hid])
    # the constant input, projected once; the (B, 4 hidden) bias goes with the run
    dec = _run_lstm(w_h, h_final @ w_x.T + p["dec.b"], np.empty((cfg.n_future, B, 0), dtype),
                    h_final, enc.c[-1], feats[:, :, -hid:], keep)
    attn = None
    if cfg.attention:
        enc_b = enc.h.transpose(1, 0, 2)  # (B, n_past, hidden): matmul batches over windows
        scores = np.matmul(dec.h.transpose(1, 0, 2), enc_b.transpose(0, 2, 1))
        attn = softmax(scores, axis=-1).transpose(1, 0, 2)
        np.matmul(attn.transpose(1, 0, 2), enc_b, out=feats[:, :, :hid].transpose(1, 0, 2))
    preds = (feats @ p["out.w"]).T + p["out.b"][0]  # (B, n_future)
    assert_finite(preds, "forward predictions")
    return ForwardCache(enc=enc, dec=dec, preds=preds, attn=attn, feats=feats)


def backward_batch(model: Seq2SeqModel, cache: ForwardCache, dpreds: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of the (summed) loss wrt every parameter.

    dpreds is dLoss/dpredictions, shape (batch, n_future).  Gradients flow
    through the attention path and through both the decoder's repeated
    input and its initial state back into the encoder.
    """
    cfg, p = model.config, model.params
    if not isinstance(cache, ForwardCache) or any(
            seq.gates is None for seq in (cache.enc, cache.dec)):
        raise ValueError("backward requires the full ForwardCache from forward_batch")
    dpreds = np.asarray(dpreds, dtype=np.float64)
    if dpreds.shape != cache.preds.shape:
        raise ValueError(f"loss gradient shape {dpreds.shape} != predictions {cache.preds.shape}")
    hid = cfg.hidden
    B = dpreds.shape[0]
    dy = dpreds.T  # (n_future, B)

    dfeats = dy[:, :, None] * p["out.w"]  # (n_future, B, width)

    denc_seq = np.zeros((cfg.n_past, B, hid))
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

    zero = np.zeros((B, hid))
    w_h, w_x = np.hsplit(p["dec.w"], [hid])
    dec_dpre, dw_h, ddec_h0, ddec_c0 = _lstm_backward(w_h, cache.dec, ddec_seq, zero, zero)
    # h_final fed every step through the one projection and started the recurrence
    dpre_sum = dec_dpre.sum(axis=0)  # (B, 4 hidden)
    dec_dw = np.hstack([dw_h, dpre_sum.T @ cache.enc.h[-1]])
    dh_final = dpre_sum @ w_x + ddec_h0
    enc_dpre, enc_dw, _, _ = _lstm_backward(p["enc.w"], cache.enc, denc_seq, dh_final, ddec_c0)

    return {"enc.w": enc_dw, "enc.b": enc_dpre.sum(axis=(0, 1)),
            "dec.w": dec_dw, "dec.b": dpre_sum.sum(axis=0),
            **output_grads(dpreds, cache.feats)}


def output_grads(dpreds: np.ndarray, feats: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the output layer alone, from dLoss/dpredictions (batch,
    n_future) and the features it read (n_future, batch, width)."""
    dy = dpreds.T
    return {"out.w": np.einsum("sb,sbk->k", dy, feats), "out.b": np.array([dy.sum()])}


def predict_batch(model: Seq2SeqModel, inputs: np.ndarray) -> np.ndarray:
    """Predictions for many windows, in ``PREDICT_CHUNK``-window chunks run
    on a thread pool of one worker per CPU this process may use, at most one
    per chunk.

    Chunk j fills slot j, so each chunk's bits and the output do not depend
    on the worker count.  numpy releases the interpreter lock in the GEMMs
    and ufuncs where the time goes.  No backprop cache is kept: a chunk
    holds the encoder and decoder hidden sequences, the output layer's
    features and one step's slots.  If chunks fail, e.g. with
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
    model32 = Seq2SeqModel(model.config, {name: arr.astype(np.float32)
                                          for name, arr in model.params.items()})
    chunks = [inputs[k:k + PREDICT_CHUNK] for k in range(0, len(inputs), PREDICT_CHUNK)]
    # the CPUs this process may run on; platforms without affinity report all
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # leaving the block shuts the pool down, joining every worker
    with ThreadPoolExecutor(min(cpus or 1, len(chunks))) as pool:
        parts = list(pool.map(lambda chunk: _forward(model32, chunk, keep=False).preds, chunks))
    return np.concatenate(parts).astype(np.float64)
