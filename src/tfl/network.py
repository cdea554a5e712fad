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
arXiv:1604.01946, section 3).  Those stacked arrays are the trainable
blocks; only the model file splits them per gate.

The decoder's input is h_final at every step, so its input projection
h_final @ W_x.T + b is formed once per batch as a (batch, 4 hidden) bias
and a decoder step is only the recurrent GEMM; backward forms W_x's and
h_final's gradients from the step-summed gate gradients, one GEMM each.
"""

from __future__ import annotations

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


@dataclass
class LstmParams:
    """One LSTM's weights, the gates stacked in ``GATES`` order.

    Gate preactivations are W @ [h_prev, x] + b; rows k*hidden to
    (k+1)*hidden of W and b belong to gate ``GATES[k]``.
    """

    w: np.ndarray  # (4 hidden, hidden + input)
    b: np.ndarray  # (4 hidden,)

    def __post_init__(self):
        rows, cols = self.w.shape
        if rows % len(GATES) or self.b.shape != (rows,) or cols <= rows // len(GATES):
            raise ValueError(f"inconsistent LSTM shapes: W {self.w.shape}, b {self.b.shape}")


@dataclass
class DenseParams:
    """Shared affine output layer: scalar = w . features + b."""

    w: np.ndarray  # (width,)
    b: np.ndarray  # (1,)


@dataclass
class Seq2SeqModel:
    config: ModelConfig
    encoder: LstmParams
    decoder: LstmParams
    output: DenseParams


def output_width(config: ModelConfig) -> int:
    return 2 * config.hidden if config.attention else config.hidden


def _gate_blocks(stacked: np.ndarray) -> list[np.ndarray]:
    """Views of the GATES-ordered column blocks of a (B, 4H) gate array."""
    hid = stacked.shape[1] // len(GATES)
    return [stacked[:, k * hid:(k + 1) * hid] for k in range(len(GATES))]


def param_items(model: Seq2SeqModel) -> list[tuple[str, np.ndarray]]:
    """Flat (name, array) view of every learnable block, fixed order.

    The arrays are the model's own, so in-place updates through them
    update the model.
    """
    return [
        ("enc.w", model.encoder.w), ("enc.b", model.encoder.b),
        ("dec.w", model.decoder.w), ("dec.b", model.decoder.b),
        ("out.w", model.output.w), ("out.b", model.output.b),
    ]


def _glorot(rows: int, cols: int, rng: Rng) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform_array(rows * cols, -bound, bound).reshape(rows, cols)


def _init_lstm(hidden: int, input_width: int, rng: Rng) -> LstmParams:
    # one Glorot draw per gate block, each bounded by the block's own fan-in/out
    w = np.concatenate([_glorot(hidden, hidden + input_width, rng) for _ in GATES])
    return LstmParams(w=w, b=np.zeros(len(GATES) * hidden))


def init(config: ModelConfig, rng: Rng) -> Seq2SeqModel:
    """Glorot-uniform weights, zero biases; draw order is fixed (encoder
    gates f,i,c,o row-major, then decoder, then output) so a seed pins the
    model bitwise."""
    encoder = _init_lstm(config.hidden, 1, rng)
    decoder = _init_lstm(config.hidden, config.hidden, rng)
    return Seq2SeqModel(config=config, encoder=encoder, decoder=decoder,
                        output=init_output_layer(config, rng))


def init_output_layer(config: ModelConfig, rng: Rng) -> DenseParams:
    """Fresh output layer (used when re-targeting a trained model)."""
    width = output_width(config)
    return DenseParams(w=_glorot(1, width, rng).reshape(width), b=np.zeros(1))


@dataclass
class _SeqCache:
    """Everything the reversed pass needs from one LSTM run.

    A run without the backprop cache keeps one reused slot of ``z``,
    ``gates`` and ``tanh_c`` instead of one per step.
    """

    z: np.ndarray       # (T, B, hidden+input): concatenated [h_prev, x]
    gates: np.ndarray   # (T, B, 4 hidden): activated f, i, g (candidate), o
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray       # (T, B, hidden)
    c0: np.ndarray      # (B, hidden)


def _run_lstm(w: np.ndarray, bias: np.ndarray, xs: np.ndarray, h0: np.ndarray,
              c0: np.ndarray, keep: bool = True) -> _SeqCache:
    """Run the recurrence over ``xs`` (T, B, input; input may be 0 wide) from (h0, c0).

    Every step writes into preallocated slots: one gate GEMM [h_prev, x_t] @ w.T,
    ``bias`` ((4H,) or (B, 4H)), the candidate's tanh saved aside while one
    in-place sigmoid covers all 4H columns, then the cell and hidden updates.
    """
    T, B, width = xs.shape
    hid = h0.shape[1]
    slots = T if keep else 1
    cache = _SeqCache(
        z=np.empty((slots, B, hid + width)), gates=np.empty((slots, B, len(GATES) * hid)),
        c=np.empty((T, B, hid)), tanh_c=np.empty((slots, B, hid)), h=np.empty((T, B, hid)), c0=c0,
    )
    w_t = w.T
    cand = slice(2 * hid, 3 * hid)
    g_act = np.empty((B, hid))
    h, c = h0, c0
    for t in range(T):
        s = t if keep else 0
        z, act, tc, c_t, h_t = cache.z[s], cache.gates[s], cache.tanh_c[s], cache.c[t], cache.h[t]
        z[:, :hid] = h
        z[:, hid:] = xs[t]
        np.matmul(z, w_t, out=act)
        act += bias
        np.tanh(act[:, cand], out=g_act)
        sigmoid(act, out=act)
        act[:, cand] = g_act
        f, i, g, o = _gate_blocks(act)
        np.multiply(f, c, out=c_t)
        np.multiply(i, g, out=h_t)  # h_t holds i*g until the hidden update
        c_t += h_t
        np.tanh(c_t, out=tc)
        np.multiply(o, tc, out=h_t)
        h, c = h_t, c_t
    return cache


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
    for t in reversed(range(T)):
        f, i, g, o = _gate_blocks(cache.gates[t])
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
    keeps only the hidden and cell sequences that attention and the decoder's
    initial state read."""
    cfg = model.config
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != cfg.n_past:
        raise ValueError(f"expected inputs (batch, {cfg.n_past}), got {inputs.shape}")
    B = inputs.shape[0]
    hid = cfg.hidden
    xs_enc = inputs.T[:, :, None]  # (T, B, 1)
    zero = np.zeros((B, hid))
    enc = _run_lstm(model.encoder.w, model.encoder.b, xs_enc, zero, zero, keep)
    h_final, c_final = enc.h[-1], enc.c[-1]
    w_h, w_x = np.hsplit(model.decoder.w, [hid])
    dec_bias = h_final @ w_x.T + model.decoder.b  # the constant input, projected once
    dec = _run_lstm(w_h, dec_bias, np.empty((cfg.n_future, B, 0)), h_final, c_final, keep)
    if cfg.attention:
        enc_b = enc.h.transpose(1, 0, 2)  # (B, n_past, hidden): matmul batches over windows
        scores = np.matmul(dec.h.transpose(1, 0, 2), enc_b.transpose(0, 2, 1))
        attn = softmax(scores, axis=-1).transpose(1, 0, 2)
        ctx = np.matmul(attn.transpose(1, 0, 2), enc_b).transpose(1, 0, 2)
        feats = np.concatenate([ctx, dec.h], axis=2)
    else:
        attn = None
        feats = dec.h
    preds = (feats @ model.output.w).T + model.output.b[0]  # (B, n_future)
    assert_finite(preds, "forward predictions")
    return ForwardCache(enc=enc, dec=dec, preds=preds, attn=attn, feats=feats)


def backward_batch(model: Seq2SeqModel, cache: ForwardCache, dpreds: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of the (summed) loss wrt every parameter.

    dpreds is dLoss/dpredictions, shape (batch, n_future).  Gradients flow
    through the attention path and through both the decoder's repeated
    input and its initial state back into the encoder.
    """
    cfg = model.config
    if not isinstance(cache, ForwardCache) or any(
            len(seq.gates) != len(seq.h) for seq in (cache.enc, cache.dec)):
        raise ValueError("backward requires the full ForwardCache from forward_batch")
    dpreds = np.asarray(dpreds, dtype=np.float64)
    if dpreds.shape != cache.preds.shape:
        raise ValueError(f"loss gradient shape {dpreds.shape} != predictions {cache.preds.shape}")
    hid = cfg.hidden
    B = dpreds.shape[0]
    dy = dpreds.T  # (n_future, B)

    dfeats = dy[:, :, None] * model.output.w  # (n_future, B, width)

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
    w_h, w_x = np.hsplit(model.decoder.w, [hid])
    dec_dpre, dw_h, ddec_h0, ddec_c0 = _lstm_backward(w_h, cache.dec, ddec_seq, zero, zero)
    # h_final fed every step through the one projection and started the recurrence
    dpre_sum = dec_dpre.sum(axis=0)  # (B, 4 hidden)
    dec_dw = np.hstack([dw_h, dpre_sum.T @ cache.enc.h[-1]])
    dh_final = dpre_sum @ w_x + ddec_h0
    enc_dpre, enc_dw, _, _ = _lstm_backward(model.encoder.w, cache.enc, denc_seq, dh_final, ddec_c0)

    return {"enc.w": enc_dw, "enc.b": enc_dpre.sum(axis=(0, 1)),
            "dec.w": dec_dw, "dec.b": dpre_sum.sum(axis=0),
            **output_grads(dpreds, cache.feats)}


def output_grads(dpreds: np.ndarray, feats: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the output layer alone, from dLoss/dpredictions (batch,
    n_future) and the features it read (n_future, batch, width)."""
    dy = dpreds.T
    return {"out.w": np.einsum("sb,sbk->k", dy, feats), "out.b": np.array([dy.sum()])}


def predict_batch(model: Seq2SeqModel, inputs: np.ndarray) -> np.ndarray:
    """Predictions for many windows, ``PREDICT_CHUNK`` at a time to bound memory.

    No backprop cache is kept: a chunk of B windows holds the encoder and
    decoder (h, c) sequences, 16 (n_past + n_future) B hidden bytes, plus
    the decoder's projected input and one step's slots.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    parts = [
        _forward(model, inputs[k : k + PREDICT_CHUNK], keep=False).preds
        for k in range(0, len(inputs), PREDICT_CHUNK)
    ]
    return np.concatenate(parts) if parts else np.empty((0, model.config.n_future))
