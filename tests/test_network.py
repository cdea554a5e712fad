import copy
import dataclasses
import functools
import math
import os
import pickle
import re
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfl import network as net
from tfl.errors import NumericError
from tfl.numeric import Rng, sigmoid

import oracles


def zero_lstm(hidden: int, input_width: int) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros((4 * hidden, hidden + input_width)), np.zeros(4 * hidden)


def param_count(cfg: net.ModelConfig) -> int:
    return sum(math.prod(shape) for shape in net.param_shapes(cfg).values())


def zero_model(n_past=4, n_future=3, hidden=5, attention=False) -> net.Seq2SeqModel:
    cfg = net.ModelConfig(n_past=n_past, n_future=n_future, hidden=hidden,
                          attention=attention)
    return net.Seq2SeqModel(cfg, np.zeros(param_count(cfg)))


def float32_copy(model: net.Seq2SeqModel) -> net.Seq2SeqModel:
    """The model with float32 params, as ``predict_batch`` runs it."""
    return net.Seq2SeqModel(model.config, model.flat.astype(np.float32))


# predict_batch's float32 forecasts against the float64 forward, in scaled
# units: half a float32 ulp at 1.0.  The largest gap these tests' models
# show is 3.5e-8 (numpy 2.4.6 on OpenBLAS, x86-64).
FLOAT32_GAP = 2.0 ** -24


def lstm(model: net.Seq2SeqModel, prefix: str) -> tuple[np.ndarray, np.ndarray]:
    return model.params[prefix + ".w"], model.params[prefix + ".b"]


def ref_step(params, x, h, c):
    """Independent per-vector LSTM cell, one matrix-vector product per gate
    (gate k owns rows k*hidden:(k+1)*hidden).  Returns (h, c, gates)."""
    w, b = params
    hid = len(b) // 4
    z = np.concatenate([h, np.asarray(x, dtype=np.float64).reshape(-1)])

    def gate(k, activation):
        rows = slice(k * hid, (k + 1) * hid)
        return activation(w[rows] @ z + b[rows])

    f, i, g, o = gate(0, sigmoid), gate(1, sigmoid), gate(2, np.tanh), gate(3, sigmoid)
    c = f * c + i * g
    return o * np.tanh(c), c, (f, i, g, o)


def ref_encode(model: net.Seq2SeqModel, window):
    """Encoder hidden stack (n_past, hidden) and final (h, c), step by step."""
    h = c = np.zeros(model.config.hidden)
    stack = []
    for v in window:
        h, c, _ = ref_step(lstm(model, "enc"), [v], h, c)
        stack.append(h)
    return np.array(stack), h, c


def ref_decode(model: net.Seq2SeqModel, h_final, c_final):
    """Decoder hidden stack: input and initial hidden state are both h_T."""
    h, c = h_final, c_final
    stack = []
    for _ in range(model.config.n_future):
        h, c, _ = ref_step(lstm(model, "dec"), h_final, h, c)
        stack.append(h)
    return np.array(stack)


def run_cell(params, xs):
    """One batched LSTM run from the zero state over a single sequence xs
    of shape (T, input), as row 0 of a batch padded with zero sequences to
    one ``SLAB``; the checks read row 0."""
    w, b = params
    xs = np.asarray(xs, dtype=np.float64)
    padded = np.zeros((len(xs), net.SLAB, xs.shape[1]))
    padded[:, 0] = xs
    zero = np.zeros((net.SLAB, len(b) // 4))
    return net._run_lstm(w, b, padded, zero, zero)


class TestLstmStep:
    def test_zero_params_fixed_point(self):
        params = zero_lstm(3, 1)
        cache = run_cell(params, [[0.7]])
        f, _, g, _ = np.split(cache.gates[0, 0], 4)
        npt.assert_array_equal(cache.h[0, 0], np.zeros(3))
        npt.assert_array_equal(cache.c[1, 0], np.zeros(3))
        npt.assert_array_equal(f, np.full(3, 0.5))
        npt.assert_array_equal(g, np.zeros(3))

    def test_hand_evaluated_single_unit(self):
        # zero weights everywhere, candidate bias atanh(0.5):
        # gates = 0.5, candidate = 0.5 -> c = 0.25, h = 0.5 * tanh(0.25)
        params = zero_lstm(1, 1)
        params[1][2] = math.atanh(0.5)
        cache = run_cell(params, [[0.3]])
        npt.assert_allclose(cache.c[1, 0], [0.25], atol=1e-15)
        npt.assert_allclose(cache.h[0, 0], [0.5 * math.tanh(0.25)], atol=1e-15)

    def test_two_steps_match_manual_recurrence(self):
        rng = Rng(11)
        hidden = 4
        params = lstm(net.init(net.ModelConfig(n_past=2, n_future=1, hidden=hidden), rng), "enc")
        x = np.array([0.6])
        cache = run_cell(params, [x, x])
        h1, c1, gates1 = ref_step(params, x, np.zeros(hidden), np.zeros(hidden))
        h2, c2, _ = ref_step(params, x, h1, c1)
        npt.assert_allclose(cache.h[0, 0], h1, atol=1e-15)
        npt.assert_allclose(cache.gates[0, 0], np.concatenate(gates1), atol=1e-15)
        npt.assert_allclose(cache.h[1, 0], h2, atol=1e-15)
        npt.assert_allclose(cache.c[2, 0], c2, atol=1e-15)


class TestEncode:
    def test_zero_params_zero_states(self):
        model = zero_model()
        cache = net.forward_batch(model, [[0.1, 0.2, 0.3, 0.4]])
        npt.assert_array_equal(cache.enc.h, np.zeros((4, 1, 5)))
        npt.assert_array_equal(cache.enc.c, np.zeros((5, 1, 5)))  # c0, then 4 steps

    def test_single_step_window(self):
        model = net.init(net.ModelConfig(n_past=1, n_future=2, hidden=3), Rng(5))
        cache = net.forward_batch(model, [[0.4]])
        assert cache.enc.h.shape == (1, 1, 3)
        _, h, c = ref_encode(model, [0.4])
        npt.assert_allclose(cache.enc.h[0, 0], h, rtol=1e-12, atol=1e-15)
        npt.assert_allclose(cache.enc.c[1, 0], c, rtol=1e-12, atol=1e-15)

    def test_stack_tail_is_final_state(self):
        # the decoder starts from the encoder's last state; its GEMM rows hold
        # only h_prev, since its input h_T enters through the projected bias
        model = net.init(net.ModelConfig(n_past=6, n_future=2, hidden=4), Rng(6))
        cache = net.forward_batch(model, np.linspace(0, 1, 6)[None, :])
        npt.assert_array_equal(cache.dec.c[0], cache.enc.c[-1])
        npt.assert_array_equal(cache.dec.z[0], cache.enc.h[-1])
        npt.assert_array_equal(cache.dec.z[1], cache.dec.h[0])

    @pytest.mark.parametrize("keep", [True, False])
    def test_hidden_states_live_in_the_gemm_input(self, keep):
        # one state array per run: slot t is [h_{t-1}, x_t], h its view, and
        # the plain model's output layer reads the decoder's h itself
        model = net.init(net.ModelConfig(n_past=6, n_future=2, hidden=4), Rng(6))
        window = np.linspace(0, 1, 6)[None, :]
        cache = net.forward_batch(model, window, keep=keep)
        for seq, h0 in ((cache.enc, np.zeros((1, 4))), (cache.dec, cache.enc.h[-1])):
            assert np.shares_memory(seq.h, seq.z)
            npt.assert_array_equal(seq.z[1:, :, :4], seq.h)
            npt.assert_array_equal(seq.z[0, :, :4], h0)
        npt.assert_array_equal(cache.enc.z[:-1, :, 4], window.T)
        assert np.shares_memory(cache.feats, cache.dec.h)
        npt.assert_array_equal(cache.feats, cache.dec.h)

    @pytest.mark.parametrize("keep", [True, False])
    @pytest.mark.parametrize("attention", [False, True])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 257])
    def test_cache_holds_the_real_windows_only(self, n, attention, keep):
        # the forward pass pads the batch to whole slabs; what backward and
        # head-only training read has the n real windows on its batch axis
        model = net.init(net.ModelConfig(n_past=5, n_future=3, hidden=4, attention=attention),
                         Rng(n))
        cache = net.forward_batch(model, Rng(n + 1).uniform_array(5 * n, 0, 1).reshape(n, 5), keep)
        assert cache.preds.shape == (n, 3)
        batched = [cache.feats] + ([cache.attn] if attention else [])
        for seq in (cache.enc, cache.dec):
            batched += [a for a in vars(seq).values() if a is not None]
        assert len(batched) == (11 if keep else 7) + attention
        for a in batched:
            assert a.shape[1] == n, a.shape

    def test_wrong_length_rejected(self):
        model = zero_model(n_past=4)
        with pytest.raises(ValueError, match="expected inputs"):
            net.forward_batch(model, [[1.0, 2.0]])

    def test_matches_stepwise_recurrence(self):
        model = net.init(net.ModelConfig(n_past=5, n_future=2, hidden=6), Rng(8))
        window = Rng(9).uniform_array(5, 0, 1)
        stack, h, c = ref_encode(model, window)
        cache = net.forward_batch(model, window[None, :])
        npt.assert_allclose(cache.enc.h[:, 0], stack, rtol=1e-12, atol=1e-15)
        npt.assert_allclose(cache.enc.c[-1, 0], c, rtol=1e-12, atol=1e-15)



@functools.cache
def seeded_model(hidden: int, attention: bool) -> net.Seq2SeqModel:
    return net.init(net.ModelConfig(n_past=12, n_future=6, hidden=hidden, attention=attention),
                    Rng(hidden))


class TestBatchInvariance:
    @pytest.mark.parametrize("attention", [False, True])
    @pytest.mark.parametrize("hidden", [3, 24, 49, 51, 100])
    @given(batch=st.integers(1, 300), row=st.integers(0, 299), seed=st.integers(0, 2 ** 32))
    @example(batch=300, row=263, seed=0)
    @example(batch=9, row=8, seed=1)
    @settings(max_examples=20, derandomize=True, deadline=None)
    def test_predict_batch_row_equals_a_batch_of_one(self, hidden, attention, batch, row, seed):
        # the forward pass pads every batch to whole 8-row slabs, so every
        # forward GEMM runs on 8 rows and a window's float32 bits do not
        # depend on the batch, its place in it, the chunk or the worker
        model = seeded_model(hidden, attention)
        windows = Rng(seed).uniform_array(batch * 12, 0, 1).reshape(batch, 12)
        preds = net.predict_batch(model, windows)
        for k in sorted({0, row % batch, batch - 1}):
            alone = net.predict_batch(model, windows[k:k + 1])[0]
            assert preds[k].tobytes() == alone.tobytes(), k


class TestDecodePlain:
    def test_zero_params_bias_only(self):
        model = zero_model(n_future=3)
        model.params["out.b"][0] = 0.37
        preds = net.forward_batch(model, [[0.5, 0.1, 0.9, 0.2]]).preds
        npt.assert_array_equal(preds, np.full((1, 3), 0.37))

    def test_single_future_step_manual_oracle(self):
        model = net.init(net.ModelConfig(n_past=3, n_future=1, hidden=4), Rng(21))
        window = [0.2, 0.8, 0.5]
        _, h_final, c_final = ref_encode(model, window)
        # one decoder step by hand: input and initial hidden are both h_T
        h, _, _ = ref_step(lstm(model, "dec"), h_final, h_final, c_final)
        expected = h @ model.params["out.w"] + model.params["out.b"][0]
        npt.assert_allclose(net.forward_batch(model, [window]).preds, [[expected]],
                            rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("horizon", [6, 9, 12])
    def test_output_length_per_horizon(self, horizon):
        model = net.init(net.ModelConfig(n_past=4, n_future=horizon, hidden=3), Rng(2))
        assert net.forward_batch(model, [[0.1, 0.4, 0.3, 0.8]]).preds.shape == (1, horizon)


def brute_force_attention(enc_stack, dec_stack, out_w, out_b):
    """Independent score/softmax/weighted-sum computation, scalar loops."""
    n_future, hidden = dec_stack.shape
    n_past = enc_stack.shape[0]
    weights = np.zeros((n_future, n_past))
    preds = np.zeros(n_future)
    contexts = np.zeros((n_future, hidden))
    for s in range(n_future):
        scores = [sum(dec_stack[s, k] * enc_stack[t, k] for k in range(hidden))
                  for t in range(n_past)]
        mx = max(scores)
        exps = [math.exp(v - mx) for v in scores]
        total = sum(exps)
        for t in range(n_past):
            weights[s, t] = exps[t] / total
        for k in range(hidden):
            contexts[s, k] = sum(weights[s, t] * enc_stack[t, k] for t in range(n_past))
        feats = np.concatenate([contexts[s], dec_stack[s]])
        preds[s] = sum(feats[k] * out_w[k] for k in range(2 * hidden)) + out_b
    return preds, weights, contexts


class TestDecodeAttention:
    def test_single_position_forces_unit_weight(self):
        model = net.init(net.ModelConfig(n_past=1, n_future=3, hidden=4, attention=True), Rng(3))
        cache = net.forward_batch(model, [[0.6]])
        npt.assert_array_equal(cache.attn, np.ones((3, 1, 1)))
        for s in range(3):
            npt.assert_array_equal(cache.feats[s, :, :model.config.hidden], cache.enc.h[0])

    def test_identical_encoder_states_uniform_rows(self):
        # no recurrent encoder weights and a shut forget gate: a constant
        # window then gives the same encoder state at every position
        hidden = 4
        model = net.init(net.ModelConfig(n_past=5, n_future=2, hidden=hidden, attention=True), Rng(4))
        model.params["enc.w"][:, :hidden] = 0.0
        model.params["enc.b"][:hidden] = -1000.0
        cache = net.forward_batch(model, [[0.3] * 5])
        npt.assert_array_equal(cache.enc.h, np.broadcast_to(cache.enc.h[0], cache.enc.h.shape))
        npt.assert_allclose(cache.attn[:, 0], np.full((2, 5), 0.2), atol=1e-15)

    def test_matches_brute_force_oracle(self):
        model = net.init(net.ModelConfig(n_past=3, n_future=2, hidden=4, attention=True), Rng(12))
        window = [0.25, 0.75, 0.5]
        enc_stack, h_final, c_final = ref_encode(model, window)
        dec_stack = ref_decode(model, h_final, c_final)
        expect_preds, expect_w, expect_ctx = brute_force_attention(
            enc_stack, dec_stack, model.params["out.w"], model.params["out.b"][0])
        cache = net.forward_batch(model, [window])
        npt.assert_allclose(cache.attn[:, 0], expect_w, atol=1e-12)
        npt.assert_allclose(cache.feats[:, 0, :model.config.hidden], expect_ctx, atol=1e-12)
        npt.assert_allclose(cache.preds[0], expect_preds, atol=1e-12)

    def test_rows_are_probability_vectors(self):
        for seed in range(10):
            model = net.init(
                net.ModelConfig(n_past=7, n_future=4, hidden=6, attention=True), Rng(seed))
            window = Rng(seed + 100).uniform_array(7, 0, 1)
            attn = net.forward_batch(model, window[None, :]).attn
            assert np.all(attn >= 0)
            npt.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)


class TestBackward:
    def test_zero_loss_gradient_gives_zero_grads(self):
        model = net.init(net.ModelConfig(n_past=4, n_future=2, hidden=3), Rng(1))
        cache = net.forward_batch(model, [[0.2, 0.4, 0.1, 0.9]])
        grads = net.backward_batch(model, cache, np.zeros((1, 2)))
        assert list(model.params) == list(grads.params)
        for name, g in grads.params.items():
            npt.assert_array_equal(g, np.zeros_like(g), err_msg=name)

    def test_wrong_gradient_length_rejected(self):
        model = net.init(net.ModelConfig(n_past=4, n_future=2, hidden=3), Rng(1))
        cache = net.forward_batch(model, [[0.2, 0.4, 0.1, 0.9]])
        with pytest.raises(ValueError, match="loss gradient shape"):
            net.backward_batch(model, cache, np.zeros((1, 3)))

    def test_missing_cache_rejected(self):
        model = net.init(net.ModelConfig(n_past=4, n_future=2, hidden=3), Rng(1))
        with pytest.raises(ValueError, match="ForwardCache"):
            net.backward_batch(model, None, np.zeros((1, 2)))

    @pytest.mark.parametrize("attention", [False, True])
    @pytest.mark.parametrize("pass_", ["forward", "backward"])
    def test_empty_batch_rejected(self, attention, pass_):
        model = net.init(net.ModelConfig(n_past=4, n_future=2, hidden=3, attention=attention),
                         Rng(1))
        with pytest.raises(ValueError, match=r"^empty batch: .* at least one window$"):
            if pass_ == "forward":
                net.forward_batch(model, np.empty((0, 4)))
            else:
                cache = net.forward_batch(model, [[0.2, 0.4, 0.1, 0.9]])
                net.backward_batch(model, cache, np.empty((0, 2)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("hidden", [3, 24, 100])
    def test_lstm_backward_matches_per_step_loop(self, dtype, hidden):
        # tolerance fixed from the dtype: 32 ulps of each result's largest
        # entry (the largest gap seen is 3.7, numpy 2.4.6 on OpenBLAS)
        tol = 32 * np.finfo(dtype).eps
        cfg = net.ModelConfig(n_past=12, n_future=6, hidden=hidden)
        model = net.Seq2SeqModel(cfg, net.init(cfg, Rng(hidden)).flat.astype(dtype))
        rng = Rng(hidden + 1)
        cache = net.forward_batch(model, rng.uniform_array(32 * 12, 0, 1).reshape(32, 12))
        for w, seq in ((model.params["enc.w"], cache.enc),
                       (model.params["dec.w"][:, :hidden], cache.dec)):
            # w's grad goes into a strided view, as the decoder's does
            dw = np.full((w.shape[0], 2 * hidden + 1), np.nan, dtype)[:, :w.shape[1]]
            steps = len(seq.h)
            dh_seq, dh_final, dc_final = (
                rng.uniform_array(n * 32 * hidden, -1, 1).reshape(-1, 32, hidden).astype(dtype)
                for n in (steps, 1, 1))
            dpre, dh0, dc0 = net._lstm_backward(w, seq, dh_seq, dh_final[0], dc_final[0], dw)
            got = (dpre, dw, dh0, dc0)
            want = oracles.lstm_backward(w, seq, dh_seq, dh_final[0], dc_final[0])
            for name, arr, ref in zip(("dpre", "dw", "dh0", "dc0"), got, want):
                assert arr.dtype == dtype, name
                npt.assert_allclose(arr, ref, rtol=0, atol=tol * np.abs(ref).max(), err_msg=name)

    def test_attention_single_position_matches_reduced_computation(self):
        """With one encoder position the attention weight is identically 1,
        so predictions reduce to w_ctx.h_T + w_dec.d_s + b.  Finite
        differences of that reduced computation must match full BPTT."""
        cfg = net.ModelConfig(n_past=1, n_future=2, hidden=4, attention=True)
        model = net.init(cfg, Rng(31))
        window = np.array([0.7])
        loss_grad = np.array([0.3, -0.2])
        cache = net.forward_batch(model, window[None, :])
        grads = net.backward_batch(model, cache, loss_grad[None, :])

        def reduced_loss() -> float:
            _, h_final, c_final = ref_encode(model, window)
            dec_stack = ref_decode(model, h_final, c_final)
            total = 0.0
            w_ctx, w_dec = np.split(model.params["out.w"], 2)
            for s in range(cfg.n_future):
                pred = w_ctx @ h_final + w_dec @ dec_stack[s] + model.params["out.b"][0]
                total += loss_grad[s] * pred  # linear functional with the given grad
            return total

        eps = 1e-6
        rng = Rng(7)
        for name, arr in model.params.items():
            # six draws from each gate's rows of an LSTM array
            pieces = 1 if name.startswith("out.") else len(net.GATES)
            blocks = zip(np.split(arr, pieces), np.split(grads.params[name], pieces))
            for k, (block, grad) in enumerate(blocks):
                flat = block.reshape(-1)
                for _ in range(min(6, flat.size)):
                    idx = rng.next_u64() % flat.size
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    up = reduced_loss()
                    flat[idx] = orig - eps
                    down = reduced_loss()
                    flat[idx] = orig
                    fd = (up - down) / (2 * eps)
                    bp = grad.reshape(-1)[idx]
                    assert abs(fd - bp) <= 1e-6 + 1e-4 * max(abs(fd), abs(bp)), (name, k)


class TestInit:
    def test_same_seed_bitwise_identical(self):
        cfg = net.ModelConfig(n_past=5, n_future=3, hidden=7, attention=True)
        a = net.init(cfg, Rng(42))
        b = net.init(cfg, Rng(42))
        assert list(a.params) == list(b.params)
        for name, arr in a.params.items():
            npt.assert_array_equal(arr, b.params[name], err_msg=name)

    def test_parameter_count_shape_arithmetic(self):
        # encoder gates: hidden x (hidden+1) + hidden; decoder input is the
        # repeated hidden state, so its gates are hidden x (2 hidden) + hidden
        hidden = 100
        model = net.init(net.ModelConfig(n_past=12, n_future=6, hidden=hidden), Rng(0))
        expected = (
            4 * (hidden * (hidden + 1) + hidden)
            + 4 * (hidden * 2 * hidden + hidden)
            + hidden + 1
        )
        assert sum(arr.size for arr in model.params.values()) == expected

    def test_attention_output_width(self):
        model = net.init(net.ModelConfig(n_past=4, n_future=2, hidden=10, attention=True), Rng(0))
        assert model.params["out.w"].shape == (20,)

    def test_entries_within_glorot_bound(self):
        model = net.init(net.ModelConfig(n_past=4, n_future=2, hidden=9), Rng(13))
        for prefix, width in (("enc", 1), ("dec", 9)):
            w, b = lstm(model, prefix)
            bound = math.sqrt(6.0 / (9 + 9 + width))
            assert w.shape == (36, 9 + width)
            assert np.all(np.abs(w) <= bound)
            npt.assert_array_equal(b, np.zeros(36))
        out_bound = math.sqrt(6.0 / (9 + 1))
        assert np.all(np.abs(model.params["out.w"]) <= out_bound)

    @pytest.mark.parametrize("attention", [False, True])
    def test_params_follow_param_shapes(self, attention):
        cfg = net.ModelConfig(n_past=4, n_future=2, hidden=3, attention=attention)
        model = net.init(cfg, Rng(14))
        assert list(model.params) == list(net.param_shapes(cfg))
        for name, arr in model.params.items():
            assert arr.shape == net.param_shapes(cfg)[name], name
        cache = net.forward_batch(model, [[0.2, 0.4, 0.1, 0.9]])
        grads = net.backward_batch(model, cache, np.ones((1, 2)))
        assert list(grads.params) == list(net.param_shapes(cfg))
        for name, arr in model.params.items():
            assert grads.params[name].shape == arr.shape, name


class TestLayout:
    """A model is its config plus one vector, and every array is a view of it."""

    @pytest.mark.parametrize("attention", [False, True])
    def test_views_are_runs_of_the_vector_in_param_shapes_order(self, attention):
        cfg = net.ModelConfig(n_past=4, n_future=2, hidden=3, attention=attention)
        model = net.init(cfg, Rng(1))
        at = 0
        assert list(model.params) == list(net.param_shapes(cfg))
        for (name, arr), shape in zip(model.params.items(), net.param_shapes(cfg).values()):
            assert arr.shape == shape and np.shares_memory(arr, model.flat), name
            assert arr.ctypes.data - model.flat.ctypes.data == at * model.flat.itemsize, name
            at += arr.size
        assert at == model.flat.size == param_count(cfg)

    def test_params_is_read_only(self):
        model = net.init(net.ModelConfig(n_past=4, n_future=2, hidden=3), Rng(1))
        with pytest.raises(TypeError):
            model.params["out.w"] = np.zeros(3)
        with pytest.raises(TypeError):
            del model.params["out.b"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.flat = np.zeros_like(model.flat)

    @pytest.mark.parametrize("shape", [(-1,), (1,), "2-D"])
    def test_vector_of_the_wrong_shape_is_refused(self, shape):
        cfg = net.ModelConfig(n_past=4, n_future=2, hidden=3)
        size = param_count(cfg)
        flat = np.zeros((1, size)) if shape == "2-D" else np.zeros(size + shape[0])
        with pytest.raises(ValueError, match=rf"needs {size} parameters, got shape "
                                             rf"{re.escape(str(flat.shape))}$"):
            net.Seq2SeqModel(cfg, flat)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda model: pickle.loads(pickle.dumps(model))])
    def test_a_copy_views_its_own_vector(self, clone):
        model = net.init(net.ModelConfig(n_past=4, n_future=2, hidden=3, attention=True), Rng(1))
        dup = clone(model)
        assert dup.config == model.config
        assert dup.flat.tobytes() == model.flat.tobytes()
        assert (dup.flat is model.flat) == (clone is copy.copy)
        dup.flat[:] = 7.0
        for name, arr in dup.params.items():
            assert np.shares_memory(arr, dup.flat) and np.all(arr == 7.0), name

    @pytest.mark.parametrize("attention", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_come_as_one_vector_at_the_params_dtype(self, attention, dtype):
        cfg = net.ModelConfig(n_past=4, n_future=2, hidden=3, attention=attention)
        model = net.Seq2SeqModel(cfg, net.init(cfg, Rng(2)).flat.astype(dtype))
        windows = Rng(3).uniform_array(12, 0, 1).reshape(3, 4)
        dpreds = Rng(4).uniform_array(6, -1, 1).reshape(3, 2)
        cache = net.forward_batch(model, windows)
        grads = net.backward_batch(model, cache, dpreds)
        assert isinstance(grads, net.Seq2SeqModel) and grads.config == cfg
        assert grads.flat.shape == model.flat.shape and grads.flat.dtype == dtype
        assert grads.flat.flags.owndata and not np.shares_memory(grads.flat, model.flat)
        for name, arr in grads.params.items():
            assert arr.base is grads.flat, name
        head = net.output_grads(dpreds, cache.feats)
        assert head.dtype == dtype
        assert grads.flat[-head.size:].tobytes() == head.tobytes()


class TestForwardProperties:
    def test_gate_ranges_on_random_passes(self):
        for seed in range(5):
            model = net.init(net.ModelConfig(n_past=6, n_future=3, hidden=5), Rng(seed))
            window = Rng(seed + 50).uniform_array(6, 0, 1)
            cache = net.forward_batch(model, window[None, :])
            for seq in (cache.enc, cache.dec):
                f, i, g, o = np.split(seq.gates, 4, axis=2)
                assert np.all((f > 0) & (f < 1))
                assert np.all((i > 0) & (i < 1))
                assert np.all((o > 0) & (o < 1))
                assert np.all((g > -1) & (g < 1))
                assert np.all(np.abs(seq.h) < 1)

    def test_forward_is_pure(self):
        model = net.init(net.ModelConfig(n_past=5, n_future=4, hidden=6, attention=True), Rng(44))
        window = Rng(45).uniform_array(5, 0, 1)[None, :]
        first = net.forward_batch(model, window).preds
        second = net.forward_batch(model, window).preds
        npt.assert_array_equal(first, second)

    def test_batch_rows_match_single_windows(self):
        for attention in (False, True):
            model = net.init(
                net.ModelConfig(n_past=5, n_future=3, hidden=6, attention=attention), Rng(9))
            windows = Rng(10).uniform_array(20, 0, 1).reshape(4, 5)
            batch = net.forward_batch(model, windows).preds
            for k in range(4):
                npt.assert_allclose(batch[k], net.forward_batch(model, windows[k:k + 1]).preds[0],
                                    rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("attention", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturated_gates_forward_without_a_warning(self, monkeypatch, lanes, attention,
                                                       dtype):
        # every gate preactivation is below -100, so each sigmoid's exp
        # overflows to inf in float32 and float64 alike; the pass ignores that
        # on the caller's thread and on predict_batch's workers
        lanes(2)
        monkeypatch.setattr(net, "PREDICT_CHUNK", 8)
        model = net.init(net.ModelConfig(n_past=4, n_future=2, hidden=3,
                                         attention=attention), Rng(9))
        for lstm in ("enc", "dec"):
            model.params[lstm + ".b"][:] = -1000.0
        windows = Rng(10).uniform_array(160, 0, 1).reshape(40, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = net.forward_batch(net.Seq2SeqModel(model.config, model.flat.astype(dtype)),
                                      windows)
            preds = net.predict_batch(model, windows)
        assert np.all(cache.enc.gates[..., :3] == 0.0)  # the forget gate saturated
        assert np.all(np.isfinite(cache.preds)) and np.all(np.isfinite(preds))

    @pytest.mark.parametrize("attention", [False, True])
    def test_predict_batch_weight_float32_cannot_hold_is_one_error(self, attention):
        # the float32 cast overflows as the forward pass does, without a
        # warning; the non-finite forecasts then raise
        model = net.init(net.ModelConfig(n_past=4, n_future=2, hidden=3,
                                         attention=attention), Rng(9))
        model.params["out.w"][0] = 1e300
        windows = Rng(10).uniform_array(40, 0, 1).reshape(10, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^non-finite values in forward predictions$"):
                net.predict_batch(model, windows)
        assert model.params["out.w"][0] == 1e300

    @pytest.fixture()
    def lanes(self, monkeypatch):
        """Make predict_batch see ``cpus`` CPUs, and switch threads often."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def set_cpus(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)

        yield set_cpus
        sys.setswitchinterval(interval)

    def test_predict_batch_chunking(self, monkeypatch, lanes):
        lanes(4)
        windows = Rng(10).uniform_array(160, 0, 1).reshape(40, 4)
        for attention in (False, True):
            model = net.init(net.ModelConfig(n_past=4, n_future=2, hidden=3,
                                             attention=attention), Rng(9))
            # every batch is padded to whole 8-row slabs, so any chunking
            # gives the bits of the whole batch through the float32 forward
            whole32 = net.forward_batch(float32_copy(model), windows, keep=False).preds
            whole = net.forward_batch(model, windows).preds
            for chunk in (1, 3, len(windows), len(windows) + 5):
                monkeypatch.setattr(net, "PREDICT_CHUNK", chunk)
                preds = net.predict_batch(model, windows)
                npt.assert_array_equal(preds, whole32)
                npt.assert_allclose(preds, whole, rtol=0, atol=FLOAT32_GAP)

    def test_predict_batch_of_no_windows(self):
        model = net.init(net.ModelConfig(n_past=4, n_future=2, hidden=3), Rng(9))
        assert net.predict_batch(model, np.empty((0, 4))).shape == (0, 2)

    @pytest.mark.parametrize("attention", [False, True])
    def test_predict_batch_error_raised_after_every_lane_joins(self, monkeypatch, lanes,
                                                               attention):
        # an exception a helper lane left unhandled would also show as
        # PytestUnhandledThreadExceptionWarning, which the suite turns into an error
        lanes(4)
        monkeypatch.setattr(net, "PREDICT_CHUNK", 3)
        model = net.init(net.ModelConfig(n_past=4, n_future=2, hidden=3,
                                         attention=attention), Rng(9))
        model.params["out.b"][0] = np.inf
        windows = Rng(10).uniform_array(160, 0, 1).reshape(40, 4)
        threads = threading.active_count()
        with pytest.raises(NumericError, match="non-finite values in forward predictions"):
            net.predict_batch(model, windows)
        assert threading.active_count() == threads

    def test_predict_batch_raises_the_lowest_failing_chunks_error(self, monkeypatch, lanes):
        # chunk 5 fails at once, chunk 2 only after 0.2 s: the error raised is
        # chunk 2's, whatever order the chunks fail in
        lanes(4)
        monkeypatch.setattr(net, "PREDICT_CHUNK", 4)
        forward = net.forward_batch

        def forward_failing_chunks(model, inputs, keep=True):
            chunk = int(inputs[0, 0]) // 4
            if chunk == 2:
                time.sleep(0.2)
            if chunk in (2, 5):
                raise ValueError(f"chunk {chunk}")
            return forward(model, inputs, keep)

        monkeypatch.setattr(net, "forward_batch", forward_failing_chunks)
        model = net.init(net.ModelConfig(n_past=4, n_future=2, hidden=3), Rng(9))
        windows = np.repeat(np.arange(40.0)[:, None], 4, axis=1)  # window k holds k
        with pytest.raises(ValueError, match="^chunk 2$"):
            net.predict_batch(model, windows)

    @pytest.mark.parametrize("attention", [False, True])
    def test_predict_batch_default_chunks_match_forward_batch(self, attention):
        # 300 windows: a full chunk and a tail, which give the bits of the
        # whole batch through the float32 forward
        model = net.init(net.ModelConfig(n_past=12, n_future=6, hidden=24, attention=attention),
                         Rng(3))
        windows = Rng(4).uniform_array(300 * 12, 0, 1).reshape(300, 12)
        assert net.PREDICT_CHUNK < len(windows)
        preds = net.predict_batch(model, windows)
        npt.assert_array_equal(preds, net.forward_batch(float32_copy(model), windows, keep=False).preds)
        npt.assert_allclose(preds, net.forward_batch(model, windows).preds,
                            rtol=0, atol=FLOAT32_GAP)

    @pytest.mark.parametrize("attention", [False, True])
    def test_predict_batch_returns_float64_and_leaves_params_as_they_were(self, attention):
        model = net.init(net.ModelConfig(n_past=12, n_future=6, hidden=24, attention=attention),
                         Rng(3))
        before = {name: arr.tobytes() for name, arr in model.params.items()}
        preds = net.predict_batch(model, Rng(4).uniform_array(300 * 12, 0, 1).reshape(300, 12))
        assert preds.dtype == np.float64
        for name, arr in model.params.items():
            assert arr.dtype == np.float64, name
            assert arr.tobytes() == before[name], name

    @pytest.mark.parametrize("attention", [False, True])
    def test_predict_batch_keeps_no_backprop_cache(self, lanes, attention):
        lanes(2)
        model = net.init(net.ModelConfig(n_past=12, n_future=6, hidden=100, attention=attention),
                         Rng(1))
        windows = Rng(2).uniform_array(512 * 12, 0, 1).reshape(512, 12)
        tracemalloc.start()
        try:
            net.predict_batch(model, windows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # two 256-window chunks on two lanes: without the backprop cache,
        # float32 chunks peak at 7.7-8.3 MB (plain) and 8.4-9.1 MB (attention),
        # against 15.3-15.9 and 14.3-18.1 MB for float64 chunks and 28.8-31.2 MB
        # with the float32 cache (numpy 2.4.6)
        assert net.PREDICT_CHUNK == 256
        assert peak < 11e6

    def test_backward_rejects_inference_cache(self):
        model = net.init(net.ModelConfig(n_past=4, n_future=2, hidden=3), Rng(1))
        windows = np.array([[0.2, 0.4, 0.1, 0.9], [0.3, 0.5, 0.7, 0.2]])
        cache = net.forward_batch(model, windows, keep=False)
        npt.assert_array_equal(cache.preds, net.forward_batch(model, windows).preds)
        with pytest.raises(ValueError, match="full ForwardCache"):
            net.backward_batch(model, cache, np.zeros((2, 2)))
