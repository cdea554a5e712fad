import math

import numpy as np
import numpy.testing as npt
import pytest

from tfl import model_io as mio
from tfl import network as net
from tfl import training as tr
from tfl.dataset import WindowedDataset, make_windows
from tfl.numeric import Rng

import oracles


def small_model(attention=False, seed=1, n_past=8, n_future=3, hidden=8):
    cfg = net.ModelConfig(n_past=n_past, n_future=n_future, hidden=hidden,
                          attention=attention)
    return net.init(cfg, Rng(seed))


def constant_windows(value=0.5, length=40, n_past=8, n_future=3):
    return make_windows(np.full(length, value), n_past, n_future)


class TestHuber:
    def test_perfect_prediction(self):
        loss, grad = tr.huber(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        npt.assert_array_equal(grad, np.zeros(2))

    def test_linear_branch_hand_value(self):
        # |e| = 2 > delta = 1: delta * (|e| - delta/2) = 1.5
        loss, grad = tr.huber(np.array([3.0]), np.array([1.0]))
        assert loss == pytest.approx(1.5, abs=1e-15)
        npt.assert_allclose(grad, [1.0], atol=1e-15)  # delta * sign(e) / n

    def test_quadratic_branch_hand_value(self):
        # |e| = 0.5 <= delta: 0.5 * e^2 = 0.125
        loss, grad = tr.huber(np.array([1.5]), np.array([1.0]))
        assert loss == pytest.approx(0.125, abs=1e-15)
        npt.assert_allclose(grad, [0.5], atol=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            tr.huber(np.zeros(3), np.zeros(2))

    def test_gradient_matches_finite_differences(self):
        rng = Rng(5)
        pred = rng.uniform_array(6, -2, 2)
        target = rng.uniform_array(6, -2, 2)
        _, grad = tr.huber(pred, target)
        eps = 1e-7
        for k in range(6):
            bumped = pred.copy()
            bumped[k] += eps
            up, _ = tr.huber(bumped, target)
            bumped[k] -= 2 * eps
            down, _ = tr.huber(bumped, target)
            fd = (up - down) / (2 * eps)
            assert abs(fd - grad[k]) < 1e-8


def snapshot(model):
    return {name: arr.copy() for name, arr in model.params.items()}


def block_scaled_gradients(model, rng, dtype=np.float64):
    """A gradient vector for ``model.flat`` whose blocks each take
    a scale drawn from 1e-6, 1e-2 and 3."""
    return np.concatenate([rng.normal(scale=rng.choice([1e-6, 1e-2, 3.0]), size=arr.size)
                           for arr in model.params.values()]).astype(dtype)


class TestAdamStep:
    def test_zero_gradients_leave_parameters(self):
        params = small_model().flat.copy()
        before = params.copy()
        state = tr.AdamState(params.size, lr=0.01)
        tr.adam_step(params, np.zeros_like(params), state)
        npt.assert_array_equal(params, before)

    def test_first_step_magnitude_is_learning_rate(self):
        # fresh state, gradient g: m_hat = g, v_hat = g^2, so the update is
        # lr * g / (|g| + eps) ~ lr * sign(g)
        params = small_model().flat.copy()
        state = tr.AdamState(params.size, lr=0.001)
        grads = np.zeros_like(params)
        grads[-1] = 0.3  # out.b
        before = params.copy()
        tr.adam_step(params, grads, state)
        assert before[-1] - params[-1] == pytest.approx(0.001, abs=1e-6)
        npt.assert_array_equal(params[:-1], before[:-1])

    @pytest.mark.parametrize("attention", [False, True])
    @pytest.mark.parametrize("hidden", [24, 100])
    def test_in_place_step_matches_allocating_formula(self, attention, hidden):
        model = small_model(attention=attention, seed=hidden, n_past=12, n_future=6, hidden=hidden)
        params = model.flat.copy()
        reference = params.copy()
        state = tr.AdamState(params.size, lr=0.003)
        ref_state = tr.AdamState(params.size, lr=0.003)
        rng = np.random.default_rng(hidden)
        for _ in range(300):
            grads = block_scaled_gradients(model, rng)
            tr.adam_step(params, grads, state)
            oracles.adam_step(reference, grads, ref_state)
        assert params.tobytes() == reference.tobytes()
        assert state.flat[:2].tobytes() == ref_state.flat[:2].tobytes()
        assert state.t == ref_state.t == 300

    def test_float32_gradients_widen_exactly(self):
        # training hands Adam float32 gradients: each moment update must equal
        # the one on the same gradients cast to float64 first
        model = small_model(hidden=24, seed=3)
        params, wide = model.flat.copy(), model.flat.copy()
        state = tr.AdamState(params.size, lr=0.003)
        wide_state = tr.AdamState(params.size, lr=0.003)
        rng = np.random.default_rng(3)
        for _ in range(50):
            grads = block_scaled_gradients(model, rng, np.float32)
            tr.adam_step(params, grads, state)
            tr.adam_step(wide, grads.astype(np.float64), wide_state)
        assert params.dtype == np.float64
        assert params.tobytes() == wide.tobytes()
        assert state.flat[:2].tobytes() == wide_state.flat[:2].tobytes()

    def test_shape_incongruence_rejected(self):
        params = small_model().flat.copy()
        before = params.copy()
        state = tr.AdamState(params.size, lr=0.01)
        with pytest.raises(ValueError, match="shape"):
            tr.adam_step(params, np.zeros(params.size - 1), state)
        with pytest.raises(ValueError, match="shape"):
            tr.adam_step(params[1:], np.zeros(params.size - 1), state)
        assert state.t == 0
        npt.assert_array_equal(params, before)


class TestTrain:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            tr.train(small_model(), constant_windows(), tr.TrainConfig(epochs=0))

    def test_zero_lr_leaves_model(self):
        model = small_model()
        before = snapshot(model)
        trained, history = tr.train(model, constant_windows(),
                                    tr.TrainConfig(epochs=1, lr=0.0, seed=4))
        assert len(history) == 1
        for name, arr in trained.params.items():
            npt.assert_array_equal(arr, before[name], err_msg=name)

    def test_constant_series_converges(self):
        model = small_model(seed=2)
        cfg = tr.TrainConfig(epochs=200, batch=8, lr=0.01, seed=0)
        _, history = tr.train(model, constant_windows(), cfg)
        assert history[-1] < 1e-4

    def test_seeded_run_is_reproducible(self):
        model = small_model(seed=6)
        data = make_windows(Rng(1).uniform_array(60, 0, 1), 8, 3)
        cfg = tr.TrainConfig(epochs=2, batch=8, lr=0.01, seed=5)
        m1, h1 = tr.train(model, data, cfg)
        m2, h2 = tr.train(model, data, cfg)
        assert h1 == h2
        assert list(m1.params) == list(m2.params)
        for name, arr in m1.params.items():
            npt.assert_array_equal(arr, m2.params[name], err_msg=name)

    @pytest.mark.parametrize("head_only", [False, True])
    def test_float32_mirror_equals_master_after_every_step(self, monkeypatch, head_only):
        mirrors, steps = [], []

        def recorded(forward):
            def run(model, *args, **kwargs):
                mirrors.append(model)
                return forward(model, *args, **kwargs)
            return run

        def adam_step(params, grads, state):
            # the previous step's update reached the mirror's trained slice
            mirror = mirrors[-1].flat[-params.size:]
            assert mirror.tobytes() == params.astype(np.float32).tobytes()
            assert params.dtype == np.float64 and grads.dtype == np.float32
            steps.append(params.size)
            real_adam_step(params, grads, state)

        real_adam_step = tr.adam_step
        monkeypatch.setattr(tr, "forward_batch", recorded(tr.forward_batch))
        monkeypatch.setattr(tr, "adam_step", adam_step)
        model = small_model(seed=14)
        data = make_windows(Rng(4).uniform_array(60, 0, 1), 8, 3)
        trained, _ = tr.train(model, data, tr.TrainConfig(epochs=2, batch=8, lr=0.01, seed=3),
                              head_only)
        for name, arr in trained.params.items():
            assert arr.dtype == np.float64, name
            assert mirrors[-1].params[name].tobytes() == arr.astype(np.float32).tobytes(), name
        head = model.params["out.w"].size + model.params["out.b"].size
        assert steps == [head if head_only else model.flat.size] * len(mirrors)
        assert len(mirrors) == 2 * math.ceil(len(data) / 8)
        assert all(mirror is mirrors[0] for mirror in mirrors)
        assert mirrors[0] is not trained

    def test_head_only_trains_the_output_layer_alone(self):
        model = small_model(seed=16)
        data = make_windows(Rng(6).uniform_array(60, 0, 1), 8, 3)
        trained, _ = tr.train(model, data, tr.TrainConfig(epochs=2, batch=8, lr=0.01, seed=3),
                              head_only=True)
        for name, arr in trained.params.items():
            if name.startswith("out."):
                assert not np.array_equal(arr, model.params[name]), name
            else:
                assert arr.tobytes() == model.params[name].tobytes(), name

    def test_returned_blocks_are_slices_of_one_vector(self):
        trained, _ = tr.train(small_model(seed=17), constant_windows(), tr.TrainConfig(epochs=1))
        vector = trained.flat
        assert vector.ndim == 1 and vector.dtype == np.float64 and vector.flags.owndata
        assert vector.tobytes() == b"".join(arr.tobytes() for arr in trained.params.values())
        assert all(arr.base is vector for arr in trained.params.values())

    def test_two_seeded_runs_write_identical_model_files(self, tmp_path):
        model = small_model(attention=True, seed=15)
        data = make_windows(Rng(5).uniform_array(80, 0, 1), 8, 3)
        cfg = tr.TrainConfig(epochs=2, batch=16, lr=0.01, seed=8)
        paths = [tmp_path / "first.tfl", tmp_path / "second.tfl"]
        for path in paths:
            trained, _ = tr.train(model, data, cfg)
            mio.save_model(trained, None, {"seed": cfg.seed}, path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_final_loss_below_initial(self):
        model = small_model(seed=9)
        data = make_windows(np.sin(np.linspace(0, 12, 80)) * 0.4 + 0.5, 8, 3)
        _, history = tr.train(model, data, tr.TrainConfig(epochs=10, batch=8, lr=0.01, seed=1))
        assert history[-1] < history[0]

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, -0.001])
    def test_non_finite_or_negative_lr_rejected(self, lr):
        with pytest.raises(ValueError, match=f"lr must be finite and >= 0, got {lr}"):
            tr.TrainConfig(lr=lr)

    def test_empty_dataset_rejected(self):
        empty = WindowedDataset(np.empty((0, 8)), np.empty((0, 3)))
        with pytest.raises(ValueError, match="empty"):
            tr.train(small_model(), empty, tr.TrainConfig(epochs=1))

    def test_window_shape_mismatch_rejected(self):
        data = constant_windows(n_past=6, n_future=3)
        with pytest.raises(ValueError, match="do not match"):
            tr.train(small_model(n_past=8), data, tr.TrainConfig(epochs=1))

    def test_input_model_is_not_mutated(self):
        model = small_model(seed=12)
        before = snapshot(model)
        tr.train(model, constant_windows(), tr.TrainConfig(epochs=2, batch=8, lr=0.01))
        for name, arr in model.params.items():
            npt.assert_array_equal(arr, before[name], err_msg=name)


    def test_returned_model_owns_contiguous_arrays(self):
        model = small_model(seed=13)
        trained, _ = tr.train(model, constant_windows(), tr.TrainConfig(epochs=1, lr=0.0))
        source = model.params
        for name, arr in trained.params.items():
            assert arr.flags.c_contiguous, name
            assert not np.shares_memory(arr, source[name]), name
        assert trained.config == model.config

class TestTransfer:
    def setup_method(self):
        self.source = small_model(seed=21)
        self.data = make_windows(Rng(2).uniform_array(60, 0, 1), 8, 3)

    def test_phase1_freezes_body(self):
        model, _ = tr.transfer(self.source, self.data, [(3, 0.001), (0, 0.0001)], batch=8, seed=7)
        for name, arr in model.params.items():
            src = self.source.params[name]
            if name.startswith("out."):
                assert not np.array_equal(arr, src), name
            else:
                npt.assert_array_equal(arr, src, err_msg=name)

    def test_skipped_phase2_changes_only_output(self):
        model, phases = tr.transfer(self.source, self.data, [(2, 0.001), (0, 0.0001)], batch=8, seed=7)
        assert phases[1].history == []
        for name, arr in model.params.items():
            if not name.startswith("out."):
                npt.assert_array_equal(arr, self.source.params[name])

    def test_phase_order_and_rates_recorded(self):
        _, phases = tr.transfer(self.source, self.data, [(1, 0.001), (1, 0.0001)], batch=8, seed=7)
        assert [p.lr for p in phases] == [0.001, 0.0001]
        assert [p.name for p in phases] == ["freeze-body", "fine-tune"]

    def test_config_mismatch_reports_fields(self):
        bad = make_windows(Rng(2).uniform_array(60, 0, 1), 6, 4)
        with pytest.raises(ValueError) as err:
            tr.transfer(self.source, bad, [(1, 0.001), (1, 0.001)], batch=32, seed=0)
        assert "n_past" in str(err.value) and "n_future" in str(err.value)

    def test_phase2_updates_body(self):
        model, _ = tr.transfer(self.source, self.data, [(1, 0.001), (1, 0.0001)], batch=8, seed=7)
        src = self.source.params
        changed = [name for name, arr in model.params.items()
                   if not name.startswith("out.") and not np.array_equal(arr, src[name])]
        assert changed  # fine-tune touched the body


    def test_source_model_is_not_mutated(self):
        before = snapshot(self.source)
        model, _ = tr.transfer(self.source, self.data, [(1, 0.001), (1, 0.0001)], batch=8, seed=7)
        src = self.source.params
        for name, arr in model.params.items():
            npt.assert_array_equal(src[name], before[name], err_msg=name)
            assert not np.shares_memory(arr, src[name]), name

def reference_head_phase(source, data, epochs, batch, lr, seed):
    """Transfer phase 1 as a full training step does it: the cached forward
    and BPTT through the frozen body on a float32 copy of the model, then
    float64 Adam on the output layer alone, whose new weights are written
    back into the copy."""
    model = net.Seq2SeqModel(source.config, source.flat.copy())
    net.init_output_layer(model, Rng(seed))
    head = ("out.w", "out.b")
    weights = np.concatenate([model.params[name] for name in head])
    state = tr.AdamState(weights.size, lr)
    model32 = net.Seq2SeqModel(model.config, model.flat.astype(np.float32))
    rng = Rng(seed)
    history = []
    for _ in range(epochs):
        order = np.arange(len(data))
        rng.shuffle(order)
        total = 0.0
        for k in range(0, len(order), batch):
            idx = order[k : k + batch]
            cache = net.forward_batch(model32, data.inputs[idx])
            loss, dpred = tr.huber(cache.preds, data.targets[idx])
            grads = net.backward_batch(model32, cache, dpred)
            tr.adam_step(weights, np.concatenate([grads.params[name] for name in head]), state)
            for name, part in zip(head, np.split(weights, [-1])):
                model.params[name][...] = model32.params[name][...] = part
            total += loss * len(idx)
        history.append(total / len(data))
    return model, history


class TestHeadPhase:
    """Phase 1 takes the output layer's gradient from a cache-free forward;
    it must reproduce the full-BPTT head step bit for bit."""

    # (windows, batch): the last batch of an epoch holds 1, 2, 3, 5 or all rows
    SIZES = [(33, 32), (34, 32), (35, 32), (37, 32), (64, 32)]

    @pytest.mark.parametrize("attention", [False, True])
    @pytest.mark.parametrize("hidden", [3, 24, 100])
    @pytest.mark.parametrize("n, batch", SIZES)
    def test_matches_full_bptt_reference(self, attention, hidden, n, batch):
        source = small_model(attention=attention, seed=hidden + n, hidden=hidden)
        data = make_windows(Rng(n).uniform_array(n + 8 + 3 - 1, 0, 1), 8, 3)
        assert len(data) == n
        ref, ref_history = reference_head_phase(source, data, 2, batch, 0.01, seed=9)
        model, logs = tr.transfer(source, data, [(2, 0.01), (0, 0.001)], batch=batch, seed=9)
        npt.assert_array_equal(model.params["out.w"], ref.params["out.w"])
        npt.assert_array_equal(model.params["out.b"], ref.params["out.b"])
        assert logs[0].history == ref_history

    @pytest.mark.parametrize("attention", [False, True])
    def test_phase1_runs_no_backprop(self, monkeypatch, attention):
        def refuse(*args, **kwargs):
            raise AssertionError("phase 1 ran the full backprop path")

        def forward_without_cache(model, inputs, keep=True):
            if keep:
                refuse()
            return forward(model, inputs, keep)

        forward = tr.forward_batch
        monkeypatch.setattr(tr, "forward_batch", forward_without_cache)
        monkeypatch.setattr(tr, "backward_batch", refuse)
        source = small_model(attention=attention, seed=4)
        data = make_windows(Rng(3).uniform_array(60, 0, 1), 8, 3)
        model, logs = tr.transfer(source, data, [(2, 0.01), (0, 0.001)], batch=8, seed=7)
        assert len(logs[0].history) == 2
        assert not np.array_equal(model.params["out.w"], source.params["out.w"])


class TestGradientCheck:
    def test_plain_model_matches_finite_differences(self):
        model = small_model(n_past=4, n_future=2, hidden=8, seed=33)
        window = Rng(34).uniform_array(4, 0, 1)
        targets = Rng(35).uniform_array(2, 0, 1)
        assert oracles.gradient_check(model, window, targets, 1e-5) < 1e-4

    def test_attention_model_matches_finite_differences(self):
        model = small_model(attention=True, n_past=4, n_future=2, hidden=8, seed=36)
        window = Rng(37).uniform_array(4, 0, 1)
        targets = Rng(38).uniform_array(2, 0, 1)
        assert oracles.gradient_check(model, window, targets, 1e-5) < 1e-4

    @pytest.mark.parametrize("attention", [False, True])
    def test_every_gate_block_is_sampled(self, monkeypatch, attention):
        # a wrong gradient confined to one gate's rows of one LSTM array must
        # show, even with a single draw per block
        model = small_model(attention=attention, n_past=4, n_future=2, hidden=3, seed=39)
        window = Rng(40).uniform_array(4, 0, 1)
        targets = Rng(41).uniform_array(2, 0, 1)
        hid = model.config.hidden
        exact = oracles.backward_batch
        for name in ("enc.w", "enc.b", "dec.w", "dec.b"):
            for k in range(len(net.GATES)):
                def corrupted(*args, name=name, k=k):
                    grads = exact(*args)
                    rows = grads.params[name][k * hid : (k + 1) * hid]
                    rows += 10.0 * (1.0 + np.abs(rows))
                    return grads

                monkeypatch.setattr(oracles, "backward_batch", corrupted)
                worst = oracles.gradient_check(model, window, targets, 1e-5, samples_per_block=1)
                assert worst > 0.9, (name, net.GATES[k])
        monkeypatch.setattr(oracles, "backward_batch", exact)
        assert oracles.gradient_check(model, window, targets, 1e-5, samples_per_block=1) < 1e-4

    def test_zero_epsilon_rejected(self):
        model = small_model()
        with pytest.raises(ValueError, match="epsilon"):
            oracles.gradient_check(model, np.zeros(8), np.zeros(3), 0.0)
