import numpy as np
import numpy.testing as npt
import pytest

from tfl import network as net
from tfl import training as tr
from tfl.dataset import WindowedDataset, make_windows
from tfl.numeric import Rng


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

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
    def test_delta_must_be_positive(self, delta):
        with pytest.raises(ValueError, match="delta"):
            tr.huber(np.zeros(2), np.ones(2), delta=delta)


def snapshot(model):
    return {name: arr.copy() for name, arr in net.param_items(model)}


class TestAdamStep:
    def test_zero_gradients_leave_parameters(self):
        model = small_model()
        state = tr.AdamState.fresh(model, lr=0.01)
        before = snapshot(model)
        grads = {name: np.zeros_like(arr) for name, arr in net.param_items(model)}
        tr.adam_step(model, grads, state)
        for name, arr in net.param_items(model):
            npt.assert_array_equal(arr, before[name], err_msg=name)

    def test_first_step_magnitude_is_learning_rate(self):
        # fresh state, gradient g: m_hat = g, v_hat = g^2, so the update is
        # lr * g / (|g| + eps) ~ lr * sign(g)
        model = small_model()
        state = tr.AdamState.fresh(model, lr=0.001)
        grads = {name: np.zeros_like(arr) for name, arr in net.param_items(model)}
        grads["out.b"] = np.array([0.3])
        before = float(model.output.b[0])
        tr.adam_step(model, grads, state)
        delta = before - float(model.output.b[0])
        assert delta == pytest.approx(0.001, abs=1e-6)

    def test_no_trainable_block_is_identity(self):
        model = small_model()
        state = tr.AdamState.fresh(model, lr=0.1, trainable=[])
        before = snapshot(model)
        grads = {name: np.ones_like(arr) for name, arr in net.param_items(model)}
        for _ in range(3):
            tr.adam_step(model, grads, state)
        assert state.m == {} and state.v == {} and state.t == 3
        for name, arr in net.param_items(model):
            npt.assert_array_equal(arr, before[name], err_msg=name)

    def test_freeze_invariance_under_random_trainable_set(self):
        model = small_model(seed=3)
        rng = Rng(8)
        trainable = {name for name, _ in net.param_items(model) if rng.uniform(0, 1) < 0.5}
        state = tr.AdamState.fresh(model, lr=0.05, trainable=trainable)
        assert set(state.m) == set(state.v) == trainable
        before = snapshot(model)
        for step in range(5):
            grads = {name: np.full_like(arr, 0.1 * (step + 1))
                     for name, arr in net.param_items(model)}
            tr.adam_step(model, grads, state)
        for name, arr in net.param_items(model):
            if name not in trainable:
                npt.assert_array_equal(arr, before[name], err_msg=name)
            else:
                assert not np.array_equal(arr, before[name]), name

    def test_unknown_trainable_name_rejected(self):
        with pytest.raises(ValueError, match=r"unknown trainable block\(s\): \['out\.weight'\]"):
            tr.AdamState.fresh(small_model(), lr=0.01, trainable=["out.b", "out.weight"])

    def test_shape_incongruence_rejected(self):
        model = small_model()
        state = tr.AdamState.fresh(model, lr=0.01)
        grads = {name: np.zeros_like(arr) for name, arr in net.param_items(model)}
        grads["out.w"] = np.zeros(99)
        with pytest.raises(ValueError, match="shape"):
            tr.adam_step(model, grads, state)
        del grads["out.w"]
        with pytest.raises(ValueError, match="does not match"):
            tr.adam_step(model, grads, state)


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
        for name, arr in net.param_items(trained):
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
        for (name, a1), (_, a2) in zip(net.param_items(m1), net.param_items(m2)):
            npt.assert_array_equal(a1, a2, err_msg=name)

    def test_final_loss_below_initial(self):
        model = small_model(seed=9)
        data = make_windows(np.sin(np.linspace(0, 12, 80)) * 0.4 + 0.5, 8, 3)
        _, history = tr.train(model, data, tr.TrainConfig(epochs=10, batch=8, lr=0.01, seed=1))
        assert history[-1] < history[0]

    def test_empty_dataset_rejected(self):
        empty = WindowedDataset(np.empty((0, 8)), np.empty((0, 3)), 8, 3)
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
        for name, arr in net.param_items(model):
            npt.assert_array_equal(arr, before[name], err_msg=name)


class TestTransfer:
    def setup_method(self):
        self.source = small_model(seed=21)
        self.data = make_windows(Rng(2).uniform_array(60, 0, 1), 8, 3)

    def test_phase1_freezes_body(self):
        model, _ = tr.transfer(self.source, self.data, [(3, 0.001), (0, 0.0001)], batch=8, seed=7)
        for name, arr in net.param_items(model):
            src = dict(net.param_items(self.source))[name]
            if name.startswith("out."):
                assert not np.array_equal(arr, src), name
            else:
                npt.assert_array_equal(arr, src, err_msg=name)

    def test_skipped_phase2_changes_only_output(self):
        model, phases = tr.transfer(self.source, self.data, [(2, 0.001), (0, 0.0001)], batch=8, seed=7)
        assert phases[1].history == []
        for name, arr in net.param_items(model):
            if not name.startswith("out."):
                npt.assert_array_equal(arr, dict(net.param_items(self.source))[name])

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
        src = dict(net.param_items(self.source))
        changed = [name for name, arr in net.param_items(model)
                   if not name.startswith("out.") and not np.array_equal(arr, src[name])]
        assert changed  # fine-tune touched the body


class TestGradientCheck:
    def test_plain_model_matches_finite_differences(self):
        model = small_model(n_past=4, n_future=2, hidden=8, seed=33)
        window = Rng(34).uniform_array(4, 0, 1)
        targets = Rng(35).uniform_array(2, 0, 1)
        assert tr.gradient_check(model, window, targets, 1e-5) < 1e-4

    def test_attention_model_matches_finite_differences(self):
        model = small_model(attention=True, n_past=4, n_future=2, hidden=8, seed=36)
        window = Rng(37).uniform_array(4, 0, 1)
        targets = Rng(38).uniform_array(2, 0, 1)
        assert tr.gradient_check(model, window, targets, 1e-5) < 1e-4

    @pytest.mark.parametrize("attention", [False, True])
    def test_every_gate_block_is_sampled(self, monkeypatch, attention):
        # a wrong gradient confined to one gate's rows of one LSTM array must
        # show, even with a single draw per block
        model = small_model(attention=attention, n_past=4, n_future=2, hidden=3, seed=39)
        window = Rng(40).uniform_array(4, 0, 1)
        targets = Rng(41).uniform_array(2, 0, 1)
        hid = model.config.hidden
        exact = tr.backward_batch
        for name in ("enc.w", "enc.b", "dec.w", "dec.b"):
            for k in range(len(net.GATES)):
                def corrupted(*args, name=name, k=k):
                    grads = exact(*args)
                    rows = grads[name][k * hid : (k + 1) * hid]
                    rows += 10.0 * (1.0 + np.abs(rows))
                    return grads

                monkeypatch.setattr(tr, "backward_batch", corrupted)
                worst = tr.gradient_check(model, window, targets, 1e-5, samples_per_block=1)
                assert worst > 0.9, (name, net.GATES[k])
        monkeypatch.setattr(tr, "backward_batch", exact)
        assert tr.gradient_check(model, window, targets, 1e-5, samples_per_block=1) < 1e-4

    def test_zero_epsilon_rejected(self):
        model = small_model()
        with pytest.raises(ValueError, match="epsilon"):
            tr.gradient_check(model, np.zeros(8), np.zeros(3), 0.0)
