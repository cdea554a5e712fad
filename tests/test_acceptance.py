"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The long-running criteria (7 and 8) are desk-scale directional
experiments on synthetic traffic with fixed seeds and explicit runtime
ceilings.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import numpy.testing as npt

from tfl import dataset as ds
from tfl import evaluation as ev
from tfl import network as net
from tfl import training as tr
from tfl import wavelet as wv
from tfl.cli import main as cli_main
from tfl.numeric import Rng

import oracles

N_PAST, N_FUTURE = 12, 6


@contextmanager
def criterion(number: int, description: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"\n[PASS] criterion {number}: {description} ({elapsed:.1f}s)")


def test_criterion_1_gradient_correctness():
    with criterion(1, "BPTT matches central finite differences, both architectures"):
        started = time.monotonic()
        for attention, seed in ((False, 301), (True, 302)):
            cfg = net.ModelConfig(n_past=4, n_future=2, hidden=8, attention=attention)
            model = net.init(cfg, Rng(seed))
            window = Rng(seed + 1).uniform_array(4, 0, 1)
            targets = Rng(seed + 2).uniform_array(2, 0, 1)
            worst = oracles.gradient_check(model, window, targets, epsilon=1e-5,
                                           samples_per_block=20, seed=seed + 3)
            assert worst < 1e-4, f"attention={attention}: relative error {worst}"
        assert time.monotonic() - started < 30.0


def test_criterion_2_perfect_reconstruction():
    with criterion(2, "DWT/IDWT round-trip < 1e-9 and unit-factor augmentation identity"):
        lengths = (64, 128, 256)
        for name in ("haar", "db4"):
            for levels in (1, 2, 3):
                for k in range(50):
                    n = lengths[k % len(lengths)]
                    x = Rng(1000 * levels + k).uniform_array(n, -5.0, 5.0)
                    cfg = wv.AugmentConfig(filter=wv.get_filter(name), levels=levels)
                    err = np.abs(wv.idwt(wv.dwt(x, cfg)) - x).max()
                    assert err < 1e-9, f"{name} J={levels} n={n}: {err}"
        x = Rng(77).uniform_array(256, 1.0, 2.0)
        identity_cfg = wv.AugmentConfig(filter=wv.DB4, levels=3,
                                        factor_range=(1.0, 1.0), seed=5)
        variant = wv.expand_dataset(ds.TimeSeries(x), identity_cfg, 1)[1].series.values
        assert np.abs(variant - x).max() < 1e-9


def test_criterion_3_filter_identities():
    with criterion(3, "filter identities sum sqrt(2) / unit energy at startup"):
        for filt in (wv.HAAR, wv.DB4):
            h = filt.lowpass
            assert abs(h.sum() - math.sqrt(2.0)) < 1e-10
            assert abs((h ** 2).sum() - 1.0) < 1e-10
        # construction enforces the identities, so re-building proves the
        # startup validation actually runs
        wv.WaveletFilter("haar-again", np.array([1.0, 1.0]) / math.sqrt(2.0))


def test_criterion_4_attention_normalization():
    with criterion(4, "attention rows are probability vectors; n_past=1 context is exact"):
        for k in range(100):
            rng = Rng(5000 + k)
            n_past = 2 + rng.next_u64() % 7
            n_future = 1 + rng.next_u64() % 6
            hidden = 2 + rng.next_u64() % 9
            cfg = net.ModelConfig(n_past=int(n_past), n_future=int(n_future),
                                  hidden=int(hidden), attention=True)
            model = net.init(cfg, Rng(6000 + k))
            window = Rng(7000 + k).uniform_array(int(n_past), 0, 1)
            attn = net.forward_batch(model, window[None, :]).attn
            assert np.all(attn >= 0)
            npt.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)
        for k in range(10):
            cfg = net.ModelConfig(n_past=1, n_future=4, hidden=6, attention=True)
            model = net.init(cfg, Rng(8000 + k))
            cache = net.forward_batch(model, [[0.1 + 0.05 * k]])
            for s in range(4):
                npt.assert_array_equal(cache.feats[s, :, :cfg.hidden], cache.enc.h[0])
            npt.assert_array_equal(cache.attn, np.ones((4, 1, 1)))


def test_criterion_5_freeze_invariance():
    with criterion(5, "phase-1 transfer leaves encoder/decoder bitwise unchanged"):
        source = net.init(net.ModelConfig(8, 3, 10, False), Rng(21))
        data = ds.make_windows(Rng(22).uniform_array(80, 0, 1), 8, 3)
        model, _ = tr.transfer(source, data, [(4, 0.001), (0, 0.0001)], batch=16, seed=23)
        src = source.params
        for name, arr in model.params.items():
            if name.startswith(("enc.", "dec.")):
                npt.assert_array_equal(arr, src[name], err_msg=name)


def test_criterion_6_metric_oracles():
    with criterion(6, "MAE/RMSE/WAPE match brute force; accuracy arithmetic"):
        for k in range(100):
            rng = Rng(900 + k)
            n = int(1 + rng.next_u64() % 15)
            horizon = int(1 + rng.next_u64() % 6)
            p = rng.uniform_array(n * horizon, -10, 10).reshape(n, horizon)
            o = rng.uniform_array(n * horizon, 0.3, 10).reshape(n, horizon)
            table = ev.per_step_table(p, o)
            for j, row in enumerate(table.per_step):
                abs_sum = sum(abs(p[i, j] - o[i, j]) for i in range(n))
                sq_sum = sum((p[i, j] - o[i, j]) ** 2 for i in range(n))
                obs_sum = sum(abs(o[i, j]) for i in range(n))
                assert abs(row.mae - abs_sum / n) < 1e-12
                assert abs(row.rmse - math.sqrt(sq_sum / n)) < 1e-12
                assert abs(row.wape - abs_sum / obs_sum * 100.0) < 1e-12
                assert row.rmse >= row.mae
        assert oracles.accuracy(6.28) == 93.72


def test_criterion_7_desk_scale_learnability():
    with criterion(7, "trained model beats the persistence baseline on WAPE"):
        started = time.monotonic()
        profile = ds.SynthProfile(base_bps=5e8, daily_amp=2e8, weekly_amp=5e7,
                                  noise_std=2e7, seed=42)
        series = ds.synth(profile, 20_000)
        train_s, test_s = ds.split(series, 0.8, min_points=N_PAST + N_FUTURE)
        scaler = ds.fit_scaler(train_s.values)
        w_train = ds.make_windows(ds.scale(train_s.values, scaler), N_PAST, N_FUTURE)
        w_test = ds.make_windows(ds.scale(test_s.values, scaler), N_PAST, N_FUTURE)

        model = net.init(net.ModelConfig(N_PAST, N_FUTURE, hidden=32), Rng(42))
        model, history = tr.train(model, w_train,
                                  tr.TrainConfig(epochs=5, batch=32, lr=0.001, seed=42))
        assert history[-1] < history[0]  # training made progress

        preds = net.predict_batch(model, w_test.inputs)
        model_wape = ev.per_step_table(preds, w_test.targets).average.wape
        baseline = oracles.persistence_forecast(w_test.inputs, N_FUTURE)
        base_wape = ev.per_step_table(baseline, w_test.targets).average.wape
        print(f"\n  model WAPE {model_wape:.6f}% vs persistence {base_wape:.6f}%")
        assert model_wape < base_wape
        assert time.monotonic() - started < 300.0


def test_criterion_8_transfer_and_augmentation_direction():
    with criterion(8, "transfer <= scratch + 0.5pp and augmented <= transfer + 0.5pp"):
        started = time.monotonic()
        hidden = 24

        src_profile = ds.SynthProfile(base_bps=5e8, daily_amp=2e8, weekly_amp=5e7,
                                      noise_std=2e7, seed=42)
        src_train, _ = ds.split(ds.synth(src_profile, 20_000), 0.8,
                                min_points=N_PAST + N_FUTURE)
        src_scaler = ds.fit_scaler(src_train.values)
        src_windows = ds.make_windows(ds.scale(src_train.values, src_scaler),
                                      N_PAST, N_FUTURE)
        source = net.init(net.ModelConfig(N_PAST, N_FUTURE, hidden), Rng(42))
        source, src_history = tr.train(source, src_windows,
                                       tr.TrainConfig(epochs=3, batch=32, lr=0.001, seed=42))
        assert src_history[-1] < src_history[0]

        # target: shifted level and variance relative to the source domain
        tgt_profile = ds.SynthProfile(base_bps=3e8, daily_amp=8e7, weekly_amp=2e7,
                                      noise_std=1.5e7, seed=7)
        tgt_train, tgt_test = ds.split(ds.synth(tgt_profile, 2_000), 0.8,
                                       min_points=N_PAST + N_FUTURE)
        tgt_scaler = ds.fit_scaler(tgt_train.values)
        w_tr = ds.make_windows(ds.scale(tgt_train.values, tgt_scaler), N_PAST, N_FUTURE)
        w_te = ds.make_windows(ds.scale(tgt_test.values, tgt_scaler), N_PAST, N_FUTURE)

        def test_wape(model):
            preds = net.predict_batch(model, w_te.inputs)
            return ev.per_step_table(preds, w_te.targets).average.wape

        def assert_progress(history):
            assert history[-1] < history[0]

        scratch_w, transfer_w, augmented_w = [], [], []
        for seed in (101, 102, 103):
            scratch = net.init(net.ModelConfig(N_PAST, N_FUTURE, hidden), Rng(seed))
            scratch, scratch_hist = tr.train(
                scratch, w_tr,
                tr.TrainConfig(epochs=30, batch=32, lr=0.001, seed=seed))
            assert_progress(scratch_hist)
            scratch_w.append(test_wape(scratch))

            adapted, phases = tr.transfer(source, w_tr, [(15, 0.001), (15, 0.0001)],
                                          batch=32, seed=seed)
            assert [p.lr for p in phases] == [0.001, 0.0001]
            for phase in phases:
                assert_progress(phase.history)
            transfer_w.append(test_wape(adapted))

            acfg = wv.AugmentConfig(filter=wv.DB4, levels=3,
                                    factor_range=(0.5, 1.5), seed=seed)
            corpus = wv.expand_dataset(tgt_train, acfg, copies=3)
            w_aug = ds.concat_windows([
                ds.make_windows(ds.scale(entry.series.values, tgt_scaler),
                                N_PAST, N_FUTURE)
                for entry in corpus
            ])
            adapted_aug, phases_aug = tr.transfer(source, w_aug, [(8, 0.001), (8, 0.0001)],
                                                  batch=32, seed=seed)
            for phase in phases_aug:
                assert_progress(phase.history)
            augmented_w.append(test_wape(adapted_aug))

        scratch_avg = float(np.mean(scratch_w))
        transfer_avg = float(np.mean(transfer_w))
        augmented_avg = float(np.mean(augmented_w))
        print(f"\n  scratch {scratch_avg:.6f}% transfer {transfer_avg:.6f}% "
              f"augmented {augmented_avg:.6f}%")
        assert transfer_avg <= scratch_avg + 0.5
        assert augmented_avg <= transfer_avg + 0.5
        assert time.monotonic() - started < 900.0


def test_criterion_9_iqr_outlier_procedure():
    with criterion(9, "quartile convention, Tukey fences, permutation invariance"):
        assert ev.iqr([1.0, 2.0, 3.0, 4.0]) == (1.75, 3.25, 1.5)
        assert ev.outliers([1.0, 2.0, 3.0, 4.0, 100.0]) == [(4, 100.0)]
        assert ev.outliers([1.0, 2.0, 3.0, 4.0]) == []
        for k in range(100):
            rng = Rng(40_000 + k)
            values = rng.uniform_array(4 + int(rng.next_u64() % 20), -50, 50)
            shuffled = values.copy()
            rng.shuffle(shuffled)
            assert ev.iqr(shuffled) == ev.iqr(values)
            assert sorted(v for _, v in ev.outliers(shuffled)) == \
                sorted(v for _, v in ev.outliers(values))


def test_criterion_10_end_to_end_determinism(tmp_path):
    with criterion(10, "scripted CLI pipeline is byte-identical across runs"):

        def run_pipeline(root):
            root.mkdir()
            source_csv = root / "source.csv"
            target_csv = root / "target.csv"
            assert cli_main(["synth", "--out", str(source_csv), "--length", "800",
                             "--base-bps", "5e8", "--daily-amp", "2e8",
                             "--noise-std", "1e7", "--seed", "42"]) == 0
            assert cli_main(["synth", "--out", str(target_csv), "--length", "400",
                             "--base-bps", "3e8", "--daily-amp", "1e8",
                             "--noise-std", "1e7", "--seed", "7"]) == 0
            source_model = root / "source.tfl"
            assert cli_main(["train", "--data", str(source_csv),
                             "--out", str(source_model),
                             "--n-past", "8", "--n-future", "6", "--hidden", "8",
                             "--epochs", "2", "--batch", "16", "--seed", "42"]) == 0
            assert cli_main(["augment", "--data", str(target_csv),
                             "--out-dir", str(root / "aug"), "--copies", "2",
                             "--levels", "2", "--seed", "9"]) == 0
            adapted = root / "adapted.tfl"
            assert cli_main(["transfer", "--source-model", str(source_model),
                             "--data", str(target_csv), "--out", str(adapted),
                             "--phase1-epochs", "1", "--phase2-epochs", "1",
                             "--augment-copies", "2", "--levels", "2",
                             "--batch", "16", "--seed", "5"]) == 0
            eval_dir = root / "eval"
            assert cli_main(["evaluate", "--model", str(adapted),
                             "--data", str(target_csv), "--out-dir", str(eval_dir)]) == 0
            return eval_dir

        first = run_pipeline(tmp_path / "run1")
        second = run_pipeline(tmp_path / "run2")
        csvs = sorted(p.name for p in first.glob("*.csv"))
        assert csvs, "pipeline produced no report CSVs"
        for name in csvs:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
