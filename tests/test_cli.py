import json

import numpy as np
import pytest

from tfl import model_io as mio
from tfl.cli import main
from tfl.dataset import load_csv


@pytest.fixture()
def series_csv(tmp_path):
    path = tmp_path / "series.csv"
    assert main([
        "synth", "--out", str(path), "--length", "400",
        "--base-bps", "5e8", "--daily-amp", "2e8", "--noise-std", "1e7",
        "--seed", "11",
    ]) == 0
    return path


def train_args(data, out, **overrides):
    base = {
        "n-past": "8", "n-future": "3", "hidden": "6",
        "epochs": "2", "batch": "16", "seed": "7", "split": "0.8",
    }
    base.update(overrides)
    args = ["train", "--data", str(data), "--out", str(out)]
    for key, value in base.items():
        args += [f"--{key}", value]
    return args


class TestSynthStats:
    def test_synth_writes_csv_and_config(self, tmp_path, series_csv):
        series, warnings = load_csv(series_csv)
        assert len(series) == 400 and warnings == 0
        echo = series_csv.parent / "synth_config.txt"
        assert "seed=11" in echo.read_text()

    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["synth", "--out", str(out), "--length", "100",
                         "--base-bps", "1e8", "--noise-std", "1e6",
                         "--seed", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_profile_is_trainable(self, tmp_path):
        # the defaults are the README source profile, not a constant series
        data = tmp_path / "x.csv"
        assert main(["synth", "--out", str(data), "--length", "1500", "--seed", "3"]) == 0
        assert "daily_amp=200000000.0" in (tmp_path / "synth_config.txt").read_text()
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.tfl"),
                     "--hidden", "4", "--epochs", "1"]) == 0

    def test_stats_prints_and_writes(self, tmp_path, series_csv, capsys):
        out = tmp_path / "stats.csv"
        assert main(["stats", "--data", str(series_csv), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "mean=" in printed and "skewness=" in printed
        assert out.read_text().startswith("mean,std,var,skewness")


class TestAugment:
    def test_copies_and_provenance(self, tmp_path, series_csv):
        out_dir = tmp_path / "aug"
        assert main(["augment", "--data", str(series_csv), "--out-dir", str(out_dir),
                     "--copies", "2", "--wavelet", "db4", "--levels", "2",
                     "--seed", "5"]) == 0
        assert (out_dir / "original.csv").exists()
        assert (out_dir / "augmented_001.csv").exists()
        assert (out_dir / "augmented_002.csv").exists()
        provenance = json.loads((out_dir / "provenance.json").read_text())
        assert provenance[0]["source"] == "original"
        assert provenance[1]["filter"] == "db4"
        assert provenance[2]["copy"] == 1


class TestTrainEvaluate:
    def test_train_produces_artifacts(self, tmp_path, series_csv):
        model_path = tmp_path / "run" / "m.tfl"
        assert main(train_args(series_csv, model_path)) == 0
        model, scaler, provenance = mio.load_model(model_path)
        assert model.config.n_past == 8 and model.config.hidden == 6
        assert scaler is not None
        assert provenance["seed"] == 7 and provenance["parent_sha256"] is None
        run_dir = model_path.parent
        history = (run_dir / "loss_history.csv").read_text().splitlines()
        assert history[0] == "phase,epoch,lr,loss"
        assert len(history) == 3  # header + 2 epochs
        assert "seed=7" in (run_dir / "train_config.txt").read_text()

    def test_attention_flag(self, tmp_path, series_csv):
        model_path = tmp_path / "attn.tfl"
        assert main(train_args(series_csv, model_path) + ["--attention"]) == 0
        model, _, _ = mio.load_model(model_path)
        assert model.config.attention is True

    def test_evaluate_twice_byte_identical(self, tmp_path, series_csv):
        model_path = tmp_path / "m.tfl"
        assert main(train_args(series_csv, model_path)) == 0
        dirs = [tmp_path / "eval1", tmp_path / "eval2"]
        for d in dirs:
            assert main(["evaluate", "--model", str(model_path),
                         "--data", str(series_csv), "--out-dir", str(d),
                         "--horizons", "3,6"]) == 0
        names = sorted(p.name for p in dirs[0].glob("*.csv"))
        assert names, "evaluate produced no CSVs"
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_evaluate_horizon_contradiction_is_usage_error(self, tmp_path, series_csv):
        model_path = tmp_path / "m.tfl"
        assert main(train_args(series_csv, model_path)) == 0
        code = main(["evaluate", "--model", str(model_path),
                     "--data", str(series_csv), "--out-dir", str(tmp_path / "e"),
                     "--horizons", "6,9,12"])
        assert code == 1  # model horizon 3 not accepted

    def test_config_file_and_flag_precedence(self, tmp_path, series_csv):
        config = tmp_path / "run.conf"
        config.write_text("n_past=8\nn_future=3\nhidden=5\nepochs=2\nseed=9\n"
                          "batch=16\nsplit=0.8\n")
        model_path = tmp_path / "m.tfl"
        assert main(["train", "--config", str(config), "--data", str(series_csv),
                     "--out", str(model_path), "--hidden", "4"]) == 0
        model, _, provenance = mio.load_model(model_path)
        assert model.config.hidden == 4        # flag wins
        assert provenance["seed"] == 9          # config file fills the rest
        echo = model_path.parent / "train_config.txt"
        assert "hidden=4" in echo.read_text()

    def test_rerun_from_echoed_config(self, tmp_path, series_csv):
        first = tmp_path / "one" / "m.tfl"
        assert main(train_args(series_csv, first)) == 0
        second = tmp_path / "two" / "m.tfl"
        assert main(["train", "--config", str(first.parent / "train_config.txt"),
                     "--out", str(second)]) == 0
        a, _, _ = mio.load_model(first)
        b, _, _ = mio.load_model(second)
        for (name, pa), (_, pb) in zip(
            __import__("tfl.network", fromlist=["param_items"]).param_items(a),
            __import__("tfl.network", fromlist=["param_items"]).param_items(b),
        ):
            np.testing.assert_array_equal(pa, pb, err_msg=name)

    def test_scaler_never_sees_test_values(self, tmp_path, series_csv, monkeypatch):
        # instrument the fit: it must only receive the chronological train side
        from tfl import cli as cli_mod
        from tfl import dataset as ds_mod

        seen = []
        original = ds_mod.fit_scaler

        def spy(train_values):
            seen.append(np.array(train_values))
            return original(train_values)

        monkeypatch.setattr(cli_mod.ds, "fit_scaler", spy)
        assert main(train_args(series_csv, tmp_path / "m.tfl")) == 0
        full, _ = load_csv(series_csv)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], full.values[: int(0.8 * len(full))])


class TestTransferCli:
    def test_transfer_records_parent_and_phases(self, tmp_path, series_csv):
        source = tmp_path / "src.tfl"
        assert main(train_args(series_csv, source)) == 0
        target_csv = tmp_path / "target.csv"
        assert main(["synth", "--out", str(target_csv), "--length", "300",
                     "--base-bps", "3e8", "--daily-amp", "1e8",
                     "--noise-std", "1e7", "--seed", "21"]) == 0
        adapted = tmp_path / "adapted.tfl"
        assert main(["transfer", "--source-model", str(source),
                     "--data", str(target_csv), "--out", str(adapted),
                     "--phase1-epochs", "1", "--phase2-epochs", "1",
                     "--batch", "16", "--seed", "5"]) == 0
        _, _, provenance = mio.load_model(adapted)
        assert provenance["parent_sha256"] == mio.file_sha256(source)
        assert provenance["phase_lrs"] == [0.001, 0.0001]
        history = (adapted.parent / "transfer_history.csv").read_text()
        assert "freeze-body" in history and "fine-tune" in history

    def test_transfer_with_augmentation(self, tmp_path, series_csv):
        source = tmp_path / "src.tfl"
        assert main(train_args(series_csv, source)) == 0
        adapted = tmp_path / "adapted.tfl"
        assert main(["transfer", "--source-model", str(source),
                     "--data", str(series_csv), "--out", str(adapted),
                     "--phase1-epochs", "1", "--phase2-epochs", "0",
                     "--augment-copies", "2", "--levels", "2",
                     "--batch", "16", "--seed", "5"]) == 0
        _, _, provenance = mio.load_model(adapted)
        assert provenance["augment_copies"] == 2


    def test_rerun_from_echoed_config_is_byte_identical(self, tmp_path, series_csv):
        source = tmp_path / "src.tfl"
        assert main(train_args(series_csv, source)) == 0
        first = tmp_path / "one" / "adapted.tfl"
        assert main(["transfer", "--source-model", str(source), "--data", str(series_csv),
                     "--out", str(first), "--phase1-epochs", "1", "--phase2-epochs", "1",
                     "--augment-copies", "1", "--wavelet", "haar", "--levels", "2",
                     "--batch", "16", "--seed", "5"]) == 0
        second = tmp_path / "two" / "adapted.tfl"
        assert main(["transfer", "--config", str(first.parent / "transfer_config.txt"),
                     "--out", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()
        history = "transfer_history.csv"
        assert (second.parent / history).read_bytes() == (first.parent / history).read_bytes()

    def test_both_phases_skipped_write_header_only_history(self, tmp_path, series_csv):
        source = tmp_path / "src.tfl"
        assert main(train_args(series_csv, source)) == 0
        adapted = tmp_path / "run" / "adapted.tfl"
        assert main(["transfer", "--source-model", str(source), "--data", str(series_csv),
                     "--out", str(adapted), "--phase1-epochs", "0", "--phase2-epochs", "0"]) == 0
        assert (adapted.parent / "transfer_history.csv").read_text() == "phase,epoch,lr,loss\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--phase1-epochs", "-1", "epochs must be >= 0, got -1"),
        ("--phase2-epochs", "-1", "epochs must be >= 0, got -1"),
        ("--batch", "0", "batch must be >= 1, got 0"),
        ("--augment-copies", "-2", "augment_copies must be >= 0, got -2"),
    ])
    def test_bad_phase_setting_fails_before_training(self, tmp_path, series_csv, capsys,
                                                      monkeypatch, flag, value, message):
        from tfl import training

        source = tmp_path / "src.tfl"
        assert main(train_args(series_csv, source)) == 0
        capsys.readouterr()
        trained = []
        monkeypatch.setattr(training, "train", lambda *a, **k: trained.append(a))
        adapted = tmp_path / "run" / "adapted.tfl"
        assert main(["transfer", "--source-model", str(source), "--data", str(series_csv),
                     "--out", str(adapted), flag, value]) == 2
        assert capsys.readouterr().err.splitlines() == [f"data error: {message}"]
        assert trained == [] and not adapted.parent.exists()

    def test_unknown_config_key_fails_before_training(self, tmp_path, series_csv, capsys,
                                                      monkeypatch):
        from tfl import training

        source = tmp_path / "src.tfl"
        assert main(train_args(series_csv, source)) == 0
        capsys.readouterr()
        trained = []
        monkeypatch.setattr(training, "train", lambda *a, **k: trained.append(a))
        config = tmp_path / "transfer.conf"
        config.write_text(f"source_model={source}\ndata={series_csv}\nphase2_epoch=0\n")
        adapted = tmp_path / "run" / "adapted.tfl"
        assert main(["transfer", "--config", str(config), "--out", str(adapted)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {config}: unknown config key(s): phase2_epoch"]
        assert trained == [] and not adapted.parent.exists()


class TestReportCli:
    def test_report_from_two_evaluations(self, tmp_path, series_csv):
        model_path = tmp_path / "m.tfl"
        # horizon 4: the IQR summary needs at least four per-step deltas
        assert main(train_args(series_csv, model_path, **{"n-future": "4"})) == 0
        eval_dir = tmp_path / "eval"
        assert main(["evaluate", "--model", str(model_path),
                     "--data", str(series_csv), "--out-dir", str(eval_dir),
                     "--horizons", "4"]) == 0
        metrics = next(eval_dir.glob("metrics_*_scaled.csv"))
        out_dir = tmp_path / "report"
        assert main(["report", "--before", str(metrics), "--after", str(metrics),
                     "--out-dir", str(out_dir)]) == 0
        improvement = (out_dir / "improvement.csv").read_text().splitlines()
        assert improvement[0] == "step,delta_wape_pp"
        assert all(line.endswith(",0") for line in improvement[1:])


class TestExitCodes:
    def test_unknown_flag_is_usage(self):
        assert main(["synth", "--no-such-flag", "1"]) == 1

    def test_missing_required_is_usage(self):
        assert main(["train"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["stats", "--data", str(tmp_path / "absent.csv")]) == 2

    def test_bad_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,bps\n0,10\n300,broken\n")
        assert main(["stats", "--data", str(bad)]) == 2

    def test_non_positive_huber_delta_is_data_error(self, tmp_path, series_csv, capsys):
        assert main(train_args(series_csv, tmp_path / "m.tfl", delta="0")) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["data error: huber delta must be > 0, got 0.0"]


# SHA-256 of (adapted model, its raw-unit metrics CSV) from TestGoldenHash,
# taken with numpy 2.4.6 on OpenBLAS (x86-64); another BLAS may round the
# GEMMs differently in the last bit.  A change that moves these on purpose
# updates them and records the old and new values in CHANGES.md.
GOLDEN = {
    False: ("16965caae2ed28fccd412dde241a143e3bbf94979b9961610e9ee098da755b4b",
            "707fca0d0c00566b4972feca73b26823b902a5e00ff7e0882dad655a4bb96edf"),
    True: ("0cef3c7f1a50abde1ceff57bec5f6a348b6d105422400a59d81b94ab403593ed",
           "c85e09e459f439fc28e258f8bd7b653f6d39393678f0c68f0626af8f6d4187cf"),
}


class TestGoldenHash:
    @pytest.mark.parametrize("attention", [False, True])
    def test_train_transfer_evaluate_bits_pinned(self, tmp_path, series_csv, attention):
        source = tmp_path / "source.tfl"
        flag = "--attention" if attention else "--no-attention"
        assert main(train_args(series_csv, source) + [flag]) == 0
        target_csv = tmp_path / "target.csv"
        assert main(["synth", "--out", str(target_csv), "--length", "240",
                     "--base-bps", "3e8", "--daily-amp", "1e8",
                     "--noise-std", "1e7", "--seed", "21"]) == 0
        adapted = tmp_path / "adapted.tfl"
        assert main(["transfer", "--source-model", str(source),
                     "--data", str(target_csv), "--out", str(adapted),
                     "--phase1-epochs", "1", "--phase2-epochs", "1",
                     "--batch", "16", "--seed", "5"]) == 0
        out_dir = tmp_path / "eval"
        assert main(["evaluate", "--model", str(adapted), "--data", str(target_csv),
                     "--out-dir", str(out_dir), "--horizons", "3"]) == 0
        hashes = (mio.file_sha256(adapted), mio.file_sha256(out_dir / "metrics_adapted_raw.csv"))
        assert hashes == GOLDEN[attention]

