import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfl import dataset as ds
from tfl import evaluation as ev
from tfl import model_io as mio
from tfl import network as net
from tfl.cli import main
from tfl.dataset import TimeSeries, load_csv, write_csv
from tfl.numeric import Rng


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


CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def run_cli(*argv, **popen):
    """The command line in a child process, under Python's default warning
    filters, so stderr is what a user sees; ``popen`` goes to subprocess.run."""
    code = "import sys; from tfl.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=CHILD_ENV, timeout=120, **popen)


INF_FACTOR_ERROR = "data error: factor range must satisfy 0 <= a <= b < inf, got [0.5, inf]"


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

    def test_negative_noise_is_one_line_data_error(self, tmp_path):
        out = tmp_path / "a" / "s.csv"
        proc = run_cli("synth", "--out", str(out), "--length", "600", "--noise-std=-5e7",
                       "--seed", "3")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "data error: noise_std must be finite and >= 0, got -50000000.0"]
        assert proc.stdout == "" and not out.parent.exists()

    @pytest.mark.parametrize("noise", ["nan", "-1"])
    def test_bad_noise_from_config_file_writes_nothing(self, tmp_path, capsys, noise):
        config = tmp_path / "synth.conf"
        config.write_text(f"length=600\nnoise_std={noise}\n")
        out = tmp_path / "a" / "s.csv"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: noise_std must be finite and >= 0, got {float(noise)}"]
        assert not out.parent.exists()

    def test_overflowing_profile_is_one_line_data_error(self, tmp_path):
        # the sum overflows to inf without a warning, and TimeSeries refuses it
        out = tmp_path / "s.csv"
        code, lines = run_in(tmp_path, ["synth", "--out", str(out),
                                        "--base-bps", "1e308", "--daily-amp", "8e307"])
        assert code == 2
        assert lines == ["data error: series contains non-finite values"]
        assert not out.exists()

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

    def test_infinite_factor_is_one_line_data_error(self, tmp_path, series_csv):
        out_dir = tmp_path / "aug"
        proc = run_cli("augment", "--data", str(series_csv), "--out-dir", str(out_dir),
                       "--copies", "1", "--factor-hi", "inf")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [INF_FACTOR_ERROR]
        assert not out_dir.exists()

    def test_grid_past_year_9999_is_one_line_data_error(self, tmp_path):
        # only the first row is in range; the grid's end is past 9999-12-31
        data = tmp_path / "far.csv"
        data.write_text("timestamp,bps\n" + "".join(f"{253402298800 + 60 * k},{k + 1.0}\n"
                                                    for k in range(40)))
        out_dir = tmp_path / "aug"
        proc = run_cli("augment", "--data", str(data), "--out-dir", str(out_dir),
                       "--copies", "1", "--levels", "1")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"data error: {data}: last timestamp out of range"]
        assert not out_dir.exists()


    @pytest.mark.parametrize("command", ["augment", "transfer"])
    def test_copies_that_overflow_are_one_line_data_error(self, tmp_path, trained, command):
        # the series is finite; its wavelet copies leave float64
        data, source, out = tmp_path / "huge.csv", tmp_path / "src.tfl", tmp_path / "out"
        write_csv(TimeSeries([1.7e308, 1e307] * 150), data)
        source.write_bytes(trained[1])
        argv = {"augment": ["augment", "--data", str(data), "--out-dir", str(out),
                            "--copies", "2"],
                "transfer": ["transfer", "--source-model", str(source), "--data", str(data),
                             "--out", str(out / "m.tfl"), "--augment-copies", "2"]}[command]
        code, lines = run_in(tmp_path, argv)
        assert code == 2
        assert lines == ["data error: series contains non-finite values"]
        assert not out.exists()


class TestTrainEvaluate:
    @pytest.mark.parametrize("base, amp, noise", [("1e200", "4e199", "1e198"),
                                                  ("1.5e308", "2e307", "1e305")])
    def test_metrics_that_overflow_are_one_line_data_error(self, tmp_path, base, amp, noise):
        # a valid series whose raw-unit errors or their squares leave float64
        data, model_path = tmp_path / "s.csv", tmp_path / "m.tfl"
        assert main(["synth", "--out", str(data), "--length", "400", "--base-bps", base,
                     "--daily-amp", amp, "--noise-std", noise, "--seed", "11"]) == 0
        assert main(train_args(data, model_path, hidden="3", epochs="1")) == 0
        code, lines = run_in(tmp_path, ["evaluate", "--data", str(data), "--model",
                                        str(model_path), "--out-dir", "ev"])
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith(f"data error: {model_path}: values up to ")
        assert lines[0].endswith(" overflow the metric tables")
        assert not (tmp_path / "ev").exists()

    def test_test_side_past_the_scaler_is_one_line_data_error(self, tmp_path):
        # the train side spans 1e-10, so the test side's 1e300 scales past
        # float64; the forecast stays finite, and its errors do not
        data, model_path = tmp_path / "s.csv", tmp_path / "m.tfl"
        write_csv(TimeSeries([1.0 + 1e-10 * (k % 2) for k in range(320)] + [1e300] * 80), data)
        assert main(train_args(data, model_path, hidden="3", epochs="1")) == 0
        code, lines = run_in(tmp_path, ["evaluate", "--data", str(data), "--model",
                                        str(model_path), "--out-dir", "ev"])
        assert code == 2
        assert lines == [f"data error: {model_path}: values up to 1e+300 overflow the metric tables"]
        assert not (tmp_path / "ev").exists()

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

    @pytest.mark.parametrize("lr", ["nan", "inf", "-0.5"])
    def test_bad_lr_fails_before_training(self, tmp_path, series_csv, capsys, monkeypatch, lr):
        from tfl import training

        trained = []
        monkeypatch.setattr(training, "train", lambda *a, **k: trained.append(a))
        model_path = tmp_path / "run" / "m.tfl"
        assert main(train_args(series_csv, model_path, lr=lr)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: lr must be finite and >= 0, got {float(lr)}"]
        assert trained == [] and not model_path.parent.exists()

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
                         "--data", str(series_csv), "--out-dir", str(d)]) == 0
        names = sorted(p.name for p in dirs[0].glob("*.csv"))
        assert names, "evaluate produced no CSVs"
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs CPU affinity with at least two CPUs allowed")
    def test_evaluate_bytes_do_not_depend_on_cpu_count(self, tmp_path):
        # 1500 rows leave 290 test windows per model: chunks of 256 and 34 windows
        data = tmp_path / "long.csv"
        assert main(["synth", "--out", str(data), "--length", "1500", "--seed", "3"]) == 0
        models = [tmp_path / "plain.tfl", tmp_path / "attn.tfl"]
        assert main(train_args(data, models[0], epochs="1")) == 0
        assert main(train_args(data, models[1], epochs="1") + ["--attention"]) == 0
        cpu = min(os.sched_getaffinity(0))
        outputs = []
        for name, popen in (("one_cpu", {"preexec_fn": lambda: os.sched_setaffinity(0, {cpu})}),
                            ("all_cpus", {})):
            out_dir = tmp_path / name
            proc = run_cli("evaluate", "--model", ",".join(map(str, models)),
                           "--data", str(data), "--out-dir", str(out_dir), **popen)
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes() for p in out_dir.glob("metrics_*.csv")})
        assert sorted(outputs[0]) == [f"metrics_{stem}_{kind}.csv" for stem in ("attn", "plain")
                                      for kind in ("raw", "scaled")]
        assert outputs[0] == outputs[1]

    def test_evaluate_flat_test_tail_exits_zero(self, tmp_path, series_csv):
        # a flat test side gives every window the same error at a step
        series, _ = load_csv(series_csv)
        values = series.values.copy()
        values[320:] = 5e8
        flat_csv = tmp_path / "flat.csv"
        write_csv(TimeSeries(values), flat_csv)
        model_path = tmp_path / "m.tfl"
        assert main(train_args(flat_csv, model_path, **{"n-future": "6"})) == 0
        assert main(["evaluate", "--model", str(model_path), "--data", str(flat_csv),
                     "--out-dir", str(tmp_path / "e")]) == 0

    def test_evaluate_takes_each_model_at_its_stored_horizon(self, tmp_path, series_csv):
        models = []
        for horizon in ("3", "5"):
            models.append(tmp_path / f"h{horizon}.tfl")
            assert main(train_args(series_csv, models[-1], **{"n-future": horizon})) == 0
        out_dir = tmp_path / "eval"
        assert main(["evaluate", "--model", ",".join(map(str, models)),
                     "--data", str(series_csv), "--out-dir", str(out_dir)]) == 0
        for horizon, model in zip((3, 5), models):
            for kind in ("scaled", "raw"):
                rows = (out_dir / f"metrics_{model.stem}_{kind}.csv").read_text().splitlines()
                assert len(rows) == 1 + horizon + 1  # header, one row per step, average

    def test_evaluate_uses_the_split_the_model_records(self, tmp_path, series_csv):
        model_path = tmp_path / "m.tfl"
        assert main(train_args(series_csv, model_path, split="0.7")) == 0
        out_dir = tmp_path / "eval"
        assert main(["evaluate", "--model", str(model_path),
                     "--data", str(series_csv), "--out-dir", str(out_dir)]) == 0
        echo = (out_dir / "evaluate_config.txt").read_text().splitlines()
        assert [line.partition("=")[0] for line in echo] == ["data", "model", "out_dir"]
        model, scaler, _ = mio.load_model(model_path)
        series, _ = load_csv(series_csv)

        def tables_at(ratio):
            _, test_side = ds.split(series, ratio, min_points=8 + 3)
            windows = ds.make_windows(ds.scale(test_side.values, scaler), 8, 3)
            preds = net.predict_batch(model, windows.inputs)
            out = tmp_path / f"expected_{ratio}"
            ev.emit_report({
                "metrics_m_scaled": ev.per_step_table(preds, windows.targets),
                "metrics_m_raw": ev.per_step_table(ds.inverse_scale(preds, scaler),
                                                   ds.inverse_scale(windows.targets, scaler)),
            }, out)
            return {p.name: p.read_bytes() for p in out.glob("*.csv")}

        written = {p.name: p.read_bytes() for p in out_dir.glob("*.csv")}
        assert written == tables_at(0.7)  # the last 30% of --data
        assert written != tables_at(0.8)  # the old default split

    @pytest.mark.parametrize("scaler, provenance, problem", [
        (None, {"split": 0.8}, "model file carries no scaler"),
        (ds.ScalerParams(0.0, 1e9), {}, "model file records no float split"),
        (ds.ScalerParams(0.0, 1e9), {"split": "0.8"}, "model file records no float split"),
        (ds.ScalerParams(0.0, 1e9), {"split": 1}, "model file records no float split"),
    ])
    def test_evaluate_model_without_scaler_or_split_is_data_error(
            self, tmp_path, series_csv, capsys, scaler, provenance, problem):
        model_path = tmp_path / "m.tfl"
        model = net.init(net.ModelConfig(n_past=8, n_future=3, hidden=4), Rng(1))
        mio.save_model(model, scaler, provenance, model_path)
        out_dir = tmp_path / "eval"
        assert main(["evaluate", "--model", str(model_path),
                     "--data", str(series_csv), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {model_path}: {problem}; cannot evaluate"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("models, message", [
        ("a/m.tfl,b/m.tfl", "--model: several files share the stem m; "
                            "their metric tables would overwrite each other"),
        ("", "--model names no model file"),
        (",", "--model names no model file"),
    ])
    def test_evaluate_model_list_usage_error(self, tmp_path, series_csv, capsys, monkeypatch,
                                             models, message):
        loaded = []
        monkeypatch.setattr(mio, "load_model", lambda *a: loaded.append(a))
        out_dir = tmp_path / "eval"
        assert main(["evaluate", "--model", models, "--data", str(series_csv),
                     "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert loaded == [] and not out_dir.exists()

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

    @pytest.mark.parametrize("key, value, reason", [
        ("epochs", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("attention", "maybe", "not a boolean: 'maybe'"),
        ("lr", "fast", "could not convert string to float: 'fast'"),
    ])
    def test_bad_config_file_value_is_usage_error(self, tmp_path, series_csv, capsys,
                                                  key, value, reason):
        config = tmp_path / "train.conf"
        config.write_text(f"hidden=4\n{key}={value}\n")
        model_path = tmp_path / "run" / "m.tfl"
        assert main(["train", "--config", str(config), "--data", str(series_csv),
                     "--out", str(model_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {config}: {key}: {reason}"]
        assert not model_path.parent.exists()

    def test_repeated_config_key_is_usage_error(self, tmp_path, series_csv, capsys):
        config = tmp_path / "train.conf"
        config.write_text("epochs=5\nhidden=4\n# a comment\n epochs = 1\n")
        model_path = tmp_path / "run" / "m.tfl"
        assert main(["train", "--config", str(config), "--data", str(series_csv),
                     "--out", str(model_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {config}: line 4: repeated key 'epochs'"]
        assert not model_path.parent.exists()

    def test_empty_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "c.conf"
        config.write_text("# a comment\nlength=50\n = 3\n")
        out = tmp_path / "run" / "y.csv"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {config}: line 3: expected key=value"]
        assert not out.parent.exists()

    @pytest.mark.parametrize("text, problem", [
        ("a\x0bb=1\n", "unknown config key(s): 'a\\x0bb'"),
        ("length=50\nlen\x0bgth=1\nlen\x0bgth=2\n", "line 3: repeated key 'len\\x0bgth'"),
    ])
    def test_config_key_with_line_break_is_quoted(self, tmp_path, capsys, text, problem):
        # str.splitlines() breaks at \x0b; quoted, the message stays one line
        config = tmp_path / "c.conf"
        config.write_text(text)
        out = tmp_path / "run" / "y.csv"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {config}: {problem}"]
        assert not out.parent.exists()

    def test_rerun_from_echoed_config(self, tmp_path, series_csv):
        first = tmp_path / "one" / "m.tfl"
        assert main(train_args(series_csv, first)) == 0
        second = tmp_path / "two" / "m.tfl"
        assert main(["train", "--config", str(first.parent / "train_config.txt"),
                     "--out", str(second)]) == 0
        a, _, _ = mio.load_model(first)
        b, _, _ = mio.load_model(second)
        assert list(a.params) == list(b.params)
        for name, arr in a.params.items():
            np.testing.assert_array_equal(arr, b.params[name], err_msg=name)

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
        ("--phase1-lr", "nan", "lr must be finite and >= 0, got nan"),
        ("--phase2-lr", "inf", "lr must be finite and >= 0, got inf"),
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

    def test_infinite_augment_factor_is_one_line_data_error(self, tmp_path, series_csv):
        source = tmp_path / "src.tfl"
        assert main(train_args(series_csv, source)) == 0
        adapted = tmp_path / "run" / "adapted.tfl"
        proc = run_cli("transfer", "--source-model", str(source), "--data", str(series_csv),
                       "--out", str(adapted), "--augment-copies", "1", "--factor-hi", "inf")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [INF_FACTOR_ERROR]
        assert not adapted.parent.exists()

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
            f"error: {config}: unknown config key(s): 'phase2_epoch'"]
        assert trained == [] and not adapted.parent.exists()


def _echo_keys_except(path, key):
    return [line for line in path.read_text().splitlines() if not line.startswith(key + "=")]


class TestEchoRoundTrip:
    """Rerunning a command from its ``*_config.txt`` into a new location
    reproduces every output byte for byte."""

    def test_each_command_reruns_from_its_echo(self, tmp_path, series_csv):
        model_path = tmp_path / "m.tfl"
        assert main(train_args(series_csv, model_path, **{"n-future": "4"})) == 0
        one, two = tmp_path / "one", tmp_path / "two"
        metrics = str(one / "eval" / "metrics_m_scaled.csv")
        # (first run, the option naming where it writes, that place under one/ and two/)
        runs = [
            (["synth", "--length", "300", "--daily-amp", "1e8", "--seed", "3"], "--out", "synth/x.csv"),
            (["stats", "--data", str(series_csv)], "--out", "stats/s.csv"),
            (["augment", "--data", str(series_csv), "--copies", "2", "--levels", "2",
              "--wavelet", "haar", "--seed", "5"], "--out-dir", "aug"),
            (["evaluate", "--model", str(model_path), "--data", str(series_csv)],
             "--out-dir", "eval"),
            (["report", "--before", metrics, "--after", metrics], "--out-dir", "report"),
        ]
        for argv, flag, place in runs:
            command = argv[0]
            assert main(argv + [flag, str(one / place)]) == 0, command
            first_dir = (one / place).parent if flag == "--out" else one / place
            second_dir = (two / place).parent if flag == "--out" else two / place
            echo = first_dir / f"{command}_config.txt"
            assert main([command, "--config", str(echo), flag, str(two / place)]) == 0, command
            names = sorted(p.name for p in first_dir.iterdir())
            assert names == sorted(p.name for p in second_dir.iterdir()), command
            assert len(names) > 1, command
            key = flag[2:].replace("-", "_")
            for name in names:
                first, second = first_dir / name, second_dir / name
                if name == echo.name:
                    assert _echo_keys_except(first, key) == _echo_keys_except(second, key)
                else:
                    assert first.read_bytes() == second.read_bytes(), (command, name)

    @pytest.mark.parametrize("command, removed", [
        ("train", "delta=1.0"),
        ("transfer", "delta=1.0"),
        ("augment", "per_band=false"),
        ("evaluate", "split=0.8"),
        ("evaluate", "horizons=6,9,12"),
    ])
    def test_echo_with_removed_key_is_unknown_key(self, tmp_path, series_csv, capsys,
                                                  monkeypatch, command, removed):
        # echoes written while these settings existed carry them
        from tfl import training

        source = tmp_path / "src.tfl"
        assert main(train_args(series_csv, source)) == 0
        first = tmp_path / "one"
        argv = {
            "train": train_args(series_csv, first / "m.tfl"),
            "transfer": ["transfer", "--source-model", str(source), "--data", str(series_csv),
                         "--out", str(first / "m.tfl"), "--phase1-epochs", "1",
                         "--phase2-epochs", "0"],
            "augment": ["augment", "--data", str(series_csv), "--out-dir", str(first),
                        "--copies", "1", "--levels", "2"],
            "evaluate": ["evaluate", "--model", str(source), "--data", str(series_csv),
                         "--out-dir", str(first)],
        }[command]
        assert main(argv) == 0
        old_echo = tmp_path / "old_config.txt"
        old_echo.write_text((first / f"{command}_config.txt").read_text() + removed + "\n")
        capsys.readouterr()
        trained = []
        monkeypatch.setattr(training, "train", lambda *a, **k: trained.append(a))
        second = tmp_path / "two"
        out = ["--out-dir", str(second)] if command in ("augment", "evaluate") else [
            "--out", str(second / "m.tfl")]
        assert main([command, "--config", str(old_echo), *out]) == 1
        key = removed.partition("=")[0]
        assert capsys.readouterr().err.splitlines() == [
            f"error: {old_echo}: unknown config key(s): {key!r}"]
        assert trained == [] and not second.exists()


GOOD_TABLE = ["step,mae,rmse,wape", *(f"{k},0.1,0.2,{10 + k}" for k in range(1, 7)),
              "average,0.1,0.2,13.5"]

# (lines of the --after table, the line the reader names, its problem)
BAD_AFTER_TABLES = [
    ([], 1, "expected the header step,mae,rmse,wape"),
    (["step,mae,rmse"] + GOOD_TABLE[1:], 1, "expected the header step,mae,rmse,wape"),
    (GOOD_TABLE[:1], 1, "the table ends without an average row"),
    (GOOD_TABLE[:7], 7, "the table ends without an average row"),
    (GOOD_TABLE[:1] + GOOD_TABLE[7:], 2, "expected step 1, got 'average'"),
    ([GOOD_TABLE[0], *reversed(GOOD_TABLE[1:7]), GOOD_TABLE[7]], 2, "expected step 1, got '6'"),
    ([GOOD_TABLE[0], *["1,0.1,0.2,11"] * 6, GOOD_TABLE[7]], 3,
     "expected step 2 or average, got '1'"),
    (GOOD_TABLE + ["7,0.1,0.2,17"], 9, "a row follows the average row"),
    (GOOD_TABLE[:3] + ["3,0.1,0.2"] + GOOD_TABLE[4:], 4, "expected 4 columns, got 3"),
    (GOOD_TABLE[:3] + [""] + GOOD_TABLE[3:], 4, "expected 4 columns, got 0"),
    (GOOD_TABLE[:3] + ["3,0.1,high,13"] + GOOD_TABLE[4:], 4,
     "could not convert string to float: 'high'"),
    (GOOD_TABLE[:3] + ["3,0.1,0.2,nan"] + GOOD_TABLE[4:], 4, "non-finite value in '0.1,0.2,nan'"),
    (GOOD_TABLE[:3] + ["3,inf,0.2,13"] + GOOD_TABLE[4:], 4, "non-finite value in 'inf,0.2,13'"),
    # str.splitlines() breaks at \x0b; quoted, the message stays one line
    (GOOD_TABLE[:1] + ["1,1,1,nan\x0b"] + GOOD_TABLE[2:], 2, "non-finite value in '1,1,nan\\x0b'"),
]


class TestReportCli:
    @pytest.mark.parametrize("n_future", ["1", "2", "3"])
    def test_report_from_two_evaluations(self, tmp_path, series_csv, n_future):
        model_path = tmp_path / "m.tfl"
        assert main(train_args(series_csv, model_path, **{"n-future": n_future})) == 0
        eval_dir = tmp_path / "eval"
        assert main(["evaluate", "--model", str(model_path),
                     "--data", str(series_csv), "--out-dir", str(eval_dir)]) == 0
        metrics = eval_dir / "metrics_m_scaled.csv"
        out_dir = tmp_path / "report"
        assert main(["report", "--before", str(metrics), "--after", str(metrics),
                     "--out-dir", str(out_dir)]) == 0
        improvement = (out_dir / "improvement.csv").read_text().splitlines()
        assert improvement[0] == "step,delta_wape_pp"
        assert [line.partition(",")[0] for line in improvement[1:]] == \
            [str(k) for k in range(1, int(n_future) + 1)]
        assert all(line.endswith(",0") for line in improvement[1:])
        assert (out_dir / "summary.csv").read_text().splitlines() == \
            ["q1,q3,iqr,n_outliers", "0,0,0,0"]

    def test_deltas_whose_spread_overflows_are_one_line_data_error(self, tmp_path):
        # each table is valid; the deltas alternate +-1.7e308, and q3 - q1 overflows
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        for path, first in ((before, 1.7e308), (after, 0.0)):
            rows = (f"{k},1,1,{wape!r}" for k, wape in enumerate([first, 1.7e308 - first] * 3, 1))
            path.write_text("\n".join(["step,mae,rmse,wape", *rows, "average,1,1,8.5e307"]) + "\n")
        out_dir = tmp_path / "report"
        code, lines = run_in(tmp_path, ["report", "--before", str(before), "--after", str(after),
                                        "--out-dir", str(out_dir)])
        assert code == 2
        assert lines == ["data error: step WAPEs up to 1.7e+308 overflow the improvement summary"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("lines, line, problem", BAD_AFTER_TABLES)
    def test_malformed_table_is_one_line_data_error(self, tmp_path, capsys, lines, line, problem):
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        before.write_text("\n".join(GOOD_TABLE) + "\n")
        after.write_text("".join(f"{text}\n" for text in lines))
        out_dir = tmp_path / "report"
        assert main(["report", "--before", str(before), "--after", str(after),
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {after}: line {line}: {problem}"]
        assert not out_dir.exists()


class TestStartup:
    def test_cli_import_loads_no_pool_or_logging_modules(self):
        # every command pays for what importing tfl.cli loads, in RSS and start-up time
        code = ("import sys, tfl.cli; print(' '.join(m for m in "
                "('concurrent.futures', 'logging', 'queue', 'hashlib', '_hashlib') "
                "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=CHILD_ENV, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []


class TestExitCodes:
    def test_unknown_flag_is_usage(self):
        assert main(["synth", "--no-such-flag", "1"]) == 1

    @pytest.mark.parametrize("command, flags", [
        ("synth", "--out"),
        ("stats", "--data"),
        ("augment", "--data, --out-dir"),
        ("train", "--data, --out"),
        ("transfer", "--source-model, --data, --out"),
        ("evaluate", "--model, --data, --out-dir"),
        ("report", "--before, --after, --out-dir"),
    ])
    def test_missing_required_is_usage(self, capsys, command, flags):
        # the required options are named in the order of the command's option table
        assert main([command]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: missing required option(s): {flags}"]

    @pytest.mark.parametrize("argv, flag", [
        (["synth", "--out", "d\nx.csv", "--length", "300"], "--out"),
        (["synth", "--out", "d\rx.csv", "--length", "300"], "--out"),
        (["evaluate", "--model", "a.tfl,b\n.tfl", "--data", "x.csv", "--out-dir", "e"],
         "--model"),
    ])
    def test_line_break_in_a_value_is_usage(self, tmp_path, monkeypatch, capsys, argv, flag):
        # the config echo holds one key=value line per option, so such a run
        # could not be rerun from it
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {flag}: value holds a line break"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["synth", "--out", " a.csv", "--length", "300"], "--out"),
        (["synth", "--out", "a.csv\t", "--length", "300"], "--out"),
        (["evaluate", "--model", "a.tfl,b.tfl ", "--data", "x.csv", "--out-dir", "e"],
         "--model"),
    ])
    def test_edge_whitespace_in_a_value_is_usage(self, tmp_path, monkeypatch, capsys, argv, flag):
        # the config reader strips each value, so a rerun from the echo would
        # write ``a.csv`` rather than `` a.csv``
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {flag}: value starts or ends with whitespace"]
        assert list(tmp_path.iterdir()) == []

    def test_gap_fill_note_comes_only_with_success(self, tmp_path, capsys):
        # a 12-row grid with the row at 1500 s missing; then one value that
        # overflows the summary statistics after the load has filled the gap
        rows = ["timestamp,bps"] + [f"{300 * k},{1e8 + k}" for k in range(12) if k != 5]
        path = tmp_path / "gap.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["stats", "--data", str(path)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"note: {path}: filled 1 missing sample(s) by interpolation"]
        rows[-1] = "3300,1e308"
        path.write_text("\n".join(rows) + "\n")
        assert main(["stats", "--data", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: values up to 1e+308"), err

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["stats", "--data", str(tmp_path / "absent.csv")]) == 2

    def test_bad_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,bps\n0,10\n300,broken\n")
        assert main(["stats", "--data", str(bad)]) == 2

    def test_oversized_csv_field_is_one_line_naming_file_and_line(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("timestamp,bps\n0,10\n300," + "1" * 131073 + "\n")
        assert main(["stats", "--data", str(big)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {big}: line 3: field larger than field limit (131072)"]

    def test_csv_not_utf8_is_one_line_naming_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"timestamp,bps\n0,10\n300,\xff\n")
        assert main(["stats", "--data", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {bad}: not UTF-8: invalid start byte (byte 0xff)"]

    def test_config_not_utf8_is_one_line_naming_the_file(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"length=10\n\xff=1\n")
        out = tmp_path / "x.csv"
        assert main(["synth", "--config", str(conf), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: cannot read config file {conf}: "), err
        assert "can't decode byte 0xff" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--out", "{tmp}/x.csv", "--length", "10000000000"],
        ["train", "--data", "{data}", "--out", "{tmp}/m.tfl", "--hidden", "100000", "--epochs", "1"],
    ])
    def test_option_too_large_for_memory_is_one_line_data_error(self, tmp_path, series_csv, argv):
        # the child's address space is capped at 1 GiB, so the allocation
        # fails the same way on any host
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        argv = [a.format(tmp=tmp_path, data=series_csv) for a in argv]
        proc = run_cli(*argv, preexec_fn=cap_address_space)
        assert proc.returncode == 2, proc.stderr
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: out of memory: "), err

    @pytest.mark.parametrize("command, flags", [
        ("train", ["--delta", "1.0"]),
        ("transfer", ["--delta", "1.0"]),
        ("augment", ["--per-band"]),
        ("augment", ["--no-per-band"]),
        ("evaluate", ["--split", "0.8"]),
    ])
    def test_removed_flag_is_unknown(self, capsys, command, flags):
        assert main([command, *flags]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: unrecognized arguments: {' '.join(flags)}"]


def run_in(directory: Path, argv: list[str]) -> tuple[int, list[str]]:
    """``main(argv)`` in-process with ``directory`` as the working directory;
    returns the exit code and the stderr lines."""
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    text = err.getvalue()
    assert "Traceback" not in text, text
    return code, text.splitlines()


def assert_one_line_outcome(code: int, lines: list[str]) -> None:
    """A documented exit code; a success writes only gap-fill notes, a
    failure exactly one line."""
    assert code in (0, 1, 2, 3), lines
    if code == 0:
        assert all(line.startswith("note: ") for line in lines), lines
    else:
        assert len(lines) == 1, lines


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A 400-row series, a hidden-3 model trained on it and its echo file."""
    top = tmp_path_factory.mktemp("trained")
    data = top / "series.csv"
    assert main(["synth", "--out", str(data), "--length", "400", "--base-bps", "5e8",
                 "--daily-amp", "2e8", "--noise-std", "1e7", "--seed", "11"]) == 0
    model = top / "run" / "m.tfl"
    assert main(train_args(data, model, hidden="3", epochs="1")) == 0
    return data, model.read_bytes(), (top / "run" / "train_config.txt").read_text()


# each edit: (operation, position, bytes); positions wrap around the file
_BYTE_EDITS = st.lists(st.tuples(st.sampled_from(["overwrite", "truncate", "splice"]),
                                 st.integers(0, 1 << 16), st.binary(min_size=1, max_size=8)),
                       min_size=1, max_size=3)

# small numbers only, so that no mutant allocates much or trains for long
_CONFIG_VALUES = st.sampled_from(["", "0", "1", "2", "-1", "0.5", "1e-300", "1e38", "1e300",
                                  "-1e300", "nan", "inf", "-inf", "true", "false", "x", "0x10",
                                  "\u0663", "1e3", "="])


class TestFileMutations:
    """Mutants of a trained model file and of a train echo file, run
    in-process: each ends with a documented exit code and one stderr line at
    most.  In-process is safe: ``load_model`` bounds every allocation by the
    file's size, and the config values are small."""

    @given(_BYTE_EDITS)
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_evaluate_of_a_mutant_model_gives_one_line(self, tmp_path_factory, trained, edits):
        data, raw, _ = trained
        for op, at, blob in edits:
            at %= len(raw) + 1
            if op == "overwrite":
                raw = raw[:at] + blob + raw[at + len(blob):]
            elif op == "truncate":
                raw = raw[:at]
            else:
                raw = raw[:at] + blob + raw[at:]
        top = tmp_path_factory.getbasetemp()
        (top / "mutant.tfl").write_bytes(raw)
        assert_one_line_outcome(*run_in(top, ["evaluate", "--model", "mutant.tfl",
                                              "--data", str(data), "--out-dir", "eval"]))

    @given(st.integers(0, 63), _CONFIG_VALUES)
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_train_from_a_mutant_echo_gives_one_line(self, tmp_path_factory, trained, line, value):
        _, _, echo = trained
        lines = echo.splitlines()
        key = lines[line % len(lines)].partition("=")[0]
        lines[line % len(lines)] = f"{key}={value}"
        top = tmp_path_factory.getbasetemp() / "echo"
        top.mkdir(exist_ok=True)
        (top / "mutant.conf").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert_one_line_outcome(*run_in(top, ["train", "--config", "mutant.conf"]))


class TestNumericFailureLines:
    @pytest.mark.parametrize("lr", ["1e38", "1e300"])
    def test_diverging_run_is_one_line(self, tmp_path, series_csv, lr):
        out = tmp_path / "m.tfl"
        code, lines = run_in(tmp_path, ["train", "--data", str(series_csv), "--out", str(out),
                                        "--hidden", "3", "--epochs", "2", "--lr", lr])
        assert code == 3
        assert lines == ["numeric failure: non-finite values in forward predictions"]
        assert not out.exists()

    def test_weights_past_float32_after_the_last_step_are_not_saved(self, tmp_path):
        # one step of 64 windows: its update leaves float32's range, and no
        # forward follows it
        data, out = tmp_path / "s.csv", tmp_path / "m.tfl"
        assert main(["synth", "--out", str(data), "--length", "100", "--base-bps", "5e8",
                     "--daily-amp", "2e8", "--noise-std", "1e7", "--seed", "11"]) == 0
        code, lines = run_in(tmp_path, ["train", "--data", str(data), "--out", str(out),
                                        "--hidden", "3", "--epochs", "1", "--batch", "64",
                                        "--lr", "1e300"])
        assert code == 3
        assert lines == ["numeric failure: non-finite values in float32 weights after the last step"]
        assert not out.exists()


def _numbers(path: Path) -> list[float]:
    """Every number in a metrics, report or stats CSV, below its header."""
    rows = path.read_text().splitlines()[1:]
    return [float(cell) for row in rows for cell in row.split(",")
            if cell not in ("average", "undefined")]


@st.composite
def _mixed_magnitudes(draw) -> list[float]:
    """300 values m * 10^e, m in [1, 1.7], e within a band of decades drawn
    from -300 to 308: narrow bands reach the commands' success paths, wide
    ones and those up to 1.7e308 their overflow checks."""
    lo = draw(st.integers(-300, 308))
    hi = draw(st.one_of(st.just(308), st.integers(lo, 308)))
    decades = draw(st.lists(st.integers(lo, hi), min_size=300, max_size=300))
    return [draw(st.floats(1.0, 1.7)) * 10.0 ** e for e in decades]


class TestMagnitudeSweep:
    """Series whose values mix magnitudes from 1e-300 to float64's largest,
    run through every command in-process: each ends in exit 0 or a one-line
    data error, with no warning (the suite turns one into an error), and
    every table it writes holds finite numbers only."""

    @given(_mixed_magnitudes())
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_every_command_ends_in_0_or_one_data_error(self, tmp_path_factory, trained, values):
        top = tmp_path_factory.mktemp("sweep")
        data = str(top / "s.csv")
        write_csv(TimeSeries(values), data)
        (top / "src.tfl").write_bytes(trained[1])
        codes = {}

        def run(command, *argv):
            code, lines = run_in(top, [command, *argv])
            assert code in (0, 2), (command, lines)
            assert_one_line_outcome(code, lines)
            codes[command] = code

        run("stats", "--data", data, "--out", "stats.csv")
        run(*train_args(data, "m.tfl", hidden="3", epochs="1"))
        run("augment", "--data", data, "--out-dir", "aug", "--copies", "1")
        run("transfer", "--source-model", "src.tfl", "--data", data, "--out", "t.tfl",
            "--augment-copies", "1", "--phase1-epochs", "1", "--phase2-epochs", "1")
        run("evaluate", "--model", "src.tfl,m.tfl" if codes["train"] == 0 else "src.tfl",
            "--data", data, "--out-dir", "ev")
        if codes["evaluate"] == 0:
            run("report", "--before", "ev/metrics_src_scaled.csv",
                "--after", "ev/metrics_src_raw.csv", "--out-dir", "report")
        for path in [*top.glob("stats.csv"), *top.glob("ev/*.csv"), *top.glob("report/*.csv")]:
            assert np.all(np.isfinite(_numbers(path))), path
