"""Command-line pipeline: synth / stats / augment / train / transfer /
evaluate / report.

Every option can come from a key=value config file (``--config``); explicit
flags override the file, which overrides built-in defaults.  The fully
resolved configuration is echoed into the output directory so any run can
be reproduced with ``--config <echo file>``.

``train`` and ``transfer`` share one run path: window the chronological
train side of ``--data`` (scaled by a fit on that side alone), train, save
the model, and write the history and config echo into the run directory.
``evaluate`` scores each model on the chronological test side of the
split recorded in its own file.

Exit codes: 0 ok, 1 usage or config contradiction, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import evaluation as ev
from . import model_io, network, training, wavelet
from .errors import DataError, NumericError, UsageError
from .numeric import Rng

_FMT = "%.15g"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class Opt:
    name: str           # underscore form; the CLI flag is --name-with-dashes
    typ: object         # str -> value parser
    default: object
    help: str = ""


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _paths(text: str) -> list[str]:
    return [p for p in text.split(",") if p]


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


def load_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise UsageError(f"{path}: line {lineno}: expected key=value")
                if key in values:
                    raise UsageError(f"{path}: line {lineno}: repeated key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    return values


def write_config_echo(cfg: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"{key}={_fmt_value(value)}"
        for key, value in sorted(cfg.items())
        if value is not None
    ]
    path.write_text("\n".join(lines) + "\n")


def _resolve(args: argparse.Namespace, opts: list[Opt]) -> dict:
    file_values = load_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - {opt.name for opt in opts})
    if unknown:
        raise UsageError(f"{args.config}: unknown config key(s): {', '.join(map(repr, unknown))}")
    resolved = {}
    for opt in opts:
        flag_value = getattr(args, opt.name)
        if flag_value is not None:
            resolved[opt.name] = flag_value
        elif opt.name in file_values:
            try:
                resolved[opt.name] = opt.typ(file_values[opt.name])
            except ValueError as exc:
                raise UsageError(f"{args.config}: {opt.name}: {exc}") from None
        else:
            resolved[opt.name] = opt.default
    return resolved


def _register(sub: argparse.ArgumentParser, opts: list[Opt]) -> None:
    sub.add_argument("--config", help="key=value config file; flags override it")
    for opt in opts:
        flag = "--" + opt.name.replace("_", "-")
        if opt.typ is _bool:
            sub.add_argument(flag, action=argparse.BooleanOptionalAction,
                             default=None, help=opt.help)
        else:
            sub.add_argument(flag, type=opt.typ, default=None, help=opt.help)


def _require(cfg: dict, *names: str) -> None:
    missing = [n for n in names if cfg.get(n) is None]
    if missing:
        raise UsageError("missing required option(s): " + ", ".join(
            "--" + n.replace("_", "-") for n in missing))


_MODEL_OPTS = [
    Opt("n_past", int, 12, "input window length"),
    Opt("n_future", int, 6, "forecast horizon"),
    Opt("hidden", int, 100, "LSTM hidden units"),
    Opt("attention", _bool, False, "use the attention decoder"),
]

_TRAIN_COMMON = [
    Opt("batch", int, 32, "minibatch size"),
    Opt("seed", int, 42, "run seed"),
    Opt("split", float, 0.8, "chronological train fraction"),
]

SYNTH_OPTS = [
    Opt("out", str, None, "output CSV path"),
    Opt("length", int, 20000, "number of 5-minute samples"),
    Opt("base_bps", float, 5e8, "traffic level"),
    Opt("daily_amp", float, 2e8, "daily sinusoid amplitude"),
    Opt("weekly_amp", float, 0.0, "weekly sinusoid amplitude"),
    Opt("trend_per_day", float, 0.0, "linear trend per day"),
    Opt("noise_std", float, 2e7, "Gaussian noise level"),
    Opt("seed", int, 42, "generator seed"),
]

STATS_OPTS = [
    Opt("data", str, None, "input CSV"),
    Opt("out", str, None, "optional stats CSV"),
]

_WAVELET_OPTS = [
    Opt("wavelet", str, "db4", "filter: haar or db4"),
    Opt("levels", int, 3, "decomposition depth"),
    Opt("factor_lo", float, 0.5, "low end of the perturbation range"),
    Opt("factor_hi", float, 1.5, "high end of the perturbation range"),
]

AUGMENT_OPTS = [
    Opt("data", str, None, "input CSV"),
    Opt("out_dir", str, None, "directory for augmented copies"),
    Opt("copies", int, 3, "number of perturbed variants"),
    *_WAVELET_OPTS,
    Opt("seed", int, 42, "perturbation seed"),
]

TRAIN_OPTS = _MODEL_OPTS + _TRAIN_COMMON + [
    Opt("data", str, None, "training CSV"),
    Opt("out", str, None, "model file to write"),
    Opt("out_dir", str, None, "artifact directory (default: model's directory)"),
    Opt("epochs", int, 100, "training epochs"),
    Opt("lr", float, 0.001, "Adam learning rate"),
]

TRANSFER_OPTS = _TRAIN_COMMON + _WAVELET_OPTS + [
    Opt("source_model", str, None, "trained source-domain model file"),
    Opt("data", str, None, "target-domain CSV"),
    Opt("out", str, None, "adapted model file to write"),
    Opt("out_dir", str, None, "artifact directory (default: model's directory)"),
    Opt("phase1_lr", float, training.DEFAULT_PHASE1_LR, "frozen-body phase rate"),
    Opt("phase1_epochs", int, 50, "frozen-body phase epochs"),
    Opt("phase2_lr", float, training.DEFAULT_PHASE2_LR, "fine-tune phase rate"),
    Opt("phase2_epochs", int, 50, "fine-tune phase epochs"),
    Opt("augment_copies", int, 0, "expand the target training series with N wavelet variants"),
]

EVALUATE_OPTS = [
    Opt("model", _paths, None, "model file(s), comma-separated for several"),
    Opt("data", str, None, "evaluation CSV"),
    Opt("out_dir", str, None, "directory for metric tables"),
]

REPORT_OPTS = [
    Opt("before", str, None, "metrics CSV before the change"),
    Opt("after", str, None, "metrics CSV after the change"),
    Opt("out_dir", str, None, "directory for improvement/summary tables"),
]


def _load_series(path) -> ds.TimeSeries:
    series, gaps = ds.load_csv(path)
    if gaps:
        print(f"note: {path}: filled {gaps} missing sample(s) by interpolation",
              file=sys.stderr)
    return series


def _windows_for(values, scaler, mc: network.ModelConfig) -> ds.WindowedDataset:
    return ds.make_windows(ds.scale(values, scaler), mc.n_past, mc.n_future)


def cmd_synth(cfg: dict) -> int:
    _require(cfg, "out")
    profile = ds.SynthProfile(
        base_bps=cfg["base_bps"], daily_amp=cfg["daily_amp"],
        weekly_amp=cfg["weekly_amp"], trend_per_day=cfg["trend_per_day"],
        noise_std=cfg["noise_std"], seed=cfg["seed"],
    )
    series = ds.synth(profile, cfg["length"])
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    ds.write_csv(series, out)
    write_config_echo(cfg, out.parent / "synth_config.txt")
    print(f"wrote {len(series)} samples to {out}")
    return 0


def cmd_stats(cfg: dict) -> int:
    _require(cfg, "data")
    series = _load_series(cfg["data"])
    stats = ds.summary_stats(series)
    skew = "undefined" if stats.skewness is None else _FMT % stats.skewness
    print(f"points={len(series)}")
    print(f"mean={_FMT % stats.mean}")
    print(f"std={_FMT % stats.std}")
    print(f"var={_FMT % stats.var}")
    print(f"skewness={skew}")
    if cfg["out"]:
        out = Path(cfg["out"])
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            fh.write("mean,std,var,skewness\n")
            fh.write(f"{_FMT % stats.mean},{_FMT % stats.std},"
                     f"{_FMT % stats.var},{skew}\n")
        write_config_echo(cfg, out.parent / "stats_config.txt")
    return 0


def _augment_config(cfg: dict) -> wavelet.AugmentConfig:
    return wavelet.AugmentConfig(
        filter=wavelet.get_filter(cfg["wavelet"]),
        levels=cfg["levels"],
        factor_range=(cfg["factor_lo"], cfg["factor_hi"]),
        seed=cfg["seed"],
    )


def cmd_augment(cfg: dict) -> int:
    _require(cfg, "data", "out_dir")
    series = _load_series(cfg["data"])
    corpus = wavelet.expand_dataset(series, _augment_config(cfg), cfg["copies"])
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    provenance = []
    for k, entry in enumerate(corpus):
        name = "original.csv" if k == 0 else f"augmented_{k:03d}.csv"
        ds.write_csv(entry.series, out_dir / name)
        provenance.append({"file": name, **entry.provenance})
    (out_dir / "provenance.json").write_text(json.dumps(provenance, indent=2, sort_keys=True) + "\n")
    write_config_echo(cfg, out_dir / "augment_config.txt")
    print(f"wrote {len(corpus)} series to {out_dir}")
    return 0


def _training_windows(cfg: dict, mc: network.ModelConfig) -> tuple[ds.ScalerParams, ds.WindowedDataset]:
    """The scaler fitted on the chronological train side of ``--data``, and
    the windows of that side plus those of its ``augment_copies`` wavelet
    variants, if any."""
    copies = cfg.get("augment_copies", 0)
    if copies < 0:
        raise ValueError(f"augment_copies must be >= 0, got {copies}")
    series = _load_series(cfg["data"])
    train_series, _ = ds.split(series, cfg["split"], min_points=mc.n_past + mc.n_future)
    scaler = ds.fit_scaler(train_series.values)
    if copies == 0:
        return scaler, _windows_for(train_series.values, scaler, mc)
    corpus = wavelet.expand_dataset(train_series, _augment_config(cfg), copies)
    return scaler, ds.concat_windows([_windows_for(e.series.values, scaler, mc) for e in corpus])


def _write_run(cfg: dict, command: str, history_name: str, model: network.Seq2SeqModel,
               scaler: ds.ScalerParams, provenance: dict, logs: list[training.PhaseLog]) -> Path:
    """Save the model with its provenance (plus seed, split and data hash),
    then write the per-epoch history and the config echo into the run
    directory (``--out-dir``, else the model's).  Returns the model path."""
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    provenance.update(seed=cfg["seed"], split=cfg["split"],
                      data_sha256=model_io.file_sha256(cfg["data"]))
    model_io.save_model(model, scaler, provenance, out)
    out_dir = Path(cfg["out_dir"]) if cfg["out_dir"] else out.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / history_name, "w") as fh:
        fh.write("phase,epoch,lr,loss\n")
        for log in logs:
            for epoch, loss in enumerate(log.history, start=1):
                fh.write(f"{log.name},{epoch},{repr(log.lr)},{_FMT % loss}\n")
    write_config_echo(cfg, out_dir / f"{command}_config.txt")
    return out


def cmd_train(cfg: dict) -> int:
    _require(cfg, "data", "out")
    mc = network.ModelConfig(n_past=cfg["n_past"], n_future=cfg["n_future"],
                             hidden=cfg["hidden"], attention=cfg["attention"])
    scaler, windows = _training_windows(cfg, mc)
    model = network.init(mc, Rng(cfg["seed"]))
    tc = training.TrainConfig(epochs=cfg["epochs"], batch=cfg["batch"],
                              lr=cfg["lr"], seed=cfg["seed"])
    model, history = training.train(model, windows, tc)
    provenance = {"epochs": cfg["epochs"], "lr": cfg["lr"], "batch": cfg["batch"],
                  "parent_sha256": None}
    out = _write_run(cfg, "train", "loss_history.csv", model, scaler, provenance,
                     [training.PhaseLog("train", cfg["lr"], history)])
    print(f"trained {cfg['epochs']} epochs; final loss {history[-1]:.6g}; model at {out}")
    return 0


def cmd_transfer(cfg: dict) -> int:
    _require(cfg, "source_model", "data", "out")
    source, _, _ = model_io.load_model(cfg["source_model"])
    scaler, windows = _training_windows(cfg, source.config)
    phases = [(cfg["phase1_epochs"], cfg["phase1_lr"]), (cfg["phase2_epochs"], cfg["phase2_lr"])]
    model, logs = training.transfer(source, windows, phases, cfg["batch"], cfg["seed"])
    provenance = {
        "epochs": cfg["phase1_epochs"] + cfg["phase2_epochs"],
        "phase_lrs": [log.lr for log in logs],
        "augment_copies": cfg["augment_copies"],
        "parent_sha256": model_io.file_sha256(cfg["source_model"]),
    }
    out = _write_run(cfg, "transfer", "transfer_history.csv", model, scaler, provenance, logs)
    print(f"adapted model at {out} "
          f"(phases: {', '.join(f'{log.name}@{log.lr}' for log in logs)})")
    return 0


def _evaluate_one(model_path: str, series: ds.TimeSeries) -> dict[str, ev.MetricsTable]:
    """Scaled and raw-unit tables of one model on the test side of the split
    its own file records, scaled by the scaler it was trained with."""
    model, scaler, provenance = model_io.load_model(model_path)
    if scaler is None:
        raise DataError(f"{model_path}: model file carries no scaler; cannot evaluate")
    split_ratio = provenance.get("split")
    if type(split_ratio) is not float:
        raise DataError(f"{model_path}: model file records no float split; cannot evaluate")
    mc = model.config
    _, test_series = ds.split(series, split_ratio, min_points=mc.n_past + mc.n_future)
    test_windows = _windows_for(test_series.values, scaler, mc)
    preds_scaled = network.predict_batch(model, test_windows.inputs)
    stem = Path(model_path).stem
    return {
        f"metrics_{stem}_scaled": ev.per_step_table(preds_scaled, test_windows.targets),
        f"metrics_{stem}_raw": ev.per_step_table(
            ds.inverse_scale(preds_scaled, scaler),
            ds.inverse_scale(test_windows.targets, scaler),
        ),
    }


def cmd_evaluate(cfg: dict) -> int:
    _require(cfg, "model", "data", "out_dir")
    if not cfg["model"]:
        raise UsageError("--model names no model file")
    stems = [Path(path).stem for path in cfg["model"]]
    shared = sorted({stem for stem in stems if stems.count(stem) > 1})
    if shared:
        raise UsageError(f"--model: several files share the stem {', '.join(shared)}; "
                         f"their metric tables would overwrite each other")
    series = _load_series(cfg["data"])
    tables: dict[str, ev.MetricsTable] = {}
    for path in cfg["model"]:
        tables.update(_evaluate_one(path, series))
    out_dir = Path(cfg["out_dir"])
    ev.emit_report(tables, out_dir)
    write_config_echo(cfg, out_dir / "evaluate_config.txt")
    for name, table in sorted(tables.items()):
        if name.endswith("_scaled"):
            print(f"{name}: average WAPE {table.average.wape:.4f}%")
    return 0


def cmd_report(cfg: dict) -> int:
    _require(cfg, "before", "after", "out_dir")
    before = ev.parse_metrics_csv(cfg["before"])
    after = ev.parse_metrics_csv(cfg["after"])
    stats = ev.improvements(before, after)
    out_dir = Path(cfg["out_dir"])
    ev.write_improvements(stats, out_dir)
    write_config_echo(cfg, out_dir / "report_config.txt")
    print(f"average WAPE improvement {np.mean(stats.deltas):.4f} pp; "
          f"IQR {stats.iqr:.4f}; outliers {len(stats.outliers)}")
    return 0


_COMMANDS = {
    "synth": (SYNTH_OPTS, cmd_synth, "generate a synthetic traffic CSV"),
    "stats": (STATS_OPTS, cmd_stats, "summary statistics of a series"),
    "augment": (AUGMENT_OPTS, cmd_augment, "expand a series with wavelet-perturbed copies"),
    "train": (TRAIN_OPTS, cmd_train, "train a forecaster from scratch"),
    "transfer": (TRANSFER_OPTS, cmd_transfer, "adapt a trained model to new data"),
    "evaluate": (EVALUATE_OPTS, cmd_evaluate, "per-step metric tables on held-out data"),
    "report": (REPORT_OPTS, cmd_report, "improvement deltas and IQR/outlier summary"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="tfl", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (opts, _, help_text) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        _register(sub, opts)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        opts, handler, _ = _COMMANDS[args.command]
        cfg = _resolve(args, opts)
        return handler(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
