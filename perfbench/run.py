"""Closed-loop benchmark of the ``tfl`` command line, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each command of a workload runs in a
fresh child process (``perfbench/child.py``) that imports ``tfl.cli`` from
``src/`` and calls ``main(argv)``; the next command starts only after that
child exits.  A pass is one run of the workload's commands; passes repeat
in the same directory, with the same relative paths, for S seconds.

Set-up (the workload's input CSVs and pre-trained models) is built from
scratch at least three times and for at least 1.5 s per run, each build
timed; the median is ``setup_s``.  Repeated builds must be byte-identical;
a failing set-up command ends the run with exit code 2 and no result.
With ``--trace 0`` the passes are untraced and the last line of standard
output carries the end-to-end metrics.  With ``--trace 1`` untraced and
traced passes alternate, and the last line carries the per-layer metrics
aggregated from the traced children's spans.  The line before it is a
report with the run's provenance, per-pass timings and any failed check.

End-to-end metrics are medians over a run's passes.  ``pass_s`` runs from
the first child's start to the last child's exit.  ``throughput_per_s`` is
the workload's units over the wall time of the commands that do them:
training windows x epochs over train and transfer (transfer-pipeline),
windows forecast by evaluate (bulk-forecast).  ``peak_rss_mb`` is the
largest per-child max RSS from ``os.wait4``.  ``wape_pct`` is the raw-unit
average WAPE of the adapted model (transfer-pipeline) or the mean of the
plain and attention models' (bulk-forecast).

``correct`` is true only when every command exited 0 without a traceback,
every output file repeated byte for byte across passes (traced or not),
every model reloaded and re-saved to the same bytes, every metrics table
parsed with finite values, the forecast window count matched the split
arithmetic, and every augmented copy kept the original's length with no
negative value.  Float bits are compared only within a run, never against
fixed values, so a deliberate numeric change does not fail the check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
BLAS_THREADS = "1"     # fixed and <= nproc, so BLAS never competes with itself
SETUP_REPEATS, SETUP_MIN_S = 3, 1.5   # build at least 3 times and for at least 1.5 s
CHILD_TIMEOUT_S = 120.0
N_PAST, N_FUTURE, SPLIT = 12, 6, 0.8   # the CLI defaults every workload uses


@dataclass
class Step:
    """One command, the paths (files or directories) it writes, and the
    throughput units it contributes."""

    argv: list[str]
    outputs: list[str]
    work: int = 0


@dataclass
class Workload:
    name: str
    setup: list            # Steps, or callables(setup_dir, rng) for benchmark-side edits
    steps: list[Step]
    checks: dict           # handed to verify.py
    forecast_windows: int = 0   # windows the pass's evaluate must forecast


def windows(length: int) -> int:
    return length - N_PAST - N_FUTURE + 1


def train_windows(length: int) -> int:
    return windows(math.floor(SPLIT * length))


def test_windows(length: int) -> int:
    return windows(length - math.floor(SPLIT * length))


def synth(out: str, length: int, seed: int, base: float, daily: float, noise: float) -> Step:
    return Step(["synth", "--out", out, "--length", str(length), "--base-bps", repr(base),
                 "--daily-amp", repr(daily), "--weekly-amp", repr(daily / 4),
                 "--noise-std", repr(noise), "--seed", str(seed)],
                [str(Path(out).parent)])


def drop_rows(src: str, dst: str, share: float):
    """Set-up edit: copy a CSV without a seeded ~share of its interior rows,
    so that ``load_csv``'s gap fill runs."""
    def edit(setup_dir: Path, rng: random.Random) -> None:
        lines = (setup_dir / src).read_text().splitlines(keepends=True)
        body = range(2, len(lines) - 1)  # keep the header and both end rows
        dropped = set(rng.sample(body, round(share * len(body))))
        (setup_dir / dst).write_text("".join(l for k, l in enumerate(lines) if k not in dropped))
    return edit


# Chosen so the dominant layer stays dominant (LSTM training, h100
# inference plus CSV ingest) while a run fits several passes.
SIZES = {
    "transfer-pipeline": {"source": 4000, "target": 2000, "hidden": 24, "epochs": 2, "copies": 3},
    "bulk-forecast": {"rows": 30000, "train": 1000, "hidden": 100},
}

# Per-layer metrics that a traced run of each workload must record as
# non-zero; a zero means a wrapper missed a binding, and the run is incorrect.
REQUIRED = {
    "transfer-pipeline": [
        "cli.startup_s", "cli.self_s", "dataset.load_csv.rows_per_s", "dataset.load_csv.busy_s",
        "dataset.write_csv.rows_per_s", "dataset.write_csv.busy_s", "dataset.synth.busy_s",
        "dataset.make_windows.busy_s", "dataset.concat_windows.busy_s",
        "wavelet.expand_dataset.samples_per_s", "wavelet.expand_dataset.busy_s",
        "wavelet.dwt.busy_s", "wavelet.idwt.busy_s", "wavelet.perturb.busy_s",
        "numeric.rng.values_per_s", "numeric.rng.busy_s",
        "numeric.sigmoid.calls", "numeric.sigmoid.busy_s",
        "network.forward_batch.h24-plain.ms_per_call", "network.backward_batch.h24-plain.ms_per_call",
        "network.init.busy_s", "training.adam_step.ms_per_call", "training.huber.ms_per_call",
        "training.train.steps", "training.train.self_s", "training.transfer.busy_s",
        "evaluation.per_step_table.busy_s", "evaluation.emit_report.busy_s",
        "evaluation.improvements.busy_s", "model_io.save_model.busy_s",
        "model_io.file_sha256.busy_s",
    ],
    "bulk-forecast": [
        "cli.startup_s", "cli.self_s", "dataset.load_csv.rows_per_s", "dataset.load_csv.busy_s",
        "dataset.load_csv.filled_rows", "setup.dataset.write_csv.busy_s",
        "numeric.sigmoid.calls", "numeric.sigmoid.busy_s",
        "setup.network.forward_batch.h100-plain.ms_per_call",
        "setup.network.forward_batch.h100-attn.ms_per_call",
        "setup.network.backward_batch.h100-plain.ms_per_call",
        "setup.network.backward_batch.h100-attn.ms_per_call",
        "network.predict_batch.h100-plain.windows_per_s",
        "network.predict_batch.h100-attn.windows_per_s",
        "evaluation.per_step_table.busy_s", "evaluation.emit_report.busy_s",
        "model_io.load_model.calls", "model_io.load_model.busy_s",
    ],
}


def build_workload(name: str, seed: int, sizes: dict) -> Workload:
    """The workload's commands.  ``seed`` picks the data (series noise, gap
    positions, augmentation draws); model seeds are fixed so that the test
    WAPE compares like with like across seeds."""
    draw = random.Random(seed)
    s1, s2, s3 = (draw.randrange(1, 2 ** 31) for _ in range(3))
    if name == "transfer-pipeline":
        src, tgt, hid, ep, cp = (sizes[k] for k in ("source", "target", "hidden", "epochs", "copies"))
        model = ["--n-past", str(N_PAST), "--n-future", str(N_FUTURE), "--hidden", str(hid)]
        steps = [
            synth("source/source.csv", src, s1, 5e8, 2e8, 2e7),
            synth("target/target.csv", tgt, s2, 3e8, 8e7, 1.5e7),
            Step(["train", "--data", "source/source.csv", "--out", "models/source.tfl",
                  "--out-dir", "run_src", *model, "--epochs", str(ep), "--seed", "42"],
                 ["models/source.tfl", "run_src"], train_windows(src) * ep),
            Step(["augment", "--data", "target/target.csv", "--out-dir", "aug",
                  "--copies", str(cp), "--seed", str(s3)], ["aug"]),
            Step(["transfer", "--source-model", "models/source.tfl", "--data", "target/target.csv",
                  "--out", "models/adapted.tfl", "--out-dir", "run_tl", "--augment-copies", str(cp),
                  "--phase1-epochs", "1", "--phase2-epochs", "1", "--seed", "11"],
                 ["models/adapted.tfl", "run_tl"], train_windows(tgt) * (1 + cp) * 2),
            Step(["train", "--data", "target/target.csv", "--out", "models/scratch.tfl",
                  "--out-dir", "run_scratch", *model, "--epochs", str(ep), "--seed", "11"],
                 ["models/scratch.tfl", "run_scratch"], train_windows(tgt) * ep),
            Step(["evaluate", "--model", "models/adapted.tfl,models/scratch.tfl",
                  "--data", "target/target.csv", "--out-dir", "eval"], ["eval"]),
            Step(["report", "--before", "eval/metrics_scratch_scaled.csv",
                  "--after", "eval/metrics_adapted_scaled.csv", "--out-dir", "report"], ["report"]),
        ]
        checks = {
            "models": ["models/source.tfl", "models/adapted.tfl", "models/scratch.tfl"],
            "metrics": [f"eval/metrics_{m}_{u}.csv" for m in ("adapted", "scratch")
                        for u in ("scaled", "raw")],
            "augment": [{"dir": "aug", "copies": cp, "length": tgt}],
            "wape": ["eval/metrics_adapted_raw.csv"],
        }
        return Workload(name, [], steps, checks, 2 * test_windows(tgt))
    if name == "bulk-forecast":
        rows, trn, hid = sizes["rows"], sizes["train"], sizes["hidden"]
        common = ["--data", "train.csv", "--hidden", str(hid), "--epochs", "1", "--seed", "5"]
        setup = [
            synth("full.csv", rows, s1, 5e8, 2e8, 2e7),
            drop_rows("full.csv", "bulk.csv", 0.01),
            synth("train.csv", trn, s2, 5e8, 2e8, 2e7),
            Step(["train", *common, "--out", "plain.tfl", "--out-dir", "run_plain"], []),
            Step(["train", *common, "--attention", "--out", "attn.tfl", "--out-dir", "run_attn"], []),
        ]
        steps = [Step(["evaluate", "--model", "../inputs/plain.tfl,../inputs/attn.tfl",
                       "--data", "../inputs/bulk.csv", "--out-dir", "eval"], ["eval"],
                      2 * test_windows(rows))]
        checks = {
            "models": ["../inputs/plain.tfl", "../inputs/attn.tfl"],
            "metrics": [f"eval/metrics_{m}_{u}.csv" for m in ("plain", "attn")
                        for u in ("scaled", "raw")],
            "augment": [],
            "wape": ["eval/metrics_plain_raw.csv", "eval/metrics_attn_raw.csv"],
        }
        return Workload(name, setup, steps, checks, 2 * test_windows(rows))
    raise ValueError(f"unknown workload {name!r} (have: {', '.join(SIZES)})")


# ---------------------------------------------------------------- children


@dataclass
class Child:
    """What one command did: wall time, exit code, peak RSS and its info."""

    started: float
    wall_s: float
    code: int
    rss_mb: float
    traceback: bool
    info: dict


def child_env() -> dict:
    """The caller's environment with the BLAS thread pin, ``src`` first on
    the path, no seed fallback, and bytecode caching on as for an installed
    package (set-up's first child compiles)."""
    env = dict(os.environ)
    for var in ("TFL_SEED", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list[str], cwd: Path, logs: Path, traced: bool, env: dict) -> Child:
    logs.mkdir(parents=True, exist_ok=True)
    info_path, out_path, err_path = logs / "info.json", logs / "stdout.txt", logs / "stderr.txt"
    info_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(info_path), "1" if traced else "0",
           "--", *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    text = out_path.read_bytes() + err_path.read_bytes()
    try:
        info = json.loads(info_path.read_text())
    except (OSError, ValueError):
        info = {}
    return Child(started, ended - started, code, usage.ru_maxrss / 1024.0,
                 b"Traceback (most recent call last)" in text, info)


def child_failure(child: Child) -> str | None:
    if child.code != 0:
        return f"exit code {child.code}"
    if child.traceback:
        return "printed a traceback"
    if "imported_at" not in child.info:
        return "wrote no info file"
    return None


# ---------------------------------------------------------------- set-up


def run_setup(wl: Workload, setup_dir: Path, logs: Path, seed: int, traced: bool,
              env: dict) -> tuple[float, list[Child]]:
    """Build the workload's inputs from scratch in ``setup_dir``; returns the
    wall time and the children.  An import-only child comes first, so the
    package is compiled and its start-up is part of set-up on every workload."""
    shutil.rmtree(setup_dir, ignore_errors=True)
    setup_dir.mkdir(parents=True)
    edits = random.Random(seed ^ 0x5EED)
    started = time.monotonic()
    children = [run_child([], setup_dir, logs, traced, env)]
    for item in wl.setup:
        if isinstance(item, Step):
            children.append(run_child(item.argv, setup_dir, logs, traced, env))
            problem = child_failure(children[-1])
            if problem:
                raise RuntimeError(f"set-up command {' '.join(item.argv)}: {problem}; "
                                   f"see {logs}")
        else:
            item(setup_dir, edits)
    return time.monotonic() - started, children


def tree_digest(top: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(top.rglob("*")):
        if path.is_file():
            digests[path.relative_to(top).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


# ---------------------------------------------------------------- passes


@dataclass
class Pass:
    traced: bool
    wall_s: float
    children: list[Child]
    digests: dict[str, str]


def run_pass(wl: Workload, pass_dir: Path, logs: Path, traced: bool, env: dict) -> Pass:
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    children = [run_child(step.argv, pass_dir, logs, traced, env) for step in wl.steps]
    wall = children[-1].started + children[-1].wall_s - children[0].started
    return Pass(traced, wall, children, tree_digest(pass_dir))


def owner(wl: Workload, relpath: str) -> int:
    """Index of the step that wrote ``relpath`` (the last one claiming it)."""
    for k in range(len(wl.steps) - 1, -1, -1):
        for out in wl.steps[k].outputs:
            if relpath == out or relpath.startswith(out.rstrip("/") + "/"):
                return k
    return len(wl.steps) - 1


def verify_reference(wl: Workload, pass_dir: Path, logs: Path, env: dict) -> dict:
    """Run verify.py on the reference pass; returns its result dict."""
    spec = logs / "verify_spec.json"
    result = logs / "verify_result.json"
    logs.mkdir(parents=True, exist_ok=True)
    spec.write_text(json.dumps(wl.checks))
    result.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, str(BENCH / "verify.py"), str(spec), str(result)],
                          cwd=pass_dir, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result.exists():
        return {"failures": {"": f"verify.py exited {proc.returncode}: "
                             f"{proc.stderr.decode(errors='replace')[-400:]}"}}
    return json.loads(result.read_text())


def step_failures(wl: Workload, p: Pass, reference: Pass, verified: dict) -> dict[int, str]:
    """Map step index -> first problem found for that step in pass ``p``."""
    problems: dict[int, str] = {}
    for k, child in enumerate(p.children):
        problem = child_failure(child)
        if problem:
            problems[k] = problem
    for path in sorted(set(p.digests) | set(reference.digests)):
        if p.digests.get(path) != reference.digests.get(path):
            problems.setdefault(owner(wl, path), f"{path} differs from the reference pass")
    for path, problem in verified.get("failures", {}).items():
        problems.setdefault(owner(wl, path), f"{path}: {problem}")
    if wl.forecast_windows:
        forecast = sum(c.info.get("forecast_windows", 0) for c in p.children)
        if forecast != wl.forecast_windows:
            k = next((i for i, s in enumerate(wl.steps) if s.argv[0] == "evaluate"), 0)
            problems.setdefault(k, f"forecast {forecast} windows, split arithmetic "
                                   f"gives {wl.forecast_windows}")
    return problems


# ---------------------------------------------------------------- metrics


def merged_spans(children: list[Child]) -> dict[str, dict[str, float]]:
    merged: dict[str, dict[str, float]] = {}
    for child in children:
        for name, entry in child.info.get("spans", {}).items():
            into = merged.setdefault(name, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0) + value
    return merged


def _get(spans: dict, name: str, key: str) -> float:
    return spans.get(name, {}).get(key, 0)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def _ms_per_call(spans: dict, name: str) -> float:
    calls = _get(spans, name, "calls")
    return 1000.0 * _get(spans, name, "total_s") / calls if calls else 0.0


def layer_metrics(p: Pass) -> dict[str, float]:
    s = merged_spans(p.children)
    busy = lambda name: _get(s, name, "total_s")  # noqa: E731
    rng_names = [n for n in s if n.startswith("numeric.Rng.")]
    rng_busy = sum(busy(n) for n in rng_names)
    m = {
        "cli.startup_s": sum(c.info["imported_at"] - c.started for c in p.children),
        "cli.self_s": _get(s, "cli.main", "self_s"),
        "dataset.load_csv.rows_per_s": _rate(_get(s, "dataset.load_csv", "rows"), busy("dataset.load_csv")),
        "dataset.load_csv.busy_s": busy("dataset.load_csv"),
        "dataset.load_csv.filled_rows": _get(s, "dataset.load_csv", "filled"),
        "dataset.write_csv.rows_per_s": _rate(_get(s, "dataset.write_csv", "rows"), busy("dataset.write_csv")),
        "dataset.write_csv.busy_s": busy("dataset.write_csv"),
        "dataset.synth.busy_s": busy("dataset.synth"),
        "dataset.make_windows.busy_s": busy("dataset.make_windows"),
        "dataset.concat_windows.busy_s": busy("dataset.concat_windows"),
        "wavelet.expand_dataset.samples_per_s": _rate(_get(s, "wavelet.expand_dataset", "samples"),
                                                      busy("wavelet.expand_dataset")),
        "wavelet.expand_dataset.busy_s": busy("wavelet.expand_dataset"),
        "wavelet.dwt.busy_s": busy("wavelet.dwt"),
        "wavelet.idwt.busy_s": busy("wavelet.idwt"),
        "wavelet.perturb.busy_s": busy("wavelet.perturb"),
        "numeric.rng.values_per_s": _rate(sum(_get(s, n, "values") for n in rng_names), rng_busy),
        "numeric.rng.busy_s": rng_busy,
        "numeric.sigmoid.calls": _get(s, "numeric.sigmoid", "calls"),
        "numeric.sigmoid.busy_s": busy("numeric.sigmoid"),
        "network.forward_batch.h24-plain.ms_per_call": _ms_per_call(s, "network.forward_batch.h24-plain"),
        "network.backward_batch.h24-plain.ms_per_call": _ms_per_call(s, "network.backward_batch.h24-plain"),
        "network.init.busy_s": busy("network.init"),
        "training.adam_step.ms_per_call": _ms_per_call(s, "training.adam_step"),
        "training.huber.ms_per_call": _ms_per_call(s, "training.huber"),
        "training.train.steps": _get(s, "training.adam_step", "calls"),
        "training.train.self_s": _get(s, "training.train", "self_s"),
        "training.transfer.busy_s": busy("training.transfer"),
        "evaluation.per_step_table.busy_s": busy("evaluation.per_step_table"),
        "evaluation.emit_report.busy_s": busy("evaluation.emit_report"),
        "evaluation.improvements.busy_s": busy("evaluation.improvements"),
        "model_io.load_model.calls": _get(s, "model_io.load_model", "calls"),
        "model_io.load_model.busy_s": busy("model_io.load_model"),
        "model_io.save_model.busy_s": busy("model_io.save_model"),
        "model_io.file_sha256.busy_s": busy("model_io.file_sha256"),
    }
    for variant in ("h100-plain", "h100-attn"):
        name = f"network.predict_batch.{variant}"
        m[f"{name}.windows_per_s"] = _rate(_get(s, name, "windows"), busy(name))
    return m


def setup_layer_metrics(children: list[Child]) -> dict[str, float]:
    s = merged_spans(children)
    m = {"setup.dataset.write_csv.busy_s": _get(s, "dataset.write_csv", "total_s")}
    for fn in ("forward_batch", "backward_batch"):
        for variant in ("h100-plain", "h100-attn"):
            name = f"network.{fn}.{variant}"
            m[f"setup.{name}.ms_per_call"] = _ms_per_call(s, name)
    return m


UNITS = (  # suffix -> unit, first match wins
    ("rows_per_s", "rows/s"), ("samples_per_s", "samples/s"), ("values_per_s", "values/s"),
    ("windows_per_s", "windows/s"), ("throughput_per_s", "items/s"), ("ms_per_call", "ms"),
    ("_mb", "MB"), ("_pct", "%"), ("calls", "count"), ("steps", "count"),
    ("filled_rows", "count"), ("_s", "s"),
)


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in UNITS if name.endswith(suffix))


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


# ---------------------------------------------------------------- provenance


def provenance(seed: int, rewrites: set, versions: dict) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        **versions,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
        "hook_rewrites": sorted(rewrites),
    }


# ---------------------------------------------------------------- one run


def benchmark(wl: Workload, seed: int, seconds: float, trace: bool,
              fault=None, work: Path | None = None) -> dict:
    """Run one workload and return the report; the result line is
    ``report["result"]``.  ``fault(pass_index, pass_dir)`` may damage a
    pass's outputs before they are checked (self-test only)."""
    if not (ROOT / "src" / "tfl" / "cli.py").is_file():
        raise RuntimeError(f"no tfl sources under {ROOT / 'src'}")
    work = work or ROOT / ".perfbench_work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    env = child_env()
    logs = work / "logs"
    try:
        setup_times, setup_children = [], []
        while not setup_times or not trace and (len(setup_times) < SETUP_REPEATS
                                                or sum(setup_times) < SETUP_MIN_S):
            k = len(setup_times)
            wall, children = run_setup(wl, work / f"setup-{k}", logs, seed, trace, env)
            setup_times.append(wall)
            setup_children.append(children)
        first = tree_digest(work / "setup-0")
        for k in range(1, len(setup_times)):
            if tree_digest(work / f"setup-{k}") != first:
                raise RuntimeError("set-up is not deterministic: repeated builds differ")
        (work / "setup-0").rename(work / "inputs")

        pass_dir = work / "pass"
        passes: list[Pass] = []
        measured = 0.0
        while True:
            p = run_pass(wl, pass_dir, logs, trace and len(passes) % 2 == 1, env)
            if fault is not None:
                fault(len(passes), pass_dir)
                p.digests = tree_digest(pass_dir)
            if not passes:
                verified = verify_reference(wl, pass_dir, logs, env)
            passes.append(p)
            measured += p.wall_s
            longest = max(q.wall_s for q in passes[-2:])
            if (len(passes) >= 2 or not trace) and measured + longest > seconds:
                break
        reference = passes[0]
        failed_steps = [step_failures(wl, p, reference, verified) for p in passes]
    finally:
        for path in work.iterdir() if work.exists() else ():
            if path != logs:
                shutil.rmtree(path, ignore_errors=True)

    attempted = sum(len(p.children) for p in passes)
    failed = sum(len(f) for f in failed_steps)
    errors = [f"pass {i}: step {k} ({' '.join(wl.steps[k].argv[:1])}): {msg}"
              for i, f in enumerate(failed_steps) for k, msg in sorted(f.items())]
    untraced = [p for p in passes if not p.traced]
    pass_times = [p.wall_s for p in untraced]
    rewrites = {r for p in passes for c in p.children for r in c.info.get("rewrites", [])}

    if trace:
        traced_passes = [p for p in passes if p.traced]
        metrics = median_of([layer_metrics(p) for p in traced_passes])
        metrics.update(setup_layer_metrics(setup_children[0]))
        traced_s = statistics.median(p.wall_s for p in traced_passes)
        untraced_s = statistics.median(pass_times)
        metrics["bench.trace_overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
        missing = [name for name in REQUIRED[wl.name] if not metrics.get(name)]
        errors.extend(f"per-layer metric {name} recorded no span" for name in missing)
    else:
        rows = []
        for p in untraced:
            units = sum(s.work for s in wl.steps)
            busy = sum(c.wall_s for c, s in zip(p.children, wl.steps) if s.work)
            rows.append({"pass_s": p.wall_s,
                         "throughput_per_s": _rate(units, busy),
                         "peak_rss_mb": max(c.rss_mb for c in p.children)})
        metrics = {"setup_s": statistics.median(setup_times), **median_of(rows),
                   "wape_pct": verified.get("wape_pct") or float("nan")}
    correct = failed == 0 and not errors and all(math.isfinite(v) for v in metrics.values())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    return {
        "workload": wl.name,
        "provenance": provenance(seed, rewrites, verified.get("versions", {})),
        "setup_s": setup_times,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                    "commands_s": [c.wall_s for c in p.children]} for p in passes],
        "pass_n": len(pass_times),
        "pass_max_s": max(pass_times),
        "errors": errors,
        "result": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        wl = build_workload(args.workload, args.seed, SIZES[args.workload])
        report = benchmark(wl, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = report.pop("result")
    for line in report["errors"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
