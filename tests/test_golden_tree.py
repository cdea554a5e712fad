"""A fixed, small CLI pipeline whose every output byte is pinned.

The pipeline runs ``tfl.cli.main`` in-process in a fresh directory: two
synths, a plain and an attention train, augment, a transfer with wavelet
augmentation, a scratch train, stats, one evaluate of four models over 343
test windows each (forecast chunks of 256 and 87), report, a run with a
required flag missing and a rerun from an echo file; then both trained
models transferred to a 240-row target in batches of 16 and evaluated, and
an n_past 12 / n_future 6 plain and attention pair evaluated over 323
windows (chunks of 256 and 67); last, at the benchmark's widths, a
hidden 24 plain model trained and transferred with wavelet augmentation, and
a hidden 100 attention model trained and evaluated over the same 323
windows.  The SHA-256 of every file it leaves, and each command's exit code, stdout and stderr, must equal
``golden_tree.json``; a mismatch names what moved.

The pipeline runs in a child process whose BLAS runs one thread
(``PINNED_ENV``): OpenBLAS splits the backward pass's weight-gradient GEMMs
(inner dimension steps x batch) by thread once the batch holds a few dozen
windows.  In float32 at hidden 24 and 100, every batch of 38-79 windows
that is not a multiple of 8 trains to other bits under 1 and 2 threads, and
so do batches of 127, 200 and 259; in float64 at hidden 100 every batch
from 26 windows does, multiples of 8 included.  The hidden 24 transfer's
last batch holds 38 windows.

A change that moves these bits on purpose rewrites the JSON with

    python tests/test_golden_tree.py --regen

which prints what moved against the old JSON before it overwrites it; the
change says in CHANGES.md which files moved and why.  Every digest depends
on the GEMM kernel, which a ``DYNAMIC_ARCH`` OpenBLAS picks by the CPU at
run time, so the regen also records the BLAS the child ran on (``blas()``,
its thread count included).  A failure on a machine whose BLAS differs from
the recorded one says so before it names what moved; it fails all the same.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden_tree.json")

# the pipeline's BLAS runs one thread, as the benchmark's commands do: at two,
# the backward pass's weight gradients change bits for ragged batches from 38
# windows and for some whole-slab ones (200 at hidden 24 and 100)
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

_BODY = ["--hidden", "6", "--batch", "32", "--seed", "7"]
_MODEL = ["--n-past", "8", "--n-future", "3", *_BODY]

# target.csv has 1765 rows: split 0.8 leaves a 353-row test side, 343 windows
PIPELINE = [
    ["synth", "--out", "source/source.csv", "--length", "400", "--base-bps", "5e8",
     "--daily-amp", "2e8", "--noise-std", "1e7", "--seed", "11"],
    ["synth", "--out", "target/target.csv", "--length", "1765", "--base-bps", "3e8",
     "--daily-amp", "1e8", "--weekly-amp", "5e7", "--noise-std", "1e7", "--seed", "21"],
    ["train", "--data", "source/source.csv", "--out", "runs/plain/plain.tfl",
     "--epochs", "1", "--no-attention", *_MODEL],
    ["train", "--data", "source/source.csv", "--out", "runs/attn/attn.tfl",
     "--epochs", "1", "--attention", *_MODEL],
    ["augment", "--data", "source/source.csv", "--out-dir", "aug", "--copies", "2",
     "--levels", "2", "--seed", "5"],
    ["transfer", "--source-model", "runs/plain/plain.tfl", "--data", "target/target.csv",
     "--out", "runs/adapted/adapted.tfl", "--phase1-epochs", "1", "--phase2-epochs", "1",
     "--augment-copies", "1", "--levels", "2", "--batch", "64", "--seed", "5"],
    ["train", "--data", "target/target.csv", "--out", "runs/scratch/scratch.tfl",
     "--epochs", "1", "--no-attention", *_MODEL],
    ["stats", "--data", "target/target.csv", "--out", "stats/stats.csv"],
    ["evaluate", "--model",
     "runs/plain/plain.tfl,runs/attn/attn.tfl,runs/adapted/adapted.tfl,runs/scratch/scratch.tfl",
     "--data", "target/target.csv", "--out-dir", "eval"],
    ["report", "--before", "eval/metrics_scratch_scaled.csv",
     "--after", "eval/metrics_adapted_scaled.csv", "--out-dir", "report"],
    ["train", "--data", "target/target.csv"],
    ["augment", "--config", "aug/augment_config.txt", "--out-dir", "rerun"],
    # a 240-row target: both source models transferred in batches of 16
    ["synth", "--out", "small/target.csv", "--length", "240", "--base-bps", "3e8",
     "--daily-amp", "1e8", "--noise-std", "1e7", "--seed", "21"],
    *[["transfer", "--source-model", f"runs/{kind}/{kind}.tfl", "--data", "small/target.csv",
       "--out", f"small/{kind}/adapted_{kind}.tfl", "--phase1-epochs", "1",
       "--phase2-epochs", "1", "--batch", "16", "--seed", "5"] for kind in ("plain", "attn")],
    ["evaluate", "--model", "small/plain/adapted_plain.tfl,small/attn/adapted_attn.tfl",
     "--data", "small/target.csv", "--out-dir", "small/eval"],
    # n_past 12 -> n_future 6 over 1700 rows: 323 test windows, chunks of 256 and 67
    *[["train", "--data", "source/source.csv", "--out", f"wide/{kind}/{kind}.tfl",
       "--epochs", "1", f"--{flag}", "--n-past", "12", "--n-future", "6", *_BODY]
      for kind, flag in (("plain", "no-attention"), ("attn", "attention"))],
    ["synth", "--out", "wide/target.csv", "--length", "1700", "--seed", "21"],
    ["evaluate", "--model", "wide/plain/plain.tfl,wide/attn/attn.tfl",
     "--data", "wide/target.csv", "--out-dir", "wide/eval"],
    # the benchmark's widths: a hidden 24 plain model transferred with
    # augmentation, and a hidden 100 attention model evaluated
    ["train", "--data", "source/source.csv", "--out", "h24/plain.tfl", "--epochs", "1",
     "--no-attention", "--n-past", "12", "--n-future", "6", "--hidden", "24",
     "--batch", "32", "--seed", "7"],
    ["transfer", "--source-model", "h24/plain.tfl", "--data", "target/target.csv",
     "--out", "h24/adapted.tfl", "--phase1-epochs", "1", "--phase2-epochs", "1",
     "--augment-copies", "1", "--levels", "2", "--batch", "64", "--seed", "5"],
    ["train", "--data", "source/source.csv", "--out", "h100/attn.tfl", "--epochs", "1",
     "--attention", "--n-past", "12", "--n-future", "6", "--hidden", "100",
     "--batch", "32", "--seed", "7"],
    ["evaluate", "--model", "h100/attn.tfl", "--data", "wide/target.csv",
     "--out-dir", "h100/eval"],
]


def _openblas_query(lib_dirs: list[Path], query: str, restype):
    """``query`` ("corename" or "num_threads") asked of the running OpenBLAS,
    through the first library under ``lib_dirs`` that exports its getter;
    None where none does."""
    for lib in [lib for lib_dir in lib_dirs for lib in sorted(lib_dir.glob("*openblas*.so*"))]:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(handle, f"{prefix}_get_{query}{suffix}", None)
                if get is not None:
                    get.argtypes, get.restype = [], restype
                    return get()
    return None


def blas() -> dict:
    """numpy's version, its OpenBLAS build string, the running core and the
    number of threads it runs."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # a wheel bundles its OpenBLAS in numpy.libs; other builds name the lib directory
    dirs = [Path(np.__file__).parent.with_name("numpy.libs")]
    if config.get("lib directory"):
        dirs.append(Path(config["lib directory"]))
    dirs = [path for path in dirs if path.is_dir()]
    core = _openblas_query(dirs, "corename", ctypes.c_char_p)
    return {"numpy": np.__version__,
            "openblas configuration": config.get("openblas configuration"),
            "core": core and core.decode(),
            "threads": _openblas_query(dirs, "num_threads", ctypes.c_int)}


def failure(recorded: dict, running: dict, changed: list[str]) -> str:
    """The tree's failure message: first any BLAS field that differs from
    the one the tree was pinned on, then what moved."""
    message = f"moved since {GOLDEN.name}: {', '.join(changed)}"
    differ = [f"{key} {recorded.get(key)!r} -> {running.get(key)!r}"
              for key in sorted(set(recorded) | set(running))
              if recorded.get(key) != running.get(key)]
    if differ:
        message = (f"this machine's BLAS differs from the one {GOLDEN.name} was pinned on "
                   f"({'; '.join(differ)}), so GEMM bits may move with no code change; "
                   + message)
    return message


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pipeline(top: Path) -> dict:
    """Run ``PIPELINE`` with ``top`` as the working directory; returns each
    command's exit code, stdout and stderr, and the digest of every file."""
    from tfl.cli import main

    commands = []
    cwd = os.getcwd()
    os.chdir(top)
    try:
        for argv in PIPELINE:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            commands.append({"argv": " ".join(argv), "exit": code,
                             "stdout": out.getvalue(), "stderr": err.getvalue()})
    finally:
        os.chdir(cwd)
    files = {path.relative_to(top).as_posix(): _sha256(path)
             for path in sorted(top.rglob("*")) if path.is_file()}
    return {"commands": commands, "files": files}


def run_pinned(top: Path) -> dict:
    """``run_pipeline(top)`` plus ``blas()``, from a child process run with
    ``PINNED_ENV`` that turns warnings into errors, as the suite does."""
    child = subprocess.run([sys.executable, "-W", "error", __file__, "--run", str(top)],
                           env={**os.environ, **PINNED_ENV}, capture_output=True, text=True,
                           timeout=600)
    if child.returncode:
        raise RuntimeError(f"pipeline child exited {child.returncode}: {child.stderr}")
    return json.loads(child.stdout)


def moved(expected: dict, actual: dict) -> list[str]:
    """What differs between two pipeline records: command indices with their
    argv, and file paths (missing, extra or with other bytes)."""
    names = [f"command {k}: {want['argv']}"
             for k, (want, got) in enumerate(zip(expected["commands"], actual["commands"]))
             if want != got]
    if len(expected["commands"]) != len(actual["commands"]):
        names.append("the number of commands")
    files = set(expected["files"]) | set(actual["files"])
    names += sorted(path for path in files
                    if expected["files"].get(path) != actual["files"].get(path))
    return names


def regenerate(golden: Path, record: dict) -> list[str]:
    """Write ``record`` to ``golden``; returns what moved against the record
    it replaces (no file is an empty record)."""
    old = json.loads(golden.read_text()) if golden.exists() else {"commands": [], "files": {}}
    golden.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return moved(old, record)


def test_pipeline_tree_matches_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    actual = run_pinned(tmp_path)
    changed = moved(expected, actual)
    assert not changed, failure(expected.get("blas", {}), actual["blas"], changed)


def test_blas_is_recorded_and_read():
    recorded = json.loads(GOLDEN.read_text())["blas"]
    assert set(recorded) == {"numpy", "openblas configuration", "core", "threads"}
    assert recorded["threads"] == 1
    assert set(blas()) == set(recorded)


def test_failure_names_a_blas_change_first():
    recorded = {"numpy": "2.4.6", "openblas configuration": "OpenBLAS 0.3.31", "core": "FakeCore"}
    running = {**recorded, "core": "SkylakeX"}
    message = failure(recorded, running, ["command 2: train", "runs/plain/plain.tfl"])
    assert message.startswith(f"this machine's BLAS differs from the one {GOLDEN.name} was "
                              "pinned on (core 'FakeCore' -> 'SkylakeX')")
    assert message.endswith(f"moved since {GOLDEN.name}: command 2: train, runs/plain/plain.tfl")
    assert failure(recorded, recorded, ["a.csv"]) == f"moved since {GOLDEN.name}: a.csv"


def test_moved_names_the_changed_files():
    record = {"commands": [{"argv": "synth", "exit": 0, "stdout": "", "stderr": ""}],
              "files": {"a.csv": "1", "b.csv": "2"}}
    other = {"commands": [{"argv": "synth", "exit": 2, "stdout": "", "stderr": ""}],
             "files": {"a.csv": "1", "b.csv": "3", "c.csv": "4"}}
    assert moved(record, other) == ["command 0: synth", "b.csv", "c.csv"]
    assert moved(record, record) == []


def test_regenerate_reports_what_moved(tmp_path):
    golden = tmp_path / "golden.json"
    record = {"commands": [{"argv": "synth", "exit": 0, "stdout": "", "stderr": ""}],
              "files": {"a.csv": "1", "b.csv": "2"}}
    assert regenerate(golden, record) == ["the number of commands", "a.csv", "b.csv"]
    other = {"commands": record["commands"], "files": {"a.csv": "1", "b.csv": "3"}}
    assert regenerate(golden, other) == ["b.csv"]
    assert json.loads(golden.read_text()) == other
    assert regenerate(golden, other) == []


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    if len(sys.argv) == 3 and sys.argv[1] == "--run":  # the child of run_pinned
        print(json.dumps({**run_pipeline(Path(sys.argv[2])), "blas": blas()}))
        sys.exit()
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: python {sys.argv[0]} --regen")
    with tempfile.TemporaryDirectory() as top:
        record = run_pinned(Path(top))
    print(f"moved: {', '.join(regenerate(GOLDEN, record)) or 'nothing'}")
    print(f"wrote {GOLDEN}: {len(record['commands'])} commands, {len(record['files'])} files")
