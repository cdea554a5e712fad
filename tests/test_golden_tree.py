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

A change that moves these bits on purpose rewrites the JSON with

    python tests/test_golden_tree.py --regen

which prints what moved against the old JSON before it overwrites it; the
change says in CHANGES.md which files moved and why.  Every digest depends
on the GEMM kernel, which a ``DYNAMIC_ARCH`` OpenBLAS picks by the CPU at
run time, so the regen also records the BLAS it ran on (``blas()``).  A
failure on a machine whose BLAS differs from the recorded one says so
before it names what moved; it fails all the same.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden_tree.json")

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


def _openblas_core(lib_dir: Path) -> str | None:
    """The core OpenBLAS picked at run time, from the first library under
    ``lib_dir`` that exports a ``get_corename``; None where none does."""
    for lib in sorted(lib_dir.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(handle, symbol, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode()
    return None


def blas() -> dict:
    """numpy's version, its OpenBLAS build string and the running core."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # a wheel bundles its OpenBLAS in numpy.libs; other builds name the lib directory
    dirs = [Path(np.__file__).parent.with_name("numpy.libs")]
    if config.get("lib directory"):
        dirs.append(Path(config["lib directory"]))
    core = next((name for name in map(_openblas_core, filter(Path.is_dir, dirs)) if name), None)
    return {"numpy": np.__version__,
            "openblas configuration": config.get("openblas configuration"),
            "core": core}


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
    changed = moved(expected, run_pipeline(tmp_path))
    assert not changed, failure(expected.get("blas", {}), blas(), changed)


def test_blas_is_recorded_and_read():
    recorded = json.loads(GOLDEN.read_text())["blas"]
    assert set(recorded) == {"numpy", "openblas configuration", "core"}
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
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: python {sys.argv[0]} --regen")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    with tempfile.TemporaryDirectory() as top:
        record = {**run_pipeline(Path(top)), "blas": blas()}
    print(f"moved: {', '.join(regenerate(GOLDEN, record)) or 'nothing'}")
    print(f"wrote {GOLDEN}: {len(record['commands'])} commands, {len(record['files'])} files")
