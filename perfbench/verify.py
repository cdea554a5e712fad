"""Check one pass's outputs with tfl's own readers.

    python3 perfbench/verify.py SPEC_JSON RESULT_JSON     (cwd: the pass dir)

SPEC lists the models, metric tables and augmentation directories to
check, and the tables whose average WAPE is the workload's ``wape_pct``.
RESULT maps each failing path to its problem and carries ``wape_pct`` and
the numpy/BLAS versions.
"""

import json
import math
import sys
from pathlib import Path

import hook


def check_model(model_io, path: str, scratch: Path) -> None:
    model, scaler, provenance = model_io.load_model(path)
    model_io.save_model(model, scaler, provenance, scratch)
    if scratch.read_bytes() != Path(path).read_bytes():
        raise ValueError("re-saving the loaded model changes its bytes")


def check_metrics(evaluation, path: str) -> float:
    table = evaluation.parse_metrics_csv(path)
    values = [v for r in [*table.per_step, table.average] for v in (r.mae, r.rmse, r.wape)]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("non-finite metric")
    return table.average.wape


def read_values(path: Path) -> list[float]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "timestamp,bps":
        raise ValueError("missing timestamp,bps header")
    return [float(line.split(",")[1]) for line in lines[1:]]


def check_augment(spec: dict) -> None:
    top = Path(spec["dir"])
    original = read_values(top / "original.csv")
    if len(original) != spec["length"]:
        raise ValueError(f"original has {len(original)} rows, expected {spec['length']}")
    listed = json.loads((top / "provenance.json").read_text())
    names = [f"augmented_{k + 1:03d}.csv" for k in range(spec["copies"])]
    if [e.get("file") for e in listed] != ["original.csv", *names]:
        raise ValueError("provenance.json does not list every copy")
    if [e.get("copy") for e in listed[1:]] != list(range(spec["copies"])):
        raise ValueError("provenance.json copy indices are wrong")
    for name in names:
        values = read_values(top / name)
        if len(values) != len(original):
            raise ValueError(f"{name} has {len(values)} rows, original {len(original)}")
        if min(values) < 0 or not all(math.isfinite(v) for v in values):
            raise ValueError(f"{name} holds a negative or non-finite value")


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result_path = Path(sys.argv[2])
    hook.tolerant_import("tfl.cli")
    import numpy
    from tfl import evaluation, model_io

    failures: dict[str, str] = {}
    wapes: dict[str, float] = {}

    def attempt(path, fn, *args):
        try:
            return fn(*args)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            failures[path] = f"{type(exc).__name__}: {exc}"
            return None

    scratch = result_path.with_name("roundtrip.tfl")
    for path in spec["models"]:
        attempt(path, check_model, model_io, path, scratch)
    scratch.unlink(missing_ok=True)
    for path in spec["metrics"]:
        wapes[path] = attempt(path, check_metrics, evaluation, path)
    for entry in spec["augment"]:
        attempt(entry["dir"], check_augment, entry)

    picked = [wapes.get(p) for p in spec["wape"]]
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "failures": failures,
        "wape_pct": None if None in picked else sum(picked) / len(picked),
        "versions": {"numpy": numpy.__version__,
                     "blas": f"{blas.get('name')} {blas.get('version')}"},
    }
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
