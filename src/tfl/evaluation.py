"""Forecast metrics, per-step tables, improvement deltas, and the
IQR/outlier consistency analysis.

WAPE = sum|p - o| / sum|o| x 100, MAE = mean|p - o|,
RMSE = sqrt(mean (p - o)^2).  Per-step tables compute each metric over
all windows' j-th future step; the average row is the arithmetic mean of
the step rows.  Quartiles interpolate linearly at position p*(n-1);
outliers are Tukey-fenced at 1.5 IQR.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .numeric import quiet

_FMT = "%.15g"  # 15 significant digits per column

METRICS_HEADER = ("step", "mae", "rmse", "wape")
IMPROVEMENT_HEADER = ("step", "delta_wape_pp")
SUMMARY_HEADER = ("q1", "q3", "iqr", "n_outliers")


@dataclass
class StepMetrics:
    mae: float
    rmse: float
    wape: float


@dataclass
class MetricsTable:
    """Per-step metrics, step k+1 at index k, plus their average; the
    horizon is ``len(per_step)``."""

    per_step: list[StepMetrics]
    average: StepMetrics


def per_step_table(predictions: np.ndarray, targets: np.ndarray) -> MetricsTable:
    """Metric columns per future step over all windows, plus the average row."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.ndim != 2:
        raise ValueError(
            f"need matching 2-D (windows, horizon) arrays, got "
            f"{predictions.shape} and {targets.shape}"
        )
    if 0 in predictions.shape:
        raise ValueError("need at least one window and one step")
    # one contiguous row per step, so each sums in the order of a 1-D column
    err = np.ascontiguousarray((predictions - targets).T)
    obs_sum = np.abs(np.ascontiguousarray(targets.T)).sum(axis=1)
    if np.any(obs_sum == 0.0):
        raise ValueError("WAPE undefined: observations sum to zero absolute value")
    windows = predictions.shape[0]
    abs_sum = np.abs(err).sum(axis=1)
    columns = (abs_sum / windows, np.sqrt((err ** 2).sum(axis=1) / windows),
               abs_sum / obs_sum * 100.0)
    rows = [StepMetrics(*row) for row in zip(*(c.tolist() for c in columns))]
    return MetricsTable(rows, StepMetrics(*(float(np.mean(c)) for c in columns)))


def iqr(values) -> tuple[float, float, float]:
    """(q1, q3, q3 - q1) with quartiles interpolated at position p*(n-1)."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if len(values) == 0:
        raise ValueError("IQR needs at least one value")
    q1, q3 = np.quantile(values, [0.25, 0.75])
    return float(q1), float(q3), float(q3 - q1)


def outliers(values) -> list[tuple[int, float]]:
    """(index, value) pairs outside the Tukey fences q1/q3 -/+ 1.5 IQR."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    q1, q3, spread = iqr(values)
    lo = q1 - 1.5 * spread
    hi = q3 + 1.5 * spread
    return [(int(k), float(v)) for k, v in enumerate(values) if v < lo or v > hi]


@dataclass
class ImprovementStats:
    """Per-step WAPE deltas (positive = error reduction) with their mean,
    quartile spread and Tukey outliers (step is 1-based)."""

    deltas: np.ndarray
    mean: float
    q1: float
    q3: float
    iqr: float
    outliers: list[tuple[int, float]]


def improvements(before: MetricsTable, after: MetricsTable) -> ImprovementStats:
    """Step-wise WAPE improvement from ``before`` to ``after``; ``ValueError`` if it overflows."""
    if len(before.per_step) != len(after.per_step):
        raise ValueError(f"horizon mismatch: {len(before.per_step)} vs {len(after.per_step)}")
    deltas = np.array([b.wape - a.wape for b, a in zip(before.per_step, after.per_step)])
    with quiet():
        mean = np.mean(deltas)
        q1, q3, spread = iqr(deltas)
        marked = [(k + 1, v) for k, v in outliers(deltas)]
    if not np.all(np.isfinite([mean, spread])):  # a non-finite delta makes the mean one
        top = max(abs(r.wape) for r in (*before.per_step, *after.per_step))
        raise ValueError(f"step WAPEs up to {top:g} overflow the improvement summary")
    return ImprovementStats(deltas, float(mean), q1, q3, spread, marked)


def _write_rows(path: Path, header, rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write report file {path}: {exc}") from exc


def emit_report(tables: dict[str, MetricsTable], out_dir) -> None:
    """Write each table as ``<name>.csv``: header step,mae,rmse,wape, the
    rows of steps 1..horizon, then an ``average`` row."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        labels = [*range(1, len(table.per_step) + 1), "average"]
        rows = [(label, *(_FMT % v for v in astuple(r)))
                for label, r in zip(labels, [*table.per_step, table.average])]
        _write_rows(out / f"{name}.csv", METRICS_HEADER, rows)


def write_improvements(stats: ImprovementStats, out_dir) -> None:
    """Write the per-step deltas (``improvement.csv``) and their IQR/outlier
    summary (``summary.csv``)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_rows(out / "improvement.csv", IMPROVEMENT_HEADER,
                [(k, _FMT % d) for k, d in enumerate(stats.deltas, start=1)])
    _write_rows(out / "summary.csv", SUMMARY_HEADER,
                [(_FMT % stats.q1, _FMT % stats.q3, _FMT % stats.iqr, len(stats.outliers))])


def parse_metrics_csv(path) -> MetricsTable:
    """Read a table :func:`emit_report` wrote.  It must hold the header, the
    rows of steps 1..n in order, then one ``average`` row, last, each with
    four columns and finite values; anything else raises ``ValueError``
    naming the file and the line."""
    labels: list[str] = []
    rows: list[StepMetrics] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            if tuple(next(reader, ())) != METRICS_HEADER:
                raise ValueError(f"expected the header {','.join(METRICS_HEADER)}")
            for row in reader:
                if labels[-1:] == ["average"]:
                    raise ValueError("a row follows the average row")
                if len(row) != len(METRICS_HEADER):
                    raise ValueError(f"expected {len(METRICS_HEADER)} columns, got {len(row)}")
                label, *texts = row
                if label != str(len(labels) + 1) and not (label == "average" and labels):
                    expected = f"step {len(labels) + 1}" + (" or average" if labels else "")
                    raise ValueError(f"expected {expected}, got {label!r}")
                values = [float(text) for text in texts]
                if not all(math.isfinite(v) for v in values):
                    raise ValueError(f"non-finite value in {','.join(texts)!r}")
                labels.append(label)
                rows.append(StepMetrics(*values))
            if labels[-1:] != ["average"]:
                raise ValueError("the table ends without an average row")
        except (csv.Error, ValueError) as exc:
            raise ValueError(f"{path}: line {max(reader.line_num, 1)}: {exc}") from None
    return MetricsTable(rows[:-1], rows[-1])
