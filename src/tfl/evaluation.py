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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_FMT = "%.15g"  # full-precision columns so emitted tables re-parse losslessly

METRICS_HEADER = ("step", "mae", "rmse", "wape")
IMPROVEMENT_HEADER = ("step", "delta_wape_pp")
SUMMARY_HEADER = ("q1", "q3", "iqr", "n_outliers")


def _check_pair(pred, obs) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    obs = np.asarray(obs, dtype=np.float64).reshape(-1)
    if pred.shape != obs.shape:
        raise ValueError(f"length mismatch: predictions {pred.shape} vs observations {obs.shape}")
    if pred.size == 0:
        raise ValueError("empty metric input")
    return pred, obs


def mae(pred, obs) -> float:
    pred, obs = _check_pair(pred, obs)
    return float(np.mean(np.abs(pred - obs)))


def rmse(pred, obs) -> float:
    pred, obs = _check_pair(pred, obs)
    return float(np.sqrt(np.mean((pred - obs) ** 2)))


def wape(pred, obs) -> float:
    """Weighted absolute percentage error; undefined when sum|obs| is 0."""
    pred, obs = _check_pair(pred, obs)
    denom = float(np.sum(np.abs(obs)))
    if denom == 0.0:
        raise ValueError("WAPE undefined: observations sum to zero absolute value")
    return float(np.sum(np.abs(pred - obs)) / denom * 100.0)


def accuracy(wape_pct: float) -> float:
    """100 - WAPE, floored at zero."""
    if wape_pct < 0:
        raise ValueError(f"WAPE must be >= 0, got {wape_pct}")
    return max(0.0, 100.0 - wape_pct)


@dataclass
class StepMetrics:
    step: int  # 1-based forecast step; 0 marks the average row
    mae: float
    rmse: float
    wape: float


@dataclass
class MetricsTable:
    """Per-step metrics for one forecast horizon plus their average."""

    horizon: int
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
    if predictions.shape[0] < 1:
        raise ValueError("need at least one window")
    rows = [
        StepMetrics(step=j + 1, mae=mae(p, o), rmse=rmse(p, o), wape=wape(p, o))
        for j, (p, o) in enumerate(zip(predictions.T, targets.T))
    ]
    average = StepMetrics(
        step=0,
        mae=float(np.mean([r.mae for r in rows])),
        rmse=float(np.mean([r.rmse for r in rows])),
        wape=float(np.mean([r.wape for r in rows])),
    )
    return MetricsTable(horizon=predictions.shape[1], per_step=rows, average=average)


def persistence_forecast(inputs: np.ndarray, n_future: int) -> np.ndarray:
    """Naive baseline: repeat each window's last observed value."""
    inputs = np.asarray(inputs, dtype=np.float64)
    return np.repeat(inputs[:, -1:], n_future, axis=1)


def iqr(values) -> tuple[float, float, float]:
    """(q1, q3, q3 - q1) with quartiles interpolated at position p*(n-1)."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if len(values) < 4:
        raise ValueError(f"IQR needs >= 4 values, got {len(values)}")
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
    """Per-step WAPE deltas (positive = error reduction) with their
    quartile spread and Tukey outliers (step is 1-based)."""

    deltas: np.ndarray
    q1: float
    q3: float
    iqr: float
    outliers: list[tuple[int, float]]


def improvements(before: MetricsTable, after: MetricsTable) -> ImprovementStats:
    """Step-wise WAPE improvement from ``before`` to ``after``."""
    if before.horizon != after.horizon:
        raise ValueError(f"horizon mismatch: {before.horizon} vs {after.horizon}")
    deltas = np.array(
        [b.wape - a.wape for b, a in zip(before.per_step, after.per_step)]
    )
    q1, q3, spread = iqr(deltas)
    marked = [(k + 1, v) for k, v in outliers(deltas)]
    return ImprovementStats(deltas=deltas, q1=q1, q3=q3, iqr=spread, outliers=marked)


def _write_rows(path: Path, header, rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write report file {path}: {exc}") from exc


def write_metrics_csv(table: MetricsTable, path) -> None:
    """Rows 1..horizon then an 'average' row, header step,mae,rmse,wape."""
    rows = [
        (r.step, _FMT % r.mae, _FMT % r.rmse, _FMT % r.wape) for r in table.per_step
    ]
    rows.append(("average", _FMT % table.average.mae, _FMT % table.average.rmse,
                 _FMT % table.average.wape))
    _write_rows(Path(path), METRICS_HEADER, rows)


def parse_metrics_csv(path) -> MetricsTable:
    """Rebuild a MetricsTable from :func:`write_metrics_csv` output."""
    per_step = []
    average = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != METRICS_HEADER:
            raise ValueError(f"{path}: unexpected metrics header {header}")
        for row in reader:
            label, m, r, w = row
            if label == "average":
                average = StepMetrics(step=0, mae=float(m), rmse=float(r), wape=float(w))
            else:
                per_step.append(StepMetrics(step=int(label), mae=float(m),
                                            rmse=float(r), wape=float(w)))
    if average is None or not per_step:
        raise ValueError(f"{path}: incomplete metrics table")
    return MetricsTable(horizon=len(per_step), per_step=per_step, average=average)


def emit_report(tables: dict[str, MetricsTable], stats: ImprovementStats | None, out_dir) -> list[Path]:
    """Write metric tables, plot-ready step/metric files, and (when
    improvement stats are given) the delta and IQR/outlier summaries."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, table in tables.items():
        path = out / f"{name}.csv"
        write_metrics_csv(table, path)
        written.append(path)
        for metric in ("mae", "rmse", "wape"):
            ppath = out / f"plot_{name}_{metric}.csv"
            _write_rows(
                ppath,
                ("step", metric),
                [(r.step, _FMT % getattr(r, metric)) for r in table.per_step],
            )
            written.append(ppath)
    if stats is not None:
        ipath = out / "improvement.csv"
        _write_rows(
            ipath,
            IMPROVEMENT_HEADER,
            [(k + 1, _FMT % d) for k, d in enumerate(stats.deltas)],
        )
        written.append(ipath)
        spath = out / "summary.csv"
        _write_rows(
            spath,
            SUMMARY_HEADER,
            [(_FMT % stats.q1, _FMT % stats.q3, _FMT % stats.iqr, len(stats.outliers))],
        )
        written.append(spath)
    return written
