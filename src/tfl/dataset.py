"""Telemetry ingestion, scaling, windowing, and a synthetic generator.

Series are bits-per-second values on a uniform sampling grid (default
5-minute).  All statistics use population moments.  Scaling is min-max to
[0, 1], fitted on the training split only; splits are chronological.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import DataError
from .numeric import Rng

DEFAULT_INTERVAL = 300.0
DEFAULT_START = datetime(2024, 1, 1, tzinfo=timezone.utc)

DAILY_PERIOD_SAMPLES = 288    # 24 h of 5-minute samples
WEEKLY_PERIOD_SAMPLES = 2016  # 7 days of 5-minute samples

CSV_HEADER = ("timestamp", "bps")


@dataclass
class TimeSeries:
    """Uniformly sampled univariate traffic series in bits per second."""

    values: np.ndarray
    start: datetime = DEFAULT_START
    interval: float = DEFAULT_INTERVAL

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.interval <= 0:
            raise DataError(f"interval must be positive, got {self.interval}")
        if not np.all(np.isfinite(self.values)):
            raise DataError("series contains non-finite values")
        if np.any(self.values < 0):
            raise DataError("series contains negative values")

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class SummaryStats:
    """Population mean/std/var and Fisher skewness.

    ``skewness`` is None when the series is constant (std == 0), where the
    moment ratio is undefined.
    """

    mean: float
    std: float
    var: float
    skewness: float | None


@dataclass
class ScalerParams:
    """Min-max bounds fitted on training data only."""

    min: float
    max: float

    def __post_init__(self):
        if not self.max > self.min:
            raise DataError(f"scaler needs max > min, got min={self.min} max={self.max}")


@dataclass
class WindowedDataset:
    """Supervised (n_past -> n_future) windows, stride 1.

    Window k's target block immediately follows its input block in time.
    """

    inputs: np.ndarray   # (num_windows, n_past)
    targets: np.ndarray  # (num_windows, n_future)

    def __post_init__(self):
        if len(self.inputs) != len(self.targets):
            raise ValueError(
                f"inputs/targets count mismatch: {len(self.inputs)} vs {len(self.targets)}"
            )

    @property
    def n_past(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_future(self) -> int:
        return self.targets.shape[1]

    def __len__(self) -> int:
        return len(self.inputs)


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
_CSV_BLOCK_ROWS = 8192  # rows formatted per write, so memory stays flat


def _parse_timestamp(text: str) -> int:
    """Exact epoch microseconds from integer epoch seconds or an ISO-8601
    string (naive = UTC)."""
    text = text.strip()
    if ":" not in text:  # int() never accepts a colon; skip its failure on ISO stamps
        try:
            return int(text) * 1_000_000
        except ValueError:
            pass
    iso = text.replace("Z", "+00:00")
    dt = datetime.fromisoformat(iso)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return (dt - _EPOCH) // _MICROSECOND


def load_csv(path) -> tuple[TimeSeries, int]:
    """Read a ``timestamp,bps`` file into a series.

    The grid step is the smallest timestamp gap.  Missing grid slots are
    filled by linear interpolation; the returned count is the number of
    interpolated points.  Rows that do not parse, non-monotone timestamps,
    gaps that are not a whole number of steps, and negative values are
    rejected, and so is a grid that starts or ends outside years 1-9999.
    Timestamps are read as exact microseconds, and each gap is their
    integer difference in seconds, so a 0.1 s grid is uniform.
    """
    first = last = None  # epoch microseconds
    gaps: list[float] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1:
                if [c.strip().lower() for c in row] != list(CSV_HEADER):
                    raise DataError(f"{path}: line 1: expected header 'timestamp,bps'")
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise DataError(f"{path}: line {lineno}: expected 2 columns, got {len(row)}")
            try:
                ts = _parse_timestamp(row[0])
                val = float(row[1])
                gap = None if last is None else (ts - last) / 1_000_000
            except (ValueError, OverflowError) as exc:
                raise DataError(f"{path}: line {lineno}: unparseable row: {exc}") from exc
            if not math.isfinite(val):
                raise DataError(f"{path}: line {lineno}: non-finite value")
            if val < 0:
                raise DataError(f"{path}: line {lineno}: negative value {val}")
            if gap is None:
                first = ts
            elif gap <= 0:
                raise DataError(f"{path}: line {lineno}: non-monotone timestamp")
            else:
                gaps.append(gap)
            last = ts
            values.append(val)
    if len(values) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(values)}")

    deltas = np.array(gaps)
    step = float(deltas.min())
    with np.errstate(over="ignore"):  # an infinite ratio fails the slot total below
        ratio = deltas / step
    slots = np.rint(ratio)  # half to even, as round() does
    # the grid size in float, checked before any int64 cast can wrap; 2^62
    # leaves room for the float sum's rounding
    total = slots.sum() + 1
    if not total < 2.0 ** 62:
        raise _unfillable(path, deltas, slots, total)
    bad = np.flatnonzero(np.abs(ratio - slots) > 1e-6)
    if bad.size:
        k = bad[0]
        raise DataError(
            f"{path}: timestamp gap of {deltas[k]}s at row {k + 2} is not a "
            f"multiple of the {step}s interval"
        )
    try:
        filled, warnings = _fill_gaps(np.array(values), slots.astype(np.int64))
    except MemoryError:
        raise _unfillable(path, deltas, slots, total) from None
    try:
        start = _EPOCH + first * _MICROSECOND
    except OverflowError:
        raise DataError(f"{path}: first timestamp out of range") from None
    _check_last_stamp(path, start, len(filled), step)
    return TimeSeries(filled, start=start, interval=step), warnings


def _check_last_stamp(path, start: datetime, n: int, interval: float) -> None:
    """DataError unless row n-1 of a grid, where ``write_csv`` and ``split``
    place it, lies within datetime's range (up to year 9999)."""
    try:
        start + timedelta(seconds=(n - 1) * interval)
    except OverflowError:
        raise DataError(f"{path}: last timestamp out of range") from None


def _unfillable(path, deltas: np.ndarray, slots: np.ndarray, total: float) -> DataError:
    k = int(np.argmax(slots))
    return DataError(
        f"{path}: timestamp gap of {deltas[k]}s at row {k + 2} makes a grid of "
        f"{total:.0f} slots, too many to fill"
    )


def _fill_gaps(values: np.ndarray, slots: np.ndarray) -> tuple[np.ndarray, int]:
    """Place ``values`` on the grid, row k+1 lying ``slots[k]`` steps after
    row k, and fill slot j of such a gap of m with
    v[k] + (v[k+1] - v[k]) * j / m.  Returns the series and the fill count."""
    ends = np.cumsum(slots)  # grid index of row k+1
    k = np.repeat(np.arange(len(slots)), slots)  # the gap each later slot lies in
    j = np.arange(1, ends[-1] + 1) - np.repeat(ends - slots, slots)
    filled = np.empty(ends[-1] + 1)
    filled[0] = values[0]
    filled[1:] = values[k] + (values[k + 1] - values[k]) * j / slots[k]
    filled[ends] = values[1:]  # the rows themselves, not their interpolated form
    return filled, int(ends[-1]) - len(slots)


def write_csv(series: TimeSeries, path) -> None:
    """Emit ``timestamp,bps`` rows with CRLF line ends; values keep full
    float precision.

    Row k is stamped ``start + timedelta(seconds=k * interval)``, rounded to
    the microsecond as ``timedelta`` rounds it, with a four-digit year.
    Timestamps carry microseconds unless the start and the interval are
    both whole seconds.  A last timestamp past year 9999 is a DataError
    raised before the file is opened.
    """
    n = len(series.values)
    interval = float(series.interval)
    if n:
        _check_last_stamp(path, series.start, n, interval)
    unit = "s" if series.start.microsecond == 0 and interval.is_integer() else "us"
    # the start's wall clock, read as UTC, as strftime would print it
    base = (series.start.replace(tzinfo=timezone.utc) - _EPOCH) // _MICROSECOND
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, n)
            # timedelta's rounding: whole seconds exactly, then the fraction
            # times 1e6 in float, rounded half to even
            frac, whole = np.modf(np.arange(lo, hi, dtype=np.float64) * interval)
            micros = base + whole.astype(np.int64) * 1_000_000 + np.rint(frac * 1e6).astype(np.int64)
            stamps = np.datetime_as_string(micros.view("datetime64[us]"), unit=unit, timezone="UTC")
            fh.writelines(f"{t},{v!r}\r\n" for t, v in zip(stamps.tolist(), series.values[lo:hi].tolist()))


def summary_stats(series) -> SummaryStats:
    """Population moments of a series (or raw array)."""
    values = series.values if isinstance(series, TimeSeries) else np.asarray(series, dtype=np.float64)
    if len(values) < 2:
        raise DataError(f"summary statistics need >= 2 points, got {len(values)}")
    mean = float(values.mean())
    centered = values - mean
    var = float(np.mean(centered ** 2))
    std = math.sqrt(var)
    if std == 0.0:
        skew = None
    else:
        skew = float(np.mean(centered ** 3) / std ** 3)
    return SummaryStats(mean=mean, std=std, var=var, skewness=skew)


def fit_scaler(train: np.ndarray) -> ScalerParams:
    """Min-max bounds from the training split.  Constant input is rejected."""
    train = np.asarray(train, dtype=np.float64)
    lo, hi = float(train.min()), float(train.max())
    if hi == lo:
        raise DataError("cannot fit scaler on a constant series (max == min)")
    return ScalerParams(min=lo, max=hi)


def scale(x, params: ScalerParams) -> np.ndarray:
    """Map train-min to 0 and train-max to 1; out-of-range inputs may leave [0, 1]."""
    return (np.asarray(x, dtype=np.float64) - params.min) / (params.max - params.min)


def inverse_scale(x, params: ScalerParams) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) * (params.max - params.min) + params.min


def make_windows(values: np.ndarray, n_past: int, n_future: int) -> WindowedDataset:
    """Stride-1 sliding windows over a (scaled) value array."""
    values = np.asarray(values, dtype=np.float64)
    needed = n_past + n_future
    if len(values) < needed:
        raise DataError(
            f"series of length {len(values)} too short for windows: "
            f"need at least n_past + n_future = {needed}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(values, needed)
    return WindowedDataset(inputs=windows[:, :n_past].copy(), targets=windows[:, n_past:].copy())


def concat_windows(parts: list[WindowedDataset]) -> WindowedDataset:
    """Merge per-series window sets; no window straddles a series boundary."""
    if not parts:
        raise ValueError("no window sets to concatenate")
    first = parts[0]
    for p in parts[1:]:
        if (p.n_past, p.n_future) != (first.n_past, first.n_future):
            raise ValueError("window sets disagree on n_past/n_future")
    return WindowedDataset(
        inputs=np.concatenate([p.inputs for p in parts]),
        targets=np.concatenate([p.targets for p in parts]),
    )


def split(series: TimeSeries, ratio: float, min_points: int | None = None) -> tuple[TimeSeries, TimeSeries]:
    """Chronological split at floor(ratio * length); never shuffles.

    ``min_points`` (typically n_past + n_future) rejects splits that leave
    a side too short to window.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    cut = int(math.floor(ratio * len(series.values)))
    if min_points is not None and (cut < min_points or len(series.values) - cut < min_points):
        raise DataError(
            f"split at {cut}/{len(series.values)} leaves a side shorter than {min_points} points"
        )
    train = TimeSeries(series.values[:cut].copy(), start=series.start, interval=series.interval)
    test_start = series.start + timedelta(seconds=cut * series.interval)
    test = TimeSeries(series.values[cut:].copy(), start=test_start, interval=series.interval)
    return train, test


@dataclass
class SynthProfile:
    """Parameters of the synthetic traffic generator."""

    base_bps: float
    daily_amp: float = 0.0
    weekly_amp: float = 0.0
    trend_per_day: float = 0.0
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")


def synth(profile: SynthProfile, length: int, start: datetime = DEFAULT_START) -> TimeSeries:
    """Base level + daily/weekly sinusoids + linear trend + Gaussian noise.

    Deterministic per seed.  Profiles that dip below zero are rejected;
    pick amplitudes and noise so values stay nonnegative.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    k = np.arange(length, dtype=np.float64)
    values = (
        profile.base_bps
        + profile.daily_amp * np.sin(2.0 * np.pi * k / DAILY_PERIOD_SAMPLES)
        + profile.weekly_amp * np.sin(2.0 * np.pi * k / WEEKLY_PERIOD_SAMPLES)
        + profile.trend_per_day * (k / DAILY_PERIOD_SAMPLES)
    )
    if profile.noise_std > 0:
        rng = Rng(profile.seed)
        values = values + rng.normal_array(length, 0.0, profile.noise_std)
    if np.any(values < 0):
        raise DataError("synthetic profile produced negative traffic; reduce amplitudes or noise")
    return TimeSeries(values, start=start, interval=DEFAULT_INTERVAL)
