"""Multilevel DWT, detail-band perturbation, and dataset expansion.

The transform is the Mallat cascade: correlate with the analysis pair,
downsample by two, recurse on the approximation band.  Detail level 1 is
the highest-frequency band.  Synthesis upsamples, convolves with the same
filter pair, and crops using the per-level length metadata, which makes
the round-trip exact to float precision.  Signals are extended
symmetrically (mirrored) at both edges, so no wrap-around artifacts
appear at the ends of a traffic series.  ``expand_dataset`` is the one
augmentation path: dwt once, then perturb and idwt per copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import TimeSeries
from .errors import DataError
from .numeric import Rng, quiet

# 8-tap Daubechies lowpass (4 vanishing moments), standard published values.
_DB4_LOWPASS = [
    0.23037781330885523,
    0.7148465705525415,
    0.6308807679295904,
    -0.02798376941698385,
    -0.18703481171888114,
    0.030841381835986965,
    0.032883011666982945,
    -0.010597401784997278,
]

@dataclass
class WaveletFilter:
    """Orthogonal filter bank: lowpass h plus quadrature-mirror highpass.

    Construction verifies sum(h) = sqrt(2), sum(h^2) = 1 and double-shift
    orthogonality to 1e-10, so transcribed coefficients cannot silently
    drift.
    """

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.lowpass, dtype=np.float64)
        if len(h) % 2 != 0:
            raise ValueError(f"filter '{self.name}' must have even length, got {len(h)}")
        tol = 1e-10
        if abs(h.sum() - math.sqrt(2.0)) > tol:
            raise ValueError(f"filter '{self.name}': coefficient sum {h.sum()!r} != sqrt(2)")
        if abs((h ** 2).sum() - 1.0) > tol:
            raise ValueError(f"filter '{self.name}': squared sum {(h ** 2).sum()!r} != 1")
        for m in range(1, len(h) // 2):
            dot = float(np.dot(h[: -2 * m], h[2 * m:]))
            if abs(dot) > tol:
                raise ValueError(f"filter '{self.name}': shift-{2 * m} correlation {dot!r} != 0")
        self.lowpass = h
        L = len(h)
        self.highpass = np.array([(-1.0) ** k * h[L - 1 - k] for k in range(L)])

    def __len__(self) -> int:
        return len(self.lowpass)


HAAR = WaveletFilter("haar", np.array([1.0, 1.0]) / math.sqrt(2.0))
DB4 = WaveletFilter("db4", np.array(_DB4_LOWPASS))

FILTERS = {"haar": HAAR, "db4": DB4}


def get_filter(name: str) -> WaveletFilter:
    try:
        return FILTERS[name]
    except KeyError:
        raise ValueError(f"unknown wavelet filter '{name}' (have: {sorted(FILTERS)})") from None


@dataclass
class DwtCoeffs:
    """Decomposition output: one approximation band plus J detail bands.

    ``details[0]`` is level 1 (highest frequency).  ``lengths[j]`` records
    the signal length that entered decomposition step j, which the inverse
    needs for exact cropping; ``filter`` is the bank that produced them.
    """

    approx: np.ndarray
    details: list[np.ndarray]
    lengths: list[int]
    filter: WaveletFilter


@dataclass
class AugmentConfig:
    """Settings for wavelet-based series perturbation."""

    filter: WaveletFilter = field(default_factory=lambda: DB4)
    levels: int = 3
    factor_range: tuple[float, float] = (0.5, 1.5)
    seed: int = 0

    def __post_init__(self):
        a, b = self.factor_range
        if not (0.0 <= a <= b < math.inf):
            raise ValueError(f"factor range must satisfy 0 <= a <= b < inf, got [{a}, {b}]")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")


def max_level(signal_length: int, filt: WaveletFilter) -> int:
    """Deepest decomposition the length supports: floor(log2(N/L)) + 1."""
    if signal_length < len(filt):
        return 0
    return int(math.floor(math.log2(signal_length / len(filt)))) + 1


def _analyze_level(x: np.ndarray, filt: WaveletFilter) -> tuple[np.ndarray, np.ndarray]:
    pad = len(filt) - 1
    ext = np.concatenate([x[:pad][::-1], x, x[-pad:][::-1]])  # symmetric extension
    u_lo = np.correlate(ext, filt.lowpass, mode="valid")  # length N + L - 1
    u_hi = np.correlate(ext, filt.highpass, mode="valid")
    s0 = pad % 2
    return u_lo[s0::2], u_hi[s0::2]


def _synthesize_level(
    approx: np.ndarray, detail: np.ndarray, filt: WaveletFilter, out_len: int
) -> np.ndarray:
    L = len(filt)
    up_a = np.zeros(2 * len(approx))
    up_a[::2] = approx
    up_d = np.zeros(2 * len(detail))
    up_d[::2] = detail
    v = np.convolve(up_a, filt.lowpass) + np.convolve(up_d, filt.highpass)
    start = 2 * ((L - 1) // 2)  # first sample of the original support
    return v[start : start + out_len]


def dwt(signal: np.ndarray, cfg: AugmentConfig) -> DwtCoeffs:
    """Decompose to ``cfg.levels``; rejects signals too short for the depth."""
    signal = np.asarray(signal, dtype=np.float64)
    feasible = max_level(len(signal), cfg.filter)
    if feasible < 1:
        raise DataError(
            f"signal of length {len(signal)} is shorter than the "
            f"{len(cfg.filter)}-tap '{cfg.filter.name}' filter"
        )
    if cfg.levels > feasible:
        raise DataError(
            f"cannot decompose length {len(signal)} to {cfg.levels} levels "
            f"with '{cfg.filter.name}': maximum feasible level is {feasible}"
        )
    details: list[np.ndarray] = []
    lengths: list[int] = []
    cur = signal
    for _ in range(cfg.levels):
        lengths.append(len(cur))
        cur, d = _analyze_level(cur, cfg.filter)
        details.append(d)
    return DwtCoeffs(approx=cur, details=details, lengths=lengths, filter=cfg.filter)


def idwt(coeffs: DwtCoeffs) -> np.ndarray:
    """Exact inverse of :func:`dwt`, with the filter bank the coefficients carry."""
    cur = coeffs.approx
    for detail, out_len in zip(reversed(coeffs.details), reversed(coeffs.lengths)):
        cur = _synthesize_level(cur, detail, coeffs.filter, out_len)
    return cur


def perturb(coeffs: DwtCoeffs, cfg: AugmentConfig, rng: Rng) -> DwtCoeffs:
    """Scale every detail coefficient by a random factor from ``factor_range``.

    Approximation coefficients pass through untouched (the result shares
    them).  Factors are drawn per coefficient, levels in ascending order,
    so a seed fixes the result.
    """
    a, b = cfg.factor_range
    return replace(coeffs, details=[d * rng.uniform_array(len(d), a, b) for d in coeffs.details])


@dataclass
class CorpusEntry:
    """A series plus the record of how it was produced."""

    series: TimeSeries
    provenance: dict


@quiet()
def expand_dataset(original: TimeSeries, cfg: AugmentConfig, copies: int) -> list[CorpusEntry]:
    """Original plus ``copies`` independently perturbed variants.

    Copy k draws from the child stream ``Rng.derive(cfg.seed, k)``, so
    generating copies in parallel or serially yields the same corpus.
    Reconstructed values that dip below zero are clamped to keep the
    series contract; the clamp count lands in the provenance.  ``TimeSeries``
    refuses a copy that overflowed under ``numeric.quiet``.
    """
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    entries = [CorpusEntry(original, {"source": "original"})]
    base = {
        "source": "augmented",
        "filter": cfg.filter.name,
        "levels": cfg.levels,
        "factor_range": list(cfg.factor_range),
        "mode": "symmetric",  # the one extension mode, kept for stable provenance files
        "base_seed": cfg.seed,
    }
    coeffs = dwt(original.values, cfg)
    for k in range(copies):
        rng = Rng.derive(cfg.seed, k)
        values = idwt(perturb(coeffs, cfg, rng))
        clamped = int(np.sum(values < 0))
        if clamped:
            values = np.maximum(values, 0.0)
        variant = TimeSeries(values, start=original.start, interval=original.interval)
        entries.append(CorpusEntry(variant, {**base, "copy": k, "clamped": clamped}))
    return entries
