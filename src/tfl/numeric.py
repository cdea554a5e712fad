"""Dense float64 primitives and a deterministic random stream.

Everything downstream (network, training, augmentation) builds on the
handful of operations here.  All array math is 64-bit; matrices are plain
2-D ``numpy`` arrays in row-major layout.

The random generator is a hand-rolled splitmix64 (Steele, Lea & Flood's
mixing constants) rather than the platform default, so that a seed
produces the identical stream on every platform and numpy version.  Its
entire state is one 64-bit integer.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53


class Rng:
    """splitmix64 stream: 64-bit state, fixed golden-ratio increment.

    Each draw advances the state by ``_GAMMA`` and mixes it through two
    xor-multiply rounds.  Identical seeds give identical streams.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    @classmethod
    def derive(cls, seed: int, index: int) -> "Rng":
        """Child stream ``index`` of ``seed``: splitmix output number index+1.

        Used for per-copy augmentation streams, so parallel and serial
        generation of copies see the same draws.  After k draws the state
        is seed + k * gamma (mod 2^64), so the child is found in O(1).
        """
        if index < 0:
            raise ValueError(f"derive index must be >= 0, got {index}")
        return cls(cls(seed + index * _GAMMA).next_u64())

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float, hi: float) -> float:
        """One draw from [lo, hi).  Degenerate lo == hi returns lo."""
        if lo > hi:
            raise ValueError(f"uniform bounds out of order: lo={lo} > hi={hi}")
        frac = (self.next_u64() >> 11) * _INV_2_53
        value = lo + frac * (hi - lo)
        if value >= hi and lo < hi:
            # guard against rounding up to the open end
            value = math.nextafter(hi, lo)
        return value

    def uniform_array(self, n: int, lo: float, hi: float) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(n)], dtype=np.float64)

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Box-Muller; consumes exactly two draws per value."""
        u1 = ((self.next_u64() >> 11) + 1) * _INV_2_53  # (0, 1]
        u2 = (self.next_u64() >> 11) * _INV_2_53
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normal_array(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        return np.array([self.normal(mu, sigma) for _ in range(n)], dtype=np.float64)

    def shuffle(self, indices: np.ndarray) -> None:
        """In-place Fisher-Yates using this stream."""
        for i in range(len(indices) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            indices[i], indices[j] = indices[j], indices[i]


def sigmoid(x, out=None):
    """Logistic 1 / (1 + exp(-x)), in place: negate, exp, add one, reciprocal.

    For x below about -709, exp(-x) overflows to inf (silently) and the
    result is exactly 0.  Wherever the logistic is a normal float the
    relative error stays within about two ulp.  ``out`` (may be ``x``
    itself) receives the result; a scalar input without ``out`` returns a
    float.
    """
    x = np.asarray(x, dtype=np.float64)
    res = np.negative(x, out=np.empty_like(x) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(res, out=res)
    res += 1.0
    np.reciprocal(res, out=res)
    if out is None and res.ndim == 0:
        return float(res)
    return res


def softmax(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax along ``axis``; rejects empty input."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("softmax of empty input")
    shifted = v - np.max(v, axis=axis, keepdims=True)
    ev = np.exp(shifted)
    return ev / np.sum(ev, axis=axis, keepdims=True)


def assert_finite(arr: np.ndarray, what: str) -> None:
    """Raise NumericError when an array picked up NaN/Inf."""
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {what}")
