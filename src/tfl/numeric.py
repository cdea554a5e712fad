"""Dense float primitives and a deterministic random stream.

Everything downstream (network, training, augmentation) builds on the
handful of operations here.  ``sigmoid`` and ``softmax`` are bare kernels
that keep their float array's dtype; ``quiet`` is the one floating-point
policy, for them and every other pass.  Matrices are plain 2-D ``numpy``
arrays in row-major layout.

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

    def _draws(self, n: int) -> np.ndarray:
        """The next ``n`` ``next_u64`` outputs as a uint64 array.

        Draw k mixes state + k * gamma; uint64 array arithmetic wraps mod
        2^64 exactly as the masked integer code does.
        """
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def uniform_array(self, n: int, lo: float, hi: float) -> np.ndarray:
        """``n`` draws from [lo, hi), one stream output each.  Degenerate
        lo == hi gives lo."""
        if lo > hi:
            raise ValueError(f"uniform bounds out of order: lo={lo} > hi={hi}")
        frac = (self._draws(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        values = lo + frac * (hi - lo)
        if lo < hi:
            # guard against rounding up to the open end
            values[values >= hi] = math.nextafter(hi, lo)
        return values

    def normal_array(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """Box-Muller; consumes exactly two draws per value.

        ``log`` and ``cos`` are the ``math`` module's, element by element:
        numpy's ``log`` differs from it in the last bit on some inputs.
        """
        z = self._draws(2 * n) >> np.uint64(11)
        u1 = (z[0::2] + np.uint64(1)).astype(np.float64) * _INV_2_53  # (0, 1]
        u2 = z[1::2].astype(np.float64) * _INV_2_53
        radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, n))
        angle = np.fromiter(map(math.cos, ((2.0 * math.pi) * u2).tolist()), np.float64, n)
        return mu + sigma * radius * angle

    def shuffle(self, indices: np.ndarray) -> None:
        """In-place Fisher-Yates using this stream: position i, from the
        end down, swaps with j = next draw mod (i + 1)."""
        n = len(indices)
        if n < 2:
            return
        positions = np.arange(n - 1, 0, -1, dtype=np.uint64)
        picks = (self._draws(n - 1) % (positions + np.uint64(1))).tolist()
        items = np.asarray(indices).tolist()
        for i, j in zip(range(n - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]
        indices[:] = items


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic 1 / (1 + exp(-x)) of a float array, in place: negate, exp,
    add one, reciprocal; returns ``x``.

    For x below about -709 (about -88 in float32), exp(-x) overflows to inf
    and the result is exactly 0; the caller's numpy error state decides
    whether that overflow warns.  Wherever the logistic is a normal float the
    relative error stays within about two ulp.
    """
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.reciprocal(x, out=x)


def softmax(v: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax of a non-empty float array along its last axis."""
    ev = np.exp(v - np.max(v, axis=-1, keepdims=True))
    return ev / np.sum(ev, axis=-1, keepdims=True)


def quiet() -> np.errstate:
    """A fresh error state (one per ``with`` block or decorated function) ignoring overflow,
    division by zero and invalid operations; a pass refuses a non-finite result as it leaves."""
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


def assert_finite(arr: np.ndarray, what: str) -> None:
    """Raise NumericError when an array picked up NaN/Inf."""
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {what}")
