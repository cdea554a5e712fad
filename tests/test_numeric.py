import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfl.numeric import Rng, sigmoid, softmax

import oracles


def one_exp_sigmoid(x):
    """1 / (1 + exp(-x)) as one plain expression: the bitwise oracle."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.5, -0.5, 36.7, -36.7,
         709.0, -709.0, 746.0, -746.0, math.inf, -math.inf]


def spread_sample(seed=3):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(scale=s, size=5000) for s in (1e-3, 1, 30, 1e3)] + [EDGES])


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_symmetry(self):
        # sigmoid(-x) == 1 - sigmoid(x), both sides evaluated numerically
        x = 2.0
        npt.assert_allclose(sigmoid(-x), 1.0 - sigmoid(x), atol=1e-15)

    def test_ranges_and_monotonicity(self):
        xs = np.linspace(-18, 18, 1001)
        s = sigmoid(xs)
        assert np.all((s > 0) & (s < 1))
        # strict increase needs steps large enough to distinguish in float64
        xs_inner = np.linspace(-8, 8, 1001)
        assert np.all(np.diff(sigmoid(xs_inner)) > 0)

    def test_matches_one_exp_reference_bitwise(self):
        rng = np.random.default_rng(3)
        xs = np.concatenate([rng.normal(scale=s, size=20000) for s in (1e-3, 1, 30, 1e3)]
                            + [[0.0, -0.0, 5e-324, -5e-324, 709.0, -709.0, 746.0, -746.0,
                                np.inf, -np.inf]])
        npt.assert_array_equal(bits(sigmoid(xs)), bits(one_exp_sigmoid(xs)))

    def test_relative_error_against_long_double_logistic(self):
        rng = np.random.default_rng(5)
        xs = np.concatenate([rng.normal(scale=s, size=50000) for s in (1e-3, 1, 30, 300)]
                            + [np.linspace(-740.0, 40.0, 50000), EDGES])
        xs = xs[np.isfinite(xs)]
        exact = 1 / (1 + np.exp(-xs.astype(np.longdouble)))
        normal = exact >= np.finfo(np.float64).smallest_normal
        assert normal.sum() > 200000
        rel = np.abs((sigmoid(xs).astype(np.longdouble) - exact) / exact)
        assert rel[normal].max() <= 4.5e-16

    def test_saturation_is_graceful(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sigmoid(1000.0) == 1.0
            assert sigmoid(-1000.0) == 0.0
            npt.assert_array_equal(sigmoid(np.array([-746.0, -1e308, -np.inf])), 0.0)

    def test_out_aliasing_input_matches_reference_bitwise(self):
        xs = spread_sample().reshape(-1, 4)
        buf = xs.copy()
        result = sigmoid(buf, out=buf)
        assert result is buf
        npt.assert_array_equal(bits(buf), bits(one_exp_sigmoid(xs)))

    def test_strided_column_out_matches_reference_bitwise(self):
        xs = spread_sample()
        buf = np.full((len(xs), 3), 7.0)
        result = sigmoid(xs, out=buf[:, 1])
        assert np.shares_memory(result, buf)
        npt.assert_array_equal(bits(buf[:, 1]), bits(one_exp_sigmoid(xs)))
        npt.assert_array_equal(buf[:, [0, 2]], 7.0)
        # the input may itself be a strided column, written in place
        grid = np.stack([xs, -xs], axis=1)
        sigmoid(grid[:, 1], out=grid[:, 1])
        npt.assert_array_equal(bits(grid[:, 1]), bits(one_exp_sigmoid(-xs)))
        npt.assert_array_equal(bits(grid[:, 0]), bits(xs))

    @pytest.mark.parametrize("value", EDGES + [2.0, -3.25])
    def test_scalar_inputs_match_reference_bitwise(self, value):
        expected = bits(one_exp_sigmoid(np.array([value]))[0])
        for x in (value, np.float64(value), np.array(value)):
            got = sigmoid(x)
            assert type(got) is float
            assert bits(got) == expected
        out = np.empty(())
        assert sigmoid(np.array(value), out=out) is out
        assert bits(out) == expected


class TestSoftmax:
    def test_equal_inputs_uniform(self):
        npt.assert_allclose(softmax(np.array([3.3, 3.3, 3.3])), np.full(3, 1 / 3),
                            atol=1e-15)

    def test_hand_value(self):
        # e^0 / (e^0 + e^ln3) = 1/4
        out = softmax(np.array([0.0, math.log(3.0)]))
        npt.assert_allclose(out, [0.25, 0.75], atol=1e-15)

    def test_large_values_no_overflow(self):
        npt.assert_allclose(softmax(np.array([1000.0, 1000.0])), [0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            softmax(np.array([]))

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        st.floats(-100, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, values, shift):
        v = np.array(values)
        npt.assert_allclose(softmax(v + shift), softmax(v), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=100)
        assert abs(softmax(v).sum() - 1.0) < 1e-12


class TestFloat32:
    """sigmoid and softmax keep a float32 input's dtype, as float32 inference
    needs; every other input is computed in float64."""

    def test_sigmoid_keeps_float32(self):
        xs = spread_sample().astype(np.float32)
        with np.errstate(over="ignore"):
            expected = (np.float32(1) / (np.float32(1) + np.exp(-xs))).view(np.int32)
        got = sigmoid(xs)
        assert got.dtype == np.float32
        npt.assert_array_equal(got.view(np.int32), expected)
        buf = xs.copy()
        assert sigmoid(buf, out=buf) is buf
        npt.assert_array_equal(buf.view(np.int32), expected)

    def test_float32_sigmoid_saturates_to_exact_zero(self):
        # float32 exp overflows above about 88.72
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(np.float32([-89, -104, -1000]))
        assert got.dtype == np.float32
        npt.assert_array_equal(got, 0.0)

    def test_softmax_keeps_float32(self):
        v = np.random.default_rng(4).normal(scale=5, size=(50, 7))
        got = softmax(v.astype(np.float32))
        assert got.dtype == np.float32
        npt.assert_allclose(got, softmax(v), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int64, list])
    def test_other_inputs_give_float64_bits_as_before(self, dtype):
        grid = np.linspace(-750, 750, 6000).reshape(-1, 3).round()
        given = grid.tolist() if dtype is list else grid.astype(dtype)
        x = np.asarray(given, dtype=np.float64)
        ev = np.exp(x - x.max(axis=-1, keepdims=True))
        for got, expected in ((sigmoid(given), one_exp_sigmoid(x)),
                              (softmax(given), ev / ev.sum(axis=-1, keepdims=True))):
            assert got.dtype == np.float64
            npt.assert_array_equal(bits(got), bits(expected))


class TestRng:
    def test_degenerate_range(self):
        npt.assert_array_equal(Rng(1).uniform_array(3, 1.0, 1.0), [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_bounds_rejected(self, n):
        rng = Rng(1)
        with pytest.raises(ValueError, match="out of order"):
            rng.uniform_array(n, 2.0, 1.0)
        assert rng.next_u64() == Rng(1).next_u64()

    def test_values_in_half_open_interval(self):
        rng = Rng(5)
        draws = rng.uniform_array(1000, -2.0, 3.0)
        assert np.all(draws >= -2.0) and np.all(draws < 3.0)

    def test_monte_carlo_mean(self):
        rng = Rng(123)
        draws = rng.uniform_array(10_000, 0.5, 1.5)
        assert abs(draws.mean() - 1.0) < 0.02

    def test_same_seed_same_stream(self):
        seq1 = Rng(7).uniform_array(100, 0, 1)
        seq2 = Rng(7).uniform_array(100, 0, 1)
        npt.assert_array_equal(seq1, seq2)

    def test_reference_stream_pinned(self):
        # first three raw outputs for seed 0; guards cross-platform drift
        rng = Rng(0)
        assert [rng.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_derive_is_deterministic_and_distinct(self):
        children = [Rng.derive(42, k).uniform_array(4, 0, 1) for k in range(3)]
        again = [Rng.derive(42, k).uniform_array(4, 0, 1) for k in range(3)]
        for a, b in zip(children, again):
            npt.assert_array_equal(a, b)
        assert not np.allclose(children[0], children[1])

    def test_derive_matches_draw_loop(self):
        def reference(seed, index):
            # the definition: child seed is the parent's (index + 1)-th output
            parent = Rng(seed)
            for _ in range(index + 1):
                child_seed = parent.next_u64()
            return child_seed

        mismatches = [(seed, k) for seed in (0, 42, -5, 2 ** 64 - 1) for k in range(301)
                      if Rng.derive(seed, k).next_u64() != Rng(reference(seed, k)).next_u64()]
        assert mismatches == []

    def test_derive_negative_index_rejected(self):
        with pytest.raises(ValueError, match="derive index must be >= 0"):
            Rng.derive(42, -1)

    def test_normal_moments(self):
        rng = Rng(17)
        draws = rng.normal_array(10_000)
        assert abs(draws.mean()) < 0.05
        assert abs(draws.std() - 1.0) < 0.05

    def test_shuffle_deterministic(self):
        a = np.arange(20)
        Rng(3).shuffle(a)
        b = np.arange(20)
        Rng(3).shuffle(b)
        npt.assert_array_equal(a, b)
        assert not np.array_equal(a, np.arange(20))


class TestVectorisedStreams:
    """The array methods against the scalar references in ``oracles``: the
    same bits, and the stream left at the same state."""

    SEEDS = [0, 1, 42, -5, 2 ** 64 - 1]

    @staticmethod
    def assert_same_state(rng, reference):
        assert rng.next_u64() == reference.next_u64()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 1000])
    def test_draws_are_next_u64_outputs(self, seed, n):
        rng, reference = Rng(seed), Rng(seed)
        draws = rng._draws(n)
        assert draws.dtype == np.uint64
        assert draws.tolist() == [reference.next_u64() for _ in range(n)]
        self.assert_same_state(rng, reference)

    @pytest.mark.parametrize("seed", SEEDS[::2])
    @pytest.mark.parametrize("n", [0, 1, 100_000])
    @pytest.mark.parametrize("lo, hi", [(0, 1), (-2.0, 3.0), (-0.07, 0.07), (0.5, 1.5), (1.0, 1.0),
                                        (0.25, math.nextafter(0.25, math.inf))])
    def test_uniform_array_matches_scalar_draws(self, seed, n, lo, hi):
        rng, reference = Rng(seed), Rng(seed)
        got = rng.uniform_array(n, lo, hi)
        expected = np.array([oracles.uniform(reference, lo, hi) for _ in range(n)], dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == expected.tobytes()
        self.assert_same_state(rng, reference)

    def test_uniform_guard_fires_on_one_ulp_range(self):
        lo = 0.25
        hi = math.nextafter(lo, math.inf)
        draws = Rng(3).uniform_array(1000, lo, hi)
        # lo + frac * ulp rounds to hi for frac >= 0.5; the guard maps it back to lo
        assert np.all(draws == lo)
        assert np.any(lo + (Rng(3)._draws(1000) >> np.uint64(11)) * 2.0 ** -53 * (hi - lo) >= hi)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (5e8, 2e7), (-3.0, 0.1), (1.0, 0.0)])
    @pytest.mark.parametrize("n", [0, 1, 3000])
    def test_normal_array_matches_scalar_draws(self, seed, mu, sigma, n):
        rng, reference = Rng(seed), Rng(seed)
        got = rng.normal_array(n, mu, sigma)
        expected = np.array([oracles.normal(reference, mu, sigma) for _ in range(n)], dtype=np.float64)
        assert got.tobytes() == expected.tobytes()
        self.assert_same_state(rng, reference)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 6332])
    def test_shuffle_matches_swap_loop(self, seed, n):
        rng, reference = Rng(seed), Rng(seed)
        got, expected = np.arange(n), np.arange(n)
        rng.shuffle(got)
        oracles.shuffle(reference, expected)
        npt.assert_array_equal(got, expected)
        self.assert_same_state(rng, reference)
