import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfl.numeric import Rng, sigmoid, softmax


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

    def test_matches_masked_two_branch_reference_bitwise(self):
        def reference(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        rng = np.random.default_rng(3)
        xs = np.concatenate([rng.normal(scale=s, size=20000) for s in (1e-3, 1, 30, 1e3)]
                            + [[0.0, -0.0, 5e-324, -5e-324, 709.0, -709.0, 746.0, -746.0,
                                np.inf, -np.inf]])
        npt.assert_array_equal(sigmoid(xs).view(np.int64), reference(xs).view(np.int64))

    def test_saturation_is_graceful(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0


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


class TestRng:
    def test_degenerate_range(self):
        assert Rng(1).uniform(1.0, 1.0) == 1.0

    def test_bounds_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            Rng(1).uniform(2.0, 1.0)

    def test_values_in_half_open_interval(self):
        rng = Rng(5)
        draws = rng.uniform_array(1000, -2.0, 3.0)
        assert np.all(draws >= -2.0) and np.all(draws < 3.0)

    def test_monte_carlo_mean(self):
        rng = Rng(123)
        draws = rng.uniform_array(10_000, 0.5, 1.5)
        assert abs(draws.mean() - 1.0) < 0.02

    def test_same_seed_same_stream(self):
        a = [Rng(99).uniform(0, 1) for _ in range(5)]
        b = [Rng(99).uniform(0, 1) for _ in range(5)]
        assert a == b
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

    @given(st.integers(0, 2**64 - 1), st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_state_roundtrip_mid_stream(self, seed, skip):
        rng = Rng(seed)
        for _ in range(skip):
            rng.next_u64()
        resumed = Rng.from_state(rng.state)
        assert [rng.next_u64() for _ in range(4)] == [resumed.next_u64() for _ in range(4)]

    def test_derive_is_deterministic_and_distinct(self):
        children = [Rng.derive(42, k).uniform_array(4, 0, 1) for k in range(3)]
        again = [Rng.derive(42, k).uniform_array(4, 0, 1) for k in range(3)]
        for a, b in zip(children, again):
            npt.assert_array_equal(a, b)
        assert not np.allclose(children[0], children[1])

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
