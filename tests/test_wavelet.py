import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfl import wavelet as wv
from tfl.dataset import TimeSeries, make_windows
from tfl.errors import DataError
from tfl.numeric import Rng

SQRT2 = math.sqrt(2.0)


def cfg_for(filter_name="haar", levels=1, factor_range=(0.5, 1.5), seed=0):
    return wv.AugmentConfig(filter=wv.get_filter(filter_name), levels=levels,
                            factor_range=factor_range, seed=seed)


class TestFilters:
    @pytest.mark.parametrize("name", ["haar", "db4"])
    def test_identities(self, name):
        h = wv.get_filter(name).lowpass
        assert abs(h.sum() - SQRT2) < 1e-10
        assert abs((h ** 2).sum() - 1.0) < 1e-10
        for m in range(1, len(h) // 2):
            assert abs(np.dot(h[:-2 * m], h[2 * m:])) < 1e-10

    def test_haar_lowpass_value(self):
        npt.assert_allclose(wv.HAAR.lowpass, [1 / SQRT2, 1 / SQRT2], atol=1e-15)

    def test_quadrature_mirror_highpass(self):
        h = wv.DB4.lowpass
        g = wv.DB4.highpass
        L = len(h)
        for k in range(L):
            assert g[k] == (-1.0) ** k * h[L - 1 - k]

    def test_bad_coefficients_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            wv.WaveletFilter("broken", np.array([0.5, 0.5]))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown wavelet"):
            wv.get_filter("sym5")

    def test_augment_config_defaults_to_module_db4(self):
        assert wv.AugmentConfig().filter is wv.DB4


class TestDwt:
    def test_constant_signal_kills_details(self):
        coeffs = wv.dwt(np.array([5.0, 5.0, 5.0, 5.0]), cfg_for("haar"))
        npt.assert_allclose(coeffs.approx, [5 * SQRT2, 5 * SQRT2], atol=1e-12)
        npt.assert_allclose(coeffs.details[0], [0.0, 0.0], atol=1e-12)

    def test_haar_hand_arithmetic(self):
        # pairwise (x0 + x1)/sqrt2 and (x0 - x1)/sqrt2
        coeffs = wv.dwt(np.array([1.0, 2.0, 3.0, 4.0]), cfg_for("haar"))
        npt.assert_allclose(coeffs.approx, [3 / SQRT2, 7 / SQRT2], atol=1e-12)
        npt.assert_allclose(coeffs.details[0], [-1 / SQRT2, -1 / SQRT2], atol=1e-12)

    def test_too_short_reports_feasible_level(self):
        with pytest.raises(DataError, match="maximum feasible level is 2"):
            wv.dwt(np.ones(16), cfg_for("db4", levels=3))

    @pytest.mark.parametrize("name", ["haar", "db4"])
    def test_max_level_always_decomposes(self, name):
        # each level keeps at least half its input, so the max_level depth
        # never meets an approximation shorter than the filter
        filt = wv.get_filter(name)
        for n in range(len(filt), 2049):
            coeffs = wv.dwt(np.ones(n), cfg_for(name, levels=wv.max_level(n, filt)))
            assert coeffs.lengths[-1] >= len(filt), n

    def test_shorter_than_filter_rejected(self):
        with pytest.raises(DataError, match="shorter than"):
            wv.dwt(np.ones(4), cfg_for("db4"))

    def test_detail_level_one_is_highest_frequency(self):
        # an alternating signal is pure high frequency: level-1 details carry
        # essentially all the energy
        x = np.array([1.0, -1.0] * 32) + 5.0
        coeffs = wv.dwt(x, cfg_for("haar", levels=3))
        d1 = (coeffs.details[0] ** 2).sum()
        rest = sum((d ** 2).sum() for d in coeffs.details[1:])
        assert d1 > 50 * rest


class TestIdwt:
    def test_roundtrip_db4_three_levels(self):
        x = Rng(7).normal_array(256)
        cfg = cfg_for("db4", levels=3)
        npt.assert_allclose(wv.idwt(wv.dwt(x, cfg)), x, atol=1e-9)

    def test_zero_coefficients_zero_signal(self):
        cfg = cfg_for("haar", levels=2)
        coeffs = wv.dwt(np.ones(16), cfg)
        coeffs.approx[:] = 0.0
        for d in coeffs.details:
            d[:] = 0.0
        npt.assert_allclose(wv.idwt(coeffs), np.zeros(16), atol=1e-12)

    def test_haar_hand_inverse(self):
        coeffs = wv.DwtCoeffs(
            approx=np.array([SQRT2, SQRT2]),
            details=[np.array([0.0, 0.0])],
            lengths=[4], filter=wv.HAAR,
        )
        npt.assert_allclose(wv.idwt(coeffs), [1.0, 1.0, 1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("name", ["haar", "db4"])
    def test_coefficients_carry_their_filter(self, name):
        coeffs = wv.dwt(np.ones(16), cfg_for(name))
        assert coeffs.filter is wv.get_filter(name)

    @given(
        st.integers(4, 8),
        st.integers(1, 3),
        st.sampled_from(["haar", "db4"]),
        st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_perfect_reconstruction_property(self, log_len, levels, name, seed):
        filt = wv.get_filter(name)
        n = 2 ** log_len
        levels = min(levels, wv.max_level(n, filt))
        x = Rng(seed).uniform_array(n, -5, 5)
        cfg = cfg_for(name, levels=levels)
        assert np.abs(wv.idwt(wv.dwt(x, cfg)) - x).max() < 1e-9


class TestPerturb:
    def test_unit_range_is_bitwise_identity(self):
        x = Rng(3).uniform_array(64, 0, 10)
        cfg = cfg_for("db4", levels=2, factor_range=(1.0, 1.0))
        coeffs = wv.dwt(x, cfg)
        shaken = wv.perturb(coeffs, cfg, Rng(0))
        npt.assert_array_equal(shaken.approx, coeffs.approx)
        for d_new, d_old in zip(shaken.details, coeffs.details):
            npt.assert_array_equal(d_new, d_old)

    def test_zero_range_leaves_smooth_approximation(self):
        x = Rng(4).uniform_array(64, 0, 10)
        cfg = cfg_for("db4", levels=2, factor_range=(0.0, 0.0))
        coeffs = wv.dwt(x, cfg)
        shaken = wv.perturb(coeffs, cfg, Rng(0))
        for d in shaken.details:
            npt.assert_array_equal(d, np.zeros_like(d))
        smooth = wv.DwtCoeffs(
            approx=coeffs.approx.copy(),
            details=[np.zeros_like(d) for d in coeffs.details],
            lengths=coeffs.lengths, filter=coeffs.filter,
        )
        npt.assert_allclose(wv.idwt(shaken), wv.idwt(smooth), atol=1e-12)

    def test_factor_ratios_in_default_range(self):
        x = Rng(5).normal_array(128)
        cfg = cfg_for("db4", levels=3)
        coeffs = wv.dwt(x, cfg)
        shaken = wv.perturb(coeffs, cfg, Rng(11))
        for d_new, d_old in zip(shaken.details, coeffs.details):
            ratios = d_new[d_old != 0] / d_old[d_old != 0]
            assert np.all((ratios >= 0.5) & (ratios < 1.5))

    def test_approximation_never_touched(self):
        x = Rng(6).normal_array(64)
        cfg = cfg_for("haar", levels=3, factor_range=(0.0, 3.0))
        coeffs = wv.dwt(x, cfg)
        shaken = wv.perturb(coeffs, cfg, Rng(1))
        npt.assert_array_equal(shaken.approx, coeffs.approx)

    def test_zero_lower_bound_allowed(self):
        cfg_for("haar", factor_range=(0.0, 1.0))
        with pytest.raises(ValueError, match="0 <= a <= b"):
            cfg_for("haar", factor_range=(-0.1, 1.0))
        with pytest.raises(ValueError, match="0 <= a <= b"):
            cfg_for("haar", factor_range=(1.0, 0.5))
        with pytest.raises(ValueError, match="b < inf"):
            cfg_for("haar", factor_range=(0.5, float("inf")))


class TestAugmentSeries:
    """One perturbed variant, as expand_dataset makes it."""

    @staticmethod
    def augment(x, cfg):
        return wv.expand_dataset(TimeSeries(x), cfg, 1)[1].series.values

    def test_unit_range_identity(self):
        x = Rng(10).uniform_array(128, 1, 2)
        cfg = cfg_for("db4", levels=3, factor_range=(1.0, 1.0))
        npt.assert_allclose(self.augment(x, cfg), x, atol=1e-9)

    def test_length_preserved(self):
        for n in (64, 100, 257):
            x = Rng(n).uniform_array(n, 0, 1)
            cfg = cfg_for("db4", levels=2, seed=5)
            assert len(self.augment(x, cfg)) == n

    def test_mean_approximately_preserved(self):
        # the untouched approximation band carries the mean
        k = np.arange(512, dtype=float)
        base = 10.0 + 3.0 * np.sin(2 * np.pi * k / 64)
        drifts = []
        for seed in range(20):
            noisy = base + Rng(seed).normal_array(512, 0, 0.5)
            out = self.augment(noisy, cfg_for("db4", levels=3, seed=seed))
            drifts.append(abs(out.mean() - noisy.mean()) / abs(noisy.mean()))
        assert max(drifts) < 0.02

    def test_deterministic_per_seed(self):
        x = Rng(12).uniform_array(128, 0, 1)
        cfg = cfg_for("db4", levels=2, seed=77)
        npt.assert_array_equal(self.augment(x, cfg), self.augment(x, cfg))


class TestExpandDataset:
    def make_series(self, n=64):
        return TimeSeries(Rng(20).uniform_array(n, 1e8, 2e8))

    def test_one_copy_doubles_windows(self):
        series = self.make_series()
        corpus = wv.expand_dataset(series, cfg_for("haar", levels=2), copies=1)
        assert len(corpus) == 2
        window_count = sum(
            len(make_windows(entry.series.values, 12, 6)) for entry in corpus
        )
        assert window_count == 2 * len(make_windows(series.values, 12, 6))

    def test_three_copies_pairwise_distinct(self):
        corpus = wv.expand_dataset(self.make_series(), cfg_for("db4", levels=2, seed=9), copies=3)
        assert len(corpus) == 4
        variants = [entry.series.values for entry in corpus[1:]]
        for a in range(3):
            for b in range(a + 1, 3):
                assert not np.allclose(variants[a], variants[b])

    def test_provenance_roundtrips_through_json(self):
        corpus = wv.expand_dataset(self.make_series(), cfg_for("db4", levels=2, seed=4), copies=2)
        blob = json.dumps([entry.provenance for entry in corpus], sort_keys=True)
        restored = json.loads(blob)
        assert restored[0] == {"source": "original"}
        assert restored[1]["copy"] == 0
        assert restored[1]["factor_range"] == [0.5, 1.5]
        assert restored[2]["copy"] == 1
        assert restored[1]["base_seed"] == 4

    def test_copies_independent_of_generation_order(self):
        series = self.make_series()
        cfg = cfg_for("db4", levels=2, seed=31)
        full = wv.expand_dataset(series, cfg, copies=3)
        # regenerating fewer copies reproduces the same leading variants
        partial = wv.expand_dataset(series, cfg, copies=2)
        for k in range(1, 3):
            npt.assert_array_equal(partial[k].series.values, full[k].series.values)

    def test_zero_copies_rejected(self):
        with pytest.raises(ValueError, match="copies"):
            wv.expand_dataset(self.make_series(), cfg_for("haar"), copies=0)
