import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfl import evaluation as ev
from tfl.numeric import Rng

import oracles


def brute_force_metrics(pred, obs):
    """Scalar-loop reference implementation of all three metrics."""
    n = len(pred)
    abs_sum = 0.0
    sq_sum = 0.0
    obs_sum = 0.0
    for k in range(n):
        abs_sum += abs(pred[k] - obs[k])
        sq_sum += (pred[k] - obs[k]) ** 2
        obs_sum += abs(obs[k])
    return abs_sum / n, math.sqrt(sq_sum / n), abs_sum / obs_sum * 100.0


class TestMetrics:
    def test_perfect_prediction(self):
        p = np.array([1.0, 2.0, 3.0])
        assert ev.mae(p, p) == 0.0
        assert ev.rmse(p, p) == 0.0
        assert ev.wape(p, p) == 0.0

    def test_hand_values_symmetric_errors(self):
        p, o = np.array([2.0, 2.0]), np.array([1.0, 3.0])
        assert ev.mae(p, o) == 1.0
        assert ev.rmse(p, o) == 1.0
        assert ev.wape(p, o) == pytest.approx(50.0, abs=1e-12)

    def test_hand_values_different_errors_same_aggregate(self):
        p, o = np.array([0.0, 4.0]), np.array([1.0, 3.0])
        assert ev.mae(p, o) == 1.0
        assert ev.rmse(p, o) == 1.0
        assert ev.wape(p, o) == pytest.approx(50.0, abs=1e-12)

    def test_matches_brute_force_on_random_pairs(self):
        for seed in range(100):
            rng = Rng(seed)
            n = 1 + seed % 12
            p = rng.uniform_array(n, -10, 10)
            o = rng.uniform_array(n, 0.5, 10)
            bf_mae, bf_rmse, bf_wape = brute_force_metrics(p, o)
            assert abs(ev.mae(p, o) - bf_mae) < 1e-12
            assert abs(ev.rmse(p, o) - bf_rmse) < 1e-12
            assert abs(ev.wape(p, o) - bf_wape) < 1e-12
            assert ev.rmse(p, o) >= ev.mae(p, o)

    def test_zero_observations_reject_wape(self):
        with pytest.raises(ValueError, match="zero"):
            ev.wape(np.array([1.0]), np.array([0.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            ev.mae(np.zeros(2), np.zeros(3))

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=10),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=50, deadline=None)
    def test_wape_scale_invariance(self, values, factor):
        o = np.array([v + 200.0 for v in values])  # keep sum|o| > 0
        p = o + np.linspace(-1, 1, len(o))
        assert ev.wape(factor * p, factor * o) == pytest.approx(
            ev.wape(p, o), rel=1e-9)


class TestAccuracy:
    def test_table_arithmetic(self):
        assert oracles.accuracy(6.28) == pytest.approx(93.72, abs=1e-12)

    def test_zero_error_full_accuracy(self):
        assert oracles.accuracy(0.0) == 100.0

    def test_floor_at_zero(self):
        assert oracles.accuracy(120.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            oracles.accuracy(-1.0)


class TestPerStepTable:
    def test_perfect_predictions_zero_rows(self):
        targets = Rng(1).uniform_array(12, 0.5, 1.5).reshape(4, 3)
        table = ev.per_step_table(targets.copy(), targets)
        for row in table.per_step:
            assert row.mae == 0.0 and row.rmse == 0.0 and row.wape == 0.0
        assert table.average.mae == 0.0

    def test_single_window_degenerate_aggregation(self):
        p = np.array([[1.0, 2.0, 4.0]])
        o = np.array([[1.5, 1.0, 6.0]])
        table = ev.per_step_table(p, o)
        npt.assert_allclose([r.mae for r in table.per_step], [0.5, 1.0, 2.0])
        npt.assert_allclose([r.rmse for r in table.per_step], [0.5, 1.0, 2.0])

    def test_horizon_six_layout(self):
        rng = Rng(2)
        p = rng.uniform_array(30, 0.5, 1.5).reshape(5, 6)
        o = rng.uniform_array(30, 0.5, 1.5).reshape(5, 6)
        table = ev.per_step_table(p, o)
        assert table.horizon == 6
        assert len(table.per_step) == 6
        assert [r.step for r in table.per_step] == [1, 2, 3, 4, 5, 6]
        assert table.average.step == 0

    def test_average_row_is_mean_of_steps(self):
        rng = Rng(3)
        p = rng.uniform_array(40, 0.5, 1.5).reshape(5, 8)
        o = rng.uniform_array(40, 0.5, 1.5).reshape(5, 8)
        table = ev.per_step_table(p, o)
        for metric in ("mae", "rmse", "wape"):
            values = [getattr(r, metric) for r in table.per_step]
            assert getattr(table.average, metric) == pytest.approx(
                np.mean(values), abs=1e-12)

    def test_rmse_at_least_mae_on_random_tables(self):
        for seed in range(20):
            rng = Rng(seed)
            p = rng.uniform_array(24, -2, 2).reshape(4, 6)
            o = rng.uniform_array(24, 0.5, 2).reshape(4, 6)
            table = ev.per_step_table(p, o)
            for row in table.per_step:
                assert row.rmse >= row.mae

    def test_constant_error_is_not_a_numeric_failure(self):
        # every window misses by the same amount: RMSE == MAE exactly, yet
        # in floats RMSE rounds one ulp below MAE at some step
        o = Rng(1).uniform_array(199 * 3, 0.5, 1.5).reshape(199, 3)
        table = ev.per_step_table(o + 0.7, o)
        for row in table.per_step:
            assert row.rmse == pytest.approx(0.7, rel=1e-12)
            assert row.mae == pytest.approx(0.7, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            ev.per_step_table(np.zeros((3, 4)), np.zeros((3, 5)))

    def test_zero_windows_rejected(self):
        with pytest.raises(ValueError, match="at least one window"):
            ev.per_step_table(np.zeros((0, 4)), np.zeros((0, 4)))


class TestPersistence:
    def test_repeats_last_observation(self):
        inputs = np.array([[1.0, 2.0, 3.0], [5.0, 4.0, 9.0]])
        npt.assert_array_equal(
            oracles.persistence_forecast(inputs, 2),
            [[3.0, 3.0], [9.0, 9.0]],
        )


class TestIqr:
    def test_hand_convention(self):
        # linear interpolation at p*(n-1): q1 at 0.75 -> 1.75, q3 at 2.25 -> 3.25
        q1, q3, spread = ev.iqr([1.0, 2.0, 3.0, 4.0])
        assert (q1, q3, spread) == (1.75, 3.25, 1.5)

    def test_constant_values(self):
        q1, q3, spread = ev.iqr([7.0] * 6)
        assert spread == 0.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match=">= 4"):
            ev.iqr([1.0, 2.0, 3.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=30),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, values, rand):
        shuffled = list(values)
        rand.shuffle(shuffled)
        assert ev.iqr(shuffled) == ev.iqr(values)


class TestOutliers:
    def test_no_outliers_in_even_spread(self):
        assert ev.outliers([1.0, 2.0, 3.0, 4.0]) == []

    def test_far_point_flagged(self):
        flagged = ev.outliers([1.0, 2.0, 3.0, 4.0, 100.0])
        assert flagged == [(4, 100.0)]

    def test_constant_array_clean(self):
        assert ev.outliers([5.0] * 8) == []

    def test_within_one_iqr_of_median_never_flagged(self):
        for seed in range(30):
            rng = Rng(seed)
            deltas = rng.uniform_array(10, -1, 1)
            q1, q3, spread = ev.iqr(deltas)
            median = float(np.median(deltas))
            if spread > 0 and np.all(np.abs(deltas - median) <= spread):
                assert ev.outliers(deltas) == []


class TestImprovements:
    def table_from_wapes(self, wapes):
        rows = [ev.StepMetrics(step=k + 1, mae=0.1, rmse=0.1, wape=w)
                for k, w in enumerate(wapes)]
        avg = ev.StepMetrics(step=0, mae=0.1, rmse=0.1,
                             wape=float(np.mean(wapes)))
        return ev.MetricsTable(horizon=len(wapes), per_step=rows, average=avg)

    def test_identical_tables_zero_deltas(self):
        t = self.table_from_wapes([10.0, 11.0, 12.0, 13.0])
        stats = ev.improvements(t, t)
        npt.assert_array_equal(stats.deltas, np.zeros(4))
        assert stats.iqr == 0.0

    def test_average_improvement_matches_average_rows(self):
        before = self.table_from_wapes([18.452, 16.789, 16.604, 18.138, 17.800, 16.957])
        after = self.table_from_wapes([12.361, 12.191, 12.307, 12.323, 12.234, 12.262])
        stats = ev.improvements(before, after)
        assert float(np.mean(stats.deltas)) == pytest.approx(
            before.average.wape - after.average.wape, abs=1e-12)
        assert np.all(stats.deltas > 0)  # positive = error reduction

    def test_deltas_are_elementwise(self):
        before = self.table_from_wapes([20.0, 10.0, 30.0, 15.0])
        after = self.table_from_wapes([15.0, 12.0, 20.0, 15.0])
        stats = ev.improvements(before, after)
        npt.assert_allclose(stats.deltas, [5.0, -2.0, 10.0, 0.0])

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            ev.improvements(self.table_from_wapes([1.0] * 6),
                            self.table_from_wapes([1.0] * 9))

    def test_outlier_steps_are_one_based(self):
        before = self.table_from_wapes([10.0, 10.0, 10.0, 10.0, 10.0, 50.0])
        after = self.table_from_wapes([9.5, 9.6, 9.4, 9.5, 9.6, 10.0])
        stats = ev.improvements(before, after)
        assert [step for step, _ in stats.outliers] == [6]


class TestEmitReport:
    def make_table(self, seed=4, horizon=6):
        rng = Rng(seed)
        p = rng.uniform_array(horizon * 5, 0.3, 1.5).reshape(5, horizon)
        o = rng.uniform_array(horizon * 5, 0.3, 1.5).reshape(5, horizon)
        return ev.per_step_table(p, o)

    def test_csv_roundtrip(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "metrics.csv"
        ev.write_metrics_csv(table, path)
        restored = ev.parse_metrics_csv(path)
        assert restored.horizon == table.horizon
        for a, b in zip(restored.per_step, table.per_step):
            assert abs(a.mae - b.mae) < 1e-9
            assert abs(a.rmse - b.rmse) < 1e-9
            assert abs(a.wape - b.wape) < 1e-9
        assert abs(restored.average.wape - table.average.wape) < 1e-9

    def test_header_order_fixed(self, tmp_path):
        path = tmp_path / "metrics.csv"
        ev.write_metrics_csv(self.make_table(), path)
        assert path.read_text().splitlines()[0] == "step,mae,rmse,wape"

    def test_emit_writes_all_files(self, tmp_path):
        before, after = self.make_table(1), self.make_table(2)
        stats = ev.improvements(before, after)
        written = ev.emit_report({"before": before, "after": after}, stats, tmp_path)
        names = {p.name for p in written}
        assert {"before.csv", "after.csv", "improvement.csv", "summary.csv"} <= names
        assert "plot_before_wape.csv" in names
        assert (tmp_path / "improvement.csv").read_text().splitlines()[0] == \
            "step,delta_wape_pp"
        assert (tmp_path / "summary.csv").read_text().splitlines()[0] == \
            "q1,q3,iqr,n_outliers"

    def test_io_failure_surfaces_path(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        with pytest.raises((OSError, FileExistsError)):
            ev.emit_report({"t": self.make_table()}, None, target / "sub")
