from datetime import datetime, timedelta, timezone

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfl import dataset as ds
from tfl.cli import main
from tfl.errors import DataError

import oracles


EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MICROSECOND = timedelta(microseconds=1)


def write_lines(path, rows):
    path.write_text("\n".join(rows) + "\n")
    return path


class TestLoadCsv:
    def test_well_formed_file(self, tmp_path):
        path = write_lines(tmp_path / "series.csv", [
            "timestamp,bps",
            "2024-01-01T00:00:00Z,100.0",
            "2024-01-01T00:05:00Z,200.0",
            "2024-01-01T00:10:00Z,300.0",
        ])
        series, warnings = ds.load_csv(path)
        assert warnings == 0
        npt.assert_array_equal(series.values, [100.0, 200.0, 300.0])
        assert series.interval == 300.0
        assert series.start == datetime(2024, 1, 1, tzinfo=timezone.utc)

    def test_epoch_second_timestamps(self, tmp_path):
        path = write_lines(tmp_path / "series.csv", [
            "timestamp,bps", "0,5.0", "300,6.0", "600,7.0",
        ])
        series, _ = ds.load_csv(path)
        npt.assert_array_equal(series.values, [5.0, 6.0, 7.0])

    def test_digits_only_stamp_is_epoch_seconds(self, tmp_path):
        path = write_lines(tmp_path / "series.csv", ["timestamp,bps", "20240101,5.0", "20240401,6.0"])
        series, _ = ds.load_csv(path)
        assert series.start == EPOCH + timedelta(seconds=20240101)
        assert series.interval == 300.0

    def test_gap_interpolated_with_warning(self, tmp_path):
        path = write_lines(tmp_path / "series.csv", [
            "timestamp,bps", "0,10.0", "300,20.0", "900,40.0",
        ])
        series, warnings = ds.load_csv(path)
        assert warnings == 1
        npt.assert_allclose(series.values, [10.0, 20.0, 30.0, 40.0])

    def test_negative_value_rejected(self, tmp_path):
        path = write_lines(tmp_path / "series.csv", [
            "timestamp,bps", "0,10.0", "300,-1.0",
        ])
        with pytest.raises(DataError, match="negative"):
            ds.load_csv(path)

    def test_unparseable_row_reports_line(self, tmp_path):
        path = write_lines(tmp_path / "series.csv", [
            "timestamp,bps", "0,10.0", "300,not-a-number",
        ])
        with pytest.raises(DataError, match="line 3"):
            ds.load_csv(path)

    @pytest.mark.parametrize("stamps, message", [
        # past datetime's year 9999
        (["1000000000000000", "1000000000000300"], "first timestamp out of range"),
        # starts in 9999 and runs past its end
        ([str(253402298800 + 60 * k) for k in range(40)], "last timestamp out of range"),
        # a gap beyond float range
        (["0", "1" + "0" * 310], "line 3: unparseable row"),
    ])
    def test_out_of_range_timestamp_is_data_error(self, tmp_path, capsys, stamps, message):
        path = write_lines(tmp_path / "series.csv", ["timestamp,bps"] + [f"{t},1.0" for t in stamps])
        with pytest.raises(DataError, match=message):
            ds.load_csv(path)
        assert main(["stats", "--data", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:"), err

    def test_non_monotone_rejected(self, tmp_path):
        path = write_lines(tmp_path / "series.csv", [
            "timestamp,bps", "600,10.0", "300,20.0",
        ])
        with pytest.raises(DataError, match="non-monotone"):
            ds.load_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = write_lines(tmp_path / "series.csv", ["0,10.0", "300,20.0"])
        with pytest.raises(DataError, match="header"):
            ds.load_csv(path)

    def test_write_then_load_roundtrip(self, tmp_path):
        series = ds.TimeSeries(np.array([1.25, 2.5e8, 3.0]), interval=300.0)
        path = tmp_path / "out.csv"
        ds.write_csv(series, path)
        loaded, warnings = ds.load_csv(path)
        assert warnings == 0
        npt.assert_array_equal(loaded.values, series.values)

    @pytest.mark.parametrize("stamps, interval", [
        (["00:00:00", "00:00:00.500", "00:00:01", "00:00:01.500"], 0.5),
        (["00:00:00.123", "00:05:00.123", "00:10:00.123", "00:15:00.123"], 300.0),
    ])
    def test_sub_second_grid_roundtrip(self, tmp_path, stamps, interval):
        values = [1.0, 2.5, 4.0, 8.25]
        original, _ = ds.load_csv(write_lines(tmp_path / "in.csv", ["timestamp,bps"] + [
            f"2024-01-01T{t}Z,{v!r}" for t, v in zip(stamps, values)]))
        assert original.interval == interval
        assert original.start == datetime.fromisoformat(f"2024-01-01T{stamps[0]}+00:00")
        ds.write_csv(original, tmp_path / "out.csv")
        loaded, warnings = ds.load_csv(tmp_path / "out.csv")
        assert warnings == 0
        npt.assert_array_equal(loaded.values, values)
        assert (loaded.start, loaded.interval) == (original.start, original.interval)

    def test_tenth_second_grid_loads_uniform_and_rewrites_byte_for_byte(self, tmp_path):
        # 0.1 s is not a binary fraction: float epoch seconds near 1.7e9 made
        # these gaps unequal by more than the whole-step tolerance
        start = datetime(2024, 1, 1, tzinfo=timezone.utc)
        text = "timestamp,bps\r\n" + "".join(
            f"{start + timedelta(microseconds=100_000 * k):%Y-%m-%dT%H:%M:%S.%fZ},{k + 0.5!r}\r\n"
            for k in range(20000))
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        series, warnings = ds.load_csv(path)
        assert (series.interval, warnings, len(series)) == (0.1, 0, 20000)
        ds.write_csv(series, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == text.encode()

    def test_whole_second_csv_rewritten_byte_for_byte(self, tmp_path):
        text = "timestamp,bps\r\n" + "".join(
            f"2024-03-10T0{h}:{m}0:00Z,{100.0 * h + m + 0.25!r}\r\n" for h in range(3) for m in range(6))
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        ds.write_csv(ds.load_csv(path)[0], tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == text.encode()


class TestWriteCsvMatchesRowLoop:
    """The block writer against the row-at-a-time ``csv.writer`` oracle."""

    @given(
        # the longest grid here spans about 8.2 years
        start=st.datetimes(datetime(1000, 1, 1), datetime(9990, 12, 31), timezones=st.just(timezone.utc)),
        whole_start=st.booleans(),
        interval=st.one_of(st.sampled_from([0.1, 0.3, 0.5, 1.0, 60.0, 300.0, 1 / 3, 1e-6, 2.5e-7]),
                           st.integers(1, 86_400).map(float),
                           st.floats(1e-7, 1e4, allow_nan=False)),
        length=st.integers(1, 3000),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_byte_identical(self, tmp_path_factory, start, whole_start, interval, length, seed):
        if whole_start:
            start = start.replace(microsecond=0)
        values = np.random.default_rng(seed).uniform(0.0, 1e9, length)
        values[::7] = np.round(values[::7])
        series = ds.TimeSeries(values, start=start, interval=interval)
        out = tmp_path_factory.mktemp("csv")
        ds.write_csv(series, out / "got.csv")
        oracles.write_csv(series, out / "expected.csv")
        assert (out / "got.csv").read_bytes() == (out / "expected.csv").read_bytes()

    def test_empty_series_writes_header(self, tmp_path):
        ds.write_csv(ds.TimeSeries(np.array([])), tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == b"timestamp,bps\r\n"

    def test_years_before_1000_are_zero_padded_and_read_back(self, tmp_path):
        # strftime writes year 702 as "702", which fromisoformat rejects
        original, _ = ds.load_csv(write_lines(tmp_path / "in.csv", ["timestamp,bps"] + [
            f"{-40_000_000_000 + 300 * k},{k + 1.5!r}" for k in range(30)]))
        assert original.start.year == 702
        ds.write_csv(original, tmp_path / "out.csv")
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[1] == "0702-06-15T00:53:20Z,1.5"
        loaded, warnings = ds.load_csv(tmp_path / "out.csv")
        assert warnings == 0
        npt.assert_array_equal(loaded.values, original.values)
        assert (loaded.start, loaded.interval) == (original.start, original.interval)

    def test_last_stamp_past_9999_fails_before_the_file_is_opened(self, tmp_path):
        series = ds.TimeSeries(np.ones(40), start=datetime(9999, 12, 31, 23, 50, tzinfo=timezone.utc),
                               interval=60.0)
        with pytest.raises(DataError, match="last timestamp out of range"):
            ds.write_csv(series, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()


def scalar_gap_fill(path, gaps, values, step):
    """Per-row gap fill, one interpolated slot at a time: the oracle for the
    vectorised fill in load_csv."""
    filled, warnings = [values[0]], 0
    for k, delta in enumerate(gaps):
        m = delta / step
        m_int = round(m)
        if m_int < 1 or abs(m - m_int) > 1e-6:
            raise DataError(f"{path}: timestamp gap of {delta}s at row {k + 2} is not a "
                            f"multiple of the {step}s interval")
        for j in range(1, m_int):
            filled.append(values[k] + (values[k + 1] - values[k]) * j / m_int)
            warnings += 1
        filled.append(values[k + 1])
    return np.array(filled), warnings


def random_gap_csv(path, seed, bad_gaps=0, step=300.0):
    """A seeded CSV on a grid of ``step`` seconds with random gaps of 1-12
    steps (and ``bad_gaps`` gaps that are not a whole number of them);
    returns the gaps in seconds between the times the file holds, from
    their exact microseconds, and the values.  Integral times are written
    as epoch seconds, others as ISO-8601 with microseconds."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    # gaps in ticks of step/300, so bad gaps of 1.5, 3.5 and 1 +- 1/300 steps are integers
    ticks = np.where(rng.random(n - 1) < 0.8, 1, rng.integers(1, 13, n - 1)) * 300
    for k in rng.integers(0, n - 1, bad_gaps):
        ticks[k] = int(rng.choice([450, 1050, 301, 299]))
    exact = (np.concatenate([[0], np.cumsum(ticks)]) * step / 300).tolist()
    if all(t.is_integer() for t in exact):
        stamps = [str(int(t)) for t in exact]
        micros = [int(t) * 10 ** 6 for t in exact]
    else:
        stamps = [datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")
                  for t in exact]
        micros = [(datetime.fromisoformat(s.replace("Z", "+00:00")) - EPOCH) // MICROSECOND
                  for s in stamps]
    values = (rng.random(n) * 10.0 ** rng.integers(0, 10, n)).tolist()
    write_lines(path, ["timestamp,bps"] + [f"{t},{v!r}" for t, v in zip(stamps, values)])
    return np.diff(micros) / 1e6, values


class TestGapFillMatchesScalarLoop:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("step", [300.0, 150.0, 100.0, 0.5])
    def test_bitwise_equal_on_random_gaps(self, tmp_path, seed, step):
        path = tmp_path / "gaps.csv"
        gaps, values = random_gap_csv(path, seed, step=step)
        step = float(gaps.min())
        expected, expected_warnings = scalar_gap_fill(path, gaps, values, step)
        series, warnings = ds.load_csv(path)
        assert warnings == expected_warnings
        npt.assert_array_equal(series.values.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("step", [300.0, 0.5])
    def test_first_bad_gap_reported_like_scalar_loop(self, tmp_path, seed, step):
        path = tmp_path / "gaps.csv"
        gaps, values = random_gap_csv(path, seed, bad_gaps=3, step=step)
        step = float(gaps.min())
        with pytest.raises(DataError) as expected:
            scalar_gap_fill(path, gaps, values, step)
        with pytest.raises(DataError) as got:
            ds.load_csv(path)
        assert str(got.value) == str(expected.value)


# CSVs whose gap fill cannot be allocated at all, and the slot total each names
UNFILLABLE = {
    # more than 2^63 slots: an int64 cast would wrap
    "int64_overflow": (["0", "300", "30000000000000000000000"], "100000000000000000000 slots"),
    # the gap over a microsecond step overflows the float ratio itself
    "infinite_ratio": (["0", "1970-01-01T00:00:00.000001Z", "1" + "0" * 308], "inf slots"),
    # about 10^15 slots (8 PB): numpy refuses the allocation
    "allocation_refused": (["0", "1", "1000000000000001"], "1000000000000002 slots"),
}


class TestUnfillableGap:
    @pytest.mark.parametrize("case", sorted(UNFILLABLE))
    def test_data_error_names_row_and_slots(self, tmp_path, capsys, case):
        stamps, slots = UNFILLABLE[case]
        path = write_lines(tmp_path / "gap.csv", ["timestamp,bps"] + [f"{t},5.0" for t in stamps])
        with pytest.raises(DataError, match=f"row 3 makes a grid of {slots}"):
            ds.load_csv(path)
        assert main(["stats", "--data", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:"), err
        assert "Warning" not in err[0]


class TestSummaryStats:
    def test_constant_series_signals_undefined_skewness(self):
        stats = ds.summary_stats(np.array([1.0, 1.0, 1.0, 1.0]))
        assert stats.mean == 1.0
        assert stats.std == 0.0
        assert stats.var == 0.0
        assert stats.skewness is None

    def test_symmetric_data_zero_skewness(self):
        stats = ds.summary_stats(np.array([1.0, 2.0, 3.0]))
        assert abs(stats.skewness) < 1e-12

    def test_population_moments(self):
        # population (not sample) variance: mean of squared deviations
        stats = ds.summary_stats(np.array([1.0, 3.0]))
        assert stats.var == 1.0
        assert stats.std == 1.0

    def test_standard_normal_sample(self):
        rng = np.random.default_rng(42)
        stats = ds.summary_stats(rng.normal(size=10_000))
        assert abs(stats.mean) < 0.05
        assert abs(stats.std - 1.0) < 0.05
        assert abs(stats.skewness) < 0.1

    def test_var_is_std_squared(self):
        rng = np.random.default_rng(3)
        stats = ds.summary_stats(rng.uniform(1, 9, size=500))
        assert abs(stats.var - stats.std ** 2) < 1e-9 * stats.var

    def test_short_series_rejected(self):
        with pytest.raises(DataError, match=">= 2"):
            ds.summary_stats(np.array([1.0]))


class TestScaler:
    def test_endpoints(self):
        params = ds.fit_scaler(np.array([10.0, 20.0, 30.0]))
        assert ds.scale(np.array([10.0]), params)[0] == 0.0
        assert ds.scale(np.array([30.0]), params)[0] == 1.0

    @given(st.lists(st.floats(-1e9, 1e9), min_size=2, max_size=50).filter(
        lambda v: max(v) > min(v)))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, values):
        arr = np.array(values)
        params = ds.fit_scaler(arr)
        npt.assert_allclose(ds.inverse_scale(ds.scale(arr, params), params), arr,
                            rtol=1e-12, atol=1e-12 * max(1.0, np.abs(arr).max()))

    def test_out_of_range_values_allowed(self):
        params = ds.fit_scaler(np.array([0.0, 10.0]))
        out = ds.scale(np.array([-5.0, 15.0]), params)
        assert out[0] < 0.0 and out[1] > 1.0

    def test_constant_train_rejected(self):
        with pytest.raises(DataError, match="constant"):
            ds.fit_scaler(np.array([4.0, 4.0, 4.0]))


class TestMakeWindows:
    def test_window_count_formula(self):
        windows = ds.make_windows(np.arange(10.0), 3, 2)
        assert len(windows) == 6  # 10 - 3 - 2 + 1

    def test_exact_fit_single_window(self):
        windows = ds.make_windows(np.arange(5.0), 3, 2)
        assert len(windows) == 1

    def test_first_window_alignment(self):
        windows = ds.make_windows(np.arange(10.0), 3, 2)
        npt.assert_array_equal(windows.inputs[0], [0.0, 1.0, 2.0])
        npt.assert_array_equal(windows.targets[0], [3.0, 4.0])

    def test_widths_are_read_from_the_arrays(self):
        windows = ds.make_windows(np.arange(10.0), 3, 2)
        assert (windows.n_past, windows.n_future) == (3, 2)
        with pytest.raises(AttributeError):
            windows.n_past = 4
        empty = ds.WindowedDataset(np.empty((0, 8)), np.empty((0, 3)))
        assert (empty.n_past, empty.n_future) == (8, 3)

    def test_too_short_reports_minimum(self):
        with pytest.raises(DataError, match="n_past \\+ n_future = 5"):
            ds.make_windows(np.arange(4.0), 3, 2)

    @given(st.integers(5, 40), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_windows_reconstruct_series(self, length, n_past, n_future):
        if length < n_past + n_future:
            length = n_past + n_future
        values = np.arange(float(length))
        w = ds.make_windows(values, n_past, n_future)
        rebuilt = np.concatenate([
            w.inputs[:, 0], w.inputs[-1, 1:], w.targets[-1],
        ])
        npt.assert_array_equal(rebuilt, values)


class TestSplit:
    def test_ratio_point(self):
        series = ds.TimeSeries(np.arange(100.0))
        train, test = ds.split(series, 0.8)
        assert len(train) == 80 and len(test) == 20

    def test_chronology(self):
        series = ds.TimeSeries(np.arange(50.0))
        train, test = ds.split(series, 0.5)
        train_end = train.start.timestamp() + (len(train) - 1) * train.interval
        assert train_end < test.start.timestamp()
        npt.assert_array_equal(np.concatenate([train.values, test.values]),
                               series.values)

    def test_no_window_straddles_the_cut(self):
        series = ds.TimeSeries(np.arange(40.0))
        train, test = ds.split(series, 0.5)
        w_train = ds.make_windows(train.values, 3, 2)
        w_test = ds.make_windows(test.values, 3, 2)
        assert w_train.targets.max() < test.values.min()
        assert w_test.inputs.min() >= test.values.min()

    def test_min_points_guard(self):
        series = ds.TimeSeries(np.arange(20.0))
        with pytest.raises(DataError, match="shorter than"):
            ds.split(series, 0.9, min_points=5)

    def test_bad_ratio_rejected(self):
        series = ds.TimeSeries(np.arange(10.0))
        for ratio in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="ratio"):
                ds.split(series, ratio)


class TestConcatWindows:
    def test_counts_add_up(self):
        a = ds.make_windows(np.arange(10.0), 3, 2)
        b = ds.make_windows(np.arange(8.0), 3, 2)
        merged = ds.concat_windows([a, b])
        assert len(merged) == len(a) + len(b)

    def test_mismatched_shapes_rejected(self):
        a = ds.make_windows(np.arange(10.0), 3, 2)
        b = ds.make_windows(np.arange(10.0), 4, 2)
        with pytest.raises(ValueError, match="disagree"):
            ds.concat_windows([a, b])


class TestSynth:
    def test_flat_profile_constant(self):
        profile = ds.SynthProfile(base_bps=5e8)
        series = ds.synth(profile, 100)
        npt.assert_array_equal(series.values, np.full(100, 5e8))

    def test_daily_cycle_autocorrelation(self):
        # noise-free daily profile: correlation at one full period beats the
        # half-period correlation
        profile = ds.SynthProfile(base_bps=5e8, daily_amp=2e8)
        v = ds.synth(profile, 2000).values

        def autocorr(lag):
            a, b = v[:-lag], v[lag:]
            return np.corrcoef(a, b)[0, 1]

        assert autocorr(288) > autocorr(144)

    def test_same_seed_identical(self):
        profile = ds.SynthProfile(base_bps=1e8, daily_amp=3e7, noise_std=1e6, seed=9)
        npt.assert_array_equal(ds.synth(profile, 500).values,
                               ds.synth(profile, 500).values)

    @pytest.mark.parametrize("noise", [-1.0, -5e7, float("nan"), float("inf")])
    def test_negative_or_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValueError, match=f"noise_std must be finite and >= 0, got {noise}"):
            ds.SynthProfile(base_bps=5e8, noise_std=noise)

    def test_negative_profile_rejected(self):
        profile = ds.SynthProfile(base_bps=1e6, daily_amp=2e6)
        with pytest.raises(DataError, match="negative"):
            ds.synth(profile, 500)

    def test_trend_and_weekly_components(self):
        profile = ds.SynthProfile(base_bps=1e8, weekly_amp=1e7, trend_per_day=1e6)
        v = ds.synth(profile, 4032).values
        # trend: second week sits above the first by roughly 7 days of drift
        assert v[2016:].mean() - v[:2016].mean() == pytest.approx(7e6, rel=0.05)
