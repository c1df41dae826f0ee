"""CSV ingest, hourly aggregation, splits, calendar features, noise."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from tpgn.data import (RawSeries, SplitSpec, aggregate_hourly,
                       apply_noise, load_csv, make_time_features,
                       save_csv, split_and_window, synthetic_sinusoid)
from tpgn.errors import ConfigError, DataError
from tpgn.model import SeriesWindow


def hourly(n, start="2021-03-01 00:00:00"):
    t0 = datetime.fromisoformat(start)
    return [t0 + timedelta(hours=i) for i in range(n)]


class TestLoadCsv:
    def test_happy_path(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,OT\n"
                     "2021-01-01 00:00:00,1.5\n"
                     "2021-01-01 01:00:00,2.5\n"
                     "2021-01-01 02:00:00,3.5\n")
        s = load_csv(p, "OT")
        assert len(s) == 3
        assert np.array_equal(s.values, [1.5, 2.5, 3.5])
        assert s.target_name == "OT"

    def test_missing_target_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,OT\n2021-01-01 00:00:00,1\n")
        with pytest.raises(DataError, match="wet_bulb"):
            load_csv(p, "wet_bulb")

    def test_duplicated_timestamp(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,v\n"
                     "2021-01-01 00:00:00,1\n"
                     "2021-01-01 00:00:00,2\n")
        with pytest.raises(DataError, match="2021-01-01 00:00:00"):
            load_csv(p, "v")

    def test_unparseable_row_is_located(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,v\n"
                     "2021-01-01 00:00:00,1\n"
                     "not-a-date,2\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p, "v")

    def test_bad_value_is_located(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,v\n2021-01-01 00:00:00,abc\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p, "v")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", "-Infinity"])
    def test_non_finite_value_is_located(self, tmp_path, cell):
        p = tmp_path / "a.csv"
        p.write_text(f"date,v\n2021-01-01 00:00:00,1\n2021-01-01 01:00:00,{cell}\n")
        with pytest.raises(DataError, match="row 3.*not finite"):
            load_csv(p, "v")

    def test_missing_file(self):
        with pytest.raises(DataError, match="no-such-file.csv"):
            load_csv("no-such-file.csv", "v")

    def test_empty_cells_become_missing(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,v\n"
                     "2021-01-01 00:00:00,1\n"
                     "2021-01-01 01:00:00,\n"
                     "2021-01-01 02:00:00,3\n")
        s = load_csv(p, "v")
        assert np.isnan(s.values[1])

    def test_rfc3339_timestamps(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,v\n"
                     "2021-01-01T00:00:00Z,1\n"
                     "2021-01-01T01:00:00+00:00,2\n")
        s = load_csv(p, "v")
        assert s.timestamps[1] - s.timestamps[0] == timedelta(hours=1)

    def test_out_of_order_rows_are_sorted(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,v\n"
                     "2021-01-01 01:00:00,2\n"
                     "2021-01-01 00:00:00,1\n")
        s = load_csv(p, "v")
        assert np.array_equal(s.values, [1.0, 2.0])

    def test_round_trip_with_save(self, tmp_path):
        s = synthetic_sinusoid(48, seed=3)
        path = tmp_path / "s.csv"
        save_csv(s, path)
        s2 = load_csv(path, "value")
        assert np.array_equal(s.values, s2.values)
        assert np.array_equal(s.timestamps, s2.timestamps)


class TestAggregateHourly:
    def test_quarter_hour_mean(self):
        t0 = datetime(2021, 1, 1, 0, 0)
        stamps = [t0 + timedelta(minutes=15 * i) for i in range(4)]
        s = RawSeries(stamps, [1.0, 2.0, 3.0, 4.0], "v")
        out = aggregate_hourly(s)
        assert len(out) == 1
        assert out.values[0] == 2.5

    def test_already_hourly_identity(self):
        s = RawSeries(hourly(5), [1.0, 2.0, 3.0, 4.0, 5.0], "v")
        out = aggregate_hourly(s)
        assert np.array_equal(out.values, s.values)
        assert np.array_equal(out.timestamps, s.timestamps)

    def test_gap_interpolation(self):
        stamps = [datetime(2021, 1, 1, 0), datetime(2021, 1, 1, 2)]
        s = RawSeries(stamps, [1.0, 3.0], "v")
        out = aggregate_hourly(s)
        assert len(out) == 3
        assert out.values[1] == 2.0  # linear fill for the empty hour

    def test_nan_only_hour_is_interpolated(self):
        s = RawSeries(hourly(3), [1.0, np.nan, 3.0], "v")
        out = aggregate_hourly(s)
        assert out.values[1] == 2.0

    def test_empty_series_is_a_data_error(self):
        with pytest.raises(DataError, match="no usable records"):
            aggregate_hourly(RawSeries([], [], "v"))

    def test_minutes_are_floored_to_the_hour(self):
        t0 = datetime(2021, 1, 1, 0, 30)
        s = RawSeries([t0, t0 + timedelta(minutes=10)], [2.0, 4.0], "v")
        out = aggregate_hourly(s)
        assert out.timestamps == [datetime(2021, 1, 1, 0, 0)]
        assert out.values[0] == 3.0


class TestSplitAndWindow:
    def test_split_lengths_6_2_2(self):
        from tpgn.data import split_points

        assert split_points(10) == (6, 2, 2)
        assert split_points(17420) == (10452, 3484, 3484)

    def test_window_count_on_length_6_split(self):
        from tpgn.data import windows_of

        ws = windows_of(np.arange(1.0, 7.0), l_h=2, l_f=1)
        assert len(ws) == 6 - 2 - 1 + 1

    def test_window_contents(self):
        from tpgn.data import windows_of

        ws = windows_of(np.arange(1.0, 7.0), l_h=2, l_f=1)
        assert np.array_equal(ws[0].x_1d, [1.0, 2.0])
        assert np.array_equal(ws[0].y_true, [3.0])
        assert np.array_equal(ws[3].x_1d, [4.0, 5.0])

    def test_window_count_formula(self):
        n = 200
        s = RawSeries(hourly(n), np.random.default_rng(0).uniform(size=n), "v")
        spec = SplitSpec(l_h=24, l_f=12)
        train, val, test = split_and_window(s, spec)
        assert len(train) == 120 - 24 - 12 + 1
        assert len(val) == 40 - 24 - 12 + 1
        assert len(test) == 40 - 24 - 12 + 1

    def test_no_leakage_across_splits(self):
        n = 120
        stamps = hourly(n)
        s = RawSeries(stamps, np.arange(float(n)), "v")
        train, val, test = split_and_window(s, SplitSpec(l_h=8, l_f=4))
        # values are the index, so each target value names its timestamp
        last_train_time = stamps[int(max(w.y_true.max() for w in train))]
        first_test_time = stamps[int(min(w.y_true.min() for w in test))]
        assert first_test_time > last_train_time
        assert train[-1].y_true[-1] < test[0].x_1d[0]

    def test_windows_are_views_of_the_split(self):
        from tpgn.data import windows_of

        values, feats = np.arange(1.0, 7.0), np.zeros((6, 2))
        for w in windows_of(values, l_h=2, l_f=1, feats=feats):
            assert np.shares_memory(w.x_1d, values)
            assert np.shares_memory(w.y_true, values)
            assert np.shares_memory(w.tf_enc, feats)
        s = RawSeries(hourly(60), np.arange(60.0), "v")
        for split in split_and_window(s, SplitSpec(l_h=4, l_f=2)):
            assert all(np.shares_memory(w.x_1d, s.values) for w in split)

    def test_too_short_split_rejected(self):
        s = RawSeries(hourly(30), np.zeros(30), "v")
        with pytest.raises(ConfigError, match="split"):
            split_and_window(s, SplitSpec(l_h=8, l_f=4))

    def test_features_attached(self):
        s = RawSeries(hourly(60), np.zeros(60), "v")
        train, _, _ = split_and_window(s, SplitSpec(l_h=4, l_f=2))
        assert train[0].tf_enc.shape == (4, 4)
        assert np.all(np.abs(train[0].tf_enc) <= 0.5)


class TestTimeFeatures:
    def test_hour_endpoints(self):
        f = make_time_features([datetime(2021, 6, 15, 0), datetime(2021, 6, 15, 23)])
        assert f[0, 0] == -0.5
        assert f[1, 0] == 0.5

    def test_weekday_endpoints(self):
        monday = datetime(2021, 3, 1)  # a Monday
        sunday = datetime(2021, 3, 7)
        f = make_time_features([monday, sunday])
        assert f[0, 1] == -0.5
        assert f[1, 1] == 0.5

    def test_day_of_month_start(self):
        f = make_time_features([datetime(2021, 5, 1), datetime(2021, 5, 31)])
        assert f[0, 2] == -0.5
        assert f[1, 2] == 0.5

    def test_day_of_year_start(self):
        f = make_time_features([datetime(2021, 1, 1)])
        assert f[0, 3] == -0.5

    def test_all_features_bounded(self):
        stamps = hourly(24 * 400, start="2020-01-01 00:00:00")
        f = make_time_features(stamps)
        assert np.all(f >= -0.5) and np.all(f <= 0.5)


class TestNoise:
    def window(self, values):
        values = np.asarray(values, dtype=float)
        return SeriesWindow(x_1d=values, tf_enc=np.zeros((len(values), 0)),
                            y_true=np.zeros(2))

    def noisy(self, window, epsilon, seed):
        """``window`` through ``apply_noise`` as window 0 of its set."""
        return apply_noise([window], epsilon, seed)[0]

    def test_zero_epsilon_identity(self):
        # floor(epsilon * 8) = 0 points drawn: the window itself comes back
        w = self.window(np.arange(8.0))
        for epsilon in (0.0, 0.1):
            assert self.noisy(w, epsilon, 1) is w

    def test_zero_value_unchanged(self):
        w = self.window(np.zeros(8))
        out = self.noisy(w, 1.0, 2)
        assert np.array_equal(out.x_1d, np.zeros(8))

    def test_full_epsilon_interval(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.5, 2.0, 64)
        w = self.window(values)
        out = self.noisy(w, 1.0, 4)
        assert np.all(out.x_1d >= -values - 1e-12)
        assert np.all(out.x_1d <= 3.0 * values + 1e-12)
        assert not np.array_equal(out.x_1d, values)

    def test_fraction_of_points_touched(self):
        values = np.ones(100)
        out = self.noisy(self.window(values), 0.25, 5)
        changed = np.sum(out.x_1d != values)
        assert changed <= 25  # floor(eps * L) distinct indices, some draws may be ~0
        assert changed >= 20

    def test_targets_and_features_untouched(self):
        w = SeriesWindow(x_1d=np.ones(8), tf_enc=np.full((8, 2), 0.25),
                         y_true=np.arange(2.0))
        out = self.noisy(w, 0.5, 6)
        assert np.array_equal(out.y_true, w.y_true)
        assert np.array_equal(out.tf_enc, w.tf_enc)

    def test_bitwise_reproducible(self):
        w = self.window(np.random.default_rng(7).uniform(-2, 2, 32))
        a = self.noisy(w, 0.5, 123).x_1d
        b = self.noisy(w, 0.5, 123).x_1d
        assert np.array_equal(a, b)

    def test_apply_noise_derives_per_window_seeds(self):
        ws = [self.window(np.ones(8)) for _ in range(3)]
        out = apply_noise(ws, 0.5, 50)
        assert not np.array_equal(out[0].x_1d, out[1].x_1d)
        again = apply_noise(ws, 0.5, 50)
        for a, b in zip(out, again):
            assert np.array_equal(a.x_1d, b.x_1d)
        # window i draws with seed + i, as window 0 of its own set
        assert np.array_equal(out[2].x_1d, self.noisy(ws[2], 0.5, 52).x_1d)

    def test_epsilon_out_of_range(self):
        # checked before any window is looked at, even with no windows
        for epsilon in (-0.1, 1.5, float("nan")):
            with pytest.raises(ConfigError, match="epsilon"):
                apply_noise([], epsilon, 0)


class TestSynthetic:
    def test_period_structure(self):
        s = synthetic_sinusoid(96, period=24.0)
        assert np.allclose(s.values[:24], s.values[24:48], atol=1e-12)

    def test_phase_drift_breaks_repetition(self):
        s = synthetic_sinusoid(96, period=24.0, phase_drift=0.05)
        assert not np.allclose(s.values[:24], s.values[24:48], atol=1e-3)

    def test_hourly_timestamps(self):
        s = synthetic_sinusoid(10)
        deltas = {b - a for a, b in zip(s.timestamps, s.timestamps[1:])}
        assert deltas == {timedelta(hours=1)}

    @pytest.mark.parametrize("kwargs", [
        {"n_hours": 0}, {"period": 0.0}, {"period": -24.0}, {"period": float("nan")},
        {"period": float("inf")}, {"amplitude": float("nan")}, {"mean": float("inf")},
        {"phase_drift": float("nan")}, {"noise": -1.0}, {"noise": float("nan")},
    ], ids=str)
    def test_bad_setting_rejected(self, kwargs):
        args = {"n_hours": 48, **kwargs}
        with pytest.raises(ConfigError):
            synthetic_sinusoid(args.pop("n_hours"), **args)


class TestRawSeries:
    def test_strictly_increasing_enforced(self):
        t = hourly(3)
        with pytest.raises(DataError, match="increasing"):
            RawSeries([t[0], t[2], t[1]], np.zeros(3), "v")

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            RawSeries(hourly(3), np.zeros(2), "v")


class TestStandardize:
    def test_train_split_statistics_only(self):
        from tpgn.data import standardize_series

        n = 100
        values = np.concatenate([np.zeros(60), np.full(40, 100.0)])
        values[:60] = np.random.default_rng(0).normal(5.0, 2.0, 60)
        s = RawSeries(hourly(n), values, "v")
        scaled, mean, std = standardize_series(s)
        head = values[:60]
        assert mean == head.mean()
        assert std == head.std()
        # the test region is scaled with the SAME statistics (no leakage)
        assert np.allclose(scaled.values[60:], (100.0 - mean) / std)

    def test_scaled_train_split_is_zero_mean_unit_std(self):
        from tpgn.data import standardize_series

        s = synthetic_sinusoid(500, period=24.0, mean=7.0, amplitude=3.0)
        scaled, _, _ = standardize_series(s)
        head = scaled.values[:300]
        assert abs(head.mean()) < 1e-12
        assert abs(head.std() - 1.0) < 1e-12

    def test_constant_train_split_rejected(self):
        from tpgn.data import standardize_series

        s = RawSeries(hourly(50), np.ones(50), "v")
        with pytest.raises(DataError, match="constant"):
            standardize_series(s)
