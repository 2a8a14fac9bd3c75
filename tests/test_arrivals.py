"""Order intensity: hourly profile, daily volume and Poisson truncation."""

import hashlib
import math
import tracemalloc
from datetime import date, datetime, timedelta

import mpmath
import numpy as np
import pytest
from scipy import stats

from pupcast import EventLog, ParcelRecord, Timebase
from pupcast.arrivals import (
    DailyVolumeModel,
    HourlyProfile,
    OrderIntensity,
    fit_daily_volume,
    fit_hourly_profile,
    forecast_daily_volume,
    poisson_pmf,
    poisson_rows,
    poisson_truncation,
    seasonal_mean_forecaster,
)
from pupcast.errors import EmptyLog, InsufficientHistory, ValidationError

from helpers import TB


def takeover(pid, carrier, t):
    return ParcelRecord(pid, carrier, "shop", "r1", {2: t})


def log_of(recs, cutoff=10_000):
    return EventLog(recs, cutoff=cutoff, timebase=TB)


class TestHourlyProfile:
    def test_single_spike(self):
        recs = [takeover(f"P{i}", "c1", 8 + 168 * i) for i in range(3)]  # Mondays 08:00
        profile = fit_hourly_profile(log_of(recs), status=2)
        assert profile.proportion(1, 8, "c1") == 1.0
        assert profile.proportion(1, 9, "c1") == 0.0

    def test_two_equal_spikes(self):
        recs = [takeover("P1", "c1", 8), takeover("P2", "c1", 14)]
        profile = fit_hourly_profile(log_of(recs), status=2)
        assert profile.proportion(1, 8, "c1") == 0.5
        assert profile.proportion(1, 14, "c1") == 0.5

    def test_direct_counts(self):
        t_tue = 24  # Tuesday 00:00
        recs = [takeover(f"P{i}", "c1", t_tue + 8) for i in range(3)]
        recs.append(takeover("P4", "c1", t_tue + 9))
        profile = fit_hourly_profile(log_of(recs), status=2)
        assert profile.proportion(2, 8, "c1") == 0.75
        assert profile.proportion(2, 9, "c1") == 0.25

    def test_rows_sum_to_one_or_zero(self):
        rng = np.random.default_rng(1)
        recs = [
            takeover(f"P{i}", c, int(t))
            for i, (c, t) in enumerate(
                (("c1", t) for t in rng.integers(0, 1000, 60)),
            )
        ]
        profile = fit_hourly_profile(log_of(recs), status=2)
        for (w, c), row in profile.rho.items():
            total = row.sum()
            assert total == 0.0 or abs(total - 1.0) <= 1e-9

    def test_sunday_zero_and_empty_weekday_uniform(self):
        recs = [takeover("P1", "c1", 8), takeover("P2", "c1", 14)]  # Monday only
        profile = fit_hourly_profile(log_of(recs), status=2)
        assert profile.proportion(7, 10, "c1") == 0.0  # Sunday: not a working day
        # Tuesday has no data: uniform over the carrier's active hours {8, 14}
        assert profile.proportion(2, 8, "c1") == 0.5
        assert profile.proportion(2, 14, "c1") == 0.5

    def test_empty_log(self):
        with pytest.raises(EmptyLog):
            fit_hourly_profile(log_of([ParcelRecord("P", "c1", "shop", None, {3: 5})]), status=2)

    def test_validation_and_json(self):
        with pytest.raises(ValidationError):
            HourlyProfile({(1, "c1"): np.full(24, 0.1)})
        bad_one = np.zeros(24)
        bad_one[[8, 9]] = [np.nan, 1.0]
        for bad in (np.full(24, np.nan), bad_one):  # abs(nan - 1) > tol is False
            with pytest.raises(ValidationError):
                HourlyProfile({(1, "c1"): bad})
        row = np.zeros(24)
        row[8] = 1.0
        profile = HourlyProfile({(1, "c1"): row})
        back = HourlyProfile.from_json_dict(profile.to_json_dict())
        assert np.array_equal(back.rho[(1, "c1")], row)


class TestDailyVolume:
    def test_constant_history_forecast(self):
        model = DailyVolumeModel({"c1": np.full(28, 10.0)}, start=date(2024, 1, 1))
        out = forecast_daily_volume(model, 7)
        assert np.allclose(out["c1"], 10.0)

    def test_weekly_pattern(self):
        pattern = np.array([12, 10, 10, 10, 10, 8, 0], dtype=float)
        model = DailyVolumeModel({"c1": np.tile(pattern, 4)}, start=date(2024, 1, 1))
        out = forecast_daily_volume(model, 7)["c1"]
        assert np.max(np.abs(out - pattern)) <= 0.5

    def test_all_zero_history(self):
        model = DailyVolumeModel({"c1": np.zeros(21)}, start=date(2024, 1, 1))
        assert np.allclose(forecast_daily_volume(model, 3)["c1"], 0.0)

    def test_insufficient_history(self):
        model = DailyVolumeModel({"c1": np.full(10, 5.0)}, start=date(2024, 1, 1))
        with pytest.raises(InsufficientHistory):
            forecast_daily_volume(model, 2)

    def test_forecasts_clipped_at_zero(self):
        fc = seasonal_mean_forecaster(n_weeks=2, trend_damping=1.0)
        history = np.concatenate([np.full(7, 20.0), np.full(7, 1.0)])
        out = fc(history, 14)
        assert np.all(out >= 0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            DailyVolumeModel({"a": np.zeros(3), "b": np.zeros(4)}, start=date(2024, 1, 1))
        with pytest.raises(ValidationError, match="one carrier or more"):
            DailyVolumeModel({}, start=date(2024, 1, 1))
        for bad in (-1.0, np.nan):
            with pytest.raises(ValidationError):
                DailyVolumeModel({"a": np.array([bad])}, start=date(2024, 1, 1))

    def test_fit_counts_per_day(self):
        recs = [takeover("P1", "c1", 8), takeover("P2", "c1", 9), takeover("P3", "c1", 30)]
        model = fit_daily_volume(log_of(recs, cutoff=3 * 24), status=2)
        assert model.start == date(2024, 1, 1)
        assert list(model.history["c1"]) == [2.0, 1.0, 0.0, 0.0]


class TestIntensity:
    def make_models(self):
        row = np.zeros(24)
        row[8:12] = 0.25
        rho = {(w, "c1"): (np.zeros(24) if w == 7 else row.copy()) for w in range(1, 8)}
        profile = HourlyProfile(rho)
        volume = DailyVolumeModel({"c1": np.full(28, 8.0)}, start=date(2024, 1, 1))
        return profile, volume

    def test_product_and_sunday(self):
        intensity = OrderIntensity.from_models(*self.make_models())
        k_future = 28 * 24 + 9  # first day beyond history, 09:00 (a Monday)
        assert intensity.lambda_at(TB, k_future, "c1") == pytest.approx(2.0)
        sunday = 34 * 24 + 10
        assert TB.weekday_of(sunday) == 7
        assert intensity.lambda_at(TB, sunday, "c1") == 0.0
        # hour outside the profile support
        assert intensity.lambda_at(TB, 28 * 24 + 2, "c1") == 0.0

    def test_daily_additivity(self):
        profile, volume = self.make_models()
        intensity = OrderIntensity.from_models(profile, volume)
        day0 = 29 * 24  # a forecast day (Tuesday)
        total = sum(intensity.lambda_at(TB, day0 + h, "c1") for h in range(24))
        assert total == pytest.approx(8.0, abs=1e-9)

    def test_schedule_backed_intensity(self):
        # the table spans the schedule's dates: a day missing inside the span has no
        # orders, and a day past its last raises, naming the dates
        profile, _ = self.make_models()
        intensity = OrderIntensity.from_schedule(profile, {"c1": {date(2024, 1, 1): 4.0, date(2024, 1, 3): 8.0}})
        assert intensity.lambda_at(TB, 9, "c1") == pytest.approx(1.0)
        assert intensity.lambda_at(TB, 24 + 9, "c1") == 0.0  # no volume that day
        assert intensity.lambda_at(TB, 48 + 9, "c1") == pytest.approx(2.0)
        assert intensity.lambda_at(TB, -24 + 9, "c1") == 0.0  # before the first day
        with pytest.raises(InsufficientHistory, match="2024-01-04.*2024-01-03"):
            intensity.rates(TB, range(48, 73))

    def test_fitted_rates_match_the_slot_by_slot_product(self):
        # history and forecast days, read through epochs at different hours:
        # each lambda is the profile's proportion times the model's volume that day
        rng = np.random.default_rng(3)
        profile = HourlyProfile({(w, c): rng.dirichlet(np.ones(24)) for w in range(1, 8) for c in ("c1", "c2")})
        volume = DailyVolumeModel({c: rng.uniform(0.0, 30.0, 28) for c in ("c1", "c2")}, start=date(2024, 1, 1))
        forecasts = forecast_daily_volume(volume, 32)
        intensity = OrderIntensity.from_models(profile, volume)
        slots = range(27 * 24 - 2, 30 * 24 + 3)  # four calendar days, history and forecast
        for tb in (TB, Timebase(datetime(2024, 1, 1, 5)), Timebase(datetime(2023, 12, 31, 21))):
            def daily(k, c):
                d = (tb.date_of(k) - volume.start).days
                return volume.history[c][d] if d < 28 else forecasts[c][d - 28]

            expected = [[profile.proportion(tb.weekday_of(k), tb.hour_of(k), c) * daily(k, c) for c in ("c1", "c2")]
                        for k in slots]
            assert intensity.rates(tb, slots).tolist() == expected
            assert [[intensity.lambda_at(tb, k, c) for c in ("c1", "c2")] for k in slots] == expected

    def test_rates_match_the_slot_by_slot_product(self):
        # the stacked weekday-by-hour tables: several carriers, a weekday and
        # a carrier the profile lacks, one the intensity lacks, slots out of
        # order and before the epoch
        rng = np.random.default_rng(5)
        rho = {(w, c): rng.dirichlet(np.ones(24)) for w in range(1, 7) for c in ("c1", "c2")}
        profile = HourlyProfile(rho)
        days = [date(2023, 12, 25 + d) for d in range(7)] + [date(2024, 1, d) for d in range(1, 15)]
        volumes = {c: {d: float(rng.uniform(0.0, 30.0)) for d in days} for c in ("c1", "c2", "c3")}
        intensity = OrderIntensity.from_schedule(profile, volumes)
        slots = rng.permutation(np.arange(-7 * 24, 14 * 24))[:200]
        for carriers in (None, ("c3", "c2"), ("c1",), ("c9", "c1")):  # c9 has no volume and no profile
            lam = intensity.rates(TB, slots, carriers)
            names = intensity.carriers if carriers is None else carriers
            expected = [
                [profile.proportion(TB.weekday_of(k), TB.hour_of(k), c) * volumes.get(c, {}).get(TB.date_of(k), 0.0)
                 for c in names]
                for k in slots.tolist()
            ]
            assert lam.tolist() == expected
            assert intensity.rates(TB, [], carriers).shape == (0, len(names))

    def test_rates_through_two_timebases(self):
        # the volumes are kept by calendar date and the profile by week hour, so
        # one intensity read through epochs at different hours gives each
        # timebase its own per-slot product, call after call
        rng = np.random.default_rng(8)
        profile = HourlyProfile({(w, c): rng.dirichlet(np.ones(24)) for w in range(1, 8) for c in ("c1", "c2")})
        days = [date(2023, 12, 31) + timedelta(days=d) for d in range(8)]
        volumes = {c: {d: float(rng.uniform(0.0, 30.0)) for d in days} for c in ("c1", "c2")}
        intensity = OrderIntensity.from_schedule(profile, volumes)
        slots = range(-3, 5 * 24 + 7)
        for tb in (TB, Timebase(datetime(2024, 1, 1, 5)), Timebase(datetime(2023, 12, 31, 21)), TB):
            expected = [
                [profile.proportion(tb.weekday_of(k), tb.hour_of(k), c) * volumes[c][tb.date_of(k)] for c in ("c1", "c2")]
                for k in slots
            ]
            assert intensity.rates(tb, slots).tolist() == expected

    def test_rates_far_from_the_epoch(self):
        # slots ten years after and before the epoch, in one schedule whose
        # twenty years between them are missing days: each lambda is the
        # per-slot product
        profile, _ = self.make_models()
        starts = (3650 * 24 + 7, -3650 * 24 + 7)
        days = [TB.date_of(start) + timedelta(days=d) for start in starts for d in range(3)]
        volumes = {c: {day: float(day.toordinal() % 17) for day in days} for c in ("c1", "c2")}
        intensity = OrderIntensity.from_schedule(profile, volumes)
        assert intensity.volumes.shape == (2, (days[2] - days[3]).days + 1)
        for start in starts:
            slots = np.arange(start, start + 60)[::-1]  # three calendar days, out of order
            expected = [[profile.proportion(TB.weekday_of(k), TB.hour_of(k), c) * volumes[c][TB.date_of(k)]
                         for c in ("c1", "c2")] for k in slots.tolist()]
            assert intensity.rates(TB, slots).tolist() == expected
        assert not intensity.rates(TB, range(0, 3650 * 24, 7)).any()  # the missing days

    def test_negative_intensity_rejected(self):
        profile, _ = self.make_models()
        intensity = OrderIntensity.from_schedule(profile, {"c1": {date(2024, 1, 1): -1.0}})
        with pytest.raises(ValidationError, match="negative order intensity"):
            intensity.rates(TB, range(24))
        with pytest.raises(ValidationError, match="negative order intensity"):
            intensity.lambda_at(TB, 9, "c1")
        assert intensity.lambda_at(TB, 2, "c1") == 0.0  # no orders at 02:00, whatever the volume

    def test_volumes_are_read_only_and_rates_follow_them(self):
        # the padded tables rates reads are made once: the volumes cannot change under them
        profile, volume = self.make_models()
        volumes = np.full((1, 28), 8.0)
        intensity = OrderIntensity(profile, ("c1",), volume.start, volumes)
        volumes[:, :] = 0.0  # the caller's array is copied, and stays writable
        assert intensity.lambda_at(TB, 9, "c1") == pytest.approx(2.0)
        with pytest.raises(AttributeError):
            intensity.volumes = 2 * intensity.volumes
        with pytest.raises(ValueError, match="read-only"):
            intensity.volumes[:, :] = 0.0
        for table in (intensity._rho, intensity._volumes):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0
        assert intensity.lambda_at(TB, 9, "c1") == pytest.approx(2.0)

    def test_fitted_table_edges(self):
        # 28 days of history and 32 forecast days: none before the history,
        # the last forecast day is read, the day after it raises
        profile, volume = self.make_models()
        intensity = OrderIntensity.from_models(profile, volume)
        assert intensity.start == date(2024, 1, 1) and intensity.volumes.shape == (1, 28 + 32)
        assert not intensity.rates(TB, range(-7 * 24, 0)).any()
        assert intensity.lambda_at(TB, 59 * 24 + 9, "c1") == pytest.approx(2.0)  # 2024-02-29, a Thursday
        with pytest.raises(InsufficientHistory, match="2024-03-01.*2024-02-29"):
            intensity.lambda_at(TB, 60 * 24 + 9, "c1")
        with pytest.raises(InsufficientHistory):
            OrderIntensity.from_models(profile, volume, max_days_ahead=8).rates(TB, range(35 * 24, 37 * 24))


class TestPoisson:
    def test_pmf_against_scipy(self):
        for lam in (0.3, 1.0, 7.5, 30.0):
            for m in (0, 1, 5, 40):
                assert poisson_pmf(lam, m) == pytest.approx(
                    stats.poisson.pmf(m, lam), rel=1e-12
                )
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0

    @pytest.mark.parametrize("lam", [23.6, 41.0, 100.0, 250.0])
    def test_pmf_against_mpmath(self, lam):
        # a 50-digit reference over the whole support the engine uses
        m = np.arange(int(lam + 12.0 * math.sqrt(lam)) + 40)
        with mpmath.workdps(50):
            exact = [float(mpmath.exp(-mpmath.mpf(lam)) * mpmath.mpf(lam) ** i / mpmath.factorial(i)) for i in m.tolist()]
        assert np.abs(poisson_pmf(lam, m) - np.array(exact)).max() <= 1e-16

    def test_rows_keep_the_bytes_of_the_three_product_pmf(self):
        # sha256 prefixes of the float64 rows that poisson_pmf gave when it built the
        # up and down products in one pass; forecasts stay byte-identical only while these hold
        digests = {0.0: "26adaedc5859a0dd", 0.3: "b76d73285ce8d05f", 23.6: "8d511c76f147a019", 250.0: "244c27bee5d2abb8"}

        def digest(a):
            return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]

        for lam, expected in digests.items():
            row = poisson_rows(lam)
            assert digest(row) == expected, lam
            assert digest(poisson_pmf(lam, np.arange(len(row)))) == expected, lam
        lam = np.array(list(digests))  # every row as wide as the largest rate's
        rows = poisson_rows(lam)
        assert rows.shape == (4, 480)
        assert digest(rows) == digest(poisson_pmf(lam[:, None], np.arange(480))) == "3fa2cca101eabf2f"
        assert rows[0].tolist() == [1.0] + [0.0] * 479

    def test_truncation_examples(self):
        assert poisson_truncation(0.0) == 0
        assert poisson_truncation(1.0, 0.99) == 4
        assert poisson_truncation(5.0, 0.99) == 11

    def test_truncation_brackets_coverage(self):
        rng = np.random.default_rng(11)
        for lam in rng.uniform(0.001, 50.0, size=50):
            m = poisson_truncation(float(lam), 0.99)
            cdf = math.fsum(poisson_pmf(float(lam), i) for i in range(m + 1))
            assert cdf >= 0.99
            if m > 0:
                assert cdf - poisson_pmf(float(lam), m) < 0.99

    def test_truncation_at_large_rates_matches_scipy(self):
        # exp(-lam) underflows past lam = 708
        for lam in (700.0, 708.5, 740.0, 745.0, 746.0, 2500.0, 1e5):
            for coverage in (0.5, 0.99, 0.999999):
                assert poisson_truncation(lam, coverage) == stats.poisson.ppf(coverage, lam), (lam, coverage)

    def test_truncation_of_an_array_is_the_scalar_calls(self):
        # rows are made per power of two of their own widths: a mixed array of
        # small rates, and one that spans several width groups up to 1e5
        small = np.concatenate([[0.0, 1e-6], np.random.default_rng(5).uniform(0.0, 50.0, 200), [50.0]])
        for rates in (small, np.array([0.0, 1e-6, 3.5, 700.0, 708.5, 740.0, 745.0, 746.0, 2500.0, 1e5])):
            for coverage in (0.5, 0.99, 0.999999):
                tops = poisson_truncation(rates, coverage)
                assert isinstance(tops, np.ndarray) and tops.shape == rates.shape
                scalar = [poisson_truncation(float(lam), coverage) for lam in rates]
                assert all(type(m) is int for m in scalar)
                assert tops.tolist() == scalar, coverage
        square = poisson_truncation(small[:4].reshape(2, 2))
        assert square.tolist() == poisson_truncation(small[:4]).reshape(2, 2).tolist()

    def test_one_large_rate_does_not_widen_the_rows_of_the_small_ones(self):
        # rows as wide as 1e5 needs, for all fifty rates, would take about 172 MB
        rates = np.array([2.0] * 49 + [1e5])
        tracemalloc.start()
        try:
            tops = poisson_truncation(rates, 0.99)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert tops.tolist() == [poisson_truncation(float(lam), 0.99) for lam in rates]

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_truncation_of_an_array_with_a_bad_rate_raises(self, bad):
        for at in (0, 3, -1):
            rates = np.linspace(0.0, 5.0, 8)
            rates[at] = bad
            with pytest.raises(ValidationError, match="finite and >= 0"):
                poisson_truncation(rates)

    def test_truncation_beyond_float_reach_raises(self):
        # the float sum of the pmf stops short of the largest float below 1
        with pytest.raises(ValidationError, match="out of float reach"):
            poisson_truncation(4.0, math.nextafter(1.0, 0.0))

    def test_validation(self):
        with pytest.raises(ValidationError):
            poisson_truncation(-1.0)
        with pytest.raises(ValidationError):
            poisson_truncation(1.0, coverage=1.0)
