"""Order intensity: hourly profile, daily volume and Poisson truncation."""

import math
from datetime import date

import numpy as np
import pytest
from scipy import stats

from pupcast import EventLog, ParcelRecord
from pupcast.arrivals import (
    DailyVolumeModel,
    HourlyProfile,
    OrderIntensity,
    fit_daily_volume,
    fit_hourly_profile,
    forecast_daily_volume,
    poisson_pmf,
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
        with pytest.raises(ValidationError):
            DailyVolumeModel({"a": np.array([-1.0])}, start=date(2024, 1, 1))

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
        profile, _ = self.make_models()
        intensity = OrderIntensity.from_schedule(profile, {"c1": {date(2024, 1, 1): 4.0}})
        assert intensity.lambda_at(TB, 9, "c1") == pytest.approx(1.0)
        assert intensity.lambda_at(TB, 24 + 9, "c1") == 0.0  # no volume that day


class TestPoisson:
    def test_pmf_against_scipy(self):
        for lam in (0.3, 1.0, 7.5, 30.0):
            for m in (0, 1, 5, 40):
                assert poisson_pmf(lam, m) == pytest.approx(
                    stats.poisson.pmf(m, lam), rel=1e-12
                )
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0

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

    def test_validation(self):
        with pytest.raises(ValidationError):
            poisson_truncation(-1.0)
        with pytest.raises(ValidationError):
            poisson_truncation(1.0, coverage=1.0)
