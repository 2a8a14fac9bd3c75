"""Future order arrivals: Poisson counts with time-varying intensity.

The intensity at slot k for carrier c factors into an hourly profile (the
proportion of the carrier's daily take-overs falling in each hour of each
weekday) times a forecast of the carrier's daily volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Callable, Mapping

import numpy as np

from .errors import EmptyLog, InsufficientHistory, ValidationError
from .records import EventLog

__all__ = [
    "HourlyProfile",
    "DailyVolumeModel",
    "OrderIntensity",
    "fit_hourly_profile",
    "fit_daily_volume",
    "forecast_daily_volume",
    "poisson_truncation",
    "poisson_pmf",
    "seasonal_mean_forecaster",
    "DEFAULT_WORKING_DAYS",
]

# Carriers do not work on Sundays unless configured otherwise.
DEFAULT_WORKING_DAYS = frozenset({1, 2, 3, 4, 5, 6})


@dataclass(frozen=True)
class HourlyProfile:
    """Proportion of a carrier's daily take-overs per (weekday, hour).

    ``rho[(w, c)]`` is a length-24 vector summing to 1 for working days and
    identically zero on non-working days.
    """

    rho: Mapping[tuple[int, str], np.ndarray]

    def __post_init__(self) -> None:
        for (w, c), row in self.rho.items():
            row = np.asarray(row, dtype=float)
            if row.shape != (24,) or np.any(row < 0):
                raise ValidationError(f"bad profile row for {(w, c)}")
            total = row.sum()
            if total != 0.0 and abs(total - 1.0) > 1e-9:
                raise ValidationError(f"profile row {(w, c)} sums to {total!r}")

    def carriers(self) -> list[str]:
        return sorted({c for _, c in self.rho})

    def proportion(self, w: int, h: int, carrier: str) -> float:
        row = self.rho.get((w, carrier))
        return 0.0 if row is None else float(row[h])

    def to_json_dict(self) -> dict:
        return {
            f"{w}|{c}": [float(p) for p in row] for (w, c), row in sorted(self.rho.items())
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "HourlyProfile":
        rho = {}
        for key, row in d.items():
            w, c = key.split("|", 1)
            rho[(int(w), c)] = np.array(row, dtype=float)
        return cls(rho)


def fit_hourly_profile(
    log_: EventLog,
    status: int,
    working_days: Mapping[str, frozenset] | None = None,
) -> HourlyProfile:
    """Empirical per-(weekday, carrier) hour-of-day proportions of take-overs.

    Working days with no observations get a uniform profile over the
    carrier's active hours (hours with mass on some other weekday);
    non-working days are identically zero.
    """
    times = [
        (rec.carrier, rec.entry_times[status])
        for rec in log_.records
        if status in rec.entry_times
    ]
    if not times:
        raise EmptyLog(f"no take-over events (status {status}) in log")
    tb = log_.timebase
    counts: dict[tuple[int, str], np.ndarray] = {}
    carriers = sorted({c for c, _ in times})
    for c in carriers:
        for w in range(1, 8):
            counts[(w, c)] = np.zeros(24)
    for c, t in times:
        counts[(tb.weekday_of(t), c)][tb.hour_of(t)] += 1
    rho = {}
    for c in carriers:
        days = (working_days or {}).get(c, DEFAULT_WORKING_DAYS)
        active = np.zeros(24, dtype=bool)
        for w in range(1, 8):
            active |= counts[(w, c)] > 0
        for w in range(1, 8):
            row = counts[(w, c)]
            if w not in days:
                rho[(w, c)] = np.zeros(24)
            elif row.sum() > 0:
                rho[(w, c)] = row / row.sum()
            elif active.any():
                rho[(w, c)] = active / active.sum()
            else:
                rho[(w, c)] = np.zeros(24)
    return HourlyProfile(rho)


def seasonal_mean_forecaster(
    n_weeks: int = 4, trend_damping: float = 0.0
) -> Callable[[np.ndarray, int], np.ndarray]:
    """Weekly seasonal forecaster: same-weekday mean over recent weeks.

    With ``trend_damping`` > 0 a damped linear drift between consecutive
    week means is added.  Forecasts are clipped at 0.
    """

    def forecast(history: np.ndarray, days_ahead: int) -> np.ndarray:
        history = np.asarray(history, dtype=float)
        if len(history) < 14:
            raise InsufficientHistory("need at least two full weeks of daily history")
        n = len(history)
        out = np.empty(days_ahead)
        week_means = [history[max(0, n - 7 * (m + 1)) : n - 7 * m].mean() for m in (0, 1)]
        drift = trend_damping * (week_means[0] - week_means[1]) / 7.0
        for i in range(days_ahead):
            day = n + i
            picks = [history[idx] for idx in range(day - 7, -1, -7) if idx < n][:n_weeks]
            base = float(np.mean(picks))
            out[i] = max(0.0, base + drift * (i + 1))
        return out

    return forecast


@dataclass
class DailyVolumeModel:
    """Per-carrier daily take-over counts plus a pluggable forecaster."""

    history: dict[str, np.ndarray]
    start: date
    forecaster: Callable[[np.ndarray, int], np.ndarray] = field(
        default_factory=seasonal_mean_forecaster
    )

    def __post_init__(self) -> None:
        lengths = {len(h) for h in self.history.values()}
        if len(lengths) > 1:
            raise ValidationError("carrier histories must cover the same days")
        for c, h in self.history.items():
            if np.any(np.asarray(h) < 0):
                raise ValidationError(f"negative daily count for carrier {c!r}")

    @property
    def n_days(self) -> int:
        return len(next(iter(self.history.values())))

    @property
    def end(self) -> date:
        """First day not covered by the history."""
        return self.start + timedelta(days=self.n_days)

    def to_json_dict(self) -> dict:
        return {
            "start": self.start.isoformat(),
            "history": {c: [float(v) for v in h] for c, h in sorted(self.history.items())},
        }

    @classmethod
    def from_json_dict(cls, d: dict, forecaster=None) -> "DailyVolumeModel":
        model = cls(
            history={c: np.array(h, dtype=float) for c, h in d["history"].items()},
            start=date.fromisoformat(d["start"]),
        )
        if forecaster is not None:
            model.forecaster = forecaster
        return model


def fit_daily_volume(
    log_: EventLog,
    status: int,
    forecaster: Callable[[np.ndarray, int], np.ndarray] | None = None,
) -> DailyVolumeModel:
    """Count take-overs per carrier per calendar day up to the cutoff."""
    tb = log_.timebase
    events = [
        (rec.carrier, tb.date_of(rec.entry_times[status]))
        for rec in log_.records
        if status in rec.entry_times
    ]
    if not events:
        raise EmptyLog(f"no take-over events (status {status}) in log")
    start = min(d for _, d in events)
    end = tb.date_of(log_.cutoff)
    n_days = (end - start).days + 1
    carriers = sorted({c for c, _ in events})
    history = {c: np.zeros(n_days) for c in carriers}
    for c, d in events:
        history[c][(d - start).days] += 1
    model = DailyVolumeModel(history, start)
    if forecaster is not None:
        model.forecaster = forecaster
    return model


def forecast_daily_volume(model: DailyVolumeModel, days_ahead: int) -> dict[str, np.ndarray]:
    """Non-negative point forecasts for the next ``days_ahead`` days per carrier."""
    if model.n_days < 14:
        raise InsufficientHistory("need at least two full weekly cycles")
    return {c: model.forecaster(h, days_ahead) for c, h in model.history.items()}


@dataclass
class OrderIntensity:
    """lambda(k, carrier): expected take-overs per slot for future slots.

    ``daily_volume`` maps (calendar day, carrier) to the expected number of
    take-overs that day; the hourly profile breaks the day down into slots.
    """

    profile: HourlyProfile
    daily_volume: Callable[[date, str], float]
    carriers: tuple[str, ...]

    def lambda_at(self, timebase, k: int, carrier: str) -> float:
        w = timebase.weekday_of(k)
        h = timebase.hour_of(k)
        lam = self.profile.proportion(w, h, carrier) * self.daily_volume(
            timebase.date_of(k), carrier
        )
        if lam < 0:
            raise ValidationError("negative order intensity")
        return lam

    @classmethod
    def from_models(
        cls, profile: HourlyProfile, volume: DailyVolumeModel, max_days_ahead: int = 32
    ) -> "OrderIntensity":
        """Intensity backed by fitted models; volumes beyond the history end
        come from the model's forecaster."""
        forecasts = forecast_daily_volume(volume, max_days_ahead)

        def daily(day: date, carrier: str) -> float:
            hist = volume.history.get(carrier)
            if hist is None:
                return 0.0
            idx = (day - volume.start).days
            if idx < 0:
                return 0.0
            if idx < len(hist):
                return float(hist[idx])
            ahead = idx - len(hist)
            if ahead >= max_days_ahead:
                raise InsufficientHistory(f"no volume forecast {ahead + 1} days ahead")
            return float(forecasts[carrier][ahead])

        return cls(profile, daily, tuple(sorted(volume.history)))

    @classmethod
    def from_schedule(
        cls, profile: HourlyProfile, volumes: Mapping[str, Mapping[date, float]]
    ) -> "OrderIntensity":
        """Ground-truth intensity from explicit per-day volumes (simulation)."""

        def daily(day: date, carrier: str) -> float:
            return float(volumes.get(carrier, {}).get(day, 0.0))

        return cls(profile, daily, tuple(sorted(volumes)))


def poisson_pmf(lam: float | np.ndarray, m: int | np.ndarray) -> float | np.ndarray:
    """exp(-lam) lam^m / m!, computed in log space for stability.

    Rates and counts broadcast against each other as numpy arrays; a scalar
    pair gives a float.
    """
    lam, m = np.asarray(lam, dtype=float), np.asarray(m)
    log_fact = np.array([math.lgamma(x + 1) for x in range(int(m.max(initial=0)) + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):  # lam = 0: 0 * log(0) is nan
        pmf = np.where(lam == 0.0, m == 0, np.exp(-lam + m * np.log(lam) - log_fact[m]))
    return pmf if pmf.ndim else float(pmf)


def poisson_truncation(lam: float, coverage: float = 0.99) -> int:
    """Smallest m with Poisson CDF(m) >= coverage."""
    if lam < 0:
        raise ValidationError("lambda must be >= 0")
    if not 0.0 < coverage < 1.0:
        raise ValidationError("coverage must be in (0, 1)")
    if lam == 0.0:
        return 0
    term = math.exp(-lam)
    cdf = term
    m = 0
    while cdf < coverage:
        m += 1
        term *= lam / m
        cdf += term
        if m > 10_000_000:  # unreachable for sane lambda; guards infinite loop
            raise ValidationError(f"poisson_truncation diverged for lam={lam}")
    return m
