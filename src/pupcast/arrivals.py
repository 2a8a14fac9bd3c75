"""Future order arrivals: Poisson counts with time-varying intensity.

The intensity at slot k for carrier c factors into an hourly profile (the
proportion of the carrier's daily take-overs falling in each hour of each
weekday) times a forecast of the carrier's daily volume.  An intensity holds
both as tables, built once: the profile by (carrier, week hour) and the
volumes by (carrier, calendar day).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Callable, Mapping

import numpy as np

from .errors import EmptyLog, InsufficientHistory, ValidationError
from .records import NEVER, EventLog

__all__ = [
    "HourlyProfile",
    "DailyVolumeModel",
    "OrderIntensity",
    "fit_hourly_profile",
    "fit_daily_volume",
    "forecast_daily_volume",
    "poisson_truncation",
    "poisson_pmf",
    "poisson_rows",
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
            if total != 0.0 and not abs(total - 1.0) <= 1e-9:  # NaN fails this too
                raise ValidationError(f"profile row {(w, c)} sums to {total!r}")

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


def _take_overs(log_: EventLog, status: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The carriers of the entries into ``status``, sorted, and each entry's
    index into them and slot."""
    t = log_.entries_of(status)
    rows = np.flatnonzero(t != NEVER)
    if not rows.size:
        raise EmptyLog(f"no take-over events (status {status}) in log")
    codes, carrier = np.unique(log_.carrier[rows], return_inverse=True)
    carriers = sorted(log_.carriers[c] for c in codes.tolist())
    rank = np.array([carriers.index(log_.carriers[c]) for c in codes.tolist()])
    return carriers, rank[carrier], t[rows]


def fit_hourly_profile(log_: EventLog, status: int) -> HourlyProfile:
    """Empirical per-(weekday, carrier) hour-of-day proportions of take-overs.

    Working days (``DEFAULT_WORKING_DAYS``) with no observations get a
    uniform profile over the carrier's active hours (hours with mass on some
    other weekday); non-working days are identically zero.
    """
    carriers, carrier, t = _take_overs(log_, status)
    tb = log_.timebase
    cells = (carrier * 7 + tb.weekday_of(t) - 1) * 24 + tb.hour_of(t)
    counts = np.bincount(cells, minlength=len(carriers) * 168).reshape(-1, 7, 24).astype(float)
    rho = {}
    for c, by_weekday in zip(carriers, counts):
        active = (by_weekday > 0).any(axis=0)
        for w, row in enumerate(by_weekday, start=1):
            if w not in DEFAULT_WORKING_DAYS:
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
        if len({len(h) for h in self.history.values()}) != 1:  # no carrier, or carriers over different days
            raise ValidationError("the history needs one carrier or more, all over the same days")
        for c, h in self.history.items():
            if not np.all(np.asarray(h) >= 0):  # NaN fails this too
                raise ValidationError(f"negative or NaN daily count for carrier {c!r}")

    @property
    def n_days(self) -> int:
        return len(next(iter(self.history.values())))

    def to_json_dict(self) -> dict:
        return {
            "start": self.start.isoformat(),
            "history": {c: [float(v) for v in h] for c, h in sorted(self.history.items())},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DailyVolumeModel":
        return cls(
            history={c: np.array(h, dtype=float) for c, h in d["history"].items()},
            start=date.fromisoformat(d["start"]),
        )


def fit_daily_volume(
    log_: EventLog,
    status: int,
    forecaster: Callable[[np.ndarray, int], np.ndarray] | None = None,
) -> DailyVolumeModel:
    """Count take-overs per carrier per calendar day up to the cutoff."""
    carriers, carrier, t = _take_overs(log_, status)
    tb = log_.timebase
    day = tb.day_of(t)
    start = tb.date_of(int(t[np.argmin(day)]))
    n_days = (tb.date_of(log_.cutoff) - start).days + 1
    counts = np.bincount(carrier * n_days + day - day.min(), minlength=len(carriers) * n_days)
    model = DailyVolumeModel(dict(zip(carriers, counts.reshape(-1, n_days).astype(float))), start)
    if forecaster is not None:
        model.forecaster = forecaster
    return model


def forecast_daily_volume(model: DailyVolumeModel, days_ahead: int) -> dict[str, np.ndarray]:
    """Non-negative point forecasts for the next ``days_ahead`` days per carrier."""
    if model.n_days < 14:
        raise InsufficientHistory("need at least two full weekly cycles")
    return {c: model.forecaster(h, days_ahead) for c, h in model.history.items()}


@dataclass(frozen=True)
class OrderIntensity:
    """lambda(k, carrier): expected take-overs per slot.

    ``volumes[i, d]`` is the expected number of take-overs of ``carriers[i]``
    on the calendar day ``start + d``, and the hourly profile breaks each day
    down into slots.  A day before ``start`` and a carrier not in
    ``carriers`` have no orders; a day past the table's last raises
    ``InsufficientHistory``.
    """

    profile: HourlyProfile
    carriers: tuple[str, ...]
    start: date
    volumes: np.ndarray

    def __post_init__(self) -> None:
        volumes = np.array(self.volumes, dtype=float)  # a copy: the caller's array stays writable
        if volumes.ndim != 2 or len(volumes) != len(self.carriers):
            raise ValidationError(f"volumes of shape {volumes.shape} for {len(self.carriers)} carriers")
        rows = [self.profile.rho.get((w, c), np.zeros(24)) for c in self.carriers for w in range(1, 8)]
        # the two tables rates takes from, by (week hour, carrier) and (day, carrier), each with a zero last column,
        # where a carrier the intensity lacks falls, the volumes with a zero last row for the days before ``start``
        rho = np.pad(np.array(rows, dtype=float).reshape(-1, 7 * 24), ((0, 1), (0, 0))).T.copy()
        for name, table in [("volumes", volumes), ("_rho", rho), ("_volumes", np.pad(volumes, (0, 1)).T.copy())]:
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    def lambda_at(self, timebase, k: int, carrier: str) -> float:
        return float(self.rates(timebase, [k], (carrier,))[0, 0])

    def rates(self, timebase, slots, carriers: tuple[str, ...] | None = None) -> np.ndarray:
        """lambda at each of ``slots`` (rows) for each carrier (columns, ``carriers`` by default)."""
        columns = np.arange(len(self.carriers)) if carriers is None else [(*self.carriers, c).index(c) for c in carriers]
        slots = np.asarray(slots, dtype=np.int64)
        day = timebase.day_of(slots) + (timebase.epoch.date() - self.start).days  # days from ``start``
        if len(columns) and day.max(initial=-1) >= self.volumes.shape[1]:
            asked, last = (self.start + timedelta(days=int(d)) for d in (day.max(), self.volumes.shape[1] - 1))
            raise InsufficientHistory(f"no order volume for {asked}: the volumes end on {last}")
        rho = self._rho.take(timebase.week_hour_of(slots), axis=0).take(columns, axis=1)
        lam = rho * self._volumes.take(np.maximum(day, -1), axis=0).take(columns, axis=1)
        if not lam.min(initial=0.0) >= 0:  # NaN fails it too
            raise ValidationError(f"{'negative' if (lam < 0).any() else 'NaN'} order intensity")
        return lam

    @classmethod
    def from_models(
        cls, profile: HourlyProfile, volume: DailyVolumeModel, max_days_ahead: int = 32
    ) -> "OrderIntensity":
        """Intensity backed by fitted models: each carrier's history, then
        ``max_days_ahead`` days of the model's forecast."""
        forecasts = forecast_daily_volume(volume, max_days_ahead)
        carriers = tuple(sorted(volume.history))
        table = [np.concatenate([volume.history[c], forecasts[c]]) for c in carriers]
        return cls(profile, carriers, volume.start, table)

    @classmethod
    def from_schedule(
        cls, profile: HourlyProfile, volumes: Mapping[str, Mapping[date, float]]
    ) -> "OrderIntensity":
        """Ground-truth intensity from explicit per-day volumes (simulation),
        over the span of their dates; a day missing in that span has none."""
        carriers = tuple(sorted(volumes))
        ordinal = {day: day.toordinal() for by_day in volumes.values() for day in by_day}
        first = min(ordinal.values(), default=date.max.toordinal())  # with no date, every day comes before it
        table = np.zeros((len(carriers), max(ordinal.values(), default=first - 1) - first + 1))
        for row, c in zip(table, carriers):
            row[[ordinal[day] - first for day in volumes[c]]] = list(volumes[c].values())
        return cls(profile, carriers, date.fromordinal(first), table)


def poisson_rows(lam: float | np.ndarray, size: int = 0) -> np.ndarray:
    """exp(-lam) lam^x / x!, one row per rate, for x below max(size, 12 sd and 41 past the largest mean):
    the ratios p(x + 1) / p(x) = lam / (x + 1) multiplied outward from the mode and normalised over
    the row, so no step rounds a large exponent."""
    lam = np.asarray(lam, dtype=float)
    x = np.arange(max(size, int((lam + 12.0 * np.sqrt(lam)).max(initial=0)) + 41))
    rate, mode = lam[..., None], np.floor(lam)[..., None]
    pmf = np.where(x > mode, rate / np.maximum(x, 1), 1.0).cumprod(axis=-1)  # from the mode up
    x = x + 1.0  # and down, by (x + 1) / lam below the mode and 1 from it on, where x + 1 > lam
    pmf *= (x / np.maximum(rate, x))[..., ::-1].cumprod(axis=-1)[..., ::-1]
    return pmf / pmf.sum(axis=-1, keepdims=True)


def poisson_pmf(lam: float | np.ndarray, m: int | np.ndarray) -> float | np.ndarray:
    """exp(-lam) lam^m / m!, read from ``poisson_rows``.  Rates and counts
    broadcast against each other as numpy arrays; a scalar pair gives a float."""
    lam, m = np.asarray(lam, dtype=float), np.asarray(m)
    rows = poisson_rows(lam, int(m.max(initial=0)) + 1)
    pmf = np.broadcast_to(rows, np.broadcast_shapes(lam.shape, m.shape) + rows.shape[-1:])
    pmf = np.take_along_axis(pmf, np.broadcast_to(m, pmf.shape[:-1])[..., None], axis=-1)[..., 0]
    return pmf if pmf.ndim else float(pmf)


def poisson_truncation(lam: float | np.ndarray, coverage: float = 0.99) -> int | np.ndarray:
    """Smallest m with Poisson CDF(m) >= coverage, for each rate (an int for a scalar): the first count where the
    cumulative sum of its ``poisson_rows`` row reaches it, the rows made per power of two of their own widths."""
    lam = np.asarray(lam, dtype=float)
    bad = ~((lam >= 0.0) & (lam < math.inf))  # NaN is bad too
    if bad.any():
        raise ValidationError(f"lambda must be finite and >= 0, got {lam[bad].flat[0]}")
    if not 0.0 < coverage < 1.0:
        raise ValidationError("coverage must be in (0, 1)")
    power = np.frexp((lam + 12.0 * np.sqrt(lam)).astype(np.int64) + 41)[1]  # of each rate's own poisson_rows width
    top = np.empty(lam.shape, dtype=np.intp)
    for group in [power == p for p in np.unique(power).tolist()]:
        reached = np.cumsum(poisson_rows(lam[group]), axis=-1) >= coverage
        if not reached[:, -1].all():  # the row's float sum stops short of coverage
            raise ValidationError(f"coverage {coverage} is out of float reach for lam={lam[group][~reached[:, -1]][0]}")
        top[group] = reached.argmax(axis=-1)
    return int(top) if top.ndim == 0 else top
