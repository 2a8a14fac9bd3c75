"""Synthetic scenario configuration: ground-truth models for simulation.

A scenario bundles everything a simulation run needs: the time axis, the
status flowchart, ground-truth transition kernels, ground-truth order
intensity (hourly profile plus explicit daily volumes), retailer/carrier
selection probabilities, opening hours, and a seed.  The default scenario
mirrors a small shop PUP: three carriers, hourly slots, pickup delays with
roughly 60% of parcels collected within 24 hours and 75% within 48 hours,
and weekly-seasonal order volumes with an optional ramp (non-stationary
activity).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta

import numpy as np

from .arrivals import HourlyProfile, OrderIntensity
from .errors import ValidationError
from .estimation import OpeningHours, SelectionModel
from .kernel import KernelLevel, StatusKernel, TransitionKernel, write_model
from .pmf import HoldingTimePmf
from .timebase import Timebase

__all__ = ["ScenarioConfig", "default_scenario"]


@dataclass
class ScenarioConfig:
    """Everything needed to simulate parcel life cycles for one PUP."""

    timebase: Timebase
    kernel: TransitionKernel
    intensity: OrderIntensity
    selection: SelectionModel
    opening: OpeningHours
    pup: str
    entry_status: int
    horizon_days: int
    seed: int
    capacity: int | None = None

    def __post_init__(self) -> None:
        if self.kernel.timebase != self.timebase:  # volumes and kernel context must share one calendar
            kernel_tb, tb = self.kernel.timebase.to_json_dict(), self.timebase.to_json_dict()
            raise ValidationError(f"kernel timebase {kernel_tb} differs from the config's {tb}")
        if not 0 <= self.entry_status < self.n_statuses:
            raise ValidationError(f"entry status {self.entry_status} outside 0..{self.n_statuses - 1}")
        if self.entry_status not in self.kernel.statuses:
            raise ValidationError(f"entry status {self.entry_status} was never fitted: {sorted(self.kernel.statuses)}")
        if self.seed < 0:
            raise ValidationError(f"seed {self.seed} is negative")
        if self.horizon_days < 1:
            raise ValidationError(f"horizon_days {self.horizon_days} is below 1")

    @property
    def n_statuses(self) -> int:
        return self.kernel.n_statuses

    @property
    def horizon_slots(self) -> int:
        return self.horizon_days * self.timebase.slots_per_day

    # ---- JSON round trip ----

    def to_json_dict(self) -> dict:
        intensity = self.intensity  # its volumes are written every day of their span
        days = [(intensity.start + timedelta(days=d)).isoformat() for d in range(intensity.volumes.shape[1])]
        return {
            "timebase": self.timebase.to_json_dict(),
            "kernel": self.kernel.to_json_dict(),
            "profile": intensity.profile.to_json_dict(),
            "daily_volumes": {c: dict(zip(days, row.tolist())) for c, row in zip(intensity.carriers, intensity.volumes)},
            "selection": self.selection.to_json_dict(),
            "opening": self.opening.to_json_dict(),
            "pup": self.pup,
            "entry_status": self.entry_status,
            "horizon_days": self.horizon_days,
            "seed": self.seed,
            "capacity": self.capacity,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScenarioConfig":
        volumes = {
            c: {date.fromisoformat(d): float(v) for d, v in vols.items()}
            for c, vols in doc["daily_volumes"].items()
        }
        profile = HourlyProfile.from_json_dict(doc["profile"])
        return cls(
            timebase=Timebase.from_json_dict(doc["timebase"]),
            kernel=TransitionKernel.from_json_dict(doc["kernel"]),
            intensity=OrderIntensity.from_schedule(profile, volumes),
            selection=SelectionModel.from_json_dict(doc["selection"]),
            opening=OpeningHours.from_json_dict(doc["opening"]),
            pup=doc["pup"],
            entry_status=int(doc["entry_status"]),
            horizon_days=int(doc["horizon_days"]),
            seed=int(doc["seed"]),
            capacity=doc.get("capacity"),
        )

    def save(self, path) -> None:
        write_model(path, self)


def _gamma_like_pmf(mean: float, support_max: int, shape: float = 4.0) -> HoldingTimePmf:
    """Unimodal discrete pmf over {1..support_max} with the given rough mean."""
    d = np.arange(support_max + 1, dtype=float)
    scale = mean / shape
    with np.errstate(divide="ignore"):
        w = np.exp((shape - 1.0) * np.log(np.maximum(d, 1e-300)) - d / scale)
    w[0] = 0.0
    return HoldingTimePmf(w / w.sum())


def _pickup_pmf(short_boost: float, support_max: int = 336) -> HoldingTimePmf:
    """Pickup-delay pmf: most mass within 24-48 h, geometric tail to two weeks.

    ``short_boost`` scales the first-day mass (morning deliveries are picked
    up faster than evening ones).
    """
    w = np.zeros(support_max + 1)
    w[1:25] = short_boost * 2.5 / 24.0
    w[25:49] = 0.8 / 24.0
    w[49:] = 0.9 * np.exp(-(np.arange(49, support_max + 1) - 49) / 60.0) / 60.0
    return HoldingTimePmf(w / w.sum())


def default_scenario(
    seed: int = 20170703,
    horizon_days: int = 182,
    ramp: float = 0.8,
    base_volumes: dict[str, float] | None = None,
) -> ScenarioConfig:
    """Three-carrier hourly scenario with non-stationary weekly order volume.

    ``ramp`` is the relative volume growth over the whole horizon (0 for a
    stationary scenario).
    """
    timebase = Timebase(epoch=datetime(2017, 7, 3, 0))  # a Monday, midnight
    carriers = ("c1", "c2", "c3")
    transit_means = {"c1": 24.0, "c2": 36.0, "c3": 48.0}

    # Status flowchart of the application variant: 2 = taken over,
    # 3 = delivered, 4 = picked up / returned; statuses 0-1 unobserved.
    transit_pmfs = {}
    for w in range(1, 8):
        for c in carriers:
            mean = transit_means[c] * (1.35 if w in (5, 6) else 1.0)  # Sunday idle
            transit_pmfs[(w, c)] = _gamma_like_pmf(mean, support_max=100)
    pooled_transit = _gamma_like_pmf(36.0, support_max=100)

    opening = OpeningHours({w: (9, 19) for w in range(1, 7)} | {7: (9, 12)})
    pickup_pmfs = {}
    for w, h in opening.valid_keys():
        boost = 1.6 if h < 13 else 1.0
        pickup_pmfs[(w, h)] = _pickup_pmf(boost)
    pooled_pickup = _pickup_pmf(1.3)

    kernel = TransitionKernel(
        n_statuses=4,
        statuses={
            2: StatusKernel(
                (
                    KernelLevel(("weekday", "carrier"), transit_pmfs),
                    KernelLevel((), {(): pooled_transit}),
                )
            ),
            3: StatusKernel(
                (
                    KernelLevel(("weekday", "hour"), pickup_pmfs),
                    KernelLevel((), {(): pooled_pickup}),
                )
            ),
        },
        timebase=timebase,
    )

    # Take-overs happen in business hours, Monday to Saturday.
    hour_weights = np.zeros(24)
    hour_weights[8:12] = (3.0, 4.0, 2.0, 1.0)
    hour_weights[14:17] = (1.5, 1.0, 0.5)
    profile_rows = {}
    for c in carriers:
        for w in range(1, 8):
            profile_rows[(w, c)] = (
                np.zeros(24) if w == 7 else hour_weights / hour_weights.sum()
            )
    profile = HourlyProfile(profile_rows)

    base_volumes = base_volumes or {"c1": 9.0, "c2": 6.0, "c3": 4.0}
    weekly_factor = {1: 1.2, 2: 1.0, 3: 1.0, 4: 1.1, 5: 0.9, 6: 0.6, 7: 0.0}
    start = timebase.epoch.date()
    volumes: dict[str, dict[date, float]] = {c: {} for c in carriers}
    for d in range(horizon_days + 7):  # a little beyond the horizon for forecasts
        day = start + timedelta(days=d)
        w = day.isoweekday()
        growth = 1.0 + ramp * d / max(1, horizon_days)
        for c in carriers:
            volumes[c][day] = base_volumes[c] * weekly_factor[w] * growth

    selection = SelectionModel(
        p_retailer={"r1": 0.55, "r2": 0.30, "r3": 0.15},
        p_carrier_given_retailer={
            "r1": {"c1": 0.7, "c2": 0.3},
            "r2": {"c2": 0.5, "c3": 0.5},
            "r3": {"c1": 0.2, "c3": 0.8},
        },
    )

    return ScenarioConfig(
        timebase=timebase,
        kernel=kernel,
        intensity=OrderIntensity.from_schedule(profile, volumes),
        selection=selection,
        opening=opening,
        pup="corner-shop",
        entry_status=2,
        horizon_days=horizon_days,
        seed=seed,
        capacity=45,
    )
