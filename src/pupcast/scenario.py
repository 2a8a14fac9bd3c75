"""Sites, and synthetic scenarios: a site plus the ground-truth models a simulation draws from.

A site is what a fit or forecast of one PUP reads beside its event log: the
calendar, the pup, its opening hours and capacity, and the status chain.  A
scenario adds ground-truth kernels, order intensity (hourly profile plus
explicit daily volumes), retailer/carrier selection probabilities, a horizon
and a seed, saved in a file of their own beside the site's.  The default
scenario mirrors a small shop PUP: three carriers, hourly slots, pickup
delays with roughly 60% of parcels collected within 24 hours and 75% within
48 hours, and weekly-seasonal order volumes with an optional ramp
(non-stationary activity).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

from .arrivals import HourlyProfile, OrderIntensity
from .errors import ValidationError
from .estimation import OpeningHours, SelectionModel
from .kernel import KernelLevel, StatusKernel, TransitionKernel, read_model, write_model
from .pmf import HoldingTimePmf
from .timebase import Timebase

__all__ = ["ScenarioConfig", "Site", "default_scenario"]


@dataclass(frozen=True)
class Site:
    """One PUP as a forecast sees it.  Status ``n_statuses - 1`` is the stored one and orders enter at
    ``entry_status``; ``capacity`` is None or a count of parcels.  ``ground_truth`` names the file beside
    the site's that holds a scenario's ground-truth models, None for a site without one."""

    timebase: Timebase
    pup: str
    opening: OpeningHours
    n_statuses: int
    entry_status: int
    capacity: int | None = None
    ground_truth: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.pup, str) or not self.pup:
            raise ValidationError(f"pup {self.pup!r} is not a non-empty string")
        if self.capacity is not None and (type(self.capacity) is not int or self.capacity < 0):
            raise ValidationError(f"capacity {self.capacity!r} is neither null nor a whole number >= 0")
        if type(self.n_statuses) is not int or type(self.entry_status) is not int:
            raise ValidationError(f"n_statuses {self.n_statuses!r}, entry_status {self.entry_status!r}: not integers")
        if not 0 <= self.entry_status < self.n_statuses:
            raise ValidationError(f"entry status {self.entry_status} outside 0..{self.n_statuses - 1}")

    def check_kernel(self, kernel: TransitionKernel) -> None:
        """Raise ValidationError unless ``kernel`` shares the site's calendar, which reads the log, and its
        status count, which says which status is stored, and fits every status from the entry status on."""
        if kernel.timebase != self.timebase:
            kernel_tb, tb = kernel.timebase.to_json_dict(), self.timebase.to_json_dict()
            raise ValidationError(f"kernel timebase {kernel_tb} differs from the site's {tb}")
        if kernel.n_statuses != self.n_statuses:
            raise ValidationError(f"kernel has {kernel.n_statuses} statuses, the site {self.n_statuses}")
        if self.entry_status not in kernel.statuses:  # the fitted statuses run to the last one
            raise ValidationError(f"entry status {self.entry_status} was never fitted: {sorted(kernel.statuses)}")

    def to_json_dict(self) -> dict:
        return {
            "timebase": self.timebase.to_json_dict(),
            "pup": self.pup,
            "opening": self.opening.to_json_dict(),
            "n_statuses": self.n_statuses,
            "entry_status": self.entry_status,
            "capacity": self.capacity,
            "ground_truth": self.ground_truth,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Site":
        return cls(
            timebase=Timebase.from_json_dict(doc["timebase"]),
            pup=doc["pup"],
            opening=OpeningHours.from_json_dict(doc["opening"]),
            n_statuses=doc["n_statuses"],
            entry_status=doc["entry_status"],
            capacity=doc.get("capacity"),
            ground_truth=doc.get("ground_truth"),
        )


@dataclass
class ScenarioConfig:
    """A site, in its fields, and the ground-truth models that simulate parcel life cycles there."""

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
        self.site.check_kernel(self.kernel)  # volumes and kernel context must share one calendar
        if type(self.seed) is not int or type(self.horizon_days) is not int:
            raise ValidationError(f"seed {self.seed!r}, horizon_days {self.horizon_days!r}: not integers")
        if self.seed < 0:
            raise ValidationError(f"seed {self.seed} is negative")
        if self.horizon_days < 1:
            raise ValidationError(f"horizon_days {self.horizon_days} is below 1")

    @property
    def site(self) -> Site:
        return Site(self.timebase, self.pup, self.opening, self.n_statuses, self.entry_status, self.capacity)

    @property
    def n_statuses(self) -> int:
        return self.kernel.n_statuses

    @property
    def horizon_slots(self) -> int:
        return self.horizon_days * self.timebase.slots_per_day

    # ---- JSON round trip: the ground truth; the site is saved apart ----

    def to_json_dict(self) -> dict:
        intensity = self.intensity  # its volumes are written every day of their span
        days = [(intensity.start + timedelta(days=d)).isoformat() for d in range(intensity.volumes.shape[1])]
        return {
            "kernel": self.kernel.to_json_dict(),
            "profile": intensity.profile.to_json_dict(),
            "daily_volumes": {c: dict(zip(days, row.tolist())) for c, row in zip(intensity.carriers, intensity.volumes)},
            "selection": self.selection.to_json_dict(),
            "horizon_days": self.horizon_days,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, doc: dict, site: Site) -> "ScenarioConfig":
        """The ground-truth models of ``doc`` at ``site``, whose status count must be their kernel's."""
        kernel = TransitionKernel.from_json_dict(doc["kernel"])
        site.check_kernel(kernel)
        volumes = {
            c: {date.fromisoformat(d): float(v) for d, v in vols.items()}
            for c, vols in doc["daily_volumes"].items()
        }
        profile = HourlyProfile.from_json_dict(doc["profile"])
        return cls(
            timebase=site.timebase,
            kernel=kernel,
            intensity=OrderIntensity.from_schedule(profile, volumes),
            selection=SelectionModel.from_json_dict(doc["selection"]),
            opening=site.opening,
            pup=site.pup,
            entry_status=site.entry_status,
            horizon_days=doc["horizon_days"],
            seed=doc["seed"],
            capacity=site.capacity,
        )

    def save(self, path) -> None:
        """The site at ``path``, and the ground truth in the file beside it that the site names."""
        path = Path(path)
        site = replace(self.site, ground_truth=f"{path.stem}.truth.json")
        write_model(path, site)
        write_model(path.with_name(site.ground_truth), self)

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        """The scenario ``save`` wrote at ``path``; a site that names no ground-truth file raises ValidationError."""
        site = read_model(path, Site)
        if not isinstance(site.ground_truth, str) or not site.ground_truth:
            raise ValidationError(f"{path}: ground_truth {site.ground_truth!r} names no file to simulate from")
        return read_model(Path(path).parent / site.ground_truth, cls, site)


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
