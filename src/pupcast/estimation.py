"""Empirical estimation of transition kernels and selection probabilities.

``fit_models`` fits every model a forecast takes from one PUP's parcels.
Kernels are fitted by empirical frequencies from completed transitions only
(completion at or before the observation cutoff, so fitting never uses
look-ahead).  Sparse conditioning keys fall back hierarchically to pooled
pmfs; cells with fewer than ``min_count`` completed observations defer to
the next coarser level.  A ``SelectionModel`` keeps the weights it derives, so
it is read-only once used in a forecast.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .arrivals import DailyVolumeModel, HourlyProfile, fit_daily_volume, fit_hourly_profile
from .errors import EmptyLog, NoCompletedTransitions, ValidationError
from .kernel import KernelLevel, StatusKernel, TransitionKernel
from .pmf import HoldingTimePmf
from .records import NEVER, EventLog

__all__ = [
    "OpeningHours",
    "SelectionModel",
    "estimate_transit_kernel",
    "estimate_pickup_kernel",
    "estimate_selection",
    "fit_models",
    "MIN_COUNT",
    "TRANSIT_SUPPORT_MAX",
    "PICKUP_SUPPORT_MAX",
]

log = logging.getLogger(__name__)

MIN_COUNT = 20
TRANSIT_SUPPORT_MAX = 100
PICKUP_SUPPORT_MAX = 336


@dataclass(frozen=True)
class OpeningHours:
    """Opening and closing hour per weekday; a missing weekday means closed.

    ``hours[w] = (h_open, h_close)`` with deliveries/pickups possible for
    h in {h_open .. h_close}.
    """

    hours: dict[int, tuple[int, int]]

    def __post_init__(self) -> None:
        for w, (ho, hc) in self.hours.items():
            if not 1 <= w <= 7 or not 0 <= ho <= hc <= 23:
                raise ValidationError(f"bad opening hours for weekday {w}: {(ho, hc)}")

    def valid_keys(self) -> list[tuple[int, int]]:
        return [
            (w, h)
            for w in sorted(self.hours)
            for h in range(self.hours[w][0], self.hours[w][1] + 1)
        ]

    def to_json_dict(self) -> dict:
        return {str(w): list(span) for w, span in sorted(self.hours.items())}

    @classmethod
    def from_json_dict(cls, d: dict) -> "OpeningHours":
        return cls({int(w): (int(span[0]), int(span[1])) for w, span in d.items()})


def _check_shares(shares: dict, what: str) -> None:
    if any(p < 0 for p in shares.values()):
        raise ValidationError(f"{what} have negative entries")
    if not abs(sum(shares.values()) - 1.0) <= 1e-9:  # NaN fails this too
        raise ValidationError(f"{what} do not sum to 1")


@dataclass(frozen=True)
class SelectionModel:
    """Empirical retailer and carrier-given-retailer selection probabilities."""

    p_retailer: dict
    p_carrier_given_retailer: dict

    def __post_init__(self) -> None:
        _check_shares(self.p_retailer, "retailer probabilities")
        for r, pc in self.p_carrier_given_retailer.items():
            _check_shares(pc, f"carrier probabilities for retailer {r!r}")

    def pairs(self) -> Iterable[tuple[object, object, float]]:
        """All (retailer, carrier, joint probability) with positive mass."""
        for r, pr in self.p_retailer.items():
            for c, pc in self.p_carrier_given_retailer.get(r, {}).items():
                if pr * pc > 0:
                    yield r, c, pr * pc

    def p_retailer_given_carrier(self, carrier) -> dict:
        return dict(self._given_carrier.get(carrier, {}))

    @cached_property
    def _given_carrier(self) -> dict:
        """Each carrier's retailer weights, built on first use."""
        joint: dict = defaultdict(dict)  # carrier -> retailer -> joint probability
        for r, c, p in self.pairs():
            joint[c][r] = p
        return {c: {r: p / sum(weights.values()) for r, p in weights.items()} for c, weights in joint.items()}

    def to_json_dict(self) -> dict:
        """JSON document; the unknown retailer ``None`` is written as "", as in the event CSV."""
        p_cgr = {str(r or ""): dict(sorted(pc.items())) for r, pc in self.p_carrier_given_retailer.items()}
        return {
            "p_retailer": dict(sorted((str(r or ""), p) for r, p in self.p_retailer.items())),
            "p_carrier_given_retailer": dict(sorted(p_cgr.items())),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SelectionModel":
        return cls(
            p_retailer={r or None: p for r, p in d["p_retailer"].items()},
            p_carrier_given_retailer={r or None: dict(pc) for r, pc in d["p_carrier_given_retailer"].items()},
        )


def _truncated_pmf(counts: np.ndarray, support_max: int, what: str) -> HoldingTimePmf:
    """Counts over delays -> pmf over {0..support_max}; excess mass truncated."""
    total = counts.sum()
    kept = counts[: support_max + 1].copy()
    if len(counts) > support_max + 1:
        lost = counts[support_max + 1 :].sum()
        if lost:
            log.info("%s: truncated %.4f of mass beyond %d slots", what, lost / total, support_max)
    if kept.sum() == 0:
        raise NoCompletedTransitions(f"{what}: all observed delays beyond support")
    return HoldingTimePmf.from_counts(kept)


def _empirical_levels(
    context: dict[str, tuple[np.ndarray, tuple | None]],
    delays: np.ndarray,
    schemas: list[tuple[str, ...]],
    support_max: int,
    min_count: int,
    what: str,
    valid_keys: set | None = None,
) -> StatusKernel:
    """Build a status kernel with hierarchical pooled fallback levels.

    ``context[feature]`` holds one non-negative integer per observed delay,
    and the labels its codes stand for (None: the integer is the value).
    Level i is keyed on the features of ``schemas[i]``, its keys in order of
    first observation.  Level 0 keys may be restricted to ``valid_keys``;
    out-of-range observations still feed the coarser levels.
    """
    width = int(delays.max()) + 1
    levels = []
    for depth, schema in enumerate(schemas):
        code = np.zeros(len(delays), dtype=np.int64)
        for feature in schema:  # the schema's values in mixed radix
            values = context[feature][0]
            code = code * (int(values.max()) + 1) + values
        _, first, group = np.unique(code, return_index=True, return_inverse=True)
        counts = np.bincount(group * width + delays, minlength=len(first) * width).reshape(len(first), width)
        pmfs = {}
        for g in np.argsort(first, kind="stable").tolist():
            i = first[g]
            key = tuple(
                int(values[i]) if labels is None else labels[values[i]]
                for values, labels in (context[feature] for feature in schema)
            )
            if depth == 0 and valid_keys is not None and key not in valid_keys:
                continue
            if depth < len(schemas) - 1 and counts[g].sum() < min_count:
                continue  # too sparse: defer to the next coarser level
            pmfs[key] = _truncated_pmf(counts[g].astype(float), support_max, f"{what}{key}")
        levels.append(KernelLevel(schema, pmfs))
    return StatusKernel(tuple(levels))


def _completed(log_: EventLog, pup: str, status_from: int, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(carrier code, entry slot, delay) of the transitions out of ``status_from``
    completed by the cutoff, for the parcels bound for ``pup``."""
    parcels = log_.for_pup(pup)
    if not len(parcels):
        raise EmptyLog(f"no records for pup {pup!r}: no {what} transitions out of status {status_from}")
    t_from, t_to = parcels.entries_of(status_from), parcels.entries_of(status_from + 1)
    rows = np.flatnonzero((t_from != NEVER) & (t_to <= log_.cutoff))
    if not rows.size:
        raise NoCompletedTransitions(f"no completed {what} transitions out of status {status_from} for pup {pup!r}")
    return parcels.carrier[rows], t_from[rows], t_to[rows] - t_from[rows]


def estimate_transit_kernel(
    log_: EventLog,
    pup: str,
    status_from: int,
    support_max: int = TRANSIT_SUPPORT_MAX,
    min_count: int = MIN_COUNT,
) -> StatusKernel:
    """Per-(weekday, carrier) pmf of the taken-over -> delivered delay.

    Only parcels targeting ``pup`` whose delivery is observed by the cutoff
    are counted.  Sparse (weekday, carrier) cells fall back to the pooled
    per-carrier pmf, then to the globally pooled pmf.
    """
    carrier, t_from, delays = _completed(log_, pup, status_from, "transit")
    return _empirical_levels(
        {"weekday": (log_.timebase.weekday_of(t_from), None), "carrier": (carrier, log_.carriers)},
        delays,
        schemas=[("weekday", "carrier"), ("carrier",), ()],
        support_max=support_max,
        min_count=min_count,
        what=f"transit[{pup}]",
    )


def estimate_pickup_kernel(
    log_: EventLog,
    pup: str,
    opening: OpeningHours,
    status_from: int,
    support_max: int = PICKUP_SUPPORT_MAX,
    min_count: int = MIN_COUNT,
) -> StatusKernel:
    """Per-(weekday, hour of delivery) pmf of the delivered -> picked-up delay.

    Keys are restricted to the PUP's opening hours; deliveries observed at
    other (weekday, hour) cells only feed the pooled fallback levels.  Mass
    beyond ``support_max`` (the maximum sojourn before return) is truncated
    and the pmf renormalized.
    """
    _, t_from, delays = _completed(log_, pup, status_from, "pickup")
    tb = log_.timebase
    return _empirical_levels(
        {"weekday": (tb.weekday_of(t_from), None), "hour": (tb.hour_of(t_from), None)},
        delays,
        schemas=[("weekday", "hour"), ("weekday",), ()],
        support_max=support_max,
        min_count=min_count,
        what=f"pickup[{pup}]",
        valid_keys=set(opening.valid_keys()),
    )


def estimate_selection(log_: EventLog) -> SelectionModel:
    """Empirical retailer shares and carrier shares conditional on retailer."""
    if not len(log_):
        raise EmptyLog("empty event log")
    n_carriers = len(log_.carriers)
    pairs, first, count = np.unique(
        log_.retailer * n_carriers + log_.carrier, return_index=True, return_counts=True
    )
    counts: dict = defaultdict(dict)  # retailer -> carrier -> parcels, in order of first appearance
    for g in np.argsort(first, kind="stable").tolist():
        r, c = divmod(int(pairs[g]), n_carriers)
        counts[log_.retailers[r]][log_.carriers[c]] = int(count[g])
    total = len(log_)
    p_retailer = {r: sum(cc.values()) / total for r, cc in counts.items()}
    p_cgr = {r: {c: cnt / sum(cc.values()) for c, cnt in cc.items()} for r, cc in counts.items()}
    return SelectionModel(p_retailer, p_cgr)


def fit_models(log_: EventLog, site) -> tuple[TransitionKernel, HourlyProfile, DailyVolumeModel, SelectionModel]:
    """The models ``pupcast fit`` writes, fitted on the parcels bound for ``site.pup`` alone: a transit kernel
    for each status from the entry status to the one before the last, a pickup kernel for the last, and the
    profile and volumes of the entries into the entry status.  ``site`` is a ``Site`` or a scenario; only its
    pup, opening hours, status count, entry status and timebase are read."""
    parcels, pup = log_.for_pup(site.pup), site.pup
    entry, last = site.entry_status, site.n_statuses - 1
    statuses = {n: estimate_transit_kernel(parcels, pup, status_from=n) for n in range(entry, last)}
    statuses[last] = estimate_pickup_kernel(parcels, pup, site.opening, status_from=last)
    kernel = TransitionKernel(site.n_statuses, statuses, site.timebase)
    return kernel, fit_hourly_profile(parcels, entry), fit_daily_volume(parcels, entry), estimate_selection(parcels)
