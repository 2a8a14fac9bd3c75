"""Empirical estimation of transition kernels and selection probabilities.

Kernels are fitted by empirical frequencies from completed transitions only
(completion at or before the observation cutoff, so fitting never uses
look-ahead).  Sparse conditioning keys fall back hierarchically to pooled
pmfs; cells with fewer than ``min_count`` completed observations defer to
the next coarser level.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass
from datetime import date
from typing import Iterable

import numpy as np

from .errors import EmptyLog, NoCompletedTransitions, ValidationError
from .kernel import KernelLevel, StatusKernel, TransitionKernel
from .pmf import HoldingTimePmf
from .records import EventLog, ParcelRecord
from .timebase import Timebase

__all__ = [
    "OpeningHours",
    "SelectionModel",
    "estimate_transit_kernel",
    "estimate_pickup_kernel",
    "estimate_selection",
    "apply_closure_calendar",
    "ClosureAdjustedKernel",
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

    def is_open(self, w: int, h: int) -> bool:
        span = self.hours.get(w)
        return span is not None and span[0] <= h <= span[1]

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


@dataclass(frozen=True)
class SelectionModel:
    """Empirical retailer and carrier-given-retailer selection probabilities."""

    p_retailer: dict
    p_carrier_given_retailer: dict

    def __post_init__(self) -> None:
        if abs(sum(self.p_retailer.values()) - 1.0) > 1e-9:
            raise ValidationError("retailer probabilities do not sum to 1")
        for r, pc in self.p_carrier_given_retailer.items():
            if abs(sum(pc.values()) - 1.0) > 1e-9:
                raise ValidationError(f"carrier probabilities for retailer {r!r} do not sum to 1")

    def pairs(self) -> Iterable[tuple[object, object, float]]:
        """All (retailer, carrier, joint probability) with positive mass."""
        for r, pr in self.p_retailer.items():
            for c, pc in self.p_carrier_given_retailer.get(r, {}).items():
                if pr * pc > 0:
                    yield r, c, pr * pc

    def p_retailer_given_carrier(self, carrier) -> dict:
        joint = {r: p for r, c, p in self.pairs() if c == carrier}
        total = sum(joint.values())
        if total == 0:
            return {}
        return {r: p / total for r, p in joint.items()}

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
    observations: list[tuple[tuple, int]],
    schemas: list[tuple[str, ...]],
    key_fns: list,
    support_max: int,
    min_count: int,
    what: str,
    valid_keys: set | None = None,
) -> StatusKernel:
    """Build a status kernel with hierarchical pooled fallback levels.

    ``observations`` are (full context values, delay) pairs; ``key_fns[i]``
    projects the full context tuple onto level i's key.  Level 0 keys may be
    restricted to ``valid_keys``; out-of-range observations still feed the
    coarser levels.
    """
    max_delay = max(delay for _, delay in observations)
    levels = []
    for depth, (schema, key_fn) in enumerate(zip(schemas, key_fns)):
        counts: dict[tuple, np.ndarray] = defaultdict(lambda: np.zeros(max_delay + 1))
        for ctx, delay in observations:
            key = key_fn(ctx)
            counts[key][delay] += 1
        pmfs = {}
        for key, cnt in counts.items():
            if depth == 0 and valid_keys is not None and key not in valid_keys:
                continue
            if depth < len(schemas) - 1 and cnt.sum() < min_count:
                continue  # too sparse: defer to the next coarser level
            pmfs[key] = _truncated_pmf(cnt, support_max, f"{what}{key}")
        levels.append(KernelLevel(schema, pmfs))
    return StatusKernel(tuple(levels))


def _completed(
    records: Iterable[ParcelRecord], status_from: int, cutoff: int
) -> list[tuple[ParcelRecord, int, int]]:
    """(record, entry slot, delay) for transitions completed by the cutoff."""
    out = []
    for rec in records:
        t_from = rec.entry_times.get(status_from)
        t_to = rec.entry_times.get(status_from + 1)
        if t_from is not None and t_to is not None and t_to <= cutoff:
            out.append((rec, t_from, t_to - t_from))
    return out


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
    records = log_.for_pup(pup)
    if not records:
        raise EmptyLog(f"no records for pup {pup!r}")
    completed = _completed(records, status_from, log_.cutoff)
    if not completed:
        raise NoCompletedTransitions(f"no completed transit transitions for pup {pup!r}")
    tb = log_.timebase
    observations = [
        ((tb.weekday_of(t_from), rec.carrier), delay) for rec, t_from, delay in completed
    ]
    return _empirical_levels(
        observations,
        schemas=[("weekday", "carrier"), ("carrier",), ()],
        key_fns=[lambda ctx: ctx, lambda ctx: (ctx[1],), lambda ctx: ()],
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
    records = log_.for_pup(pup)
    if not records:
        raise EmptyLog(f"no records for pup {pup!r}")
    completed = _completed(records, status_from, log_.cutoff)
    if not completed:
        raise NoCompletedTransitions(f"no completed pickup transitions for pup {pup!r}")
    tb = log_.timebase
    observations = [
        ((tb.weekday_of(t_from), tb.hour_of(t_from)), delay) for _, t_from, delay in completed
    ]
    return _empirical_levels(
        observations,
        schemas=[("weekday", "hour"), ("weekday",), ()],
        key_fns=[lambda ctx: ctx, lambda ctx: (ctx[0],), lambda ctx: ()],
        support_max=support_max,
        min_count=min_count,
        what=f"pickup[{pup}]",
        valid_keys=set(opening.valid_keys()),
    )


def estimate_selection(log_: EventLog) -> SelectionModel:
    """Empirical retailer shares and carrier shares conditional on retailer."""
    if not log_.records:
        raise EmptyLog("empty event log")
    retailer_counts: dict = defaultdict(int)
    carrier_counts: dict = defaultdict(lambda: defaultdict(int))
    for rec in log_.records:
        retailer_counts[rec.retailer] += 1
        carrier_counts[rec.retailer][rec.carrier] += 1
    total = sum(retailer_counts.values())
    p_retailer = {r: cnt / total for r, cnt in retailer_counts.items()}
    p_cgr = {
        r: {c: cnt / sum(cc.values()) for c, cnt in cc.items()}
        for r, cc in ((r, carrier_counts[r]) for r in retailer_counts)
    }
    return SelectionModel(p_retailer, p_cgr)


class ClosureAdjustedKernel:
    """Kernel view that moves transition mass off known closing days.

    Mass that would land in a closed slot is pushed to the first later open
    slot; if every later slot within the support is closed, it accumulates
    at the end of the support (the forced-return rule).  Total mass is
    preserved by construction.
    """

    def __init__(self, base: TransitionKernel, closures: set[date]):
        self.base = base
        self.closures = frozenset(closures)
        self._cache: dict = {}

    @property
    def n_statuses(self) -> int:
        return self.base.n_statuses

    @property
    def timebase(self) -> Timebase:
        return self.base.timebase

    def pmf_at(self, n: int, t: int, carrier=None, retailer=None, pup=None) -> HoldingTimePmf:
        pmf = self.base.pmf_at(n, t, carrier, retailer, pup)
        if not self.closures:
            return pmf
        key = (n, t, carrier, retailer, pup)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        adjusted = self._shift(pmf, t)
        self._cache[key] = adjusted
        return adjusted

    def pooled_pmf_at(self, n: int, t: int) -> HoldingTimePmf:
        return self._shift(self.base.pooled_pmf_at(n, t), t)

    def _shift(self, pmf: HoldingTimePmf, t: int) -> HoldingTimePmf:
        tb = self.base.timebase
        support_max = pmf.support_max
        open_slot = np.array(
            [tb.date_of(t + d) not in self.closures for d in range(support_max + 1)]
        )
        if open_slot[1:].all():
            return pmf
        probs = np.zeros(support_max + 1)
        # next open slot at or after each delay; support_max as last resort
        next_open = np.full(support_max + 1, support_max)
        nearest = None
        for d in range(support_max, 0, -1):
            if open_slot[d]:
                nearest = d
            next_open[d] = nearest if nearest is not None else support_max
        for d in range(1, support_max + 1):
            probs[next_open[d]] += pmf.probs[d]
        return HoldingTimePmf(probs)


def apply_closure_calendar(kernel: TransitionKernel, closures: set[date]) -> ClosureAdjustedKernel:
    """Wrap a kernel so that closed dates receive no transition mass."""
    return ClosureAdjustedKernel(kernel, closures)


def read_closure_calendar(path) -> set[date]:
    """Read a newline-delimited file of ISO closure dates."""
    closures = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                closures.add(date.fromisoformat(line))
    return closures
