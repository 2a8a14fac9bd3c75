"""Transition kernels: conditional holding-time pmfs per status.

A status kernel is an ordered list of levels.  Each level declares which
context features condition the pmf (its schema) and maps feature-value
tuples to pmfs.  Lookup walks the levels from most to least specific, so
coarser levels act as declared fallbacks for sparse keys.  A final level
with an empty schema is a global fallback.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import MissingKernel, UnknownStatus, ValidationError
from .pmf import HoldingTimePmf
from .timebase import Timebase

__all__ = [
    "FEATURES",
    "KernelLevel",
    "StatusKernel",
    "TransitionKernel",
    "context_of",
]

# Closed enumeration of conditioning features.
FEATURES = ("weekday", "hour", "carrier", "retailer", "pup")


def context_of(timebase: Timebase, t: int, carrier=None, retailer=None, pup=None) -> dict:
    """Conditioning context for a transition out of a status entered at slot t."""
    return {
        "weekday": timebase.weekday_of(t),
        "hour": timebase.hour_of(t),
        "carrier": carrier,
        "retailer": retailer,
        "pup": pup,
    }


@dataclass(frozen=True)
class KernelLevel:
    schema: tuple[str, ...]
    pmfs: Mapping[tuple, HoldingTimePmf]

    def __post_init__(self) -> None:
        for feature in self.schema:
            if feature not in FEATURES:
                raise ValidationError(f"unknown conditioning feature {feature!r}")

    def get(self, ctx: Mapping) -> HoldingTimePmf | None:
        key = tuple(ctx.get(feature) for feature in self.schema)
        return self.pmfs.get(key)


@dataclass(frozen=True)
class StatusKernel:
    """Holding-time pmfs for one status, with hierarchical fallback levels."""

    levels: tuple[KernelLevel, ...]

    def lookup(self, ctx: Mapping) -> HoldingTimePmf:
        for level in self.levels:
            pmf = level.get(ctx)
            if pmf is not None:
                return pmf
        raise MissingKernel(f"no pmf for context {dict(ctx)!r} and no fallback")

    def coarsest(self) -> HoldingTimePmf:
        """The pooled pmf of the least specific level (used as a last resort)."""
        last = self.levels[-1]
        if last.schema == () and last.pmfs:
            return last.get({})  # type: ignore[return-value]
        raise MissingKernel("status kernel has no global fallback level")


@dataclass(frozen=True)
class TransitionKernel:
    """Family of conditional holding-time pmfs for statuses 0..N-1.

    ``n_statuses`` is N: status N is absorbing and has no kernel.  Statuses
    without estimable data (e.g. unobserved early statuses in an application
    variant) may be absent from ``statuses``.
    """

    n_statuses: int
    statuses: Mapping[int, StatusKernel]
    timebase: Timebase
    # resolved pmfs by (n, t mod one week, carrier, retailer, pup); see pmf_at
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for n in self.statuses:
            if not 0 <= n < self.n_statuses:
                raise ValidationError(f"status {n} outside 0..{self.n_statuses - 1}")

    def lookup(self, n: int, ctx: Mapping) -> HoldingTimePmf:
        if n >= self.n_statuses or n < 0:
            raise UnknownStatus(f"status {n} has no transition kernel (N={self.n_statuses})")
        if n not in self.statuses:
            raise MissingKernel(f"no kernel fitted for status {n}")
        return self.statuses[n].lookup(ctx)

    def pmf_at(self, n: int, t: int, carrier=None, retailer=None, pup=None) -> HoldingTimePmf:
        """Pmf of the holding time in status n entered at slot t.

        The context repeats every week (weekday and hour are periodic in t,
        negative t included), so each resolved pmf is memoised under t modulo
        one week.  A failed lookup raises and is not memoised.
        """
        key = (n, t % self.timebase.slots_per_week, carrier, retailer, pup)
        pmf = self._memo.get(key)
        if pmf is None:
            pmf = self._memo[key] = self.lookup(n, context_of(self.timebase, t, carrier, retailer, pup))
        return pmf

    def pooled_pmf_at(self, n: int, t: int) -> HoldingTimePmf:
        """Status n's least specific pmf at entry slot t: the fallback for impossible evidence."""
        if n not in self.statuses:
            raise MissingKernel(f"no kernel fitted for status {n}")
        return self.statuses[n].coarsest()

    # ---- serialization (bit-exact JSON round-trip) ----

    def to_json_dict(self) -> dict:
        doc = {
            "n_statuses": self.n_statuses,
            **self.timebase.to_json_dict(),
            "statuses": {},
        }
        for n, sk in sorted(self.statuses.items()):
            doc["statuses"][str(n)] = [
                {
                    "schema": list(level.schema),
                    "pmfs": [
                        {"key": list(key), "probs": [float(p) for p in pmf.probs]}
                        for key, pmf in sorted(level.pmfs.items(), key=lambda kv: repr(kv[0]))
                    ],
                }
                for level in sk.levels
            ]
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TransitionKernel":
        statuses = {}
        for n_str, levels_doc in doc["statuses"].items():
            levels = []
            for level_doc in levels_doc:
                pmfs = {
                    tuple(entry["key"]): HoldingTimePmf(np.array(entry["probs"]))
                    for entry in level_doc["pmfs"]
                }
                levels.append(KernelLevel(tuple(level_doc["schema"]), pmfs))
            statuses[int(n_str)] = StatusKernel(tuple(levels))
        return cls(
            n_statuses=int(doc["n_statuses"]),
            statuses=statuses,
            timebase=Timebase.from_json_dict(doc),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "TransitionKernel":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))
