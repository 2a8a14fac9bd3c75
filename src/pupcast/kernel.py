"""Transition kernels: conditional holding-time pmfs per status.

A status kernel is an ordered list of levels.  Each level declares which
context features condition the pmf (its schema) and maps feature-value
tuples to pmfs.  Lookup walks the levels from most to least specific, so
coarser levels act as declared fallbacks for sparse keys.  The last level
has an empty schema and holds the global pooled pmf, so every context
resolves.  The fitted statuses are one run ending at the last one, N-1:
a status below the first fitted one was never fitted, and is the only
status that raises MissingKernel.  Both rules are checked when a kernel is
built.

``pmf_at``, ``row_at`` and ``week_rows`` read a status compiled on first
use: a ``PmfTable`` of its levels' pmfs and, per route, the row that
lookup resolves at each slot of a week (the context repeats weekly).  A
week is built level by level, each resolving only the distinct keys it
takes in the week, with no lookup per slot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import MissingKernel, UnknownStatus, ValidationError
from .pmf import HoldingTimePmf, tail_sums
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


def context_of(timebase: Timebase, t, carrier=None, retailer=None, pup=None) -> dict:
    """Conditioning context for a transition out of a status entered at slot t.
    For an array of slots, the weekday and hour are arrays of the same shape."""
    return {
        "weekday": timebase.weekday_of(t),
        "hour": timebase.hour_of(t),
        "carrier": carrier,
        "retailer": retailer,
        "pup": pup,
    }


class PmfTable:
    """Pmfs as zero-padded rows, each matrix built on first use: ``probs[r]`` is ``pmfs[r].probs`` with zeros to
    ``width + 1`` (a delay capped at ``width`` reads 0), and ``tails`` is ``tail_sums(probs)``, so ``tails[r]``
    is ``pmfs[r].tails`` padded with zeros, bit for bit, and ``tails[r, d]`` is
    ``pmfs[r].survival(d - 1)``.  ``row_of`` maps a pmf's ``id`` to its row."""

    def __init__(self, pmfs: Iterable[HoldingTimePmf]):
        self.pmfs = list(pmfs)
        self.row_of = {id(f): r for r, f in enumerate(self.pmfs)}
        self.width = max((len(f.probs) for f in self.pmfs), default=1)

    @cached_property
    def probs(self) -> np.ndarray:
        probs = np.zeros((len(self.pmfs), self.width + 1))
        for r, f in enumerate(self.pmfs):
            probs[r, : len(f.probs)] = f.probs
        return probs

    @cached_property
    def tails(self) -> np.ndarray:
        return tail_sums(self.probs)


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
    """Holding-time pmfs for one status, with hierarchical fallback levels
    that end in the pooled level: schema ``()``, its pmf keyed ``()``."""

    levels: tuple[KernelLevel, ...]

    def __post_init__(self) -> None:
        if not self.levels or self.levels[-1].schema != () or () not in self.levels[-1].pmfs:
            raise ValidationError("status kernel does not end in a pooled level: schema [] holding the pmf keyed []")

    def lookup(self, ctx: Mapping) -> HoldingTimePmf:
        for level in self.levels[:-1]:
            pmf = level.get(ctx)
            if pmf is not None:
                return pmf
        return self.coarsest()

    def coarsest(self) -> HoldingTimePmf:
        """The pooled pmf of the least specific level (used as a last resort)."""
        return self.levels[-1].pmfs[()]


@dataclass(frozen=True)
class TransitionKernel:
    """Family of conditional holding-time pmfs for statuses 0..N-1.

    ``n_statuses`` is N: status N is absorbing and has no kernel.  The
    fitted ``statuses`` are one run that ends at N-1: early statuses without
    estimable data (e.g. unobserved in an application variant) may be absent.
    """

    n_statuses: int
    statuses: Mapping[int, StatusKernel]
    timebase: Timebase
    # status n's PmfTable; per (n, level index, route features it names) the level's week and per
    # (n, carrier, retailer, pup) the (rows, table) of _week; the last (routes, stack, table) of
    # week_rows per (n, pup); under "windows", the engine's kept windows per (PUP, known routes, models,
    # weekly phase, horizons), each built once from every model it reads (engine._window)
    _compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for n in self.statuses:
            if not 0 <= n < self.n_statuses:
                raise ValidationError(f"status {n} outside 0..{self.n_statuses - 1}")
        if sorted(self.statuses) != list(range(min(self.statuses, default=0), self.n_statuses)):
            fitted = sorted(self.statuses)
            raise ValidationError(f"fitted statuses {fitted} are not one run ending at status {self.n_statuses - 1}")

    def _status(self, n: int) -> StatusKernel:
        if n >= self.n_statuses or n < 0:
            raise UnknownStatus(f"status {n} has no transition kernel (N={self.n_statuses})")
        if n not in self.statuses:
            raise MissingKernel(f"no kernel fitted for status {n}")
        return self.statuses[n]

    def lookup(self, n: int, ctx: Mapping) -> HoldingTimePmf:
        return self._status(n).lookup(ctx)

    def _table(self, n: int) -> PmfTable:
        """Status n's pmfs, compiled on first use."""
        if n not in self._compiled:
            levels = self._status(n).levels
            self._compiled[n] = PmfTable({id(f): f for level in levels for f in level.pmfs.values()}.values())
        return self._compiled[n]

    def _week(self, n: int, route: tuple) -> tuple[np.ndarray, PmfTable]:
        """Status n's table, and the row that ``lookup`` resolves on route at
        each slot of a week.  Each level, most specific first, fills the
        slots no earlier level resolved from its own week, which resolves
        each distinct key once and is kept for all routes that agree on the
        route features the level names; the pooled level fills the rest."""
        week = self._compiled.get((n, *route))
        if week is None:
            table, size = self._table(n), self.timebase.slots_per_week
            given = dict(zip(("carrier", "retailer", "pup"), route))
            rows = np.full(size, -1, dtype=np.intp)
            for i, level in enumerate(self.statuses[n].levels):
                name = (n, i, tuple(given[f] for f in level.schema if f in given))
                if name not in self._compiled:
                    ctx = context_of(self.timebase, np.arange(size))  # the weekday and hour of each slot
                    keys = [*zip(*([given[f]] * size if f in given else ctx[f].tolist() for f in level.schema))]
                    keys = keys or [()] * size  # a level without features has one key
                    pmfs = {key: level.pmfs.get(key) for key in dict.fromkeys(keys)}  # each distinct key once
                    found = {key: table.row_of[id(f)] for key, f in pmfs.items() if f is not None}
                    self._compiled[name] = np.array([found.get(key, -1) for key in keys], dtype=np.intp)
                rows = np.where(rows < 0, self._compiled[name], rows)
            week = self._compiled[(n, *route)] = (rows, table)
        return week

    def pmf_at(self, n: int, t: int, carrier=None, retailer=None, pup=None) -> HoldingTimePmf:
        """Pmf of the holding time in status n entered at slot t."""
        r, table = self.row_at(n, t, carrier, retailer, pup)
        return table.pmfs[r]

    def row_at(self, n: int, t: int, carrier=None, retailer=None, pup=None) -> tuple[int, PmfTable]:
        """``pmf_at`` as a row of status n's table: the compiled row of t modulo
        one week (the context repeats weekly, negative t included)."""
        rows, table = self._week(n, (carrier, retailer, pup))
        return rows[t % len(rows)], table

    def week_rows(self, n: int, routes: Sequence[tuple], pup=None) -> tuple[np.ndarray, PmfTable]:
        """``_week`` stacked over the (carrier, retailer) pairs of ``routes``:
        row r, column s is the row of ``pmf_at`` at slot s of the week on
        route r; and status n's table.  The stack is read-only and kept until
        other routes are asked for n and pup."""
        last = self._compiled.get((n, pup))
        if last is None or last[0] != tuple(routes):
            weeks = [self._week(n, (carrier, retailer, pup))[0] for carrier, retailer in routes]
            stack = np.array(weeks, dtype=np.intp).reshape(len(routes), self.timebase.slots_per_week)
            stack.flags.writeable = False
            last = self._compiled[(n, pup)] = tuple(routes), stack, self._table(n)
        return last[1:]

    def pooled_pmf_at(self, n: int) -> HoldingTimePmf:
        """Status n's least specific pmf: the fallback for impossible evidence."""
        return self._status(n).coarsest()

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
                        {"key": list(key), "probs": pmf.probs.tolist()}
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
            try:
                statuses[int(n_str)] = StatusKernel(tuple(levels))
            except ValidationError as exc:
                raise ValidationError(f"status {n_str}: {exc}") from exc
        return cls(
            n_statuses=int(doc["n_statuses"]),
            statuses=statuses,
            timebase=Timebase.from_json_dict(doc),
        )

    def save(self, path) -> None:
        write_model(path, self)

    @classmethod
    def load(cls, path) -> "TransitionKernel":
        return read_model(path, cls)


def read_model(path, cls, *args):
    """``cls.from_json_dict`` of a JSON file's document and ``args``.  A file that is missing, is not
    JSON or does not hold a valid model raises ValidationError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh), *args)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:  # JSON errors are ValueErrors
        raise ValidationError(f"{path}: {type(exc).__name__}: {exc}") from exc


def write_model(path, model) -> None:
    """``model.to_json_dict()`` as compact JSON with sorted keys, from the C encoder (``json.dump``
    and any ``indent`` select the Python one); floats keep ``repr``, so a model reads back bit for bit."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(model.to_json_dict(), sort_keys=True) + "\n")
