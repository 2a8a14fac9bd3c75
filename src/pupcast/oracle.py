"""Simulation and brute-force oracles for the closed-form engine.

This module provides three independent ways to evaluate contribution
probabilities and loads:

* ``simulate``: draws whole parcel life cycles from ground-truth models,
  producing a synthetic event log and the true load series;
* ``enumerate_contribution_prob``: exact conditional probabilities by
  literal summation over all transition-time paths (feasible for small
  supports only);
* ``mc_contribution_prob`` / ``mc_load_at``: exact-conditional Monte Carlo
  futures of one parcel, or of the whole system from the live parcels that
  ``EventLog.latest`` finds; both sample a known parcel with ``_known``.

``random_instance`` draws the small random kernels that the enumeration
comparisons run on.

``simulate`` and the Monte Carlo oracles group and draw alike.  ``_groups``
sorts parcels into runs of equal (route, slot), routes first and slots
ascending, by one radix-sorted key; a route is one (carrier, retailer, pup)
binding of the kernel.  A uniform u becomes ``_Draw(p)(u)``, the index that
``Generator.choice`` with probs p spends it on, exact for every u: counted
by comparisons for a cdf of at most four entries (the retailer shares), and
read from a guide table for a large draw from a longer one.  ``simulate``
draws the Poisson count of each (slot, carrier) in turn, then the block's
uniforms in one ``random`` call: per parcel one for its retailer (if its
carrier has shares), then one per status, mapped in runs over the slot of
the week, as the kernel repeats weekly.  The oracles' ``_still_stored``
draws, status by status, one ``random`` block for the parcels not yet past
k+j, in runs over the entry slot, through ``_delays`` as ``simulate`` does:
holding times at a transit status, and at the last status no draw but one
comparison of each uniform with the survival to k+j of its route and entry
slot, from a table (``_survivals``) that a call builds once per route; a
known parcel delivered at t_n compares with its conditioned
``cdf[k + j - t_n]`` (``_beyond``).  ``mc_load_at`` lays a block of future
orders out in replicate order, so each replicate's stored count is a
difference of one cumulative sum.  Every draw comes from the caller's
generator in that order: a seeded generator gives the same loads.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from .arrivals import OrderIntensity
from .errors import TooLarge, ValidationError
from .estimation import SelectionModel
from .kernel import KernelLevel, StatusKernel, TransitionKernel
from .pmf import HoldingTimePmf
from .records import NEVER, EventLog, ParcelRecord
from .scenario import ScenarioConfig
from .timebase import Timebase

__all__ = [
    "SimulatedTrace",
    "simulate",
    "mc_contribution_prob",
    "enumerate_contribution_prob",
    "mc_load_at",
    "random_pmf",
    "random_instance",
]

_EPS = 1e-15  # enumerate_contribution_prob's zero: a conditioning probability this small is rounding


@dataclass
class SimulatedTrace:
    """Full simulation output: every event, in one uncensored log, plus the load series."""

    config: ScenarioConfig
    log: EventLog  # no cutoff censors it
    load: np.ndarray  # true load per slot, 0..horizon_slots-1

    def event_log(self, cutoff: int | None = None) -> EventLog:
        """The event log as observed at ``cutoff`` (events after it censored)."""
        return self.log.truncated(self.config.horizon_slots - 1 if cutoff is None else cutoff)

    @cached_property
    def parcels(self) -> list[ParcelRecord]:
        """The log's parcels as records, built the first time they are read."""
        return self.log.records

    def recount_load(self) -> np.ndarray:
        """Recompute the load series from the raw events (self-consistency check)."""
        n_statuses, horizon = self.config.n_statuses, self.config.horizon_slots
        t_in, t_out = self.log.entries_of(n_statuses - 1), self.log.entries_of(n_statuses)
        delivered = t_in != NEVER
        moves = [np.bincount(np.minimum(t, horizon), minlength=horizon + 1) for t in (t_in[delivered], t_out[delivered])]
        return np.cumsum(moves[0] - moves[1])[:horizon]

    def write_load_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(["k,load\n", *(f"{k},{int(value)}\n" for k, value in enumerate(self.load.tolist()))]))


def _retailer_shares(selection: SelectionModel | None, carrier) -> tuple[list, np.ndarray | None]:
    """A carrier's retailers, sorted, and their normalised shares; ([None], None) if it has none."""
    p_r = selection.p_retailer_given_carrier(carrier) if selection else {}
    if not p_r:
        return [None], None
    retailers = sorted(p_r, key=str)
    weights = np.array([p_r[r] for r in retailers])
    return retailers, weights / weights.sum()


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The cdf that ``Generator.choice`` searches for ``p=probs``, from its float operations."""
    cdf = probs.cumsum()
    return cdf / cdf[-1]


class _Draw:
    """The index ``Generator.choice`` spends each uniform u in [0, 1) on for ``p=probs``.

    That is ``cdf.searchsorted(u, side="right")`` with ``cdf = _cdf(probs)``.
    A cdf of at most ``SHORT`` entries counts the entries at or below u, one
    comparison each; ``cdf[-1]`` is exactly 1 and u < 1, so the last is never
    counted.  A longer cdf's draw of at least ``cells`` uniforms reads a guide
    table (Chen & Asau 1974): [0, 1) is cut into ``cells`` equal cells, a
    power of two so that ``u * cells`` is exact, and ``guide[c]`` is the
    answer at the cell's left edge.  In a cell that holds at most one cdf
    entry the answer is ``guide[c] + (u >= cdf[guide[c]])``; the u of the
    other cells are searched.  Smaller draws search directly, and build no table.
    """

    SHORT = 4

    def __init__(self, probs: np.ndarray):
        self.cdf = _cdf(probs)
        self.cells = 1 << (2 * len(self.cdf) - 1).bit_length()  # the least power of two >= 2 len(cdf)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per cell: the answer at its left edge, the cdf entry that decides the next one, and whether it holds more."""
        guide = self.cdf.searchsorted(np.arange(self.cells + 1) / self.cells, side="right")
        return guide[:-1], self.cdf[guide[:-1]], np.diff(guide) > 1  # cdf[-1] is 1, so guide[c] < len(cdf)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if len(self.cdf) <= self.SHORT:
            out = np.zeros(len(u), dtype=np.intp)
            for entry in self.cdf[:-1]:
                out += u >= entry
            return out
        if len(u) < self.cells:
            return self.cdf.searchsorted(u, side="right")
        guide, edge, crowded = self._table
        cell = (u * self.cells).astype(np.intp)
        out = guide[cell] + (u >= edge[cell])
        far = crowded[cell].nonzero()[0]
        out[far] = self.cdf.searchsorted(u[far], side="right")
        return out


def _draw_of(pmf: HoldingTimePmf, draws: dict) -> _Draw:
    """``_Draw(pmf.probs)``, cached in ``draws`` under the pmf's id beside the pmf, which keeps the id unique."""
    if id(pmf) not in draws:
        draws[id(pmf)] = pmf, _Draw(pmf.probs)
    return draws[id(pmf)][1]


def _groups(route: np.ndarray, slot: np.ndarray) -> tuple[np.ndarray, list]:
    """Indices in runs of equal (route, slot), routes first, then slots, then index; and the runs' bounds.

    Routes are indices, so one key ``route * span + slot - slot.min()`` orders
    as (route, slot).  It is built in the narrowest unsigned type that holds
    its bound, modulo that type's range, which is exact as the key fits; a key
    of at most 16 bits takes numpy's stable radix sort.
    """
    if len(slot) == 0:
        return np.zeros(0, dtype=np.intp), [0]
    low = int(slot.min())
    span = int(slot.max()) - low + 1
    dtype = np.min_scalar_type((int(route.max()) + 1) * span - 1)
    key = route.astype(dtype)
    key *= span
    key += slot.astype(dtype)  # a slot outside the type's range wraps, and the next line wraps it back
    key -= low % (1 << 8 * dtype.itemsize)
    order = key.argsort(kind="stable")
    key = key[order]
    return order, [0, *((key[1:] != key[:-1]).nonzero()[0] + 1).tolist(), len(order)]


def _delays(pmfs: list, cuts: list, u: np.ndarray, draws: dict) -> np.ndarray:
    """Holding times of parcels in ``_groups``' order: run i spends ``u[cuts[i]:cuts[i + 1]]`` on ``pmfs[i]``."""
    delay = np.empty(len(u), dtype=np.intp)
    for lo, hi, pmf in zip(cuts, cuts[1:], pmfs):
        delay[lo:hi] = _draw_of(pmf, draws)(u[lo:hi])
    return delay


def simulate(config: ScenarioConfig) -> SimulatedTrace:
    """Draw a full synthetic history from the ground-truth models.

    Orders per slot per carrier are Poisson with the ground-truth intensity;
    each parcel then draws its retailer and its holding times from the
    uniforms of its block.  The output is fully determined by ``config.seed``.
    """
    trace = SimulatedTrace(config=config, log=_log(config), load=np.zeros(0, dtype=int))
    trace.load = trace.recount_load()
    return trace


def _log(config: ScenarioConfig) -> EventLog:
    """``simulate``'s log, built from the draws' arrays: parcel i is ``P{i:06d}``."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    tb, kernel, pup = config.timebase, config.kernel, config.pup
    first, last, carriers = config.entry_status, config.n_statuses, config.intensity.carriers
    shares = [_retailer_shares(config.selection, c) for c in carriers]
    has_shares = np.array([p is not None for _, p in shares], dtype=np.intp)
    width = last - first + has_shares  # uniforms per parcel of each carrier
    u, entered, carrier = array("d"), [], []
    for k, lams in enumerate(config.intensity.rates(tb, range(config.horizon_slots)).tolist()):
        for c, lam in enumerate(lams):
            count = int(rng.poisson(lam)) if lam > 0 else 0
            if count:
                u.frombytes(rng.random(count * int(width[c])).tobytes())
                entered += [k] * count
                carrier += [c] * count
    carrier, u = np.array(carrier, dtype=np.intp), np.frombuffer(u)
    hops = np.cumsum(width[carrier]) - (last - first)  # each parcel's first uniform for a status
    retailer = np.zeros(len(carrier), dtype=np.intp)
    for c in np.flatnonzero(has_shares):  # the retailer's uniform comes just before
        retailer[carrier == c] = _Draw(shares[c][1])(u[hops[carrier == c] - 1])
    route = carrier * max((len(retailers) for retailers, _ in shares), default=1) + retailer
    times, draws, week = [np.array(entered, dtype=np.intp)], {}, tb.slots_per_week
    for col, n in enumerate(range(first, last)):
        t = times[-1].copy()  # becomes the entry into status n + 1
        order, cuts = _groups(route, t % week)
        heads = order[cuts[:-1]].tolist()
        pmfs = [kernel.pmf_at(n, int(t[i]), carriers[carrier[i]], shares[carrier[i]][0][retailer[i]], pup) for i in heads]
        t[order] += _delays(pmfs, cuts, u[hops[order] + col], draws)
        times.append(t)
    ids, statuses = [f"P{i:06d}" for i in range(1, len(carrier) + 1)], np.arange(first, last + 1)
    retailers = [shares[c][0][r] for c, r in zip(carrier.tolist(), retailer.tolist())]
    log = object.__new__(EventLog)
    fault = log._fill(
        ids, [(carriers, carrier), ((pup,), np.zeros(len(ids), dtype=np.intp)), (retailers, np.arange(len(ids)))],
        np.tile(np.arange(len(ids)), len(statuses)), np.repeat(statuses, len(ids)), np.concatenate(times), NEVER, tb,
    )
    if fault is not None:
        raise ValidationError(fault[2])
    return log


def _after(pmf: HoldingTimePmf, elapsed: int) -> np.ndarray | None:
    """Holding-time probs conditioned on a delay beyond ``elapsed``; None if impossible, its mass at most ``_EPS``."""
    probs = pmf.probs.copy()
    probs[: max(0, elapsed + 1)] = 0.0
    total = probs.sum()
    return probs / total if total > _EPS else None


def _beyond(cdf: np.ndarray, u: np.ndarray, delay: int) -> np.ndarray:
    """Whether ``cdf.searchsorted(u, side="right")`` exceeds ``delay``: ``u >= cdf[delay]``, clamped to the cdf's ends."""
    return u >= cdf[min(max(delay, 0), len(cdf) - 1)]


def _survivals(pmf_at, last: int, horizon: int, width: int) -> np.ndarray:
    """Entry d: the survival to ``horizon`` of an entry into status ``last`` d slots before it, for d < width."""
    return np.array([pmf_at(last, horizon - d).survival(d) for d in range(width)])


def _still_stored(
    rng: np.random.Generator,
    routes: list,
    stay: np.ndarray,
    route: np.ndarray,
    status: int,
    times: np.ndarray,
    n_statuses: int,
    horizon: int,
    draws: dict,
) -> np.ndarray:
    """Whether each parcel that entered ``status`` at ``times`` is still stored at ``horizon``.

    Parcel i moves by ``routes[route[i]](n, t)``, drawn through the caller's
    ``draws``.  A parcel whose next entry lies beyond ``horizon`` stops
    moving and is not stored.  The last status draws no time: a parcel that
    entered it d slots before ``horizon`` is stored when u < ``stay[route[i], d]``,
    ``_survivals`` of its route.
    """
    times, stored = times.copy(), np.zeros(len(times), dtype=bool)
    for n in range(status, n_statuses):
        live = (times <= horizon).nonzero()[0]
        if len(live) == 0:  # none is left to draw for, here or later
            break
        order, cuts = _groups(route[live], times[live])
        order, u = live[order], rng.random(len(live))
        if n == n_statuses - 1:
            stored[order] = u < stay[route[order], horizon - times[order]]
            break
        first = order[cuts[:-1]]
        pmfs = [routes[r](n, t) for r, t in zip(route[first].tolist(), times[first].tolist())]
        times[order] += _delays(pmfs, cuts, u, draws)
    return stored


def _known(
    rng: np.random.Generator, pmf_at, probs: np.ndarray, n: int, t_n: int, horizon: int, stay: np.ndarray,
    n_statuses: int, draws: dict, size: int,
) -> np.ndarray:
    """Whether each of ``size`` futures of a parcel in status n since t_n is stored at ``horizon``.

    ``probs`` is its pmf in status n conditioned on its evidence (``_after``).
    The last status compares u with its cdf (``_beyond``), and stores no
    parcel entered after ``horizon``; a transit status draws the next entry
    and moves on by ``_still_stored``, with ``stay`` the route's ``_survivals``.
    """
    draw, u = _Draw(probs), rng.random(size)
    if n == n_statuses - 1:
        return _beyond(draw.cdf, u, horizon - t_n) if t_n <= horizon else np.zeros(size, dtype=bool)
    route = np.zeros(size, dtype=int)
    return _still_stored(rng, [pmf_at], stay[None], route, n + 1, t_n + draw(u), n_statuses, horizon, draws)


def mc_contribution_prob(
    pmf_at,
    n_statuses: int,
    n: int,
    t_n: int,
    k: int,
    j: int,
    n_samples: int = 100_000,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Monte Carlo estimate (value, stderr) of a contribution probability.

    Samples ``n_samples`` futures as ``mc_load_at`` samples a known parcel
    (``_known``), from the pmf of status n conditioned on leaving it after k
    (for the last status: not picked up by k); an order placed at t_n > k
    meets that condition.  Returns the estimate with its binomial standard
    error; an impossible condition raises ValidationError, as in enumeration.
    """
    if n_samples < 10_000:
        raise ValidationError("need at least 10^4 samples for a useful oracle")
    probs = _after(pmf_at(n, t_n), k - t_n)
    if probs is None:
        raise ValidationError("conditioning event has zero probability")
    stay = _survivals(pmf_at, n_statuses - 1, k + j, j)
    stored = _known(rng or np.random.default_rng(0), pmf_at, probs, n, t_n, k + j, stay, n_statuses, {}, n_samples)
    p = int(stored.sum()) / n_samples
    return p, float(np.sqrt(max(p * (1.0 - p), 1e-12) / n_samples))


def enumerate_contribution_prob(
    pmf_at,
    n_statuses: int,
    n: int,
    t_n: int,
    k: int,
    j: int,
    max_paths: int = 10_000_000,
) -> float:
    """Exact conditional contribution probability by exhaustive path summation.

    Literal nested sums over every transition-time path; independent of the
    engine's backward value function.  A parcel in status n since t_n <= k is
    conditioned on leaving status n after k (for the last status: not
    picked up by k); an order placed at t_n > k carries no condition.  Mass
    beyond a last-status pmf's support is never picked up: it meets the
    condition and counts as stored at k+j, unless the parcel was delivered
    after k+j.  Raises TooLarge when the path count bound exceeds ``max_paths``,
    and ValidationError when the condition's probability is at most ``_EPS``.
    """
    if math.prod(pmf_at(m, t_n).support_max for m in range(n, n_statuses)) > max_paths:
        raise TooLarge(f"path bound exceeds {max_paths}")

    def paths(status: int, t: int, prob: float) -> tuple[float, float]:
        """(numerator, denominator) mass of the paths that enter ``status`` at t with probability prob."""
        probs = pmf_at(status, t).probs
        first = max(1, k - t + 1)  # left after k: binds at status n only, as later ones are entered after k
        if status == n_statuses - 1:
            residual = 1.0 - float(probs.sum())
            stored = 0.0 if t > k + j else float(probs[k + j - t + 1:].sum()) + residual
            return prob * stored, prob * (float(probs[first:].sum()) + residual)
        numer = denom = 0.0
        for delta in range(first, len(probs)):
            if probs[delta] > 0.0:
                a, b = paths(status + 1, t + delta, prob * float(probs[delta]))
                numer, denom = numer + a, denom + b
        return numer, denom

    numer, denom = paths(n, t_n, 1.0)
    if denom <= _EPS:
        raise ValidationError("conditioning event has zero probability")
    return numer / denom


def mc_load_at(
    parcels: EventLog | Sequence[ParcelRecord],
    kernel,
    intensity: OrderIntensity | None,
    selection: SelectionModel | None,
    k: int,
    j: int,
    n_replicates: int,
    rng: np.random.Generator,
    entry_status: int = 0,
    pup: str | None = None,
) -> np.ndarray:
    """Sample whole-system loads at k+j, one int32 count per replicate future.

    The known parcels are the ``latest`` of the log at k, in row order; a
    list of records is packed into a log and validated first, as in the engine.
    Each draws its remaining path conditionally on its evidence (``_known``:
    exact truncated-tail sampling; a delivered one only tests
    u >= cdf[k + j - t_n]); future orders arrive per slot and carrier with
    Poisson counts from the ground-truth intensity and go to ``pup``: by
    default the log's ``pup_name``, as in the engine.
    """
    log = parcels if isinstance(parcels, EventLog) else EventLog(parcels, NEVER, kernel.timebase)
    pup, n_statuses = log.pup_name() if pup is None else pup, kernel.n_statuses
    loads, horizon = np.zeros(n_replicates, dtype=np.int32), k + j
    draws, routes = {}, {}  # per call: each pmf's _Draw, and each route's pmf_at and _survivals to the horizon

    def route_of(carrier, retailer, pup) -> tuple:
        if (carrier, retailer, pup) not in routes:
            pmf_at = partial(kernel.pmf_at, carrier=carrier, retailer=retailer, pup=pup)
            routes[carrier, retailer, pup] = pmf_at, _survivals(pmf_at, n_statuses - 1, horizon, j)
        return routes[carrier, retailer, pup]

    rows, status, slot = log.latest(k, n_statuses)  # not picked up by k
    labels = zip(log.carrier[rows].tolist(), log.retailer[rows].tolist(), log.pup[rows].tolist())
    for n, t_n, (c, r, p) in zip(status.tolist(), slot.tolist(), labels):
        if n not in kernel.statuses:  # a status never fitted: the engine skips it
            continue
        pmf_at, stay = route_of(log.carriers[c], log.retailers[r], log.pups[p])
        probs = _after(pmf_at(n, t_n), k - t_n)  # the transition happens after k
        if probs is None:
            # evidence beyond the support: retry with the pooled pmf, and if
            # that fails too the parcel has departed (the engine's rule)
            probs = _after(kernel.pooled_pmf_at(n), k - t_n)
        if probs is None:
            continue
        loads += _known(rng, pmf_at, probs, n, t_n, horizon, stay, n_statuses, draws, n_replicates)

    if intensity is None or n_replicates == 0:  # no order, or no replicate to count one in
        return loads

    by_carrier = {}
    for carrier in intensity.carriers:
        retailers, shares = _retailer_shares(selection, carrier)
        pmf_ats, tables = zip(*(route_of(carrier, r, pup) for r in retailers))
        by_carrier[carrier] = pmf_ats, np.array(tables), None if shares is None else _Draw(shares)
    rates = intensity.rates(kernel.timebase, range(k + 1, k + j)).tolist()
    for t_0, lams in zip(range(k + 1, k + j), rates):
        for (pmf_ats, table, retailer), lam in zip(by_carrier.values(), lams):
            if lam <= 0.0:
                continue
            ends = np.cumsum(rng.poisson(lam, size=n_replicates))  # the orders of replicate i end at ends[i]
            total = int(ends[-1])
            if total == 0:
                continue
            route = np.zeros(total, dtype=int) if retailer is None else retailer(rng.random(total))
            times = np.full(total, t_0)
            stored = _still_stored(rng, pmf_ats, table, route, entry_status, times, n_statuses, horizon, draws)
            kept = np.concatenate(([0], np.cumsum(stored)))[ends]  # stored among the orders of replicates 0..i
            loads += np.diff(kept, prepend=0)
    return loads


def random_pmf(rng: np.random.Generator, support: int) -> HoldingTimePmf:
    """Holding-time pmf with Dirichlet(1) mass on the delays 1..support."""
    return HoldingTimePmf(np.append(0.0, rng.dirichlet(np.ones(support))))


def random_instance(rng: np.random.Generator, max_statuses: int = 5, max_support: int = 6):
    """Random small kernel plus a (k, j) window for oracle comparisons.

    Half of the instances condition the pmfs on the weekday of the entry
    slot (same support size per status, different probabilities), so the
    non-stationary code paths are exercised as well.
    """
    n_statuses = int(rng.integers(2, max_statuses + 1))
    weekday_dependent = bool(rng.random() < 0.5)
    statuses = {}
    for n in range(n_statuses):
        support = int(rng.integers(2, max_support + 1))
        levels = []
        if weekday_dependent:
            levels.append(KernelLevel(("weekday",), {(w,): random_pmf(rng, support) for w in range(1, 8)}))
        levels.append(KernelLevel((), {(): random_pmf(rng, support)}))
        statuses[n] = StatusKernel(tuple(levels))
    kernel = TransitionKernel(n_statuses, statuses, Timebase(datetime(2024, 1, 1, 0)))  # a Monday
    return kernel, int(rng.integers(2, 8)), int(rng.integers(1, 13))  # k, j
