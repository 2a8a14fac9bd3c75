"""Simulation and brute-force oracles for the closed-form engine.

This module provides three independent ways to evaluate contribution
probabilities and loads:

* ``simulate``: draws whole parcel life cycles from ground-truth models,
  producing a synthetic event log and the true load series;
* ``enumerate_contribution_prob``: exact conditional probabilities by
  literal summation over all transition-time paths (feasible for small
  supports only);
* ``mc_contribution_prob`` / ``mc_load_at``: conditional Monte Carlo with
  rejection on the conditioning event, or exact-conditional sampling of
  whole-system futures.

``random_instance`` draws the small random kernels that the enumeration
comparisons run on.

Replicate-level parallel work derives child generators from the master
seed with ``numpy.random.SeedSequence(seed).spawn``, so results are
deterministic regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .arrivals import OrderIntensity
from .errors import ConditioningTooRare, MissingKernel, TooLarge, ValidationError
from .estimation import SelectionModel
from .kernel import KernelLevel, StatusKernel, TransitionKernel
from .pmf import HoldingTimePmf
from .records import EventLog, ParcelRecord
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


@dataclass
class SimulatedTrace:
    """Full simulation output: all parcels (uncensored) plus the load series."""

    config: ScenarioConfig
    parcels: list[ParcelRecord]
    load: np.ndarray  # true load per slot, 0..horizon_slots-1

    def event_log(self, cutoff: int | None = None) -> EventLog:
        """The event log as observed at ``cutoff`` (events after it censored)."""
        if cutoff is None:
            cutoff = self.config.horizon_slots - 1
        records = []
        for rec in self.parcels:
            entries = {n: t for n, t in rec.entry_times.items() if t <= cutoff}
            if entries:
                records.append(
                    ParcelRecord(rec.id, rec.carrier, rec.pup, rec.retailer, entries)
                )
        return EventLog(records, cutoff, self.config.timebase)

    def recount_load(self) -> np.ndarray:
        """Recompute the load series from the raw events (self-consistency check)."""
        n_statuses = self.config.n_statuses
        horizon = self.config.horizon_slots
        load = np.zeros(horizon, dtype=int)
        for rec in self.parcels:
            t_del = rec.entry_times.get(n_statuses - 1)
            if t_del is None:
                continue
            t_out = rec.entry_times.get(n_statuses, horizon)
            lo, hi = min(t_del, horizon), min(t_out, horizon)
            load[lo:hi] += 1
        return load

    def write_load_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k,load\n")
            for k, value in enumerate(self.load):
                fh.write(f"{k},{int(value)}\n")


def _draw_delay(rng: np.random.Generator, pmf, size: int = 1) -> np.ndarray:
    return rng.choice(len(pmf.probs), size=size, p=pmf.probs)


def simulate(config: ScenarioConfig) -> SimulatedTrace:
    """Draw a full synthetic history from the ground-truth models.

    Orders per slot per carrier are Poisson with the ground-truth intensity;
    each parcel then draws its holding times from the ground-truth kernel.
    The output is fully determined by ``config.seed``.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    tb = config.timebase
    kernel = config.kernel
    horizon = config.horizon_slots
    parcels: list[ParcelRecord] = []
    counter = 0
    for k in range(horizon):
        for carrier in config.intensity.carriers:
            lam = config.intensity.lambda_at(tb, k, carrier)
            count = int(rng.poisson(lam)) if lam > 0 else 0
            for _ in range(count):
                p_r = config.selection.p_retailer_given_carrier(carrier)
                if p_r:
                    retailers = sorted(p_r, key=str)
                    weights = np.array([p_r[r] for r in retailers])
                    retailer = retailers[rng.choice(len(retailers), p=weights / weights.sum())]
                else:
                    retailer = None
                counter += 1
                entries = {config.entry_status: k}
                t = k
                for n in range(config.entry_status, config.n_statuses):
                    pmf = kernel.pmf_at(n, t, carrier=carrier, retailer=retailer, pup=config.pup)
                    t = t + int(_draw_delay(rng, pmf)[0])
                    entries[n + 1] = t
                parcels.append(
                    ParcelRecord(f"P{counter:06d}", carrier, config.pup, retailer, entries)
                )
    trace = SimulatedTrace(config=config, parcels=parcels, load=np.zeros(0, dtype=int))
    trace.load = trace.recount_load()
    return trace


def _after(pmf: HoldingTimePmf, elapsed: int) -> np.ndarray | None:
    """Holding-time probs conditioned on a delay beyond ``elapsed``; None if impossible."""
    probs = pmf.probs.copy()
    probs[: max(0, elapsed + 1)] = 0.0
    total = probs.sum()
    return probs / total if total > 0.0 else None


def _advance_groups(
    rng: np.random.Generator, pmf_at, n: int, times: np.ndarray
) -> np.ndarray:
    """One transition for a vector of parcels, grouped by shared entry slot."""
    out = np.empty_like(times)
    for t in np.unique(times):
        mask = times == t
        pmf = pmf_at(n, int(t))
        out[mask] = t + _draw_delay(rng, pmf, size=int(mask.sum()))
    return out


def mc_contribution_prob(
    pmf_at,
    n_statuses: int,
    n: int,
    t_n: int,
    k: int,
    j: int,
    n_samples: int = 100_000,
    rng: np.random.Generator | None = None,
    min_acceptance: float = 1e-4,
) -> tuple[float, float]:
    """Monte Carlo estimate (value, stderr) of a contribution probability.

    Samples full onward paths; conditioning events (transition out of the
    current status after k, or pickup after k for delivered parcels) are
    enforced by rejection.  Returns the conditional estimate with its
    binomial standard error.
    """
    if n_samples < 10_000:
        raise ValidationError("need at least 10^4 samples for a useful oracle")
    rng = rng or np.random.default_rng(0)
    accepted = 0
    hits = 0
    attempted = 0
    batch = max(n_samples, 10_000)
    while accepted < n_samples:
        attempted += batch
        if n == n_statuses - 1:
            # Delivered parcel: draw pickup time, condition on T_N > k.
            t_pick = t_n + _draw_delay(rng, pmf_at(n, t_n), size=batch)
            keep = t_pick > k
            accepted += int(keep.sum())
            hits += int((t_pick[keep] > k + j).sum())
        else:
            times = t_n + _draw_delay(rng, pmf_at(n, t_n), size=batch)
            keep = times > k if t_n <= k else np.ones(batch, dtype=bool)
            times = times[keep]
            accepted += int(keep.sum())
            for m in range(n + 1, n_statuses - 1):
                times = _advance_groups(rng, pmf_at, m, times)
            delivered = times <= k + j
            t_del = times[delivered]
            picked = np.zeros(len(t_del), dtype=bool)
            for t in np.unique(t_del):
                mask = t_del == t
                t_pick = t + _draw_delay(rng, pmf_at(n_statuses - 1, int(t)), size=int(mask.sum()))
                picked[mask] = t_pick <= k + j
            hits += int((~picked).sum())
        if attempted >= 10 * batch and accepted / attempted < min_acceptance:
            raise ConditioningTooRare(
                f"acceptance rate {accepted / attempted:.2e} below {min_acceptance:.0e}"
            )
    p = hits / accepted
    stderr = float(np.sqrt(max(p * (1.0 - p), 1e-12) / accepted))
    return p, stderr


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
    forward-pass implementation in the engine.  Raises TooLarge when the
    path count bound exceeds ``max_paths``.
    """
    supports = [pmf_at(m, t_n).support_max for m in range(n, n_statuses)]
    bound = 1
    for s in supports:
        bound *= s
        if bound > max_paths:
            raise TooLarge(f"path bound exceeds {max_paths}")

    conditioned = t_n <= k  # future orders (t_n > k) carry no conditioning event
    numer = 0.0
    denom = 0.0

    if n == n_statuses - 1:
        f = pmf_at(n, t_n)
        for delta in range(1, f.support_max + 1):
            prob = float(f.probs[delta])
            if prob == 0.0:
                continue
            t_pick = t_n + delta
            survives_cond = (not conditioned) or t_pick > k
            if survives_cond:
                denom += prob
                if t_pick > k + j:
                    numer += prob
        # residual mass beyond the support never transitions inside any window
        residual = 1.0 - float(f.probs.sum())
        denom += residual
        numer += residual
        if denom <= 0.0:
            raise ValidationError("conditioning event has zero probability")
        return numer / denom

    def recurse(status: int, t: int, prob: float) -> None:
        nonlocal numer, denom
        if status == n_statuses - 1:
            denom += prob
            if t > k + j:
                return  # delivered too late: contributes 0 but is a valid path
            f = pmf_at(status, t)
            stays = 0.0
            for delta in range(1, f.support_max + 1):
                if t + delta > k + j:
                    stays += float(f.probs[delta])
            stays += 1.0 - float(f.probs.sum())  # truncated tail: still stored
            numer += prob * stays
            return
        f = pmf_at(status, t)
        for delta in range(1, f.support_max + 1):
            p_step = float(f.probs[delta])
            if p_step == 0.0:
                continue
            t_next = t + delta
            # paths failing the conditioning event are excluded everywhere
            if status == n and conditioned and t_next <= k:
                continue
            recurse(status + 1, t_next, prob * p_step)

    recurse(n, t_n, 1.0)
    if denom <= 0.0:
        raise ValidationError("conditioning event has zero probability")
    return numer / denom


def mc_load_at(
    parcels: list[ParcelRecord],
    kernel,
    intensity: OrderIntensity | None,
    selection: SelectionModel | None,
    k: int,
    j: int,
    n_replicates: int,
    rng: np.random.Generator,
    entry_status: int = 0,
    pup: str = "",
) -> np.ndarray:
    """Sample whole-system loads at k+j, one value per replicate future.

    Known parcels draw their remaining path conditionally on their evidence
    (exact truncated-tail sampling, no rejection); future orders arrive per
    slot and carrier with Poisson counts from the ground-truth intensity.
    """
    n_statuses = kernel.n_statuses
    loads = np.zeros(n_replicates, dtype=int)

    for rec in parcels:
        n = rec.status_at(k)
        if n is None or n >= n_statuses:
            continue
        t_n = rec.entry_times[n]
        pmf = kernel.pmf_at(n, t_n, carrier=rec.carrier, retailer=rec.retailer, pup=rec.pup)
        probs = _after(pmf, k - t_n)  # the transition happens after k
        if probs is None:
            # evidence beyond the support: retry with the pooled pmf, and if
            # that fails too the parcel has departed (the engine's rule)
            try:
                probs = _after(kernel.pooled_pmf_at(n, t_n), k - t_n)
            except MissingKernel:
                pass
        if probs is None:
            continue
        if n == n_statuses - 1:
            t_pick = t_n + rng.choice(len(probs), size=n_replicates, p=probs)
            loads += t_pick > k + j
            continue
        times = t_n + rng.choice(len(probs), size=n_replicates, p=probs)
        alive = times <= k + j
        for m in range(n + 1, n_statuses - 1):
            idx = np.nonzero(alive)[0]
            # buffer the updates: writing into ``times`` mid-iteration would
            # let a sample land on a later unique value and transition twice
            nxt = times.copy()
            for t in np.unique(times[idx]):
                mask = idx[times[idx] == t]
                pm = kernel.pmf_at(m, int(t), carrier=rec.carrier, retailer=rec.retailer, pup=rec.pup)
                nxt[mask] = t + rng.choice(len(pm.probs), size=len(mask), p=pm.probs)
            times = nxt
            alive &= times <= k + j
        idx = np.nonzero(alive)[0]
        for t in np.unique(times[idx]):
            mask = idx[times[idx] == t]
            pm = kernel.pmf_at(n_statuses - 1, int(t), carrier=rec.carrier, retailer=rec.retailer, pup=rec.pup)
            # draw the still-stored indicator directly: Bernoulli(pickup survival)
            loads[mask] += rng.random(len(mask)) < pm.survival(k + j - int(t))

    if intensity is None:
        return loads

    tb = kernel.timebase
    for i in range(1, j):
        t_0 = k + i
        for carrier in intensity.carriers:
            lam = intensity.lambda_at(tb, t_0, carrier)
            if lam <= 0.0:
                continue
            counts = rng.poisson(lam, size=n_replicates)
            total = int(counts.sum())
            if total == 0:
                continue
            owner = np.repeat(np.arange(n_replicates), counts)
            p_r = selection.p_retailer_given_carrier(carrier) if selection else {}
            if p_r:
                retailers = sorted(p_r, key=str)
                weights = np.array([p_r[r] for r in retailers])
                r_idx = rng.choice(len(retailers), size=total, p=weights / weights.sum())
            else:
                retailers, r_idx = [None], np.zeros(total, dtype=int)
            times = np.full(total, t_0)
            alive = np.ones(total, dtype=bool)
            for m in range(entry_status, n_statuses - 1):
                idx = np.nonzero(alive)[0]
                # buffer the updates (see the known-parcel loop above)
                nxt = times.copy()
                for ri, retailer in enumerate(retailers):
                    for t in np.unique(times[idx]):
                        mask = idx[(times[idx] == t) & (r_idx[idx] == ri)]
                        if len(mask) == 0:
                            continue
                        pm = kernel.pmf_at(m, int(t), carrier=carrier, retailer=retailer, pup=pup)
                        nxt[mask] = t + rng.choice(len(pm.probs), size=len(mask), p=pm.probs)
                times = nxt
                alive &= times <= k + j
            idx = np.nonzero(alive)[0]
            for ri, retailer in enumerate(retailers):
                for t in np.unique(times[idx]):
                    mask = idx[(times[idx] == t) & (r_idx[idx] == ri)]
                    if len(mask) == 0:
                        continue
                    pm = kernel.pmf_at(n_statuses - 1, int(t), carrier=carrier, retailer=retailer, pup=pup)
                    stays = mask[rng.random(len(mask)) < pm.survival(k + j - int(t))]
                    np.add.at(loads, owner[stays], 1)
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
