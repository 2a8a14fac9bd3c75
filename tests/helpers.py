"""Shared builders for the test suite: tiny kernels, random instances, a forecast digest and CSV rows."""

import csv
import hashlib
import io
from datetime import datetime
from pathlib import Path

import numpy as np

from pupcast import HoldingTimePmf, KernelLevel, StatusKernel, Timebase, TransitionKernel
from pupcast.engine import predict_load_pmfs
from pupcast.oracle import random_instance, random_pmf, simulate  # noqa: F401  (shared by the tests)

TB = Timebase(datetime(2024, 1, 1, 0))  # a Monday, midnight


def pooled_status(pmf: HoldingTimePmf) -> StatusKernel:
    """Status kernel with a single context-free pmf."""
    return StatusKernel((KernelLevel((), {(): pmf}),))


def chain_kernel(pmfs: list[HoldingTimePmf], timebase: Timebase = TB) -> TransitionKernel:
    """Kernel for statuses 0..len(pmfs)-1 with one pooled pmf each."""
    statuses = {n: pooled_status(pmf) for n, pmf in enumerate(pmfs)}
    return TransitionKernel(len(pmfs), statuses, timebase)


def fallback_kernel(*later: HoldingTimePmf) -> TransitionKernel:
    """Status 0 has a weekday level uniform on 1-2 slots over a pooled level
    uniform on 1-10, so a parcel in status 0 for 3-9 slots has evidence that
    only the pooled level allows; statuses 1.. use the pooled pmfs ``later``."""
    weekday = KernelLevel(("weekday",), {(w,): HoldingTimePmf.uniform(1, 2) for w in range(1, 8)})
    pooled = KernelLevel((), {(): HoldingTimePmf.uniform(1, 10)})
    statuses = {0: StatusKernel((weekday, pooled))}
    statuses.update({n: pooled_status(pmf) for n, pmf in enumerate(later, start=1)})
    return TransitionKernel(1 + len(later), statuses, TB)


def retailer_keyed_kernel() -> TransitionKernel:
    """Three statuses: status 0 keyed on the retailer, status 1 on the weekday
    and carrier, pickup on the weekday and hour; each with a pooled level."""
    rng = np.random.default_rng(41)
    by_retailer = KernelLevel(("retailer",), {("r1",): random_pmf(rng, 6), ("r2",): random_pmf(rng, 9)})
    by_carrier = KernelLevel(
        ("weekday", "carrier"), {(w, c): random_pmf(rng, 30) for w in range(1, 8) for c in ("c1", "c2")}
    )
    by_hour = KernelLevel(("weekday", "hour"), {(w, h): random_pmf(rng, 60) for w in range(1, 8) for h in range(24)})
    statuses = {
        n: StatusKernel((level, KernelLevel((), {(): random_pmf(rng, size)})))
        for n, (level, size) in enumerate([(by_retailer, 6), (by_carrier, 30), (by_hour, 60)])
    }
    return TransitionKernel(3, statuses, TB)


def forecast_digest(cfg, days, horizons, coverage=None, one_at_a_time=False) -> str:
    """sha256 of every pmf and note of ``predict_load_pmfs`` at ``horizons`` and ``coverage`` on
    ``cfg``'s simulated log, cut by ``truncated(k).for_pup(pup)`` at the midnight starting each of
    ``days``, with the config's own models; with ``one_at_a_time``, one call per horizon."""
    log, tb = simulate(cfg).event_log(), cfg.timebase
    h = hashlib.sha256()
    for day in days:
        k = day * tb.slots_per_day - tb.hour_of(0) // tb.slot_hours
        parcels = log.truncated(k).for_pup(cfg.pup)
        models = cfg.kernel, cfg.intensity, cfg.selection
        calls = [(j,) for j in horizons] if one_at_a_time else [horizons]
        for result in [r for js in calls for r in predict_load_pmfs(parcels, *models, k, js, cfg.entry_status, coverage)]:
            h.update(result.pmf.probs.tobytes())
            h.update(repr(result.diagnostics).encode())
    return h.hexdigest()


def write_rows(path, rows, quoting=csv.QUOTE_MINIMAL, lineterminator="\n") -> None:
    """Write ``rows`` to ``path`` as csv.writer does with ``quoting`` and
    ``lineterminator``.  ``rows`` is a list of field lists, or CSV text to
    take them from: a str, or bytes that need not be UTF-8, whose every byte
    is written back as it was."""
    if isinstance(rows, bytes):
        rows = rows.decode("utf-8", "surrogateescape")
    if isinstance(rows, str):
        rows = list(csv.reader(io.StringIO(rows, newline="")))
    text = io.StringIO()
    csv.writer(text, quoting=quoting, lineterminator=lineterminator).writerows(rows)
    Path(path).write_bytes(text.getvalue().encode("utf-8", "surrogateescape"))
