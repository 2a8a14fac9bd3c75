"""Shared builders for the test suite: tiny kernels and random instances."""

from datetime import datetime

from pupcast import HoldingTimePmf, KernelLevel, StatusKernel, Timebase, TransitionKernel
from pupcast.oracle import random_instance, random_pmf  # noqa: F401  (shared by the tests)

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
