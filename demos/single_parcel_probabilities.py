"""The closed forms, one parcel at a time, checked against two oracles.

Builds a tiny four-status chain by hand and walks through the probability
that a single parcel occupies the shop at slot k+j, for every kind of
evidence: already delivered, one transition away, several transitions
away, and a future order that has not been placed yet.  One closed form,
``contribution_prob``, takes the parcel's latest status n and the slot t_n
it entered it (t_n > k for an order not placed yet), as the oracles do.
Every value is verified against exhaustive path enumeration and a
conditional Monte Carlo estimate.

Run:  python3 demos/single_parcel_probabilities.py
"""

from datetime import datetime

import numpy as np

from pupcast import (
    HoldingTimePmf,
    KernelLevel,
    StatusKernel,
    Timebase,
    TransitionKernel,
    bind_kernel,
    contribution_prob,
    enumerate_contribution_prob,
    mc_contribution_prob,
)


def pooled(pmf: HoldingTimePmf) -> StatusKernel:
    return StatusKernel((KernelLevel((), {(): pmf}),))


def show(label: str, pmf_at, n_statuses: int, n: int, t_n: int, k: int, j: int):
    closed = contribution_prob(pmf_at, n_statuses, n, t_n, k, j)
    exact = enumerate_contribution_prob(pmf_at, n_statuses, n, t_n, k, j)
    mc, se = mc_contribution_prob(
        pmf_at, n_statuses, n, t_n, k, j, n_samples=200_000, rng=np.random.default_rng(5)
    )
    print(f"{label:<34} closed {closed:.6f}  enumeration {exact:.6f}  mc {mc:.6f} (+-{se:.4f})")
    assert abs(closed - exact) <= 1e-12


def main() -> None:
    tb = Timebase(datetime(2024, 1, 1, 0))
    kernel = TransitionKernel(
        n_statuses=4,
        statuses={
            0: pooled(HoldingTimePmf.uniform(1, 3)),   # order confirmed -> shipped
            1: pooled(HoldingTimePmf.uniform(2, 5)),   # shipped -> taken over
            2: pooled(HoldingTimePmf.uniform(1, 4)),   # taken over -> delivered
            3: pooled(HoldingTimePmf.uniform(2, 9)),   # delivered -> picked up
        },
        timebase=tb,
    )
    pmf_at = bind_kernel(kernel)
    k, j = 10, 6
    print(f"one parcel, anchor k={k}, horizon j={j} (does it occupy the shop at slot {k + j}?)\n")

    show("delivered at 8, not picked up yet", pmf_at, 4, 3, 8, k, j)
    show("taken over at 9, in transit", pmf_at, 4, 2, 9, k, j)
    show("ordered at 8, three hops to go", pmf_at, 4, 0, 8, k, j)
    show("order will be placed at 12", pmf_at, 4, 0, 12, k, j)

    print("\nconditioning matters: a parcel that has already sat in the shop for")
    print("a long time has little pickup pmf mass left beyond the horizon:")
    for t_del in (5, 7, 9):
        p = contribution_prob(pmf_at, 4, 3, t_del, k, j)
        print(f"  delivered at {t_del}: still stored at {k + j} with probability {p:.4f}")


if __name__ == "__main__":
    main()
