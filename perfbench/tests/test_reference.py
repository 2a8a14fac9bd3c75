"""The benchmark's reference model against the program's exhaustive oracle.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import math
import sys
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from pupcast.arrivals import HourlyProfile, OrderIntensity, poisson_truncation  # noqa: E402
from pupcast.estimation import SelectionModel  # noqa: E402
from pupcast.kernel import KernelLevel, StatusKernel, TransitionKernel  # noqa: E402
from pupcast.oracle import enumerate_contribution_prob  # noqa: E402
from pupcast.pmf import HoldingTimePmf  # noqa: E402
from pupcast.timebase import Timebase  # noqa: E402

from reference import Window, future_order_terms, truncated_poisson_moments  # noqa: E402
from workloads import chi2_limit  # noqa: E402

TB = Timebase(datetime(2024, 1, 1, 0))  # a Monday


def random_pmf(rng, support: int) -> HoldingTimePmf:
    probs = np.zeros(support + 1)
    probs[1:] = rng.dirichlet(np.ones(support))
    return HoldingTimePmf(probs)


def random_kernel(rng, carriers=(None,)) -> TransitionKernel:
    """2-5 statuses, supports of 2-6 slots; half of them vary by weekday and carrier."""
    n_statuses = int(rng.integers(2, 6))
    statuses = {}
    for n in range(n_statuses):
        support = int(rng.integers(2, 7))
        levels = []
        if rng.random() < 0.5:
            pmfs = {(w, c): random_pmf(rng, support) for w in range(1, 8) for c in carriers}
            levels.append(KernelLevel(("weekday", "carrier"), pmfs))
        levels.append(KernelLevel((), {(): random_pmf(rng, support)}))
        statuses[n] = StatusKernel(tuple(levels))
    return TransitionKernel(n_statuses, statuses, TB)


def entry_with_mass(rng, kernel, n: int, k: int) -> int | None:
    """An entry slot t <= k whose conditioning event (leaving after k) has mass."""
    candidates = [
        t for t in range(max(0, k - 8), k + 1) if kernel.pmf_at(n, t).probs[k - t + 1 :].sum() > 0
    ]
    return int(rng.choice(candidates)) if candidates else None


def test_contribution_probabilities_match_enumeration():
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = {"delivered": 0, "in transit": 0, "future order": 0}
    for _ in range(200):
        kernel = random_kernel(rng)
        n_statuses = kernel.n_statuses
        k = int(rng.integers(2, 30))
        j = int(rng.integers(1, 13))
        window = Window(kernel, k, j)

        def pmf_at(n, t):
            return kernel.pmf_at(n, t)

        t = entry_with_mass(rng, kernel, n_statuses - 1, k)
        if t is not None:
            exact = enumerate_contribution_prob(pmf_at, n_statuses, n_statuses - 1, t, k, j)
            worst = max(worst, abs(window.known(n_statuses - 1, t) - exact))
            checked["delivered"] += 1

        n = int(rng.integers(0, n_statuses - 1)) if n_statuses > 1 else 0
        t = entry_with_mass(rng, kernel, n, k)
        if n < n_statuses - 1 and t is not None:
            exact = enumerate_contribution_prob(pmf_at, n_statuses, n, t, k, j)
            worst = max(worst, abs(window.known(n, t) - exact))
            checked["in transit"] += 1

        entry = int(rng.integers(0, n_statuses))
        t_0 = int(rng.integers(k + 1, k + j + 1))
        exact = enumerate_contribution_prob(pmf_at, n_statuses, entry, t_0, k, j)
        worst = max(worst, abs(window.future(entry, t_0) - exact))
        checked["future order"] += 1

    assert min(checked.values()) >= 100, checked
    assert worst <= 1e-12


def test_future_orders_mix_retailers_per_carrier():
    rng = np.random.default_rng(11)
    carriers = ("c1", "c2")
    kernel = random_kernel(rng, carriers)
    rows = {(w, c): np.full(24, 1.0 / 24) for w in range(1, 8) for c in carriers}
    volumes = {c: {date(2024, 1, 1) + timedelta(days=d): 24.0 * (i + 1) for d in range(7)} for i, c in enumerate(carriers)}
    intensity = OrderIntensity.from_schedule(HourlyProfile(rows), volumes)
    selection = SelectionModel({"r1": 0.6, "r2": 0.4}, {"r1": {"c1": 0.5, "c2": 0.5}, "r2": {"c1": 1.0}})
    k, j, entry = 30, 10, 0
    terms = future_order_terms(kernel, intensity, selection, "p", k, j, entry)
    assert len(terms) == 2 * (j - 1)
    want = []
    for t_0 in range(k + 1, k + j):
        for c in carriers:
            p = sum(
                w * enumerate_contribution_prob(
                    lambda n, t: kernel.pmf_at(n, t, carrier=c, retailer=r, pup="p"),
                    kernel.n_statuses, entry, t_0, k, j,
                )
                for r, w in selection.p_retailer_given_carrier(c).items()
            )
            want.append((intensity.lambda_at(TB, t_0, c), p))
    for term, (lam, p) in zip(terms, want):
        assert term.lam == lam
        assert abs(term.p - p) <= 1e-12


@pytest.mark.parametrize("lam", [0.05, 0.7, 3.2, 12.0])
@pytest.mark.parametrize("coverage", [0.99, 0.999999])
def test_truncated_mixture_moments(lam, coverage):
    """Moments of the truncated mixture equal those of its explicit pmf."""
    p = 0.37
    m_max = poisson_truncation(lam, coverage)
    weights = np.array([math.exp(-lam) * lam**m / math.factorial(m) for m in range(m_max + 1)])
    weights /= weights.sum()
    mixture = np.zeros(m_max + 1)
    for m, w in enumerate(weights):
        mixture[: m + 1] += w * np.array([math.comb(m, x) * p**x * (1 - p) ** (m - x) for x in range(m + 1)])
    x = np.arange(m_max + 1)
    mean = x @ mixture
    var = (x - mean) ** 2 @ mixture
    mu, sigma2 = truncated_poisson_moments(lam, coverage)
    assert abs(p * mu - mean) <= 1e-12
    assert abs(p * (1 - p) * mu + p * p * sigma2 - var) <= 1e-12


def test_chi2_limit_false_alarm():
    stats = pytest.importorskip("scipy.stats")
    for dof in (1, 10, 40, 80, 400):
        assert stats.chi2.sf(chi2_limit(dof, 1e-3), dof) < 1e-3
