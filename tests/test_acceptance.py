"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Criteria, in order:
  1. closed forms match exhaustive enumeration on random small instances
  2. closed forms match conditional Monte Carlo at 1e5 samples
  3. whole-system load pmf matches the Monte Carlo truth on a 6-month scenario
  4. kernel estimators recover ground truth on a 10k-parcel log
  5. lifecycle forecaster beats both baselines at every default horizon
  6. Poisson truncation point against a high-precision oracle
  7. every produced pmf is normalized
  8. simulate and evaluate are byte-deterministic under a fixed seed
"""

import time
from collections import Counter
from datetime import datetime, timedelta

import mpmath
import numpy as np
import pytest

from pupcast import default_scenario, simulate
from pupcast.arrivals import (
    HourlyProfile,
    OrderIntensity,
    fit_daily_volume,
    fit_hourly_profile,
    poisson_truncation,
    seasonal_mean_forecaster,
)
from pupcast.cli import main
from pupcast.engine import bind_kernel, contribution_prob, predict_load_pmf
from pupcast.estimation import (
    OpeningHours,
    SelectionModel,
    estimate_pickup_kernel,
    estimate_selection,
    estimate_transit_kernel,
)
from pupcast.kernel import KernelLevel, StatusKernel, TransitionKernel
from pupcast.oracle import enumerate_contribution_prob, mc_contribution_prob, mc_load_at
from pupcast.pmf import HoldingTimePmf, tv_distance
from pupcast.scenario import ScenarioConfig
from pupcast.timebase import Timebase

from helpers import random_instance

HORIZONS = (13, 37, 61, 85)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {detail} {'PASS' if ok else 'FAIL'}")


def constrained_entry(rng, kernel, n: int, k: int) -> int:
    """Entry slot t_n <= k whose conditioning event T_{n+1} > k has mass."""
    s = kernel.pmf_at(n, 0).support_max
    lo = max(0, k - s + 1)
    return int(rng.integers(lo, k + 1))


# ---- shared scenarios ----


@pytest.fixture(scope="module")
def ramped():
    """Default 6-month scenario with an 80% volume ramp, plus its trace."""
    cfg = default_scenario()
    return cfg, simulate(cfg)


def estimation_scenario(n_days: int = 126, seed: int = 4242) -> ScenarioConfig:
    """Single-carrier scenario sized for estimator-consistency checks.

    Two-atom kernels and arrivals concentrated at 9-10 am give every
    fine-level key well over 200 completed observations out of a roughly
    10,000-parcel log.
    """
    tb = Timebase(epoch=datetime(2017, 7, 3, 0))  # a Monday
    carrier = "c1"

    transit_pmfs = {}
    for w in range(1, 8):
        p = 0.55 + 0.05 * (w % 3)
        probs = np.zeros(101)
        probs[24], probs[48] = p, 1.0 - p
        transit_pmfs[(w, carrier)] = HoldingTimePmf(probs)
    pooled_transit = HoldingTimePmf(
        np.bincount([24, 48], weights=[0.6, 0.4], minlength=101)
    )

    opening = OpeningHours({w: (9, 19) for w in range(1, 7)} | {7: (9, 12)})
    pickup_pmfs = {}
    for w, h in opening.valid_keys():
        q = 0.84 - 0.04 * (w % 3) - 0.02 * (h % 2)
        probs = np.zeros(337)
        probs[25], probs[49] = q, 1.0 - q
        pickup_pmfs[(w, h)] = HoldingTimePmf(probs)
    pooled_pickup = HoldingTimePmf(
        np.bincount([25, 49], weights=[0.8, 0.2], minlength=337)
    )

    kernel = TransitionKernel(
        n_statuses=4,
        statuses={
            2: StatusKernel(
                (
                    KernelLevel(("weekday", "carrier"), transit_pmfs),
                    KernelLevel((), {(): pooled_transit}),
                )
            ),
            3: StatusKernel(
                (
                    KernelLevel(("weekday", "hour"), pickup_pmfs),
                    KernelLevel((), {(): pooled_pickup}),
                )
            ),
        },
        timebase=tb,
    )

    rows = {}
    for w in range(1, 8):
        row = np.zeros(24)
        row[9] = row[10] = 0.5
        rows[(w, carrier)] = row
    profile = HourlyProfile(rows)
    start = tb.epoch.date()
    volumes = {carrier: {start + timedelta(days=d): 84.0 for d in range(n_days + 7)}}

    return ScenarioConfig(
        timebase=tb,
        kernel=kernel,
        intensity=OrderIntensity.from_schedule(profile, volumes),
        selection=SelectionModel({"r1": 1.0}, {"r1": {carrier: 1.0}}),
        opening=opening,
        pup="pup-est",
        entry_status=2,
        horizon_days=n_days,
        seed=seed,
    )


@pytest.fixture(scope="module")
def estimation_fit():
    """Simulate the estimation scenario and fit both kernels on the full log."""
    cfg = estimation_scenario()
    trace = simulate(cfg)
    log = trace.event_log()
    fitted_transit = estimate_transit_kernel(log, cfg.pup, status_from=2)
    fitted_pickup = estimate_pickup_kernel(log, cfg.pup, cfg.opening, status_from=3)
    return cfg, log, fitted_transit, fitted_pickup


# ---- criterion 1: closed forms vs exhaustive enumeration ----


def test_1_closed_forms_match_enumeration():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        kernel, k, j = random_instance(rng)
        n_statuses = kernel.n_statuses
        pmf_at = bind_kernel(kernel)

        # survival-ratio form for an already delivered parcel
        t_del = constrained_entry(rng, kernel, n_statuses - 1, k)
        closed = contribution_prob(pmf_at, n_statuses, n_statuses - 1, t_del, k, j)
        exact = enumerate_contribution_prob(pmf_at, n_statuses, n_statuses - 1, t_del, k, j)
        worst = max(worst, abs(closed - exact))

        # one transition away from delivery
        if n_statuses >= 2:
            t_prev = constrained_entry(rng, kernel, n_statuses - 2, k)
            closed = contribution_prob(pmf_at, n_statuses, n_statuses - 2, t_prev, k, j)
            exact = enumerate_contribution_prob(
                pmf_at, n_statuses, n_statuses - 2, t_prev, k, j
            )
            worst = max(worst, abs(closed - exact))

        # several transitions away from delivery
        n = int(rng.integers(0, n_statuses - 1))
        t_n = constrained_entry(rng, kernel, n, k)
        closed = contribution_prob(pmf_at, n_statuses, n, t_n, k, j)
        exact = enumerate_contribution_prob(pmf_at, n_statuses, n, t_n, k, j)
        worst = max(worst, abs(closed - exact))

        # order placed in the future, no conditioning event
        entry = int(rng.integers(0, n_statuses))
        t_0 = int(rng.integers(k + 1, k + j + 1))
        closed = contribution_prob(pmf_at, n_statuses, entry, t_0, k, j)
        exact = enumerate_contribution_prob(pmf_at, n_statuses, entry, t_0, k, j)
        worst = max(worst, abs(closed - exact))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed <= 120.0
    report(1, ok, f"200 instances x 4 forms, worst abs err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed <= 120.0


# ---- criterion 2: closed forms vs conditional Monte Carlo ----


def test_2_closed_forms_match_monte_carlo():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    hits = 0
    done = 0
    while done < 30:
        kernel, k, j = random_instance(rng)
        n_statuses = kernel.n_statuses
        pmf_at = bind_kernel(kernel)
        n = int(rng.integers(0, n_statuses))
        t_n = constrained_entry(rng, kernel, n, k)
        closed = contribution_prob(pmf_at, n_statuses, n, t_n, k, j)
        mc, se = mc_contribution_prob(pmf_at, n_statuses, n, t_n, k, j, n_samples=100_000, rng=rng)
        hits += abs(mc - closed) <= 3 * se
        done += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 28 and elapsed <= 300.0
    report(2, ok, f"{hits}/30 within 3 standard errors, {elapsed:.1f}s")
    assert hits >= 28
    assert elapsed <= 300.0


# ---- criterion 3: whole-system forecast vs Monte Carlo truth ----


def test_3_load_pmf_matches_whole_system_monte_carlo(ramped):
    cfg, trace = ramped
    rng = np.random.default_rng(303)
    anchors = [(28 + 6 * i) * 24 for i in range(20)]
    n_rep = 10_000
    worst_tv = 0.0
    all_ok = True
    for j in HORIZONS:
        within = 0
        for k in anchors:
            log = trace.event_log(cutoff=k)
            active = [r for r in log.for_pup(cfg.pup) if cfg.n_statuses not in r.entry_times]
            result = predict_load_pmf(
                active, cfg.kernel, cfg.intensity, cfg.selection, k, j,
                entry_status=cfg.entry_status, coverage=0.999999,
            )
            loads = mc_load_at(
                active, cfg.kernel, cfg.intensity, cfg.selection, k, j,
                n_replicates=n_rep, rng=rng, entry_status=cfg.entry_status, pup=cfg.pup,
            )
            se = loads.std(ddof=1) / np.sqrt(n_rep)
            within += abs(result.mean - loads.mean()) <= 3 * se
            empirical = np.bincount(loads) / n_rep
            worst_tv = max(worst_tv, tv_distance(result.pmf.probs, empirical))
        if within < 18:
            all_ok = False
        print(f"  j={j}: {within}/20 anchors within 3 sigma")
    ok = all_ok and worst_tv <= 0.05
    report(3, ok, f"means vs 1e4-replicate truth at 20 anchors, worst TV {worst_tv:.3f}")
    assert all_ok
    assert worst_tv <= 0.05


# ---- criterion 4: estimator consistency on a 10k-parcel log ----


def test_4_estimators_recover_ground_truth(estimation_fit):
    cfg, log, fitted_transit, fitted_pickup = estimation_fit
    tb = cfg.timebase
    records = [r for r in log.for_pup(cfg.pup) if 3 in r.entry_times]
    n_parcels = len(log.for_pup(cfg.pup))

    transit_counts = Counter(
        (tb.weekday_of(r.entry_times[2]), r.carrier) for r in records
    )
    pickup_counts = Counter(
        (tb.weekday_of(r.entry_times[3]), tb.hour_of(r.entry_times[3]))
        for r in records
        if 4 in r.entry_times
    )
    truth_transit = cfg.kernel.statuses[2].levels[0].pmfs
    truth_pickup = cfg.kernel.statuses[3].levels[0].pmfs

    worst = 0.0
    n_keys = 0
    for key, count in transit_counts.items():
        if count >= 200:
            n_keys += 1
            est = fitted_transit.levels[0].pmfs[key]
            worst = max(worst, tv_distance(est.probs, truth_transit[key].probs))
    for key, count in pickup_counts.items():
        if count >= 200 and key in truth_pickup:
            n_keys += 1
            est = fitted_pickup.levels[0].pmfs[key]
            worst = max(worst, tv_distance(est.probs, truth_pickup[key].probs))

    ok = worst <= 0.05 and n_keys >= 21 and n_parcels >= 10_000
    report(4, ok, f"{n_parcels} parcels, {n_keys} keys with >=200 obs, worst TV {worst:.3f}")
    assert n_parcels >= 10_000
    assert n_keys >= 21  # all 7 transit keys and at least 14 pickup keys qualify
    assert worst <= 0.05


# ---- criterion 5: lifecycle forecaster beats both baselines ----


def test_5_lifecycle_beats_baselines(ramped):
    from pupcast.evaluate import rolling_origin_evaluate

    cfg, trace = ramped
    tb = cfg.timebase
    anchors = [(42 + 6 * i) * 24 for i in range(20)]
    fit_log = trace.event_log(cutoff=anchors[0])
    kernel = TransitionKernel(
        n_statuses=4,
        statuses={
            2: estimate_transit_kernel(fit_log, cfg.pup, status_from=2),
            3: estimate_pickup_kernel(fit_log, cfg.pup, cfg.opening, status_from=3),
        },
        timebase=tb,
    )
    selection = estimate_selection(fit_log)
    profile = fit_hourly_profile(fit_log, status=cfg.entry_status)
    forecaster = seasonal_mean_forecaster(trend_damping=1.0)

    def intensity_at_anchor(k: int) -> OrderIntensity:
        # refit daily volumes on full days only, so nothing after the
        # anchor midnight leaks into the forecast
        volume = fit_daily_volume(
            trace.event_log(cutoff=k - 1), cfg.entry_status, forecaster=forecaster
        )
        return OrderIntensity.from_models(profile, volume, max_days_ahead=8)

    rep = rolling_origin_evaluate(trace, kernel, intensity_at_anchor, selection, anchors)
    gaps = {}
    dominated = True
    for j in HORIZONS:
        mae = rep.row("lifecycle", j).mae
        baseline_mean = (
            rep.row("seasonal-naive", j).mae + rep.row("holt-winters", j).mae
        ) / 2.0
        gaps[j] = baseline_mean - mae
        dominated &= mae < rep.row("seasonal-naive", j).mae
        dominated &= mae < rep.row("holt-winters", j).mae
        print(
            f"  j={j}: lifecycle {mae:.2f}, seasonal-naive "
            f"{rep.row('seasonal-naive', j).mae:.2f}, holt-winters "
            f"{rep.row('holt-winters', j).mae:.2f}"
        )
    narrowing = gaps[13] > gaps[85]
    ok = dominated and narrowing
    report(5, ok, f"MAE gaps by horizon {[round(gaps[j], 2) for j in HORIZONS]}")
    assert dominated
    assert narrowing


# ---- criterion 6: Poisson truncation vs high-precision oracle ----


def test_6_poisson_truncation_point():
    mpmath.mp.dps = 50
    coverage = mpmath.mpf("0.99")
    rng = np.random.default_rng(606)

    def cdf(lam, m):
        lam = mpmath.mpf(lam)
        return mpmath.e ** (-lam) * sum(
            lam ** i / mpmath.factorial(i) for i in range(m + 1)
        )

    bad = 0
    for _ in range(100):
        lam = float(rng.uniform(1e-6, 50.0))
        m = poisson_truncation(lam)
        if not (cdf(lam, m) >= coverage and (m == 0 or cdf(lam, m - 1) < coverage)):
            bad += 1
    ok = bad == 0
    report(6, ok, f"100 random rates in (0, 50], {bad} wrong truncation points")
    assert bad == 0


# ---- criterion 7: normalization of every produced pmf ----


def test_7_all_pmfs_normalized(estimation_fit):
    cfg, log, fitted_transit, fitted_pickup = estimation_fit
    violations = 0

    def check_holding(pmf):
        nonlocal violations
        if abs(float(pmf.probs.sum()) - 1.0) > 1e-9 or pmf.probs[0] != 0.0:
            violations += 1

    n_checked = 0
    for status_kernel in list(default_scenario(horizon_days=7).kernel.statuses.values()) + [
        fitted_transit, fitted_pickup
    ]:
        for level in status_kernel.levels:
            for pmf in level.pmfs.values():
                check_holding(pmf)
                n_checked += 1

    k = 28 * 24
    parcels = log.truncated(k).for_pup(cfg.pup)
    for j in HORIZONS:
        result = predict_load_pmf(
            parcels, cfg.kernel, cfg.intensity, cfg.selection, k, j,
            entry_status=cfg.entry_status,
        )
        if abs(float(result.pmf.probs.sum()) - 1.0) > 1e-6:
            violations += 1
        n_checked += 1

    for (w, c), row in cfg.intensity.profile.rho.items():
        if row.sum() > 0 and abs(float(row.sum()) - 1.0) > 1e-9:
            violations += 1
        n_checked += 1

    ok = violations == 0
    report(7, ok, f"{n_checked} pmfs checked, {violations} normalization violations")
    assert violations == 0


# ---- criterion 8: byte-identical outputs under a fixed seed ----


def test_8_determinism(tmp_path):
    config = tmp_path / "config.json"
    default_scenario(horizon_days=35, ramp=0.0).save(config)
    for d in ("a", "b"):
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / d)]) == 0
        assert main([
            "evaluate", "--config", str(config), "--horizons", "13,37",
            "--first-anchor-day", "28", "--out", str(tmp_path / d / "report.csv"),
        ]) == 0
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("events.csv", "load_true.csv", "report.csv")
    )
    report(8, same, "simulate and evaluate outputs byte-identical across two runs")
    assert same
