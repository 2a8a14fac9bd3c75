"""Simulation, enumeration and Monte Carlo oracles."""

import ast
import hashlib
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import pupcast
from pupcast import HoldingTimePmf, KernelLevel, StatusKernel, TransitionKernel, default_scenario, simulate
from pupcast.arrivals import HourlyProfile, OrderIntensity
from pupcast.engine import bind_kernel, contribution_prob, predict_load_pmf, predict_load_pmfs
from pupcast.errors import ImpossibleEvidence, MissingKernel, TooLarge, ValidationError
from pupcast.estimation import SelectionModel
from pupcast.oracle import (
    _cdf,
    _Draw,
    _groups,
    enumerate_contribution_prob,
    mc_contribution_prob,
    mc_load_at,
)
from pupcast.cli import main
from pupcast.records import NEVER, EventLog, ParcelRecord

from helpers import TB, chain_kernel, fallback_kernel, pooled_status, random_instance, random_pmf


def stationary(pmfs):
    return lambda n, t: pmfs[n]


def trace_digest(trace) -> str:
    """sha256 of every parcel's (id, carrier, retailer, pup, entry times) and of the load's bytes."""
    h = hashlib.sha256()
    for rec in trace.parcels:
        h.update(repr((rec.id, rec.carrier, rec.retailer, rec.pup, sorted(rec.entry_times.items()))).encode())
    h.update(trace.load.tobytes())
    return h.hexdigest()


def point_mass_scenario():
    """Two statuses from entry status 0, a day then three hours, on the default arrivals."""
    cfg = default_scenario(horizon_days=14, ramp=0.0)
    one_day = HoldingTimePmf.point_mass(24, support_max=100)
    three_h = HoldingTimePmf.point_mass(3, support_max=336)
    cfg.kernel = chain_kernel([one_day, three_h], timebase=cfg.timebase)
    cfg.entry_status = 0
    return cfg


def unselected_scenario():
    """Four weeks without a selection model: no carrier draws a retailer."""
    cfg = default_scenario(horizon_days=28)
    cfg.selection = None
    return cfg


# digests of the traces that simulate drew with one scalar Generator.choice per parcel and status
GOLDEN_TRACES = {
    "seed 1": (lambda: default_scenario(seed=1), "89a21742c3054739fcdf1172241f0a34c3ee106f534a317380bf891cd9d9f4da"),
    "seed 2": (lambda: default_scenario(seed=2), "777e71c62e3af29270744261dc1a06c43d5ba9d13f56685c310b46cccb668109"),
    "seed 3": (lambda: default_scenario(seed=3), "f99e3ccf5089859c930efd204982cb26e9c69196cb66e9847e4143d0996e1298"),
    "seed 1, 5x volumes": (
        lambda: default_scenario(seed=1, base_volumes={"c1": 45.0, "c2": 30.0, "c3": 20.0}),
        "7a3733126dffe598c020170591da5f514fc5eb0048f72fbca7669c7dddfe2049",
    ),
    "no selection": (unselected_scenario, "9bf6a83648cac4bc6cc4975a2fbad32afeb58fa8034b67d2e65359c63de136f1"),
    "point masses": (point_mass_scenario, "753cbff9a031104dab6f1c82eafdf6d86db9be04f310bd423b71df04a8974052"),
}


class TestSimulate:
    def test_zero_intensity_gives_empty_trace(self):
        cfg = default_scenario(horizon_days=7, base_volumes={"c1": 0.0, "c2": 0.0, "c3": 0.0})
        for intensity in (cfg.intensity, OrderIntensity.from_schedule(HourlyProfile({}), {})):  # no carrier at all
            cfg.intensity = intensity
            trace = simulate(cfg)
            assert trace.parcels == []
            assert not trace.load.any()

    def test_self_consistency(self):
        cfg = default_scenario(horizon_days=21, ramp=0.0)
        trace = simulate(cfg)
        assert np.array_equal(trace.recount_load(), trace.load)

    def test_deterministic_under_seed(self, tmp_path):
        cfg = default_scenario(horizon_days=14, ramp=0.0)
        a, b = simulate(cfg), simulate(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.event_log().to_csv(pa)
        b.event_log().to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert np.array_equal(a.load, b.load)

    def test_different_seeds_differ(self):
        a = simulate(default_scenario(seed=1, horizon_days=14, ramp=0.0))
        b = simulate(default_scenario(seed=2, horizon_days=14, ramp=0.0))
        assert not np.array_equal(a.load, b.load)

    def test_point_mass_kernels_give_exact_delays(self):
        trace = simulate(point_mass_scenario())
        assert trace.parcels
        for rec in trace.parcels:
            assert rec.entry_times[1] - rec.entry_times[0] == 24
            assert rec.entry_times[2] - rec.entry_times[1] == 3
        assert np.array_equal(trace.recount_load(), trace.load)

    @pytest.mark.parametrize("case", GOLDEN_TRACES)
    def test_traces_match_their_golden_digests(self, case):
        scenario, digest = GOLDEN_TRACES[case]
        assert trace_digest(simulate(scenario())) == digest

    def test_simulate_builds_no_records(self, tmp_path, monkeypatch):
        built = []
        init = ParcelRecord.__init__
        monkeypatch.setattr(ParcelRecord, "__init__", lambda self, *args: built.append(args) or init(self, *args))
        cfg = default_scenario(horizon_days=28)
        trace = simulate(cfg)
        trace.event_log(cutoff=400)
        cfg.save(tmp_path / "config.json")
        assert main(["simulate", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "sim")]) == 0
        assert not built
        assert len(trace.parcels) == len(trace.log) == len(built)  # built when first read

    def test_event_log_censors_at_cutoff(self):
        cfg = default_scenario(horizon_days=21, ramp=0.0)
        trace = simulate(cfg)
        cutoff = 10 * 24
        log = trace.event_log(cutoff=cutoff)
        assert all(t <= cutoff for rec in log.records for t in rec.entry_times.values())


def pinned_instances():
    """The (pmf_at, n_statuses, n, t_n, k, j) instances that the enumeration is pinned on.

    Per seeded random kernel: a delivered parcel with pickup mass before k, one
    delivered at k, one hop and several hops away from delivery, and future
    orders entering the last and the first status.  Then two chains whose pmf
    sums to 1 - 5e-10, so that the mass beyond the support counts, and a
    parcel that was certainly picked up by k.
    """
    out = []
    for seed in range(6):
        kernel, k, j = random_instance(np.random.default_rng(seed), max_statuses=4, max_support=8)
        last = kernel.n_statuses - 1
        pmf_at = kernel.pmf_at
        out += [(pmf_at, last + 1, last, k - 2, k, j), (pmf_at, last + 1, last, k, k, j)]
        out += [(pmf_at, last + 1, last - 1, k - 1, k, j), (pmf_at, last + 1, 0, k - 1, k, j)]
        out += [(pmf_at, last + 1, last, k + 1, k, j), (pmf_at, last + 1, 0, k + 1, k, j)]
    short = HoldingTimePmf(np.array([0.0, 0.25, 0.5, 0.25 - 5e-10]))  # sums to 1 - 5e-10
    u = HoldingTimePmf.uniform(1, 3)
    for pmfs in ([u, short], [short, u, short]):
        last = len(pmfs) - 1
        out += [(stationary(pmfs), last + 1, n, t_n, 4, 2) for n, t_n in [(last, 0), (last, 2), (last, 5), (0, 3)]]
    return out + [(stationary([HoldingTimePmf.point_mass(1, support_max=2)]), 1, 0, 0, 4, 2)]  # picked up by k


# enumerate_contribution_prob on pinned_instances() while it had a branch of its own for delivered
# parcels: two lines per random kernel, one per short-pmf chain; ValidationError where the
# conditioning event has zero probability
PINNED_ENUMERATION = [
    1.529191172417544e-16, 1.1102230246251565e-16, 0.24453751354969508,
    0.2177267229387472, 1.1102230246251565e-16, 0.06544511644878442,
    0.0, 0.0, 0.0,
    0.3415287221394537, 0.0, 0.5996590684930184,
    1.491309234748108e-16, 1.1102230246251565e-16, 0.03964233683121248,
    0.5161584427296129, 1.1102230246251565e-16, 0.28671526340931425,
    0.0, 0.12457997507225027, 0.48733254887104915,
    0.04419792899858227, 0.23944561270556292, 0.009319737357495384,
    0.2090584571732882, 0.2530369102740184, 0.07125821015519977,
    0.0, 0.35739378610034406, 0.0,
    0.0, 0.0, 0.13602329893047568,
    0.47789429994304405, 0.0, 0.4144976853105944,
    1.0, 2.000000165480742e-09, 0.75, 0.8749999999999999,
    1.0, 2.000000165480742e-09, 0.75, 0.22222222237037034,
    ValidationError,
]


class TestEnumeration:
    def test_single_hop_partial_sums(self):
        f = HoldingTimePmf.uniform(1, 4)
        pmf_at = stationary([f])
        for k, j in [(1, 1), (1, 2), (2, 1), (0, 3)]:
            exact = enumerate_contribution_prob(pmf_at, 1, 0, 0, k, j)
            closed = f.survival(k + j) / f.survival(k)
            assert exact == pytest.approx(closed, abs=1e-15)

    def test_infeasible_horizon(self):
        u = HoldingTimePmf.uniform(1, 2)
        pmf_at = stationary([u, u, u, u])
        assert enumerate_contribution_prob(pmf_at, 4, 0, 12, 10, 2) == 0.0

    def test_pinned_values(self):
        for instance, want in zip(pinned_instances(), PINNED_ENUMERATION, strict=True):
            if want is ValidationError:
                with pytest.raises(ValidationError, match="zero probability"):
                    enumerate_contribution_prob(*instance)
            else:
                assert abs(enumerate_contribution_prob(*instance) - want) <= 1e-15

    def test_zero_probability_condition_raises(self):
        # k = 7 is past the pickup support of 5, so a parcel delivered at 0 was
        # certainly picked up by k: the condition's probability is a rounding
        # residual, and the engine's closed form calls the evidence impossible
        kernel, k, j = random_instance(np.random.default_rng(0), max_statuses=4, max_support=5)
        route, n_statuses = bind_kernel(kernel), kernel.n_statuses
        assert (k, j) == (7, 10)
        with pytest.raises(ImpossibleEvidence):
            contribution_prob(route, n_statuses, n_statuses - 1, 0, k, j)
        with pytest.raises(ValidationError, match="zero probability"):
            enumerate_contribution_prob(route, n_statuses, n_statuses - 1, 0, k, j)

    def test_too_large(self):
        big = HoldingTimePmf.uniform(1, 400)
        pmf_at = stationary([big] * 4)
        with pytest.raises(TooLarge):
            enumerate_contribution_prob(pmf_at, 4, 0, 0, 2, 5, max_paths=10_000)


class TestMonteCarlo:
    def test_deterministic_kernel_gives_exact_indicator(self):
        one = HoldingTimePmf.point_mass(1, support_max=4)
        far = HoldingTimePmf.point_mass(4, support_max=4)
        pmf_at = stationary([one, far])
        p, se = mc_contribution_prob(pmf_at, 2, 0, t_n=3, k=3, j=2, n_samples=10_000)
        assert p == 1.0 and se <= 1e-4

    def test_hand_case_within_three_sigma(self):
        pmf_at = stationary([HoldingTimePmf.uniform(1, 4)])
        rng = np.random.default_rng(31)
        p, se = mc_contribution_prob(pmf_at, 1, 0, 0, k=1, j=1, n_samples=100_000, rng=rng)
        assert abs(p - 2 / 3) <= 3 * se

    def test_dual_oracle_agreement(self):
        rng = np.random.default_rng(77)
        done = 0
        while done < 5:
            kernel, k, j = random_instance(rng, max_statuses=4, max_support=5)
            pmf_at = bind_kernel(kernel)
            n = int(rng.integers(0, kernel.n_statuses))
            t_n = int(rng.integers(0, k + 1))
            try:
                exact = enumerate_contribution_prob(pmf_at, kernel.n_statuses, n, t_n, k, j)
                mc, se = mc_contribution_prob(
                    pmf_at, kernel.n_statuses, n, t_n, k, j, n_samples=100_000, rng=rng
                )
            except ValidationError:
                continue  # the conditioning event is impossible
            assert abs(mc - exact) <= 3 * max(se, 1e-6)
            done += 1

    @pytest.mark.parametrize("n_statuses, expected", [(1, 0.5), (2, 0.375)], ids=["last status", "in transit"])
    def test_rare_conditioning_is_sampled_exactly(self, n_statuses, expected):
        # leaving after k = 30 has probability 2e-5: the delay is then 40 or 45,
        # each with probability 1/2; in the last status 45 is stored at k + j = 42,
        # in transit 40 enters a uniform(1, 8) pickup and is stored with probability 6/8
        probs = np.zeros(46)
        probs[[1, 40, 45]] = 1.0 - 2e-5, 1e-5, 1e-5
        pmf_at = stationary([HoldingTimePmf(probs), HoldingTimePmf.uniform(1, 8)][:n_statuses])
        exact = enumerate_contribution_prob(pmf_at, n_statuses, 0, 0, 30, 12)
        mc, se = mc_contribution_prob(pmf_at, n_statuses, 0, 0, 30, 12, 10_000, np.random.default_rng(9))
        assert abs(exact - expected) <= 1e-9  # enumeration keeps the pmf's rounding residual, 1e-16 against 2e-5
        assert abs(mc - exact) <= 3 * se

    def test_impossible_conditioning_raises_as_enumeration_does(self):
        # both statuses' holding times end by slot 4 or 8, so neither is left after k = 30
        pmf_at = stationary([HoldingTimePmf.uniform(1, 4), HoldingTimePmf.uniform(1, 8)])
        for n in (0, 1):
            with pytest.raises(ValidationError) as exact:
                enumerate_contribution_prob(pmf_at, 2, n, 0, 30, 5)
            with pytest.raises(ValidationError) as mc:
                mc_contribution_prob(pmf_at, 2, n, 0, 30, 5, 10_000)
            assert str(mc.value) == str(exact.value) == "conditioning event has zero probability"

    def test_an_entry_into_the_last_status_after_k_is_stored_only_by_k_plus_j(self):
        # uniform(1, 8) pickup, k = 30, j = 3: an entry at 31, 32, 33 is stored at 33
        # with probability 6/8, 7/8, 1, and one at 34, 35, 36, after k + j, never
        k, j, pmf_at = 30, 3, stationary([HoldingTimePmf.uniform(1, 4), HoldingTimePmf.uniform(1, 8)])
        for t_n in range(k + 1, k + j + 4):
            exact = enumerate_contribution_prob(pmf_at, 2, 1, t_n, k, j)
            mc, se = mc_contribution_prob(pmf_at, 2, 1, t_n, k, j, 10_000, np.random.default_rng(t_n))
            if exact in (0.0, 1.0):
                assert mc == exact, t_n
            else:
                assert abs(mc - exact) <= 3 * se, t_n


class TestWholeSystemSampler:
    def test_known_parcels_match_closed_form(self):
        u2 = HoldingTimePmf.uniform(1, 3)
        u3 = HoldingTimePmf.uniform(1, 8)
        kernel = chain_kernel([u2, u3])
        k, j = 24, 4
        parcels = [
            ParcelRecord("P1", "c1", "shop", "r1", {0: 23}),
            ParcelRecord("P2", "c1", "shop", "r1", {0: 20, 1: 22}),
        ]
        pmf_at = bind_kernel(kernel, carrier="c1", retailer="r1", pup="shop")
        expected = contribution_prob(pmf_at, 2, 0, 23, k, j)
        expected += contribution_prob(pmf_at, 2, 1, 22, k, j)
        rng = np.random.default_rng(3)
        loads = mc_load_at(parcels, kernel, None, None, k, j, n_replicates=50_000, rng=rng)
        se = loads.std(ddof=1) / np.sqrt(len(loads))
        assert abs(loads.mean() - expected) <= 3 * se

    def test_impossible_evidence_follows_the_engine(self):
        # the weekday pmf says a parcel in status 0 since slot 0 must have
        # moved on by slot 2; the pooled pmf allows delivery in 6..10, and
        # pickup (20..30 slots later) cannot happen by 15
        kernel = fallback_kernel(HoldingTimePmf.uniform(20, 30))
        parcel = ParcelRecord("P1", "c1", "shop", "r1", {0: 0})
        engine_mean = predict_load_pmf([parcel], kernel, None, None, k=5, j=10).mean
        assert engine_mean == pytest.approx(1.0)
        loads = mc_load_at([parcel], kernel, None, None, 5, 10, n_replicates=10_000, rng=np.random.default_rng(0))
        assert loads.mean() == pytest.approx(engine_mean)
        # evidence beyond the pooled support too: the parcel has departed
        late = predict_load_pmf([parcel], kernel, None, None, k=12, j=10).mean
        loads = mc_load_at([parcel], kernel, None, None, 12, 10, n_replicates=10_000, rng=np.random.default_rng(0))
        assert late == loads.mean() == 0.0

    def test_evidence_at_most_the_zero_of_enumeration_follows_the_engine(self):
        # carrier c1's pmf leaves status 0 after k = 30 with probability 2e-16, at or below the
        # 1e-15 that enumeration and the engine take for zero: the estimate raises as enumeration
        # does, and the whole-system sampler takes the pooled pmf, as the engine does
        faint = np.zeros(46)
        faint[[1, 40, 45]] = 1.0 - 2e-16, 1e-16, 1e-16
        pooled = KernelLevel((), {(): HoldingTimePmf.uniform(1, 40)})
        pickup = pooled_status(HoldingTimePmf.uniform(1, 8))
        by_carrier = StatusKernel((KernelLevel(("carrier",), {("c1",): HoldingTimePmf(faint)}), pooled))
        kernel = TransitionKernel(2, {0: by_carrier, 1: pickup}, TB)
        plain = TransitionKernel(2, {0: StatusKernel((pooled,)), 1: pickup}, TB)
        pmf_at = bind_kernel(kernel, "c1", "r1", "shop")
        for estimate in (enumerate_contribution_prob, mc_contribution_prob):
            with pytest.raises(ValidationError, match="^conditioning event has zero probability$"):
                estimate(pmf_at, 2, 0, 0, 30, 12)
        parcel = ParcelRecord("P1", "c1", "shop", "r1", {0: 0})
        rescued, pooled_only = (predict_load_pmf([parcel], kern, None, None, 30, 12) for kern in (kernel, plain))
        assert rescued.diagnostics == ["parcel P1: impossible evidence, used pooled fallback"]
        assert rescued.pmf.probs.tobytes() == pooled_only.pmf.probs.tobytes()
        loads = [mc_load_at([parcel], kern, None, None, 30, 12, 10_000, np.random.default_rng(0)) for kern in (kernel, plain)]
        assert np.array_equal(*loads)

    def test_a_parcel_in_a_status_never_fitted_is_skipped_as_the_engine_skips_it(self):
        # the default kernel fits statuses 2 and 3 only: a parcel still in
        # status 1 draws nothing, and the other parcels' loads keep their bytes
        cfg = default_scenario(horizon_days=28)
        early = ParcelRecord("P1", "c1", cfg.pup, "r1", {1: 590})
        delivered = ParcelRecord("P2", "c1", cfg.pup, "r1", {2: 580, 3: 590})
        k, j = 600, 13
        res = predict_load_pmf([early, delivered], cfg.kernel, None, None, k, j, cfg.entry_status)
        assert res.diagnostics == ["parcel P1: no kernel for status 1; skipped"]
        models = (cfg.kernel, cfg.intensity, cfg.selection, k, j, 2_000)
        loads = mc_load_at([early, delivered], *models, np.random.default_rng(5), cfg.entry_status, cfg.pup)
        alone = mc_load_at([delivered], *models, np.random.default_rng(5), cfg.entry_status, cfg.pup)
        assert np.array_equal(loads, alone)

    def test_retailer_routes_over_several_hops_match_the_engine(self):
        # status 0 moves r1's parcels in 1-2 slots and r2's in 3-6, so future
        # orders of the two retailers take different routes through three hops
        by_retailer = KernelLevel(
            ("retailer",), {("r1",): HoldingTimePmf.uniform(1, 2), ("r2",): HoldingTimePmf.uniform(3, 6)}
        )
        pooled = KernelLevel((), {(): HoldingTimePmf.uniform(1, 6)})
        kernel = TransitionKernel(4, {
            0: StatusKernel((by_retailer, pooled)),
            1: pooled_status(HoldingTimePmf.uniform(1, 3)),
            2: pooled_status(HoldingTimePmf.uniform(1, 4)),
            3: pooled_status(HoldingTimePmf.uniform(2, 12)),
        }, TB)
        rho = {(w, "c1"): np.full(24, 1 / 24) for w in range(1, 8)}
        volumes = {"c1": {date(2024, 1, d): 12.0 for d in range(1, 4)}}
        intensity = OrderIntensity.from_schedule(HourlyProfile(rho), volumes)
        selection = SelectionModel({"r1": 0.4, "r2": 0.6}, {"r1": {"c1": 1.0}, "r2": {"c1": 1.0}})
        k, j = 24, 12
        parcels = [
            ParcelRecord("P0", "c1", "shop", "r1", {0: 24}),
            ParcelRecord("P1", "c1", "shop", "r2", {0: 22}),
            ParcelRecord("P2", "c1", "shop", "r2", {0: 17, 1: 21}),
            ParcelRecord("P3", "c1", "shop", "r1", {0: 19, 1: 20, 2: 23}),
            ParcelRecord("P4", "c1", "shop", "r1", {0: 15, 1: 16, 2: 18, 3: 22}),
        ]
        engine_mean = predict_load_pmf(parcels, kernel, intensity, selection, k, j, coverage=1 - 1e-12).mean
        rng = np.random.default_rng(11)
        loads = mc_load_at(parcels, kernel, intensity, selection, k, j, n_replicates=20_000, rng=rng, pup="shop")
        se = loads.std(ddof=1) / np.sqrt(len(loads))
        assert abs(loads.mean() - engine_mean) <= 4 * se

    def test_future_orders_take_the_pup_the_parcels_name(self):
        # orders for "shop" are delivered in 1-2 slots, the pooled pmf takes
        # 20-30, and pickup 40-50: with the pooled pmf no order is stored by k+j
        by_pup = KernelLevel(("pup",), {("shop",): HoldingTimePmf.uniform(1, 2)})
        kernel = TransitionKernel(2, {
            0: StatusKernel((by_pup, KernelLevel((), {(): HoldingTimePmf.uniform(20, 30)}))),
            1: pooled_status(HoldingTimePmf.uniform(40, 50)),
        }, TB)
        rho = {(w, "c1"): np.full(24, 1 / 24) for w in range(1, 8)}
        volumes = {"c1": {date(2024, 1, d): 24.0 for d in range(1, 5)}}
        intensity = OrderIntensity.from_schedule(HourlyProfile(rho), volumes)
        parcel = ParcelRecord("P1", "c1", "shop", "r1", {0: 47})
        k, j = 48, 12
        engine_mean = predict_load_pmf([parcel], kernel, intensity, None, k, j).mean
        assert engine_mean == pytest.approx(11.5)  # the parcel, ten orders and half of the last one
        loads = mc_load_at([parcel], kernel, intensity, None, k, j, n_replicates=20_000, rng=np.random.default_rng(1))
        se = loads.std(ddof=1) / np.sqrt(len(loads))
        assert abs(loads.mean() - engine_mean) <= 4 * se
        # with no parcel the orders take the pooled pmf, as the engine's do
        assert predict_load_pmf([], kernel, intensity, None, k, j).mean == 0.0
        assert not mc_load_at([], kernel, intensity, None, k, j, 1_000, np.random.default_rng(1)).any()
        assert mc_load_at([parcel], kernel, intensity, None, k, j, 0, np.random.default_rng(1)).shape == (0,)
        other = ParcelRecord("P2", "c1", "kiosk", "r1", {0: 47})
        for sample in (predict_load_pmf, lambda *args: mc_load_at(*args, 1_000, np.random.default_rng(1))):
            for parcels in ([parcel, other], EventLog([parcel, other], NEVER, TB)):
                with pytest.raises(ValidationError, match=r"parcels target multiple pups: \['kiosk', 'shop'\]"):
                    sample(parcels, kernel, intensity, None, k, j)

    def test_a_record_list_is_validated_as_the_engine_validates_it(self):
        cfg = default_scenario(horizon_days=14)
        parcel = ParcelRecord("P1", "c1", cfg.pup, "r1", {2: 10, 3: 5})
        models = (cfg.kernel, cfg.intensity, cfg.selection, 20, 5)
        message = "parcel P1: entry into status 3 at slot 5 does not follow status 2 at slot 10"
        with pytest.raises(ValidationError, match=message):
            predict_load_pmf([parcel], *models, cfg.entry_status)
        with pytest.raises(ValidationError, match=message):
            mc_load_at([parcel], *models, 1_000, np.random.default_rng(0), cfg.entry_status)

    @pytest.mark.parametrize("day", [50, 70])
    def test_a_log_draws_what_its_records_not_picked_up_draw(self, day):
        # the view still holds the parcels picked up by k, which the oracle drops
        cfg = default_scenario(seed=3)
        k = day * 24
        log = simulate(cfg).log.truncated(k).for_pup(cfg.pup)
        active = [r for r in log if cfg.n_statuses not in r.entry_times]
        assert len(active) < len(log)
        models = (cfg.kernel, cfg.intensity, cfg.selection, k, 13, 2_000)
        loads = [mc_load_at(parcels, *models, np.random.default_rng(day), cfg.entry_status) for parcels in (log, active)]
        assert loads[0].tobytes() == loads[1].tobytes()

    def test_loads_are_int32(self):
        # a count of one pup's parcels: from a record list and from a log alike
        kernel = chain_kernel([HoldingTimePmf.uniform(1, 4), HoldingTimePmf.uniform(2, 6)])
        parcels = [ParcelRecord("P1", "c1", "shop", "r1", {0: 8}), ParcelRecord("P2", "c1", "shop", "r1", {0: 2, 1: 5})]
        for given in (parcels, EventLog(parcels, NEVER, kernel.timebase)):
            assert mc_load_at(given, kernel, None, None, 9, 2, 100, np.random.default_rng(0)).dtype == np.int32


class TestMonteCarloStreams:
    """sha256 pins of the Monte Carlo oracles' outputs under fixed seeds: a change to
    how they group or draw must keep every replicate's bytes."""

    @staticmethod
    def choice_pmfs() -> list[np.ndarray]:
        """Dirichlet pmfs with zeros, then the default kernel's 93 rows."""
        rng = np.random.default_rng(12)
        dirichlet = []
        for size in (2, 3, 7, 40):
            p = rng.dirichlet(np.ones(size))
            p[rng.random(size) < 0.4] = 0.0  # zeros anywhere, the first and the last entry too
            p[rng.integers(size)] += 0.5
            dirichlet.append(p / p.sum())
        kernel = default_scenario(horizon_days=7).kernel
        rows = [pmf.probs for n in (2, 3) for level in kernel.statuses[n].levels for pmf in level.pmfs.values()]
        assert len(rows) == 93  # transit: 21 by (weekday, carrier) and the pooled; pickup: 70 and the pooled
        return dirichlet + rows

    def test_a_cdf_search_draws_what_generator_choice_draws(self):
        # the oracles map uniforms through _cdf as Generator.choice does with
        # p=; the pins rest on this, so a numpy whose choice differs fails here.
        # 5,000 draws is more than any row's guide cells, so _Draw reads its table
        for s, p in enumerate(self.choice_pmfs()):
            drawn = _Draw(p)(np.random.default_rng(s).random(5_000))
            assert np.array_equal(drawn, np.random.default_rng(s).choice(len(p), 5_000, p=p))

    def test_a_guide_table_draws_what_a_cdf_search_draws(self):
        thin = np.append(0.5, np.full(30, 1e-6))
        thin = np.append(thin, 1.0 - thin.sum())  # a long, thin tail: 30 cdf entries in one cell
        # 1 to 6 entries, zeros first, last and inside: a cdf of up to 4 entries draws by comparisons
        short = [[1.0], [0.3, 0.7], [0.0, 1.0], [1.0, 0.0], [0.6, 0.3, 0.1], [0.2, 0.0, 0.8], [0.0, 0.5, 0.5, 0.0],
                 [0.1, 0.0, 0.3, 0.6], [0.0, 0.25, 0.0, 0.25, 0.5], [0.3, 0.2, 0.0, 0.1, 0.4, 0.0]]
        assert {len(p) for p in short} == {1, 2, 3, 4, 5, 6} and _Draw.SHORT == 4
        cases = [*self.choice_pmfs(), thin, *(np.array(p) for p in short)]
        rng = np.random.default_rng(8)
        for p in cases:
            draw, cdf = _Draw(p), _cdf(p)
            cells = draw.cells
            assert cells & (cells - 1) == 0 and 2 * len(cdf) <= cells < 4 * len(cdf)
            edges = np.arange(cells) / cells
            inner = cdf[cdf < 1.0]
            u = np.concatenate([inner, np.nextafter(inner, 0), edges, np.nextafter(edges, 0), [np.nextafter(1.0, 0)]])
            u = np.concatenate([u, rng.random(cells)])
            for part in (u, u[: cells - 1], rng.random(cells - 1)):  # the guide, then a direct search
                assert np.array_equal(draw(part), cdf.searchsorted(part, side="right"))
        # the thin tail's cell holds more than one cdf entry, so its u are searched
        assert np.bincount((_cdf(thin) * _Draw(thin).cells).astype(int)).max() >= 10

    def test_whole_system_loads_on_the_default_scenario(self):
        # two anchors with future orders and retailer draws, plus a parcel
        # in status 1, which the default kernel never fitted
        cfg = default_scenario(horizon_days=84, seed=3)
        trace, rng, h = simulate(cfg), np.random.default_rng(2024), hashlib.sha256()
        for day, j in ((50, 13), (70, 61)):
            k = day * 24
            log = trace.event_log(cutoff=k).for_pup(cfg.pup)
            active = [r for r in log if cfg.n_statuses not in r.entry_times]
            active.append(ParcelRecord("early", "c1", cfg.pup, "r1", {1: k - 5}))
            models = (cfg.kernel, cfg.intensity, cfg.selection, k, j, 2_000, rng, cfg.entry_status, cfg.pup)
            h.update(mc_load_at(active, *models).astype(np.int64).tobytes())
        assert h.hexdigest() == "9ad5677d540dbf3fe0dea619aef1878552bcca25bda50acccc64e862c496b54e"

    def test_whole_system_loads_with_the_pooled_rescue_and_a_departed_parcel(self):
        kernel = fallback_kernel(HoldingTimePmf.uniform(2, 5), HoldingTimePmf.uniform(6, 12))
        parcels = [
            ParcelRecord("rescued", "c1", "shop", "r1", {0: 8}),  # 4 slots in status 0: the pooled pmf
            ParcelRecord("departed", "c1", "shop", "r1", {0: 0}),  # 12 slots: beyond the pooled pmf too
            ParcelRecord("fresh", "c1", "shop", "r1", {0: 11}),
            ParcelRecord("moving", "c1", "shop", "r1", {0: 2, 1: 5}),
            ParcelRecord("delivered", "c1", "shop", "r1", {0: 1, 1: 3, 2: 9}),
        ]
        loads = mc_load_at(parcels, kernel, None, None, 12, 8, 2_000, np.random.default_rng(7))
        assert hashlib.sha256(loads.astype(np.int64).tobytes()).hexdigest() == (
            "464842924c3263fc1a3457b8e6275fbaf79c687059cc89f8af8f314c66d83e88"
        )

    def test_whole_system_loads_with_a_last_status_keyed_on_the_route(self):
        # pickup keyed on carrier and retailer: a survival read from another
        # route's row changes the loads.  Two carriers share two retailers, known
        # parcels sit in transit and delivered on all four routes, and orders
        # arrive over 40 slots
        rng = np.random.default_rng(17)
        routes = [(c, r) for c in ("c1", "c2") for r in ("r1", "r2")]
        pickup = {route: random_pmf(rng, 20 + 8 * i) for i, route in enumerate(routes)}
        by_route = KernelLevel(("carrier", "retailer"), pickup)
        transit = {("c1",): HoldingTimePmf.uniform(1, 3), ("c2",): HoldingTimePmf.uniform(2, 6)}
        by_carrier = KernelLevel(("carrier",), transit)
        kernel = TransitionKernel(3, {
            0: StatusKernel((by_carrier, KernelLevel((), {(): HoldingTimePmf.uniform(1, 6)}))),
            1: pooled_status(HoldingTimePmf.uniform(1, 4)),
            2: StatusKernel((by_route, KernelLevel((), {(): random_pmf(rng, 30)}))),
        }, TB)
        rho = {(w, c): np.full(24, 1 / 24) for w in range(1, 8) for c in ("c1", "c2")}
        volumes = {c: {date(2024, 1, d): volume for d in range(1, 5)} for c, volume in (("c1", 24.0), ("c2", 36.0))}
        intensity = OrderIntensity.from_schedule(HourlyProfile(rho), volumes)
        shares = {"r1": {"c1": 0.7, "c2": 0.3}, "r2": {"c1": 0.2, "c2": 0.8}}
        selection = SelectionModel({"r1": 0.5, "r2": 0.5}, shares)
        k, j = 30, 41
        parcels = []
        for i, (c, r) in enumerate(routes):
            parcels += [
                ParcelRecord(f"A{i}", c, "shop", r, {0: k - 1 - i}),
                ParcelRecord(f"B{i}", c, "shop", r, {0: k - 6, 1: k - 2 + i // 2}),
                ParcelRecord(f"C{i}", c, "shop", r, {0: k - 20, 1: k - 16, 2: k - 5 - 2 * i}),
            ]
        loads = mc_load_at(parcels, kernel, intensity, selection, k, j, 2_000, np.random.default_rng(19))
        assert hashlib.sha256(loads.astype(np.int64).tobytes()).hexdigest() == (
            "6726d66876bad465933b187f74bc578056981e19461f047034f21429a806420e"
        )

    def test_survivals_are_looked_up_once_per_route_and_slot(self, monkeypatch):
        # the last status reads one survival table per call: at most one lookup
        # per (route, entry slot), not one per run of parcels in every block
        cfg, calls, k, j = default_scenario(seed=3), [], 100 * 24, 85
        log = simulate(cfg).log.truncated(k).for_pup(cfg.pup)
        survival = HoldingTimePmf.survival
        monkeypatch.setattr(HoldingTimePmf, "survival", lambda pmf, delta: calls.append(delta) or survival(pmf, delta))
        models = (cfg.kernel, cfg.intensity, cfg.selection, k, j, 2_000, np.random.default_rng(0), cfg.entry_status)
        mc_load_at(log, *models)
        assert 0 < len(calls) <= 9 * j  # 3 carriers x 3 retailers

    # a pickup pmf with zeros inside, so that cdf entries repeat
    PICKUP = HoldingTimePmf(np.array([0.0, 0.05, 0.2, 0.0, 0.25, 0.1, 0.3, 0.0, 0.1]))

    @pytest.mark.parametrize(
        "behind, j, every",
        [(0, 0, 1), (1, 3, None), (1, 6, None), (1, 7, 0), (2, 9, 0)],
        ids=["at 0", "inside", "before the last index", "last index", "past it"],
    )
    def test_a_delivered_parcel_decides_as_a_search_for_its_pickup_time(self, behind, j, every):
        # the parcel is delivered at t_n = k - behind, and stored at k + j when its
        # pickup time exceeds k + j - t_n = 0, 4, 7, 8 (the cdf's last index) or 11
        k, t_n, n = 30, 30 - behind, 2_000
        kernel = chain_kernel([HoldingTimePmf.uniform(1, 4), self.PICKUP])
        parcel = ParcelRecord("P1", "c1", "shop", "r1", {0: t_n - 3, 1: t_n})
        loads = mc_load_at([parcel], kernel, None, None, k, j, n, np.random.default_rng(behind + j))
        probs = self.PICKUP.probs.copy()
        probs[: k - t_n + 1] = 0.0  # not picked up by k
        drawn = t_n + _cdf(probs / probs.sum()).searchsorted(np.random.default_rng(behind + j).random(n), side="right")
        assert np.array_equal(loads, (drawn > k + j).astype(int))
        assert set(loads.tolist()) == ({0, 1} if every is None else {every})

    @pytest.mark.parametrize("t_n, j", [(29, 2), (27, 5), (29, 9), (30, 0), (32, 4), (35, 3)])
    def test_a_last_status_estimate_decides_as_a_search_for_its_pickup_time(self, t_n, j):
        # k = 30: not picked up by k - t_n = 1, 3, 1, 0, -2, -5 and stored when the pickup
        # time exceeds k + j - t_n = 3, 8, 10, 0, 2; delivered after k + j at 35, never
        k, pmf_at = 30, stationary([HoldingTimePmf.uniform(1, 4), self.PICKUP])
        out = mc_contribution_prob(pmf_at, 2, 1, t_n, k, j, 10_000, np.random.default_rng(t_n + j))
        probs = self.PICKUP.probs.copy()
        probs[: max(0, k - t_n + 1)] = 0.0
        drawn = t_n + _cdf(probs / probs.sum()).searchsorted(np.random.default_rng(t_n + j).random(10_000), side="right")
        p = int(((drawn > k + j) & (t_n <= k + j)).sum()) / 10_000
        assert out == (p, float(np.sqrt(max(p * (1.0 - p), 1e-12) / 10_000)))

    def test_contribution_estimates_on_random_instances(self):
        # the instances and the estimates draw from generators of their own, so that the
        # instances do not depend on how many draws each estimate takes
        instances, draws, h = np.random.default_rng(2025), np.random.default_rng(2026), hashlib.sha256()
        for _ in range(20):
            kernel, k, j = random_instance(instances)
            n, t_n = int(instances.integers(0, kernel.n_statuses)), int(instances.integers(0, k + 1))
            try:  # a short window, so that few estimates are 0 or 1
                out = mc_contribution_prob(kernel.pmf_at, kernel.n_statuses, n, t_n, k, 1 + j % 3, 10_000, draws)
            except ValidationError:
                out = "impossible"
            h.update(repr(out).encode())
        assert h.hexdigest() == "0a309fb788079e30aee840dbaf5e30bfbb52b4a45c972702aff7446957833d61"


def test_groups_sort_as_a_lexsort_by_route_then_slot():
    rng = np.random.default_rng(4)
    cases = [
        (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)),
        (np.array([2]), np.array([7])),
        (rng.integers(0, 3, 500), rng.integers(0, 85, 500)),
        (rng.integers(0, 9, 2_000), rng.integers(0, 168, 2_000)),
        (rng.integers(0, 4, 300), rng.integers(-40, 10, 300)),  # negative slots
        (rng.integers(0, 70, 1_000), rng.integers(0, 1_000, 1_000)),  # route x span >= 65,536: wider than 16 bits
    ]
    for route, slot in cases:
        order, cuts = _groups(route, slot)
        expected = np.lexsort((slot, route))
        assert np.array_equal(order, expected)
        pairs = list(zip(route[expected].tolist(), slot[expected].tolist()))
        assert cuts == [i for i in range(len(pairs)) if i == 0 or pairs[i] != pairs[i - 1]] + [len(pairs)]


@pytest.mark.parametrize("day", [40, 100])
def test_orders_that_enter_the_last_status_match_the_whole_system_sampler(day):
    # future orders go straight to pickup: the engine's cut of the future path
    # binds, and the sampler decides every order of a slot in one run
    cfg = default_scenario(seed=3)
    cfg.entry_status = cfg.n_statuses - 1
    models, k, horizons = (cfg.kernel, cfg.intensity, cfg.selection), day * 24, (13, 37, 61, 85)
    results = predict_load_pmfs([], *models, k, horizons, cfg.entry_status)
    for j, res in zip(horizons, results):
        alone = predict_load_pmf([], *models, k, j, cfg.entry_status)
        assert res.pmf.probs.tobytes() == alone.pmf.probs.tobytes()
        loads = mc_load_at([], *models, k, j, 5_000, np.random.default_rng(day + j), cfg.entry_status, cfg.pup)
        se = loads.std(ddof=1) / np.sqrt(len(loads))
        assert abs(loads.mean() - res.mean) <= 3 * se


def _imported(path: Path) -> set[str]:
    """The pupcast modules that a module of the package imports, by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("pupcast." + (node.module or "")).rstrip(".") if node.level else node.module or ""
            modules = [f"{base}.{a.name}" for a in node.names] if base == "pupcast" else [base]
        else:
            continue
        found |= {m.split(".")[1] for m in modules if m.startswith("pupcast.")}
    return found


def test_oracle_imports_nothing_from_the_engine():
    # the oracles check the engine, so they must not share its code: neither
    # oracle.py nor any package module it imports, directly or not, may
    # import pupcast.engine
    package = Path(pupcast.__file__).parent
    assert "engine" in _imported(package / "cli.py")  # the scan sees the engine where it is imported
    todo, reached = ["oracle"], set()
    while todo:
        name = todo.pop()
        if name not in reached and (package / f"{name}.py").exists():
            reached.add(name)
            todo += _imported(package / f"{name}.py")
    assert "oracle" in reached and "records" in reached
    assert "engine" not in reached


def test_oracle_reads_no_compiled_kernel_table():
    # the engine reads the kernel through its compiled tables; the oracles
    # look each pmf up with pmf_at, so that a fault in the tables shows
    tree = ast.parse((Path(pupcast.__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "pmf_at" in named  # the scan sees the names oracle.py uses
    assert not named & {"week_rows", "row_at", "PmfTable", "_compiled"}
