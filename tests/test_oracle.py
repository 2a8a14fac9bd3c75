"""Simulation, enumeration and Monte Carlo oracles."""

import numpy as np
import pytest

from pupcast import HoldingTimePmf, default_scenario, simulate
from pupcast.engine import (
    bind_kernel,
    predict_load_pmf,
    prob_delivered_and_stored_multi_hop,
    prob_still_stored,
)
from pupcast.errors import ConditioningTooRare, TooLarge, ValidationError
from pupcast.oracle import (
    enumerate_contribution_prob,
    mc_contribution_prob,
    mc_load_at,
)
from pupcast.records import ParcelRecord

from helpers import chain_kernel, fallback_kernel, random_instance


def stationary(pmfs):
    return lambda n, t: pmfs[n]


class TestSimulate:
    def test_zero_intensity_gives_empty_trace(self):
        cfg = default_scenario(horizon_days=7, base_volumes={"c1": 0.0, "c2": 0.0, "c3": 0.0})
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
        cfg = default_scenario(horizon_days=14, ramp=0.0)
        one_day = HoldingTimePmf.point_mass(24, support_max=100)
        three_h = HoldingTimePmf.point_mass(3, support_max=336)
        kernel = chain_kernel([one_day, three_h], timebase=cfg.timebase)
        # reuse the scenario's arrivals but force a 2-status deterministic chain
        cfg.kernel = kernel
        cfg.entry_status = 0
        trace = simulate(cfg)
        assert trace.parcels
        for rec in trace.parcels:
            assert rec.entry_times[1] - rec.entry_times[0] == 24
            assert rec.entry_times[2] - rec.entry_times[1] == 3
        assert np.array_equal(trace.recount_load(), trace.load)

    def test_event_log_censors_at_cutoff(self):
        cfg = default_scenario(horizon_days=21, ramp=0.0)
        trace = simulate(cfg)
        cutoff = 10 * 24
        log = trace.event_log(cutoff=cutoff)
        assert all(t <= cutoff for rec in log.records for t in rec.entry_times.values())


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
            except (ConditioningTooRare, ValidationError):
                continue  # the conditioning event is (nearly) impossible
            assert abs(mc - exact) <= 3 * max(se, 1e-6)
            done += 1

    def test_conditioning_too_rare(self):
        probs = np.zeros(41)
        probs[1] = 1.0 - 1e-5
        probs[40] = 1e-5
        pmf_at = stationary([HoldingTimePmf(probs)])
        with pytest.raises(ConditioningTooRare):
            mc_contribution_prob(pmf_at, 1, 0, t_n=0, k=30, j=5, n_samples=10_000)


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
        expected = prob_delivered_and_stored_multi_hop(pmf_at, 2, 0, 23, k, j)
        expected += prob_still_stored(pmf_at, 2, 22, k, j)
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
