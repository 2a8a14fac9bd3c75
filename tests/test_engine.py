"""Contribution probabilities and the load prediction algorithm."""

from datetime import date
from math import comb, exp, factorial

import numpy as np
import pytest

from pupcast import HoldingTimePmf, KernelLevel, LoadPmf, StatusKernel, TransitionKernel
from pupcast.arrivals import HourlyProfile, OrderIntensity, poisson_pmf, poisson_truncation
from pupcast.engine import (
    _Tables,
    bind_kernel,
    chain_prob_g,
    future_orders_pmf,
    predict_load_pmf,
    prob_delivered_and_stored_last_hop,
    prob_delivered_and_stored_multi_hop,
    prob_future_order_contributes,
    prob_still_stored,
)
from pupcast.errors import ImpossibleEvidence, ValidationError
from pupcast.estimation import SelectionModel, apply_closure_calendar
from pupcast.oracle import enumerate_contribution_prob, mc_load_at, simulate
from pupcast.records import ParcelRecord
from pupcast.scenario import default_scenario

from helpers import TB, chain_kernel, fallback_kernel, random_instance, random_pmf


def stationary(pmfs):
    """pmf_at closure over a fixed list of per-status pmfs."""
    return lambda n, t: pmfs[n]


def far_pickup(support_max=50):
    """Pickup pmf with all mass far beyond any horizon used in these tests."""
    return HoldingTimePmf.point_mass(support_max, support_max=support_max)


class TestProbStillStored:
    def test_hand_case(self):
        pmf_at = stationary([HoldingTimePmf.uniform(1, 4)])
        p = prob_still_stored(pmf_at, 1, t_delivered=0, k=1, j=1)
        assert p == pytest.approx((1 - 0.5) / (1 - 0.25), abs=1e-15)

    def test_no_pickup_opportunity(self):
        probs = np.zeros(11)
        probs[10] = 1.0
        pmf_at = stationary([HoldingTimePmf(probs)])
        assert prob_still_stored(pmf_at, 1, 0, k=2, j=3) == 1.0

    def test_monotone_in_horizon(self):
        pmf_at = stationary([random_pmf(np.random.default_rng(5), 12)])
        values = [prob_still_stored(pmf_at, 1, 0, k=2, j=j) for j in range(0, 12)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_impossible_evidence(self):
        pmf_at = stationary([HoldingTimePmf.uniform(1, 3)])
        with pytest.raises(ImpossibleEvidence):
            prob_still_stored(pmf_at, 1, t_delivered=0, k=5, j=1)


class TestChainProb:
    def test_single_hop_degenerates_to_the_pmf(self):
        f = HoldingTimePmf.uniform(1, 3)
        pmf_at = stationary([f, far_pickup()])
        for delta in range(1, 4):
            assert chain_prob_g(pmf_at, 2, 0, 0, delta) == pytest.approx(float(f.probs[delta]))

    def test_deterministic_two_hop(self):
        one = HoldingTimePmf.point_mass(1)
        pmf_at = stationary([one, one, far_pickup()])
        assert chain_prob_g(pmf_at, 3, 0, 5, 7) == pytest.approx(1.0)
        assert chain_prob_g(pmf_at, 3, 0, 5, 8) == 0.0

    def test_two_hop_uniform_convolution(self):
        u = HoldingTimePmf.uniform(1, 2)
        pmf_at = stationary([u, u, far_pickup()])
        assert chain_prob_g(pmf_at, 3, 0, 0, 2) == pytest.approx(0.25)
        assert chain_prob_g(pmf_at, 3, 0, 0, 3) == pytest.approx(0.5)
        assert chain_prob_g(pmf_at, 3, 0, 0, 4) == pytest.approx(0.25)

    def test_unreachable_is_zero(self):
        u = HoldingTimePmf.uniform(1, 2)
        pmf_at = stationary([u, u, far_pickup()])
        assert chain_prob_g(pmf_at, 3, 0, 0, 1) == 0.0


class TestLastHop:
    def test_certain_delivery_impossible_pickup(self):
        pmf_at = stationary([HoldingTimePmf.point_mass(1, support_max=4), far_pickup()])
        assert prob_delivered_and_stored_last_hop(pmf_at, 2, t_prev=3, k=3, j=2) == pytest.approx(1.0)

    def test_matches_enumeration(self):
        u = HoldingTimePmf.uniform(1, 2)
        pmf_at = stationary([u, u])
        closed = prob_delivered_and_stored_last_hop(pmf_at, 2, t_prev=3, k=3, j=2)
        exact = enumerate_contribution_prob(pmf_at, 2, 0, 3, 3, 2)
        assert closed == pytest.approx(exact, abs=1e-12)

    def test_zero_denominator(self):
        u = HoldingTimePmf.uniform(1, 2)
        pmf_at = stationary([u, u])
        with pytest.raises(ImpossibleEvidence):
            prob_delivered_and_stored_last_hop(pmf_at, 2, t_prev=0, k=5, j=2)


class TestMultiHop:
    def test_deterministic_chain(self):
        one = HoldingTimePmf.point_mass(1, support_max=4)
        pmf_at = stationary([one, one, one, one, far_pickup()])
        p = prob_delivered_and_stored_multi_hop(pmf_at, 5, n=1, t_n=4, k=4, j=4)
        assert p == pytest.approx(1.0)

    def test_matches_enumeration(self):
        u = HoldingTimePmf.uniform(1, 2)
        pmf_at = stationary([u] * 5)
        closed = prob_delivered_and_stored_multi_hop(pmf_at, 5, n=1, t_n=2, k=2, j=6)
        exact = enumerate_contribution_prob(pmf_at, 5, 1, 2, 2, 6)
        assert closed == pytest.approx(exact, abs=1e-12)

    def test_degenerates_to_last_hop(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            kernel, k, j = random_instance(rng)
            if kernel.n_statuses < 2:
                continue
            pmf_at = bind_kernel(kernel)
            t_n = int(rng.integers(0, k + 1))
            n = kernel.n_statuses - 2
            try:
                multi = prob_delivered_and_stored_multi_hop(pmf_at, kernel.n_statuses, n, t_n, k, j)
                last = prob_delivered_and_stored_last_hop(pmf_at, kernel.n_statuses, t_n, k, j)
            except ImpossibleEvidence:
                continue
            assert abs(multi - last) <= 1e-12


class TestFutureOrders:
    def test_no_time_to_traverse(self):
        u = HoldingTimePmf.uniform(1, 2)
        pmf_at = stationary([u, u, u, u])
        assert prob_future_order_contributes(pmf_at, 4, t_0=14, k=10, j=4) == 0.0

    def test_deterministic_chain(self):
        one = HoldingTimePmf.point_mass(1, support_max=4)
        pmf_at = stationary([one, one, one, far_pickup()])
        assert prob_future_order_contributes(pmf_at, 4, t_0=11, k=10, j=4) == pytest.approx(1.0)

    def test_matches_enumeration(self):
        u = HoldingTimePmf.uniform(1, 2)
        pmf_at = stationary([u, u, u, u])
        closed = prob_future_order_contributes(pmf_at, 4, t_0=11, k=10, j=8)
        exact = enumerate_contribution_prob(pmf_at, 4, 0, 11, 10, 8)
        assert closed == pytest.approx(exact, abs=1e-12)

    def test_order_time_validated(self):
        u = HoldingTimePmf.uniform(1, 2)
        pmf_at = stationary([u, u])
        with pytest.raises(ValidationError):
            prob_future_order_contributes(pmf_at, 2, t_0=5, k=5, j=3)


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


def slot_by_slot_values(pmf_at, n_statuses, first_status, k, j):
    """V_m over the window (k, k+j] by the plain recursion, one slot at a time."""
    slots = range(k + 1, k + j + 1)
    last = n_statuses - 1
    values = {last: np.array([pmf_at(last, t).survival(k + j - t) for t in slots])}
    for m in range(last - 1, first_status - 1, -1):
        v = np.zeros(len(slots))
        for i, t in enumerate(slots[:-1]):
            probs = pmf_at(m, t).probs[1 : len(slots) - i]
            v[i] = probs @ values[m + 1][i + 1 : i + 1 + len(probs)]
        values[m] = v
    return values


class TestCompiledWindow:
    DEFAULT_ROUTES = [("c1", "r1"), ("c2", "r1"), ("c2", "r2"), ("c3", "r2"), ("c1", "r3"), ("c3", "r3")]

    def check(self, kernel, routes, first_status, k, j):
        tables = _Tables(kernel, "shop", k, j)
        for route in routes:
            pmf_at = bind_kernel(kernel, carrier=route[0], retailer=route[1], pup="shop")
            expected = slot_by_slot_values(pmf_at, kernel.n_statuses, first_status, k, j)
            for m, v in expected.items():
                assert np.abs(tables[route][m] - v).max() <= 1e-15, (route, m)
        return tables

    def test_default_kernel(self):
        tables = self.check(default_scenario().kernel, self.DEFAULT_ROUTES, 2, 2400 + 7, 61)
        # pickup is keyed on the calendar only, transit on the carrier too
        assert len({id(tables[route][3]) for route in self.DEFAULT_ROUTES}) == 1
        assert tables["c1", "r1"][2] is tables["c1", "r3"][2]
        assert tables["c1", "r1"][2] is not tables["c2", "r1"][2]

    def test_closure_calendar(self):
        view = apply_closure_calendar(default_scenario().kernel, {date(2017, 10, 12), date(2017, 10, 13)})
        self.check(view, self.DEFAULT_ROUTES, 2, 2400, 85)

    def test_retailer_keyed_status_is_not_shared(self):
        kernel = retailer_keyed_kernel()
        routes = [("c1", "r1"), ("c1", "r2"), ("c2", "r1")]
        tables = self.check(kernel, routes, 0, 30, 40)
        assert tables["c1", "r1"][1] is tables["c1", "r2"][1]
        assert tables["c1", "r1"][0] is not tables["c1", "r2"][0]
        assert np.abs(tables["c1", "r1"][0] - tables["c1", "r2"][0]).max() > 1e-3


def single_carrier_intensity(lam: float, hours=range(24)):
    row = np.zeros(24)
    for h in hours:
        row[h] = 1.0
    row = row / row.sum() if row.sum() else row
    rho = {(w, "c1"): row.copy() for w in range(1, 8)}
    volumes = {"c1": {date(2024, 1, 1 + d): lam * 24 for d in range(10)}}
    return OrderIntensity.from_schedule(HourlyProfile(rho), volumes)


SELECTION = SelectionModel({"r1": 1.0}, {"r1": {"c1": 1.0}})


def two_carrier_orders():
    """Kernel, intensity and selection with two carriers and two retailers."""
    kernel = retailer_keyed_kernel()
    rho = {(w, c): np.linspace(1.0, 2.0 + w, 24) for w in range(1, 8) for c in ("c1", "c2")}
    rho = {key: row / row.sum() for key, row in rho.items()}
    volumes = {c: {date(2024, 1, 1 + d): v for d in range(10)} for c, v in (("c1", 40.0), ("c2", 15.0))}
    intensity = OrderIntensity.from_schedule(HourlyProfile(rho), volumes)
    selection = SelectionModel({"r1": 0.6, "r2": 0.4}, {"r1": {"c1": 0.7, "c2": 0.3}, "r2": {"c1": 0.2, "c2": 0.8}})
    return kernel, intensity, selection


class TestFutureOrdersPmf:
    def make_kernel(self):
        u = HoldingTimePmf.uniform(1, 2)
        return chain_kernel([u, HoldingTimePmf.uniform(1, 6)])

    def test_zero_intensity(self):
        kernel = self.make_kernel()
        intensity = single_carrier_intensity(0.0)
        pmf = future_orders_pmf(intensity, kernel, SELECTION, "shop", k=24, j=8)
        assert np.allclose(pmf.probs, [1.0])

    def test_thinning_identity(self):
        kernel = self.make_kernel()
        intensity = single_carrier_intensity(0.7)
        k, j = 24, 8
        pmf = future_orders_pmf(
            intensity, kernel, SELECTION, "shop", k, j, coverage=1 - 1e-12
        )
        pmf_at = bind_kernel(kernel, carrier="c1", retailer="r1", pup="shop")
        expected = sum(
            0.7 * prob_future_order_contributes(pmf_at, 2, k + i, k, j)
            for i in range(1, j)
        )
        assert pmf.mean() == pytest.approx(expected, abs=1e-6)
        exact = future_orders_pmf(intensity, kernel, SELECTION, "shop", k, j)
        assert exact.mean() == pytest.approx(expected, abs=1e-12)

    def test_truncation_keeps_coverage(self):
        # truncating each Poisson at CDF >= 0.99 keeps at least 99% of the
        # mass before renormalization, so the mean deficit is bounded
        kernel = self.make_kernel()
        intensity = single_carrier_intensity(1.5)
        k, j = 24, 6
        loose = future_orders_pmf(intensity, kernel, SELECTION, "shop", k, j, coverage=0.99)
        tight = future_orders_pmf(intensity, kernel, SELECTION, "shop", k, j, coverage=1 - 1e-12)
        assert loose.probs.sum() == pytest.approx(1.0, abs=1e-6)
        assert abs(loose.mean() - tight.mean()) < 0.1

    def test_mixture_matches_the_formula(self):
        # per slot and carrier: sum_m Pois(m; lam) Binom(x; m, p), cut at the
        # truncation point and renormalised, then convolved over the pairs
        kernel, intensity, selection = two_carrier_orders()
        k = 32
        for j in (1, 2, 4, 7):
            for coverage in (0.99, 1 - 1e-9):
                expected = np.array([1.0])
                for i in range(1, j):
                    for c in intensity.carriers:
                        lam = intensity.lambda_at(TB, k + i, c)
                        p = sum(
                            w * prob_future_order_contributes(bind_kernel(kernel, c, r, "shop"), 3, k + i, k, j)
                            for r, w in selection.p_retailer_given_carrier(c).items()
                        )
                        top = poisson_truncation(lam, coverage)
                        q = np.array([
                            sum(poisson_pmf(lam, m) * comb(m, x) * p**x * (1 - p) ** (m - x) for m in range(x, top + 1))
                            for x in range(top + 1)
                        ])
                        expected = np.convolve(expected, q / q.sum())
                expected = LoadPmf(expected).trimmed().probs
                pmf = future_orders_pmf(intensity, kernel, selection, "shop", k, j, coverage=coverage)
                assert len(pmf.probs) == len(expected)
                assert np.abs(pmf.probs - expected).max() <= 1e-14

    def test_exact_mode_is_one_poisson(self):
        # thinned and superposed, the contributing orders of all (slot, carrier)
        # pairs are one Poisson variable with rate sum(lam p)
        kernel, intensity, selection = two_carrier_orders()
        k = 32
        for j in (1, 2, 4, 7, 30):  # sum(lam p) up to 23.6
            total = sum(
                intensity.lambda_at(TB, k + i, c)
                * sum(
                    w * prob_future_order_contributes(bind_kernel(kernel, c, r, "shop"), 3, k + i, k, j)
                    for r, w in selection.p_retailer_given_carrier(c).items()
                )
                for i in range(1, j)
                for c in intensity.carriers
            )
            pmf = future_orders_pmf(intensity, kernel, selection, "shop", k, j, coverage=None)
            x = np.arange(len(pmf.probs) + 1)
            expected = np.array([exp(-total) * total**m / factorial(m) for m in x])
            assert np.abs(pmf.probs - expected[:-1]).max() <= 1e-15
            assert expected[-1] < 1e-16  # cut only where the tail is float noise
            mean = pmf.mean()
            var = float((x[:-1] - mean) ** 2 @ pmf.probs)
            assert abs(mean - total) <= 1e-12 * max(1.0, total)
            assert abs(var - total) <= 1e-12 * max(1.0, total)


class TestPredictLoadPmf:
    def delivered_parcel(self, pid, t_del):
        return ParcelRecord(pid, "c1", "shop", "r1", {0: t_del - 1, 1: t_del})

    def test_empty_system(self):
        kernel = chain_kernel([HoldingTimePmf.uniform(1, 2), HoldingTimePmf.uniform(1, 4)])
        res = predict_load_pmf([], kernel, single_carrier_intensity(0.0), SELECTION, k=24, j=5)
        assert np.allclose(res.pmf.probs, [1.0])

    def test_two_half_parcels(self):
        # pickup uniform on {1, 2}: delivered at k gives survival(1)/survival(0) = 1/2
        kernel = chain_kernel([HoldingTimePmf.uniform(1, 2), HoldingTimePmf.uniform(1, 2)])
        parcels = [self.delivered_parcel("P1", 24), self.delivered_parcel("P2", 24)]
        res = predict_load_pmf(parcels, kernel, None, None, k=24, j=1)
        assert np.allclose(res.pmf.probs, [0.25, 0.5, 0.25])

    def test_mean_additivity_contract(self):
        kernel = chain_kernel([HoldingTimePmf.uniform(1, 3), HoldingTimePmf.uniform(1, 8)])
        intensity = single_carrier_intensity(0.4)
        parcels = [self.delivered_parcel("P1", 23), self.delivered_parcel("P2", 20)]
        k, j = 24, 6
        res = predict_load_pmf(parcels, kernel, intensity, SELECTION, k, j, coverage=1 - 1e-12)
        pmf_at = bind_kernel(kernel, carrier="c1", retailer="r1", pup="shop")
        per_parcel = sum(prob_still_stored(pmf_at, 2, t, k, j) for t in (23, 20))
        future = future_orders_pmf(intensity, kernel, SELECTION, "shop", k, j, coverage=1 - 1e-12)
        assert res.mean == pytest.approx(per_parcel + future.mean(), abs=1e-9)

    def test_picked_up_parcels_contribute_nothing(self):
        kernel = chain_kernel([HoldingTimePmf.uniform(1, 2), HoldingTimePmf.uniform(1, 2)])
        gone = ParcelRecord("P1", "c1", "shop", "r1", {0: 1, 1: 2, 2: 3})
        res = predict_load_pmf([gone], kernel, None, None, k=24, j=2)
        assert np.allclose(res.pmf.probs, [1.0])

    def test_negative_horizon_rejected(self):
        # with no known parcel live, no parcel reaches a per-parcel check
        cfg = default_scenario()
        with pytest.raises(ValidationError):
            predict_load_pmf([], cfg.kernel, cfg.intensity, cfg.selection, 600, -3, entry_status=cfg.entry_status)
        with pytest.raises(ValidationError):
            future_orders_pmf(cfg.intensity, cfg.kernel, cfg.selection, cfg.pup, 600, -3, cfg.entry_status)
        with pytest.raises(ValidationError):
            predict_load_pmf([], cfg.kernel, None, None, 600, -3)

    def test_multiple_pups_rejected(self):
        kernel = chain_kernel([HoldingTimePmf.uniform(1, 2)])
        a = ParcelRecord("P1", "c1", "shop", None, {0: 3})
        b = ParcelRecord("P2", "c1", "other", None, {0: 3})
        with pytest.raises(ValidationError):
            predict_load_pmf([a, b], kernel, None, None, k=5, j=2)

    def test_impossible_evidence_downgraded(self):
        # observed sojourn beyond the pmf support: the parcel is not allowed
        # to abort the forecast; it is reported in the diagnostics
        kernel = chain_kernel([HoldingTimePmf.uniform(1, 2), HoldingTimePmf.uniform(1, 2)])
        stale = self.delivered_parcel("P1", 0)
        fresh = self.delivered_parcel("P2", 24)
        res = predict_load_pmf([stale, fresh], kernel, None, None, k=24, j=1)
        assert len(res.diagnostics) == 1
        assert "P1" in res.diagnostics[0]
        assert np.allclose(res.pmf.probs, [0.5, 0.5])  # only the fresh parcel

    def test_in_transit_impossible_evidence_uses_pooled_pmf(self):
        # five slots in status 0 are impossible under the weekday level; the
        # pooled pmf replaces status 0's pmf and the later statuses keep theirs
        kernel = fallback_kernel(HoldingTimePmf.uniform(1, 4), HoldingTimePmf.uniform(1, 12))
        parcel = ParcelRecord("P1", "c1", "shop", "r1", {0: 0})
        res = predict_load_pmf([parcel], kernel, None, None, k=5, j=12)
        pmf_at = bind_kernel(kernel, carrier="c1", retailer="r1", pup="shop")

        def pooled_at(n, t):
            return kernel.statuses[0].coarsest() if n == 0 else pmf_at(n, t)

        p = enumerate_contribution_prob(pooled_at, 3, 0, 0, 5, 12)
        assert 0.0 < p < 1.0
        assert np.allclose(res.pmf.probs, [1.0 - p, p], rtol=0, atol=1e-12)
        assert res.diagnostics == ["parcel P1: impossible evidence, used pooled fallback"]

    def test_impossible_evidence_under_closure_calendar(self):
        # the closure view shifts the pooled pmf too: entered Monday 14:00
        # with Monday closed, the pooled delays 1..9 move to Tuesday 00:00
        # (delay 10), and pickup from there survives 5 slots with prob 0.5;
        # the unshifted pooled pmf would give 0.3
        kernel = fallback_kernel(HoldingTimePmf.uniform(1, 10))
        view = apply_closure_calendar(kernel, {date(2024, 1, 1)})
        parcel = ParcelRecord("P1", "c1", "shop", "r1", {0: 14})
        res = predict_load_pmf([parcel], view, None, None, k=19, j=10)
        assert res.mean == pytest.approx(0.5, abs=1e-12)
        pmf_at = bind_kernel(view, carrier="c1", retailer="r1", pup="shop")

        def pooled_at(n, t):
            return view.pooled_pmf_at(n, t) if n == 0 else pmf_at(n, t)

        assert res.mean == pytest.approx(enumerate_contribution_prob(pooled_at, 2, 0, 14, 19, 10), abs=1e-12)
        loads = mc_load_at([parcel], view, None, None, 19, 10, n_replicates=20_000, rng=np.random.default_rng(4))
        assert abs(loads.mean() - 0.5) <= 4 * loads.std(ddof=1) / np.sqrt(len(loads))

    def test_in_transit_probability_never_exceeds_one(self):
        # rounding in the backward sum once put this parcel's probability at
        # 1 + 2.2e-16, its Bernoulli factor then had a negative entry, and the
        # forecast raised instead of returning a pmf
        cfg = default_scenario(seed=2)
        k, j = 1061, 13
        parcels = simulate(cfg).event_log().truncated(k).for_pup(cfg.pup)
        view = apply_closure_calendar(cfg.kernel, {date(2017, 8, 15), date(2017, 8, 16)})
        rec = next(r for r in parcels if r.id == "P000746")
        pmf_at = bind_kernel(view, carrier=rec.carrier, retailer=rec.retailer, pup=rec.pup)
        p = prob_delivered_and_stored_multi_hop(pmf_at, cfg.n_statuses, 2, rec.entry_times[2], k, j)
        assert 0.0 <= p <= 1.0
        res = predict_load_pmf(parcels, view, cfg.intensity, cfg.selection, k, j, entry_status=cfg.entry_status)
        assert res.pmf.probs.min() >= 0.0

    def test_json_output_shape(self):
        kernel = chain_kernel([HoldingTimePmf.uniform(1, 2), HoldingTimePmf.uniform(1, 2)])
        res = predict_load_pmf([self.delivered_parcel("P1", 24)], kernel, None, None, k=24, j=1)
        doc = res.to_json_dict()
        assert set(doc) == {"pup", "k", "j", "pmf", "mean", "q05", "q50", "q95", "diagnostics"}
        assert doc["q05"] <= doc["q50"] <= doc["q95"]


def test_all_outputs_normalized():
    rng = np.random.default_rng(23)
    kernel = chain_kernel([random_pmf(rng, 5), random_pmf(rng, 5), random_pmf(rng, 8)])
    intensity = single_carrier_intensity(0.6)
    parcels = [
        ParcelRecord("P1", "c1", "shop", "r1", {0: 20}),
        ParcelRecord("P2", "c1", "shop", "r1", {0: 18, 1: 22}),
        ParcelRecord("P3", "c1", "shop", "r1", {0: 15, 1: 19, 2: 23}),
    ]
    for j in (1, 3, 7):
        res = predict_load_pmf(parcels, kernel, intensity, SELECTION, k=24, j=j)
        assert res.pmf.probs.sum() == pytest.approx(1.0, abs=1e-6)
        assert isinstance(res.pmf, LoadPmf)
