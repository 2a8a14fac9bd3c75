"""Contribution probabilities and the load prediction algorithm."""

from collections import Counter
from datetime import date
from math import comb, exp, factorial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pupcast import HoldingTimePmf, KernelLevel, LoadPmf, StatusKernel, Timebase, TransitionKernel
from pupcast.arrivals import HourlyProfile, OrderIntensity, poisson_pmf, poisson_truncation
from pupcast.engine import (
    _WINDOWS,
    _Window,
    bind_kernel,
    contribution_prob,
    future_orders_pmf,
    predict_load_pmf,
    predict_load_pmfs,
)
from pupcast.errors import ImpossibleEvidence, MissingKernel, ValidationError
from pupcast.estimation import SelectionModel
from pupcast.kernel import PmfTable
from pupcast.oracle import enumerate_contribution_prob, simulate
from pupcast.records import EventLog, ParcelRecord
from pupcast.scenario import default_scenario

from helpers import (
    TB,
    chain_kernel,
    fallback_kernel,
    forecast_digest,
    pooled_status,
    random_instance,
    random_pmf,
    retailer_keyed_kernel,
)


def stationary(pmfs):
    """A bound kernel with one fixed pmf per status."""
    return bind_kernel(chain_kernel(pmfs))


def far_pickup(support_max=50):
    """Pickup pmf with all mass far beyond any horizon used in these tests."""
    return HoldingTimePmf.point_mass(support_max, support_max=support_max)


def no_sunday_kernel() -> TransitionKernel:
    """``fallback_kernel``'s status 0; status 1 has no Sunday pmf, so Sunday takes its pooled level,
    uniform on 2-7; pickup uniform on 1-20."""
    no_sunday = KernelLevel(("weekday",), {(w,): HoldingTimePmf.uniform(1, 4) for w in range(1, 7)})
    pooled = KernelLevel((), {(): HoldingTimePmf.uniform(2, 7)})
    statuses = {0: fallback_kernel().statuses[0], 1: StatusKernel((no_sunday, pooled))}
    return TransitionKernel(3, {**statuses, 2: pooled_status(HoldingTimePmf.uniform(1, 20))}, TB)


class TestProbStillStored:
    def test_hand_case(self):
        pmf_at = stationary([HoldingTimePmf.uniform(1, 4)])
        p = contribution_prob(pmf_at, 1, 0, t_n=0, k=1, j=1)
        assert p == pytest.approx((1 - 0.5) / (1 - 0.25), abs=1e-15)

    def test_no_pickup_opportunity(self):
        probs = np.zeros(11)
        probs[10] = 1.0
        pmf_at = stationary([HoldingTimePmf(probs)])
        assert contribution_prob(pmf_at, 1, 0, 0, k=2, j=3) == 1.0

    def test_monotone_in_horizon(self):
        pmf_at = stationary([random_pmf(np.random.default_rng(5), 12)])
        values = [contribution_prob(pmf_at, 1, 0, 0, k=2, j=j) for j in range(0, 12)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_impossible_evidence(self):
        pmf_at = stationary([HoldingTimePmf.uniform(1, 3)])
        with pytest.raises(ImpossibleEvidence):
            contribution_prob(pmf_at, 1, 0, t_n=0, k=5, j=1)


class TestLastHop:
    def test_certain_delivery_impossible_pickup(self):
        pmf_at = stationary([HoldingTimePmf.point_mass(1, support_max=4), far_pickup()])
        assert contribution_prob(pmf_at, 2, 0, t_n=3, k=3, j=2) == pytest.approx(1.0)

    def test_matches_enumeration(self):
        u = HoldingTimePmf.uniform(1, 2)
        pmf_at = stationary([u, u])
        closed = contribution_prob(pmf_at, 2, 0, t_n=3, k=3, j=2)
        exact = enumerate_contribution_prob(pmf_at, 2, 0, 3, 3, 2)
        assert closed == pytest.approx(exact, abs=1e-12)

    def test_zero_denominator(self):
        u = HoldingTimePmf.uniform(1, 2)
        pmf_at = stationary([u, u])
        with pytest.raises(ImpossibleEvidence):
            contribution_prob(pmf_at, 2, 0, t_n=0, k=5, j=2)


class TestMultiHop:
    def test_deterministic_chain(self):
        one = HoldingTimePmf.point_mass(1, support_max=4)
        pmf_at = stationary([one, one, one, one, far_pickup()])
        p = contribution_prob(pmf_at, 5, 1, t_n=4, k=4, j=4)
        assert p == pytest.approx(1.0)

    def test_matches_enumeration(self):
        u = HoldingTimePmf.uniform(1, 2)
        pmf_at = stationary([u] * 5)
        closed = contribution_prob(pmf_at, 5, 1, t_n=2, k=2, j=6)
        exact = enumerate_contribution_prob(pmf_at, 5, 1, 2, 2, 6)
        assert closed == pytest.approx(exact, abs=1e-12)


class TestFutureOrders:
    def test_no_time_to_traverse(self):
        u = HoldingTimePmf.uniform(1, 2)
        pmf_at = stationary([u, u, u, u])
        assert contribution_prob(pmf_at, 4, 0, t_n=14, k=10, j=4) == 0.0
        assert contribution_prob(pmf_at, 4, 0, t_n=11, k=10, j=0) == 0.0

    def test_deterministic_chain(self):
        one = HoldingTimePmf.point_mass(1, support_max=4)
        pmf_at = stationary([one, one, one, far_pickup()])
        assert contribution_prob(pmf_at, 4, 0, t_n=11, k=10, j=4) == pytest.approx(1.0)

    def test_matches_enumeration(self):
        u = HoldingTimePmf.uniform(1, 2)
        pmf_at = stationary([u, u, u, u])
        closed = contribution_prob(pmf_at, 4, 0, t_n=11, k=10, j=8)
        exact = enumerate_contribution_prob(pmf_at, 4, 0, 11, 10, 8)
        assert closed == pytest.approx(exact, abs=1e-12)

    def test_entry_status_outside_the_chain_rejected(self):
        pmf_at = stationary([HoldingTimePmf.uniform(1, 2)] * 4)
        for entry in (4, 5, -1):
            with pytest.raises(ValidationError, match=f"status {entry} outside 0..3"):
                contribution_prob(pmf_at, 4, entry, t_n=11, k=10, j=4)


@pytest.mark.parametrize("n_statuses, n, t_n, k, j", [(2, 1, 0, 1, 1), (4, 2, 0, 1, 1), (2, 0, 0, 1, 1), (4, 0, 2, 1, 3)])
def test_n_statuses_must_match_the_kernel(n_statuses, n, t_n, k, j):
    u = HoldingTimePmf.uniform(1, 2)
    with pytest.raises(ValidationError, match="but the kernel has 3 statuses"):
        contribution_prob(stationary([u, u, u]), n_statuses, n, t_n, k, j)


def test_contribution_prob_matches_enumeration_on_every_status_and_entry_slot():
    # every status n and entry slot t_n in [max(0, k-8), k+j+3]: known parcels
    # (t_n <= k, t_n = k among them) and orders (t_n > k, past k+j among them,
    # entering straight into the last status); both raise on the same inputs
    rng = np.random.default_rng(7)
    compared = raised = 0
    worst = 0.0
    for _ in range(100):
        kernel, k, j = random_instance(rng)
        pmf_at, n_statuses = bind_kernel(kernel), kernel.n_statuses
        for n in range(n_statuses):
            for t_n in range(max(0, k - 8), k + j + 4):
                try:
                    exact = enumerate_contribution_prob(pmf_at, n_statuses, n, t_n, k, j)
                except ValidationError:  # a zero-probability condition: the closed form calls the evidence impossible
                    with pytest.raises(ImpossibleEvidence):
                        contribution_prob(pmf_at, n_statuses, n, t_n, k, j)
                    raised += 1
                    continue
                worst = max(worst, abs(contribution_prob(pmf_at, n_statuses, n, t_n, k, j) - exact))
                compared += 1
    assert worst <= 1e-12
    assert compared > 4000 and raised > 500


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

    def check(self, kernel, routes, first_status, k, horizons):
        window = _Window(kernel, "shop", routes, k, np.array(horizons))
        for r, route in enumerate(routes):
            pmf_at = bind_kernel(kernel, carrier=route[0], retailer=route[1], pup="shop")
            for h, j in enumerate(horizons):
                expected = slot_by_slot_values(pmf_at, kernel.n_statuses, first_status, k, j)
                for m, v in expected.items():
                    assert np.abs(window.values[m][r, h, :j] - v).max(initial=0.0) <= 1e-15, (route, m, j)
                    assert not window.values[m][r, h, j:].any()  # zero past k+j
        return {route: {m: v[r] for m, v in window.values.items()} for r, route in enumerate(routes)}

    def test_default_kernel(self):
        values = self.check(default_scenario().kernel, self.DEFAULT_ROUTES, 2, 2400 + 7, (61, 0, 13, 61, 1))
        # pickup is keyed on the calendar only, transit on the carrier too
        assert all(np.array_equal(values[route][3], values["c1", "r1"][3]) for route in self.DEFAULT_ROUTES)
        assert np.array_equal(values["c1", "r1"][2], values["c1", "r3"][2])
        assert not np.array_equal(values["c1", "r1"][2], values["c2", "r1"][2])

    def test_retailer_keyed_status_is_not_shared(self):
        kernel = retailer_keyed_kernel()
        routes = [("c1", "r1"), ("c1", "r2"), ("c2", "r1")]
        values = self.check(kernel, routes, 0, 30, (40, 7))
        assert np.array_equal(values["c1", "r1"][1], values["c1", "r2"][1])
        assert np.abs(values["c1", "r1"][0] - values["c1", "r2"][0]).max() > 1e-3


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
            0.7 * contribution_prob(pmf_at, 2, 0, k + i, k, j)
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
                            w * contribution_prob(bind_kernel(kernel, c, r, "shop"), 3, 0, k + i, k, j)
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

    @pytest.mark.parametrize("coverage", [0.99, 0.999999])
    def test_mixture_matches_the_formula_at_realistic_width(self, coverage):
        # the default scenario at day 100, j = 85: 84 entry slots for each of
        # three carriers.  Each pair is built from its cut point and the
        # closed form Pois(x; lam p) P(Pois(lam (1 - p)) <= top - x), and the
        # pairs are convolved in sequence; a pair with lam = 0 is the point mass at 0
        cfg = default_scenario(seed=3)
        k, j = 100 * cfg.timebase.slots_per_day, 85
        expected = np.array([1.0])
        for i in range(1, j):
            for c in cfg.intensity.carriers:
                lam = cfg.intensity.lambda_at(cfg.timebase, k + i, c)
                if lam == 0.0:
                    continue
                p = sum(
                    w * contribution_prob(
                        bind_kernel(cfg.kernel, c, r, cfg.pup), cfg.n_statuses, cfg.entry_status, k + i, k, j
                    )
                    for r, w in cfg.selection.p_retailer_given_carrier(c).items()
                )
                top = poisson_truncation(lam, coverage)
                a, b = lam * p, lam * (1.0 - p)
                q = np.array([
                    exp(-a) * a**x / factorial(x) * sum(exp(-b) * b**y / factorial(y) for y in range(top - x + 1))
                    for x in range(top + 1)
                ])
                expected = np.convolve(expected, q / q.sum())
        expected = LoadPmf(expected).trimmed().probs
        pmf = future_orders_pmf(cfg.intensity, cfg.kernel, cfg.selection, cfg.pup, k, j, cfg.entry_status, coverage)
        assert len(pmf.probs) == len(expected)
        assert np.abs(pmf.probs - expected).max() <= 1e-15

    def test_exact_mode_is_one_poisson(self):
        # thinned and superposed, the contributing orders of all (slot, carrier)
        # pairs are one Poisson variable with rate sum(lam p)
        kernel, intensity, selection = two_carrier_orders()
        k = 32
        for j in (1, 2, 4, 7, 30):  # sum(lam p) up to 23.6
            total = sum(
                intensity.lambda_at(TB, k + i, c)
                * sum(
                    w * contribution_prob(bind_kernel(kernel, c, r, "shop"), 3, 0, k + i, k, j)
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


@pytest.mark.parametrize("coverage", [None, 0.99])
def test_nan_order_intensity_rejected(coverage):
    # one NaN daily volume fails lam >= 0 as a negative one does, at either coverage
    cfg = default_scenario(seed=3)
    k = 100 * cfg.timebase.slots_per_day
    truth, volumes = cfg.intensity, cfg.intensity.volumes.copy()
    volumes[truth.carriers.index("c1"), (cfg.timebase.date_of(k + 12) - truth.start).days] = float("nan")
    intensity = OrderIntensity(truth.profile, truth.carriers, truth.start, volumes)
    with pytest.raises(ValidationError, match="NaN order intensity"):
        predict_load_pmf([], cfg.kernel, intensity, cfg.selection, k, 37, cfg.entry_status, coverage)


class TestPredictLoadPmf:
    def delivered_parcel(self, pid, t_del):
        return ParcelRecord(pid, "c1", "shop", "r1", {0: t_del - 1, 1: t_del})

    def test_entry_status_outside_the_chain_rejected(self):
        cfg = default_scenario()
        for j in (0, 13):
            with pytest.raises(ValidationError, match="status 4 outside 0..3"):
                predict_load_pmf([], cfg.kernel, cfg.intensity, cfg.selection, 2400, j, entry_status=4)

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
        per_parcel = sum(contribution_prob(pmf_at, 2, 1, t, k, j) for t in (23, 20))
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

    def test_pup_without_parcels_keeps_its_name(self):
        # no parcel of the shop is seen by k: the forecast still names the
        # shop, and the future orders resolve the kernel keyed on it (the
        # pooled pmf moves no order within the horizon)
        pooled = KernelLevel((), {(): HoldingTimePmf.point_mass(20)})
        keyed = StatusKernel((KernelLevel(("pup",), {("shop",): HoldingTimePmf.uniform(1, 3)}), pooled))
        kernel = TransitionKernel(2, {0: keyed, 1: keyed}, TB)
        log = EventLog([ParcelRecord("P1", "c1", "shop", "r1", {0: 30, 1: 32})], cutoff=40, timebase=TB)
        res = predict_load_pmf(
            log.truncated(24).for_pup("shop"), kernel, single_carrier_intensity(0.5), SELECTION, k=24, j=6
        )
        assert res.pup == "shop"
        assert res.mean > 0.0

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

    def test_in_transit_probability_never_exceeds_one(self):
        # rounding in the backward sum puts this parcel's probability at
        # 1 + 2.2e-16; unclamped, its Bernoulli factor has a negative entry
        # and the forecast raises instead of returning a pmf
        rng = np.random.default_rng(3)
        kernel = chain_kernel([random_pmf(rng, 4), random_pmf(rng, 6)])
        parcel = ParcelRecord("P1", "c1", "shop", "r1", {0: 21})
        pmf_at = bind_kernel(kernel, carrier="c1", retailer="r1", pup="shop")
        p = contribution_prob(pmf_at, kernel.n_statuses, 0, 21, k=24, j=1)
        assert 0.0 <= p <= 1.0
        res = predict_load_pmf([parcel], kernel, None, None, k=24, j=1)
        assert res.pmf.probs.min() >= 0.0

    def test_json_output_shape(self):
        kernel = chain_kernel([HoldingTimePmf.uniform(1, 2), HoldingTimePmf.uniform(1, 2)])
        res = predict_load_pmf([self.delivered_parcel("P1", 24)], kernel, None, None, k=24, j=1)
        doc = res.to_json_dict()
        assert set(doc) == {"pup", "k", "j", "pmf", "mean", "q05", "q50", "q95", "diagnostics"}
        assert doc["q05"] <= doc["q50"] <= doc["q95"]

    def test_parcel_in_a_status_without_kernel_is_skipped(self):
        # status 0 was never fitted: its parcel is skipped and the others
        # count, but a window that needs status 0 (orders entering it) raises
        u = HoldingTimePmf.uniform(1, 2)
        kernel = TransitionKernel(3, {1: pooled_status(u), 2: pooled_status(u)}, TB)
        early = ParcelRecord("P1", "c1", "shop", "r1", {0: 20})
        delivered = ParcelRecord("P2", "c1", "shop", "r1", {0: 20, 1: 22, 2: 24})
        note = ["parcel P1: no kernel for status 0; skipped"]
        res = predict_load_pmf([early, delivered], kernel, None, None, k=24, j=1)
        assert res.diagnostics == note
        assert np.allclose(res.pmf.probs, [0.5, 0.5])
        intensity = single_carrier_intensity(0.5)
        res = predict_load_pmf([early, delivered], kernel, intensity, SELECTION, k=24, j=3, entry_status=1)
        assert res.diagnostics == note
        with pytest.raises(MissingKernel, match="no kernel fitted for status 0"):
            predict_load_pmf([early, delivered], kernel, intensity, SELECTION, k=24, j=3)


def counting(monkeypatch, owners) -> Counter:
    """Count the calls of each (class, method name) of ``owners``, by "Class.method"."""
    calls = Counter()
    for owner, name in owners:
        def counted(*args, _method=getattr(owner, name), _key=f"{owner.__name__}.{name}", **kwargs):
            calls[_key] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def table_calls(monkeypatch):
    """Counts of the calls that build a table, resolve a pmf by lookup or sum a survival."""
    owners = ((PmfTable, "__init__"), (HoldingTimePmf, "survival"), (TransitionKernel, "lookup"), (StatusKernel, "lookup"))
    return counting(monkeypatch, owners)


@pytest.fixture
def pass_calls(monkeypatch):
    """Counts of the calls that scan the log, resolve order rates, read one parcel's kernel row or validate a load pmf."""
    owners = ((EventLog, "latest"), (OrderIntensity, "rates"), (TransitionKernel, "row_at"), (LoadPmf, "__post_init__"))
    return counting(monkeypatch, owners)


@pytest.fixture(scope="module")
def default_log():
    cfg = default_scenario()
    return cfg, simulate(cfg).event_log()


def test_all_horizons_make_one_pass(default_log, pass_calls):
    # four horizons scan the log once, resolve the order rates once and
    # validate one load pmf each; no parcel reads its own kernel row
    cfg, log = default_log

    def forecast(day):
        k = day * cfg.timebase.slots_per_day
        parcels = log.truncated(k).for_pup(cfg.pup)
        horizons = (13, 37, 61, 85)
        return predict_load_pmfs(parcels, cfg.kernel, cfg.intensity, cfg.selection, k, horizons, cfg.entry_status)

    forecast(100)
    pass_calls.clear()
    assert len(forecast(130)) == 4
    assert pass_calls == Counter({"EventLog.latest": 1, "OrderIntensity.rates": 1, "LoadPmf.__post_init__": 4})


def test_forecast_bytes_do_not_depend_on_the_memory_order_of_the_rates(default_log, monkeypatch):
    # the engine sums the rates in an order of its own, so Fortran-ordered
    # rates give the same bytes as C-ordered ones
    cfg, log = default_log

    def pmfs(day):
        k = day * cfg.timebase.slots_per_day
        parcels = log.truncated(k).for_pup(cfg.pup)
        results = predict_load_pmfs(parcels, cfg.kernel, cfg.intensity, cfg.selection, k, (13, 37, 61, 85), cfg.entry_status)
        return [r.pmf.probs.tobytes() for r in results]

    days = (30, 100, 150)
    expected = [pmfs(day) for day in days]
    rates = OrderIntensity.rates
    monkeypatch.setattr(OrderIntensity, "rates", lambda *args: np.asfortranarray(rates(*args)))
    assert [pmfs(day) for day in days] == expected


# digests of every pmf and note at days 28-177 and j = 13/37/61/85, as the exact path gave them
# when the intensity was read through a per-day callable
GOLDEN_FORECASTS = {
    1: "57405693ef1dc9a30543a7243a45209a3627ade623824cd3acd187a5b6bada3e",
    2: "d2182bc4bf161a998820a6ce2cdc6979b800ee258c32a12c2cbf1aa88fb31eba",
    3: "1a1bf7b5886ebd34f61ba0d96d56a8a18b01379596db95c52d10271d13107f7d",
}


@pytest.mark.parametrize("seed", GOLDEN_FORECASTS)
def test_forecasts_match_their_golden_digests(seed):
    assert forecast_digest(default_scenario(seed=seed), range(28, 178), (13, 37, 61, 85)) == GOLDEN_FORECASTS[seed]


# the same digests on the paper's truncated path, at its 0.99 coverage and at the 0.999999 of
# acceptance 3, as the per-pair truncation loop gave them
GOLDEN_TRUNCATED_FORECASTS = {
    (0.99, 1): "846905be8ea54ff2fbfb4aebf1032ffc7ffe9e2eb8a084af11ae9f4d105e28de",
    (0.99, 2): "1abfd29b19a57de5c63e2f4221ffbef32174dec2beea45b1fa80d3e29674efaf",
    (0.99, 3): "a76f5f9e1dc8a9cb034eeba7c7d2f6a0ec325fac96284fe6ab4e7a505e3e770e",
    (0.999999, 1): "068fe35a9ecdcf72601df2daba95223820ee60b70b940ce19dfada4843026c8b",
    (0.999999, 2): "3a64a2d758cad2b8090d53d6f98e98e35bcab461fb6e0617f41ce3999e44f361",
    (0.999999, 3): "66ef857744abfaae568657989b414ed5fa8c5a547c0a394ffbc447a33b5acc48",
}


@pytest.mark.parametrize("coverage, seed", GOLDEN_TRUNCATED_FORECASTS)
def test_truncated_forecasts_match_their_golden_digests(coverage, seed):
    digest = forecast_digest(default_scenario(seed=seed), range(28, 178), (13, 37, 61, 85), coverage)
    assert digest == GOLDEN_TRUNCATED_FORECASTS[coverage, seed]


@pytest.mark.parametrize("coverage", [None, 0.99])
def test_horizons_do_not_leak_into_each_other(default_log, coverage):
    cfg, log = default_log
    k = 100 * cfg.timebase.slots_per_day
    parcels = log.truncated(k).for_pup(cfg.pup)
    horizons = (37, 0, 13, 37)
    models = (cfg.kernel, cfg.intensity, cfg.selection)
    results = predict_load_pmfs(parcels, *models, k, horizons, cfg.entry_status, coverage)
    assert [r.j for r in results] == list(horizons)
    for r in results:
        alone = predict_load_pmf(parcels, *models, k, r.j, cfg.entry_status, coverage)
        assert len(r.pmf.probs) == len(alone.pmf.probs)
        assert np.abs(r.pmf.probs - alone.pmf.probs).max() <= 1e-15
        assert r.diagnostics == alone.diagnostics
    # at j = 0 no parcel in transit can be delivered and every delivered one is still stored
    _, status, _ = parcels.latest(k, cfg.n_statuses)
    assert np.array_equal(results[1].pmf.probs, LoadPmf.point_mass(int((status == cfg.n_statuses - 1).sum())).probs)
    for bad in ((13, -1, 37), (-5,)):
        with pytest.raises(ValidationError, match="horizon"):
            predict_load_pmfs(parcels, *models, k, bad, cfg.entry_status, coverage)


def fallback_log():
    """(kernel, parcels, k): status 0 was never fitted; status 1 allows 1-2
    slots on any weekday and 1-10 in its pooled level; at k = 30 the log holds
    a parcel of each fallback between ordinary ones."""
    weekday = KernelLevel(("weekday",), {(w,): HoldingTimePmf.uniform(1, 2) for w in range(1, 8)})
    pooled = HoldingTimePmf.uniform(1, 10)
    statuses = {1: StatusKernel((weekday, KernelLevel((), {(): pooled})))}
    statuses.update({2: pooled_status(HoldingTimePmf.uniform(1, 6)), 3: pooled_status(HoldingTimePmf.uniform(1, 20))})
    kernel = TransitionKernel(4, statuses, TB)
    entries = {
        "A": {1: 26, 2: 28},
        "rescued": {1: 25},  # 5 slots in status 1: only the pooled pmf allows it
        "B": {1: 20, 2: 22, 3: 27},
        "departed": {1: 10},  # 20 slots: beyond every support
        "C": {1: 29},
        "skipped": {0: 28},
        "delivered": {1: 20, 2: 24, 3: 29},
        "D": {1: 26, 2: 27},
    }
    return kernel, [ParcelRecord(pid, "c1", "shop", "r1", times) for pid, times in entries.items()], 30


def test_fallback_notes_keep_the_row_order():
    kernel, parcels, k = fallback_log()
    pmf_at = bind_kernel(kernel, "c1", "r1", "shop")

    def pooled_at(n, t):
        return kernel.statuses[1].coarsest() if n == 1 else pmf_at(n, t)

    for j in (12, 3, 0):
        expected = np.array([1.0])
        for p in (
            contribution_prob(pmf_at, 4, 2, 28, k, j),
            enumerate_contribution_prob(pooled_at, 4, 1, 25, k, j),
            contribution_prob(pmf_at, 4, 3, 27, k, j),
            contribution_prob(pmf_at, 4, 1, 29, k, j),
            contribution_prob(pmf_at, 4, 3, 29, k, j),
            contribution_prob(pmf_at, 4, 2, 27, k, j),
        ):
            expected = np.convolve(expected, [1.0 - p, p])
        res = predict_load_pmf(parcels, kernel, None, None, k, j)
        skipped = ["parcel skipped: no kernel for status 0; skipped"]
        # at j = 0 no parcel in transit can be delivered: only the missing kernel is noted
        assert res.diagnostics == (skipped if j == 0 else [
            "parcel rescued: impossible evidence, used pooled fallback",
            "parcel departed: holding time beyond all supports; assumed departed",
            *skipped,
        ])
        assert len(res.pmf.probs) == len(LoadPmf(expected).trimmed().probs)
        assert np.abs(res.pmf.probs - LoadPmf(expected).trimmed().probs).max() <= 1e-12
        if j == 0:  # the two delivered parcels
            assert np.array_equal(res.pmf.probs, LoadPmf.point_mass(2).probs)


def test_fallback_parcels_take_no_per_parcel_path(monkeypatch):
    # the fallbacks are served in the forecast's arrays: no parcel reads its
    # own kernel row, and status 1's pooled pmf is looked up once for both of
    # its parcels with impossible evidence, whatever the horizons
    kernel, parcels, k = fallback_log()
    calls = counting(monkeypatch, ((TransitionKernel, "row_at"), (TransitionKernel, "pooled_pmf_at")))
    assert len(predict_load_pmfs(parcels, kernel, None, None, k, (12, 3, 0, 7))) == 4
    assert calls == Counter({"TransitionKernel.pooled_pmf_at": 1})


def fallback_instance(rng):
    """(kernel, parcels, k, horizons): 2-4 statuses, the first few never
    fitted now and then, with weekday levels that miss weekdays, retailer
    levels and a pooled level; 1-7 parcels entered by k, a few picked up;
    1-4 horizons in 0..29."""
    n_statuses = int(rng.integers(2, 5))
    first = int(rng.integers(1, n_statuses)) if rng.random() < 0.25 else 0
    statuses = {}
    for n in range(first, n_statuses):
        support, levels = int(rng.integers(1, 9)), []
        if rng.random() < 0.75:
            days = [w for w in range(1, 8) if rng.random() < 0.7]
            levels.append(KernelLevel(("weekday",), {(w,): random_pmf(rng, support) for w in days}))
        if rng.random() < 0.25:
            levels.append(KernelLevel(("retailer",), {("r1",): random_pmf(rng, support + 2)}))
        levels.append(KernelLevel((), {(): random_pmf(rng, int(rng.integers(support, 16)))}))
        statuses[n] = StatusKernel(tuple(levels))
    k = int(rng.integers(30, 200))
    parcels = []
    for i in range(int(rng.integers(1, 8))):
        t, times = k - int(rng.integers(0, 25)), {}
        for n in range(int(rng.integers(0, n_statuses + 1)), -1, -1):  # status n_statuses: picked up
            times[n], t = t, t - int(rng.integers(1, 8))
        carrier, retailer = rng.choice(["c1", "c2"]), rng.choice(["r1", "r2"])
        parcels.append(ParcelRecord(f"P{i}", str(carrier), "shop", str(retailer), times))
    horizons = [int(j) for j in rng.integers(0, 30, size=int(rng.integers(1, 4)))]
    if rng.random() < 0.3:
        horizons.append(0)
    return TransitionKernel(n_statuses, statuses, TB), parcels, k, horizons


def single_parcel_contribution(kernel, parcel, k, j):
    """A known parcel's contribution at k+j and its note, from the public
    ``contribution_prob``: a status never fitted skips it; impossible evidence
    retries on a kernel whose status n keeps only its pooled level."""
    n, t_n = max(parcel.entry_times.items())
    n_statuses = kernel.n_statuses

    def prob(kernel):
        pmf_at = bind_kernel(kernel, parcel.carrier, parcel.retailer, parcel.pup)
        return contribution_prob(pmf_at, n_statuses, n, t_n, k, j)

    try:
        return prob(kernel), ""
    except MissingKernel:
        return 0.0, f"no kernel for status {n}; skipped"
    except ImpossibleEvidence:
        pass
    pooled = TransitionKernel(n_statuses, {**kernel.statuses, n: StatusKernel(kernel.statuses[n].levels[-1:])}, TB)
    try:
        return prob(pooled), "impossible evidence, used pooled fallback"
    except ImpossibleEvidence:
        return 0.0, "holding time beyond all supports; assumed departed"


def test_fallback_rules_match_the_single_parcel_api():
    # every known parcel's factor and note, on random instances full of
    # statuses never fitted and impossible evidence
    rng = np.random.default_rng(14)
    seen = Counter()
    for _ in range(300):
        kernel, parcels, k, horizons = fallback_instance(rng)
        for j, res in zip(horizons, predict_load_pmfs(parcels, kernel, None, None, k, horizons)):
            expected, notes = np.array([1.0]), []
            for parcel in parcels:
                if max(parcel.entry_times) < kernel.n_statuses:  # not picked up
                    p, note = single_parcel_contribution(kernel, parcel, k, j)
                    expected = np.convolve(expected, [1.0 - p, p])
                    notes += [f"parcel {parcel.id}: {note}"] if note else []
                    seen[note.split(" status")[0]] += 1
            assert res.diagnostics == notes
            want = LoadPmf(expected).trimmed().probs
            assert len(res.pmf.probs) == len(want)
            assert np.abs(res.pmf.probs - want).max() <= 1e-12
    assert len(seen) == 4 and min(seen.values()) >= 50  # ordinary parcels and each note, often


def test_warm_forecast_reads_only_compiled_tables(default_log, table_calls):
    # after one forecast, the next anchor builds no table, resolves no pmf by
    # lookup and sums no survival: all come from the kernel's compiled tables
    cfg, log = default_log
    kernel = TransitionKernel(cfg.n_statuses, cfg.kernel.statuses, cfg.timebase)  # nothing compiled yet

    def forecast(day):
        k = day * cfg.timebase.slots_per_day
        parcels = log.truncated(k).for_pup(cfg.pup)
        for j in (13, 37, 61, 85):
            predict_load_pmf(parcels, kernel, cfg.intensity, cfg.selection, k, j, entry_status=cfg.entry_status)

    forecast(100)
    assert table_calls["PmfTable.__init__"] > 0  # the warm-up compiles the tables
    table_calls.clear()
    forecast(130)
    assert table_calls == Counter()


def test_fresh_kernel_compiles_without_survival_or_lookup(default_log, table_calls):
    # a fresh kernel's first forecast sums no survival and resolves no pmf by
    # lookup: it builds one table for each status it reads, here both fitted ones
    cfg, log = default_log
    kernel = TransitionKernel(cfg.n_statuses, cfg.kernel.statuses, cfg.timebase)  # nothing compiled yet
    k = 100 * cfg.timebase.slots_per_day
    parcels = log.truncated(k).for_pup(cfg.pup)
    predict_load_pmfs(parcels, kernel, cfg.intensity, cfg.selection, k, (13, 37, 61, 85), entry_status=cfg.entry_status)
    assert table_calls == Counter({"PmfTable.__init__": len(cfg.kernel.statuses)})


def test_single_parcel_api_reads_only_compiled_tables(table_calls):
    # after one warm-up call on a bound kernel, each prob_* at a new anchor
    # builds no table, resolves no pmf by lookup and sums no survival
    cfg = default_scenario()
    kernel = TransitionKernel(cfg.n_statuses, cfg.kernel.statuses, cfg.timebase)  # nothing compiled yet
    pmf_at, n_statuses = bind_kernel(kernel, "c2", "r1", cfg.pup), cfg.n_statuses
    single_parcel = [
        lambda k: contribution_prob(pmf_at, n_statuses, n_statuses - 1, k - 5, k, 37),
        lambda k: contribution_prob(pmf_at, n_statuses, n_statuses - 2, k - 3, k, 37),
        lambda k: contribution_prob(pmf_at, n_statuses, 2, k - 9, k, 61),
        lambda k: contribution_prob(pmf_at, n_statuses, cfg.entry_status, k + 4, k, 13),
    ]
    for prob in single_parcel:
        prob(2400)
    assert table_calls["PmfTable.__init__"] > 0  # the warm-up compiles the tables
    for k in (2400 + 31, 3100):
        for prob in single_parcel:
            table_calls.clear()
            assert 0.0 < prob(k) < 1.0
            assert table_calls == Counter()


def same_phase_calls(cfg, log, kernel, k):
    """Each kind of forecast at anchor k on ``kernel``: the pmfs and notes, and the probabilities."""
    parcels = log.truncated(k).for_pup(cfg.pup)
    models = (cfg.intensity, cfg.selection)
    results = [
        predict_load_pmf(parcels, kernel, *models, k, 37, entry_status=cfg.entry_status),
        *predict_load_pmfs(parcels, kernel, *models, k, (13, 37, 61, 85), entry_status=cfg.entry_status),
        future_orders_pmf(cfg.intensity, kernel, cfg.selection, cfg.pup, k, 61, cfg.entry_status),
    ]
    pmf_at = bind_kernel(kernel, "c2", "r1", cfg.pup)
    probs = [
        contribution_prob(pmf_at, cfg.n_statuses, cfg.entry_status, k - 9, k, 61),
        contribution_prob(pmf_at, cfg.n_statuses, cfg.entry_status, k + 4, k, 13),
    ]
    return [(r.probs, []) if isinstance(r, LoadPmf) else (r.pmf.probs, r.diagnostics) for r in results], probs


def assert_same_bytes(a, b):
    (pmfs_a, probs_a), (pmfs_b, probs_b) = a, b
    assert len(pmfs_a) == len(pmfs_b) and probs_a == probs_b  # == on floats: bit for bit
    for (probs, notes), (other, other_notes) in zip(pmfs_a, pmfs_b):
        assert probs.tobytes() == other.tobytes() and notes == other_notes


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_warm_kernel_gives_a_fresh_kernels_bytes(seed):
    # the warm kernel keeps windows from anchors a week before and two weeks
    # after, and from other phases, horizons and routes (the routes of the
    # parcels of carrier c3 come first): at k it reads every window from
    # them, and gives the bytes a fresh kernel computes
    cfg = default_scenario(seed=seed)
    log = simulate(cfg).event_log()
    day, week = cfg.timebase.slots_per_day, cfg.timebase.slots_per_week
    k = 100 * day + 7

    def fresh():
        return TransitionKernel(cfg.n_statuses, cfg.kernel.statuses, cfg.timebase)

    warm = fresh()
    for anchor in (k - day, k - week, k + 3 * day, k + 2 * week):
        parcels = log.truncated(anchor).for_pup(cfg.pup)
        c3 = [parcel for parcel in parcels if parcel.carrier == "c3"]
        predict_load_pmfs(c3, warm, cfg.intensity, cfg.selection, anchor, (13, 37, 61, 85), cfg.entry_status)
        predict_load_pmfs(parcels, warm, cfg.intensity, cfg.selection, anchor, (61, 1), cfg.entry_status)
        pmf_at = bind_kernel(warm, "c1", "r2", cfg.pup)
        contribution_prob(pmf_at, cfg.n_statuses, cfg.entry_status, anchor - 9, anchor, 61)
        same_phase_calls(cfg, log, warm, anchor)
    windows = list(warm._compiled["windows"])
    assert_same_bytes(same_phase_calls(cfg, log, warm, k), same_phase_calls(cfg, log, fresh(), k))
    assert list(warm._compiled["windows"]) == windows  # no window computed at k


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_models_warmed_by_a_sweep_forecast_as_fresh_ones(seed):
    # after a full daily sweep the models keep their value windows, day
    # volumes, profile stacks and order mixes; at every tenth anchor they give
    # the bytes and notes that fresh models give, one horizon at a time and
    # four at once
    cfg = default_scenario(seed=seed)
    log = simulate(cfg).event_log()
    horizons = (13, 37, 61, 85)

    def forecasts(models, k):
        parcels = log.truncated(k).for_pup(cfg.pup)
        one = [predict_load_pmf(parcels, *models, k, j, cfg.entry_status) for j in horizons]
        four = predict_load_pmfs(parcels, *models, k, horizons, cfg.entry_status)
        return [(r.pmf.probs.tobytes(), r.diagnostics) for r in one + four]

    warm = cfg.kernel, cfg.intensity, cfg.selection
    anchors = [d * cfg.timebase.slots_per_day for d in range(28, 178)]
    for k in anchors:
        forecasts(warm, k)
    for k in anchors[::10]:
        fresh = default_scenario(seed=seed)
        assert forecasts(warm, k) == forecasts((fresh.kernel, fresh.intensity, fresh.selection), k)


def test_the_windows_of_two_pups_are_kept_apart():
    level = KernelLevel(("pup",), {("shop",): HoldingTimePmf.uniform(1, 4), ("kiosk",): HoldingTimePmf.uniform(3, 9)})
    pooled = KernelLevel((), {(): HoldingTimePmf.uniform(2, 6)})
    statuses = {0: StatusKernel((level, pooled)), 1: pooled_status(HoldingTimePmf.uniform(1, 20))}
    warm = TransitionKernel(2, statuses, TB)
    probs = []
    for pup in ("shop", "kiosk"):
        fresh = TransitionKernel(2, statuses, TB)
        probs.append(contribution_prob(bind_kernel(fresh, "c1", "r1", pup), 2, 0, 31, 30, 6))
        assert contribution_prob(bind_kernel(warm, "c1", "r1", pup), 2, 0, 31, 30, 6) == probs[-1]
    assert probs[0] != probs[1]


def test_the_windows_stay_under_the_cap_and_keep_the_tables():
    # more distinct windows than the cap: the oldest are dropped, every
    # earlier result comes back, and no table, week or stack goes
    rng = np.random.default_rng(7)
    kernel = chain_kernel([random_pmf(rng, 6), random_pmf(rng, 9), random_pmf(rng, 12)])
    pmf_at = bind_kernel(kernel, "c1", "r1", "shop")

    def probs():
        return [contribution_prob(pmf_at, 3, 2, 20, 24, j) for j in range(_WINDOWS + 20)]

    first = probs()
    compiled = {key: value for key, value in kernel._compiled.items() if key != "windows"}
    windows = kernel._compiled["windows"]
    assert len(windows) == _WINDOWS
    assert not any(v.flags.writeable for values in windows.values() for v in values.values())
    assert probs() == first  # == on floats: bit for bit
    assert len(kernel._compiled["windows"]) == _WINDOWS
    assert {key: value for key, value in kernel._compiled.items() if key != "windows"} == compiled
    assert {n for n in compiled if isinstance(n, int)} == {0, 1, 2}  # every fitted status's table


def test_a_parcel_and_an_order_share_one_window():
    # a delivered parcel, a parcel in transit and an order on one route, anchor
    # and horizon read one kept window, whatever status each asks for
    cfg = default_scenario()
    kernel = TransitionKernel(cfg.n_statuses, cfg.kernel.statuses, cfg.timebase)
    route, k, last = bind_kernel(kernel, "c1", "r1", cfg.pup), 2400, cfg.n_statuses - 1
    for n, t_n in [(last, k - 5), (cfg.entry_status, k - 2), (cfg.entry_status, k + 3)]:
        contribution_prob(route, cfg.n_statuses, n, t_n, k, 37)
    assert len(kernel._compiled["windows"]) == 1


@pytest.mark.parametrize("slot_hours", [1, 2])
def test_a_window_repeats_weekly(slot_hours):
    # the windows are kept by k modulo one week: on fresh kernels, k and
    # k plus or minus whole weeks give equal values
    default = default_scenario().kernel
    cases = [
        (default.statuses, default.n_statuses, TestCompiledWindow.DEFAULT_ROUTES),
        (retailer_keyed_kernel().statuses, 3, [("c1", "r1"), ("c1", "r2"), ("c2", "r1")]),
        (no_sunday_kernel().statuses, 3, [("c1", "r1")]),
    ]
    timebase = Timebase(TB.epoch, slot_hours)
    week = timebase.slots_per_week
    for statuses, n_statuses, routes in cases:
        for k in (5, 70, 140 // slot_hours):
            windows = [
                _Window(TransitionKernel(n_statuses, statuses, timebase), "shop", routes, k + shift, (61, 0, 13, 1))
                for shift in (0, week, -week, -3 * week)
            ]
            for window in windows[1:]:
                assert window.values.keys() == windows[0].values.keys()
                for m, v in windows[0].values.items():
                    assert np.array_equal(window.values[m], v)


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


@pytest.fixture(scope="module")
def five_weeks():
    cfg = default_scenario(horizon_days=35, ramp=0.0)
    return cfg, simulate(cfg)


def _censored(records, k):
    """Per-record censoring at k, as rows of plain values."""
    rows = []
    for r in records:
        entries = {n: t for n, t in r.entry_times.items() if t <= k}
        if entries:
            rows.append((r.id, r.carrier, r.pup, r.retailer, entries))
    return rows


EDITS = st.lists(
    st.tuples(st.integers(min_value=0), st.sampled_from(["move", "add", "delete", "new"]), st.integers(1, 200)),
    max_size=40,
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(day=st.integers(14, 30), hour=st.integers(0, 23), j=st.sampled_from([0, 1, 13, 37]), edits=EDITS)
def test_events_after_the_anchor_change_nothing(five_weeks, day, hour, j, edits):
    # moving, adding or deleting events strictly after k leaves the log seen at
    # k, and every forecast from it, exactly as they were
    cfg, trace = five_weeks
    k = day * 24 + hour
    records = [ParcelRecord(r.id, r.carrier, r.pup, r.retailer, dict(r.entry_times)) for r in trace.parcels]
    for pick, edit, step in edits:
        if edit == "new":
            records.append(ParcelRecord(f"N{len(records)}", "c1", cfg.pup, "r1", {cfg.entry_status: k + step}))
            continue
        entries = records[pick % len(records)].entry_times
        later = sorted(n for n, t in entries.items() if t > k)
        if edit == "add":
            entries[max(entries) + 1] = max(k, *entries.values()) + step
        elif later and edit == "delete":
            del entries[later[step % len(later)]]
        elif later:  # move one later entry anywhere after k between its neighbours
            n = later[step % len(later)]
            lo = max([k] + [t for m, t in entries.items() if m < n]) + 1
            hi = min([lo + 200] + [t - 1 for m, t in entries.items() if m > n])
            if lo <= hi:
                entries[n] = lo + step % (hi - lo + 1)
    last = max(t for r in records for t in r.entry_times.values())
    uncensored = EventLog(records, last, cfg.timebase)
    edited = uncensored.truncated(k)
    seen = trace.event_log(k)
    rows = [(r.id, r.carrier, r.pup, r.retailer, r.entry_times) for r in edited]
    assert rows == _censored(trace.parcels, k) == _censored(records, k)

    def forecast(parcels):
        res = predict_load_pmf(parcels, cfg.kernel, cfg.intensity, cfg.selection, k, j, entry_status=cfg.entry_status)
        return res.pup, res.pmf.probs.tobytes(), res.diagnostics

    want = forecast(seen.for_pup(cfg.pup))
    assert forecast(edited.for_pup(cfg.pup)) == want
    assert forecast(list(edited.for_pup(cfg.pup))) == want  # a plain list is packed into the same columns
    assert forecast(uncensored.for_pup(cfg.pup)) == want  # the engine reads no entry after k
