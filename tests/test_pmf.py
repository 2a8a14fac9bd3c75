"""Discrete distribution invariants and arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pupcast.pmf import HoldingTimePmf, LoadPmf, convolve, tv_distance
from pupcast.errors import InvalidQuantile, ValidationError
from pupcast.scenario import default_scenario


class TestHoldingTimePmf:
    def test_zero_mass_at_zero_delay_enforced(self):
        with pytest.raises(ValidationError):
            HoldingTimePmf(np.array([0.5, 0.5]))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            HoldingTimePmf(np.array([0.0, 1.5, -0.5]))

    def test_sum_tolerance(self):
        HoldingTimePmf(np.array([0.0, 1.0 - 5e-10]))  # inside 1e-9
        for bad in ([0.0, 0.9], [0.0, np.nan, 1.0], [0.0, np.nan]):
            with pytest.raises(ValidationError):
                HoldingTimePmf(np.array(bad))

    def test_cdf_survival(self):
        f = HoldingTimePmf.uniform(1, 4)
        assert f.survival(2) == pytest.approx(0.5)

    def test_tails_are_exact_tail_sums_that_never_rise(self):
        # the default kernel's pmfs and Dirichlet(0.3) pmfs on 336 delays; summed
        # one slice per delay, 2 of the former and 13 of the latter rise by an ulp
        kernel = default_scenario().kernel
        pmfs = list({id(f): f for sk in kernel.statuses.values() for lv in sk.levels for f in lv.pmfs.values()}.values())
        rng = np.random.default_rng(11)
        pmfs += [HoldingTimePmf.from_counts(np.append(0.0, rng.gamma(0.3, size=336))) for _ in range(200)]
        for f in pmfs:
            tails = f.tails
            assert len(tails) == len(f.probs) + 1 and tails[0] == 1.0 and tails[-1] == 0.0
            assert (np.diff(tails) <= 0).all()
            exact = [math.fsum(f.probs[d:]) for d in range(len(tails))]
            assert np.abs(tails - exact).max() <= 1e-15
            for delta in range(-3, f.support_max + 4):
                assert f.survival(delta) == tails[min(max(delta + 1, 0), len(f.probs))]

    def test_from_counts_and_point_mass(self):
        f = HoldingTimePmf.from_counts([0, 2, 0, 1])
        assert f.probs[1] == pytest.approx(2 / 3)
        g = HoldingTimePmf.point_mass(3, support_max=10)
        assert g.probs[3] == 1.0 and g.support_max == 10
        with pytest.raises(ValidationError):
            HoldingTimePmf.point_mass(0)


class TestLoadPmf:
    def test_sum_tolerance(self):
        LoadPmf(np.array([0.5, 0.5 - 5e-7]))  # inside 1e-6
        for bad in ([0.5, 0.4], [0.5, np.nan, 0.5], [np.nan]):
            with pytest.raises(ValidationError):
                LoadPmf(np.array(bad))

    def test_mean_and_quantile(self):
        p = LoadPmf(np.array([0.25, 0.5, 0.25]))
        assert p.mean() == pytest.approx(1.0)
        assert p.quantile(0.5) == 1
        assert LoadPmf(np.array([0.5, 0.5])).quantile(0.9) == 1
        with pytest.raises(InvalidQuantile):
            p.quantile(1.5)

    def test_quantile_stays_on_the_support_of_a_pmf_short_of_one(self):
        # a pmf may sum to 1 - LOAD_SUM_TOL: a level above its total mass is its last count
        p = LoadPmf(np.array([0.5, 0.4999995]))
        assert p.quantile(0.9999999) == 1 and p.quantile(0.9999994) == 1 and p.quantile(0.4) == 0

    def test_trimmed(self):
        probs = np.array([0.5, 0.5, 1e-15, 1e-16])
        t = LoadPmf(probs / probs.sum()).trimmed()
        assert len(t.probs) == 2
        assert t.probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "probs, kept",
        [
            ([1.0], [1.0]),  # a single entry stays
            ([1e-13, 1.0 - 1e-13], [1e-13, 1.0 - 1e-13]),  # the first entry is never the cut
            ([1.0 - 2e-13, 1e-13, 1e-13], [1.0]),  # all but the first below eps
            ([0.5, 1e-13, 0.5, 1e-13], [0.5, 1e-13, 0.5]),  # only trailing mass goes
        ],
    )
    def test_trimmed_edges(self, probs, kept):
        t = LoadPmf(np.array(probs)).trimmed()
        assert np.array_equal(t.probs, np.array(kept) / np.sum(kept))

    def test_trimmed_all_below_eps(self):
        t = LoadPmf(np.array([0.5, 0.5])).trimmed(eps=0.9)
        assert np.array_equal(t.probs, [1.0])


class TestConvolve:
    def test_identity(self):
        p = LoadPmf(np.array([0.2, 0.3, 0.5]))
        out = convolve(LoadPmf(np.array([1.0])), p)
        assert np.allclose(out.probs, p.probs)

    def test_fair_coin_sum(self):
        coin = LoadPmf(np.array([0.5, 0.5]))
        assert np.allclose(convolve(coin, coin).probs, [0.25, 0.5, 0.25])

    def test_mean_additivity(self):
        a = LoadPmf(np.array([0.7, 0.3]))
        b = LoadPmf(np.array([0.55, 0.45]))
        assert convolve(a, b).mean() == pytest.approx(0.75, abs=1e-9)

    def test_commutativity_associativity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ps = []
            for _ in range(3):
                v = rng.dirichlet(np.ones(rng.integers(2, 6)))
                ps.append(LoadPmf(v))
            a, b, c = ps
            ab = convolve(a, b)
            ba = convolve(b, a)
            assert np.max(np.abs(ab.probs - ba.probs)) <= 1e-12
            left = convolve(ab, c).probs
            right = convolve(a, convolve(b, c)).probs
            assert np.max(np.abs(left - right)) <= 1e-12

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=6),
           st.lists(st.integers(1, 50), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_mass_and_mean_preserved(self, wa, wb):
        a = LoadPmf(np.array(wa, dtype=float) / sum(wa))
        b = LoadPmf(np.array(wb, dtype=float) / sum(wb))
        out = convolve(a, b)
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert out.mean() == pytest.approx(a.mean() + b.mean(), abs=1e-9)
        assert len(out.probs) == len(a.probs) + len(b.probs) - 1


def test_tv_distance():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert tv_distance([0.5, 0.5], [0.5, 0.25, 0.25]) == pytest.approx(0.25)
