"""Discrete distribution invariants and arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pupcast.pmf import HoldingTimePmf, LoadPmf, convolve, point_forecast, tv_distance
from pupcast.errors import InvalidQuantile, ValidationError


class TestHoldingTimePmf:
    def test_zero_mass_at_zero_delay_enforced(self):
        with pytest.raises(ValidationError):
            HoldingTimePmf(np.array([0.5, 0.5]))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            HoldingTimePmf(np.array([0.0, 1.5, -0.5]))

    def test_sum_tolerance(self):
        HoldingTimePmf(np.array([0.0, 1.0 - 5e-10]))  # inside 1e-9
        with pytest.raises(ValidationError):
            HoldingTimePmf(np.array([0.0, 0.9]))

    def test_cdf_survival(self):
        f = HoldingTimePmf.uniform(1, 4)
        assert f.cdf(-1) == 0.0
        assert f.cdf(2) == pytest.approx(0.5)
        assert f.cdf(99) == pytest.approx(1.0)
        assert f.survival(2) == pytest.approx(0.5)

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
        with pytest.raises(ValidationError):
            LoadPmf(np.array([0.5, 0.4]))

    def test_mean_and_quantile(self):
        p = LoadPmf(np.array([0.25, 0.5, 0.25]))
        assert p.mean() == pytest.approx(1.0)
        assert p.quantile(0.5) == 1
        assert LoadPmf(np.array([0.5, 0.5])).quantile(0.9) == 1
        with pytest.raises(InvalidQuantile):
            p.quantile(1.5)

    def test_trimmed(self):
        probs = np.array([0.5, 0.5, 1e-15, 1e-16])
        t = LoadPmf(probs / probs.sum()).trimmed()
        assert len(t.probs) == 2
        assert t.probs.sum() == pytest.approx(1.0, abs=1e-12)


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


def test_point_forecast():
    p = LoadPmf(np.array([0.25, 0.5, 0.25]))
    assert point_forecast(p, "mean") == pytest.approx(1.0)
    assert point_forecast(LoadPmf.point_mass(7), "median") == 7
    assert point_forecast(LoadPmf(np.array([0.5, 0.5])), "quantile", q=0.9) == 1
    with pytest.raises(InvalidQuantile):
        point_forecast(p, "quantile")
    with pytest.raises(ValidationError):
        point_forecast(p, "mode")
