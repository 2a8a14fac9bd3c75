"""Per-parcel contribution probabilities and the load prediction algorithm.

Each parcel's contribution to the load at slot k+j is a Bernoulli variable
whose parameter depends on the parcel's latest known status:

* already delivered: ratio of pickup survival probabilities;
* in transit (any earlier status): probability of being delivered within
  (k, k+j] and not picked up by k+j, conditioned on the transition out of
  the current status not having happened by k;
* not yet ordered: the same joint event for a virtual parcel entering the
  chain at a future slot, mixed over carriers/retailers and a Poisson
  number of orders.

The last two, and ``chain_prob_g``, read from one backward value function
V_m(t) = sum_d f_{m,t}(d) V_{m+1}(t+d) over the slots of a window, from a
terminal V_{N-1} (the pickup survival to k+j; for ``chain_prob_g`` the
indicator of the delivery slot); a path that leaves the window scores 0.
A parcel in status n is a dot product of its holding-time row with
V_{n+1}; an order entering status e at t_0 adds V_e(t_0).  Within one
forecast, parcels and orders of one (carrier, retailer) share one table.
The load pmf is the convolution of the per-parcel Bernoulli pmfs with the
future-order pmf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .arrivals import OrderIntensity, poisson_pmf, poisson_truncation
from .errors import ImpossibleEvidence, MissingKernel, ValidationError
from .estimation import SelectionModel
from .pmf import HoldingTimePmf, LoadPmf, convolve, point_forecast
from .records import ParcelRecord

__all__ = [
    "PmfAt",
    "prob_still_stored",
    "prob_delivered_and_stored_last_hop",
    "prob_delivered_and_stored_multi_hop",
    "prob_future_order_contributes",
    "chain_prob_g",
    "future_orders_pmf",
    "predict_load_pmf",
    "ForecastResult",
    "convolve",
    "point_forecast",
]

# pmf_at(n, t) -> holding-time pmf of status n entered at slot t,
# with routing attributes (carrier/retailer/pup) already bound.
PmfAt = Callable[[int, int], HoldingTimePmf]

_EPS = 1e-15


def bind_kernel(kernel, carrier=None, retailer=None, pup=None) -> PmfAt:
    """Close a transition kernel over one parcel's routing attributes."""
    return partial(kernel.pmf_at, carrier=carrier, retailer=retailer, pup=pup)


class _Values(dict):
    """Backward value functions: ``self[m][t - slots[0]]`` is V_m(t) under one bound kernel.

    V_{N-1}(t) is ``terminal(t)``.  Each V_m is computed on first use and kept.
    """

    def __init__(self, pmf_at: PmfAt, n_statuses: int, slots: range, terminal: Callable[[int], float]):
        super().__init__()
        self.pmf_at, self.last, self.slots, self.terminal = pmf_at, n_statuses - 1, slots, terminal

    def __missing__(self, m: int) -> np.ndarray:
        if m == self.last:
            v = np.array([self.terminal(t) for t in self.slots], dtype=float)
        else:
            nxt = self[m + 1]
            v = np.zeros(len(nxt))
            for i, t in enumerate(self.slots[:-1]):  # an entry at the last slot cannot move on
                probs = self.pmf_at(m, t).probs[1 : len(nxt) - i]
                v[i] = probs @ nxt[i + 1 : i + 1 + len(probs)]
        self[m] = v
        return v


def _window(pmf_at: PmfAt, n_statuses: int, k: int, j: int) -> _Values:
    """V_m(t) = P(delivered in (k, k+j], still stored at k+j | status m entered at t > k)."""
    last = n_statuses - 1
    return _Values(pmf_at, n_statuses, range(k + 1, k + j + 1), lambda t: pmf_at(last, t).survival(k + j - t))


class _Tables(dict):
    """The ``_window`` of each (carrier, retailer) at one pup, built on first use."""

    def __init__(self, kernel, pup: str, k: int, j: int):
        super().__init__()
        self.kernel, self.pup, self.k, self.j = kernel, pup, k, j

    def __missing__(self, route: tuple) -> _Values:
        pmf_at = bind_kernel(self.kernel, carrier=route[0], retailer=route[1], pup=self.pup)
        self[route] = _window(pmf_at, self.kernel.n_statuses, self.k, self.j)
        return self[route]


def _known(f: HoldingTimePmf, values: _Values, n: int, t_n: int, k: int, j: int) -> float:
    """Contribution probability of a parcel in status n since t_n whose status-n pmf is f."""
    if j < 0:
        raise ValidationError("horizon j must be >= 0")
    if n < values.last and j == 0:
        return 0.0  # no slot to be delivered in
    denom = f.survival(k - t_n)
    if denom <= _EPS:
        raise ImpossibleEvidence(f"kernel says status {n} entered at {t_n} must have been left by {k}")
    if n == values.last:  # delivered: the ratio of pickup survivals
        # tiny tail sums can make the ratio overshoot 1 by a few ulps
        return min(1.0, f.survival(k + j - t_n) / denom)
    first = max(k + 1, t_n + 1)  # earliest slot of the window the transition can reach
    row = f.probs[first - t_n : k + j + 1 - t_n]
    return float(row @ values[n + 1][first - k - 1 : first - k - 1 + len(row)]) / denom


def prob_still_stored(pmf_at: PmfAt, n_statuses: int, t_delivered: int, k: int, j: int) -> float:
    """P(parcel still stored at k+j | delivered at t_delivered, not picked up by k).

    Ratio of the pickup-time survival at k+j to the survival at k.
    """
    last = n_statuses - 1
    return _known(pmf_at(last, t_delivered), _window(pmf_at, n_statuses, k, j), last, t_delivered, k, j)


def prob_delivered_and_stored_last_hop(
    pmf_at: PmfAt, n_statuses: int, t_prev: int, k: int, j: int
) -> float:
    """Contribution probability for a parcel one transition away from delivery."""
    return prob_delivered_and_stored_multi_hop(pmf_at, n_statuses, n_statuses - 2, t_prev, k, j)


def prob_delivered_and_stored_multi_hop(
    pmf_at: PmfAt, n_statuses: int, n: int, t_n: int, k: int, j: int
) -> float:
    """P(delivered in (k, k+j] and not picked up by k+j | status n since t_n, T_{n+1} > k).

    Degenerates to the last-hop case when n = N-2.
    """
    if not 0 <= n <= n_statuses - 2:
        raise ValidationError(f"status {n} is not an in-transit status for N={n_statuses}")
    return _known(pmf_at(n, t_n), _window(pmf_at, n_statuses, k, j), n, t_n, k, j)


def chain_prob_g(pmf_at: PmfAt, n_statuses: int, n: int, t_n: int, t_delivery: int) -> float:
    """P(delivery exactly at t_delivery | status n entered at t_n).

    The backward values over [t_n, t_delivery] with terminal 1[t = t_delivery];
    0 for unreachable times (each hop takes at least one slot).
    """
    if n >= n_statuses - 1:
        raise ValidationError("chain probability needs a status before delivery")
    if t_delivery - t_n < n_statuses - 1 - n:
        return 0.0
    values = _Values(pmf_at, n_statuses, range(t_n, t_delivery + 1), lambda t: float(t == t_delivery))
    return float(values[n][0])


def prob_future_order_contributes(
    pmf_at: PmfAt, n_statuses: int, t_0: int, k: int, j: int, entry_status: int = 0
) -> float:
    """P(delivered in (k, k+j] and not picked up by k+j | enters chain at t_0 > k)."""
    if not k < t_0 <= k + j:
        raise ValidationError("future order time must satisfy k < t_0 <= k+j")
    return float(_window(pmf_at, n_statuses, k, j)[entry_status][t_0 - k - 1])


def future_orders_pmf(
    intensity: OrderIntensity,
    kernel,
    selection: SelectionModel,
    pup: str,
    k: int,
    j: int,
    entry_status: int = 0,
    coverage: float = 0.99,
) -> LoadPmf:
    """Pmf of the number of not-yet-ordered parcels stored at k+j.

    For each future slot k+i, i in [1, j-1], and each carrier, the number
    of orders is Poisson with the fitted intensity, each contributing
    independently with a probability mixed over the retailer selection
    model.  The Poisson mixture is truncated at the smallest count whose
    CDF reaches ``coverage`` and renormalized.
    """
    return _future_orders_pmf(intensity, selection, _Tables(kernel, pup, k, j), entry_status, coverage)


def _future_orders_pmf(
    intensity: OrderIntensity, selection: SelectionModel, tables: _Tables, entry_status: int, coverage: float
) -> LoadPmf:
    k, j = tables.k, tables.j
    # contribution probability of one order per carrier and entry slot k+1..k+j
    p_entry = {}
    for carrier in intensity.carriers:
        weights = selection.p_retailer_given_carrier(carrier) or {None: 1.0}
        p_entry[carrier] = sum(w * tables[carrier, r][entry_status] for r, w in weights.items())
    result = LoadPmf.point_mass(0)
    for i in range(1, j):
        for carrier in intensity.carriers:
            lam = intensity.lambda_at(tables.kernel.timebase, k + i, carrier)
            if lam <= 0.0:
                continue
            p = p_entry[carrier][i - 1]
            m_max = poisson_truncation(lam, coverage)
            bern = np.array([1.0 - p, p])
            q = np.zeros(m_max + 1)
            p_m = np.array([1.0])
            q[0] += poisson_pmf(lam, 0)
            for m in range(1, m_max + 1):
                p_m = np.convolve(p_m, bern)
                q[: m + 1] += poisson_pmf(lam, m) * p_m
            result = LoadPmf(np.convolve(result.probs, q / q.sum()))
    return result.trimmed()


@dataclass
class ForecastResult:
    """Forecast of the load pmf at one horizon, plus diagnostics."""

    pup: str
    k: int
    j: int
    pmf: LoadPmf
    diagnostics: list[str] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return self.pmf.mean()

    def to_json_dict(self) -> dict:
        return {
            "pup": self.pup,
            "k": self.k,
            "j": self.j,
            "pmf": [float(p) for p in self.pmf.probs],
            "mean": self.mean,
            "q05": self.pmf.quantile(0.05),
            "q50": self.pmf.quantile(0.50),
            "q95": self.pmf.quantile(0.95),
            "diagnostics": list(self.diagnostics),
        }


def _parcel_contribution(rec: ParcelRecord, tables: _Tables, diagnostics: list[str]) -> float | None:
    """Bernoulli parameter for one known parcel, or None if it cannot contribute."""
    n_statuses = tables.kernel.n_statuses
    k, j = tables.k, tables.j
    n = rec.status_at(k)
    if n is None or n >= n_statuses:
        return None
    t_n = rec.entry_times[n]
    values = tables[rec.carrier, rec.retailer]
    try:
        return _known(values.pmf_at(n, t_n), values, n, t_n, k, j)
    except ImpossibleEvidence:
        pass
    except MissingKernel:
        diagnostics.append(f"parcel {rec.id}: no kernel for status {n}; skipped")
        return None
    # Evidence contradicts the fitted pmf (holding time beyond its support).
    # Retry with the coarsest pooled pmf; if that also says the parcel must
    # have left, treat it as departed (the forced-return rule).
    try:
        pooled = tables.kernel.pooled_pmf_at(n, t_n)
    except MissingKernel:
        diagnostics.append(f"parcel {rec.id}: impossible evidence, no fallback; dropped")
        return None
    try:
        p = _known(pooled, values, n, t_n, k, j)
        diagnostics.append(f"parcel {rec.id}: impossible evidence, used pooled fallback")
        return p
    except ImpossibleEvidence:
        diagnostics.append(f"parcel {rec.id}: holding time beyond all supports; assumed departed")
        return 0.0


def predict_load_pmf(
    parcels: Sequence[ParcelRecord],
    kernel,
    intensity: OrderIntensity | None,
    selection: SelectionModel | None,
    k: int,
    j: int,
    entry_status: int = 0,
    coverage: float = 0.99,
) -> ForecastResult:
    """Full load pmf at k+j from known parcels plus forecast future orders.

    Parcels already picked up contribute nothing; each other parcel adds a
    Bernoulli factor, and the future-order pmf is convolved in last.
    """
    pups = {rec.pup for rec in parcels}
    if len(pups) > 1:
        raise ValidationError(f"parcels target multiple pups: {sorted(pups)}")
    pup = pups.pop() if pups else ""
    diagnostics: list[str] = []
    tables = _Tables(kernel, pup, k, j)
    probs = np.array([1.0])
    for rec in parcels:
        p = _parcel_contribution(rec, tables, diagnostics)
        if p is not None and p > 0.0:
            probs = np.convolve(probs, [1.0 - p, p])
    if intensity is not None:
        if selection is None:
            selection = SelectionModel({None: 1.0}, {None: {c: 1.0 / len(intensity.carriers) for c in intensity.carriers}})
        future = _future_orders_pmf(intensity, selection, tables, entry_status, coverage)
        probs = np.convolve(probs, future.probs)
    pmf = LoadPmf(probs / probs.sum()).trimmed()
    return ForecastResult(pup=pup, k=k, j=j, pmf=pmf, diagnostics=diagnostics)
