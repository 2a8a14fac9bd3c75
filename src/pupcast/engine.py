"""Per-parcel contribution probabilities and the load prediction algorithm.

Each parcel's contribution to the load at slot k+j is a Bernoulli variable
whose parameter depends on the parcel's latest known status:

* already delivered: ratio of pickup survival probabilities;
* in transit (any earlier status): probability of being delivered within
  (k, k+j] and not picked up by k+j, conditioned on the transition out of
  the current status not having happened by k;
* not yet ordered: the same joint event for a virtual parcel entering the
  chain at a future slot, mixed over retailers.  Orders are Poisson per
  slot and carrier, so by thinning and superposition the contributing ones
  are exactly Poisson with rate sum(lam p); a float ``coverage`` keeps the
  paper's per-pair truncation instead, in closed form.

The last two, and ``chain_prob_g``, read from one backward value function
V_m(t) = sum_d f_{m,t}(d) V_{m+1}(t+d) over the slots of a window, from a
terminal V_{N-1} (the pickup survival to k+j; for ``chain_prob_g`` the
indicator of the delivery slot); a path that leaves the window scores 0.
A parcel in status n is a dot product of its holding-time row with
V_{n+1}; an order entering status e at t_0 adds V_e(t_0).

Each V_m is compiled over the window in one array pass: ``pmf_at`` is
resolved once per slot, the distinct pmfs are stacked as rows cut to the
window width, and every slot's row meets V_{m+1} from the next slot on in
one row-wise product.  Within one forecast, parcels and orders of one
(carrier, retailer) share one table, and the routes share each V_m that
they resolve to the same pmfs for (a status conditioned on the calendar
only is built once for all routes).  The load pmf is the convolution of
the per-parcel Bernoulli pmfs with the future-order pmf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arrivals import OrderIntensity, poisson_pmf, poisson_truncation
from .errors import ImpossibleEvidence, MissingKernel, ValidationError
from .estimation import SelectionModel
from .pmf import HoldingTimePmf, LoadPmf
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
]

# pmf_at(n, t) -> holding-time pmf of status n entered at slot t,
# with routing attributes (carrier/retailer/pup) already bound.
PmfAt = Callable[[int, int], HoldingTimePmf]

_EPS = 1e-15
_NOISE = 1e-17  # the exact future-order pmf ends where its entries reach float noise


def bind_kernel(kernel, carrier=None, retailer=None, pup=None) -> PmfAt:
    """Close a transition kernel over one parcel's routing attributes."""
    return partial(kernel.pmf_at, carrier=carrier, retailer=retailer, pup=pup)


class _Values(dict):
    """Backward value functions: ``self[m][t - slots[0]]`` is V_m(t) under one bound kernel.

    V_{N-1}(t) is ``terminal(f, t)`` for the status-(N-1) pmf f entered at t.
    Each V_m is computed on first use and kept.  It depends on the bound
    kernel only through the pmfs its slots resolve to, so it is also kept in
    ``shared`` under their identities and V_{m+1}'s: bound kernels that pass
    the same ``shared`` and resolve to the same pmfs compute it once.
    """

    def __init__(
        self, pmf_at: PmfAt, n_statuses: int, slots: range, terminal: Callable, shared: dict | None = None
    ):
        super().__init__()
        self.pmf_at, self.last, self.slots, self.terminal = pmf_at, n_statuses - 1, slots, terminal
        self.shared = {} if shared is None else shared

    def __missing__(self, m: int) -> np.ndarray:
        nxt = None if m == self.last else self[m + 1]
        slots = self.slots if nxt is None else self.slots[:-1]  # an entry at the last slot cannot move on
        pmfs = [self.pmf_at(m, t) for t in slots]
        key = (m, id(nxt), *map(id, pmfs))
        entry = self.shared.get(key)
        if entry is None:
            if nxt is None:
                v = np.array([self.terminal(f, t) for f, t in zip(pmfs, slots)], dtype=float)
            else:
                v = _step(pmfs, nxt)
            # the memo holds the pmfs and v, so the ids in its keys are never reused
            entry = self.shared[key] = (v, pmfs)
        self[m] = entry[0]
        return entry[0]


def _step(pmfs: list[HoldingTimePmf], nxt: np.ndarray) -> np.ndarray:
    """V_m(t_i) = sum_{d >= 1} f_i(d) V_{m+1}(t_i + d) for the pmfs f_i of all but the last slot.

    The distinct pmfs are stacked as rows over the delays 1..width that stay
    in the window, and each slot's row meets V_{m+1} from the next slot on in
    one row-wise product.
    """
    v = np.zeros(len(nxt))
    width = len(nxt) - 1
    if width < 1:
        return v
    distinct = {id(f): f for f in pmfs}
    row_of = {key: r for r, key in enumerate(distinct)}
    table = np.zeros((len(distinct), width))
    for r, f in enumerate(distinct.values()):
        cut = f.probs[1 : width + 1]
        table[r, : len(cut)] = cut
    ahead = sliding_window_view(np.concatenate([nxt[1:], np.zeros(width)]), width)[:width]
    v[:width] = np.einsum("ij,ij->i", table[[row_of[id(f)] for f in pmfs]], ahead)
    return v


def _window(pmf_at: PmfAt, n_statuses: int, k: int, j: int, shared: dict | None = None) -> _Values:
    """V_m(t) = P(delivered in (k, k+j], still stored at k+j | status m entered at t > k)."""
    if j < 0:
        raise ValidationError("horizon j must be >= 0")
    return _Values(pmf_at, n_statuses, range(k + 1, k + j + 1), lambda f, t: f.survival(k + j - t), shared)


class _Tables(dict):
    """The ``_window`` of each (carrier, retailer) at one pup, built on first use.

    All routes share one memo of V_m, so routes whose pmfs agree on the
    window (all routes at a status conditioned on the calendar only) compute
    it once.
    """

    def __init__(self, kernel, pup: str, k: int, j: int):
        super().__init__()
        if j < 0:
            raise ValidationError("horizon j must be >= 0")
        self.kernel, self.pup, self.k, self.j = kernel, pup, k, j
        self.shared: dict = {}

    def __missing__(self, route: tuple) -> _Values:
        pmf_at = bind_kernel(self.kernel, carrier=route[0], retailer=route[1], pup=self.pup)
        self[route] = _window(pmf_at, self.kernel.n_statuses, self.k, self.j, self.shared)
        return self[route]


def _known(f: HoldingTimePmf, values: _Values, n: int, t_n: int, k: int, j: int) -> float:
    """Contribution probability of a parcel in status n since t_n whose status-n pmf is f."""
    if n < values.last and j == 0:
        return 0.0  # no slot to be delivered in
    denom = f.survival(k - t_n)
    if denom <= _EPS:
        raise ImpossibleEvidence(f"kernel says status {n} entered at {t_n} must have been left by {k}")
    if n == values.last:  # delivered: the ratio of pickup survivals
        p = f.survival(k + j - t_n) / denom
    else:
        first = max(k + 1, t_n + 1)  # earliest slot of the window the transition can reach
        row = f.probs[first - t_n : k + j + 1 - t_n]
        p = float(row @ values[n + 1][first - k - 1 : first - k - 1 + len(row)]) / denom
    # tail sums and backward sums round, and the ratio can leave [0, 1] by a few ulps
    return min(1.0, max(0.0, p))


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
    values = _Values(pmf_at, n_statuses, range(t_n, t_delivery + 1), lambda f, t: float(t == t_delivery))
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
    coverage: float | None = None,
) -> LoadPmf:
    """Pmf of the number of not-yet-ordered parcels stored at k+j.

    For each future slot k+i, i in [1, j-1], and each carrier, the number
    of orders is Poisson with the fitted intensity, each contributing
    independently with a probability p mixed over the retailer selection
    model.  Thinned and superposed, the contributing orders are exactly
    Poisson with rate sum(lam p).  A float ``coverage`` instead applies the
    paper's truncation: each (slot, carrier) count is cut at the smallest m
    whose Poisson CDF reaches ``coverage``, renormalized, and the pairs are
    convolved.
    """
    return _future_orders_pmf(intensity, selection, _Tables(kernel, pup, k, j), entry_status, coverage)


def _future_orders_pmf(
    intensity: OrderIntensity, selection: SelectionModel, tables: _Tables, entry_status: int, coverage: float | None
) -> LoadPmf:
    k, j = tables.k, tables.j
    # Poisson rate and contribution probability of one order per carrier and entry slot k+1..k+j-1
    lam, p = [], []
    for carrier in intensity.carriers:
        weights = selection.p_retailer_given_carrier(carrier) or {None: 1.0}
        lam.append([intensity.lambda_at(tables.kernel.timebase, k + i, carrier) for i in range(1, j)])
        p.append(sum(w * tables[carrier, r][entry_status][: j - 1] for r, w in weights.items()))
    lam, p = np.array(lam, dtype=float).T.ravel(), np.array(p, dtype=float).T.ravel()  # slot by slot
    if coverage is None:
        total = float(lam @ p)
        # the tail is below float noise long before 12 standard deviations and 40 counts past the mean
        probs = poisson_pmf(total, np.arange(int(total + 12.0 * np.sqrt(total)) + 40))
        probs = probs[: np.flatnonzero(probs >= _NOISE)[-1] + 1]
        return LoadPmf(probs / probs.sum())
    live = lam > 0.0
    lam, p = lam[live, None], p[live, None]
    top = np.array([poisson_truncation(rate, coverage) for rate in lam[:, 0]], dtype=int)
    x = np.arange(top.max(initial=0) + 1)
    # sum_{m <= top} Pois(m; lam) Binom(x; m, p) = Pois(x; lam p) P(Pois(lam (1 - p)) <= top - x)
    kept = np.cumsum(poisson_pmf(lam * (1.0 - p), x), axis=1)
    q = poisson_pmf(lam * p, x) * np.take_along_axis(kept, np.maximum(top[:, None] - x, 0), axis=1)
    q[x > top[:, None]] = 0.0
    q /= q.sum(axis=1, keepdims=True)
    result = np.array([1.0])
    for row, cut in zip(q, top):
        result = np.convolve(result, row[: cut + 1])
    return LoadPmf(result).trimmed()


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
    coverage: float | None = None,
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
    picked_up = kernel.n_statuses
    for rec in parcels:
        if rec.entry_times.get(picked_up, k + 1) <= k:
            continue  # picked up by k
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
