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

The last two read from one backward value function
V_m(t) = sum_d f_{m,t}(d) V_{m+1}(t+d) over the slots of a window, from the
terminal V_{N-1}, the pickup survival to k+j; a path that leaves the window
scores 0.  A parcel in status n is a dot product of its holding-time row
with V_{n+1}; an order entering status e at t_0 adds V_e(t_0).

Each V_m is one array pass over the window.  ``kernel.rows_at`` gives
each slot's pmf as a row of a ``PmfTable`` (a kernel's pmfs, compiled once
as zero-padded probabilities and tail sums): the terminal gathers tails,
and each row, cut to the window, meets a strided view of V_{m+1} in one
row-wise product.  Routes that resolve to the same rows share each V_m, and
the ``prob_*`` functions read them on a kernel bound by ``bind_kernel``.
The load pmf is the convolution of the per-parcel Bernoulli pmfs with the
future-order pmf (exactly, one ``poisson_rows`` row).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .arrivals import OrderIntensity, poisson_rows, poisson_truncation
from .errors import ImpossibleEvidence, MissingKernel, ValidationError
from .estimation import SelectionModel
from .kernel import PmfTable, TransitionKernel
from .pmf import HoldingTimePmf, LoadPmf
from .records import NEVER, EventLog, ParcelRecord

__all__ = [
    "bind_kernel",
    "prob_still_stored",
    "prob_delivered_and_stored_last_hop",
    "prob_delivered_and_stored_multi_hop",
    "prob_future_order_contributes",
    "future_orders_pmf",
    "predict_load_pmf",
    "ForecastResult",
]

_EPS = 1e-15
_NOISE = 1e-17  # the exact future-order pmf ends where its entries reach float noise


class _Route(NamedTuple):
    """A kernel bound to one parcel's routing attributes: ``route(n, t)`` is ``kernel.pmf_at``."""

    kernel: TransitionKernel
    carrier: str | None
    retailer: str | None
    pup: str | None

    def __call__(self, n: int, t: int) -> HoldingTimePmf:
        return self.kernel.pmf_at(n, t, self.carrier, self.retailer, self.pup)


def bind_kernel(kernel, carrier=None, retailer=None, pup=None) -> _Route:
    """Close a transition kernel over one parcel's routing attributes."""
    return _Route(kernel, carrier, retailer, pup)


class _Values(dict):
    """Backward value functions on one route: ``self[m][i]`` is V_m(k+1+i) =
    P(delivered in (k, k+j], still stored at k+j | status m entered at k+1+i).

    ``rows_at(m, slots)`` gives status m's pmf at each slot as rows of a
    ``PmfTable``, whose tails give V_{N-1}.  Each V_m is computed on first
    use and kept, and also kept in ``shared`` under its rows and V_{m+1}:
    routes that resolve to the same rows compute it once.
    """

    def __init__(self, rows_at: Callable, n_statuses: int, k: int, j: int, shared: dict):
        super().__init__()
        self.rows_at, self.last, self.shared = rows_at, n_statuses - 1, shared
        self.slots, self.end = np.arange(k + 1, k + j + 1), k + j + 1

    def __missing__(self, m: int) -> np.ndarray:
        if not 0 <= m <= self.last:
            raise ValidationError(f"status {m} outside 0..{self.last}")
        nxt = None if m == self.last else self[m + 1]
        slots = self.slots if nxt is None else self.slots[:-1]  # an entry at the last slot cannot move on
        rows, table = self.rows_at(m, slots)
        key = (m, id(nxt), id(table), rows.tobytes())
        entry = self.shared.get(key)
        if entry is None:
            if nxt is None:  # the pickup survival to k+j
                v = table.tails[rows, np.minimum(self.end - slots, table.width)]
            else:
                v = _step(table.probs, rows, nxt)
            # the memo holds nxt and the table, so the ids in its keys are never reused
            entry = self.shared[key] = (v, nxt, table)
        self[m] = entry[0]
        return entry[0]


def _step(probs: np.ndarray, rows: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """V_m(t_i) = sum_{d >= 1} f_i(d) V_{m+1}(t_i + d) for the pmf rows f_i of all but the last slot.

    The rows are cut to the delays 1..width that stay in the window, and
    each meets V_{m+1} from the next slot on in one row-wise product.
    """
    v = np.zeros(len(nxt))
    width = len(nxt) - 1
    if width < 1:
        return v
    cut = probs[rows, 1 : width + 1]
    if cut.shape[1] < width:
        cut = np.pad(cut, ((0, 0), (0, width - cut.shape[1])))
    ahead = np.concatenate([nxt[1:], np.zeros(width)])
    ahead = np.ndarray((width, width), buffer=ahead, strides=ahead.strides * 2)  # row i: nxt[i+1:], zero-padded
    v[:width] = np.einsum("ij,ij->i", cut, ahead)
    return v


class _Tables(dict):
    """The ``_Values`` of each (carrier, retailer) at one pup, built on first
    use; all routes share one memo of V_m."""

    def __init__(self, kernel, pup: str, k: int, j: int):
        super().__init__()
        if j < 0:
            raise ValidationError("horizon j must be >= 0")
        self.kernel, self.pup, self.k, self.j, self.shared = kernel, pup, k, j, {}

    def __missing__(self, route: tuple) -> _Values:
        rows_at = partial(self.kernel.rows_at, carrier=route[0], retailer=route[1], pup=self.pup)
        self[route] = _Values(rows_at, self.kernel.n_statuses, self.k, self.j, self.shared)
        return self[route]


def _known(r: int, table: PmfTable, values: _Values, n: int, t_n: int, k: int, j: int) -> float:
    """Contribution probability of a parcel in status n since t_n whose status-n pmf is row r of table."""
    if n < values.last and j == 0:
        return 0.0  # no slot to be delivered in
    f, tails = table.pmfs[r], table.tails[r]  # tails[d] = P(H > d - 1)
    denom = float(tails[min(k - t_n + 1, table.width)])
    if denom <= _EPS:
        raise ImpossibleEvidence(f"kernel says status {n} entered at {t_n} must have been left by {k}")
    if n == values.last:  # delivered: the ratio of pickup survivals
        p = float(tails[min(k + j - t_n + 1, table.width)]) / denom
    else:
        first = max(k + 1, t_n + 1)  # earliest slot of the window the transition can reach
        row = f.probs[first - t_n : k + j + 1 - t_n]
        p = float(row @ values[n + 1][first - k - 1 : first - k - 1 + len(row)]) / denom
    # tail sums and backward sums round, and the ratio can leave [0, 1] by a few ulps
    return min(1.0, max(0.0, p))


def prob_still_stored(route: _Route, n_statuses: int, t_delivered: int, k: int, j: int) -> float:
    """P(parcel still stored at k+j | delivered at t_delivered, not picked up by k).

    Ratio of the pickup-time survival at k+j to the survival at k.
    """
    return _bound(route, n_statuses, n_statuses - 1, t_delivered, k, j)


def prob_delivered_and_stored_last_hop(route: _Route, n_statuses: int, t_prev: int, k: int, j: int) -> float:
    """Contribution probability for a parcel one transition away from delivery."""
    return prob_delivered_and_stored_multi_hop(route, n_statuses, n_statuses - 2, t_prev, k, j)


def prob_delivered_and_stored_multi_hop(route: _Route, n_statuses: int, n: int, t_n: int, k: int, j: int) -> float:
    """P(delivered in (k, k+j] and not picked up by k+j | status n since t_n, T_{n+1} > k).

    Degenerates to the last-hop case when n = N-2.
    """
    if not 0 <= n <= n_statuses - 2:
        raise ValidationError(f"status {n} is not an in-transit status for N={n_statuses}")
    return _bound(route, n_statuses, n, t_n, k, j)


def _route_values(route: _Route, n_statuses: int, k: int, j: int) -> _Values:
    """The route's value functions on (k, k+j], read from its kernel's compiled tables."""
    if n_statuses != route.kernel.n_statuses:
        raise ValidationError(f"n_statuses={n_statuses}, but the kernel has {route.kernel.n_statuses} statuses")
    return _Tables(route.kernel, route.pup, k, j)[route.carrier, route.retailer]


def _bound(route: _Route, n_statuses: int, n: int, t_n: int, k: int, j: int) -> float:
    """``_known`` for one parcel on a bound kernel."""
    values = _route_values(route, n_statuses, k, j)
    return _known(*route.kernel.row_at(n, t_n, route.carrier, route.retailer, route.pup), values, n, t_n, k, j)


def prob_future_order_contributes(
    route: _Route, n_statuses: int, t_0: int, k: int, j: int, entry_status: int = 0
) -> float:
    """P(delivered in (k, k+j] and not picked up by k+j | enters chain at t_0 > k)."""
    if not k < t_0 <= k + j:
        raise ValidationError("future order time must satisfy k < t_0 <= k+j")
    return float(_route_values(route, n_statuses, k, j)[entry_status][t_0 - k - 1])


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
    lam = intensity.rates(tables.kernel.timebase, np.arange(k + 1, k + j)).ravel()  # slot by slot
    p = []
    for carrier in intensity.carriers:
        weights = selection.p_retailer_given_carrier(carrier) or {None: 1.0}
        p.append(sum(w * tables[carrier, r][entry_status][: j - 1] for r, w in weights.items()))
    p = np.array(p, dtype=float).T.ravel()
    if coverage is None:
        total = float(lam @ p)
        probs = poisson_rows(total)  # it ends below float noise, 12 standard deviations and 40 counts past the mean
        probs = probs[: np.flatnonzero(probs >= _NOISE)[-1] + 1]
        return LoadPmf(probs / probs.sum())
    live = lam > 0.0
    lam, p = lam[live], p[live]
    top = np.array([poisson_truncation(rate, coverage) for rate in lam], dtype=int)
    x = np.arange(top.max(initial=0) + 1)
    # sum_{m <= top} Pois(m; lam) Binom(x; m, p) = Pois(x; lam p) P(Pois(lam (1 - p)) <= top - x)
    kept = np.cumsum(poisson_rows(lam * (1.0 - p), len(x))[:, : len(x)], axis=1)
    q = poisson_rows(lam * p, len(x))[:, : len(x)] * np.take_along_axis(kept, np.maximum(top[:, None] - x, 0), axis=1)
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


def _parcel_contribution(tables: _Tables, carrier, retailer, n: int, t_n: int) -> tuple[float, str | None]:
    """Bernoulli parameter of a known parcel in status n since t_n, and a note for the diagnostics."""
    k, j = tables.k, tables.j
    values = tables[carrier, retailer]
    try:
        r, table = tables.kernel.row_at(n, t_n, carrier, retailer, tables.pup)
        return _known(r, table, values, n, t_n, k, j), None
    except ImpossibleEvidence:
        pass
    except MissingKernel:
        return 0.0, f"no kernel for status {n}; skipped"
    # Evidence contradicts the fitted pmf (holding time beyond its support).
    # Retry with the coarsest pooled pmf, itself a row of status n's table;
    # if that also says the parcel must have left, treat it as departed (the
    # forced-return rule).
    try:
        pooled = table.row_of[id(tables.kernel.pooled_pmf_at(n, t_n))]
    except MissingKernel:
        return 0.0, "impossible evidence, no fallback; dropped"
    try:
        return _known(pooled, table, values, n, t_n, k, j), "impossible evidence, used pooled fallback"
    except ImpossibleEvidence:
        return 0.0, "holding time beyond all supports; assumed departed"


def predict_load_pmf(
    parcels: EventLog | Sequence[ParcelRecord],
    kernel,
    intensity: OrderIntensity | None,
    selection: SelectionModel | None,
    k: int,
    j: int,
    entry_status: int = 0,
    coverage: float | None = None,
) -> ForecastResult:
    """Full load pmf at k+j from known parcels plus forecast future orders.

    The known parcels are those with an entry at or before k that are not
    yet picked up; each adds a Bernoulli factor, in the log's row order, and
    the future-order pmf is convolved in last.  A plain list of records is
    packed into a log first.
    """
    log = parcels if isinstance(parcels, EventLog) else EventLog(parcels, NEVER, kernel.timebase)
    pups = log.pup_names()
    if len(pups) > 1:
        raise ValidationError(f"parcels target multiple pups: {sorted(pups)}")
    pup = pups[0] if pups else ""
    diagnostics: list[str] = []
    tables = _Tables(kernel, pup, k, j)
    rows, status, slot = log.latest(k)
    live = status < kernel.n_statuses  # not picked up by k
    rows = rows[live]
    known: dict[tuple, tuple[float, str | None]] = {}  # (carrier, retailer, n, t_n) -> _parcel_contribution
    probs = np.array([1.0])
    for i, c, r, n, t_n in zip(
        rows.tolist(), log.carrier[rows].tolist(), log.retailer[rows].tolist(),
        status[live].tolist(), slot[live].tolist(),
    ):
        key = (c, r, n, t_n)
        if key not in known:
            known[key] = _parcel_contribution(tables, log.carriers[c], log.retailers[r], n, t_n)
        p, note = known[key]
        if note is not None:
            diagnostics.append(f"parcel {log.ids[i]}: {note}")
        if p > 0.0:
            probs = np.convolve(probs, [1.0 - p, p])
    if intensity is not None:
        if selection is None:
            selection = SelectionModel({None: 1.0}, {None: {c: 1.0 / len(intensity.carriers) for c in intensity.carriers}})
        future = _future_orders_pmf(intensity, selection, tables, entry_status, coverage)
        probs = np.convolve(probs, future.probs)
    pmf = LoadPmf(probs / probs.sum()).trimmed()
    return ForecastResult(pup=pup, k=k, j=j, pmf=pmf, diagnostics=diagnostics)
