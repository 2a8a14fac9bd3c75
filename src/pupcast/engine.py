"""Per-parcel contribution probabilities and the load prediction algorithm.

Each parcel's contribution to the load at slot k+j is a Bernoulli variable
whose parameter is one function of the parcel's latest known status and
the slot it entered it, ``contribution_prob`` for a single parcel:

* already delivered: ratio of pickup survival probabilities;
* in transit (any earlier status): probability of being delivered within
  (k, k+j] and not picked up by k+j, conditioned on the transition out of
  the current status not having happened by k;
* not yet ordered: the same joint event for a virtual parcel entering the
  chain at a future slot, mixed over retailers.  Orders are Poisson per
  slot and carrier, so by thinning and superposition the contributing ones
  are exactly Poisson with rate sum(lam p); a float ``coverage`` keeps the
  paper's per-pair truncation instead, in closed form, its cut points
  from one ``poisson_truncation`` call on the pairs' rates.

The last two read from one backward value function
V_m(t) = sum_d f_{m,t}(d) V_{m+1}(t+d) over the slots of a window, from the
terminal V_{N-1}, the pickup survival to k+j; a path that leaves the window
scores 0.  A parcel in status n is a dot product of its holding-time row
with V_{n+1}; an order entering status e at t_0 adds V_e(t_0).

A forecast is one array pass over its routes (the known parcels' and the
future orders' (carrier, retailer) pairs), its known parcels (one
``EventLog.latest`` scan) and all its horizons.  ``kernel.week_rows`` stacks
a status's compiled rows over the routes (rows of a ``PmfTable``: a kernel's
pmfs, compiled once as zero-padded probabilities and tail sums), and one
``take`` cuts them to the window (k, k + max j].  V_m is an array (routes, horizons, slots) whose
column h has the terminal of k+j_h and is zero past it, so one einsum with
a strided view of V_{m+1} serves every route and horizon, and every
fitted status.  V depends on k only through k mod one week, and so does
the order plan but for k's day volumes: q = mix V_entry over the window's
slots, and ``OrderIntensity.at_phase``'s profile rows and day offsets of
them.  A window is built once, on a miss, from every model it reads; the
kernel keeps it (its last ``_WINDOWS``, in ``_compiled``) per (PUP, known
routes, intensity, selection, entry status, weekly phase, horizons), whoever
asks, the two models by id, which the window holds.  A repeat runs no
backward pass and only takes ``OrderIntensity.on_day``; only repeated
forecasts on one kernel and one model set gain.  The parcels in a
status are one gather of their rows and tails and one product with
V_{n+1}.  Every status from the first fitted one up resolves on every
route at every slot (the kernel checks this when it is built), so the
backward pass stops at the first status never fitted, and only a parcel
in such a status is skipped, with a note.  Those with impossible evidence
take one more product, with the coarsest pooled pmf, a row of the same
table, and a note; each note is made once per parcel and shown at the
horizons where it applies.  ``contribution_prob`` reads the same window
for one parcel or order on a kernel bound by ``bind_kernel``, with the
arguments of ``oracle.enumerate_contribution_prob``.  The load pmf is the
product of the parcels' Bernoulli pmfs, multiplied in pairs, convolved with
the future-order pmf (exactly, one ``poisson_rows`` row per horizon), cut by
``pmf.trim`` and validated once, as the result's ``LoadPmf``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .arrivals import OrderIntensity, poisson_rows, poisson_truncation
from .errors import ImpossibleEvidence, ValidationError
from .estimation import SelectionModel
from .kernel import PmfTable, TransitionKernel
from .pmf import HoldingTimePmf, LoadPmf, trim
from .records import NEVER, EventLog, ParcelRecord

__all__ = [
    "bind_kernel",
    "contribution_prob",
    "future_orders_pmf",
    "predict_load_pmf",
    "predict_load_pmfs",
    "ForecastResult",
]

_EPS = 1e-15
_NOISE = 1e-17  # the exact future-order pmf ends where its entries reach float noise
_WINDOWS = 128  # value-function windows a kernel keeps, the oldest dropped first


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


class _Window:
    """Backward value functions over the window (k, k + max j] on every route
    and horizon: ``values[m][r, h, i]`` is V_m(k+1+i) on ``routes[r]`` for
    the horizon ``js[h]``, P(delivered in (k, k+j_h], still stored at k+j_h
    | status m entered at k+1+i), and 0 for i >= j_h; for every fitted
    status m.  With an intensity, ``plan`` is the order side that depends on
    k only through the same phase: (q, rho, days, columns), where q[h, i, c]
    is the probability that an order of carrier c entering ``entry_status``
    at k+1+i is stored at k+j_h, mixed over the selection's retailers, and
    the rest is ``intensity.at_phase`` of those slots.  Built once, from every
    model it reads, and read-only: ``_window`` keeps it.
    """

    def __init__(self, kernel, pup: str, routes, k: int, js, intensity=None, selection=None, entry_status=None):
        self.intensity, self.selection = intensity, selection  # held, so that their ids stay theirs while kept
        self.last, self.js, self.plan = kernel.n_statuses - 1, np.array(js, dtype=np.int64), None
        self.js.flags.writeable = False
        if intensity is not None:
            routes, mix = _order_mix(intensity.carriers, selection, routes)
        self.routes = routes = tuple(routes)
        width = int(self.js.max(initial=0))
        ahead = self.js[:, None] - np.arange(width)  # slots left to k+j_h
        self.values = {}
        for m in range(self.last, -1, -1):
            if m not in kernel.statuses:  # never fitted, and neither is any status below it
                break
            weeks, table = kernel.week_rows(m, routes, pup)
            # up to k+j_h, or up to the slot before where an entry must still move on
            rows = weeks.take(np.arange(k + 1, k + width + (m == self.last)), axis=1, mode="wrap")
            if m == self.last:  # the pickup survival to k+j_h; past it, the zero tail past every support
                v = table.tails[rows[:, None, :], np.where(ahead > 0, np.minimum(ahead, table.width), table.width)]
            else:
                v = _step(table.probs, rows, v)
            v.flags.writeable = False
            self.values[m] = v
        if intensity is not None:
            q = np.einsum("cr,rhi->hic", mix, self.entering(entry_status, kernel)[:, :, : width - 1])
            if entry_status == self.last:  # an order at k+j_h is not stored by k+j_h; below the last status V is 0 there
                q[np.arange(width - 1) >= self.js[:, None] - 1] = 0.0
            columns = np.arange(len(intensity.carriers))
            self.plan = (q, *intensity.at_phase(kernel.timebase, k, np.arange(k + 1, k + width), columns), columns)
            for kept in self.plan:
                kept.flags.writeable = False

    def entering(self, m: int, kernel) -> np.ndarray:
        """V_m; a status never fitted raises the kernel's MissingKernel."""
        if not 0 <= m <= self.last:
            raise ValidationError(f"status {m} outside 0..{self.last}")
        if m not in self.values:
            kernel.pooled_pmf_at(m)  # raises MissingKernel
        return self.values[m]


def _window(kernel, pup: str, routes, k: int, horizons, intensity=None, selection=None, entry_status=None):
    """The window of these known routes, models, weekly phase and horizons, from the kernel's last
    ``_WINDOWS``, whoever asked; a miss builds and keeps it, dropping the oldest.  The intensity and
    the selection are keyed by id, which the window holds; without an intensity, the selection and
    the entry status are neither read nor keyed."""
    js = tuple(map(_horizon, horizons))
    if intensity is None:
        selection = entry_status = None
    windows = kernel._compiled.setdefault("windows", {})
    key = (pup, tuple(routes), id(intensity), id(selection), entry_status, k % kernel.timebase.slots_per_week, js)
    window = windows.get(key)
    if window is None:
        window = _Window(kernel, pup, routes, k, js, intensity, selection, entry_status)
        if len(windows) >= _WINDOWS:
            del windows[next(iter(windows))]  # the oldest
        windows[key] = window
    return window


def _horizon(j) -> int:
    """j as a count of slots: an integer (numpy's too) >= 0."""
    try:
        j = operator.index(j)
    except TypeError:
        raise ValidationError(f"horizon {j!r} is not an integer") from None
    if j < 0:
        raise ValidationError(f"horizon {j} is negative")
    return j


def _step(probs: np.ndarray, rows: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """V_m(t_i) = sum_{d >= 1} f_{r,i}(d) V_{m+1}(t_i + d) on each route r and
    horizon, for the pmf rows f_{r,i} of all but the last slot, cut to the
    delays 1..width that stay in the window: one einsum with a strided view."""
    v = np.zeros_like(nxt)
    width = nxt.shape[-1] - 1
    if width < 1:
        return v
    cut = probs[:, 1 : width + 1][rows]
    if cut.shape[-1] < width:
        cut = np.pad(cut, ((0, 0), (0, 0), (0, width - cut.shape[-1])))
    ahead = np.concatenate([nxt[..., 1:], np.zeros(nxt.shape[:-1] + (width,))], axis=-1)
    # [r, h, i, d]: V_{m+1} on route r at slot i + 1 + d, zero past the window
    ahead = np.ndarray(ahead.shape[:-1] + (width, width), buffer=ahead, strides=ahead.strides + ahead.strides[-1:])
    v[..., :width] = np.einsum("rid,rhid->rhi", cut, ahead)
    return v


def _contributions(window: _Window, k: int, n: int, rows: np.ndarray, table: PmfTable, t_n: np.ndarray, route):
    """(p, denom) for parcels in status n since t_n <= k whose status-n pmfs
    are ``rows`` of table: parcel i contributes at horizon h with probability
    p[i, h], its joint probability over denom[i] = P(H > k - t_n); where
    denom[i] <= _EPS its evidence is impossible."""
    since = k + 1 - t_n  # the delay from entry to the window's first slot
    denom = table.tails[rows, np.minimum(since, table.width)]  # tails[r, d] = P(H > d - 1)
    if n == window.last:  # delivered: the ratio of pickup survivals
        num = table.tails[rows[:, None], np.minimum(since[:, None] + window.js, table.width)]
    else:
        values = window.values[n + 1]
        # the pmf at the delay from entry to each slot of the window, past its support from the zero column
        at = np.minimum(since[:, None] + np.arange(values.shape[-1]), table.width) + (rows * (table.width + 1))[:, None]
        num = np.einsum("iw,ihw->ih", table.probs.take(at), values.take(route, axis=0))
    # tail sums and backward sums round, and the ratio can leave [0, 1] by a few ulps
    p = num / np.maximum(denom, _EPS)[:, None]
    return np.minimum(np.maximum(p, 0.0, out=p), 1.0, out=p), denom


def contribution_prob(route: _Route, n_statuses: int, n: int, t_n: int, k: int, j: int) -> float:
    """``oracle.enumerate_contribution_prob`` in closed form, on a kernel bound by ``bind_kernel``: for t_n <= k,
    a parcel in status n since t_n that has not left n by k (in the last status: not picked up by k); for
    t_n > k, an order entering status n at t_n, with no condition, which contributes 0 past k+j."""
    if n_statuses != route.kernel.n_statuses:
        raise ValidationError(f"n_statuses={n_statuses}, but the kernel has {route.kernel.n_statuses} statuses")
    if not 0 <= n < n_statuses:
        raise ValidationError(f"status {n} outside 0..{n_statuses - 1}")
    window = _window(route.kernel, route.pup, [(route.carrier, route.retailer)], k, (j,))
    if t_n > k:
        values = window.entering(n, route.kernel)
        return 0.0 if t_n > k + j else float(values[0, 0, t_n - k - 1])
    r, table = route.kernel.row_at(n, t_n, route.carrier, route.retailer, route.pup)
    if n < window.last and j == 0:
        return 0.0  # no slot to be delivered in
    p, denom = _contributions(window, k, n, np.array([r]), table, np.array([t_n]), np.zeros(1, dtype=int))
    if denom[0] <= _EPS:
        raise ImpossibleEvidence(f"kernel says status {n} entered at {t_n} must have been left by {k}")
    return float(p[0, 0])


def _order_mix(carriers: tuple, selection: SelectionModel | None, routes) -> tuple[tuple, np.ndarray]:
    """``routes`` and then the routes they lack, and each carrier's retailer mix as weights (carriers x routes) on
    them.  A carrier without retailer weights, or any without ``selection``, orders with retailer None."""
    index = {route: i for i, route in enumerate(routes)}
    mix = []
    for c in carriers:
        weights = (selection and selection.p_retailer_given_carrier(c)) or {None: 1.0}
        mix.append({index.setdefault((c, r), len(index)): w for r, w in weights.items()})
    mix = [[weights.get(r, 0.0) for r in range(len(index))] for weights in mix]
    return tuple(index), np.array(mix).reshape(len(carriers), len(index))


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
    window = _window(kernel, pup, (), k, (j,), intensity, selection, entry_status)
    return LoadPmf(_future_orders_pmfs(window, kernel.timebase, k, coverage)[0])


def _future_orders_pmfs(window: _Window, timebase, k: int, coverage: float | None) -> list[np.ndarray]:
    """``future_orders_pmf``'s probabilities at each horizon of the window, anchored at k; none without an intensity."""
    if window.plan is None:
        return [np.ones(1)] * len(window.js)
    p, rho, days, columns = window.plan
    # Poisson rate of each entry slot k+1..k+width-1 and carrier (C-ordered: the einsum below sums in memory order)
    lam = np.ascontiguousarray(window.intensity.on_day(timebase, k, rho, days, columns))
    if coverage is not None:  # each pair's count is cut at the same point at every horizon
        live = lam.ravel() > 0.0
        rates = lam.ravel()[live]
        top = poisson_truncation(rates, coverage)
        return [_truncated_orders(rates, q.ravel()[live], top) for q in p]
    pmfs = []
    for total in np.einsum("ic,hic->h", lam, p).tolist():
        pmfs.append(trim(poisson_rows(total), _NOISE))  # the row ends below noise, 12 sd and 40 counts past the mean
    return pmfs


def _truncated_orders(lam: np.ndarray, p: np.ndarray, top: np.ndarray) -> np.ndarray:
    """The paper's future-order pmf: per (slot, carrier) pair with rate lam
    and contribution probability p, the count cut at ``top`` and thinned by
    p.  Only the live pairs, lam p > 0, are multiplied: any other is the
    factor 1."""
    live = lam * p > 0.0
    lam, p, top = lam[live], p[live], top[live]
    x = np.arange(top.max(initial=0) + 1)
    # sum_{m <= top} Pois(m; lam) Binom(x; m, p) = Pois(x; lam p) P(Pois(lam (1 - p)) <= top - x)
    kept = np.cumsum(poisson_rows(lam * (1.0 - p), len(x))[:, : len(x)], axis=1)
    q = poisson_rows(lam * p, len(x))[:, : len(x)] * np.take_along_axis(kept, np.maximum(top[:, None] - x, 0), axis=1)
    q[x > top[:, None]] = 0.0
    q /= q.sum(axis=1, keepdims=True)
    result = np.array([1.0])
    for row, cut in zip(q, top):
        result = np.convolve(result, row[: cut + 1])
    return trim(result)


def _bernoulli_sums(p: np.ndarray) -> np.ndarray:
    """Pmf of the number of successes among independent trials i with
    success probabilities p[i, h], one row per column h.  The factors
    (1 - p) + p z are multiplied in pairs, level by level, each product written
    into the next level's rows, at [size - 1, 2 size - 1) of zeros for its size."""
    n, size = len(p), 2
    polys = np.zeros((1 << max(n - 1, 0).bit_length(), p.shape[1], 4))  # padded to a power of two with factors 1
    polys[..., 1], polys[:n, :, 2] = 1.0, p
    polys[:n, :, 1] -= p
    while len(polys) > 1:
        new = 2 * size - 1
        nxt = np.zeros((len(polys) // 2, p.shape[1], 3 * new - 2))
        # [pair, h, s, u]: the second factor's coefficient s + u - (size - 1), zero outside;
        # against the first factor's coefficients reversed, it sums to the product's coefficient s
        pair, h, step = polys.strides
        hankel = np.ndarray(nxt.shape[:2] + (new, size), buffer=polys, offset=pair, strides=(2 * pair, h, step, step))
        np.matmul(hankel, polys[0::2, :, 2 * size - 2 : size - 2 : -1, None], out=nxt[..., new - 1 : 2 * new - 1, None])
        polys, size = nxt, new
    return polys[0, :, size - 1 : size + n]


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


def predict_load_pmfs(
    parcels: EventLog | Sequence[ParcelRecord],
    kernel,
    intensity: OrderIntensity | None,
    selection: SelectionModel | None,
    k: int,
    horizons: Sequence[int],
    entry_status: int = 0,
    coverage: float | None = None,
) -> list[ForecastResult]:
    """Full load pmf at k+j for each j of ``horizons``, in their order, from
    known parcels plus forecast future orders.

    The known parcels are those with an entry at or before k that are not
    yet picked up; each adds a Bernoulli factor, and the future-order pmf
    is convolved in last.  A parcel in a status never fitted is skipped;
    one with impossible evidence takes its status's pooled pmf, or is
    assumed departed where that rules it out too.  Each adds 0 but a rescued
    one, and a note; the notes name parcels in the log's row order.  A parcel
    in transit gets no note at j = 0, where it has no slot to be delivered
    in.  A plain list of records is packed into a log first.
    """
    log = parcels if isinstance(parcels, EventLog) else EventLog(parcels, NEVER, kernel.timebase)
    pup = log.pup_name()
    rows, status, slot = log.latest(k, kernel.n_statuses)  # not picked up by k
    code = log.carrier[rows] * len(log.retailers) + log.retailer[rows]  # each parcel's (carrier, retailer)
    pairs = np.bincount(code).nonzero()[0]
    route = pairs.searchsorted(code)  # each parcel's index into routes
    routes = [(log.carriers[c], log.retailers[r]) for c, r in (divmod(x, len(log.retailers)) for x in pairs.tolist())]
    window = _window(kernel, pup, routes, k, horizons, intensity, selection, entry_status)
    p = np.zeros((len(rows), len(window.js)))
    noted = []  # (index, shown at j = 0, note) of each parcel skipped or rescued
    for n in sorted(set(status.tolist())):
        here = (status == n).nonzero()[0]
        if n not in kernel.statuses:
            noted += [(i, True, f"no kernel for status {n}; skipped") for i in here.tolist()]
            continue
        weeks, table = kernel.week_rows(n, window.routes, pup)
        t_n, on = slot[here], route[here]
        p[here], denom = _contributions(window, k, n, weeks[on, t_n % weeks.shape[1]], table, t_n, on)
        at = here[denom <= _EPS]
        if len(at):  # impossible evidence: retried with the coarsest pooled pmf, a row of the same table
            pooled = np.full(len(at), table.row_of[id(kernel.pooled_pmf_at(n))])
            p[at], denom = _contributions(window, k, n, pooled, table, slot[at], route[at])
            p[at[denom <= _EPS]] = 0.0
            reasons = "impossible evidence, used pooled fallback", "holding time beyond all supports; assumed departed"
            noted += [(i, n == window.last, reasons[d <= _EPS]) for i, d in zip(at.tolist(), denom.tolist())]
    noted = [(shown, f"parcel {log.ids[rows[i]]}: {note}") for i, shown, note in sorted(noted)]  # in row order
    diagnostics = [[note for shown, note in noted if j or shown] for j in window.js.tolist()]
    future = _future_orders_pmfs(window, kernel.timebase, k, coverage)
    results = []
    for j, known, orders, notes in zip(window.js.tolist(), _bernoulli_sums(p), future, diagnostics):
        probs = np.convolve(known, orders)
        results.append(ForecastResult(pup, k, j, LoadPmf(trim(probs / probs.sum())), notes))
    return results


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
    """``predict_load_pmfs`` at the one horizon j."""
    return predict_load_pmfs(parcels, kernel, intensity, selection, k, (j,), entry_status, coverage)[0]
