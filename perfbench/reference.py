"""Reference load moments computed apart from the engine.

The checks of the benchmark compare the engine's output with the numbers
computed here.  They use only the model's public inputs: ``kernel.pmf_at``,
``intensity.lambda_at``, ``selection.p_retailer_given_carrier`` and each
record's entry times.  No engine function, table or helper is called.

Contribution probabilities come from one backward value function per
routing tuple (carrier, retailer, pup) and forecast window (k, j]:

    V_{N-1}(t) = P(pickup delay from t exceeds k+j-t)
    V_m(t)     = sum_d f_{m,t}(d) V_{m+1}(t+d),   t in (k, k+j]

so that V_m(t) is the probability of being delivered in (k, k+j] and still
stored at k+j, given entry into status m at slot t > k.  A parcel in
transit is a dot product of its conditioned holding-time row with
V_{n+1}; a future order entering status e at t_0 contributes V_e(t_0).

Future orders per slot and carrier are Poisson(lambda), each contributing
independently with probability p.  The exact contributing count is then
Poisson(sum lambda p).  The paper instead truncates each Poisson mixture
at the smallest count whose CDF reaches a coverage level and
renormalises; ``load_band`` returns the mean and variance of both, so a
check can accept anything between the paper's answer and the exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Window", "FutureTerm", "LoadBand", "future_order_terms", "load_band", "truncated_poisson_moments",
]

# Relative tolerance of the band's edges: floating-point level, far below
# the 0.99-coverage gap of up to 1.6 % that the band itself spans.
BAND_RTOL = 1e-8


def _survival_table(probs: np.ndarray) -> np.ndarray:
    """``table[d] = P(H > d)`` for d in 0..len(probs)-1, as tail sums."""
    tail = np.cumsum(probs[::-1])[::-1]  # tail[d] = P(H >= d)
    return np.append(tail[1:], 0.0)


class Window:
    """Value functions of one routing tuple over the window (k, k+j]."""

    def __init__(self, kernel, k: int, j: int, carrier=None, retailer=None, pup=None):
        self.kernel = kernel
        self.k = k
        self.j = j
        self.route = dict(carrier=carrier, retailer=retailer, pup=pup)
        self.n_statuses = kernel.n_statuses
        self._values: dict[int, np.ndarray] = {}
        self._tails: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _pmf(self, n: int, t: int) -> tuple[np.ndarray, np.ndarray]:
        """(probs, survival table) of status n entered at t; tables cached per pmf object."""
        pmf = self.kernel.pmf_at(n, t, **self.route)
        hit = self._tails.get(id(pmf))
        if hit is None or hit[0] is not pmf.probs:
            hit = (pmf.probs, _survival_table(pmf.probs))
            self._tails[id(pmf)] = hit
        return hit

    def _survival(self, n: int, t: int, delta: int) -> float:
        if delta < 0:
            return 1.0
        _, surv = self._pmf(n, t)
        return float(surv[delta]) if delta < len(surv) else 0.0

    def values(self, m: int) -> np.ndarray:
        """V_m over slots k+1..k+j (index t-k-1)."""
        got = self._values.get(m)
        if got is not None:
            return got
        k, j, last = self.k, self.j, self.n_statuses - 1
        if m == last:
            v = np.array([self._survival(last, t, k + j - t) for t in range(k + 1, k + j + 1)])
        else:
            nxt = self.values(m + 1)
            v = np.zeros(j)
            for i in range(j - 1):  # an entry at k+j cannot be delivered by k+j
                probs, _ = self._pmf(m, k + 1 + i)
                width = min(len(probs) - 1, j - 1 - i)
                v[i] = float(probs[1 : width + 1] @ nxt[i + 1 : i + 1 + width])
        self._values[m] = v
        return v

    def known(self, n: int, t_n: int) -> float:
        """Contribution probability of a parcel in status n since t_n <= k."""
        k, j = self.k, self.j
        denom = self._survival(n, t_n, k - t_n)
        if denom <= 0.0:
            raise ValueError(f"evidence impossible under the kernel: status {n} since {t_n}, k={k}")
        if n == self.n_statuses - 1:
            return self._survival(n, t_n, k + j - t_n) / denom
        if j < 1:
            return 0.0
        probs, _ = self._pmf(n, t_n)
        lo = max(k + 1, t_n + 1)
        hi = min(k + j, t_n + len(probs) - 1)
        if hi < lo:
            return 0.0
        nxt = self.values(n + 1)
        row = probs[lo - t_n : hi - t_n + 1]
        return float(row @ nxt[lo - k - 1 : hi - k]) / denom

    def future(self, entry: int, t_0: int) -> float:
        """Contribution probability of an order entering status ``entry`` at k < t_0 <= k+j."""
        return float(self.values(entry)[t_0 - self.k - 1])


@dataclass(frozen=True)
class FutureTerm:
    """Orders of one carrier at one slot: Poisson(lam), each contributing with p."""

    lam: float
    p: float


def future_order_terms(
    kernel, intensity, selection, pup, k: int, j: int, entry: int, windows: dict | None = None
) -> list[FutureTerm]:
    """One term per future slot k+1..k+j-1 and carrier with positive intensity.

    ``windows`` maps (carrier, retailer, pup) to the ``Window`` of (k, j] and
    is filled as needed, so callers can share value functions.
    """
    windows = {} if windows is None else windows
    terms = []
    for t_0 in range(k + 1, k + j):
        for carrier in intensity.carriers:
            lam = intensity.lambda_at(kernel.timebase, t_0, carrier)
            if lam <= 0.0:
                continue
            weights = selection.p_retailer_given_carrier(carrier) or {None: 1.0}
            p = 0.0
            for retailer, w in weights.items():
                key = (carrier, retailer, pup)
                if key not in windows:
                    windows[key] = Window(kernel, k, j, *key)
                p += w * windows[key].future(entry, t_0)
            terms.append(FutureTerm(lam, p))
    return terms


def truncated_poisson_moments(lam: float, coverage: float) -> tuple[float, float]:
    """Mean and variance of Poisson(lam) cut at the smallest count whose CDF
    reaches ``coverage``, renormalised."""
    term = math.exp(-lam)
    pmf = [term]
    cdf = term
    m = 0
    while cdf < coverage:
        m += 1
        term *= lam / m
        pmf.append(term)
        cdf += term
    q = np.array(pmf) / cdf
    n = np.arange(m + 1)
    mean = float(n @ q)
    return mean, float((n - mean) ** 2 @ q)


@dataclass(frozen=True)
class LoadBand:
    """Exact and truncated-mixture moments of the load at k+j."""

    exact_mean: float
    exact_var: float
    trunc_mean: float
    trunc_var: float

    def contains(self, mean: float, var: float) -> bool:
        lo_m, hi_m = sorted((self.exact_mean, self.trunc_mean))
        lo_v, hi_v = sorted((self.exact_var, self.trunc_var))
        tol_m = BAND_RTOL * max(1.0, hi_m)
        tol_v = BAND_RTOL * max(1.0, hi_v)
        return lo_m - tol_m <= mean <= hi_m + tol_m and lo_v - tol_v <= var <= hi_v + tol_v


def load_band(parcels, kernel, intensity, selection, pup, k: int, j: int, entry: int, coverage: float) -> LoadBand:
    """Reference moments of the load at k+j given the parcels seen at k."""
    n_statuses = kernel.n_statuses
    windows: dict = {}
    known = []
    for rec in parcels:
        seen = [n for n, t in rec.entry_times.items() if t <= k]
        if not seen or max(seen) >= n_statuses:
            continue
        n = max(seen)
        key = (rec.carrier, rec.retailer, rec.pup)
        if key not in windows:
            windows[key] = Window(kernel, k, j, *key)
        known.append(windows[key].known(n, rec.entry_times[n]))
    known = np.array(known)
    base_mean = float(known.sum())
    base_var = float((known * (1.0 - known)).sum())
    rate = trunc_mean = trunc_var = 0.0
    for term in future_order_terms(kernel, intensity, selection, pup, k, j, entry, windows):
        mu, sigma2 = truncated_poisson_moments(term.lam, coverage)
        rate += term.lam * term.p
        trunc_mean += term.p * mu
        trunc_var += term.p * (1.0 - term.p) * mu + term.p**2 * sigma2
    return LoadBand(
        exact_mean=base_mean + rate,
        exact_var=base_var + rate,
        trunc_mean=base_mean + trunc_mean,
        trunc_var=base_var + trunc_var,
    )
