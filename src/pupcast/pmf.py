"""Discrete distributions: holding-time pmfs and load pmfs.

Holding-time pmfs are dense vectors over delays delta in {0..support_max}
slots, with probs[0] = 0 (consecutive transitions are at least one slot
apart).  Load pmfs are dense vectors over parcel counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidQuantile, ValidationError

__all__ = [
    "HoldingTimePmf",
    "LoadPmf",
    "convolve",
    "tv_distance",
    "point_forecast",
]

PMF_SUM_TOL = 1e-9
LOAD_SUM_TOL = 1e-6


@dataclass(frozen=True)
class HoldingTimePmf:
    """Conditional pmf of a holding time, dense over {0..support_max} slots."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or len(probs) < 2:
            raise ValidationError("holding-time pmf needs a 1-D support of size >= 2")
        if probs[0] != 0.0:
            raise ValidationError("holding-time pmf must have zero mass at delta=0")
        if np.any(probs < 0):
            raise ValidationError("holding-time pmf has negative entries")
        total = probs.sum()
        if abs(total - 1.0) > PMF_SUM_TOL:
            raise ValidationError(f"holding-time pmf sums to {total!r}, not 1")

    @property
    def support_max(self) -> int:
        return len(self.probs) - 1

    def cdf(self, delta: int) -> float:
        """P(H <= delta).  Negative delta gives 0; beyond support gives 1."""
        if delta < 0:
            return 0.0
        hi = min(delta, self.support_max)
        return float(self.probs[: hi + 1].sum())

    def survival(self, delta: int) -> float:
        """P(H > delta).  Tail sum, so deep tails keep full precision."""
        if delta < 0:
            return 1.0
        return float(self.probs[delta + 1 :].sum())

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "HoldingTimePmf":
        counts = np.asarray(counts, dtype=float)
        total = counts.sum()
        if total <= 0:
            raise ValidationError("cannot build a pmf from all-zero counts")
        return cls(counts / total)

    @classmethod
    def point_mass(cls, delta: int, support_max: int | None = None) -> "HoldingTimePmf":
        if delta < 1:
            raise ValidationError("holding times are at least one slot")
        probs = np.zeros((support_max or delta) + 1)
        probs[delta] = 1.0
        return cls(probs)

    @classmethod
    def uniform(cls, lo: int, hi: int) -> "HoldingTimePmf":
        if lo < 1 or hi < lo:
            raise ValidationError("need 1 <= lo <= hi")
        probs = np.zeros(hi + 1)
        probs[lo : hi + 1] = 1.0 / (hi - lo + 1)
        return cls(probs)


@dataclass(frozen=True)
class LoadPmf:
    """Distribution of a parcel count (the PUP load)."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or len(probs) == 0:
            raise ValidationError("load pmf needs a non-empty 1-D support")
        if np.any(probs < 0):
            raise ValidationError("load pmf has negative entries")
        total = probs.sum()
        if abs(total - 1.0) > LOAD_SUM_TOL:
            raise ValidationError(f"load pmf sums to {total!r}, not 1")

    @classmethod
    def point_mass(cls, count: int = 0) -> "LoadPmf":
        probs = np.zeros(count + 1)
        probs[count] = 1.0
        return cls(probs)

    def mean(self) -> float:
        return float(np.arange(len(self.probs)) @ self.probs)

    def quantile(self, q: float) -> int:
        """Inverse CDF: smallest count with CDF >= q."""
        if not 0.0 < q < 1.0:
            raise InvalidQuantile(f"quantile level must be in (0, 1), got {q}")
        cdf = np.cumsum(self.probs)
        return int(np.searchsorted(cdf, q - 1e-12))

    def trimmed(self, eps: float = 1e-12) -> "LoadPmf":
        """Drop trailing mass below eps and renormalize."""
        probs = self.probs
        hi = len(probs)
        while hi > 1 and probs[hi - 1] < eps:
            hi -= 1
        trimmed = probs[:hi]
        return LoadPmf(trimmed / trimmed.sum())


def convolve(a: LoadPmf, b: LoadPmf) -> LoadPmf:
    """Distribution of the sum of two independent counts."""
    return LoadPmf(np.convolve(a.probs, b.probs))


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two pmfs (supports padded with 0)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = max(len(p), len(q))
    p = np.pad(p, (0, n - len(p)))
    q = np.pad(q, (0, n - len(q)))
    return 0.5 * float(np.abs(p - q).sum())


def point_forecast(pmf: LoadPmf, mode: str = "mean", q: float | None = None) -> float:
    """Reduce a load pmf to a point value: mean, median or a quantile."""
    if mode == "mean":
        return pmf.mean()
    if mode == "median":
        return float(pmf.quantile(0.5))
    if mode == "quantile":
        if q is None:
            raise InvalidQuantile("quantile mode requires a level q")
        return float(pmf.quantile(q))
    raise ValidationError(f"unknown point forecast mode {mode!r}")
