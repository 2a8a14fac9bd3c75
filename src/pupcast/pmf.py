"""Discrete distributions: holding-time pmfs and load pmfs.

Holding-time pmfs are dense vectors over delays delta in {0..support_max}
slots, with probs[0] = 0 (consecutive transitions are at least one slot
apart).  Load pmfs are dense vectors over parcel counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidQuantile, ValidationError

__all__ = [
    "HoldingTimePmf",
    "LoadPmf",
    "convolve",
    "tail_sums",
    "trim",
    "tv_distance",
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
        if not abs(total - 1.0) <= PMF_SUM_TOL:  # NaN fails this too
            raise ValidationError(f"holding-time pmf sums to {total!r}, not 1")

    @property
    def support_max(self) -> int:
        return len(self.probs) - 1

    def survival(self, delta: int) -> float:
        """P(H > delta): ``tails[delta + 1]``, 1 for delta < 0 and 0 from support_max on."""
        return float(self.tails[min(max(delta + 1, 0), len(self.probs))])

    @cached_property
    def tails(self) -> np.ndarray:
        """``tails[d]`` is P(H >= d) for d in 0..support_max + 1 (see ``tail_sums``)."""
        return tail_sums(self.probs)

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
        if (probs < 0).any():
            raise ValidationError("load pmf has negative entries")
        total = probs.sum()
        if not abs(total - 1.0) <= LOAD_SUM_TOL:  # NaN fails this too
            raise ValidationError(f"load pmf sums to {total!r}, not 1")

    @classmethod
    def point_mass(cls, count: int = 0) -> "LoadPmf":
        probs = np.zeros(count + 1)
        probs[count] = 1.0
        return cls(probs)

    def mean(self) -> float:
        return float(np.arange(len(self.probs)) @ self.probs)

    def quantile(self, q: float) -> int:
        """Inverse CDF: smallest count with CDF >= q, else (a CDF short of 1) the last."""
        if not 0.0 < q < 1.0:
            raise InvalidQuantile(f"quantile level must be in (0, 1), got {q}")
        cdf = np.cumsum(self.probs)
        return min(int(np.searchsorted(cdf, q - 1e-12)), len(cdf) - 1)

    def trimmed(self, eps: float = 1e-12) -> "LoadPmf":
        """Drop trailing mass below eps and renormalize (``trim``)."""
        return LoadPmf(trim(self.probs, eps))


def trim(probs: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """``probs`` without its trailing entries below eps, the first always kept, renormalized."""
    kept = (probs[1:] >= eps).nonzero()[0]
    trimmed = probs[: kept[-1] + 2 if kept.size else 1]
    return trimmed / trimmed.sum()


def tail_sums(probs: np.ndarray) -> np.ndarray:
    """``tails[..., d]`` is ``probs[..., d:].sum()`` for d in 0..n along the last
    axis (of length n), with exactly 1 at d = 0 and 0 at d = n.  One reverse
    cumulative sum from the deepest delay in ``np.longdouble`` (a float64 one
    drifts by ulps over a long support), capped at 1, so tails never rise and
    deep ones keep full precision; padding zeros leave the tails bit for bit."""
    tails = np.empty((*probs.shape[:-1], probs.shape[-1] + 1))
    tails[..., 0], tails[..., -1] = 1.0, 0.0
    deep_first = probs[..., :0:-1].astype(np.longdouble)
    tails[..., -2:0:-1] = np.cumsum(deep_first, axis=-1, out=deep_first)
    return np.minimum(tails, 1.0, out=tails)


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

