"""Reference forecasters for the daily load series.

Both baselines operate on a plain daily series (the load sampled once per
day) and produce point forecasts for the next few days.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientHistory

__all__ = ["baseline_seasonal_naive", "baseline_holt_winters"]


def baseline_seasonal_naive(series: np.ndarray, steps: int, period: int = 7) -> np.ndarray:
    """Forecast each future step with the value one period earlier.

    Steps beyond one period reuse the same last observed cycle.
    """
    series = np.asarray(series, dtype=float)
    n = len(series)
    if n < period:
        raise InsufficientHistory(f"need at least one period ({period}) of history")
    return series[n - period + np.arange(steps) % period]


def baseline_holt_winters(
    series: np.ndarray,
    steps: int,
    alpha: float = 0.3,
    beta: float = 0.05,
    gamma: float = 0.25,
    period: int = 7,
    damping: float = 1.0,
) -> np.ndarray:
    """Fit an additive Holt-Winters model and forecast ``steps`` days ahead.

    Additive triple exponential smoothing with a weekly season.  Level and
    trend are initialized from a least-squares line through the history;
    initial seasonal terms are the per-weekday means of the residuals.
    ``damping`` < 1 damps the trend in multi-step forecasts.
    """
    series = np.asarray(series, dtype=float)
    n, p = len(series), period
    if n < 2 * p:
        raise InsufficientHistory(f"need at least two seasons ({2 * p}) of history")
    t = np.arange(n)
    slope, intercept = np.polyfit(t, series, 1)
    residuals = series - (intercept + slope * t)
    season = np.array([residuals[i::p].mean() for i in range(p)])
    season -= season.mean()
    level, trend = intercept, slope
    for i, y in enumerate(series):
        s = season[i % p]
        prev_level = level
        level = alpha * (y - s) + (1 - alpha) * (level + trend)
        trend = beta * (level - prev_level) + (1 - beta) * trend
        season[i % p] = gamma * (y - level) + (1 - gamma) * s
    damp_sum = np.cumsum([damping**h for h in range(1, steps + 1)])
    return level + damp_sum * trend + season[(n + np.arange(steps)) % p]
