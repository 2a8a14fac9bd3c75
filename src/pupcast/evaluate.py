"""Rolling-origin evaluation of load forecasters against a simulated trace.

Forecasts are anchored at midnight of each evaluation day; the default
horizons (13, 37, 61, 85 slots) land at 13:00 of the anchor day and the
three following days.  All methods are scored on the identical set of
(anchor, horizon) pairs; MAPE excludes timestamps where the true load is
zero and reports the exclusion count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .baselines import baseline_holt_winters, baseline_seasonal_naive
from .engine import predict_load_pmfs
from .errors import InsufficientHistory, ValidationError
from .oracle import SimulatedTrace

__all__ = ["EvalReport", "EvalRow", "rolling_origin_evaluate", "DEFAULT_HORIZONS", "METHODS"]

DEFAULT_HORIZONS = (13, 37, 61, 85)
EVAL_HOUR = 13
BASELINES = {"seasonal-naive": baseline_seasonal_naive, "holt-winters": baseline_holt_winters}
METHODS = ("lifecycle", *BASELINES)


@dataclass(frozen=True)
class EvalRow:
    method: str
    j: int
    mae: float
    mape: float
    n: int
    n_mape_excluded: int


@dataclass
class EvalReport:
    rows: list[EvalRow]

    def row(self, method: str, j: int) -> EvalRow:
        for r in self.rows:
            if r.method == method and r.j == j:
                return r
        raise KeyError((method, j))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "j", "mae", "mape", "n", "n_mape_excluded"])
            for r in sorted(self.rows, key=lambda r: (r.method, r.j)):
                writer.writerow(
                    [r.method, r.j, f"{r.mae:.6f}", f"{r.mape:.6f}", r.n, r.n_mape_excluded]
                )


def _scores(method: str, j: int, preds: list[float], truths: list[int]) -> EvalRow:
    preds_arr = np.asarray(preds)
    truths_arr = np.asarray(truths, dtype=float)
    err = np.abs(preds_arr - truths_arr)
    positive = truths_arr > 0
    mape = float((err[positive] / truths_arr[positive]).mean() * 100) if positive.any() else 0.0
    return EvalRow(
        method=method,
        j=j,
        mae=float(err.mean()),
        mape=mape,
        n=len(preds),
        n_mape_excluded=int((~positive).sum()),
    )


def rolling_origin_evaluate(
    trace: SimulatedTrace,
    kernel,
    intensity,
    selection,
    anchors: list[int],
    horizons: tuple[int, ...] = DEFAULT_HORIZONS,
    methods: tuple[str, ...] = METHODS,
) -> EvalReport:
    """Score the requested methods on identical (anchor, horizon) pairs.

    ``methods`` are names from ``METHODS``: "lifecycle", and the baselines
    of ``BASELINES``.  Anchors are slot indexes at midnight, and each
    anchor plus horizon must land at 13:00 within the trace.  The lifecycle
    method forecasts with the supplied (fitted or ground-truth) models
    using only evidence up to each anchor; the baselines see the daily load
    series up to the day before the anchor.  An unknown method, no anchors or
    an anchor before slot 0 raises ValidationError before any forecast runs.
    """
    for m in methods:
        if m not in METHODS:
            raise ValidationError(f"unknown method {m!r}; accepted: {', '.join(METHODS)}")
    if not anchors:
        raise ValidationError("no anchors to evaluate")
    tb = trace.config.timebase
    first = (EVAL_HOUR - tb.hour_of(0)) // tb.slot_hours % tb.slots_per_day  # on slot 0's day or the next
    daily = trace.load[first :: tb.slots_per_day].astype(float)  # the true load at EVAL_HOUR of each day
    for k in anchors:
        if k < 0:
            raise ValidationError(f"anchor {k} is before slot 0")
        if tb.hour_of(k) != 0:
            raise ValidationError(f"anchor {k} is not at midnight")
        for j in horizons:
            if tb.hour_of(k + j) != EVAL_HOUR:
                raise ValidationError(f"anchor {k} + horizon {j} does not land at 13:00")
            if k + j >= len(trace.load):
                raise InsufficientHistory(f"anchor {k} + horizon {j} beyond the trace")

    preds: dict[tuple[str, int], list[float]] = {(m, j): [] for m in methods for j in horizons}
    truths: dict[int, list[int]] = {j: [] for j in horizons}

    for k in anchors:
        for j in horizons:
            truths[j].append(int(trace.load[k + j]))
        if "lifecycle" in methods:
            log = trace.event_log(cutoff=k)
            parcels = log.for_pup(trace.config.pup)
            # intensity may be a factory (anchor -> OrderIntensity) so that
            # fitted volume models can be re-anchored without look-ahead
            inten = intensity(k) if callable(intensity) else intensity
            results = predict_load_pmfs(parcels, kernel, inten, selection, k, horizons, trace.config.entry_status)
            for j, result in zip(horizons, results):
                preds[("lifecycle", j)].append(result.mean)
        history = daily[: tb.day_of(k) - tb.day_of(first)]  # 13:00 of the anchor day is still in the future
        ahead = [tb.day_of(k + j) - tb.day_of(k) for j in horizons]  # days from the anchor's to k + j's
        for name, baseline in BASELINES.items():
            if name in methods:
                forecast = baseline(history, steps=max(ahead) + 1)
                for j, h in zip(horizons, ahead):
                    preds[(name, j)].append(float(forecast[h]))

    rows = [_scores(m, j, preds[(m, j)], truths[j]) for m in methods for j in horizons]
    return EvalReport(rows)
