"""Rolling-origin evaluation: alignment, scoring and determinism."""

from datetime import datetime

import numpy as np
import pytest

from pupcast import Timebase, default_scenario, simulate
from pupcast.errors import InsufficientHistory, ValidationError
from pupcast.evaluate import BASELINES as BASELINE_FUNCTIONS
from pupcast.evaluate import EVAL_HOUR, rolling_origin_evaluate
from pupcast import evaluate
from pupcast.oracle import SimulatedTrace
from pupcast.records import NEVER, EventLog


def periodic_trace(n_days=42):
    """Trace with an exactly weekly-periodic load series and no parcels."""
    cfg = default_scenario(horizon_days=n_days, ramp=0.0)
    daily = np.array([20, 18, 18, 19, 17, 12, 6])
    load = np.repeat(np.tile(daily, n_days // 7 + 1)[:n_days], 24)
    return SimulatedTrace(config=cfg, log=EventLog([], NEVER, cfg.timebase), load=load)


BASELINES = ("seasonal-naive", "holt-winters")


def test_seasonal_naive_perfect_on_periodic_load():
    trace = periodic_trace()
    anchors = [d * 24 for d in range(28, 38)]
    report = rolling_origin_evaluate(trace, None, None, None, anchors, methods=BASELINES)
    for j in (13, 37, 61, 85):
        assert report.row("seasonal-naive", j).mae == 0.0


def test_alignment_validated():
    trace = periodic_trace()
    with pytest.raises(ValidationError, match="midnight"):
        rolling_origin_evaluate(trace, None, None, None, [28 * 24 + 1], methods=BASELINES)
    with pytest.raises(ValidationError, match="13:00"):
        rolling_origin_evaluate(
            trace, None, None, None, [28 * 24], horizons=(14,), methods=BASELINES
        )
    with pytest.raises(InsufficientHistory):
        rolling_origin_evaluate(
            trace, None, None, None, [(42 - 1) * 24], horizons=(37,), methods=BASELINES
        )


def test_no_anchors_or_an_unknown_method_rejected_before_any_forecast():
    trace = periodic_trace()
    with pytest.raises(ValidationError, match="no anchors"):
        rolling_origin_evaluate(trace, None, None, None, [], methods=BASELINES)
    # no kernel: the lifecycle forecast would fail if it ran
    with pytest.raises(ValidationError, match="'bogus'.*lifecycle, seasonal-naive, holt-winters"):
        rolling_origin_evaluate(trace, None, None, None, [28 * 24], methods=("lifecycle", "bogus"))


def test_mape_excludes_zero_truth():
    trace = periodic_trace()
    trace.load = np.zeros_like(trace.load)  # true load identically zero
    anchors = [28 * 24, 29 * 24]
    report = rolling_origin_evaluate(trace, None, None, None, anchors, methods=("seasonal-naive",))
    row = report.row("seasonal-naive", 13)
    assert row.n_mape_excluded == len(anchors)
    assert row.mape == 0.0


def test_all_methods_share_anchor_set():
    cfg = default_scenario(horizon_days=36, ramp=0.0)
    trace = simulate(cfg)
    anchors = [28 * 24, 29 * 24, 30 * 24]
    report = rolling_origin_evaluate(
        trace, cfg.kernel, cfg.intensity, cfg.selection, anchors, horizons=(13, 37)
    )
    for row in report.rows:
        assert row.n == len(anchors)
    assert {r.method for r in report.rows} == {"lifecycle", "seasonal-naive", "holt-winters"}


def test_report_csv_deterministic(tmp_path):
    trace = periodic_trace()
    anchors = [28 * 24, 29 * 24]
    report = rolling_origin_evaluate(trace, None, None, None, anchors, methods=BASELINES)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    report.write_csv(a)
    report.write_csv(b)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "method,j,mae,mape,n,n_mape_excluded"


def test_eval_hour_is_13():
    # the default horizons land at 13:00 of the next four days
    assert EVAL_HOUR == 13
    for j in (13, 37, 61, 85):
        assert j % 24 == 13


def test_baselines_see_the_eval_hour_of_each_day_before_the_anchor(monkeypatch):
    # with an epoch at 05:00, slot 13 is 18:00 and a midnight anchor is slot 19 + 24 d
    cfg = default_scenario(horizon_days=42, ramp=0.0)
    cfg.timebase = tb = Timebase(datetime(2017, 7, 3, 5))
    trace = SimulatedTrace(config=cfg, log=EventLog([], NEVER, tb), load=np.arange(cfg.horizon_slots))  # each slot's load is the slot
    seen = []
    monkeypatch.setitem(BASELINE_FUNCTIONS, "seasonal-naive", lambda history, steps: seen.append(history) or np.zeros(steps))
    anchors = [19 + 28 * 24, 19 + 30 * 24]
    rolling_origin_evaluate(trace, None, None, None, anchors, methods=("seasonal-naive",))
    for k, history in zip(anchors, seen, strict=True):
        expected = [s for s in range(k) if tb.hour_of(s) == EVAL_HOUR and tb.day_of(s) < tb.day_of(k)]
        assert history.tolist() == expected


def test_an_anchor_before_slot_0_is_rejected_before_any_forecast(monkeypatch):
    # with an epoch at 15:00, anchor -15 is day 0's midnight, and its truth at
    # slot -15 + 13 would wrap round to the end of the trace
    cfg = default_scenario(horizon_days=42, ramp=0.0)
    cfg.timebase = Timebase(datetime(2017, 7, 3, 15))
    trace = SimulatedTrace(config=cfg, log=EventLog([], NEVER, cfg.timebase), load=np.arange(cfg.horizon_slots))
    forecasts = []
    monkeypatch.setattr(evaluate, "predict_load_pmfs", lambda *args: forecasts.append(args))
    with pytest.raises(ValidationError, match="anchor -15 is before slot 0"):
        rolling_origin_evaluate(trace, cfg.kernel, cfg.intensity, cfg.selection, [-15], horizons=(13,))
    assert not forecasts
