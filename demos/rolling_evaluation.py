"""Rolling-origin shoot-out: lifecycle forecaster vs time-series baselines.

Simulates a six-month scenario whose order volume grows 80% over the
horizon, fits all models from the event log available at the first anchor
(daily volumes are refit at every anchor, still without look-ahead), and
scores lifecycle, seasonal-naive and Holt-Winters forecasts on identical
anchor/horizon pairs.

Run:  python3 demos/rolling_evaluation.py [--anchors 20]
"""

import argparse

from pupcast import (
    OrderIntensity,
    default_scenario,
    fit_daily_volume,
    fit_models,
    rolling_origin_evaluate,
    simulate,
)
from pupcast.arrivals import seasonal_mean_forecaster


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--anchors", type=int, default=20)
    args = ap.parse_args()

    cfg = default_scenario()  # 182 days, volume ramps up by 80%
    trace = simulate(cfg)
    anchors = [(42 + 6 * i) * 24 for i in range(args.anchors)]
    print(
        f"simulated {len(trace.log)} parcels over {cfg.horizon_days} days; "
        f"{len(anchors)} anchors, first at day {anchors[0] // 24}"
    )

    kernel, profile, _, selection = fit_models(trace.event_log(cutoff=anchors[0]), cfg)
    forecaster = seasonal_mean_forecaster(trend_damping=1.0)

    def intensity_at_anchor(k: int) -> OrderIntensity:
        volume = fit_daily_volume(
            trace.event_log(cutoff=k - 1), cfg.entry_status, forecaster=forecaster
        )
        return OrderIntensity.from_models(profile, volume, max_days_ahead=8)

    report = rolling_origin_evaluate(trace, kernel, intensity_at_anchor, selection, anchors)
    print(f"\n{'method':<16}" + "".join(f"  MAE j={j:<3}" for j in (13, 37, 61, 85)))
    for method in ("lifecycle", "seasonal-naive", "holt-winters"):
        maes = "".join(f"  {report.row(method, j).mae:9.2f}" for j in (13, 37, 61, 85))
        print(f"{method:<16}{maes}")
    print("\nthe lifecycle advantage is largest at short horizons, where known")
    print("parcels dominate, and shrinks as the forecast relies on future orders")


if __name__ == "__main__":
    main()
