"""Command-line surface: fit, forecast, simulate, evaluate, oracle-check.

Exit codes: 0 on success, 2 on validation failure (bad input data or
arguments).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .arrivals import DailyVolumeModel, HourlyProfile, OrderIntensity, fit_daily_volume, fit_hourly_profile
from .engine import bind_kernel, predict_load_pmf, prob_still_stored
from .engine import prob_delivered_and_stored_multi_hop, prob_future_order_contributes
from .errors import PupcastError
from .estimation import (
    SelectionModel,
    estimate_pickup_kernel,
    estimate_selection,
    estimate_transit_kernel,
)
from .evaluate import DEFAULT_HORIZONS, rolling_origin_evaluate
from .kernel import TransitionKernel
from .oracle import enumerate_contribution_prob, random_instance, simulate
from .records import EventLog
from .scenario import ScenarioConfig


def _horizons(arg: str) -> tuple[int, ...]:
    return tuple(int(x) for x in arg.split(","))


def cmd_fit(args) -> int:
    config = ScenarioConfig.load(args.config)
    log = EventLog.from_csv(args.log, config.timebase)
    entry = config.entry_status
    n_statuses = config.n_statuses
    statuses = dict(config.kernel.statuses)
    statuses[entry] = estimate_transit_kernel(log, config.pup, status_from=entry)
    statuses[n_statuses - 1] = estimate_pickup_kernel(
        log, config.pup, config.opening, status_from=n_statuses - 1
    )
    kernel = TransitionKernel(n_statuses, statuses, config.timebase)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kernel.save(out / "kernel.json")
    profile = fit_hourly_profile(log, status=entry)
    with open(out / "profile.json", "w", encoding="utf-8") as fh:
        json.dump(profile.to_json_dict(), fh, indent=1, sort_keys=True)
    volume = fit_daily_volume(log, status=entry)
    with open(out / "volumes.json", "w", encoding="utf-8") as fh:
        json.dump(volume.to_json_dict(), fh, indent=1, sort_keys=True)
    selection = estimate_selection(log)
    with open(out / "selection.json", "w", encoding="utf-8") as fh:
        json.dump(selection.to_json_dict(), fh, indent=1, sort_keys=True)
    n_parcels = len(log.records)
    print(f"fitted models from {n_parcels} parcels (cutoff slot {log.cutoff}) -> {out}")
    return 0


def _load_models(models_dir: Path):
    kernel = TransitionKernel.load(models_dir / "kernel.json")
    with open(models_dir / "profile.json", encoding="utf-8") as fh:
        profile = HourlyProfile.from_json_dict(json.load(fh))
    with open(models_dir / "volumes.json", encoding="utf-8") as fh:
        volume = DailyVolumeModel.from_json_dict(json.load(fh))
    with open(models_dir / "selection.json", encoding="utf-8") as fh:
        selection = SelectionModel.from_json_dict(json.load(fh))
    return kernel, profile, volume, selection


def cmd_forecast(args) -> int:
    config = ScenarioConfig.load(args.config)
    models_dir = Path(args.models)
    kernel, profile, volume, selection = _load_models(models_dir)
    log = EventLog.from_csv(args.log, config.timebase)
    parcels = log.truncated(min(args.k, log.cutoff)).for_pup(config.pup)
    intensity = OrderIntensity.from_models(profile, volume)
    results = []
    for j in args.horizons:
        result = predict_load_pmf(
            parcels, kernel, intensity, selection, args.k, j,
            entry_status=config.entry_status,
        )
        results.append(result.to_json_dict())
    doc = {"pup": config.pup, "k": args.k, "forecasts": results}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    else:
        json.dump(doc, sys.stdout, indent=1, sort_keys=True)
        print()
    for r in results:
        print(f"j={r['j']:3d}  mean={r['mean']:8.3f}  q05={r['q05']}  q50={r['q50']}  q95={r['q95']}")
    return 0


def cmd_simulate(args) -> int:
    config = ScenarioConfig.load(args.config)
    if args.seed is not None:
        config.seed = args.seed
    trace = simulate(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace.event_log().to_csv(out / "events.csv")
    trace.write_load_csv(out / "load_true.csv")
    print(
        f"simulated {len(trace.parcels)} parcels over {config.horizon_days} days "
        f"(seed {config.seed}) -> {out}"
    )
    return 0


def cmd_evaluate(args) -> int:
    config = ScenarioConfig.load(args.config)
    if args.seed is not None:
        config.seed = args.seed
    trace = simulate(config)
    models_dir = Path(args.models) if args.models else None
    if models_dir:
        kernel, profile, volume, selection = _load_models(models_dir)
        intensity = OrderIntensity.from_models(profile, volume)
    else:
        kernel, intensity, selection = config.kernel, config.intensity, config.selection
    spd = config.timebase.slots_per_day
    last_anchor_day = config.horizon_days - (max(args.horizons) // spd + 1)
    anchors = [d * spd for d in range(args.first_anchor_day, last_anchor_day + 1)]
    report = rolling_origin_evaluate(
        trace, kernel, intensity, selection, anchors, horizons=args.horizons,
        methods=tuple(args.methods.split(",")),
    )
    report.write_csv(args.out)
    for row in sorted(report.rows, key=lambda r: (r.j, r.method)):
        print(
            f"j={row.j:3d}  {row.method:15s} MAE={row.mae:7.3f}  MAPE={row.mape:6.2f}%  (n={row.n})"
        )
    return 0


def cmd_oracle_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for trial in range(args.instances):
        kernel, k, j = random_instance(rng, max_statuses=4, max_support=5)
        n_statuses = kernel.n_statuses
        pmf_at = bind_kernel(kernel)
        n = int(rng.integers(0, n_statuses))
        if n == n_statuses - 1:
            t_n = int(rng.integers(0, k + 1))
            try:
                closed = prob_still_stored(pmf_at, n_statuses, t_n, k, j)
            except PupcastError:
                continue
        elif rng.random() < 0.3:
            t_n = k + 1 + int(rng.integers(0, max(1, j - 1)))
            if t_n > k + j:
                continue
            closed = prob_future_order_contributes(pmf_at, n_statuses, t_n, k, j, entry_status=n)
        else:
            t_n = int(rng.integers(0, k + 1))
            try:
                closed = prob_delivered_and_stored_multi_hop(pmf_at, n_statuses, n, t_n, k, j)
            except PupcastError:
                continue
        exact = enumerate_contribution_prob(pmf_at, n_statuses, n, t_n, k, j)
        worst = max(worst, abs(closed - exact))
    print(f"oracle-check: {args.instances} random instances, worst |closed - exact| = {worst:.3e}")
    if worst > 1e-12:
        print("FAIL: closed form deviates from enumeration beyond 1e-12")
        return 2
    print("PASS")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pupcast", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit kernels, hourly profile, daily volumes, selection")
    p.add_argument("--log", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="forecast the load pmf at one or more horizons")
    p.add_argument("--models", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--horizons", type=_horizons, default=DEFAULT_HORIZONS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("simulate", help="simulate a synthetic trace from a scenario config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="rolling-origin comparison against baselines")
    p.add_argument("--config", required=True)
    p.add_argument("--models", help="fitted model directory; ground truth if omitted")
    p.add_argument("--seed", type=int)
    p.add_argument("--horizons", type=_horizons, default=DEFAULT_HORIZONS)
    p.add_argument("--methods", default="lifecycle,seasonal-naive,holt-winters")
    p.add_argument("--first-anchor-day", type=int, default=28)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("oracle-check", help="closed form vs exhaustive enumeration")
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PupcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
