"""Command-line surface: fit, forecast, simulate, evaluate, oracle-check.

Exit codes: 0 on success, 2 on validation failure (bad input data or
arguments).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .arrivals import DailyVolumeModel, HourlyProfile, OrderIntensity
from .engine import bind_kernel, contribution_prob, predict_load_pmfs
from .errors import EmptyLog, NoCompletedTransitions, PupcastError, ValidationError
from .estimation import SelectionModel, fit_models
from .evaluate import DEFAULT_HORIZONS, METHODS, rolling_origin_evaluate
from .kernel import TransitionKernel, read_model, write_model
from .oracle import enumerate_contribution_prob, random_instance, simulate
from .records import EventLog
from .scenario import ScenarioConfig, Site


def _horizons(arg: str) -> tuple[int, ...]:
    return tuple(int(x) for x in arg.split(","))


MODELS = {"kernel.json": TransitionKernel, "profile.json": HourlyProfile, "volumes.json": DailyVolumeModel,
          "selection.json": SelectionModel}  # the files pupcast fit writes, in the order fit_models returns them


def cmd_fit(args) -> int:
    site = read_model(args.config, Site)
    log = EventLog.from_csv(args.log, site.timebase)
    try:
        models = fit_models(log, site)
    except (EmptyLog, NoCompletedTransitions) as exc:  # the site asks for a pup or status the log lacks
        raise type(exc)(f"{args.config}: {exc}") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, model in zip(MODELS, models):
        write_model(out / name, model)
    print(f"fitted models from {len(log)} parcels (cutoff slot {log.cutoff}) -> {out}")
    return 0


def _scenario(args) -> ScenarioConfig:
    """The config file's scenario, with ``--seed`` for its seed where given."""
    config = ScenarioConfig.load(args.config)
    try:
        return config if args.seed is None else dataclasses.replace(config, seed=args.seed)
    except ValidationError as exc:
        raise ValidationError(f"{args.config} with --seed {args.seed}: {exc}") from exc


def _load_models(site: Site, models_dir: Path):
    """The (kernel, intensity, selection) of the models ``pupcast fit`` wrote; their kernel must fit
    the site (``Site.check_kernel``)."""
    kernel, profile, volume, selection = (read_model(models_dir / name, cls) for name, cls in MODELS.items())
    try:
        site.check_kernel(kernel)
    except ValidationError as exc:
        raise ValidationError(f"{models_dir / 'kernel.json'}: {exc}") from exc
    return kernel, OrderIntensity.from_models(profile, volume), selection


def cmd_forecast(args) -> int:
    site = read_model(args.config, Site)
    kernel, intensity, selection = _load_models(site, Path(args.models))
    log = EventLog.from_csv(args.log, site.timebase)
    parcels = log.truncated(min(args.k, log.cutoff)).for_pup(site.pup)
    forecasts = predict_load_pmfs(parcels, kernel, intensity, selection, args.k, args.horizons, site.entry_status)
    results = [result.to_json_dict() for result in forecasts]
    doc = {"pup": site.pup, "k": args.k, "forecasts": results}
    text = json.dumps(doc, indent=1, sort_keys=True)  # indented for people to read
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text)
    for r in results:
        print(f"j={r['j']:3d}  mean={r['mean']:8.3f}  q05={r['q05']}  q50={r['q50']}  q95={r['q95']}")
    return 0


def cmd_simulate(args) -> int:
    config = _scenario(args)
    trace = simulate(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace.event_log().to_csv(out / "events.csv")
    trace.write_load_csv(out / "load_true.csv")
    print(f"simulated {len(trace.log)} parcels over {config.horizon_days} days (seed {config.seed}) -> {out}")
    return 0


def cmd_evaluate(args) -> int:
    config = _scenario(args)
    trace = simulate(config)
    if args.models:
        kernel, intensity, selection = _load_models(config.site, Path(args.models))
    else:
        kernel, intensity, selection = config.kernel, config.intensity, config.selection
    spd = config.timebase.slots_per_day
    last_anchor_day = config.horizon_days - (max(args.horizons) // spd + 1)
    midnight = config.timebase.hour_of(0) // config.timebase.slot_hours  # slots from day 0's midnight to slot 0
    anchors = [d * spd - midnight for d in range(args.first_anchor_day, last_anchor_day + 1) if d * spd >= midnight]
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
    if args.instances < 1:
        raise ValidationError(f"--instances {args.instances}: check at least one instance")
    rng = np.random.default_rng(args.seed)
    worst, compared = 0.0, 0
    for _ in range(args.instances):
        kernel, k, j = random_instance(rng, max_statuses=4, max_support=5)
        n_statuses = kernel.n_statuses
        pmf_at = bind_kernel(kernel)
        n = int(rng.integers(0, n_statuses))
        future = n < n_statuses - 1 and rng.random() < 0.3
        t_n = k + 1 + int(rng.integers(0, max(1, j - 1))) if future else int(rng.integers(0, k + 1))
        try:
            closed = contribution_prob(pmf_at, n_statuses, n, t_n, k, j)
        except PupcastError:  # impossible evidence: nothing to compare
            continue
        exact = enumerate_contribution_prob(pmf_at, n_statuses, n, t_n, k, j)
        worst, compared = max(worst, abs(closed - exact)), compared + 1
    print(f"oracle-check: {args.instances} random instances drawn, {compared} compared, {args.instances - compared} "
          f"skipped (closed form raised); worst |closed - exact| = {worst:.3e}")
    if not compared:
        print("FAIL: no instance was compared")
        return 2
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
    p.add_argument("--methods", default=",".join(METHODS), help="comma-separated names from %(default)s")
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
    except (PupcastError, OSError) as exc:  # an OSError names the file it could not read or write
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
