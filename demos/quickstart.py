"""End-to-end walkthrough: simulate a shop, fit models, forecast the load.

Simulates a synthetic three-carrier pick-up point for a few months, fits
the transition kernels and order-intensity models from the resulting event
log (no peeking at the ground truth), then forecasts the full load pmf at
an anchor and compares it with what actually happened.

Run:  python3 demos/quickstart.py [--days 120] [--seed 7]
"""

import argparse

from pupcast import (
    OrderIntensity,
    default_scenario,
    fit_daily_volume,
    fit_models,
    predict_load_pmfs,
    simulate,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--days", type=int, default=120)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    cfg = default_scenario(seed=args.seed, horizon_days=args.days)
    trace = simulate(cfg)
    print(f"simulated {len(trace.log)} parcels over {args.days} days at {cfg.pup!r}")

    # anchor: midnight, two weeks before the end so every horizon is observable
    k = (args.days - 14) * 24
    log = trace.event_log(cutoff=k)
    print(f"fitting on the event log as observed at slot {k} ({len(log)} parcels)")

    kernel, profile, _, selection = fit_models(log, cfg)
    volume = fit_daily_volume(log.truncated(k - 1), status=cfg.entry_status)
    intensity = OrderIntensity.from_models(profile, volume)

    parcels = log.for_pup(cfg.pup)
    print(f"\nload forecast anchored at {cfg.timebase.datetime_of(k)}:")
    print(f"{'horizon':>8} {'mean':>7} {'q05':>4} {'q50':>4} {'q95':>4} {'actual':>7}")
    # one pass serves all four horizons
    for r in predict_load_pmfs(parcels, kernel, intensity, selection, k, (13, 37, 61, 85), cfg.entry_status):
        actual = int(trace.load[k + r.j])
        print(
            f"{r.j:>7}h {r.mean:7.2f} {r.pmf.quantile(0.05):4d} "
            f"{r.pmf.quantile(0.50):4d} {r.pmf.quantile(0.95):4d} {actual:7d}"
        )
    print("\neach row is a full pmf; mean and quantiles are summaries of it")


if __name__ == "__main__":
    main()
