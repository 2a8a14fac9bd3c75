"""Benchmark entry point.

    python3 perfbench/run.py --workload daily-forecast --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, measures whole rounds of its
operations for about ``--seconds`` seconds in this one process, checks
every output against a reference computed apart from the engine, and
prints one JSON object as the last line of standard output.  With
``--trace 0`` it holds the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run, plus the tracing overhead.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from clock import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-layer metrics; every traced run reports all of them, 0 where the
# workload never enters that layer.
LAYER_TIMES = (
    "records.truncate", "engine.predict_load_pmf", "engine.future_orders_pmf",
    "kernel.pmf_at", "pmf.survival",
    "records.from_csv", "estimation.estimate_transit_kernel",
    "estimation.estimate_pickup_kernel", "estimation.estimate_selection",
    "arrivals.fit_hourly_profile", "arrivals.fit_daily_volume", "kernel.save",
    "oracle.mc_load_at",
)
LAYER_CALLS = (
    "engine.prob_future_order_contributes", "kernel.pmf_at", "pmf.survival",
    "arrivals.lambda_at", "arrivals.poisson_truncation",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, state, kept: dict, ledger, seconds: float, span):
    """Whole rounds until the next one would end after ``seconds``; at least one.

    Returns the clock of the operations that returned and the wall time of
    the rounds; exits if none returned.
    """
    clock = Clock()
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        workload.run_round(state, kept, ledger, span, clock)
        now = time.perf_counter()
        if now - start + (now - t_round) > seconds:
            if not clock.wall:
                raise SystemExit("\n".join(["error: every operation raised", *ledger.raised[:5]]))
            return clock, now - start


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pupcast").is_dir():
        print(f"error: no pupcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from tracer import Tracer
    from workloads import WORKLOADS, Ledger

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    out_dir = HERE / "out" / args.workload
    tracer = Tracer() if args.trace else None
    no_span = lambda name: contextlib.nullcontext()  # noqa: E731

    setup_clock = Clock()

    def timed_setup():
        with setup_clock():
            return workload.setup(args.seed, out_dir)

    # Set-up is repeated and its median reported, partly before and partly
    # after the measured rounds, so that the samples do not all fall in one
    # slow or fast spell of a shared machine.
    setups_before, setups_after = workload.setups
    if tracer:
        tracer.install()
    for _ in range(setups_before):
        state = timed_setup()
    kept: dict = {}
    ledger = Ledger()

    if not tracer:
        clock, _ = measure(workload, state, kept, ledger, args.seconds, no_span)
        for _ in range(setups_after):
            timed_setup()
        tail = int(100 * (1 - 10 / workload.round_size))
        metrics = {
            "setup_s": (statistics.median(setup_clock.scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "op_p50_ms": (1e3 * statistics.median(clock.scaled), "ms"),
            "op_tail_ms": (1e3 * percentile(clock.scaled, tail), "ms"),
        }
        print(
            f"wall time: set-up median {statistics.median(setup_clock.wall):.3f} s, operation median "
            f"{1e3 * statistics.median(clock.wall):.1f} ms, p{tail} {1e3 * percentile(clock.wall, tail):.1f} ms",
            file=sys.stderr,
        )
    else:
        setup_stats = tracer.reset()
        tracer.uninstall()
        plain, plain_wall = measure(workload, state, kept, ledger, 0.0, no_span)
        tracer.install()
        clock, traced_wall = measure(workload, state, kept, ledger, args.seconds, tracer.span)
        tracer.uninstall()
        stats = tracer.reset()
        ops = len(clock.wall)
        metrics = {}
        for name in LAYER_TIMES:
            metrics[f"{name}.self_s"] = (stats.get(name, (0, 0.0))[1] / ops, "s")
        for name in LAYER_CALLS:
            metrics[f"{name}.calls"] = (stats.get(name, (0, 0.0))[0] / ops, "count")
        metrics["oracle.simulate.self_s"] = (setup_stats.get("oracle.simulate", (0, 0.0))[1] / setups_before, "s")
        metrics["engine.load_pmf_len"] = (0.0, "count")
        for name, value in workload.layer_extras(kept).items():
            metrics[name] = (value, "count")
        metrics["trace.overhead_ms"] = (1e3 * (traced_wall / ops - plain_wall / len(plain.wall)), "ms")
        write_trace(out_dir, args, stats, setup_stats, ops, setups_before)

    workload.check(state, kept, ledger)
    if "summary" in kept:
        print(kept["summary"], file=sys.stderr)
    for line in ledger.raised[:5]:
        print(f"operation raised: {line}", file=sys.stderr)
    for line in ledger.problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_trace(out_dir: Path, args, stats: dict, setup_stats: dict, ops: int, setups: int) -> None:
    """Every span name with its calls and self time per operation (and per set-up)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "operations": ops,
        "per_operation": {
            name: {"calls": calls / ops, "self_s": self_s / ops}
            for name, (calls, self_s) in sorted(stats.items(), key=lambda kv: -kv[1][1])
        },
        "per_setup": {
            name: {"calls": calls / setups, "self_s": self_s / setups}
            for name, (calls, self_s) in sorted(setup_stats.items(), key=lambda kv: -kv[1][1])
        },
    }
    with open(out_dir / f"trace-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
