"""The three workloads: inputs, one round of operations, output checks.

Each workload builds its inputs from the seed in ``setup``, runs one round
of operations in ``run_round`` (timing each with the ``clock`` it is given),
and checks every output kept from the rounds in ``check``.  Both record in a
``Ledger`` which operations raised and which gave a wrong output.  All
program calls go through module attributes (``engine.predict_load_pmf``, not
a name bound at import), so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from pupcast import arrivals, cli, engine, estimation, kernel, oracle, records, scenario

from reference import load_band

HORIZONS = (13, 37, 61, 85)
SCALE_5X = {"c1": 45.0, "c2": 30.0, "c3": 20.0}  # 5x the default base volumes


@dataclass
class Ledger:
    """Operations attempted, the ones that raised, and the ones whose output
    failed a check.  An operation is known by a key; repeats of the same
    operation in later rounds share it."""

    done: Counter = field(default_factory=Counter)  # key -> attempts that returned
    raised: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    wrong_keys: set = field(default_factory=set)

    def attempt(self, key, op):
        """``op()``, or None if it raises; the run goes on either way."""
        try:
            out = op()
        except Exception:  # noqa: BLE001 - any fault of one operation
            self.raised.append(f"{key}: {traceback.format_exc()}")
            return None
        self.done[key] += 1
        return out

    def wrong(self, key, message: str) -> None:
        """The output of operation ``key`` failed a check."""
        self.problems.append(message)
        self.wrong_keys.add(key)

    @property
    def attempted(self) -> int:
        return len(self.raised) + sum(self.done.values())

    @property
    def failed(self) -> int:
        return len(self.raised) + sum(self.done[key] for key in self.wrong_keys)


def _moments(probs: np.ndarray) -> tuple[float, float]:
    x = np.arange(len(probs))
    mean = float(x @ probs)
    return mean, float((x - mean) ** 2 @ probs)


def _pmf_problem(probs: np.ndarray) -> str | None:
    if np.any(probs < 0):
        return "negative mass"
    if abs(probs.sum() - 1.0) > 1e-9:
        return f"mass {probs.sum()!r}"
    return None


def _active_at(parcels, n_statuses: int):
    """Map k to the parcels seen by k and not picked up by k.

    Works on the full simulated records, not on ``EventLog.truncated``: the
    reference reads only entries at or before k.
    """
    first = np.array([min(rec.entry_times.values()) for rec in parcels])
    gone = np.array([rec.entry_times.get(n_statuses, np.iinfo(np.int64).max) for rec in parcels])
    return lambda k: [parcels[i] for i in np.nonzero((first <= k) & (gone > k))[0]]


def _realised_load(parcels, n_statuses: int, slots) -> dict[int, int]:
    """Parcels stored at each slot, counted from the simulated events."""
    t_in = np.array([rec.entry_times.get(n_statuses - 1, -1) for rec in parcels])
    t_out = np.array([rec.entry_times.get(n_statuses, np.iinfo(np.int64).max) for rec in parcels])
    delivered = t_in >= 0
    return {s: int(np.sum(delivered & (t_in <= s) & (t_out > s))) for s in slots}


@dataclass
class Simulated:
    """A simulated scenario and its full event log."""

    cfg: object
    trace: object
    log: object


def _simulate(seed: int, base_volumes=None) -> Simulated:
    cfg = scenario.default_scenario(seed=seed, base_volumes=base_volumes)
    trace = oracle.simulate(cfg)
    return Simulated(cfg, trace, trace.event_log())


# ---------------------------------------------------------------- daily-forecast


class DailyForecast:
    """The operator's daily call: truncate the log at midnight, forecast four horizons."""

    name = "daily-forecast"
    first_day = 28
    last_day = 177  # k + 85 stays inside the 182-day trace
    round_size = last_day - first_day + 1
    setups = (3, 4)  # before and after the measured rounds
    coverage = 0.99  # the engine's default
    interval_levels = (0.5, 0.9)  # central forecast intervals tested for calibration
    # A round visits the anchors in this many interleaved sweeps over the
    # days.  Later anchors hold more parcels and make up the tail; in day
    # order they would all fall in the last seconds of the round, and the
    # tail would measure the machine's speed in those seconds only.
    sweeps = 10

    def setup(self, seed: int, out_dir: Path) -> Simulated:
        return _simulate(seed)

    def anchors(self, sim: Simulated) -> list[int]:
        spd = sim.cfg.timebase.slots_per_day
        return [d * spd for d in range(self.first_day, self.last_day + 1)]

    def run_round(self, sim: Simulated, kept: dict, ledger: Ledger, span, clock) -> None:
        cfg = sim.cfg

        def forecast(k):
            with span("op"), clock():
                parcels = sim.log.truncated(k).for_pup(cfg.pup)
                return [
                    engine.predict_load_pmf(
                        parcels, cfg.kernel, cfg.intensity, cfg.selection, k, j,
                        entry_status=cfg.entry_status,
                    ).pmf.probs
                    for j in HORIZONS
                ]

        anchors = self.anchors(sim)
        for k in [k for start in range(self.sweeps) for k in anchors[start :: self.sweeps]]:
            out = ledger.attempt(k, lambda: forecast(k))
            if out is None:
                continue
            first = kept.setdefault(k, out)
            if first is not out and not all(np.array_equal(a, b) for a, b in zip(first, out)):
                ledger.wrong(k, f"k={k}: rounds differ")

    def check(self, sim: Simulated, kept: dict, ledger: Ledger) -> None:
        cfg = sim.cfg
        anchors = [k for k in self.anchors(sim) if k in kept]
        realised = _realised_load(
            sim.trace.parcels, cfg.n_statuses, [k + j for k in anchors for j in HORIZONS]
        )
        tally = {level: [0, 0.0, 0.0] for level in self.interval_levels}  # hits, expected, variance
        active_at = _active_at(sim.trace.parcels, cfg.n_statuses)
        for k in anchors:
            parcels = active_at(k)
            for j, probs in zip(HORIZONS, kept[k]):
                where = f"k={k} j={j}"
                bad = _pmf_problem(probs)
                if bad:
                    ledger.wrong(k, f"{where}: {bad}")
                    continue
                band = load_band(
                    parcels, cfg.kernel, cfg.intensity, cfg.selection, cfg.pup, k, j,
                    cfg.entry_status, self.coverage,
                )
                mean, var = _moments(probs)
                if not band.contains(mean, var):
                    ledger.wrong(k, f"{where}: mean {mean} var {var} outside {band}")
                load = realised[k + j]
                if sim.trace.load[k + j] != load:
                    ledger.problems.append(f"{where}: simulated load {sim.trace.load[k + j]} != {load} from events")
                cdf = np.cumsum(probs)
                for level, counts in tally.items():
                    lo = int(np.searchsorted(cdf, (1.0 - level) / 2))
                    hi = int(np.searchsorted(cdf, (1.0 + level) / 2))
                    inside = float(cdf[hi] - (cdf[lo - 1] if lo else 0.0))
                    counts[0] += lo <= load <= hi
                    counts[1] += inside
                    counts[2] += inside * (1.0 - inside)
        # The hits are positively correlated: one slot is tested from up to
        # four (anchor, horizon) pairs, and loads a day apart share parcels.
        # Over seeds 1-20 the deviation had a standard deviation of 2.4 (50 %)
        # and 1.9 (90 %) independent-case sigmas, largest 4.8 and 4.0, so
        # twelve of those are about five of its own.  The 90 % level can fail
        # only low (its hits cannot exceed the pairs); the 50 % level also
        # catches intervals that are too wide.
        summary = []
        for level, (hits, expected, variance) in tally.items():
            name = f"central {100 * level:.0f}% intervals"
            slack = 12.0 * math.sqrt(variance)
            if abs(hits - expected) > slack:
                ledger.problems.append(f"{name}: {hits} hits, expected {expected:.1f} +- {slack:.1f}")
            summary.append(f"{name}: {hits} loads inside, {expected:.1f} expected, allowance {slack:.1f}")
        kept["summary"] = f"{len(anchors) * len(HORIZONS)} pairs; " + "; ".join(summary)

    def layer_extras(self, kept: dict) -> dict[str, float]:
        lengths = [len(p) for k, out in kept.items() if isinstance(k, int) for p in out]
        return {"engine.load_pmf_len": float(np.mean(lengths))}


# ---------------------------------------------------------------- fit-models


@dataclass
class FitInputs:
    sim: Simulated
    config: Path
    events: Path
    models: Path


class FitModels:
    """``pupcast fit`` on a 20k-parcel log, in-process."""

    name = "fit-models"
    round_size = 40
    setups = (2, 1)  # each takes about 2.4 s

    def setup(self, seed: int, out_dir: Path) -> FitInputs:
        sim = _simulate(seed, base_volumes=SCALE_5X)
        out_dir.mkdir(parents=True, exist_ok=True)
        inputs = FitInputs(sim, out_dir / "config.json", out_dir / "events.csv", out_dir / "models")
        sim.cfg.save(inputs.config)
        sim.log.to_csv(inputs.events)
        return inputs

    def run_round(self, inputs: FitInputs, kept: dict, ledger: Ledger, span, clock) -> None:
        argv = ["fit", "--config", str(inputs.config), "--log", str(inputs.events), "--out", str(inputs.models)]

        def fit():
            sink = io.StringIO()
            with span("op"), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), clock():
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"pupcast fit exited {code}: {sink.getvalue().strip()}")
            return _digests(inputs.models)

        # The check reads the files on disk; it holds for each fit that
        # wrote the same bytes as the first.
        for _ in range(self.round_size):
            files = ledger.attempt(self.name, fit)
            if files is not None and kept.setdefault("files", files) != files:
                ledger.wrong(self.name, "a fit wrote other model files than the first fit")

    def check(self, inputs: FitInputs, kept: dict, ledger: Ledger) -> None:
        if "files" not in kept:
            return  # no fit returned
        if _digests(inputs.models) != kept["files"]:
            ledger.wrong(self.name, "the model files on disk are not the first fit's")
        for problem in self._problems(inputs):
            ledger.wrong(self.name, problem)

    def _problems(self, inputs: FitInputs) -> list[str]:
        problems = []
        cfg = inputs.sim.cfg
        entry, last = cfg.entry_status, cfg.n_statuses - 1
        models = inputs.models

        # counts made directly from the CSV rows
        rows = defaultdict(dict)  # parcel id -> {status: datetime}
        routing = {}
        with open(inputs.events, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for parcel_id, retailer, carrier, pup, status, stamp in reader:
                rows[parcel_id][int(status)] = datetime.fromisoformat(stamp)
                routing[parcel_id] = (retailer or None, carrier, pup)
        cutoff = max(dt for entries in rows.values() for dt in entries.values())

        with open(models / "volumes.json", encoding="utf-8") as fh:
            volumes = json.load(fh)
        days = Counter(
            (routing[pid][1], entries[entry].date()) for pid, entries in rows.items() if entry in entries
        )
        start = min(d for _, d in days)
        n_days = (cutoff.date() - start).days + 1
        counted = {
            c: [float(days.get((c, start + timedelta(days=i)), 0)) for i in range(n_days)]
            for c in sorted({c for c, _ in days})
        }
        if volumes["start"] != start.isoformat() or volumes["history"] != counted:
            problems.append("daily-volume history differs from the counts of take-over rows")

        with open(models / "selection.json", encoding="utf-8") as fh:
            selection = json.load(fh)
        by_retailer = Counter(r for r, _, _ in routing.values())
        by_pair = Counter((r, c) for r, c, _ in routing.values())
        total = sum(by_retailer.values())
        shares = {str(r): n / total for r, n in by_retailer.items()}
        given = {
            str(r): {c: n / by_retailer[r] for (r2, c), n in by_pair.items() if r2 == r}
            for r in by_retailer
        }
        if selection["p_retailer"] != shares or selection["p_carrier_given_retailer"] != given:
            problems.append("selection shares differ from the counts of parcels")

        saved = kernel.TransitionKernel.load(models / "kernel.json")
        delays = {entry: [], last: []}  # (context, delay in slots)
        hour = 3600 * cfg.timebase.slot_hours
        for pid, entries in rows.items():
            if routing[pid][2] != cfg.pup:
                continue
            for n in delays:
                if n in entries and n + 1 in entries:
                    t_from = entries[n]
                    delay = int((entries[n + 1] - t_from).total_seconds()) // hour
                    ctx = (t_from.isoweekday(), routing[pid][1] if n == entry else t_from.hour)
                    delays[n].append((ctx, delay))
        expected = {
            entry: self._empirical(
                delays[entry], [lambda c: c, lambda c: (c[1],), lambda c: ()],
                estimation.TRANSIT_SUPPORT_MAX, None,
            ),
            last: self._empirical(
                delays[last], [lambda c: c, lambda c: (c[0],), lambda c: ()],
                estimation.PICKUP_SUPPORT_MAX, set(cfg.opening.valid_keys()),
            ),
        }
        for n, levels in expected.items():
            got = saved.statuses[n].levels
            if len(got) != len(levels):
                problems.append(f"status {n}: {len(got)} kernel levels, expected {len(levels)}")
                continue
            for depth, (level, want) in enumerate(zip(got, levels)):
                if set(level.pmfs) != set(want):
                    problems.append(f"status {n} level {depth}: keys differ from the completed transitions")
                    continue
                for key, probs in want.items():
                    if not _same_pmf(level.pmfs[key].probs, probs):
                        problems.append(f"status {n} level {depth} key {key}: pmf differs from the frequencies")

        problems += self._round_trip(inputs, saved)
        return problems

    @staticmethod
    def _empirical(observations, key_fns, support_max: int, valid_keys) -> list[dict]:
        """Documented estimator: per-level empirical frequencies of completed
        delays, cut at ``support_max`` and renormalised; keys with fewer than
        ``MIN_COUNT`` observations defer to the next level, and the finest
        level keeps only ``valid_keys``."""
        levels = []
        for depth, key_fn in enumerate(key_fns):
            groups = defaultdict(list)
            for ctx, delay in observations:
                groups[key_fn(ctx)].append(delay)
            pmfs = {}
            for key, ds in groups.items():
                if depth == 0 and valid_keys is not None and key not in valid_keys:
                    continue
                if depth < len(key_fns) - 1 and len(ds) < estimation.MIN_COUNT:
                    continue
                counts = np.bincount(ds)[: support_max + 1].astype(float)
                pmfs[key] = counts / counts.sum()
            levels.append(pmfs)
        return levels

    @staticmethod
    def _round_trip(inputs: FitInputs, saved) -> list[str]:
        """The saved models equal an in-memory fit on the same log."""
        cfg = inputs.sim.cfg
        problems = []
        log = records.EventLog.from_csv(inputs.events, cfg.timebase)
        entry, last = cfg.entry_status, cfg.n_statuses - 1
        fitted = {
            entry: estimation.estimate_transit_kernel(log, cfg.pup, status_from=entry),
            last: estimation.estimate_pickup_kernel(log, cfg.pup, cfg.opening, status_from=last),
        }
        for n, status in fitted.items():
            a, b = status.levels, saved.statuses[n].levels
            if [lv.schema for lv in a] != [lv.schema for lv in b] or any(
                set(x.pmfs) != set(y.pmfs)
                or any(not np.array_equal(x.pmfs[key].probs, y.pmfs[key].probs) for key in x.pmfs)
                for x, y in zip(a, b)
            ):
                problems.append(f"status {n}: saved kernel differs from the in-memory fit")
        models = inputs.models
        with open(models / "profile.json", encoding="utf-8") as fh:
            profile = arrivals.HourlyProfile.from_json_dict(json.load(fh))
        rho = arrivals.fit_hourly_profile(log, status=entry).rho
        if set(rho) != set(profile.rho) or any(not np.array_equal(rho[key], profile.rho[key]) for key in rho):
            problems.append("saved hourly profile differs from the in-memory fit")
        with open(models / "volumes.json", encoding="utf-8") as fh:
            volume = arrivals.DailyVolumeModel.from_json_dict(json.load(fh))
        fit = arrivals.fit_daily_volume(log, status=entry)
        if volume.start != fit.start or set(volume.history) != set(fit.history) or any(
            not np.array_equal(volume.history[c], fit.history[c]) for c in fit.history
        ):
            problems.append("saved daily volumes differ from the in-memory fit")
        with open(models / "selection.json", encoding="utf-8") as fh:
            selection = estimation.SelectionModel.from_json_dict(json.load(fh))
        sel = estimation.estimate_selection(log)
        if selection.p_retailer != sel.p_retailer or selection.p_carrier_given_retailer != sel.p_carrier_given_retailer:
            problems.append("saved selection model differs from the in-memory fit")
        return problems

    def layer_extras(self, kept: dict) -> dict[str, float]:
        return {}


def chi2_limit(dof: int, false_alarm: float) -> float:
    """A level that a chi-square variable with ``dof`` degrees of freedom
    exceeds with probability at most ``false_alarm``: Laurent & Massart
    (2000), P(X >= dof + 2 sqrt(dof x) + 2x) <= exp(-x)."""
    x = math.log(1.0 / false_alarm)
    return dof + 2.0 * math.sqrt(dof * x) + 2.0 * x


def _digests(directory: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(directory.iterdir())}


def _same_pmf(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values; trailing zeros do not count."""
    n = max(len(a), len(b))
    return np.array_equal(np.pad(a, (0, n - len(a))), np.pad(b, (0, n - len(b))))


# ---------------------------------------------------------------- mc-validate


class McValidate:
    """Whole-system Monte Carlo truth against the engine, as acceptance 3 runs it."""

    name = "mc-validate"
    anchor_days = tuple(28 + 15 * i for i in range(10))
    replicates = 10_000
    coverage = 0.999999  # the engine setting acceptance 3 uses
    tv_bound = 0.05
    false_alarm = 1e-3
    round_size = len(anchor_days) * len(HORIZONS)
    setups = (3, 4)

    def __init__(self):
        self.rounds_done = 0  # each round draws fresh replicate streams

    def setup(self, seed: int, out_dir: Path) -> Simulated:
        return _simulate(seed)

    def run_round(self, sim: Simulated, kept: dict, ledger: Ledger, span, clock) -> None:
        cfg = sim.cfg
        round_no = self.rounds_done
        rng = np.random.default_rng([cfg.seed, round_no])
        self.rounds_done += 1
        spd = cfg.timebase.slots_per_day

        def validate(active, k, j):
            with span("op"):
                probs = engine.predict_load_pmf(
                    active, cfg.kernel, cfg.intensity, cfg.selection, k, j,
                    entry_status=cfg.entry_status, coverage=self.coverage,
                ).pmf.probs
                with clock():
                    loads = oracle.mc_load_at(
                        active, cfg.kernel, cfg.intensity, cfg.selection, k, j,
                        n_replicates=self.replicates, rng=rng,
                        entry_status=cfg.entry_status, pup=cfg.pup,
                    )
            return probs, loads

        for day in self.anchor_days:
            k = day * spd
            active = [
                r for r in sim.log.truncated(k).for_pup(cfg.pup) if cfg.n_statuses not in r.entry_times
            ]
            for j in HORIZONS:
                key = (round_no, k, j)
                out = ledger.attempt(key, lambda: validate(active, k, j))
                if out is not None:
                    kept.setdefault("pairs", []).append((key, *out))

    def check(self, sim: Simulated, kept: dict, ledger: Ledger) -> None:
        cfg = sim.cfg
        pairs = kept.get("pairs", [])
        bands = {}
        chi2 = 0.0
        worst_tv = 0.0
        active_at = _active_at(sim.trace.parcels, cfg.n_statuses)
        for key, probs, loads in pairs:
            _, k, j = key
            where = f"round {key[0]} k={k} j={j}"
            if (k, j) not in bands:
                bands[k, j] = load_band(
                    active_at(k), cfg.kernel, cfg.intensity, cfg.selection, cfg.pup, k, j,
                    cfg.entry_status, self.coverage,
                )
            band = bands[k, j]
            bad = _pmf_problem(probs)
            if bad:
                ledger.wrong(key, f"{where}: {bad}")
                continue
            mean, var = _moments(probs)
            if not band.contains(mean, var):
                ledger.wrong(key, f"{where}: engine mean {mean} var {var} outside {band}")
            n = len(loads)
            se = loads.std(ddof=1) / math.sqrt(n)
            chi2 += ((loads.mean() - band.exact_mean) / se) ** 2
            hist = np.bincount(loads) / n
            size = max(len(hist), len(probs))
            tv = 0.5 * float(np.abs(np.pad(hist, (0, size - len(hist))) - np.pad(probs, (0, size - len(probs)))).sum())
            worst_tv = max(worst_tv, tv)
            if tv > self.tv_bound:
                ledger.wrong(key, f"{where}: TV {tv:.4f} between engine pmf and Monte Carlo")
        limit = chi2_limit(len(pairs), self.false_alarm)
        if chi2 > limit:
            ledger.problems.append(
                f"Monte Carlo means vs exact means: chi2 {chi2:.1f} > {limit:.1f} on {len(pairs)} pairs"
            )
        kept["summary"] = f"chi2 {chi2:.1f} (limit {limit:.1f}) on {len(pairs)} pairs, worst TV {worst_tv:.4f}"

    def layer_extras(self, kept: dict) -> dict[str, float]:
        lengths = [len(p) for _, p, _ in kept.get("pairs", [])]
        return {"engine.load_pmf_len": float(np.mean(lengths))}


WORKLOADS = {w.name: w for w in (DailyForecast, FitModels, McValidate)}
