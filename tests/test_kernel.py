"""Transition kernel lookup, fallback levels and serialization."""

import json
from datetime import datetime

import numpy as np
import pytest

from pupcast import HoldingTimePmf, KernelLevel, StatusKernel, Timebase, TransitionKernel
from pupcast.errors import MissingKernel, UnknownStatus, ValidationError
from pupcast.kernel import context_of
from pupcast.scenario import default_scenario

from helpers import TB, pooled_status, random_pmf, retailer_keyed_kernel


def make_kernel():
    keyed = HoldingTimePmf.uniform(1, 3)
    pooled = HoldingTimePmf.point_mass(2)
    status = StatusKernel(
        (
            KernelLevel(("weekday", "hour"), {(1, 10): keyed}),
            KernelLevel((), {(): pooled}),
        )
    )
    return TransitionKernel(2, {0: pooled_status(pooled), 1: status}, TB), keyed, pooled


def test_direct_retrieval():
    kernel, keyed, _ = make_kernel()
    ctx = {"weekday": 1, "hour": 10}
    assert kernel.lookup(1, ctx) is keyed


def test_fallback_on_unseen_context():
    kernel, _, pooled = make_kernel()
    assert kernel.lookup(1, {"weekday": 3, "hour": 22}) is pooled


def test_absorbing_status_has_no_kernel():
    kernel, _, _ = make_kernel()
    with pytest.raises(UnknownStatus):
        kernel.lookup(2, {})
    with pytest.raises(UnknownStatus):
        kernel.lookup(-1, {})


def test_missing_status_and_no_fallback():
    by_carrier = KernelLevel(("carrier",), {("c1",): HoldingTimePmf.point_mass(1)})
    later = {1: pooled_status(HoldingTimePmf.point_mass(2)), 2: pooled_status(HoldingTimePmf.point_mass(3))}
    kernel = TransitionKernel(3, later, TB)
    with pytest.raises(MissingKernel, match="no kernel fitted for status 0"):
        kernel.lookup(0, {})  # status never fitted
    with pytest.raises(MissingKernel, match="no kernel fitted for status 0"):
        kernel.pooled_pmf_at(0)
    with pytest.raises(ValidationError, match="pooled level"):
        StatusKernel((by_carrier,))  # no pooled level: rejected when built, before any lookup


POOLED = KernelLevel((), {(): HoldingTimePmf.point_mass(2)})
BY_DAY = KernelLevel(("weekday",), {(1,): HoldingTimePmf.point_mass(1)})
INVALID_KERNELS = {
    "no level": lambda: StatusKernel(()),
    "last level not pooled": lambda: StatusKernel((POOLED, BY_DAY)),
    "pooled level without its pmf": lambda: StatusKernel((BY_DAY, KernelLevel((), {}))),
    "pooled level with another key": lambda: StatusKernel((KernelLevel((), {(1,): HoldingTimePmf.point_mass(1)}),)),
    "statuses 0 and 3 of 4": lambda: TransitionKernel(4, {0: StatusKernel((POOLED,)), 3: StatusKernel((POOLED,))}, TB),
    "statuses 0 and 1 of 3": lambda: TransitionKernel(3, {0: StatusKernel((POOLED,)), 1: StatusKernel((POOLED,))}, TB),
    "no status of 2": lambda: TransitionKernel(2, {}, TB),
}


@pytest.mark.parametrize("build", INVALID_KERNELS.values(), ids=INVALID_KERNELS.keys())
def test_a_kernel_without_a_pooled_level_or_with_a_gap_in_its_statuses_is_rejected(build):
    # every status ends in its pooled level, and the fitted statuses run up to
    # the last one, so every route resolves at every slot of a fitted status
    with pytest.raises(ValidationError):
        build()


def test_unknown_feature_rejected():
    with pytest.raises(ValidationError):
        KernelLevel(("color",), {})


def test_status_range_validated():
    with pytest.raises(ValidationError):
        TransitionKernel(2, {5: pooled_status(HoldingTimePmf.point_mass(1))}, TB)


def test_pmf_at_builds_calendar_context():
    kernel, keyed, pooled = make_kernel()
    # slot 10 of the epoch Monday is (weekday 1, hour 10)
    assert kernel.pmf_at(1, 10) is keyed
    assert kernel.pmf_at(1, 11) is pooled


@pytest.mark.parametrize("timebase", [TB, Timebase(datetime(2024, 1, 3, 6), slot_hours=2)], ids=["hourly", "2h"])
def test_pmf_at_repeats_weekly(timebase):
    # one distinct pmf per (weekday, hour, carrier), so identity pins the context
    keyed = {
        (w, h, c): HoldingTimePmf.uniform(1, 2 + (w + h) % 4)
        for w in range(1, 8)
        for h in range(24)
        for c in ("c1", "c2")
    }
    pooled = KernelLevel((), {(): HoldingTimePmf.uniform(1, 9)})
    status = StatusKernel((KernelLevel(("weekday", "hour", "carrier"), keyed), pooled))
    kernel = TransitionKernel(1, {0: status}, timebase)
    week = timebase.slots_per_week
    for t in range(-2 * week - 3, 2 * week, 5):
        for carrier in ("c1", "c2"):
            expected = kernel.lookup(0, context_of(timebase, t, carrier=carrier))
            assert kernel.pmf_at(0, t, carrier=carrier) is expected
            assert kernel.pmf_at(0, t + week, carrier=carrier) is expected
            assert kernel.pmf_at(0, t - week, carrier=carrier) is expected
        assert kernel.pmf_at(0, t, carrier="c1") is not kernel.pmf_at(0, t, carrier="c2")


def test_pmf_at_raises_missing_kernel_on_every_call():
    found = HoldingTimePmf.point_mass(1)
    kernel = TransitionKernel(3, {1: pooled_status(found), 2: pooled_status(found)}, TB)
    for t in (5, 5, 5 + TB.slots_per_week, -5):
        with pytest.raises(MissingKernel, match="no kernel fitted for status 0"):
            kernel.pmf_at(0, t, carrier="c1")  # status never fitted
        with pytest.raises(MissingKernel, match="no kernel fitted for status 0"):
            kernel.row_at(0, t, carrier="c1")
        assert kernel.pmf_at(1, t, carrier="c1") is found


def test_context_of():
    ctx = context_of(TB, 34, carrier="c1", retailer="r2", pup="p")
    assert ctx == {"weekday": 2, "hour": 10, "carrier": "c1", "retailer": "r2", "pup": "p"}


def test_json_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    probs = np.zeros(8)
    probs[1:] = rng.dirichlet(np.ones(7))
    keyed = HoldingTimePmf(probs)
    kernel = TransitionKernel(
        2,
        {
            0: pooled_status(keyed),
            1: StatusKernel(
                (
                    KernelLevel(("weekday", "carrier"), {(1, "c1"): keyed, (2, "c2"): HoldingTimePmf.uniform(1, 2)}),
                    KernelLevel((), {(): HoldingTimePmf.point_mass(3)}),
                )
            ),
        },
        TB,
    )
    doc = json.loads(json.dumps(kernel.to_json_dict()))
    back = TransitionKernel.from_json_dict(doc)
    assert back.n_statuses == kernel.n_statuses
    assert back.timebase == kernel.timebase
    for n, sk in kernel.statuses.items():
        for lvl, lvl2 in zip(sk.levels, back.statuses[n].levels):
            assert lvl.schema == lvl2.schema
            for key, pmf in lvl.pmfs.items():
                key2 = tuple(key)  # JSON turns tuples into lists and back
                assert np.array_equal(pmf.probs, lvl2.pmfs[key2].probs)

    path = tmp_path / "kernel.json"
    kernel.save(path)
    loaded = TransitionKernel.load(path)
    path2 = tmp_path / "kernel2.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


# ---- compiled tables ----

ROUTES = [(c, r, p) for c in ("c1", "c2", "c3") for r in ("r1", "r2", "r3", None) for p in ("shop", None)]


def holed_kernel() -> TransitionKernel:
    """2-hour slots from a Wednesday 06:00.  A weekday x hour x carrier level
    with holes lies over a weekday-only level without weekends, over the
    pooled level: some slots resolve at each level.  A day's slots before
    06:00 belong to another weekday than the epoch's day offset."""
    rng = np.random.default_rng(13)
    by_hour = KernelLevel(
        ("weekday", "hour", "carrier"),
        {(w, h, c): random_pmf(rng, 4) for w in range(1, 8) for h in range(0, 24, 2) for c in ("c1", "c2") if (w + h // 2) % 3},
    )
    by_day = KernelLevel(("weekday",), {(w,): random_pmf(rng, 5) for w in range(1, 6)})
    pooled = KernelLevel((), {(): random_pmf(rng, 6)})
    timebase = Timebase(datetime(2024, 1, 3, 6), slot_hours=2)
    return TransitionKernel(1, {0: StatusKernel((by_hour, by_day, pooled))}, timebase)


@pytest.mark.parametrize(
    "kernel", [default_scenario().kernel, retailer_keyed_kernel(), holed_kernel()], ids=["default", "retailer-keyed", "2h-holes"]
)
def test_week_rows_name_the_pmf_lookup_returns(kernel):
    tb = kernel.timebase
    week = np.arange(tb.slots_per_week)
    for n in kernel.statuses:
        for carrier, retailer, pup in ROUTES:
            (rows,), table = kernel.week_rows(n, [(carrier, retailer)], pup)
            for s in week.tolist():
                ctx = context_of(tb, s, carrier, retailer, pup)
                assert table.pmfs[rows[s]] is kernel.lookup(n, ctx), (n, ctx)
                shift = (-3, 1, 5)[s % 3]  # any week, negative slots included
                assert kernel.row_at(n, s + shift * len(week), carrier, retailer, pup) == (rows[s], table)


@pytest.mark.parametrize("kernel", [default_scenario().kernel, retailer_keyed_kernel()], ids=["default", "retailer-keyed"])
def test_table_tails_are_the_survival_bit_for_bit(kernel):
    for n in kernel.statuses:
        table = kernel.row_at(n, 0)[1]
        support = table.probs.shape[1] - 1  # the longest support of the status
        for r, f in enumerate(table.pmfs):
            assert np.array_equal(table.probs[r], np.pad(f.probs, (0, support + 1 - len(f.probs))))
            survival = [f.survival(d) for d in range(-1, support + 1)]
            assert table.tails[r].tolist() == survival  # == on floats: bit for bit


def test_week_rows_keep_only_the_last_routes_per_status_and_pup():
    # every subset and order of routes stacks the per-route weeks, and the
    # kernel keeps one stack per (status, pup), not one per route list
    kernel = default_scenario().kernel
    pairs = [(c, r) for c in ("c1", "c2", "c3") for r in ("r1", "r2", None)]
    for pup in ("shop", None):
        kernel.week_rows(2, [], pup)  # the week of an unnamed route gives the table
        kernel.week_rows(2, pairs, pup)
    size = len(kernel._compiled)
    rng = np.random.default_rng(0)
    for _ in range(40):
        routes = [pairs[i] for i in rng.permutation(len(pairs))[: rng.integers(0, len(pairs) + 1)]]
        for pup in ("shop", None):
            stack, table = kernel.week_rows(2, routes, pup)
            assert not stack.flags.writeable and stack.shape == (len(routes), kernel.timebase.slots_per_week)
            for row, (c, r) in zip(stack, routes):
                assert np.array_equal(row, kernel._week(2, (c, r, pup))[0])
            assert table is kernel._compiled[2]  # status 2's table
    assert len(kernel._compiled) == size
