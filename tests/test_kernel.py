"""Transition kernel lookup, fallback levels and serialization."""

import json
from datetime import datetime

import numpy as np
import pytest

from pupcast import HoldingTimePmf, KernelLevel, StatusKernel, Timebase, TransitionKernel
from pupcast.errors import MissingKernel, UnknownStatus, ValidationError
from pupcast.kernel import context_of

from helpers import TB, pooled_status


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
    status = StatusKernel((KernelLevel(("carrier",), {("c1",): HoldingTimePmf.point_mass(1)}),))
    kernel = TransitionKernel(3, {0: status}, TB)
    with pytest.raises(MissingKernel):
        kernel.lookup(1, {})  # status never fitted
    with pytest.raises(MissingKernel):
        kernel.lookup(0, {"carrier": "c9"})  # no pooled level
    with pytest.raises(MissingKernel):
        status.coarsest()


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
    status = StatusKernel((KernelLevel(("weekday", "hour", "carrier"), keyed),))
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
    status = StatusKernel((KernelLevel(("carrier",), {("c1",): found}),))
    kernel = TransitionKernel(3, {0: status}, TB)
    for t in (5, 5, 5 + TB.slots_per_week, -5):
        with pytest.raises(MissingKernel):
            kernel.pmf_at(0, t, carrier="c9")  # no pooled level
        with pytest.raises(MissingKernel):
            kernel.pmf_at(1, t, carrier="c1")  # status never fitted
        assert kernel.pmf_at(0, t, carrier="c1") is found
    assert [key[2] for key in kernel._memo] == ["c1", "c1"]  # 5 and -5 are different week slots


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
