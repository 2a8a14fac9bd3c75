"""Calendar projections of the discrete time axis."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from pupcast import Timebase, default_scenario
from pupcast.errors import ValidationError

MONDAY = datetime(2024, 1, 1, 0)  # a Monday


def test_weekday_anchor_and_periodicity():
    tb = Timebase(MONDAY)
    assert tb.weekday_of(0) == 1
    assert tb.weekday_of(25) == 2
    assert tb.weekday_of(168) == 1
    for k in (3, 50, 999):
        assert tb.weekday_of(k + tb.slots_per_week) == tb.weekday_of(k)


def test_hour_of_examples():
    tb = Timebase(MONDAY)
    assert tb.hour_of(0) == 0
    assert tb.hour_of(25) == 1
    assert tb.hour_of(47) == 23


def test_calendar_library_oracle():
    # 1000 random slots checked against plain datetime arithmetic
    tb = Timebase(datetime(2017, 7, 5, 8))  # a Wednesday, 08:00
    rng = np.random.default_rng(42)
    for k in rng.integers(0, 100_000, size=1000):
        k = int(k)
        dt = tb.epoch + timedelta(hours=k)
        assert tb.weekday_of(k) == dt.isoweekday()
        assert tb.hour_of(k) == dt.hour
        assert tb.datetime_of(k) == dt
        assert tb.index_of(dt) == k


def test_slot_arrays_project_elementwise():
    # the estimators and the order rates project whole columns of slots at once
    for tb in (Timebase(datetime(2017, 7, 5, 8)), Timebase(datetime(2017, 7, 5, 22), slot_hours=2)):
        slots = np.arange(-60, 400, 7)
        days, weekdays, hours = tb.day_of(slots), tb.weekday_of(slots), tb.hour_of(slots)
        for k, day, weekday, hour in zip(slots.tolist(), days.tolist(), weekdays.tolist(), hours.tolist()):
            dt = tb.epoch + timedelta(hours=k * tb.slot_hours)
            assert tb.date_of(k) == dt.date() == tb.epoch.date() + timedelta(days=day)
            assert (weekday, hour) == (dt.isoweekday(), dt.hour)


def test_week_hour_is_weekday_and_hour():
    for tb in (Timebase(datetime(2017, 7, 9, 23)), Timebase(datetime(2017, 7, 5, 22), slot_hours=2)):
        slots = np.arange(-400, 400)
        expected = (tb.weekday_of(slots) - 1) * 24 + tb.hour_of(slots)
        assert tb.week_hour_of(slots).tolist() == expected.tolist()
        assert [tb.week_hour_of(k) for k in (-400, 0, 399)] == expected[[0, 400, 799]].tolist()


def test_numpy_slots_project_like_ints():
    # samplers hand numpy slot indices to kernels
    tb = Timebase(datetime(2017, 7, 5, 8))
    assert tb.datetime_of(np.int64(30)) == tb.datetime_of(30)
    kernel = default_scenario().kernel
    assert kernel.pmf_at(2, np.int64(10), carrier="c1") is kernel.pmf_at(2, 10, carrier="c1")


def test_multi_hour_slots_bin_to_slot_start():
    tb = Timebase(MONDAY, slot_hours=3)
    assert tb.slots_per_day == 8
    assert tb.hour_of(1) == 3
    assert tb.weekday_of(8) == 2
    assert tb.index_of(datetime(2024, 1, 1, 4)) == 1  # 04:00 falls in slot [3h, 6h)


def test_validation():
    with pytest.raises(ValidationError):
        Timebase(MONDAY, slot_hours=5)
    with pytest.raises(ValidationError):
        Timebase(datetime(2024, 1, 1, 0, 30))
    with pytest.raises(ValidationError):
        Timebase(datetime(2024, 1, 1, 1), slot_hours=2)


def test_json_round_trip():
    tb = Timebase(datetime(2017, 7, 3, 6), slot_hours=2)
    assert Timebase.from_json_dict(tb.to_json_dict()) == tb
