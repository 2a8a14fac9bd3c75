"""Parcel records and event log CSV I/O."""

import pytest

from pupcast import EventLog, ParcelRecord
from pupcast.errors import EmptyLog, ValidationError

from helpers import TB


def rec(pid="P1", entries=None, carrier="c1", pup="shop", retailer="r1"):
    return ParcelRecord(pid, carrier, pup, retailer, dict(entries or {}))


def test_entry_times_strictly_increasing():
    rec(entries={2: 10, 3: 20}).validate()
    with pytest.raises(ValidationError):
        rec(entries={2: 10, 3: 10}).validate()
    with pytest.raises(ValidationError):
        rec(entries={2: 10, 3: 5}).validate()


def test_status_at():
    r = rec(entries={2: 10, 3: 20, 4: 50})
    assert r.status_at(5) is None
    assert r.status_at(10) == 2
    assert r.status_at(20) == 3
    assert r.status_at(49) == 3
    assert r.status_at(1000) == 4


def test_log_rejects_events_beyond_cutoff():
    with pytest.raises(ValidationError):
        EventLog([rec(entries={2: 10, 3: 20})], cutoff=15, timebase=TB)


def test_for_pup_and_truncated():
    log = EventLog(
        [
            rec("P1", {2: 10, 3: 20}),
            rec("P2", {2: 12}, pup="other"),
            rec("P3", {2: 30}),
        ],
        cutoff=40,
        timebase=TB,
    )
    assert [r.id for r in log.for_pup("shop")] == ["P1", "P3"]
    early = log.truncated(15)
    assert early.cutoff == 15
    assert [r.id for r in early.records] == ["P1", "P2"]
    assert early.records[0].entry_times == {2: 10}  # later delivery censored
    with pytest.raises(ValidationError):
        log.truncated(50)


def test_csv_round_trip(tmp_path):
    log = EventLog(
        [rec("P1", {2: 10, 3: 20}), rec("P2", {2: 12, 3: 40}, retailer=None)],
        cutoff=40,
        timebase=TB,
    )
    path = tmp_path / "events.csv"
    log.to_csv(path)
    back = EventLog.from_csv(path, TB)
    assert len(back.records) == 2
    assert back.records[0].entry_times == {2: 10, 3: 20}
    assert back.records[1].retailer is None
    assert back.cutoff == 40

    # deterministic output
    path2 = tmp_path / "events2.csv"
    back.to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "parcel_id,retailer,carrier,pup,status,entry_iso8601\n"
        "P1,r1,c1,shop,2,2024-01-01T10:00:00\n"
        "P1,r1,c1,shop,three,2024-01-02T10:00:00\n"
    )
    with pytest.raises(ValidationError, match=":3"):
        EventLog.from_csv(path, TB)


def test_timezone_aware_timestamp_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "parcel_id,retailer,carrier,pup,status,entry_iso8601\n"
        "P1,r1,c1,shop,2,2024-01-01T10:00:00\n"
        "P1,r1,c1,shop,3,2024-01-03T08:00:00+02:00\n"
    )
    with pytest.raises(ValidationError, match=r"bad\.csv:3"):
        EventLog.from_csv(path, TB)


def test_missing_header_and_empty_file(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("P1,r1,c1,shop,2,2024-01-01T10:00:00\n")
    with pytest.raises(ValidationError, match="header"):
        EventLog.from_csv(path, TB)
    path.write_text("parcel_id,retailer,carrier,pup,status,entry_iso8601\n")
    with pytest.raises(EmptyLog):
        EventLog.from_csv(path, TB)


def test_duplicate_status_and_attribute_change(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(
        "parcel_id,retailer,carrier,pup,status,entry_iso8601\n"
        "P1,r1,c1,shop,2,2024-01-01T10:00:00\n"
        "P1,r1,c1,shop,2,2024-01-02T10:00:00\n"
    )
    with pytest.raises(ValidationError, match="duplicate"):
        EventLog.from_csv(path, TB)
    path.write_text(
        "parcel_id,retailer,carrier,pup,status,entry_iso8601\n"
        "P1,r1,c1,shop,2,2024-01-01T10:00:00\n"
        "P1,r1,c2,shop,3,2024-01-02T10:00:00\n"
    )
    with pytest.raises(ValidationError, match="carrier"):
        EventLog.from_csv(path, TB)
