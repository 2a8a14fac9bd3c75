"""Parcel records and event log CSV I/O."""

import cProfile
import csv
import functools
import inspect
import io
import pstats
import tracemalloc
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pupcast import EventLog, ParcelRecord, Timebase
from pupcast.records import CSV_HEADER, MAX_SPAN_DAYS, NEVER
from pupcast.errors import EmptyLog, ValidationError

from helpers import TB, write_rows


def rec(pid="P1", entries=None, carrier="c1", pup="shop", retailer="r1"):
    return ParcelRecord(pid, carrier, pup, retailer, dict(entries or {}))


def test_entry_times_strictly_increasing():
    EventLog([rec(entries={2: 10, 3: 20})], NEVER, TB)
    with pytest.raises(ValidationError):
        EventLog([rec(entries={2: 10, 3: 10})], NEVER, TB)
    with pytest.raises(ValidationError):
        EventLog([rec(entries={2: 10, 3: 5})], NEVER, TB)


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
    assert [r.id for r in log.for_pup("shop")] == ["P1", "P3"]  # two pups: a view of one
    assert [r.id for r in log.for_pup("other")] == ["P2"] and log.for_pup("other").pups == ("other",)
    shop = log.for_pup("shop")
    assert shop.for_pup("shop") is shop  # a log of one pup label is its own view of it
    assert len(shop.for_pup("other")) == 0 and shop.for_pup("other").pup_name() == "other"
    early = log.truncated(15)
    assert early.cutoff == 15
    assert [r.id for r in early.records] == ["P1", "P2"]
    assert early.records[0].entry_times == {2: 10}  # later delivery censored
    with pytest.raises(ValidationError):
        log.truncated(50)


def in_both_forms(test):
    """Runs a CSV test twice: ``write(path, text)`` writes the rows as they
    are, then with every field quoted.  Each form must give the same log, or
    the same message naming the same line."""
    forms = {
        "as written": lambda path, text: path.write_bytes(text if isinstance(text, bytes) else text.encode()),
        "with every field quoted": lambda path, text: write_rows(path, text, csv.QUOTE_ALL),
    }
    signature = inspect.signature(test)

    @functools.wraps(test)
    def run(**fixtures):
        for form, write in forms.items():
            try:
                test(write=write, **fixtures)
            except Exception as exc:
                exc.add_note(f"the rows {form}")
                raise

    run.__signature__ = signature.replace(parameters=[p for p in signature.parameters.values() if p.name != "write"])
    return run


@in_both_forms
def test_csv_round_trip(tmp_path, write):
    log = EventLog(
        [rec("P1", {2: 10, 3: 20}), rec("P2", {2: 12, 3: 40}, retailer=None)],
        cutoff=40,
        timebase=TB,
    )
    path = tmp_path / "events.csv"
    log.to_csv(path)
    written = path.read_bytes()
    write(path, written)
    back = EventLog.from_csv(path, TB)
    assert len(back.records) == 2
    assert back.records[0].entry_times == {2: 10, 3: 20}
    assert back.records[1].retailer is None
    assert back.cutoff == 40

    # deterministic output
    path2 = tmp_path / "events2.csv"
    back.to_csv(path2)
    assert written == path2.read_bytes()


@in_both_forms
def test_malformed_row_names_line(tmp_path, write):
    path = tmp_path / "bad.csv"
    write(
        path,
        "parcel_id,retailer,carrier,pup,status,entry_iso8601\n"
        "P1,r1,c1,shop,2,2024-01-01T10:00:00\n"
        "P1,r1,c1,shop,three,2024-01-02T10:00:00\n"
    )
    with pytest.raises(ValidationError, match=":3"):
        EventLog.from_csv(path, TB)


@in_both_forms
def test_timezone_aware_timestamp_names_line(tmp_path, write):
    path = tmp_path / "bad.csv"
    write(
        path,
        "parcel_id,retailer,carrier,pup,status,entry_iso8601\n"
        "P1,r1,c1,shop,2,2024-01-01T10:00:00\n"
        "P1,r1,c1,shop,3,2024-01-03T08:00:00+02:00\n"
    )
    with pytest.raises(ValidationError, match=r"bad\.csv:3"):
        EventLog.from_csv(path, TB)


@in_both_forms
def test_undecodable_line_is_named(tmp_path, write):
    # the reader decodes the file in blocks, so line 300 is past the first
    # block and the named line is not the csv reader's line at the error
    path = tmp_path / "latin.csv"
    rows = [b"parcel_id,retailer,carrier,pup,status,entry_iso8601\n"]
    rows += [f"P{i},r1,c1,shop,2,2024-01-01T10:00:00\n".encode() for i in range(1, 400)]
    rows[299] = b"\xff" + rows[299]
    rows[349] = b"P349,r\xe9,c1,shop,2,2024-01-01T10:00:00\n"
    write(path, b"".join(rows))
    with pytest.raises(ValidationError, match=r"latin\.csv:300: not UTF-8"):
        EventLog.from_csv(path, TB)
    write(path, b"\xef" + b"".join(rows[:2]))  # in the header
    with pytest.raises(ValidationError, match=r"latin\.csv:1: not UTF-8"):
        EventLog.from_csv(path, TB)


@in_both_forms
def test_a_faulty_row_before_an_undecodable_line_of_its_block_is_named(tmp_path, write):
    # both lines fall in the first block the reader decodes, before the loop reaches line 3
    path = tmp_path / "two.csv"
    write(
        path,
        b"parcel_id,retailer,carrier,pup,status,entry_iso8601\n"
        b"P1,r1,c1,shop,2,2024-01-01T09:00:00\n"
        b"P1,r1,c1,shop,three,2024-01-01T10:00:00\n"
        b"P2,r\xe9,c1,shop,2,2024-01-01T10:00:00\n"
    )
    with pytest.raises(ValidationError, match=r"two\.csv:3: "):
        EventLog.from_csv(path, TB)
    # a bad byte inside a quoted id that spans two lines: the row is not UTF-8, not short of fields
    write(
        path,
        b"parcel_id,retailer,carrier,pup,status,entry_iso8601\n"
        b"P1,r1,c1,shop,2,2024-01-01T09:00:00\n"
        b'"P\n\xe92",r1,c1,shop,2,2024-01-01T10:00:00\n'
    )
    with pytest.raises(ValidationError, match=r"two\.csv:4: not UTF-8"):
        EventLog.from_csv(path, TB)


@in_both_forms
def test_missing_header_and_empty_file(tmp_path, write):
    path = tmp_path / "events.csv"
    write(path, "P1,r1,c1,shop,2,2024-01-01T10:00:00\n")
    with pytest.raises(ValidationError, match="header"):
        EventLog.from_csv(path, TB)
    write(path, 'parcel_id,retailer,"carrier,pup",status,entry_iso8601\nP1,r1,c1,shop,2,2024-01-01T10:00:00\n')
    with pytest.raises(ValidationError, match=r"header .*'carrier,pup'"):  # five fields, one with a comma
        EventLog.from_csv(path, TB)
    write(path, "parcel_id,retailer,carrier,pup,status,entry_iso8601\n")
    with pytest.raises(EmptyLog):
        EventLog.from_csv(path, TB)


@in_both_forms
def test_duplicate_status_and_attribute_change(tmp_path, write):
    path = tmp_path / "events.csv"
    write(
        path,
        "parcel_id,retailer,carrier,pup,status,entry_iso8601\n"
        "P1,r1,c1,shop,2,2024-01-01T10:00:00\n"
        "P1,r1,c1,shop,2,2024-01-02T10:00:00\n"
    )
    with pytest.raises(ValidationError, match="duplicate"):
        EventLog.from_csv(path, TB)
    write(
        path,
        "parcel_id,retailer,carrier,pup,status,entry_iso8601\n"
        "P1,r1,c1,shop,2,2024-01-01T10:00:00\n"
        "P1,r1,c2,shop,3,2024-01-02T10:00:00\n"
    )
    with pytest.raises(ValidationError, match="carrier"):
        EventLog.from_csv(path, TB)


def test_columns_latest_status_and_row_order():
    log = EventLog(
        [rec("P2", {2: 10, 3: 20, 4: 30}), rec("P1", {2: 12}, retailer=None), rec("P3", {3: 25}, pup="other")],
        cutoff=40,
        timebase=TB,
    )
    assert log.statuses.tolist() == [2, 3, 4]
    assert [r.id for r in log] == ["P2", "P1", "P3"]  # rows keep the order they were given in
    assert log.records[1] == rec("P1", {2: 12}, retailer=None)
    rows, status, slot = log.latest(22, below=5)
    assert (rows.tolist(), status.tolist(), slot.tolist()) == ([0, 1], [3, 2], [20, 12])
    rows, status, slot = log.latest(35, below=4)  # P2 has entered status 4 by then
    assert (rows.tolist(), status.tolist(), slot.tolist()) == ([1, 2], [2, 3], [12, 25])
    assert log.entries_of(3).tolist() == [20, NEVER, 25]
    assert log.entries_of(7).tolist() == [NEVER] * 3
    assert len(log.truncated(9)) == 0
    assert [r.entry_times for r in log.truncated(26)] == [{2: 10, 3: 20}, {2: 12}, {3: 25}]
    empty = log.for_pup("elsewhere")
    assert len(empty) == 0 and empty.pup_name() == "elsewhere"
    with pytest.raises(ValidationError, match=r"parcels target multiple pups: \['other', 'shop'\]"):
        log.pup_name()
    assert log.truncated(12).pup_name() == "shop"
    assert log.truncated(9).pup_name() == "" and EventLog([], NEVER, TB).pup_name() == ""


@st.composite
def parcels(draw):
    """Records whose statuses may skip, entered at increasing slots that may precede the epoch."""
    records = []
    for i in range(draw(st.integers(0, 12))):
        statuses = sorted(draw(st.sets(st.integers(0, 4), max_size=5)))
        slots = sorted(draw(st.sets(st.integers(-60, 60), min_size=len(statuses), max_size=len(statuses))))
        pup = draw(st.sampled_from(["shop", "other"]))
        records.append(rec(f"P{i}", dict(zip(statuses, slots)), pup=pup, retailer=draw(st.sampled_from(["r1", None]))))
    return records


@settings(max_examples=150, deadline=None)
@given(parcels(), st.data(), st.sampled_from([None, "shop", "nowhere"]))
def test_latest_and_truncated_match_each_record(records, data, pup):
    # k anywhere, or just before, at or just after an entry; every below, from
    # none of the statuses to all of them; on the log or a view, and truncated at k
    log = EventLog(records, cutoff=60, timebase=TB)
    if pup is not None:  # a view, possibly empty
        log = log.for_pup(pup)
        records = [r for r in records if r.pup == pup]
    near = [t + d for r in records for t in r.entry_times.values() for d in (-1, 0, 1)]
    k = data.draw(st.integers(-70, 60) | st.sampled_from(near or [0]))
    early = log.truncated(min(k, 60))
    # the reference: each record's highest status entered by k
    reached = [max((n for n, t in r.entry_times.items() if t <= k), default=None) for r in records]
    for below in range(-1, 7):
        for on in (log, early):
            rows, status, slot = on.latest(k, below)
            expected = [(i, n) for i, n in enumerate(reached) if n is not None]
            if on is early:  # its rows are the parcels with an entry by k
                expected = list(enumerate(n for _, n in expected))
            got = list(zip(rows.tolist(), status.tolist(), slot.tolist()))
            assert got == [(i, n, on.records[i].entry_times[n]) for i, n in expected if n < below]
    if k <= 60:
        seen = [
            ParcelRecord(r.id, r.carrier, r.pup, r.retailer, {n: t for n, t in r.entry_times.items() if t <= k})
            for r in records
            if any(t <= k for t in r.entry_times.values())
        ]
        assert early.records == seen
        assert early.cutoff == k and early.entries.shape == (len(seen), len(log.statuses))


def test_views_take_their_ids_when_read():
    log = EventLog([rec("P1", {2: 10}), rec("P2", {2: 12}, pup="other"), rec("P3", {2: 30})], cutoff=40, timebase=TB)
    view = log.truncated(20).for_pup("shop")
    assert "ids" not in vars(view) and len(view) == 1
    assert view.ids.tolist() == ["P1"] and [r.id for r in view] == ["P1"]


@in_both_forms
def test_csv_order_error_names_line(tmp_path, write):
    path = tmp_path / "bad.csv"
    write(
        path,
        "parcel_id,retailer,carrier,pup,status,entry_iso8601\n"
        "P1,r1,c1,shop,3,2024-01-01T09:00:00\n"
        "P2,r1,c1,shop,2,2024-01-01T08:00:00\n"
        "P1,r1,c1,shop,2,2024-01-01T10:00:00\n"
    )
    with pytest.raises(ValidationError, match=r"bad\.csv:2: parcel P1: entry into status 3 at slot 9 does not follow"):
        EventLog.from_csv(path, TB)


@in_both_forms
def test_duplicate_and_out_of_range_status_name_their_line(tmp_path, write):
    path = tmp_path / "bad.csv"
    head = "parcel_id,retailer,carrier,pup,status,entry_iso8601\n"
    write(
        path,
        head
        + "P2,r1,c1,shop,2,2024-01-01T08:00:00\n"
        + "P1,r1,c1,shop,2,2024-01-01T09:00:00\n"
        + "P1,r1,c1,shop,3,2024-01-01T10:00:00\n"
        + "P2,r1,c1,shop,3,2024-01-01T11:00:00\n"
        + "P1,r1,c1,shop,2,2024-01-01T12:00:00\n"
        + "P2,r1,c1,shop,2,2024-01-01T13:00:00\n"
    )
    with pytest.raises(ValidationError, match=r"bad\.csv:6: duplicate status 2 for parcel P1"):
        EventLog.from_csv(path, TB)
    write(path, head + "P1,r1,c1,shop,2,2024-01-01T08:00:00\nP1,r1,c1,shop,99999999999999999999,2024-01-01T09:00:00\n")
    with pytest.raises(ValidationError, match=r"bad\.csv:3"):
        EventLog.from_csv(path, TB)


ODD_IDS = st.text(alphabet='ab,"\n\r x', min_size=1, max_size=6)  # exercise the csv quoting


@st.composite
def odd_logs(draw):
    """A valid log of parcels with odd ids, its rows in id order, and its cutoff as read from CSV."""
    records = []
    for pid in sorted(draw(st.sets(ODD_IDS, min_size=1, max_size=8))):
        statuses = sorted(draw(st.sets(st.integers(0, 4), min_size=1, max_size=5)))
        slots = sorted(draw(st.sets(st.integers(-60, 60), min_size=len(statuses), max_size=len(statuses))))
        carrier, pup = draw(st.sampled_from(["c1", "c,2"])), draw(st.sampled_from(["shop", 'the "other"']))
        records.append(rec(pid, dict(zip(statuses, slots)), carrier, pup, draw(st.sampled_from(["r1", None]))))
    cutoff = max(0, max(t for r in records for t in r.entry_times.values()))
    return EventLog(records, cutoff, TB)


@settings(max_examples=60, deadline=None)
@given(odd_logs(), st.randoms(use_true_random=False), st.integers(0, 4))
def test_csv_round_trip_of_shuffled_rows_with_blank_lines(tmp_path_factory, log, random, blanks):
    path = tmp_path_factory.mktemp("csv") / "events.csv"
    log.to_csv(path)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    random.shuffle(rows)
    for _ in range(blanks):
        rows.insert(random.randrange(len(rows) + 1), [])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    back = EventLog.from_csv(path, TB)
    assert back.ids.tolist() == log.ids.tolist()
    assert (back.carriers, back.pups, back.retailers) == (log.carriers, log.pups, log.retailers)
    for column in ("carrier", "pup", "retailer", "statuses", "entries"):
        assert np.array_equal(getattr(back, column), getattr(log, column))
    assert back.cutoff == log.cutoff


def row_by_row_csv(log) -> bytes:
    """The log's CSV from one csv.writer row per entry: parcels by id, statuses ascending."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(CSV_HEADER)
    for r in sorted(log, key=lambda r: r.id):
        for n, t in sorted(r.entry_times.items()):
            writer.writerow([r.id, r.retailer or "", r.carrier, r.pup, n, log.timebase.datetime_of(t).isoformat()])
    return text.getvalue().encode()


@settings(max_examples=60, deadline=None)
@given(odd_logs())
def test_to_csv_writes_the_bytes_of_a_row_by_row_writer(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("csv") / "events.csv"
    log.to_csv(path)
    assert path.read_bytes() == row_by_row_csv(log)


HEAD = "parcel_id,retailer,carrier,pup,status,entry_iso8601\n"
CARRIER_CHANGE = "P1,r1,c2,shop,3,2024-01-01T11:00:00\n"
BAD_TIMESTAMP = "P2,r1,c1,shop,3,2024-01-01T25:00:00\n"


@pytest.mark.parametrize(
    "third, fifth, named",
    [(CARRIER_CHANGE, BAD_TIMESTAMP, r"bad\.csv:3: parcel P1 changes carrier"),
     (BAD_TIMESTAMP, CARRIER_CHANGE, r"bad\.csv:3: .*hour")],
    ids=["carrier change first", "bad timestamp first"],
)
@in_both_forms
def test_the_earlier_of_two_faults_is_named(tmp_path, third, fifth, named, write):
    path = tmp_path / "bad.csv"
    write(
        path,
        HEAD + "P1,r1,c1,shop,2,2024-01-01T09:00:00\n" + third
        + "P2,r1,c1,shop,2,2024-01-01T10:00:00\n" + fifth
    )
    with pytest.raises(ValidationError, match=named):
        EventLog.from_csv(path, TB)


SPANNING_ID = '"P\n1",r1,c1,shop,2,2024-01-01T09:00:00\n'  # a quoted id over lines 2-3


@pytest.mark.parametrize(
    "rows, named",
    [("P2,r1,c1,shop,three,2024-01-01T10:00:00\n", r"bad\.csv:4: "),
     ("P2,r1,c1,shop,2,2024-01-01T10:00:00\nP2,r1,c1,shop,2,2024-01-01T11:00:00\n", r"bad\.csv:5: duplicate")],
    ids=["bad status", "duplicate status"],
)
@in_both_forms
def test_rows_after_a_quoted_line_break_are_named_by_their_line(tmp_path, rows, named, write):
    path = tmp_path / "bad.csv"
    write(path, HEAD + SPANNING_ID + rows)
    with pytest.raises(ValidationError, match=named):
        EventLog.from_csv(path, TB)


@in_both_forms
def test_each_timestamp_text_is_converted_once(tmp_path, monkeypatch, write):
    path = tmp_path / "events.csv"
    write(
        path,
        HEAD
        + "P1,r1,c1,shop,2,2024-01-01T09:00:00\nP2,r1,c1,shop,2,2024-01-01T09:00:00\n"
        + "P1,r1,c1,shop,3,2024-01-01T12:00:00\nP2,r1,c1,shop,3,2024-01-01T12:00:00\n"
        + "P3,r1,c1,shop,2,2024-01-01T09:00:00\nP3,r1,c1,shop,3,2024-01-01T10:30:00\n"
    )
    seen = []
    index_of = Timebase.index_of
    monkeypatch.setattr(Timebase, "index_of", lambda self, dt: seen.append(dt) or index_of(self, dt))
    log = EventLog.from_csv(path, TB)
    assert sorted(seen) == [datetime(2024, 1, 1, 9), datetime(2024, 1, 1, 10, 30), datetime(2024, 1, 1, 12)]
    assert log.entries.tolist() == [[9, 12], [9, 12], [9, 10]]


@in_both_forms
def test_entries_may_span_ten_years_and_no_more(tmp_path, write):
    path = tmp_path / "span.csv"
    last = TB.datetime_of(MAX_SPAN_DAYS * 24)
    write(path, HEAD + "P1,r1,c1,shop,2,2024-01-01T00:00:00\nP2,r1,c1,shop,2,2024-01-01T05:00:00\n"
          + f"P1,r1,c1,shop,3,{last.isoformat()}\n")
    assert EventLog.from_csv(path, TB).cutoff == MAX_SPAN_DAYS * 24
    later = last + timedelta(hours=1)
    write(path, HEAD + "P1,r1,c1,shop,2,2024-01-01T00:00:00\nP2,r1,c1,shop,2,2024-01-01T05:00:00\n"
          + f"P1,r1,c1,shop,3,{later.isoformat()}\n")
    with pytest.raises(ValidationError, match=rf"span\.csv:4: entry at {later.isoformat()} .* {MAX_SPAN_DAYS} days"):
        EventLog.from_csv(path, TB)
    # the entry named is the one farther from the median, here the earliest
    write(path, HEAD + "P1,r1,c1,shop,2,2024-01-01T00:00:00\nP0,r1,c1,shop,2,1900-01-01T00:00:00\n"
          + "P2,r1,c1,shop,2,2024-01-02T00:00:00\n")
    with pytest.raises(ValidationError, match=r"span\.csv:3: entry at 1900-01-01T00:00:00"):
        EventLog.from_csv(path, TB)


def test_line_ends_blank_lines_and_a_last_row_without_one_read_alike(tmp_path):
    rows = [CSV_HEADER, ["P1", "r1", "c1", "shop", "2", "2024-01-01T09:00:00"],
            ["P2", "", "c1", "shop", "2", "2024-01-01T10:00:00"],
            ["P1", "r1", "c1", "shop", "3", "2024-01-01T12:00:00"]]
    logs = []
    forms = [(q, e) for q in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL) for e in ("\n", "\r\n", "\r")]
    for i, (quoting, end) in enumerate(forms):
        path = tmp_path / f"events{i}.csv"
        write_rows(path, rows[:2] + [[], []] + rows[2:], quoting, end)  # two blank lines
        logs.append(EventLog.from_csv(path, TB))
        path.write_bytes(path.read_bytes().removesuffix(end.encode()))  # no line end after the last row
        logs.append(EventLog.from_csv(path, TB))
    for log in logs:
        assert log.ids.tolist() == ["P1", "P2"] and log.retailers == ("r1", None)
        assert log.entries.tolist() == [[9, 12], [10, NEVER]] and log.cutoff == 12


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_a_fault_after_blank_lines_names_its_line_and_a_blank_first_line_is_no_header(tmp_path, end):
    path = tmp_path / "events.csv"
    rows = "P1,r1,c1,shop,2,2024-01-01T09:00:00\n\n\nP1,r1,c1,shop,x,2024-01-01T12:00:00\n"
    write_rows(path, f"{HEAD}\n{rows}", lineterminator=end)
    with pytest.raises(ValidationError, match=r"events\.csv:6: invalid literal"):
        EventLog.from_csv(path, TB)
    write_rows(path, f"\n{HEAD}P1,r1,c1,shop,2,2024-01-01T09:00:00\n", lineterminator=end)
    with pytest.raises(ValidationError, match=r"bad or missing header in .*events\.csv: \[\]$"):
        EventLog.from_csv(path, TB)


def test_a_bare_carriage_return_ends_a_row_as_csv_reader_ends_it(tmp_path):
    path = tmp_path / "events.csv"
    path.write_bytes(f"{HEAD}P1,r1\r,c1,shop,2,2024-01-01T09:00:00\n".encode())
    with pytest.raises(ValidationError, match=r"events\.csv:2: expected 6 fields"):
        EventLog.from_csv(path, TB)


@pytest.mark.parametrize("other", ["P1\0", "P1 "])
def test_ids_apart_by_a_trailing_nul_or_space_are_two_parcels(tmp_path, other):
    path = tmp_path / "events.csv"
    write_rows(path, [CSV_HEADER, ["P1", "r1", "c1", "shop", "2", "2024-01-01T09:00:00"],
                      [other, "r1", "c1", "shop", "2", "2024-01-01T10:00:00"]])
    log = EventLog.from_csv(path, TB)
    assert log.ids.tolist() == ["P1", other] and log.entries.tolist() == [[9], [10]]


@pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL], ids=["as written", "quoted"])
def test_non_ascii_ids_keep_code_point_order(tmp_path, quoting):
    ids = ["z", "é", "€", "😀", "a", "Z", "ab", "aé", "É", "ё"]
    ids += ["é" * 5, "€" * 4, "z" * 9]
    path = tmp_path / "events.csv"
    write_rows(path, [CSV_HEADER] + [[i, "r1", "c1", "shöp", "2", "2024-01-01T09:00:00"] for i in ids], quoting)
    log = EventLog.from_csv(path, TB)
    assert log.ids.tolist() == sorted(ids) and log.pups == ("shöp",)


@pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL], ids=["as written", "quoted"])
def test_a_field_over_the_csv_field_limit_names_its_line(tmp_path, quoting):
    path = tmp_path / "long.csv"
    write_rows(path, [CSV_HEADER, ["P1", "r1", "c1", "shop", "2", "2024-01-01T09:00:00"],
                      ["P" * 200_000, "r1", "c1", "shop", "2", "2024-01-01T10:00:00"]], quoting)
    limit = csv.field_size_limit()
    with pytest.raises(ValidationError, match=rf"long\.csv:3: field larger than field limit \({limit}\)"):
        EventLog.from_csv(path, TB)


def test_reading_a_log_with_one_long_id_takes_memory_for_the_file_not_for_every_row_that_wide(tmp_path):
    # as written, and every field quoted with a comma in the long id
    path = tmp_path / "events.csv"
    rows = [[f"P{i}", "r1", "c1", "shop", "2", "2024-01-01T09:00:00"] for i in range(2_000)]
    for long_id, quoting in [("P" * 100_000, csv.QUOTE_MINIMAL), ("P" * 50_000 + "," + "P" * 49_999, csv.QUOTE_ALL)]:
        rows[1_000][0] = long_id
        write_rows(path, [CSV_HEADER] + rows, quoting)
        tracemalloc.start()
        try:
            log = EventLog.from_csv(path, TB)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(log) == 2_000 and long_id in log.ids
        assert peak < 10 * path.stat().st_size  # a block of 2,000 rows x 100,000 bytes is 200 MB


# fields QUOTE_MINIMAL must quote, a NUL, and fields over 64 bytes
IDS = ["P1", "P2", "P1 ", "é", "€", "", "P\x0c3", "P,1", 'P"1', "P\n1", "P\r1", "P1\0", "Q" * 70]
RETAILERS, CARRIERS, PUPS = ["r1", "", "r,1", 'r "1"', "R" * 70], ["c1", "c2", "c\r\n2"], ["shop", "shöp", 'sh"op']
FIELDS = [
    st.sampled_from(IDS),
    st.sampled_from(RETAILERS + ["r\udce9"]),  # \udce9: the byte 0xe9, not UTF-8
    st.sampled_from(CARRIERS),
    st.sampled_from(PUPS),
    st.sampled_from(["2", "3", "4", "+3", "x", "99999999999999999999"]),
    st.sampled_from(["2024-01-01T09:00:00", "2024-01-01T10:00:00", "2024-01-02T09:00:00", "2024-01-01T25:00:00",
                     "2024-01-01T09:00:00+02:00", "2044-01-01T09:00:00"]),
]
ROWS = st.lists(
    st.tuples(*FIELDS).map(list) | st.sampled_from([[], ["P9", "r1"], ["P9", "r1", "c1", "shop", "2", "x", "y"]]),
    max_size=12,
)
STAMPS = {2: "2024-01-01T09:00:00", 3: "2024-01-01T10:00:00", 4: "2024-01-02T09:00:00"}


@st.composite
def parcel_rows(draw):
    """The rows of a valid log, shuffled: each parcel keeps its route, and its entries follow their statuses."""
    ids, retailers, carriers, pups = map(st.sampled_from, (IDS, RETAILERS, CARRIERS, PUPS))
    rows = []
    for pid in draw(st.sets(ids, max_size=6)):
        route = [draw(retailers), draw(carriers), draw(pups)]
        rows += [[pid, *route, str(n), STAMPS[n]] for n in draw(st.sets(st.sampled_from(list(STAMPS)), min_size=1))]
    return draw(st.permutations(rows))


def log_of_rows(rows) -> EventLog:
    """The log of csv.reader's rows of a valid file: parcels by id, each routed as at its first row."""
    parcels = {}
    for pid, retailer, carrier, pup, status, stamp in filter(None, rows[1:]):
        parcel = parcels.setdefault(pid, ParcelRecord(pid, carrier, pup, retailer or None))
        parcel.entry_times[int(status)] = TB.index_of(datetime.fromisoformat(stamp))
    slots = [t for parcel in parcels.values() for t in parcel.entry_times.values()]
    return EventLog([parcels[pid] for pid in sorted(parcels)], max([0, *slots]), TB)


@settings(max_examples=150, deadline=None)
@given(ROWS | parcel_rows(), st.sampled_from(["\n", "\r\n"]))
def test_the_reader_reads_what_csv_reader_reads(tmp_path_factory, rows, end):
    # written with quotes where needed, then around every field: a file that
    # csv.reader reads gives the log of its rows, and two files of the same
    # rows give the same log or the same message
    outcomes = []
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        path = tmp_path_factory.mktemp("csv") / "events.csv"
        write_rows(path, [CSV_HEADER] + rows, quoting, end)
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            read = list(csv.reader(fh))
        try:
            log = EventLog.from_csv(path, TB)
        except (ValidationError, EmptyLog) as exc:
            outcomes.append((read, type(exc), str(exc).replace(str(path.parent), "")))
            continue
        expected = log_of_rows(read)
        assert log.ids.tolist() == expected.ids.tolist() and log.cutoff == expected.cutoff
        for column in ("carriers", "pups", "retailers", "carrier", "pup", "retailer", "statuses", "entries"):
            assert np.array_equal(getattr(log, column), getattr(expected, column)), column
        outcomes.append((read, log.ids.tolist(), log.entries.tolist()))
    # QUOTE_MINIMAL leaves a field's \r bare unless the line end holds one,
    # and csv.reader ends a line there: only then do the two files differ
    bare_cr = end == "\n" and any("\r" in f and not {",", '"', "\n"} & set(f) for row in rows for f in row)
    assert (outcomes[0][0] != outcomes[1][0]) == bare_cr
    if not bare_cr:
        assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "field", ['P"2', 'P"2"', '"P2"x', '"P2'],
    ids=["in a bare field", "quoted in a bare field", "after a closing quote", "never closed"],
)
def test_a_quote_out_of_place_names_its_line(tmp_path, field):
    # RFC 4180: a quote opens a field, closes it, or is doubled inside it
    path = tmp_path / "bad.csv"
    path.write_text(HEAD + "P1,r1,c1,shop,2,2024-01-01T09:00:00\n" + f"{field},r1,c1,shop,2,2024-01-01T10:00:00\n"
                    + "P1,r1,c1,shop,3,2024-01-01T11:00:00\n")
    with pytest.raises(ValidationError, match=r"bad\.csv:3: quote out of place"):
        EventLog.from_csv(path, TB)
    path.write_text(HEAD + "P1,r1,c1,shop,two,2024-01-01T09:00:00\n" + f"{field},r1,c1,shop,2,2024-01-01T10:00:00\n")
    with pytest.raises(ValidationError, match=r"bad\.csv:2: invalid literal"):  # a fault in an earlier row comes first
        EventLog.from_csv(path, TB)


def generated_rows(n_rows: int) -> list[list[str]]:
    """The rows of a valid log like a simulated one: parcels of 1-3 entries an hour or more apart, three
    retailers and carriers, one pup."""
    rng = np.random.default_rng(5)
    rows = []
    while len(rows) < n_rows:
        pid = f"P{len(rows):06d}"
        route = [f"r{rng.integers(1, 4)}", f"c{rng.integers(1, 4)}", "corner-shop"]
        stamp = datetime(2024, 1, 1) + timedelta(hours=int(rng.integers(0, 24 * 180)))
        for n in range(2, 2 + rng.integers(1, 4)):
            rows.append([pid, *route, str(n), stamp.isoformat()])
            stamp += timedelta(hours=int(rng.integers(1, 48)))
    return rows[:n_rows]


def peak_of_reading(path) -> int:
    """The tracemalloc peak, in bytes, of reading the log at ``path``."""
    tracemalloc.start()
    try:
        EventLog.from_csv(path, TB)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_plain_log_reads_in_memory_for_a_few_copies_of_the_file(tmp_path):
    # 20,000 rows, 0.96 MB: the peak is 7.3x the file, 8.1x before the spans
    # were sorted as words; one more copy of the events' block (24 bytes a
    # row, 0.5x the file) held to the end of the sort crosses the bound
    path = tmp_path / "events.csv"
    write_rows(path, [CSV_HEADER] + generated_rows(20_000))
    assert peak_of_reading(path) < 7.5 * path.stat().st_size


def test_a_quoted_log_reads_in_no_more_memory_per_byte_than_a_plain_one(tmp_path):
    # the quote positions take 8 bytes a quote: freed before the spans are
    # coded, the quoted read peaks at 6.6x its file against 7.3x for the
    # plain one; held, at 8.2x
    rows = [CSV_HEADER] + generated_rows(20_000)
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    write_rows(plain, rows)
    write_rows(quoted, rows, csv.QUOTE_ALL)
    assert peak_of_reading(quoted) / quoted.stat().st_size < peak_of_reading(plain) / plain.stat().st_size


# Characters of 1-4 UTF-8 bytes and a NUL; prefixes that fill the first
# one, two or eight 8-byte words with ASCII or multi-byte letters; pairs
# apart only in the last byte of a word, past 64 bytes, past the first pass
# of the sort (no wider than the file's size over its rows) or by a NUL
# inside them or at their end
WORD_CHARS = st.sampled_from(["a", "b", "P", "~", "é", "ê", "€", "😀", "\0"])
PREFIXES = ["", "PARCEL-0", "PARCEL-0PARCEL-1", "éééé", "€€€€éé", "PARCEL-0" * 8, "€€€€éé" * 6]
LAST_BYTE_PAIRS = ["P" * 7 + "a", "P" * 7 + "b", "Q" * 15 + "a", "Q" * 15 + "b", "ééé" + "Pa", "ééé" + "Pb",
                   "éééé", "éééê", "PARCEL-0éééé", "PARCEL-0éééê", "Q" * 64 + "a", "Q" * 64 + "b",
                   "R" * 71 + "a", "R" * 71 + "b", "S" * 300 + "a", "S" * 300 + "b", "S" * 300, "S" * 300 + "\0",
                   "P\0a", "P\0b", "P\0", "P", "T" * 64 + "\0" * 8, "T" * 64 + "\0" * 7]


@st.composite
def word_ids(draw):
    """An id of 1-200 UTF-8 bytes, its length often next to a word's end
    or past 64 bytes, often starting with one of ``PREFIXES``, sometimes
    ending in NULs."""
    size = draw(st.sampled_from([7, 8, 9, 15, 16, 17, 63, 64, 65, 72, 73, 129, 200]) | st.integers(1, 200))
    end = draw(st.sampled_from(["", "\0", "\0\0"]))[:size]
    text = draw(st.sampled_from(PREFIXES)) + "".join(draw(st.lists(WORD_CHARS, max_size=size)))
    while len(text.encode()) > size - len(end):
        text = text[:-1]
    return text + "a" * (size - len(end) - len(text.encode())) + end


@st.composite
def word_rows(draw):
    """The rows of a valid log of ``word_ids``, shuffled, with routes 4-202
    bytes wide, NULs in some, and events 12-37."""
    labels = st.text(alphabet="ab€\0", min_size=1, max_size=6)
    labels |= st.sampled_from(["r" * 64, "c" * 65, "p" * 70 + "\0"])
    stamps = {  # each entry time in forms 10-26 bytes long
        2: ["2024-01-01T09", "2024-01-01T09:00", "2024-01-01T09:00:00", "2024-01-01 09:00:00.000000"],
        3: ["2024-01-01T10", "2024-01-01T10:00:00.000", "2024-01-01T10:00:00"],
        4: ["2024-01-02", "2024-01-02T00:00", "2024-01-02T00:00:00.000000"],
    }
    ids = draw(st.lists(word_ids() | st.sampled_from(LAST_BYTE_PAIRS), min_size=1, max_size=24))
    rows = []
    for pid in dict.fromkeys(ids):
        route = [draw(st.sampled_from(["", "r"]) | labels), draw(labels), draw(labels)]
        for n in draw(st.sets(st.sampled_from(list(stamps)), min_size=1)):
            status = "0" * draw(st.integers(0, 9)) + str(n)
            rows.append([pid, *route, status, draw(st.sampled_from(stamps[n]))])
    return ids, draw(st.permutations(rows))


@settings(max_examples=100, deadline=None)
@given(word_rows())
def test_spans_sorted_by_their_words_keep_code_point_order_and_their_parcels(tmp_path_factory, drawn):
    ids, rows = drawn
    path = tmp_path_factory.mktemp("csv") / "events.csv"
    write_rows(path, [CSV_HEADER] + rows)
    log, expected = EventLog.from_csv(path, TB), log_of_rows([CSV_HEADER] + rows)
    assert log.ids.tolist() == sorted(set(ids))
    assert [r.entry_times for r in log] == [r.entry_times for r in expected]
    assert [(r.retailer, r.carrier, r.pup) for r in log] == [(r.retailer, r.carrier, r.pup) for r in expected]


@pytest.mark.parametrize("rows", [
    [["P1", "r" * 30, "c" * 30, "shop", "2", "2024-01-01T09:00:00"],
     ["P2", "r" * 31, "c" * 30, "shop", "2", "2024-01-01T10:00:00"],
     ["P1", "r" * 30, "c" * 30, "shop", "3", "2024-01-01T10:00:00"]],
    [["P1", "r1", "c1", "shop", "2", "2024-01-01T09:00:00"]],
], ids=["every route over 64 bytes", "one row"])
def test_a_block_of_no_span_or_one_reads_as_csv_reader_reads(tmp_path, rows):
    path = tmp_path / "events.csv"
    write_rows(path, [CSV_HEADER] + rows)
    log, expected = EventLog.from_csv(path, TB), log_of_rows([CSV_HEADER] + rows)
    for column in ("ids", "carriers", "pups", "retailers", "carrier", "pup", "retailer", "statuses", "entries"):
        assert np.array_equal(getattr(log, column), getattr(expected, column)), column
    assert log.cutoff == expected.cutoff


def test_a_log_of_65_byte_routes_reads_in_the_python_calls_of_one_of_64_byte_routes(tmp_path):
    # the spans are coded by array passes, however wide: a loop over the rows
    # of the wider routes would show as thousands more calls
    calls = []
    for width in (64, 65):
        rows = [[i, r, c, p + "x" * (width - len(f"{r},{c},{p}")), n, t] for i, r, c, p, n, t in generated_rows(20_000)]
        path = tmp_path / f"routes{width}.csv"
        write_rows(path, [CSV_HEADER] + rows)
        profile = cProfile.Profile()
        profile.runcall(EventLog.from_csv, path, TB)
        calls.append(pstats.Stats(profile).total_calls)
    assert calls[1] <= calls[0] + 50
