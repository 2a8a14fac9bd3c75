"""Parcel records and event logs.

An event log holds its parcels as columns.  ``entries[i, c]`` is the slot
at which parcel i entered status ``statuses[c]`` (statuses ascending), or
``NEVER`` where no entry was seen; ``carrier``, ``retailer`` and ``pup`` are
integer codes into the label tuples ``carriers``, ``retailers`` and
``pups``.  A log is validated once, when it is built from records, read from
CSV or filled from ``simulate``'s draws.  ``truncated`` and ``for_pup`` select
rows and mask entries, which keeps a valid log valid, so they do not validate
again; views share columns, so a log is read-only once used in a forecast.
``ParcelRecord`` is the row type at the edge: a log iterates as records.

The on-disk event log format is CSV with a mandatory header
``parcel_id,retailer,carrier,pup,status,entry_iso8601`` and one row per
observed status transition.  An empty retailer field means unknown.
``from_csv`` reads a file in one array pass over its bytes unless it has a
quote, a NUL byte, a carriage return outside a line end or a field over
``WIDEST`` bytes; such a file goes through ``csv.reader``, the only reader of
quoted fields.  Both readers give the same columns, codes into the distinct
ids, routes and events, and one set of checks runs on them; a fault is named
by ``path:line`` of the earliest faulty row.
"""

from __future__ import annotations

import contextlib
import csv
import io
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from datetime import datetime
from types import SimpleNamespace
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyLog, ValidationError
from .timebase import Timebase

__all__ = ["ParcelRecord", "EventLog", "CSV_HEADER", "NEVER"]

CSV_HEADER = ["parcel_id", "retailer", "carrier", "pup", "status", "entry_iso8601"]

# The entry slot of a status not seen: later than every cutoff, so that
# "entered by k" is ``entries <= k`` (slots before the epoch are negative).
NEVER = np.iinfo(np.int64).max

# The entries of a log read from CSV may span at most ten years: a timestamp
# farther out is a typo, and would stretch the fitted volume history to match.
MAX_SPAN_DAYS = 3653

# The widest field the array pass reads: it copies each part of the rows
# into a block of (rows x widest part) bytes, so one long field would make
# every row that wide.  A file with a wider field goes through csv.reader.
WIDEST = 64


@dataclass
class ParcelRecord:
    """One parcel: identity, routing attributes, observed status-entry slots."""

    id: str
    carrier: str
    pup: str
    retailer: str | None = None
    entry_times: dict[int, int] = field(default_factory=dict)

    def validate(self) -> None:
        EventLog([self], NEVER, None)

    def status_at(self, k: int) -> int | None:
        """Highest status entered at or before slot k, or None if unknown."""
        reached = [n for n, t in self.entry_times.items() if t <= k]
        return max(reached) if reached else None


def _columns(n_rows: int, row, status, slot) -> tuple[np.ndarray, np.ndarray]:
    """(statuses, entries) from one (row, status, slot) triple per observed entry."""
    statuses, col = np.unique(np.asarray(status, dtype=np.int64), return_inverse=True)
    entries = np.full((n_rows, len(statuses)), NEVER, dtype=np.int64)
    entries[np.asarray(row, dtype=np.intp), col] = slot
    return statuses, entries


def _encode(values: Sequence) -> tuple[tuple, np.ndarray]:
    """Labels in order of first appearance, and each value's code."""
    index = {v: i for i, v in enumerate(dict.fromkeys(values))}
    return tuple(index), np.array(list(map(index.__getitem__, values)), dtype=np.intp)


def _first_used(labels: Sequence, codes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The distinct labels that ``codes`` point to, in order of first use, and
    each code's place among them; ``labels`` may repeat."""
    used, first = np.unique(codes, return_index=True)
    used = used[np.argsort(first)]
    names, place = _encode([labels[c] for c in used.tolist()])
    at = np.empty(len(labels), dtype=np.intp)
    at[used] = place
    return names, at[codes]


def _convert(texts: Sequence[str], parse) -> tuple[np.ndarray, np.ndarray]:
    """Each text's value, and the message of its fault ("" where it parses,
    and the value 0); each distinct text is parsed once."""
    distinct = {text: i for i, text in enumerate(dict.fromkeys(texts))}
    values, faults = [], np.full(len(distinct), "", dtype=object)
    for text in distinct:
        try:
            values.append(parse(text))
        except (ValueError, OverflowError, ValidationError) as exc:
            faults[len(values)] = str(exc)
            values.append(0)
    at = np.fromiter(map(distinct.__getitem__, texts), np.intp, len(texts))
    return np.array(values, dtype=np.int64)[at], faults[at]


class _Rows(NamedTuple):
    """A log file's rows before its first unreadable one, as codes into the
    distinct texts: each row's id (the ids sorted), its route (retailer,
    carrier, pup) and its event (status, timestamp); each row's last line;
    and the message naming the unreadable row, if there is one."""

    ids: list
    row: np.ndarray
    routes: Sequence  # (retailers, carriers, pups), one entry per distinct route
    route: np.ndarray
    events: Sequence  # (statuses, timestamps), one entry per distinct event
    event: np.ndarray
    line: np.ndarray
    stop: str | None


def _header_fault(header, path) -> None:
    if header != CSV_HEADER:
        raise ValidationError(f"bad or missing header in {path}: {header}")


def _split(data: bytes, path) -> _Rows | None:
    """The rows in one array pass, or None for a file with a quote, a NUL
    byte, a carriage return outside a line end or a field over ``WIDEST``
    bytes.  Without quotes a line is a row or blank, and a row's fields are
    the text between its commas."""
    if b'"' in data or b"\0" in data:
        return None
    d = np.zeros(len(data) + 3 * (WIDEST + 1), dtype=np.uint8)  # zeros past the end: a span's block reads over it
    d[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    sep = d == ord(",")
    sep |= d == ord("\n")
    sep = np.flatnonzero(sep)  # the commas and line ends
    if np.diff(sep, prepend=-1, append=len(data)).max() > WIDEST + 1:
        return None
    last = np.flatnonzero(d[sep] == ord("\n"))  # each line's end in sep: its commas come just before it
    ends = sep[last]
    cr = d[ends - 1] == ord("\r")  # d[-1], past the data, is 0
    if np.count_nonzero(d == ord("\r")) != np.count_nonzero(cr):
        return None
    ends -= cr  # each line's text ends before its \r\n
    if data and not data.endswith(b"\n"):
        last, ends = np.append(last, len(sep)), np.append(ends, len(data))
    starts = np.append(0, sep[last[:-1]] + 1)
    if not len(ends):
        _header_fault(None, path)
    try:
        header = data[: ends[0]].decode()
    except UnicodeDecodeError:
        raise ValidationError(f"{path}:1: not UTF-8 text") from None
    _header_fault(header.split(",") if header else [], path)
    blank = ends == starts
    short = np.flatnonzero(~blank & (np.diff(last, prepend=-1) != len(CSV_HEADER)))  # lines of other field counts
    lines = np.flatnonzero(~blank[: short[0] if short.size else None])[1:]  # the rows after the header, before those
    first, fourth = sep[last[lines] - 5], sep[last[lines] - 2]  # the commas that end a row's id and its route
    del sep  # 8 bytes a field: freed before the blocks are built
    (ids, row, bad_id), (routes, route, bad_route), (events, event, bad_event) = (
        _distinct(d, begin, end)
        for begin, end in [(starts[lines], first), (first + 1, fourth), (fourth + 1, ends[lines])]
    )
    stop = None
    undecoded = np.flatnonzero(bad_id[row] | bad_route[route] | bad_event[event])
    if undecoded.size:
        r = int(undecoded[0])
        stop = f"{path}:{lines[r] + 1}: not UTF-8 text"
        row, route, event, lines = row[:r], route[:r], event[:r], lines[:r]
    elif short.size:
        i = int(short[0])
        try:
            data[starts[i] : ends[i]].decode()
            stop = f"{path}:{i + 1}: expected {len(CSV_HEADER)} fields"
        except UnicodeDecodeError:
            stop = f"{path}:{i + 1}: not UTF-8 text"
    routes, events = (routes[0::3], routes[1::3], routes[2::3]), (events[0::2], events[1::2])
    return _Rows(ids, row, routes, route, events, event, lines + 1, stop)


def _distinct(d: np.ndarray, begin: np.ndarray, end: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """The distinct texts of the spans d[begin:end], sorted, as one list of
    their comma-separated fields; each span's code; which texts are not UTF-8."""
    width = max(int((end - begin).max(initial=0)), 1)
    block = sliding_window_view(d, width)[begin]  # one row per span, zeros after its end
    narrow = np.flatnonzero(end - begin < width)
    block[narrow] *= np.arange(width) < (end - begin)[narrow, None]
    keys, code = np.unique(block.view(f"S{width}").ravel(), return_inverse=True)  # bytes order: code-point order
    texts = keys.tolist()  # no NUL in the data: one lost at the end is padding
    if not texts:
        return [], code, np.zeros(0, dtype=bool)
    try:
        return b",".join(texts).decode().split(","), code, np.zeros(len(texts), dtype=bool)
    except UnicodeDecodeError:
        bad = np.array([t.decode(errors="replace").encode() != t for t in texts], dtype=bool)
        return b",".join(texts).decode(errors="replace").split(","), code, bad


def _parse(data: bytes, path) -> _Rows:
    """The rows of any file, read by csv.reader."""
    ids, routes, events = (defaultdict(count().__next__) for _ in range(3))  # text -> code, by first appearance
    rows = []  # each row's three codes and its line
    add = rows.extend

    def read(lines) -> str | None:  # the message naming the first unreadable row, if any
        reader = csv.reader(lines)
        try:
            _header_fault(next(reader, None), path)
            for fields in reader:  # reader.line_num: the row's last line, as an id may span lines
                try:
                    parcel_id, retailer, carrier, pup, status, stamp = fields
                except ValueError:
                    if fields:
                        return f"{path}:{reader.line_num}: expected {len(CSV_HEADER)} fields"
                    continue
                add((ids[parcel_id], routes[retailer, carrier, pup], events[status, stamp], reader.line_num))
        except csv.Error as exc:  # a field over csv.field_size_limit()
            return f"{path}:{reader.line_num}: {exc}"
        return None

    try:  # text is decoded in blocks ahead of the rows, so a bad byte's line is found apart
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as text:
            stop = read(text)
    except UnicodeDecodeError:  # the first line whose bytes do not come back from a decode that replaces bad ones
        ids, routes, events = (defaultdict(count().__next__) for _ in range(3))  # read again from the start
        del rows[:]
        lines = data.splitlines(keepends=True)  # split as the text reader splits
        bad = next(i for i, raw in enumerate(lines, 1) if raw.decode(errors="replace").encode() != raw)
        stop = None
        with contextlib.suppress(UnicodeDecodeError):  # decoded line by line, the rows before line `bad` are
            stop = read(raw.decode() for raw in lines)  # read in full, so a fault among them is named first
        stop = stop or f"{path}:{bad}: not UTF-8 text"
    order, rank = sorted(ids), np.empty(len(ids), dtype=np.intp)
    rank[list(map(ids.__getitem__, order))] = np.arange(len(ids))
    row, route, event, line = np.fromiter(rows, np.int64, len(rows)).reshape(-1, 4).T
    columns = (tuple(zip(*routes)) or ((),) * 3), (tuple(zip(*events)) or ((),) * 2)
    return _Rows(order, rank[row], columns[0], route, columns[1], event, line, stop)


class EventLog:
    """The parcels of an event log as columns, visible up to an observation cutoff.

    Built from ``ParcelRecord`` rows, kept in their order; iterating the log
    (or reading ``records``) gives them back.
    """

    def __init__(self, records: Iterable[ParcelRecord], cutoff: int, timebase: Timebase):
        records = list(records)
        sizes = [len(rec.entry_times) for rec in records]
        fault = self._fill(
            [rec.id for rec in records],
            [_encode([getattr(rec, name) for rec in records]) for name in ("carrier", "pup", "retailer")],
            np.repeat(np.arange(len(records)), sizes),
            np.fromiter((n for rec in records for n in rec.entry_times), np.int64, sum(sizes)),
            np.fromiter((t for rec in records for t in rec.entry_times.values()), np.int64, sum(sizes)),
            cutoff, timebase,
        )
        if fault is not None:
            raise ValidationError(fault[2])

    def _fill(self, ids, routing, row, status, slot, cutoff: int, timebase: Timebase):
        """Set the columns from the parcels' carriers, pups and retailers, each
        as (labels, each parcel's code into them), and one (row, status, slot)
        per entry.  Returns the (row, column, message) of the first parcel
        whose entries are out of order or beyond the cutoff (order is checked
        first), or None."""
        self.ids = np.array(ids, dtype=object)
        (self.carriers, self.carrier), (self.pups, self.pup), (self.retailers, self.retailer) = (
            _first_used(labels, codes) for labels, codes in routing
        )
        self.statuses, self.entries = _columns(len(ids), row, status, slot)
        self.cutoff, self.timebase = cutoff, timebase
        seen = self.entries != NEVER
        lowest = np.iinfo(np.int64).min
        latest = np.maximum.accumulate(np.where(seen, self.entries, lowest), axis=1)
        disorder = seen & (self.entries <= np.hstack([np.full((len(ids), 1), lowest), latest[:, :-1]]))
        late = seen & (self.entries > cutoff)
        bad = np.flatnonzero((disorder | late).any(axis=1))
        if not bad.size:
            return None
        i = int(bad[0])
        n, t = self.statuses.tolist(), self.entries[i].tolist()
        if disorder[i].any():
            c = int(np.argmax(disorder[i]))
            p = int(np.flatnonzero(seen[i, :c])[-1])
            return i, c, (
                f"parcel {ids[i]}: entry into status {n[c]} at slot {t[c]} does not "
                f"follow status {n[p]} at slot {t[p]}"
            )
        c = int(np.argmax(late[i]))
        return i, c, f"parcel {ids[i]}: entry into status {n[c]} at slot {t[c]} is beyond the cutoff {cutoff}"

    def __len__(self) -> int:
        return len(self.carrier)

    @cached_property
    def ids(self) -> np.ndarray:  # an object array: a view takes its source's rows when first read
        return self._ids_of[0].ids.take(self._ids_of[1])

    def __iter__(self) -> Iterator[ParcelRecord]:
        statuses = self.statuses.tolist()
        columns = (self.carrier.tolist(), self.retailer.tolist(), self.pup.tolist(), self.entries.tolist())
        for pid, c, r, p, slots in zip(self.ids.tolist(), *columns):
            entries = {n: t for n, t in zip(statuses, slots) if t != NEVER}
            yield ParcelRecord(pid, self.carriers[c], self.pups[p], self.retailers[r], entries)

    @property
    def records(self) -> list[ParcelRecord]:
        return list(self)

    def _view(self, rows: np.ndarray, entries: np.ndarray, cutoff: int, pups: tuple | None = None) -> "EventLog":
        """The rows ``rows`` with ``entries``, not validated again."""
        log = object.__new__(EventLog)
        log._ids_of, log.carrier, log.retailer = (self, rows), self.carrier.take(rows), self.retailer.take(rows)
        log.pup = self.pup.take(rows) if pups is None else np.zeros(len(rows), dtype=np.intp)
        log.carriers, log.retailers, log.pups = self.carriers, self.retailers, pups or self.pups
        log.statuses, log.entries, log.cutoff, log.timebase = self.statuses, entries, cutoff, self.timebase
        return log

    def for_pup(self, pup: str) -> "EventLog":
        """The parcels bound for ``pup``, or the log if that is its only pup; a view names ``pup`` even when empty."""
        if self.pups == (pup,):
            return self
        rows = (self.pup == (self.pups.index(pup) if pup in self.pups else -1)).nonzero()[0]
        return self._view(rows, self.entries.take(rows, axis=0), self.cutoff, pups=(pup,))

    def truncated(self, cutoff: int) -> "EventLog":
        """The log as it would have been observed at an earlier cutoff."""
        if cutoff > self.cutoff:
            raise ValidationError("cannot extend a log beyond its cutoff")
        seen = np.zeros(len(self), dtype=bool)
        for column in self.entries.T:  # column by column: a reduction over the short axis is slow
            seen |= column <= cutoff
        rows = seen.nonzero()[0]
        entries = self.entries.take(rows, axis=0)  # several times faster than indexing a matrix by rows
        return self._view(rows, np.where(entries <= cutoff, entries, NEVER), cutoff)

    def pup_names(self) -> list[str]:
        """The pups its parcels are bound for; a log with one pup label (a
        ``for_pup`` view, say) names that pup even when it holds no parcel."""
        if len(self.pups) == 1:
            return list(self.pups)
        return [self.pups[c] for c in np.unique(self.pup).tolist()]

    def entries_of(self, n: int) -> np.ndarray:
        """Each parcel's entry slot into status n, NEVER where not seen."""
        c = np.flatnonzero(self.statuses == n)
        return self.entries[:, c[0]] if c.size else np.full(len(self), NEVER, dtype=np.int64)

    def latest(self, k: int, below: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, status, slot): the parcels with an entry at or before k whose
        highest status entered by k is below ``below``, that status, and the
        slot it entered it."""
        low = int((self.statuses < below).sum())  # statuses ascend: the columns below ``below`` come first
        rows = (self.entries[:, low:].min(axis=1, initial=NEVER) > k).nonzero()[0]  # none of the others by k
        entries = self.entries.take(rows, axis=0)
        last = np.full(len(rows), -1)
        for c, column in enumerate(entries.T[:low]):  # the last column seen wins
            last[column <= k] = c
        seen = (last >= 0).nonzero()[0]
        return rows[seen], self.statuses[last[seen]], entries[seen, last[seen]]

    # ---- CSV I/O ----

    @classmethod
    def from_csv(cls, path, timebase: Timebase, cutoff: int | None = None) -> "EventLog":
        with open(path, "rb") as fh:
            data = fh.read()
        ids, row, routes, route, events, event, line, stop = _split(data, path) or _parse(data, path)
        if not len(line):
            raise ValidationError(stop) if stop else EmptyLog(f"no event rows in {path}")
        (texts, stamps), (retailers, carriers, pups) = events, routes
        status, status_fault = _convert(texts, lambda text: int(np.int64(int(text))))  # OverflowError past int64
        slot, slot_fault = _convert(stamps, lambda text: timebase.index_of(datetime.fromisoformat(text)))
        first = np.full(len(ids), len(line))  # each parcel's first row
        np.minimum.at(first, row, np.arange(len(line)))
        place = _encode(list(zip(carriers, pups)))[1]
        moved = place[route] != place[route[first[row]]]  # a carrier or pup other than at the parcel's first row
        bad = np.flatnonzero((status_fault.astype(bool) | slot_fault.astype(bool))[event] | moved)
        if bad.size:  # the earliest faulty row; in it, the status before the timestamp before a change
            r, e = int(bad[0]), int(event[bad[0]])
            fault = status_fault[e] or slot_fault[e] or f"parcel {ids[row[r]]} changes carrier or pup"
            raise ValidationError(f"{path}:{line[r]}: {fault}")
        if stop:
            raise ValidationError(stop)
        status, slot = status[event], slot[event]
        if slot.max() - slot.min() > MAX_SPAN_DAYS * timebase.slots_per_day:
            e = int(np.abs(slot - np.median(slot)).argmax())  # the entry farther from the median
            stamp = timebase.datetime_of(slot[e]).isoformat()
            raise ValidationError(f"{path}:{line[e]}: entry at {stamp} makes the log span over {MAX_SPAN_DAYS} days")
        order = np.lexsort((status, row))  # stable: a parcel's repeats of one status in file order
        repeat = order[1:][(row[order][1:] == row[order][:-1]) & (status[order][1:] == status[order][:-1])]
        if repeat.size:
            e = repeat.min()
            raise ValidationError(f"{path}:{line[e]}: duplicate status {status[e]} for parcel {ids[row[e]]}")
        routing = [(labels, route[first]) for labels in (carriers, pups, [r or None for r in retailers])]
        log = object.__new__(cls)
        fault = log._fill(
            ids, routing, row, status, slot,  # each parcel's route is the one at its first row
            max(0, int(slot.max())) if cutoff is None else cutoff, timebase,
        )
        if fault is not None:
            i, c, message = fault
            raise ValidationError(f"{path}:{_columns(len(ids), row, status, line)[1][i, c]}: {message}")
        return log

    def to_csv(self, path) -> None:
        """Rows by parcel id, then status; each parcel's quoted fields and each slot's text are made once."""
        line = csv.writer(SimpleNamespace(write=str)).writerow  # returns the line it would write, ending in \r\n
        order = sorted(range(len(self)), key=self.ids.__getitem__)
        entries = self.entries[order]
        row, col = (entries != NEVER).nonzero()  # row-major: parcel by parcel, statuses ascending
        slots, at = np.unique(entries[row, col], return_inverse=True)
        fields = zip(self.ids[order].tolist(), *(a[order].tolist() for a in (self.retailer, self.carrier, self.pup)))
        heads = [line([i, self.retailers[r] or "", self.carriers[c], self.pups[p], ""])[:-2] for i, r, c, p in fields]
        texts = [f"{n}," for n in self.statuses.tolist()]
        stamps = [self.timebase.datetime_of(t).isoformat() + "\r\n" for t in slots.tolist()]
        text = [line(CSV_HEADER)] + [""] * (3 * len(row))  # the header, then each row in three parts
        for k, (parts, index) in enumerate([(heads, row), (texts, col), (stamps, at)], 1):
            text[k::3] = map(parts.__getitem__, index.tolist())
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("".join(text))
