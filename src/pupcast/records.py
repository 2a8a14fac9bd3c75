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
"""

from __future__ import annotations

import contextlib
import csv
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from datetime import datetime
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

import numpy as np

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
            ([rec.carrier for rec in records], [rec.pup for rec in records], [rec.retailer for rec in records]),
            np.repeat(np.arange(len(records)), sizes),
            np.fromiter((n for rec in records for n in rec.entry_times), np.int64, sum(sizes)),
            np.fromiter((t for rec in records for t in rec.entry_times.values()), np.int64, sum(sizes)),
            cutoff, timebase,
        )
        if fault is not None:
            raise ValidationError(fault[2])

    def _fill(self, ids, routing, row, status, slot, cutoff: int, timebase: Timebase):
        """Set the columns from the parcels' (carriers, pups, retailers) and one
        (row, status, slot) per entry.  Returns the (row, column, message) of
        the first parcel whose entries are out of order or beyond the cutoff
        (order is checked first), or None."""
        self.ids = np.array(ids, dtype=object)
        (self.carriers, self.carrier), (self.pups, self.pup), (self.retailers, self.retailer) = map(_encode, routing)
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
        routing: dict[str, tuple] = {}  # parcel id -> (row, carrier, pup, retailer) of its first event
        row, status, slot, line = (array("q") for _ in range(4))  # one entry per event
        status_of, slot_of = {}, {}  # status text -> status, timestamp text -> slot: each text converted once
        add_row, add_status, add_slot, add_line = row.append, status.append, slot.append, line.append
        def read(lines) -> None:  # the rows of text lines; a row read a second time agrees with its first reading
            reader = csv.reader(lines)
            header = next(reader, None)
            if header != CSV_HEADER:
                raise ValidationError(f"bad or missing header in {path}: {header}")
            for fields in reader:  # reader.line_num: the row's last line, as an id may span lines
                try:
                    parcel_id, retailer, carrier, pup, status_text, entry = fields
                except ValueError:
                    if not fields:
                        continue
                    raise ValidationError(f"{path}:{reader.line_num}: expected {len(CSV_HEADER)} fields") from None
                try:
                    n = status_of.get(status_text)
                    if n is None:
                        n = status_of[status_text] = int(np.int64(int(status_text)))  # OverflowError past int64
                    t = slot_of.get(entry)
                    if t is None:
                        t = slot_of[entry] = timebase.index_of(datetime.fromisoformat(entry))
                except (ValueError, OverflowError, ValidationError) as exc:
                    raise ValidationError(f"{path}:{reader.line_num}: {exc}") from exc
                first = routing.get(parcel_id)
                if first is None:
                    first = routing[parcel_id] = (len(routing), carrier, pup, retailer or None)
                elif first[1] != carrier or first[2] != pup:
                    raise ValidationError(f"{path}:{reader.line_num}: parcel {parcel_id} changes carrier or pup")
                add_row(first[0])
                add_status(n)
                add_slot(t)
                add_line(reader.line_num)
        try:  # text is decoded in blocks ahead of the rows, so a bad byte's line is found apart
            with open(path, newline="", encoding="utf-8") as fh:
                read(fh)
        except UnicodeDecodeError:  # the first line whose bytes do not come back from a decode that replaces bad ones
            with open(path, "rb") as fh:
                lines = fh.read().splitlines(keepends=True)  # split as the text reader splits
            bad = next(i for i, raw in enumerate(lines, 1) if raw.decode(errors="replace").encode() != raw)
            with contextlib.suppress(UnicodeDecodeError):  # decoded line by line, the rows before line `bad` are
                read(raw.decode() for raw in lines)  # read in full, so a fault among them is named first
            raise ValidationError(f"{path}:{bad}: not UTF-8 text") from None
        if not routing:
            raise EmptyLog(f"no event rows in {path}")
        slot = np.frombuffer(slot, dtype=np.int64)
        if slot.max() - slot.min() > MAX_SPAN_DAYS * timebase.slots_per_day:
            e = int(np.abs(slot - np.median(slot)).argmax())  # the entry farther from the median
            stamp = timebase.datetime_of(slot[e]).isoformat()
            raise ValidationError(f"{path}:{line[e]}: entry at {stamp} makes the log span over {MAX_SPAN_DAYS} days")
        ids = sorted(routing)  # rows by parcel id
        first_rows, *columns = zip(*map(routing.__getitem__, ids))  # columns: carriers, pups, retailers
        rank = np.argsort(first_rows)  # file order -> id order
        row, status = rank[np.frombuffer(row, dtype=np.int64)], np.frombuffer(status, dtype=np.int64)
        order = np.lexsort((status, row))  # stable: a parcel's repeats of one status in file order
        repeat = order[1:][(row[order][1:] == row[order][:-1]) & (status[order][1:] == status[order][:-1])]
        if repeat.size:
            e = repeat.min()
            raise ValidationError(f"{path}:{line[e]}: duplicate status {status[e]} for parcel {ids[row[e]]}")
        log = object.__new__(cls)
        fault = log._fill(
            ids, columns, row, status, slot,
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
