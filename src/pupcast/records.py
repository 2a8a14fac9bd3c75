"""Parcel records and event logs.

An event log holds its parcels as columns.  ``entries[i, c]`` is the slot
at which parcel i entered status ``statuses[c]`` (statuses ascending), or
``NEVER`` where no entry was seen; ``carrier``, ``retailer`` and ``pup`` are
integer codes into the label tuples ``carriers``, ``retailers`` and
``pups``.  A log is validated once, when it is built from records, read from
CSV or filled from ``simulate``'s draws.  ``truncated`` and ``for_pup`` select
rows and mask entries, which keeps a valid log valid, so they do not validate
again; views share columns, so a log is read-only once used in a forecast.
``ParcelRecord`` is the row type at the edge, with no behaviour: a log
iterates as records.  ``latest`` and ``pup_name`` say, for the engine and the
Monte Carlo oracle alike, which parcels are live at k and for which pup.

The on-disk event log format is CSV with a mandatory header
``parcel_id,retailer,carrier,pup,status,entry_iso8601`` and one row per
observed status transition.  An empty retailer field means unknown.
``from_csv`` reads it in one array pass over its bytes, quoted as RFC 4180
has it: the commas and line ends outside quotes split it into fields and
rows, and a quote out of place is a fault.  The distinct ids, routes and
events are found by sorting their bytes as 8-byte words, however wide, and
the checks run on the columns of codes into them; a fault is named by
``path:line`` of the earliest faulty row.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property, reduce
from datetime import datetime
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

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


@dataclass
class ParcelRecord:
    """One parcel: identity, routing attributes, observed status-entry slots."""

    id: str
    carrier: str
    pup: str
    retailer: str | None = None
    entry_times: dict[int, int] = field(default_factory=dict)


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


def _unquote(text: str, k: int) -> list[str]:
    """The k fields of a text whose quotes RFC 4180 allows (a blank text has
    one, or none if k is 0): the commas outside quotes split it, and a quoted
    field loses its outer quotes and reads each ``""`` as ``"``."""
    if text.count(",") == k - 1 and text.count('"') == 2 * (text.count(',"') + text.startswith('"')):
        return text.replace('"', "").split(",")  # no comma or "" inside quotes: each quote is an outer one
    fields, part, quotes = [], [], 0
    for piece in text.split(",") if text else ():
        part.append(piece)
        quotes += piece.count('"')
        if quotes % 2 == 0:  # the comma after the piece is outside quotes
            field = ",".join(part)
            fields.append(field[1:-1].replace('""', '"') if field.startswith('"') else field)
            part, quotes = [], 0
    return fields


def _split(data: bytes, path) -> tuple:
    """The rows of a log file in one array pass, before the first one with a
    quote RFC 4180 does not allow, a wrong field count, a byte that is not
    UTF-8 or a field over ``csv.field_size_limit()``: the distinct ids
    (sorted) and each row's code into them, the distinct routes (retailers,
    carriers, pups) and each row's code, the distinct events (statuses,
    timestamps) and each row's code, each row's last line, and the message
    naming the unreadable row, if there is one.  Commas and line ends
    (``\\n``, ``\\r\\n`` or a bare ``\\r``) outside quotes split the file into
    rows and fields; a blank line is no row.  The id, route and event spans
    are each coded by ``_distinct``."""
    n = len(data)
    d = np.frombuffer(data + b"\0", dtype=np.uint8)  # a zero past the end: the byte after a last \r is read
    sep = d == ord(",")
    sep |= d == ord("\n")
    cr = np.flatnonzero(d == ord("\r"))
    sep[cr[d[cr + 1] != ord("\n")]] = True  # a bare \r ends a line too
    sep = np.flatnonzero(sep)  # the commas and line ends
    last = d[sep] != ord(",")
    breaks = sep[last]  # every line end, quoted or not: a row is named by the line it ends on
    stray = n + 1  # the first quote out of place; past the end, none
    if b'"' in data:
        quotes = np.flatnonzero(d == ord('"'))
        outside = ~np.logical_xor.accumulate(d == ord('"'))[sep]  # after an even number of quotes
        sep, last = sep[outside], last[outside]
        edge = np.zeros(256, dtype=bool)
        edge[list(b',\r\n"')] = True  # a field's edge, or the other quote of a ""
        opening, closing = quotes[0::2], quotes[1::2]
        misplaced = np.concatenate([
            opening[~edge[d[opening - 1]] & (opening > 0)],  # an opening quote starts a field
            closing[~edge[d[closing + 1]] & (closing < n - 1)],  # a closing quote ends it
            quotes[2 * len(closing) :],  # and follows every opening one
        ])
        stray = int(misplaced.min(initial=stray))
        del quotes, opening, closing, misplaced  # 8 bytes a quote: freed before the blocks are built
    last = np.flatnonzero(last)  # each row's line end in sep: its commas come just before it
    ends = sep[last]
    if n and not (ends.size and ends[-1] == n - 1):  # a last row without a line end
        last, ends = np.append(last, len(sep)), np.append(ends, n)
    line = np.searchsorted(breaks, ends) + 1
    ends -= (d[ends] == ord("\n")) & (d[ends - 1] == ord("\r"))  # each row's text ends before its \r\n
    starts = np.append(0, sep[last[:-1]] + 1)

    def named(begin: int, end: int, at: int, fault: str) -> str:
        """``path:at: fault``, unless a byte of data[begin:end] is not UTF-8: then that byte's line."""
        try:
            data[begin:end].decode()
        except UnicodeDecodeError as exc:
            at, fault = np.searchsorted(breaks, begin + exc.start) + 1, "not UTF-8 text"
        return f"{path}:{at}: {fault}"

    if not len(ends):
        raise ValidationError(f"bad or missing header in {path}: None")
    try:
        header = _unquote(data[: ends[0]].decode(), int(last[0]) + 1) if ends[0] else []  # a blank line: no field
    except UnicodeDecodeError:
        raise ValidationError(f"{path}:1: not UTF-8 text") from None
    if header != CSV_HEADER:
        raise ValidationError(f"bad or missing header in {path}: {header}")
    blank = ends == starts
    short = np.flatnonzero(~blank & (np.diff(last, prepend=-1) != len(CSV_HEADER)))  # rows of other field counts
    misquoted = int(np.searchsorted(ends, stray))  # the row of the first quote out of place
    cut = min(misquoted, int(short[0]) if short.size else len(ends))
    lines = np.flatnonzero(~blank[:cut])[1:]  # the rows after the header, before those
    first, fourth = sep[last[lines] - 5], sep[last[lines] - 2]  # the commas that end a row's id and its route
    del sep  # 8 bytes a field: freed before the blocks are built
    nuls = b"\0" in data  # only then can a span end in a NUL
    ((ids,), row, bad_id), (routes, route, bad_route), (events, event, bad_event) = (
        _distinct(data, d, begin, end, k, nuls)
        for begin, end, k in [(starts[lines], first, 1), (first + 1, fourth, 3), (fourth + 1, ends[lines], 2)]
    )
    stop = None
    unread = np.flatnonzero(bad_id[row] | bad_route[route] | bad_event[event])
    if unread.size:  # a byte that is not UTF-8, or else a field over the limit
        r, i = int(unread[0]), int(lines[unread[0]])
        stop = named(starts[i], ends[i], line[i], f"field larger than field limit ({csv.field_size_limit()})")
        row, route, event, lines = row[:r], route[:r], event[:r], lines[:r]
    elif cut == misquoted < len(ends):
        stop = named(starts[cut], stray, np.searchsorted(breaks, stray) + 1, "quote out of place (RFC 4180)")
    elif cut < len(ends):
        stop = named(starts[cut], ends[cut], line[cut], f"expected {len(CSV_HEADER)} fields")
    # ids sorted again: unquoting and the passes of the sort leave some out of order; timsort (stable) is quick on them
    ids, _, at = np.unique(np.array(ids, dtype=object), return_index=True, return_inverse=True)
    return ids.tolist(), at[row], routes, route, events, event, line[lines], stop


def _sorted_codes(data: bytes, d: np.ndarray, begin: np.ndarray, end: np.ndarray, nuls: bool) -> tuple:
    """The distinct texts of the spans data[begin:end], in file order, whose bytes d holds (a NUL among them
    if ``nuls``), and each span's code: the spans sorted as big-endian 8-byte words in passes, each one after
    the first over the spans longer than the last, led by their codes so far.  A pass is no wider than its
    widest span, nor than the file over its spans, and joins its words into no more keys than spans."""
    code, texts, later = np.empty(len(begin), dtype=np.intp), [], False
    rows, start, size = np.arange(len(begin)), begin, end - begin
    nul = d[end - 1] == 0 if nuls else np.zeros(len(begin), dtype=bool)
    while rows.size:  # rows: the spans still sorted; size: their bytes left; nul: those with a NUL just before the end
        words = max(1, min(-(-int(size.max()) // 8), len(data) // (8 * len(rows))))
        join = -(-words // len(rows))  # words a key
        width = 8 * join * -(-words // join)
        left = np.minimum(size, width + 1).astype(np.min_scalar_type(width + 1))  # small operands: quicker
        edge = len(d) - width  # a row from past here reads a copy of d's tail, with zeros after it
        late = int(np.searchsorted(start, edge, side="right"))  # start ascends: only the last rows reach past edge
        block = sliding_window_view(d, width)[np.minimum(start, edge) if late < len(start) else start]
        block[late:] = sliding_window_view(np.append(d[edge:], np.zeros(width, np.uint8)), width)[start[late:] - edge]
        block *= np.arange(width, dtype=left.dtype) < left[:, None]  # zeros after each span's end
        keys = list(block.view(">u8" if join == 1 else f"V{8 * join}").T[::-1]) + ([code[rows]] if later else [])
        keys += [left] if left.max() > width or nul.any() else []  # tells a NUL at the end from the zeros after it
        order = np.lexsort(keys)  # the last key sorts first: the spans that end in this pass come first
        new = np.arange(len(order)) == 0  # each sorted row that starts a new group: the first, and where a key changes
        for column in keys:
            column = column[order]
            new[1:] |= column[1:] != column[:-1]
        code[rows[order]] = np.cumsum(new) + (len(texts) - 1)  # past the new texts: the groups that lead the next pass
        first = order[new]  # a row of each group
        del order, new  # freed before the texts are made
        first = first[left[first] <= width]  # the groups whose texts end in this pass
        found = block[first].view(f"S{width}").ravel().tolist()  # the zeros at the end dropped
        apart = np.flatnonzero(nul[first] | later)  # texts the block cannot give back
        for i, r in zip(apart.tolist(), rows[first[apart]].tolist()):
            found[i] = data[begin[r] : end[r]]
        texts += found
        keep = left > width
        rows, start, size, nul, later = rows[keep], start[keep] + width, size[keep] - width, nul[keep], True
    return texts, code


def _distinct(data: bytes, d: np.ndarray, begin: np.ndarray, end: np.ndarray, k: int, nuls: bool):
    """The distinct texts of the spans data[begin:end] as k lists of their fields, unquoted; each
    span's code; which texts cannot be read (not UTF-8, or a field over ``csv.field_size_limit()``)."""
    texts, codes = _sorted_codes(data, d, begin, end, nuls)  # the blocks freed on return
    joined, bad = b",".join(texts).decode(errors="replace"), np.zeros(len(texts), dtype=bool)  # bad bytes: U+FFFD
    if "\ufffd" in joined:
        bad[:] = [raw.decode(errors="replace").encode() != raw for raw in texts]
    fields = _unquote(joined, k * len(texts))
    for i in set(codes[end - begin > csv.field_size_limit()].tolist()):  # only a text over it has a field over it
        bad[i] |= max(map(len, fields[k * i : k * i + k])) > csv.field_size_limit()
    return [fields[j::k] for j in range(k)], codes, bad


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
        rows = (self._first() <= cutoff).nonzero()[0]
        entries = self.entries.take(rows, axis=0)  # several times faster than indexing a matrix by rows
        return self._view(rows, np.where(entries <= cutoff, entries, NEVER), cutoff)

    def _first(self, low: int = 0) -> np.ndarray:
        """Each parcel's earliest entry in columns ``low`` on, or NEVER; by column: a short-axis reduction is slow."""
        columns = self.entries.T[low:]
        return reduce(np.minimum, columns[1:], columns[0]) if len(columns) else np.full(len(self), NEVER)

    def pup_name(self) -> str:
        """The one pup its parcels are bound for, or "" if none; a log with one
        pup label (a ``for_pup`` view, say) names that pup even when it holds
        no parcel.  Parcels bound for several pups raise ValidationError."""
        pups = self.pups if len(self.pups) == 1 else [self.pups[c] for c in np.unique(self.pup).tolist()]
        if len(pups) > 1:
            raise ValidationError(f"parcels target multiple pups: {sorted(pups)}")
        return pups[0] if pups else ""

    def entries_of(self, n: int) -> np.ndarray:
        """Each parcel's entry slot into status n, NEVER where not seen."""
        c = np.flatnonzero(self.statuses == n)
        return self.entries[:, c[0]] if c.size else np.full(len(self), NEVER, dtype=np.int64)

    def latest(self, k: int, below: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, status, slot): the parcels with an entry at or before k whose
        highest status entered by k is below ``below``, that status, and the
        slot it entered it."""
        low = int(self.statuses.searchsorted(below))  # statuses ascend: the columns below ``below`` come first
        rows = (self._first(low) > k).nonzero()[0]  # none of the others by k
        entries = self.entries.take(rows, axis=0)
        last = np.full(len(rows), -1)
        for c, column in enumerate(entries.T[:low]):  # the last column seen wins
            last[column <= k] = c
        seen = (last >= 0).nonzero()[0]
        return rows[seen], self.statuses[last[seen]], entries[seen, last[seen]]

    # ---- CSV I/O ----

    @classmethod
    def from_csv(cls, path, timebase: Timebase) -> "EventLog":
        with open(path, "rb") as fh:
            data = fh.read()
        ids, row, routes, route, events, event, line, stop = _split(data, path)
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
        # each parcel's route is the one at its first row
        routing = [(labels, route[first]) for labels in (carriers, pups, [r or None for r in retailers])]
        log = object.__new__(cls)
        fault = log._fill(ids, routing, row, status, slot, max(0, int(slot.max())), timebase)
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
