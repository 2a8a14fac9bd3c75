"""Parcel records and event logs.

The on-disk event log format is CSV with a mandatory header
``parcel_id,retailer,carrier,pup,status,entry_iso8601`` and one row per
observed status transition.  An empty retailer field means unknown.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime

from .errors import EmptyLog, ValidationError
from .timebase import Timebase

__all__ = ["ParcelRecord", "EventLog", "CSV_HEADER"]

CSV_HEADER = ["parcel_id", "retailer", "carrier", "pup", "status", "entry_iso8601"]


@dataclass
class ParcelRecord:
    """One parcel: identity, routing attributes, observed status-entry slots."""

    id: str
    carrier: str
    pup: str
    retailer: str | None = None
    entry_times: dict[int, int] = field(default_factory=dict)

    def validate(self) -> None:
        prev_n = prev_t = None
        for n in sorted(self.entry_times):
            t = self.entry_times[n]
            if prev_t is not None and t <= prev_t:
                raise ValidationError(
                    f"parcel {self.id}: entry into status {n} at slot {t} does not "
                    f"follow status {prev_n} at slot {prev_t}"
                )
            prev_n, prev_t = n, t

    def status_at(self, k: int) -> int | None:
        """Highest status entered at or before slot k, or None if unknown."""
        reached = [n for n, t in self.entry_times.items() if t <= k]
        return max(reached) if reached else None


@dataclass
class EventLog:
    """A collection of parcel records visible up to an observation cutoff."""

    records: list[ParcelRecord]
    cutoff: int
    timebase: Timebase

    def __post_init__(self) -> None:
        for rec in self.records:
            rec.validate()
            for n, t in rec.entry_times.items():
                if t > self.cutoff:
                    raise ValidationError(
                        f"parcel {rec.id}: entry into status {n} at slot {t} "
                        f"is beyond the cutoff {self.cutoff}"
                    )

    def for_pup(self, pup: str) -> list[ParcelRecord]:
        return [rec for rec in self.records if rec.pup == pup]

    def truncated(self, cutoff: int) -> "EventLog":
        """The log as it would have been observed at an earlier cutoff."""
        if cutoff > self.cutoff:
            raise ValidationError("cannot extend a log beyond its cutoff")
        records = []
        for rec in self.records:
            entries = {n: t for n, t in rec.entry_times.items() if t <= cutoff}
            if entries:
                records.append(
                    ParcelRecord(rec.id, rec.carrier, rec.pup, rec.retailer, entries)
                )
        return EventLog(records, cutoff, self.timebase)

    # ---- CSV I/O ----

    @classmethod
    def from_csv(cls, path, timebase: Timebase, cutoff: int | None = None) -> "EventLog":
        parcels: dict[str, ParcelRecord] = {}
        max_t = 0
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_HEADER:
                raise ValidationError(f"bad or missing header in {path}: {header}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(CSV_HEADER):
                    raise ValidationError(f"{path}:{lineno}: expected {len(CSV_HEADER)} fields")
                parcel_id, retailer, carrier, pup, status, entry = row
                try:
                    n = int(status)
                    t = timebase.index_of(datetime.fromisoformat(entry))
                except (ValueError, ValidationError) as exc:
                    raise ValidationError(f"{path}:{lineno}: {exc}") from exc
                rec = parcels.get(parcel_id)
                if rec is None:
                    rec = ParcelRecord(parcel_id, carrier, pup, retailer or None)
                    parcels[parcel_id] = rec
                elif rec.carrier != carrier or rec.pup != pup:
                    raise ValidationError(
                        f"{path}:{lineno}: parcel {parcel_id} changes carrier or pup"
                    )
                if n in rec.entry_times:
                    raise ValidationError(
                        f"{path}:{lineno}: duplicate status {n} for parcel {parcel_id}"
                    )
                rec.entry_times[n] = t
                max_t = max(max_t, t)
        if not parcels:
            raise EmptyLog(f"no event rows in {path}")
        records = sorted(parcels.values(), key=lambda r: r.id)
        for lineno_rec in records:
            lineno_rec.validate()
        return cls(records, cutoff if cutoff is not None else max_t, timebase)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for rec in sorted(self.records, key=lambda r: r.id):
                for n in sorted(rec.entry_times):
                    writer.writerow(
                        [
                            rec.id,
                            rec.retailer or "",
                            rec.carrier,
                            rec.pup,
                            n,
                            self.timebase.datetime_of(rec.entry_times[n]).isoformat(),
                        ]
                    )
