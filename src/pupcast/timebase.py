"""Discrete time axis: integer slot indices with calendar projections.

Time is sampled with a period of ``slot_hours`` (1 hour by default).  Slot
``k`` covers the half-open interval starting ``k * slot_hours`` hours after
the epoch.  All calendar projections (weekday, hour of day, date) are pure
functions of ``(k, epoch, slot_hours)``; ``day_of``, ``weekday_of``,
``hour_of`` and ``week_hour_of`` also map numpy arrays of slots elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta

from .errors import ValidationError

__all__ = ["Timebase"]


@dataclass(frozen=True)
class Timebase:
    """Anchors integer slot indices to the calendar.

    ``epoch`` is the date-time at which slot 0 starts; it must be aligned to
    a whole hour.  ``slot_hours`` must divide 24 so that days contain a whole
    number of slots.
    """

    epoch: datetime
    slot_hours: int = 1

    def __post_init__(self) -> None:
        if self.slot_hours <= 0 or 24 % self.slot_hours != 0:
            raise ValidationError(f"slot_hours must divide 24, got {self.slot_hours}")
        if self.epoch.minute or self.epoch.second or self.epoch.microsecond:
            raise ValidationError("epoch must be aligned to a whole hour")
        if self.epoch.hour % self.slot_hours != 0:
            raise ValidationError("epoch must be aligned to a slot boundary")

    @property
    def slots_per_day(self) -> int:
        return 24 // self.slot_hours

    @property
    def slots_per_week(self) -> int:
        return 7 * self.slots_per_day

    def day_of(self, k: int) -> int:
        """Whole days from the epoch's date to the date of slot ``k``."""
        return (self.epoch.hour + k * self.slot_hours) // 24

    def weekday_of(self, k: int) -> int:
        """Day of week of slot ``k``: 1 = Monday ... 7 = Sunday."""
        return (self.epoch.weekday() + self.day_of(k)) % 7 + 1

    def hour_of(self, k: int) -> int:
        """Hour of day (0..23) at which slot ``k`` starts.

        For slot_hours != 1 this is the start hour of the slot, i.e. the
        hour binned to floor(hour / slot_hours) * slot_hours.
        """
        return (self.epoch.hour + k * self.slot_hours) % 24

    def week_hour_of(self, k: int) -> int:
        """Hours from Monday 00:00 (0..167) at which slot ``k`` starts: (weekday - 1) * 24 + hour."""
        return (24 * self.epoch.weekday() + self.epoch.hour + k * self.slot_hours) % 168

    def datetime_of(self, k: int) -> datetime:
        return self.epoch + timedelta(hours=int(k) * self.slot_hours)  # numpy ints are rejected

    def date_of(self, k: int) -> date:
        return self.epoch.date() + timedelta(days=int(self.day_of(k)))

    def index_of(self, dt: datetime) -> int:
        """Slot index containing ``dt``.  Floor division; dt may precede epoch."""
        if (dt.tzinfo is None) != (self.epoch.tzinfo is None):
            raise ValidationError(
                f"{dt.isoformat()}: timestamps and the epoch {self.epoch.isoformat()} "
                "must agree on having a UTC offset"
            )
        delta = dt - self.epoch
        hours = delta.days * 24 + delta.seconds // 3600
        return hours // self.slot_hours

    def to_json_dict(self) -> dict:
        return {"epoch": self.epoch.isoformat(), "slot_hours": self.slot_hours}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Timebase":
        return cls(epoch=datetime.fromisoformat(d["epoch"]), slot_hours=int(d["slot_hours"]))
