"""Hourly consumption series: ingestion, validation, and CSV round-trip.

Input CSV schema (header required, one row per hour):

    timestamp,demand_mwh,drybulb_f,wetbulb_f

``timestamp`` is an ISO-8601 local civil hour.  Rows must be sorted,
strictly hourly with no gaps or duplicates, and demand must be strictly
positive because the pipeline works on its logarithm.  A holiday file is
one ISO date per line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta

from .base import DataValidationError, atomic_write, open_utf8

CSV_HEADER = ["timestamp", "demand_mwh", "drybulb_f", "wetbulb_f"]
HOUR = timedelta(hours=1)


@dataclass
class HourlySeries:
    timestamps: list
    demand_mwh: list
    drybulb_f: list
    wetbulb_f: list

    def __post_init__(self) -> None:
        n = len(self.timestamps)
        if n == 0:
            raise DataValidationError("no rows")
        for name in ("demand_mwh", "drybulb_f", "wetbulb_f"):
            if len(getattr(self, name)) != n:
                raise DataValidationError(f"column {name} has mismatched length")
        prev = self.timestamps[0]
        for ts in self.timestamps[1:]:
            step = ts - prev
            if step == timedelta(0):
                raise DataValidationError(f"duplicate timestamp {prev.isoformat()}")
            if step != HOUR:
                raise DataValidationError(
                    f"series is not hourly at {prev.isoformat()} -> {ts.isoformat()}"
                )
            prev = ts
        for ts, d in zip(self.timestamps, self.demand_mwh):
            if not (math.isfinite(d) and d > 0.0):
                raise DataValidationError(
                    f"non-positive demand {d!r} at {ts.isoformat()}"
                )
        for ts, dry, wet in zip(self.timestamps, self.drybulb_f, self.wetbulb_f):
            if not (math.isfinite(dry) and math.isfinite(wet)):
                raise DataValidationError(
                    f"non-finite temperature at {ts.isoformat()}"
                )

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def start(self) -> datetime:
        return self.timestamps[0]

    @property
    def end(self) -> datetime:
        """One hour past the last row (exclusive end)."""
        return self.timestamps[-1] + HOUR

    def index_of(self, ts: datetime) -> int:
        offset = ts - self.start
        hours, remainder = divmod(offset, HOUR)
        if remainder != timedelta(0):
            raise DataValidationError(f"{ts.isoformat()} is not on the hour grid")
        if not 0 <= hours < len(self):
            raise DataValidationError(
                f"{ts.isoformat()} outside series range "
                f"[{self.start.isoformat()}, {self.end.isoformat()})"
            )
        return int(hours)

    def index_range(
        self, start: datetime | None = None, end: datetime | None = None
    ) -> tuple:
        """Half-open index range [i, j) for timestamps in [start, end).

        A missing bound is the series' own first hour or end.
        """
        start = self.start if start is None else start
        end = self.end if end is None else end
        if end <= start:
            raise DataValidationError("empty time range")
        return self.index_of(start), self.index_of(end - HOUR) + 1


def ingest_csv(path: str) -> HourlySeries:
    """Parse and validate an hourly consumption CSV."""
    timestamps: list = []
    demand: list = []
    dry: list = []
    wet: list = []
    with open_utf8(path) as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError("no rows") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise DataValidationError(
                f"bad header {header!r}, expected {','.join(CSV_HEADER)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataValidationError(f"line {lineno}: expected 4 fields")
            try:
                timestamps.append(datetime.fromisoformat(row[0]))
                demand.append(float(row[1]))
                dry.append(float(row[2]))
                wet.append(float(row[3]))
            except ValueError as exc:
                raise DataValidationError(f"line {lineno}: {exc}") from None
    if not timestamps:
        raise DataValidationError("no rows")
    return HourlySeries(
        timestamps=timestamps, demand_mwh=demand, drybulb_f=dry, wetbulb_f=wet
    )


def write_csv(series: HourlySeries, path: str) -> None:
    """Write the series; floats use shortest round-trip formatting."""
    with atomic_write(path) as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for ts, d, dry, wet in zip(
            series.timestamps, series.demand_mwh, series.drybulb_f, series.wetbulb_f
        ):
            writer.writerow([ts.isoformat(), repr(d), repr(dry), repr(wet)])


def read_holidays(path: str) -> frozenset:
    """Read a holiday calendar: one ISO date per line, blanks ignored."""
    days = set()
    with open_utf8(path) as f:
        for lineno, line in enumerate(f, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                days.add(date.fromisoformat(text))
            except ValueError:
                raise DataValidationError(
                    f"holiday file line {lineno}: bad date {text!r}"
                ) from None
    return frozenset(days)
