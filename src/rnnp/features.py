"""Calendar and weather feature encoding for the network inputs.

Feature layout (13 values per hour, fixed order):

    0  sin(2 pi hour / 24)
    1  cos(2 pi hour / 24)
    2  sin(2 pi yearfrac)      yearfrac = (doy - 1 + hour/24) / days_in_year
    3  cos(2 pi yearfrac)
    4-9  day-of-week dummies, Monday..Saturday (Sunday is the baseline)
    10 holiday flag
    11 dry-bulb temperature, z-scored with training-window statistics
    12 wet-bulb temperature, z-scored with training-window statistics

The day-of-year sinusoid uses the actual year length, so leap years do
not drift the phase.

The calendar part of a row depends on the date and the hour alone.
``calendar_pass`` finds each date's day-of-week dummies, holiday flag and
day of year once and gives every hour of that date its year angle; both
this encoder and the deseasonalizer build their rows from it, in one
batch per call.  Every float is the same expression on the same operands
as a per-timestamp computation, so the rows are bit-identical to it.
"""

from __future__ import annotations

import calendar
import math
from datetime import datetime

from .base import (
    NUMBER,
    BaseEstimator,
    DataValidationError,
    check_fitted,
    checkpoint_field,
)
from .series import HourlySeries
from .stats import mean_std

FEATURE_DIM = 13

TWO_PI = 2.0 * math.pi

# Fitted temperature statistics, saved as the checkpoint's "encoder" entry.
STATE_FIELDS = ("drybulb_mean", "drybulb_std", "wetbulb_mean", "wetbulb_std")


# sin/cos of the hour-of-day angle, indexed by hour.
HOUR_TRIG = tuple(
    (math.sin(angle), math.cos(angle))
    for angle in (TWO_PI * hour / 24.0 for hour in range(24))
)


def _fraction(yday: int, hour: int, days: float) -> float:
    """Fraction of the year elapsed at ``hour`` of day ``yday`` (1-based)
    in a year of ``days`` days."""
    return (yday - 1 + hour / 24.0) / days


def calendar_pass(timestamps, holidays: frozenset):
    """Yield ``(hour, year_angle, day)`` for each timestamp.

    ``year_angle`` is ``TWO_PI`` times the fraction of the year elapsed at
    ``ts``, in [0, 1).  ``day`` holds the date's seven 0/1 values: the
    Monday..Saturday dummies (Sunday is the baseline) and the holiday flag.
    It is found once per date, and the same list is shared by every hour of
    that date, so callers copy it.
    """
    last = None
    for ts in timestamps:
        d = ts.date()
        if d != last:
            last = d
            dow = d.weekday()  # Monday = 0 .. Sunday = 6
            day = [1.0 if dow == k else 0.0 for k in range(6)]
            day.append(1.0 if d in holidays else 0.0)
            yday = d.timetuple().tm_yday
            days = 366.0 if calendar.isleap(d.year) else 365.0
        hour = ts.hour
        yield hour, TWO_PI * _fraction(yday, hour, days), day


class CalendarFeatureEncoder(BaseEstimator):
    """Deterministic timestamp + temperature encoder.

    Only the temperature normalization is fitted (mean/std per channel on
    the training window); the calendar part is a pure function of the
    timestamp and the holiday calendar.
    """

    def __init__(self, holidays: frozenset = frozenset()) -> None:
        self.holidays = holidays

    def fit(
        self,
        series: HourlySeries,
        start: datetime | None = None,
        end: datetime | None = None,
    ) -> "CalendarFeatureEncoder":
        i, j = series.index_range(start, end)
        self.drybulb_mean_, self.drybulb_std_ = mean_std(series.drybulb_f[i:j])
        self.wetbulb_mean_, self.wetbulb_std_ = mean_std(series.wetbulb_f[i:j])
        return self

    def state(self) -> dict:
        """Fitted state as checkpoint extras: ``{"encoder": {...}}``."""
        check_fitted(self, ["drybulb_mean_"])
        return {"encoder": {name: getattr(self, name + "_") for name in STATE_FIELDS}}

    @classmethod
    def from_state(cls, extras: dict, **params) -> "CalendarFeatureEncoder":
        """The fitted encoder that ``state`` saved into ``extras``.

        ``params`` are the constructor arguments.
        """
        encoder = cls(**params)
        for name in STATE_FIELDS:
            value = checkpoint_field(extras, "encoder", name, kind=NUMBER)
            if name.endswith("_std") and value <= 0:
                raise DataValidationError(
                    f"checkpoint value encoder.{name} must be positive: {value!r}"
                )
            setattr(encoder, name + "_", value)
        return encoder

    def encode(self, ts: datetime, drybulb: float, wetbulb: float) -> list:
        """The input row of one hour: ``_rows`` for a single timestamp."""
        check_fitted(self, ["drybulb_mean_"])
        return self._rows([ts], [drybulb], [wetbulb])[0]

    def transform(
        self,
        series: HourlySeries,
        start: datetime | None = None,
        end: datetime | None = None,
    ) -> list:
        """Encode the hours in [start, end), by default the whole series;
        rows are FEATURE_DIM wide."""
        check_fitted(self, ["drybulb_mean_"])
        i, j = series.index_range(start, end)
        return self._rows(
            series.timestamps[i:j], series.drybulb_f[i:j], series.wetbulb_f[i:j]
        )

    def _rows(self, timestamps: list, drybulb: list, wetbulb: list) -> list:
        """The FEATURE_DIM-wide rows of the given hours, in the layout above."""
        dry_mean, dry_std = self.drybulb_mean_, self.drybulb_std_
        wet_mean, wet_std = self.wetbulb_mean_, self.wetbulb_std_
        sin, cos = math.sin, math.cos
        return [
            [
                *HOUR_TRIG[hour],
                sin(year_angle),
                cos(year_angle),
                *day,
                (dry - dry_mean) / dry_std,
                (wet - wet_mean) / wet_std,
            ]
            for (hour, year_angle, day), dry, wet in zip(
                calendar_pass(timestamps, self.holidays), drybulb, wetbulb
            )
        ]

    def fit_transform(
        self,
        series: HourlySeries,
        start: datetime | None = None,
        end: datetime | None = None,
    ) -> list:
        return self.fit(series, start, end).transform(series, start, end)
