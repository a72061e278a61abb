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
"""

from __future__ import annotations

import calendar
import math
from datetime import datetime

from .base import BaseEstimator, check_fitted, checkpoint_field
from .series import HourlySeries
from .stats import mean_std

FEATURE_DIM = 13

TWO_PI = 2.0 * math.pi

# Fitted temperature statistics, saved as the checkpoint's "encoder" entry.
STATE_FIELDS = ("drybulb_mean", "drybulb_std", "wetbulb_mean", "wetbulb_std")


def year_fraction(ts: datetime) -> float:
    days = 366.0 if calendar.isleap(ts.year) else 365.0
    return (ts.timetuple().tm_yday - 1 + ts.hour / 24.0) / days


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
            setattr(encoder, name + "_", checkpoint_field(extras, "encoder", name))
        return encoder

    def encode(self, ts: datetime, drybulb: float, wetbulb: float) -> list:
        check_fitted(self, ["drybulb_mean_"])
        hour_angle = TWO_PI * ts.hour / 24.0
        year_angle = TWO_PI * year_fraction(ts)
        row = [
            math.sin(hour_angle),
            math.cos(hour_angle),
            math.sin(year_angle),
            math.cos(year_angle),
        ]
        dow = ts.weekday()  # Monday = 0 .. Sunday = 6
        row.extend(1.0 if dow == d else 0.0 for d in range(6))
        row.append(1.0 if ts.date() in self.holidays else 0.0)
        row.append((drybulb - self.drybulb_mean_) / self.drybulb_std_)
        row.append((wetbulb - self.wetbulb_mean_) / self.wetbulb_std_)
        return row

    def transform(
        self,
        series: HourlySeries,
        start: datetime | None = None,
        end: datetime | None = None,
    ) -> list:
        """Encode the hours in [start, end), by default the whole series;
        rows are FEATURE_DIM wide."""
        i, j = series.index_range(start, end)
        return [
            self.encode(ts, dry, wet)
            for ts, dry, wet in zip(
                series.timestamps[i:j], series.drybulb_f[i:j], series.wetbulb_f[i:j]
            )
        ]

    def fit_transform(
        self,
        series: HourlySeries,
        start: datetime | None = None,
        end: datetime | None = None,
    ) -> list:
        return self.fit(series, start, end).transform(series, start, end)
