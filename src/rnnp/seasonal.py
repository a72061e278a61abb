"""Per-hour deseasonalization of log consumption by linear regression.

Each of the 24 hours of the day gets its own ordinary-least-squares fit of
the z-scored log demand on calendar regressors only: intercept, six
day-of-week dummies, a holiday dummy, two yearly sin/cos
harmonics, and a linear trend.  Temperatures deliberately stay out; the
recurrent network downstream owns the weather response.  Fits use
Householder QR; a linearly dependent column (for example a holiday dummy
with no holidays in the window) is reported and its coefficient forced to
zero rather than failing the fit.

``fit`` and ``transform`` each build their regressor rows in one batch
from ``features.calendar_pass``, which finds the calendar part once per
date, and ``transform`` takes one dot per hour; ``fit_transform`` takes
those dots on the rows its fit built.  The QR works on a
column-major copy of the design matrix.  Both keep every floating-point
operation and its order, so coefficients, residuals and seasonal values
are bit-identical to a per-hour, row-major computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

from .base import (
    NUMBER,
    BaseEstimator,
    DataValidationError,
    check_fitted,
    checkpoint_field,
    naive_timestamp,
)
from .features import calendar_pass
from .series import HourlySeries
from .stats import mean_std

MIN_WINDOW = timedelta(days=365)
YEARLY_HARMONICS = 2
# Intercept, six day-of-week dummies, holiday, harmonics, trend.
REGRESSORS = 1 + 6 + 1 + 2 * YEARLY_HARMONICS + 1
TREND_UNIT = timedelta(days=365.25)  # the trend regressor counts years
RCOND = 1e-10


def _dot(a, b) -> float:
    """Sum of a[i] * b[i], accumulated from 0.0 in increasing i."""
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def qr_lstsq(rows: list, ys: list) -> tuple:
    """Least-squares solve via Householder QR.

    Returns (coefficients, dropped_column_indices).  A column whose
    reduced norm falls below ``RCOND`` times the largest original column
    norm is treated as linearly dependent: it is skipped and its
    coefficient set to zero.

    The reflections run on a column-major copy of ``[rows | ys]``, so each
    column's dot and update is one pass over a list tail.  Every sum still
    runs over increasing row index, so the result is the same, bit for
    bit, as the textbook row-major loops.
    """
    m = len(rows)
    if m == 0:
        raise ValueError("no observations")
    n = len(rows[0])
    y = list(ys)
    if len(y) != m:
        raise ValueError("row/target length mismatch")
    cols = [list(col) for col in zip(*rows)]  # cols[k][i] == rows[i][k]
    if len(cols) != n:  # zip stops at the shortest row
        raise ValueError("rows have unequal lengths")

    scale = 0.0
    for col in cols:
        norm = math.sqrt(_dot(col, col))
        scale = max(scale, norm)
    tol = RCOND * (scale if scale > 0.0 else 1.0)

    cols.append(y)  # y is reflected as column n
    dropped: list = []
    for j in range(min(n, m)):
        v = cols[j][j:]
        norm = math.sqrt(_dot(v, v))
        if norm <= tol:
            dropped.append(j)
            continue
        sign = 1.0 if v[0] >= 0.0 else -1.0
        v[0] += sign * norm
        beta = 2.0 / _dot(v, v)
        for col in cols[j + 1 :]:
            tail = col[j:]
            factor = beta * _dot(v, tail)
            col[j:] = [x - factor * vi for x, vi in zip(tail, v)]
        cols[j][j] = -sign * norm

    for j in range(m, n):  # more columns than rows: the tail cannot be fit
        dropped.append(j)

    coef = [0.0] * n
    dropped_set = set(dropped)
    for j in range(min(n, m) - 1, -1, -1):
        if j in dropped_set:
            continue
        s = y[j]
        for k in range(j + 1, n):
            s -= cols[k][j] * coef[k]
        coef[j] = s / cols[j][j]
    return coef, dropped


@dataclass
class NormalizedResidualSeries:
    """z-scored log demand minus the per-hour seasonal fit."""

    timestamps: list
    residuals: list
    seasonal: list

    def __len__(self) -> int:
        return len(self.residuals)


class HourlyDeseasonalizer(BaseEstimator):
    """24 independent calendar regressions on z-scored log demand."""

    def __init__(self, holidays: frozenset = frozenset()) -> None:
        self.holidays = holidays

    def _rows(self, timestamps: list):
        """Yield the regressor row of each timestamp: intercept, day-of-week
        dummies, holiday dummy, yearly harmonics, trend since the fit start."""
        origin = self.fit_origin_
        sin, cos = math.sin, math.cos
        for (_, year_angle, day), ts in zip(
            calendar_pass(timestamps, self.holidays), timestamps
        ):
            row = [1.0, *day]
            for k in range(1, YEARLY_HARMONICS + 1):
                row.append(sin(k * year_angle))
                row.append(cos(k * year_angle))
            row.append((ts - origin) / TREND_UNIT)
            yield row

    def _z_scores(self, logs):
        """Yield each log demand z-scored with the fitted statistics."""
        log_mean, log_std = self.log_mean_, self.log_std_
        for v in logs:
            yield (v - log_mean) / log_std

    def _seasonal(self, timestamps: list) -> list:
        """The fitted seasonal value of each timestamp: one dot per hour."""
        coef = self.coef_
        return [
            _dot(coef[ts.hour], row)
            for ts, row in zip(timestamps, self._rows(timestamps))
        ]

    def fit(
        self,
        series: HourlySeries,
        start: datetime | None = None,
        end: datetime | None = None,
    ) -> "HourlyDeseasonalizer":
        self._fit(series, start, end)
        return self

    def fit_transform(
        self,
        series: HourlySeries,
        start: datetime | None = None,
        end: datetime | None = None,
    ) -> NormalizedResidualSeries:
        """``fit`` on [start, end), then ``transform`` of the same range,
        its seasonal values taken on the regressor rows the fit built."""
        timestamps, by_hour_rows = self._fit(series, start, end)
        by_hour_seasonal = {}
        for hour, rows in by_hour_rows.items():
            coef = self.coef_[hour]
            by_hour_seasonal[hour] = iter([_dot(coef, row) for row in rows])
            # The hour's rows are done with: the values of the next hours
            # reuse their memory, so the peak stays that of the fit.
            rows.clear()
        seasonal = [next(by_hour_seasonal[ts.hour]) for ts in timestamps]
        return self._residuals(series, start, end, seasonal)

    def _fit(self, series: HourlySeries, start, end) -> tuple:
        """Fit on [start, end); returns the range's timestamps and, per
        hour of the day, the regressor rows of its hours in time order."""
        start = series.start if start is None else start
        end = series.end if end is None else end
        if end - start < MIN_WINDOW:
            raise DataValidationError(
                f"seasonal fit window {start.isoformat()} .. {end.isoformat()} "
                f"is shorter than one year"
            )
        i, j = series.index_range(start, end)
        logs = [math.log(d) for d in series.demand_mwh[i:j]]
        self.log_mean_, self.log_std_ = mean_std(logs)
        self.fit_origin_ = start

        by_hour_rows: dict = {h: [] for h in range(24)}
        by_hour_z: dict = {h: [] for h in range(24)}
        timestamps = series.timestamps[i:j]
        for ts, row, z in zip(timestamps, self._rows(timestamps), self._z_scores(logs)):
            by_hour_rows[ts.hour].append(row)
            by_hour_z[ts.hour].append(z)

        self.coef_: dict = {}
        self.dropped_columns_: dict = {}
        for hour in range(24):
            if not by_hour_rows[hour]:
                raise DataValidationError(f"no observations for hour {hour}")
            coef, dropped = qr_lstsq(by_hour_rows[hour], by_hour_z[hour])
            self.coef_[hour] = coef
            if dropped:
                self.dropped_columns_[hour] = dropped
        return timestamps, by_hour_rows

    def state(self) -> dict:
        """Fitted state as checkpoint extras: its "normalization" and
        "seasonal" entries."""
        check_fitted(self, ["coef_"])
        return {
            "normalization": {"log_mean": self.log_mean_, "log_std": self.log_std_},
            "seasonal": {
                "fit_origin": self.fit_origin_.isoformat(),
                "coef": {str(h): c for h, c in self.coef_.items()},
            },
        }

    @classmethod
    def from_state(cls, extras: dict, **params) -> "HourlyDeseasonalizer":
        """The fitted deseasonalizer that ``state`` saved into ``extras``.

        ``params`` are the constructor arguments.  Dropped-column reports
        are not saved, so the restored ``dropped_columns_`` is empty.
        """
        des = cls(**params)
        for name in ("log_mean", "log_std"):
            value = checkpoint_field(extras, "normalization", name, kind=NUMBER)
            setattr(des, name + "_", value)
        if des.log_std_ <= 0:
            raise DataValidationError(
                f"checkpoint value normalization.log_std must be positive: "
                f"{des.log_std_!r}"
            )
        origin = checkpoint_field(extras, "seasonal", "fit_origin", kind=str)
        try:
            des.fit_origin_ = naive_timestamp(origin)
        except ValueError as exc:
            raise DataValidationError(
                f"checkpoint value seasonal.fit_origin is not a naive timestamp: {exc}"
            ) from None
        hours = {str(h): [NUMBER] for h in range(24)}
        coef = checkpoint_field(extras, "seasonal", "coef", kind=hours)
        for h in hours:
            if len(coef.get(h, ())) != REGRESSORS:
                raise DataValidationError(
                    f"checkpoint value seasonal.coef must hold hour {h} as a list "
                    f"of {REGRESSORS} coefficients, got {coef.get(h)!r}"
                )
        des.coef_ = {int(h): list(c) for h, c in coef.items()}
        des.dropped_columns_ = {}
        return des

    def seasonal_at(self, ts: datetime) -> float:
        check_fitted(self, ["coef_"])
        return self._seasonal([ts])[0]

    def transform(
        self,
        series: HourlySeries,
        start: datetime | None = None,
        end: datetime | None = None,
    ) -> NormalizedResidualSeries:
        check_fitted(self, ["coef_"])
        i, j = series.index_range(start, end)
        return self._residuals(
            series, start, end, self._seasonal(series.timestamps[i:j])
        )

    def _residuals(
        self, series: HourlySeries, start, end, seasonal: list
    ) -> NormalizedResidualSeries:
        """The z-scored log demand of [start, end) minus ``seasonal``, the
        range's seasonal values."""
        i, j = series.index_range(start, end)
        logs = (math.log(d) for d in series.demand_mwh[i:j])
        return NormalizedResidualSeries(
            timestamps=series.timestamps[i:j],
            residuals=[z - s for z, s in zip(self._z_scores(logs), seasonal)],
            seasonal=seasonal,
        )

    def to_log_params(self, z_mean: float, z_sigma: float | None) -> tuple:
        """Denormalize a forecast in z-space to log-demand parameters."""
        check_fitted(self, ["log_mean_"])
        mu_log = self.log_mean_ + self.log_std_ * z_mean
        sigma_log = None if z_sigma is None else self.log_std_ * z_sigma
        return mu_log, sigma_log
