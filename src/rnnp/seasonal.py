"""Per-hour deseasonalization of log consumption by linear regression.

Each of the 24 hours of the day gets its own ordinary-least-squares fit of
the z-scored log demand on calendar regressors only: intercept, six
day-of-week dummies, a holiday dummy, two yearly sin/cos
harmonics, and a linear trend.  Temperatures deliberately stay out; the
recurrent network downstream owns the weather response.  Fits use
Householder QR; a linearly dependent column (for example a holiday dummy
with no holidays in the window) is reported and its coefficient forced to
zero rather than failing the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

from .base import BaseEstimator, DataValidationError, check_fitted, checkpoint_field
from .features import year_fraction
from .linalg import _left_sum
from .series import HourlySeries
from .stats import mean_std

TWO_PI = 2.0 * math.pi
MIN_WINDOW = timedelta(days=365)
YEARLY_HARMONICS = 2
RCOND = 1e-10


def qr_lstsq(rows: list, ys: list) -> tuple:
    """Least-squares solve via Householder QR.

    Returns (coefficients, dropped_column_indices).  A column whose
    reduced norm falls below ``RCOND`` times the largest original column
    norm is treated as linearly dependent: it is skipped and its
    coefficient set to zero.
    """
    m = len(rows)
    if m == 0:
        raise ValueError("no observations")
    n = len(rows[0])
    a = [list(r) for r in rows]
    y = list(ys)
    if len(y) != m:
        raise ValueError("row/target length mismatch")

    scale = 0.0
    for j in range(n):
        norm = math.sqrt(_left_sum(a[i][j] * a[i][j] for i in range(m)))
        scale = max(scale, norm)
    tol = RCOND * (scale if scale > 0.0 else 1.0)

    dropped: list = []
    for j in range(min(n, m)):
        norm2 = _left_sum(a[i][j] * a[i][j] for i in range(j, m))
        norm = math.sqrt(norm2)
        if norm <= tol:
            dropped.append(j)
            continue
        v0 = a[j][j]
        sign = 1.0 if v0 >= 0.0 else -1.0
        v = [a[i][j] for i in range(j, m)]
        v[0] += sign * norm
        beta = 2.0 / _left_sum(vi * vi for vi in v)
        for k in range(j + 1, n):
            dot = 0.0
            for i in range(j, m):
                dot += v[i - j] * a[i][k]
            factor = beta * dot
            for i in range(j, m):
                a[i][k] -= factor * v[i - j]
        dot = 0.0
        for i in range(j, m):
            dot += v[i - j] * y[i]
        factor = beta * dot
        for i in range(j, m):
            y[i] -= factor * v[i - j]
        a[j][j] = -sign * norm

    for j in range(m, n):  # more columns than rows: the tail cannot be fit
        dropped.append(j)

    coef = [0.0] * n
    dropped_set = set(dropped)
    for j in range(min(n, m) - 1, -1, -1):
        if j in dropped_set:
            continue
        s = y[j]
        for k in range(j + 1, n):
            s -= a[j][k] * coef[k]
        coef[j] = s / a[j][j]
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

    def regressors(self, ts: datetime) -> list:
        row = [1.0]
        dow = ts.weekday()
        row.extend(1.0 if dow == d else 0.0 for d in range(6))
        row.append(1.0 if ts.date() in self.holidays else 0.0)
        yf = TWO_PI * year_fraction(ts)
        for k in range(1, YEARLY_HARMONICS + 1):
            row.append(math.sin(k * yf))
            row.append(math.cos(k * yf))
        origin = self.fit_origin_ if hasattr(self, "fit_origin_") else ts
        row.append((ts - origin) / timedelta(days=365.25))
        return row

    def fit(
        self,
        series: HourlySeries,
        start: datetime | None = None,
        end: datetime | None = None,
    ) -> "HourlyDeseasonalizer":
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
        for k in range(i, j):
            ts = series.timestamps[k]
            z = (logs[k - i] - self.log_mean_) / self.log_std_
            by_hour_rows[ts.hour].append(self.regressors(ts))
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
        return self

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
        des.log_mean_ = checkpoint_field(extras, "normalization", "log_mean")
        des.log_std_ = checkpoint_field(extras, "normalization", "log_std")
        des.fit_origin_ = datetime.fromisoformat(
            checkpoint_field(extras, "seasonal", "fit_origin")
        )
        coef = checkpoint_field(extras, "seasonal", "coef")
        des.coef_ = {int(h): list(c) for h, c in coef.items()}
        des.dropped_columns_ = {}
        return des

    def seasonal_at(self, ts: datetime) -> float:
        check_fitted(self, ["coef_"])
        coef = self.coef_[ts.hour]
        row = self.regressors(ts)
        acc = 0.0
        for c, r in zip(coef, row):
            acc += c * r
        return acc

    def normalize_log(self, demand: float) -> float:
        check_fitted(self, ["log_mean_"])
        return (math.log(demand) - self.log_mean_) / self.log_std_

    def transform(
        self,
        series: HourlySeries,
        start: datetime | None = None,
        end: datetime | None = None,
    ) -> NormalizedResidualSeries:
        check_fitted(self, ["coef_"])
        i, j = series.index_range(start, end)
        timestamps = series.timestamps[i:j]
        seasonal = [self.seasonal_at(ts) for ts in timestamps]
        residuals = [
            self.normalize_log(series.demand_mwh[k]) - seasonal[k - i]
            for k in range(i, j)
        ]
        return NormalizedResidualSeries(
            timestamps=timestamps,
            residuals=residuals,
            seasonal=seasonal,
        )

    def to_log_params(self, z_mean: float, z_sigma: float | None) -> tuple:
        """Denormalize a forecast in z-space to log-demand parameters."""
        check_fitted(self, ["log_mean_"])
        mu_log = self.log_mean_ + self.log_std_ * z_mean
        sigma_log = None if z_sigma is None else self.log_std_ * z_sigma
        return mu_log, sigma_log
