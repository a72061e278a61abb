"""Synthetic hourly consumption with a fully known generator.

Log demand is a sum of calendar structure (trend, yearly/daily harmonics,
weekend and holiday effects), a temperature response with a same-hour and
a yesterday-same-hour term (thermal inertia), an autoregressive noise
process on lags 1 and 24, and Gaussian innovations; demand is the
exponential, so the noise is lognormal on the physical scale.  The
deterministic component and the realized noise path are returned next to
the series, which gives downstream tests an exact irreducible-error
yardstick.  The calendar structure and the temperature process are module
constants; ``SynthConfig`` holds what callers set: the span, the holiday
set, the temperature response and the noise process.
"""

from __future__ import annotations

import calendar
import math
from dataclasses import dataclass
from datetime import datetime

from .base import ConfigError
from .features import _fraction
from .linalg import Rng, _left_sum
from .series import HOUR, HourlySeries

TWO_PI = 2.0 * math.pi

# The fixed calendar structure, in log MWh, and dry-bulb process, in F.
BASE_LOG_MWH = 8.0
TREND_PER_YEAR = 0.01
YEARLY_AMP = 0.08
DAILY_AMP = 0.12
DAILY_SECOND_AMP = 0.04
WEEKEND_DROP = 0.05
HOLIDAY_DROP = 0.05
TEMP_BASE_F = 50.0
TEMP_YEARLY_SWING_F = 24.0
TEMP_DAILY_SWING_F = 7.0
TEMP_NOISE_F = 2.5
TEMP_AR = 0.96

# By hour of day: the dry-bulb daily swing and the two daily demand terms.
DAILY_TERMS = tuple(
    (
        TEMP_DAILY_SWING_F * math.cos(TWO_PI * (hour - 15) / 24.0),
        DAILY_AMP * math.cos(TWO_PI * (hour - 18) / 24.0),
        DAILY_SECOND_AMP * math.cos(2.0 * TWO_PI * hour / 24.0),
    )
    for hour in range(24)
)


@dataclass(frozen=True)
class SynthConfig:
    start_year: int = 2007
    years: int = 5
    holidays: frozenset = frozenset()
    temp_coeff: float = 0.05
    temp_coeff_lag24: float = 0.06
    ar1: float = 0.45
    ar24: float = 0.25
    noise_sigma: float = 0.02

    def __post_init__(self) -> None:
        if self.years < 1:
            raise ConfigError("years must be >= 1")
        if not 1 <= self.start_year <= 9999 - self.years:
            raise ConfigError(
                f"start_year {self.start_year} and {self.years} years do not fit "
                f"in the calendar's years 1..9999"
            )
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")
        if abs(self.ar1) + abs(self.ar24) >= 1.0:
            raise ConfigError("|ar1| + |ar24| must be < 1 for stationarity")


@dataclass
class SynthTruth:
    """Generator-side ground truth for oracle checks."""

    config: SynthConfig
    log_det: list  # deterministic log-demand component per hour
    noise: list  # realized stochastic component (AR process + innovation)

    def noise_var(self, i: int, j: int) -> float:
        chunk = self.noise[i:j]
        mean = _left_sum(chunk) / len(chunk)
        return _left_sum((v - mean) ** 2 for v in chunk) / len(chunk)

    def irreducible_mape(self, series: HourlySeries, i: int, j: int) -> float:
        """MAPE of the best exogenous-information forecast on [i, j).

        The stochastic component is unpredictable from calendar and
        weather alone, so the oracle predicts the lognormal mean
        exp(deterministic + variance/2); nothing trained on the same
        information can systematically do better.
        """
        v = self.noise_var(i, j)
        total, count = 0.0, 0
        for k in range(i, j):
            realized = series.demand_mwh[k]
            oracle = math.exp(self.log_det[k] + 0.5 * v)
            total += abs(oracle - realized) / realized
            count += 1
        return 100.0 * total / count


def _temperature_effect(temp_f: float) -> float:
    """U-shaped demand response: heating below ~62F, cooling above."""
    d = (temp_f - 62.0) / 30.0
    return d * d


def synth_generate(config: SynthConfig, rng: Rng) -> tuple:
    """Generate (HourlySeries, SynthTruth) for full calendar years.

    What depends on the date alone (day of year, year length, weekend,
    holiday) is found once per date, and the hour-of-day cosine terms come
    from ``DAILY_TERMS``.  Every float is the same expression on the same
    operands, summed in the same order, as an hour-by-hour computation.
    """
    start = datetime(config.start_year, 1, 1)
    end = datetime(config.start_year + config.years, 1, 1)
    n = int((end - start) / HOUR)

    temp_rng = rng.spawn(1)
    wet_rng = rng.spawn(2)
    noise_rng = rng.spawn(3)
    temp_shocks = temp_rng.normal(0.0, TEMP_NOISE_F, n)
    wet_shocks = wet_rng.normal(0.0, 1.0, n)
    eps = noise_rng.normal(0.0, config.noise_sigma, n)

    # One pass over the hours, into lists made at full length: growing six
    # lists side by side would fragment the heap.  ``noise`` is also the
    # AR process's history; ``effects`` holds the temperature effect of
    # the last 24 hours, by hour of day.
    timestamps = [None] * n
    drybulb = [0.0] * n
    wetbulb = [0.0] * n
    log_det = [0.0] * n
    noise = [0.0] * n
    demand = [0.0] * n
    effects = [0.0] * 24
    cos, exp = math.cos, math.exp
    holidays = config.holidays
    temp_coeff, temp_coeff_lag24 = config.temp_coeff, config.temp_coeff_lag24
    ar1, ar24 = config.ar1, config.ar24
    w = 0.0
    ts = start
    t = 0
    while t < n:
        day = ts.date()
        yday = day.timetuple().tm_yday
        days = 366.0 if calendar.isleap(day.year) else 365.0
        weekend = day.weekday() >= 5
        holiday = day in holidays
        for hour, (dry_daily, daily, daily_second) in enumerate(DAILY_TERMS):
            yf = _fraction(yday, hour, days)
            w = TEMP_AR * w + temp_shocks[t]
            dry = (
                TEMP_BASE_F
                + TEMP_YEARLY_SWING_F * cos(TWO_PI * (yf - 0.54))
                + dry_daily
                + w
            )
            timestamps[t] = ts
            drybulb[t] = dry
            wetbulb[t] = dry - 4.0 + wet_shocks[t]

            det = (
                BASE_LOG_MWH
                + TREND_PER_YEAR * (t / 8766.0)
                + YEARLY_AMP * cos(TWO_PI * (yf - 0.53))
                + daily
                + daily_second
            )
            if weekend:
                det -= WEEKEND_DROP
            if holiday:
                det -= HOLIDAY_DROP
            effect = _temperature_effect(dry)
            det += temp_coeff * effect
            det += temp_coeff_lag24 * (effects[hour] if t >= 24 else effect)
            effects[hour] = effect
            u = (
                ar1 * (noise[t - 1] if t >= 1 else 0.0)
                + ar24 * (noise[t - 24] if t >= 24 else 0.0)
                + eps[t]
            )
            log_det[t] = det
            noise[t] = u
            demand[t] = exp(det + u)
            ts += HOUR
            t += 1

    series = HourlySeries(
        timestamps=timestamps,
        demand_mwh=demand,
        drybulb_f=drybulb,
        wetbulb_f=wetbulb,
    )
    return series, SynthTruth(config=config, log_det=log_det, noise=noise)
