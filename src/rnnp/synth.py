"""Synthetic hourly consumption with a fully known generator.

Log demand is a sum of calendar structure (trend, yearly/daily harmonics,
weekend and holiday effects), a temperature response with a same-hour and
a yesterday-same-hour term (thermal inertia), an autoregressive noise
process on lags 1 and 24, and Gaussian innovations; demand is the
exponential, so the noise is lognormal on the physical scale.  The
deterministic component and the realized noise path are returned next to
the series, which gives downstream tests an exact irreducible-error
yardstick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

from .base import ConfigError
from .features import year_fraction
from .linalg import Rng, _left_sum
from .series import HourlySeries

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SynthConfig:
    start_year: int = 2007
    years: int = 5
    base_log_mwh: float = 8.0
    trend_per_year: float = 0.01
    yearly_amp: float = 0.08
    daily_amp: float = 0.12
    daily_second_amp: float = 0.04
    weekend_drop: float = 0.05
    holiday_drop: float = 0.05
    holidays: frozenset = frozenset()
    temp_coeff: float = 0.05
    temp_coeff_lag24: float = 0.06
    ar1: float = 0.45
    ar24: float = 0.25
    noise_sigma: float = 0.02
    temp_base_f: float = 50.0
    temp_yearly_swing_f: float = 24.0
    temp_daily_swing_f: float = 7.0
    temp_noise_f: float = 2.5
    temp_ar: float = 0.96

    def __post_init__(self) -> None:
        if self.years < 1:
            raise ConfigError("years must be >= 1")
        if not 1 <= self.start_year <= 9999 - self.years:
            raise ConfigError(
                f"start_year {self.start_year} and {self.years} years do not fit "
                f"in the calendar's years 1..9999"
            )
        if self.noise_sigma < 0 or self.temp_noise_f < 0:
            raise ConfigError("noise levels must be non-negative")
        if abs(self.ar1) + abs(self.ar24) >= 1.0:
            raise ConfigError("|ar1| + |ar24| must be < 1 for stationarity")
        if not -1.0 < self.temp_ar < 1.0:
            raise ConfigError("temp_ar must be inside (-1, 1)")


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
    """Generate (HourlySeries, SynthTruth) for full calendar years."""
    start = datetime(config.start_year, 1, 1)
    end = datetime(config.start_year + config.years, 1, 1)
    n = int((end - start) / timedelta(hours=1))

    temp_rng = rng.spawn(1)
    wet_rng = rng.spawn(2)
    noise_rng = rng.spawn(3)
    temp_shocks = temp_rng.normal(0.0, config.temp_noise_f, n)
    wet_shocks = wet_rng.normal(0.0, 1.0, n)
    eps = noise_rng.normal(0.0, config.noise_sigma, n)

    # One pass over the hours, into lists made at full length: growing six
    # lists side by side would fragment the heap.  ``noise`` is also the
    # AR process's history.
    timestamps = [None] * n
    drybulb = [0.0] * n
    wetbulb = [0.0] * n
    log_det = [0.0] * n
    noise = [0.0] * n
    demand = [0.0] * n
    w = 0.0
    ts = start
    for t in range(n):
        yf = year_fraction(ts)
        w = config.temp_ar * w + temp_shocks[t]
        dry = (
            config.temp_base_f
            + config.temp_yearly_swing_f * math.cos(TWO_PI * (yf - 0.54))
            + config.temp_daily_swing_f * math.cos(TWO_PI * (ts.hour - 15) / 24.0)
            + w
        )
        timestamps[t] = ts
        drybulb[t] = dry
        wetbulb[t] = dry - 4.0 + wet_shocks[t]

        det = (
            config.base_log_mwh
            + config.trend_per_year * (t / 8766.0)
            + config.yearly_amp * math.cos(TWO_PI * (yf - 0.53))
            + config.daily_amp * math.cos(TWO_PI * (ts.hour - 18) / 24.0)
            + config.daily_second_amp * math.cos(2.0 * TWO_PI * ts.hour / 24.0)
        )
        if ts.weekday() >= 5:
            det -= config.weekend_drop
        if ts.date() in config.holidays:
            det -= config.holiday_drop
        det += config.temp_coeff * _temperature_effect(dry)
        det += config.temp_coeff_lag24 * _temperature_effect(
            drybulb[t - 24] if t >= 24 else dry
        )
        u = (
            config.ar1 * (noise[t - 1] if t >= 1 else 0.0)
            + config.ar24 * (noise[t - 24] if t >= 24 else 0.0)
            + eps[t]
        )
        log_det[t] = det
        noise[t] = u
        demand[t] = math.exp(det + u)
        ts += timedelta(hours=1)

    series = HourlySeries(
        timestamps=timestamps,
        demand_mwh=demand,
        drybulb_f=drybulb,
        wetbulb_f=wetbulb,
    )
    return series, SynthTruth(config=config, log_det=log_det, noise=noise)
