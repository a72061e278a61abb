"""Point accuracy, density accuracy, and interval calibration metrics.

Probabilistic forecasts are per-hour lognormal distributions given as
(mu_log, sigma_log) parameter pairs on the physical scale; the pinball
loss and interval backtests evaluate them against realized values on that
same scale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .stats import central_z, lognormal_at_z, normal_ppf

DEFAULT_QUANTILES = tuple(q / 100.0 for q in range(1, 100))
DEFAULT_ALPHAS = tuple(a / 100.0 for a in range(90, 100))


def _check_lengths(forecast: list, realized: list) -> None:
    if len(forecast) != len(realized):
        raise ValueError(
            f"length mismatch: {len(forecast)} forecasts vs {len(realized)} realized"
        )
    if not forecast:
        raise ValueError("empty series")


def rmse(forecast: list, realized: list) -> float:
    _check_lengths(forecast, realized)
    total = 0.0
    for f, r in zip(forecast, realized):
        total += (f - r) * (f - r)
    return math.sqrt(total / len(forecast))


def mape(forecast: list, realized: list) -> float:
    """Mean absolute percentage error, in percent."""
    _check_lengths(forecast, realized)
    total = 0.0
    for f, r in zip(forecast, realized):
        if r == 0.0:
            raise ValueError("realized value of zero makes MAPE undefined")
        total += abs(f - r) / abs(r)
    return 100.0 * total / len(forecast)


def pinball(q: float, forecast_q: float, realized: float) -> float:
    if realized >= forecast_q:
        return q * (realized - forecast_q)
    return (1.0 - q) * (forecast_q - realized)


def average_pinball_loss(
    distributions: list,
    realized: list,
    quantiles: tuple = DEFAULT_QUANTILES,
) -> float:
    """Pinball loss averaged over a quantile grid, then over hours.

    ``distributions`` holds (mu_log, sigma_log) lognormal parameters per
    hour; quantile forecasts come from the lognormal quantile function,
    with each level's normal score computed once per call.
    """
    _check_lengths(distributions, realized)
    if not quantiles:
        raise ValueError("empty quantile set")
    for q in quantiles:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile {q} outside (0, 1)")
    levels = [(q, normal_ppf(q)) for q in quantiles]
    total = 0.0
    for (mu_log, sigma_log), r in zip(distributions, realized):
        hour_sum = 0.0
        for q, z in levels:
            hour_sum += pinball(q, lognormal_at_z(mu_log, sigma_log, z), r)
        total += hour_sum / len(quantiles)
    return total / len(distributions)


def ci_backtest(
    distributions: list,
    realized: list,
    alphas: tuple = DEFAULT_ALPHAS,
) -> dict:
    """Empirical coverage of central lognormal intervals per level alpha.

    Each level's normal score is computed once per call.
    """
    _check_lengths(distributions, realized)
    coverage = {}
    for alpha in alphas:
        z = central_z(alpha)
        hits = 0
        for (mu_log, sigma_log), r in zip(distributions, realized):
            lo = lognormal_at_z(mu_log, sigma_log, -z)
            hi = lognormal_at_z(mu_log, sigma_log, z)
            if lo <= r <= hi:
                hits += 1
        coverage[alpha] = hits / len(realized)
    return coverage


@dataclass
class MetricReport:
    rmse_mwh: float
    mape_pct: float
    apl_mwh: float | None = None
    coverage: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {"rmse_mwh": self.rmse_mwh, "mape_pct": self.mape_pct}
        if self.apl_mwh is not None:
            d["apl_mwh"] = self.apl_mwh
        if self.coverage:
            d["coverage"] = {f"{a:.2f}": c for a, c in sorted(self.coverage.items())}
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = [
            f"{'RMSE [MWh]':>12}  {'MAPE [%]':>9}"
            + (f"  {'APL [MWh]':>10}" if self.apl_mwh is not None else ""),
            f"{self.rmse_mwh:>12.2f}  {self.mape_pct:>9.2f}"
            + (f"  {self.apl_mwh:>10.2f}" if self.apl_mwh is not None else ""),
        ]
        if self.coverage:
            lines.append("")
            lines.append(f"{'alpha':>7}  {'coverage':>9}")
            for a, c in sorted(self.coverage.items()):
                lines.append(f"{a:>7.2f}  {c:>9.4f}")
        return "\n".join(lines)


def point_metrics(forecast: list, realized: list) -> MetricReport:
    return MetricReport(
        rmse_mwh=rmse(forecast, realized), mape_pct=mape(forecast, realized)
    )


def probabilistic_metrics(
    point_forecast: list,
    distributions: list,
    realized: list,
) -> MetricReport:
    """Point metrics plus the pinball loss over ``DEFAULT_QUANTILES`` and
    the coverage at ``DEFAULT_ALPHAS``."""
    return MetricReport(
        rmse_mwh=rmse(point_forecast, realized),
        mape_pct=mape(point_forecast, realized),
        apl_mwh=average_pinball_loss(distributions, realized),
        coverage=ci_backtest(distributions, realized),
    )
