"""Scalar statistics helpers: z-score statistics and the normal/lognormal
functions used by forecasting and metrics."""

from __future__ import annotations

import math

from .linalg import _left_sum

_SQRT2 = math.sqrt(2.0)

# Coefficients of Acklam's rational approximation to the inverse normal CDF.
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_P_LOW = 0.02425


def mean_std(values: list) -> tuple:
    """Population mean and standard deviation, the z-score statistics.

    A constant channel gets std 1.0, so z-scoring leaves it centered and
    unscaled.
    """
    n = len(values)
    mean = _left_sum(values) / n
    var = _left_sum((v - mean) ** 2 for v in values) / n
    std = math.sqrt(var)
    return mean, (std if std > 0.0 else 1.0)


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def normal_ppf(p: float) -> float:
    """Inverse standard normal CDF.

    Acklam's approximation refined with one Halley step against
    ``math.erf``, accurate to full double precision over (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_ppf requires p in (0, 1), got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        x = (
            (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
            * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)

    # Halley refinement: e = CDF(x) - p, u = e / pdf(x).
    e = normal_cdf(x) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def lognormal_mean(mu_log: float, sigma_log: float) -> float:
    """Expected value of exp(N(mu_log, sigma_log^2))."""
    return math.exp(mu_log + 0.5 * sigma_log * sigma_log)


def lognormal_at_z(mu_log: float, sigma_log: float, z: float) -> float:
    """Value of exp(N(mu_log, sigma_log^2)) at standard normal score z.

    The one expression every lognormal quantile goes through; callers that
    score many hours at one level compute its z once and pass it here.
    """
    return math.exp(mu_log + sigma_log * z)


def lognormal_quantile(mu_log: float, sigma_log: float, q: float) -> float:
    return lognormal_at_z(mu_log, sigma_log, normal_ppf(q))


def central_z(alpha: float) -> float:
    """Half-width, in standard scores, of the central interval holding alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return normal_ppf(0.5 + alpha / 2.0)

