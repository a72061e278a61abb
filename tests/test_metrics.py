"""Accuracy and calibration metrics against brute-force references."""

import math

import pytest

from rnnp import metrics
from rnnp.linalg import Rng
from rnnp.metrics import (
    average_pinball_loss,
    ci_backtest,
    mape,
    pinball,
    point_metrics,
    probabilistic_metrics,
    rmse,
)
from rnnp.stats import (
    central_z,
    lognormal_at_z,
    lognormal_mean,
    lognormal_quantile,
    mean_std,
    normal_cdf,
    normal_ppf,
)


class TestMeanStd:
    def test_sums_left_to_right_from_zero(self):
        # A compensated sum (Python >= 3.12 builtin sum) gives a mean of 1/3.
        assert mean_std([1e16, 1.0, -1e16])[0] == 0.0


class TestNormalPpf:
    def test_known_quantiles(self):
        assert normal_ppf(0.5) == pytest.approx(0.0, abs=1e-12)
        assert normal_ppf(0.975) == pytest.approx(1.959963985, rel=1e-8)
        assert normal_ppf(0.01) == pytest.approx(-2.326347874, rel=1e-8)

    def test_round_trip_with_cdf(self):
        for p in [1e-6, 0.01, 0.2, 0.5, 0.77, 0.99, 1 - 1e-6]:
            assert normal_cdf(normal_ppf(p)) == pytest.approx(p, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_ppf(0.0)
        with pytest.raises(ValueError):
            normal_ppf(1.0)


class TestLognormal:
    def test_mean_formula(self):
        assert lognormal_mean(0.0, 0.5) == pytest.approx(math.exp(0.125))

    def test_median_quantile(self):
        assert lognormal_quantile(1.2, 0.3, 0.5) == pytest.approx(math.exp(1.2))

    def test_interval_is_central(self):
        z = central_z(0.95)
        lo, hi = lognormal_at_z(0.0, 1.0, -z), lognormal_at_z(0.0, 1.0, z)
        assert lo == pytest.approx(math.exp(-1.959963985), rel=1e-8)
        assert hi == pytest.approx(math.exp(1.959963985), rel=1e-8)


class TestPointMetrics:
    def test_perfect_forecast(self):
        report = point_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert report.rmse_mwh == 0.0
        assert report.mape_pct == 0.0

    def test_proportional_error_gives_constant_mape(self):
        realized = [100.0, 250.0, 321.0]
        forecast = [1.1 * r for r in realized]
        assert mape(forecast, realized) == pytest.approx(10.0, rel=1e-12)

    def test_against_spreadsheet_style_reference(self):
        rng = Rng(12)
        realized = [100.0 + 30.0 * v for v in rng.uniform(0, 1, 24)]
        forecast = [r + e for r, e in zip(realized, rng.uniform(-5, 5, 24))]
        # Reference computed the long way.
        sq = [(f - r) ** 2 for f, r in zip(forecast, realized)]
        want_rmse = math.sqrt(sum(sq) / 24)
        pct = [100.0 * abs(f - r) / r for f, r in zip(forecast, realized)]
        want_mape = sum(pct) / 24
        assert rmse(forecast, realized) == pytest.approx(want_rmse, rel=1e-12)
        assert mape(forecast, realized) == pytest.approx(want_mape, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mape([1.0], [0.0])
        with pytest.raises(ValueError):
            rmse([], [])


class TestPinball:
    def test_median_identity(self):
        """At q = 0.5 the average pinball loss is half the absolute error."""
        rng = Rng(3)
        dists = [(math.log(100.0) + v, 0.2) for v in rng.uniform(-0.1, 0.1, 20)]
        realized = [100.0 + v for v in rng.uniform(-20, 20, 20)]
        apl = average_pinball_loss(dists, realized, quantiles=(0.5,))
        medians = [math.exp(m) for m, _ in dists]
        want = 0.5 * sum(abs(r - m) for r, m in zip(realized, medians)) / 20
        assert apl == pytest.approx(want, rel=1e-10)

    def test_degenerate_distribution_at_realization(self):
        realized = [123.0] * 5
        dists = [(math.log(123.0), 0.0)] * 5
        assert average_pinball_loss(dists, realized) == pytest.approx(0.0, abs=1e-9)

    def test_matches_brute_force_double_loop(self):
        rng = Rng(9)
        dists = [
            (math.log(90.0) + a, 0.1 + b)
            for a, b in zip(rng.uniform(-0.2, 0.2, 10), rng.uniform(0, 0.2, 10))
        ]
        realized = [90.0 + v for v in rng.uniform(-25, 25, 10)]
        quantiles = tuple(q / 100 for q in range(5, 100, 5))
        total = 0.0
        for (m, s), r in zip(dists, realized):
            for q in quantiles:
                f = math.exp(m + s * normal_ppf(q))
                total += q * (r - f) if r >= f else (1 - q) * (f - r)
        want = total / (len(quantiles) * len(realized))
        got = average_pinball_loss(dists, realized, quantiles)
        assert got == pytest.approx(want, rel=1e-12)

    def test_equals_per_hour_quantile_loop(self):
        """Computing each level's z once per call changes no bit."""
        rng = Rng(10)
        dists = list(zip(rng.uniform(4.0, 5.0, 30), rng.uniform(0.05, 0.4, 30)))
        realized = [math.exp(v) for v in rng.uniform(4.0, 5.0, 30)]
        total = 0.0
        for (m, s), r in zip(dists, realized):
            hour_sum = 0.0
            for q in metrics.DEFAULT_QUANTILES:
                hour_sum += pinball(q, lognormal_quantile(m, s, q), r)
            total += hour_sum / len(metrics.DEFAULT_QUANTILES)
        assert average_pinball_loss(dists, realized) == total / len(dists)

    def test_permutation_invariance(self):
        dists = [(math.log(x), 0.1) for x in (80.0, 90.0, 110.0)]
        realized = [85.0, 95.0, 100.0]
        a = average_pinball_loss(dists, realized)
        b = average_pinball_loss(list(reversed(dists)), list(reversed(realized)))
        assert a == pytest.approx(b, rel=1e-14)

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            average_pinball_loss([(0.0, 1.0)], [1.0], quantiles=(0.0,))
        with pytest.raises(ValueError):
            average_pinball_loss([(0.0, 1.0)], [1.0], quantiles=())

    def test_pinball_kink(self):
        assert pinball(0.3, 10.0, 12.0) == pytest.approx(0.3 * 2.0)
        assert pinball(0.3, 10.0, 8.0) == pytest.approx(0.7 * 2.0)


class TestCiBacktest:
    def test_realized_at_median_always_covered(self):
        dists = [(math.log(100.0), 0.3)] * 8
        realized = [100.0] * 8
        coverage = ci_backtest(dists, realized)
        assert all(c == 1.0 for c in coverage.values())

    def test_realized_far_outside(self):
        dists = [(math.log(100.0), 0.01)] * 8
        realized = [500.0] * 8
        coverage = ci_backtest(dists, realized, alphas=(0.9, 0.99))
        assert all(c == 0.0 for c in coverage.values())

    def test_monte_carlo_calibration(self):
        """Draws from the forecast distribution hit nominal coverage."""
        rng = Rng(31)
        n = 10_000
        mu, sigma = math.log(150.0), 0.25
        draws = [math.exp(v) for v in rng.normal(mu, sigma, n)]
        dists = [(mu, sigma)] * n
        coverage = ci_backtest(dists, draws, alphas=(0.90, 0.95, 0.99))
        for alpha, cov in coverage.items():
            assert abs(cov - alpha) < 0.02

    def test_equals_per_hour_interval_loop(self):
        """Computing each level's z once per call changes no bit."""
        rng = Rng(34)
        dists = list(zip(rng.uniform(4.0, 5.0, 200), rng.uniform(0.05, 0.4, 200)))
        realized = [math.exp(v) for v in rng.uniform(4.0, 5.0, 200)]
        want = {}
        for alpha in metrics.DEFAULT_ALPHAS:
            hits = 0
            for (m, s), r in zip(dists, realized):
                z = normal_ppf(0.5 + alpha / 2.0)
                hits += math.exp(m - s * z) <= r <= math.exp(m + s * z)
            want[alpha] = hits / len(realized)
        assert ci_backtest(dists, realized) == want
        with pytest.raises(ValueError, match="alpha must be in"):
            ci_backtest(dists, realized, alphas=(0.9, 1.0))

    def test_monotone_in_alpha(self):
        rng = Rng(33)
        mu, sigma = math.log(120.0), 0.4
        draws = [math.exp(v) for v in rng.normal(mu, sigma, 500)]
        coverage = ci_backtest([(mu, sigma)] * 500, draws)
        values = [coverage[a] for a in sorted(coverage)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestReports:
    def test_probabilistic_report_serialization(self):
        rng = Rng(35)
        realized = [100.0 + v for v in rng.uniform(-10, 10, 30)]
        dists = [(math.log(r), 0.1) for r in realized]
        points = [lognormal_mean(m, s) for m, s in dists]
        report = probabilistic_metrics(points, dists, realized)
        d = report.to_dict()
        assert set(d) == {"rmse_mwh", "mape_pct", "apl_mwh", "coverage"}
        text = report.render_text()
        assert "RMSE" in text and "alpha" in text
