"""QR least squares and the per-hour deseasonalizer."""

import math
from datetime import datetime

import pytest

from rnnp.base import DataValidationError
from rnnp.linalg import Rng
from rnnp.seasonal import HourlyDeseasonalizer, qr_lstsq
from rnnp.synth import SynthConfig, synth_generate


def normal_equations_solve(rows, ys):
    """Independent reference: solve A^T A x = A^T y by Gaussian elimination."""
    n = len(rows[0])
    ata = [[sum(r[i] * r[j] for r in rows) for j in range(n)] for i in range(n)]
    aty = [sum(r[i] * y for r, y in zip(rows, ys)) for i in range(n)]
    # Gaussian elimination with partial pivoting.
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(ata[r][col]))
        ata[col], ata[pivot] = ata[pivot], ata[col]
        aty[col], aty[pivot] = aty[pivot], aty[col]
        for r in range(col + 1, n):
            f = ata[r][col] / ata[col][col]
            for c in range(col, n):
                ata[r][c] -= f * ata[col][c]
            aty[r] -= f * aty[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = aty[r] - sum(ata[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / ata[r][r]
    return x


class TestQrLstsq:
    def test_intercept_only_recovers_mean(self):
        ys = [3.0, 5.0, 10.0, 2.0]
        coef, dropped = qr_lstsq([[1.0]] * 4, ys)
        assert dropped == []
        assert coef[0] == pytest.approx(sum(ys) / 4, rel=1e-14)

    def test_exact_fit_square_system(self):
        rows = [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]
        ys = [1.0, 3.0, 5.0]  # y = 1 + 2 x
        coef, _ = qr_lstsq(rows, ys)
        assert coef == pytest.approx([1.0, 2.0], rel=1e-12)

    def test_matches_normal_equations_reference(self):
        rng = Rng(17)
        for _ in range(10):
            m, n = 40, 5
            rows = [rng.uniform(-2, 2, n) for _ in range(m)]
            ys = rng.uniform(-2, 2, m)
            got, dropped = qr_lstsq(rows, ys)
            assert dropped == []
            want = normal_equations_solve(rows, ys)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_zero_column_dropped(self):
        rows = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
        coef, dropped = qr_lstsq(rows, [2.0, 4.0, 6.0])
        assert dropped == [1]
        assert coef == pytest.approx([4.0, 0.0])

    def test_duplicate_column_dropped(self):
        rows = [[1.0, 1.0, x] for x in (0.0, 1.0, 2.0, 3.0)]
        coef, dropped = qr_lstsq(rows, [1.0, 2.0, 3.0, 4.0])
        assert dropped == [1]
        fitted = [coef[0] * r[0] + coef[2] * r[2] for r in rows]
        assert fitted == pytest.approx([1.0, 2.0, 3.0, 4.0], rel=1e-12)


def one_year_series(seed=0, **overrides):
    config = SynthConfig(years=1, **overrides)
    series, truth = synth_generate(config, Rng(seed))
    return series, truth


class TestDeseasonalizer:
    def test_residual_mean_per_hour_is_tiny(self):
        series, _ = one_year_series(seed=1)
        model = HourlyDeseasonalizer().fit(series)
        nrs = model.transform(series)
        by_hour = {h: [] for h in range(24)}
        for ts, r in zip(nrs.timestamps, nrs.residuals):
            by_hour[ts.hour].append(r)
        for h, rs in by_hour.items():
            assert abs(sum(rs) / len(rs)) <= 1e-10, f"hour {h}"

    def test_pure_calendar_signal_removed_completely(self):
        series, _ = one_year_series(
            seed=2,
            noise_sigma=0.0,
            ar1=0.0,
            ar24=0.0,
            temp_coeff=0.0,
            temp_coeff_lag24=0.0,
        )
        model = HourlyDeseasonalizer().fit(series)
        nrs = model.transform(series)
        res_var = sum(r * r for r in nrs.residuals) / len(nrs.residuals)
        assert res_var < 1e-20  # z-scored signal has unit variance

    def test_window_shorter_than_year_rejected(self):
        series, _ = one_year_series(seed=3)
        with pytest.raises(DataValidationError, match="one year"):
            HourlyDeseasonalizer().fit(
                series, datetime(2007, 1, 1), datetime(2007, 6, 1)
            )

    def test_holiday_column_dropped_without_holidays(self):
        """No holidays in the window: the dummy column is reported, not fatal."""
        series, _ = one_year_series(seed=5)
        model = HourlyDeseasonalizer().fit(series)
        assert all(7 in cols for cols in model.dropped_columns_.values())

    def test_to_log_params_round_trip(self):
        series, _ = one_year_series(seed=6)
        model = HourlyDeseasonalizer().fit(series)
        nrs = model.transform(series)
        k = 1000
        z = nrs.residuals[k] + nrs.seasonal[k]
        mu_log, sigma_log = model.to_log_params(z, 0.5)
        assert mu_log == pytest.approx(math.log(series.demand_mwh[k]), rel=1e-12)
        assert sigma_log == pytest.approx(0.5 * model.log_std_)

    def test_training_window_residual_mean_near_zero(self):
        series, _ = one_year_series(seed=7)
        model = HourlyDeseasonalizer().fit(series)
        nrs = model.transform(series)
        assert abs(sum(nrs.residuals) / len(nrs.residuals)) <= 1e-10
