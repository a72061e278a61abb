"""QR least squares and the per-hour deseasonalizer."""

import math
import random
from datetime import date, datetime, timedelta

import pytest

from rnnp.base import DataValidationError, NotFittedError
from rnnp.features import TWO_PI, year_fraction
from rnnp.linalg import Rng
from rnnp.seasonal import HourlyDeseasonalizer, qr_lstsq
from rnnp.synth import SynthConfig, synth_generate

HOLIDAYS_2008 = frozenset(
    {date(2008, 1, 1), date(2008, 2, 29), date(2008, 7, 4), date(2008, 12, 25),
     date(2008, 12, 31)}
)


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


def row_major_householder(rows, ys, rcond=1e-10):
    """Reference: Householder QR on a row-major copy, the textbook loop
    order.  ``qr_lstsq`` must give the same bits."""
    m, n = len(rows), len(rows[0])
    a = [list(r) for r in rows]
    y = list(ys)

    def left_sum(values):
        total = 0.0
        for v in values:
            total += v
        return total

    scale = 0.0
    for j in range(n):
        scale = max(scale, math.sqrt(left_sum(a[i][j] * a[i][j] for i in range(m))))
    tol = rcond * (scale if scale > 0.0 else 1.0)
    dropped = []
    for j in range(min(n, m)):
        norm = math.sqrt(left_sum(a[i][j] * a[i][j] for i in range(j, m)))
        if norm <= tol:
            dropped.append(j)
            continue
        sign = 1.0 if a[j][j] >= 0.0 else -1.0
        v = [a[i][j] for i in range(j, m)]
        v[0] += sign * norm
        beta = 2.0 / left_sum(vi * vi for vi in v)
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
    dropped.extend(range(m, n))
    coef = [0.0] * n
    for j in range(min(n, m) - 1, -1, -1):
        if j in dropped:
            continue
        s = y[j]
        for k in range(j + 1, n):
            s -= a[j][k] * coef[k]
        coef[j] = s / a[j][j]
    return coef, dropped


def reference_regressors(ts, holidays, origin):
    """One regressor row computed from the timestamp alone."""
    row = [1.0] + [1.0 if ts.weekday() == d else 0.0 for d in range(6)]
    row.append(1.0 if ts.date() in holidays else 0.0)
    yf = TWO_PI * year_fraction(ts)
    for k in (1, 2):
        row += [math.sin(k * yf), math.cos(k * yf)]
    row.append((ts - origin) / timedelta(days=365.25))
    return row


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

    def test_short_row_rejected(self):
        with pytest.raises(ValueError, match="unequal lengths"):
            qr_lstsq([[1.0, 2.0], [1.0], [1.0, 3.0]], [1.0, 2.0, 3.0])

    def test_duplicate_column_dropped(self):
        rows = [[1.0, 1.0, x] for x in (0.0, 1.0, 2.0, 3.0)]
        coef, dropped = qr_lstsq(rows, [1.0, 2.0, 3.0, 4.0])
        assert dropped == [1]
        fitted = [coef[0] * r[0] + coef[2] * r[2] for r in rows]
        assert fitted == pytest.approx([1.0, 2.0, 3.0, 4.0], rel=1e-12)


class TestQrBitIdentity:
    """The column-major solve performs the reference's operations in the
    reference's order: ``repr`` equality, so even ``-0.0`` signs count."""

    def test_random_rank_deficient_and_wide_systems(self):
        rng = random.Random(12)
        for trial in range(120):
            m, n = rng.randint(1, 9), rng.randint(1, 7)
            pick = (0.0, -0.0, 1.0, rng.uniform(-3, 3), rng.uniform(-3, 3))
            rows = [[rng.choice(pick) for _ in range(n)] for _ in range(m)]
            if trial % 3 == 0 and n > 1:  # a dependent column
                for row in rows:
                    row[-1] = 2.0 * row[0]
            ys = [rng.choice((0.0, -0.0, rng.uniform(-2, 2))) for _ in range(m)]
            assert repr(qr_lstsq(rows, ys)) == repr(row_major_householder(rows, ys))

    def test_hourly_design_matrices_of_a_year_with_holidays(self):
        series, _ = one_year_series(seed=11, start_year=2008, holidays=HOLIDAYS_2008)
        model = HourlyDeseasonalizer(holidays=HOLIDAYS_2008).fit(series)
        by_hour = {h: ([], []) for h in range(24)}
        for ts, demand in zip(series.timestamps, series.demand_mwh):
            row = reference_regressors(ts, HOLIDAYS_2008, series.start)
            z = (math.log(demand) - model.log_mean_) / model.log_std_
            by_hour[ts.hour][0].append(row)
            by_hour[ts.hour][1].append(z)
        for hour, (rows, zs) in by_hour.items():
            assert repr(qr_lstsq(rows, zs)) == repr(row_major_householder(rows, zs))
            coef, dropped = row_major_householder(rows, zs)
            assert repr(model.coef_[hour]) == repr(coef), f"hour {hour}"
            assert model.dropped_columns_.get(hour, []) == dropped


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

    def test_regressors_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            HourlyDeseasonalizer().regressors(datetime(2007, 1, 1))


class TestCalendarPassBitIdentity:
    """Rows built once per date equal rows built per timestamp, bit for bit."""

    @pytest.fixture(scope="class")
    def leap_year_model(self):
        series, _ = one_year_series(seed=12, start_year=2008, holidays=HOLIDAYS_2008)
        return series, HourlyDeseasonalizer(holidays=HOLIDAYS_2008).fit(series)

    def test_transform_seasonal_is_seasonal_at_every_hour(self, leap_year_model):
        series, model = leap_year_model
        nrs = model.transform(series)
        assert len(nrs.seasonal) == 366 * 24
        dates = {ts.date() for ts in nrs.timestamps}
        assert {date(2008, 2, 29), date(2008, 12, 31)} <= dates
        for ts, seasonal in zip(nrs.timestamps, nrs.seasonal):
            assert repr(seasonal) == repr(model.seasonal_at(ts)), ts.isoformat()

    def test_seasonal_at_is_the_dot_of_the_reference_row(self, leap_year_model):
        series, model = leap_year_model
        for ts in series.timestamps:
            row = reference_regressors(ts, HOLIDAYS_2008, series.start)
            assert repr(model.regressors(ts)) == repr(row), ts.isoformat()
            acc = 0.0
            for c, r in zip(model.coef_[ts.hour], row):
                acc += c * r
            assert repr(model.seasonal_at(ts)) == repr(acc), ts.isoformat()

    def test_residuals_are_z_score_minus_seasonal(self, leap_year_model):
        series, model = leap_year_model
        nrs = model.transform(series)
        for demand, seasonal, residual in zip(
            series.demand_mwh, nrs.seasonal, nrs.residuals
        ):
            assert repr(residual) == repr(model.normalize_log(demand) - seasonal)

    def test_fit_transform_is_fit_then_transform(self, leap_year_model):
        series, model = leap_year_model
        start, end = datetime(2008, 1, 1, 5), datetime(2009, 1, 1)
        refit = HourlyDeseasonalizer(holidays=HOLIDAYS_2008)
        nrs = refit.fit_transform(series, start, end)
        want = HourlyDeseasonalizer(holidays=HOLIDAYS_2008).fit(series, start, end)
        assert repr(refit.coef_) == repr(want.coef_)
        assert refit.fit_origin_ == want.fit_origin_
        want_nrs = want.transform(series, start, end)
        assert nrs.timestamps == want_nrs.timestamps
        assert repr(nrs.seasonal) == repr(want_nrs.seasonal)
        assert repr(nrs.residuals) == repr(want_nrs.residuals)
