"""Feature encoder: trig identities, dummies, holiday flag, normalization."""

import calendar
import math
from datetime import date, datetime, timedelta

import pytest

from rnnp.base import NotFittedError
from rnnp.features import FEATURE_DIM, TWO_PI, CalendarFeatureEncoder
from tests.test_series import tiny_series

HOLIDAYS = frozenset(
    {date(2007, 1, 1), date(2007, 7, 4), date(2007, 12, 31), date(2008, 2, 29),
     date(2008, 12, 25)}
)


def year_fraction(ts: datetime) -> float:
    """Fraction of the year elapsed at ``ts``, in [0, 1)."""
    days = 366.0 if calendar.isleap(ts.year) else 365.0
    return (ts.timetuple().tm_yday - 1 + ts.hour / 24.0) / days


def fitted_encoder(series, holidays=frozenset()):
    return CalendarFeatureEncoder(holidays=holidays).fit(series)


class TestEncoding:
    def test_row_width(self):
        series = tiny_series(24)
        rows = fitted_encoder(series).transform(series)
        assert all(len(r) == FEATURE_DIM for r in rows)

    def test_trig_pairs_on_unit_circle(self):
        series = tiny_series(24 * 14)
        for row in fitted_encoder(series).transform(series):
            assert abs(row[0] ** 2 + row[1] ** 2 - 1.0) <= 1e-12
            assert abs(row[2] ** 2 + row[3] ** 2 - 1.0) <= 1e-12

    def test_day_of_week_dummies_one_hot(self):
        series = tiny_series(24 * 8)
        enc = fitted_encoder(series)
        for ts, row in zip(series.timestamps, enc.transform(series)):
            dummies = row[4:10]
            if ts.weekday() == 6:  # Sunday is the baseline
                assert dummies == [0.0] * 6
            else:
                assert sum(dummies) == 1.0
                assert dummies[ts.weekday()] == 1.0

    def test_holiday_flag_matches_calendar(self):
        series = tiny_series(48)
        enc = fitted_encoder(series, holidays=frozenset({date(2007, 1, 2)}))
        rows = enc.transform(series)
        for ts, row in zip(series.timestamps, rows):
            assert row[10] == (1.0 if ts.date() == date(2007, 1, 2) else 0.0)

    def test_deterministic(self):
        series = tiny_series(24)
        enc = fitted_encoder(series)
        ts = series.timestamps[5]
        a = enc.encode(ts, 55.0, 50.0)
        b = enc.encode(ts, 55.0, 50.0)
        assert a == b

    def test_temperatures_z_scored_on_fit_window(self):
        series = tiny_series(24 * 10)
        enc = CalendarFeatureEncoder().fit(
            series, datetime(2007, 1, 1), datetime(2007, 1, 3)
        )
        window = series.drybulb_f[:48]
        mean = sum(window) / len(window)
        assert enc.drybulb_mean_ == pytest.approx(mean)
        rows = enc.transform(series)
        z = [r[11] for r in rows[:48]]
        assert sum(z) / len(z) == pytest.approx(0.0, abs=1e-12)

    def test_range_transform_is_the_slice_of_the_whole(self):
        series = tiny_series(24 * 3)
        enc = fitted_encoder(series, holidays=frozenset({date(2007, 1, 2)}))
        whole = enc.transform(series)
        start, end = datetime(2007, 1, 1, 20), datetime(2007, 1, 2, 9)
        assert enc.transform(series, start, end) == whole[20:33]
        assert enc.transform(series, start) == whole[20:]
        assert enc.transform(series, end=end) == whole[:33]

    def test_fit_transform_encodes_the_fitted_range(self):
        series = tiny_series(24 * 3)
        start, end = datetime(2007, 1, 1, 20), datetime(2007, 1, 2, 9)
        rows = CalendarFeatureEncoder().fit_transform(series, start, end)
        fitted = CalendarFeatureEncoder().fit(series, start, end)
        assert rows == fitted.transform(series, start, end)
        assert len(rows) == 13

    def test_unfitted_rejected(self):
        with pytest.raises(NotFittedError):
            CalendarFeatureEncoder().encode(datetime(2007, 1, 1), 50.0, 45.0)


class TestCalendarPassBitIdentity:
    """Rows built once per date equal rows built per timestamp, bit for bit."""

    @pytest.fixture(scope="class")
    def two_years(self):
        series = tiny_series(24 * (365 + 366))
        return series, fitted_encoder(series, HOLIDAYS)

    def test_transform_rows_are_the_per_row_encode(self, two_years):
        series, enc = two_years
        rows = enc.transform(series)
        for ts, dry, wet, row in zip(
            series.timestamps, series.drybulb_f, series.wetbulb_f, rows
        ):
            assert repr(row) == repr(enc.encode(ts, dry, wet)), ts.isoformat()

    def test_calendar_columns_from_the_timestamp_alone(self, two_years):
        series, enc = two_years
        assert series.timestamps[-1] == datetime(2008, 12, 31, 23)
        for ts, row in zip(series.timestamps, enc.transform(series)):
            hour_angle = TWO_PI * ts.hour / 24.0
            year_angle = TWO_PI * year_fraction(ts)
            want = [
                math.sin(hour_angle),
                math.cos(hour_angle),
                math.sin(year_angle),
                math.cos(year_angle),
            ]
            want += [1.0 if ts.weekday() == d else 0.0 for d in range(6)]
            want.append(1.0 if ts.date() in HOLIDAYS else 0.0)
            assert repr(row[:11]) == repr(want), ts.isoformat()


class TestYearFraction:
    def test_leap_year_alignment(self):
        # End of year approaches 1 regardless of leap status.
        assert year_fraction(datetime(2007, 12, 31, 23)) == pytest.approx(
            (364 + 23 / 24) / 365
        )
        assert year_fraction(datetime(2008, 12, 31, 23)) == pytest.approx(
            (365 + 23 / 24) / 366
        )

    def test_starts_at_zero(self):
        assert year_fraction(datetime(2007, 1, 1, 0)) == 0.0

    def test_formula_over_a_leap_and_a_common_year(self):
        ts = datetime(2007, 1, 1)
        while ts.year < 2009:
            days = 366.0 if ts.year == 2008 else 365.0
            want = (ts.timetuple().tm_yday - 1 + ts.hour / 24.0) / days
            assert repr(year_fraction(ts)) == repr(want), ts.isoformat()
            ts += timedelta(hours=1)
