"""CSV ingestion, validation, and round-trip."""

import re
from datetime import date, datetime, timedelta

import pytest

from rnnp.base import DataValidationError
from rnnp.linalg import Rng
from rnnp.series import HourlySeries, ingest_csv, read_holidays, write_csv


def tiny_series(n=48, start=datetime(2007, 1, 1)):
    rng = Rng(4)
    demand = [1000.0 + 50.0 * v for v in rng.uniform(-1, 1, n)]
    dry = rng.uniform(10, 90, n)
    wet = [d - 4.0 for d in dry]
    ts = [start + timedelta(hours=i) for i in range(n)]
    return HourlySeries(timestamps=ts, demand_mwh=demand, drybulb_f=dry, wetbulb_f=wet)


class TestValidation:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataValidationError, match=re.escape(f"{path} has no rows")):
            ingest_csv(str(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("timestamp,demand_mwh,drybulb_f,wetbulb_f\n")
        with pytest.raises(DataValidationError, match=re.escape(f"{path} has no rows")):
            ingest_csv(str(path))

    def test_duplicate_timestamp_names_the_hour(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "timestamp,demand_mwh,drybulb_f,wetbulb_f\n"
            "2007-01-01T00:00:00,100,50,46\n"
            "2007-01-01T00:00:00,101,50,46\n"
        )
        with pytest.raises(DataValidationError, match="2007-01-01T00:00:00"):
            ingest_csv(str(path))

    def test_gap_detected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "timestamp,demand_mwh,drybulb_f,wetbulb_f\n"
            "2007-01-01T00:00:00,100,50,46\n"
            "2007-01-01T02:00:00,101,50,46\n"
        )
        with pytest.raises(DataValidationError, match="not hourly"):
            ingest_csv(str(path))

    def test_non_positive_demand_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text(
            "timestamp,demand_mwh,drybulb_f,wetbulb_f\n"
            "2007-01-01T00:00:00,0.0,50,46\n"
        )
        with pytest.raises(DataValidationError, match="non-positive demand_mwh 0.0 at"):
            ingest_csv(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,load\n")
        with pytest.raises(DataValidationError, match=re.escape(f"{path}: bad header")):
            ingest_csv(str(path))

    @pytest.mark.parametrize(
        "row, error, column",
        [
            ("2007-01-01T00:00:00,abc,50,46", "could not convert", "demand_mwh"),
            ("2007-01-01T00:00:00,100,50,x", "could not convert", "wetbulb_f"),
            ("2007-01-32T00:00:00,100,50,46", "day is out of range", "timestamp"),
        ],
        ids=["demand", "wetbulb", "timestamp"],
    )
    def test_unparseable_row_reports_line(self, tmp_path, row, error, column):
        path = tmp_path / "p.csv"
        path.write_text(f"timestamp,demand_mwh,drybulb_f,wetbulb_f\n{row}\n")
        with pytest.raises(DataValidationError) as info:
            ingest_csv(str(path))
        message = str(info.value)
        assert message.startswith(f"{path} line 2: {error}")
        assert message.endswith(f"(column {column})")

    def test_wrong_field_count_reports_file_and_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "timestamp,demand_mwh,drybulb_f,wetbulb_f\n2007-01-01T00:00:00,100,50\n"
        )
        with pytest.raises(DataValidationError) as info:
            ingest_csv(str(path))
        assert str(info.value) == f"{path} line 2: expected 4 fields, got 3"

    def test_non_finite_temperature_names_the_column(self):
        series = tiny_series(3)
        series.wetbulb_f[1] = float("nan")
        with pytest.raises(DataValidationError, match="non-finite wetbulb_f at"):
            HourlySeries(
                series.timestamps, series.demand_mwh, series.drybulb_f, series.wetbulb_f
            )


class TestRoundTrip:
    def test_write_then_read_is_bit_identical(self, tmp_path):
        series = tiny_series(48)
        path = str(tmp_path / "series.csv")
        write_csv(series, path)
        again = ingest_csv(path)
        assert again.timestamps == series.timestamps
        assert again.demand_mwh == series.demand_mwh
        assert again.drybulb_f == series.drybulb_f
        assert again.wetbulb_f == series.wetbulb_f


class TestIndexing:
    def test_index_of(self):
        series = tiny_series(10)
        assert series.index_of(datetime(2007, 1, 1, 3)) == 3

    def test_index_range_half_open(self):
        series = tiny_series(24)
        i, j = series.index_range(datetime(2007, 1, 1, 2), datetime(2007, 1, 1, 7))
        assert (i, j) == (2, 7)

    def test_index_range_missing_bound_is_the_series_own(self):
        series = tiny_series(24)
        assert series.index_range() == (0, 24)
        assert series.index_range(start=datetime(2007, 1, 1, 5)) == (5, 24)
        assert series.index_range(end=datetime(2007, 1, 1, 7)) == (0, 7)

    def test_out_of_range(self):
        series = tiny_series(5)
        with pytest.raises(DataValidationError):
            series.index_of(datetime(2008, 1, 1))

    def test_off_grid(self):
        series = tiny_series(5)
        with pytest.raises(DataValidationError, match="hour grid"):
            series.index_of(datetime(2007, 1, 1, 0, 30))


class TestHolidays:
    def test_read(self, tmp_path):
        path = tmp_path / "holidays.txt"
        path.write_text("2007-01-01\n\n# independence day\n2007-07-04\n")
        days = read_holidays(str(path))
        assert days == frozenset({date(2007, 1, 1), date(2007, 7, 4)})

    def test_bad_line(self, tmp_path):
        path = tmp_path / "holidays.txt"
        path.write_text("2007-13-01\n")
        with pytest.raises(DataValidationError, match="line 1"):
            read_holidays(str(path))
