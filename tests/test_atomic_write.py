"""Every file rnnp writes is complete or absent: a failed write leaves the
previous file as it was and no temporary file behind."""

from datetime import datetime
from types import SimpleNamespace

import pytest

from rnnp.base import atomic_write
from rnnp.bench import BenchRecord, emit_csv
from rnnp.gradcheck import GradCheckRow, write_report
from rnnp.pipeline import ForecastDistribution, write_forecast_csv
from rnnp.series import write_csv

TS = datetime(2007, 1, 1)


def raising_after(first):
    """Yields ``first``, then fails part-way through the write."""
    yield first
    raise RuntimeError("writer failed part-way")


def write_series(path):
    series = SimpleNamespace(
        timestamps=raising_after(TS),
        demand_mwh=[1.0, 2.0],
        drybulb_f=[3.0, 4.0],
        wetbulb_f=[5.0, 6.0],
    )
    write_csv(series, path)


def write_forecasts(path):
    forecast = ForecastDistribution(TS, 0.1, 0.2, 0.3, 8.0, 0.05, 3000.0)
    write_forecast_csv(raising_after(forecast), path)


def write_bench(path):
    emit_csv(raising_after(BenchRecord("trrl", (1,), 3, 1, 4, 10, 20, 0.5)), path)


def write_gradcheck(path):
    write_report(raising_after(GradCheckRow("trrl", 0, 4, (1,), 0.0, 0.0, True)), path)


def write_raw(path):
    with atomic_write(path) as f:
        f.write("partial\n")
        raise RuntimeError("writer failed part-way")


WRITERS = [write_series, write_forecasts, write_bench, write_gradcheck, write_raw]


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__)
def test_failed_write_keeps_previous_file(tmp_path, writer):
    path = tmp_path / "out.csv"
    path.write_bytes(b"previous,contents\r\n")
    with pytest.raises(RuntimeError, match="part-way"):
        writer(str(path))
    assert path.read_bytes() == b"previous,contents\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__)
def test_failed_first_write_leaves_no_file(tmp_path, writer):
    with pytest.raises(RuntimeError, match="part-way"):
        writer(str(tmp_path / "out.csv"))
    assert list(tmp_path.iterdir()) == []


def test_completed_write_replaces_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with atomic_write(str(path)) as f:
        f.write("a,b\r\nc\n")
    assert path.read_bytes() == b"a,b\r\nc\n"  # utf-8, newlines untranslated
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_missing_directory_names_the_destination(tmp_path):
    path = str(tmp_path / "no_such_dir" / "out.csv")
    with pytest.raises(FileNotFoundError) as info:
        with atomic_write(path) as f:
            f.write("never written\n")
    assert info.value.filename == path
