"""Counter-based complexity sweeps and their CSV surface."""

import csv

import pytest

from rnnp.bench import (
    CSV_HEADER,
    BenchRecord,
    emit_csv,
    gain_factors,
    linear_fit_r2,
    sweep_neurons,
    sweep_tau,
)
from rnnp.engines import BpttInfeasibleError, rtrl_space_floats
from rnnp.model import RnnSpec


def small_spec(lags=(1, 2), h=6, y=1, x=3):
    return RnnSpec(lag_set=lags, x_dim=x, hidden_dim=h, y_dim=y)


class TestSweepTau:
    def test_trrl_counts_grow_linearly(self):
        records = sweep_tau("trrl", small_spec(), list(range(3, 30)))
        r2 = linear_fit_r2([r.tau for r in records], [r.mac_count for r in records])
        assert r2 >= 0.999

    def test_rtrl_doubling_ratio(self):
        records = sweep_tau("rtrl", small_spec(y=2), [8, 16])
        ratio = records[1].mac_count / records[0].mac_count
        assert abs(ratio - 2.0) <= 0.1

    def test_bptt_fibonacci_growth(self):
        records = sweep_tau("bptt", small_spec(), [10, 11, 12, 13])
        for a, b in zip(records, records[1:]):
            assert 1.4 <= b.mac_count / a.mac_count <= 1.9

    def test_bptt_guard_propagates(self):
        with pytest.raises(BpttInfeasibleError):
            sweep_tau("bptt", small_spec(), [26])

    def test_counts_deterministic(self):
        a = sweep_tau("trrl", small_spec(), [9], seed=5)
        b = sweep_tau("trrl", small_spec(), [9], seed=5)
        assert a[0].mac_count == b[0].mac_count
        assert a[0].wall_seconds > 0.0

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            sweep_tau("sgd", small_spec(), [3])


class TestSweepNeurons:
    def test_grid_shape_and_gain_rows(self):
        records = sweep_neurons(
            engines=("trrl", "rtrl"),
            lag_sets=((1,), (1, 2)),
            hidden_dims=(4, 6),
            tau=8,
        )
        assert len(records) == 2 * 2 * 2
        rows = gain_factors(records)
        assert len(rows) == 4
        for row in rows:
            assert row.theoretical == len(row.lag_set) * 4  # y = 2
            assert row.gain_factor > 1.0

    def test_rtrl_peak_floats_matches_formula_on_contiguous_sets(self):
        records = sweep_neurons(
            engines=("rtrl",),
            lag_sets=((1,), (1, 2), (1, 2, 3)),
            hidden_dims=(5,),
            tau=6,
        )
        for r in records:
            spec = RnnSpec(
                lag_set=r.lag_set, x_dim=13, hidden_dim=r.hidden_dim, y_dim=r.y_dim
            )
            assert r.peak_floats == rtrl_space_floats(spec)


def read_back(path):
    """Parse a bench CSV into BenchRecords, checking its header."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        assert reader.fieldnames == CSV_HEADER
        return [
            BenchRecord(
                engine=rec["engine"],
                lag_set=tuple(int(v) for v in rec["lag_set"].split(";")),
                hidden_dim=int(rec["hidden_dim"]),
                y_dim=int(rec["y_dim"]),
                tau=int(rec["tau"]),
                mac_count=int(rec["mac_count"]),
                peak_floats=int(rec["peak_floats"]),
                wall_seconds=float(rec["wall_seconds"]),
                macronodes=int(rec["macronodes"]) if rec["macronodes"] else None,
            )
            for rec in reader
        ]


class TestCsvRoundTrip:
    def test_empty_records_header_only(self, tmp_path):
        path = str(tmp_path / "bench.csv")
        emit_csv([], path)
        with open(path) as f:
            lines = f.read().strip().splitlines()
        assert lines == [",".join(CSV_HEADER)]

    def test_round_trip(self, tmp_path):
        records = sweep_tau("bptt", small_spec(), [4, 6]) + sweep_tau(
            "trrl", small_spec(), [4]
        )
        path = str(tmp_path / "bench.csv")
        emit_csv(records, path)
        again = read_back(path)
        assert again == records

    def test_overwrite_not_append(self, tmp_path):
        path = str(tmp_path / "bench.csv")
        records = sweep_tau("trrl", small_spec(), [4])
        emit_csv(records, path)
        emit_csv(records, path)
        assert len(read_back(path)) == 1


class TestLinearFit:
    def test_perfect_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert linear_fit_r2(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)

    def test_noisy_line_detected(self):
        xs = list(range(10))
        ys = [3.0 * x + (1.0 if x % 2 else -1.0) * 10.0 for x in xs]
        assert linear_fit_r2([float(x) for x in xs], ys) < 0.99
