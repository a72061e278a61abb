"""Subcommand behavior, exit codes, and the end-to-end CSV workflow."""

import json
import sys
from datetime import datetime

import pytest

from rnnp import cli
from rnnp.cli import main
from rnnp.features import FEATURE_DIM
from rnnp.linalg import Rng
from rnnp.model import RnnSpec, init_params, save_checkpoint
from rnnp.pipeline import (
    FORECAST_CSV_HEADER,
    LoadForecastPipeline,
    write_forecast_csv,
)
from rnnp.seasonal import HourlyDeseasonalizer
from rnnp.series import ingest_csv, write_csv
from rnnp.synth import SynthConfig, synth_generate


@pytest.fixture(scope="module")
def one_year_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "data.csv"
    write_csv(synth_generate(SynthConfig(years=1), Rng(61))[0], str(path))
    return str(path)


# A JSON integer of 5,000 digits, written by ``dumps``.  Where CPython
# limits int conversion to fewer digits (4,300 by default since 3.10.7),
# ``json.load`` rejects the file; elsewhere the value reaches the check of
# its field.
HUGE_INT = "9" * 5000
INT_DIGITS_LIMITED = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000


def dumps(record):
    """``json.dumps``, with each HUGE_INT string written as a bare integer."""
    return json.dumps(record).replace(f'"{HUGE_INT}"', HUGE_INT)


def fitted_pipeline(loss="gaussian_nll"):
    series, _ = synth_generate(SynthConfig(years=1), Rng(61))
    pipe = LoadForecastPipeline(
        lags=(1,), hidden_dim=3, loss=loss, max_epochs=1, tau=12, train_stride=97
    )
    return series, pipe.fit(series, series.start, series.end)


class TestPbonacci:
    def test_prints_partial_sum(self, capsys):
        assert main(["pbonacci", "--p", "2", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "20" in out  # S_6
        assert "sum identity" in out

    def test_csv_format(self, capsys):
        assert main(["pbonacci", "--p", "3", "--n", "5", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n,x_n,s_n")
        assert lines[-1].startswith("5,7,15")


class TestGradcheck:
    def test_exit_zero_on_correct_build(self, tmp_path, capsys):
        out = str(tmp_path / "report.csv")
        assert main(["gradcheck", "--seeds", "4", "--out", out]) == 0
        assert "0 failures" in capsys.readouterr().out
        assert (tmp_path / "report.csv").exists()


class TestBench:
    def test_tau_sweep_writes_csv(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"bench": {"tau_min": 3, "tau_max": 6, "engines": ["trrl"]}})
        )
        out = str(tmp_path / "bench.csv")
        assert main(["bench", "--mode", "tau", "--config", str(config), "--out", out]) == 0
        with open(out) as f:
            assert len(f.read().strip().splitlines()) == 5  # header + 4 taus

    def test_neurons_sweep_writes_csv_and_gain_table(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"bench": {"lag_sets": [[1]], "hidden_dims": [3]}})
        )
        out = str(tmp_path / "table.csv")
        argv = ["bench", "--mode", "neurons", "--config", str(config), "--out", out]
        assert main(argv) == 0
        with open(out) as f:
            assert len(f.read().strip().splitlines()) == 3  # header + trrl, rtrl
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].split() == ["lags", "hidden", "gain", "theory", "wall"]
        gain_rows = lines[2:]
        assert len(gain_rows) == 1
        assert gain_rows[0].split()[:2] == ["{1}", "3"]
        assert float(gain_rows[0].split()[4]) > 0.0


# (section, key, value) of config entries whose JSON type is wrong, and
# (the last) a number that does not convert to a finite float.
WRONGLY_TYPED = [
    ("model", "hidden_dim", "3"),
    ("model", "lags", [1, 2.5]),
    ("model", "tau", True),
    ("train", "learning_rate", True),
    ("train", "stride", 97.0),
    ("train", "train_start", 2007),
    ("paths", "data", 5),
    ("synth", "years", 1.5),
    ("bench", "lag_sets", [[1, "2"]]),
    ("train", "learning_rate", 10**400),
]


class TestConfigValidation:
    def test_unknown_section_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tpyo": {}}))
        out = str(tmp_path / "bench.csv")
        assert main(["bench", "--config", str(config), "--out", out]) == 2

    # A misspelt key, and a generator setting that is now a constant.
    @pytest.mark.parametrize("key, value", [("yeears", 1), ("yearly_amp", 0.1)])
    def test_unknown_key_rejected(self, tmp_path, capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {key: value}}))
        out = str(tmp_path / "x.csv")
        assert main(["synth", "--config", str(config), "--out", out]) == 2
        assert f"unknown keys in config synth: [{key!r}]" in capsys.readouterr().err

    def test_missing_config_file(self):
        assert main(["synth", "--config", "/nonexistent.json", "--out", "x.csv"]) == 2

    def test_retired_model_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {"sigma_floor": 1e-4}}))
        argv = ["train", "--config", str(config), "--out", str(tmp_path / "ck.json")]
        assert main(argv) == 2
        assert "sigma_floor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, train, named",
        [
            ({"lags": [0]}, {}, "(0,)"),
            ({"hidden_dim": 0}, {}, "hidden_dim must be >= 1, got 0"),
            ({"hidden_dim": 1001}, {}, "hidden_dim must be <= 1000, got 1001"),
            (
                {"hidden_dim": HUGE_INT},
                {},
                "config.json is not valid JSON"
                if INT_DIGITS_LIMITED
                else "hidden_dim must be <= 1000",
            ),
            (
                {"lags": list(range(1, 502)), "tau": 600},
                {},
                "len(lag_set) * y_dim must be <= 1000, got 501 * 2 = 1002",
            ),
            ({"tau": 0}, {}, "tau must be >= 1, got 0"),
            (
                {"lags": [1, 24], "tau": 12},
                {},
                "lag 24 does not fit in a window of tau=12",
            ),
            (
                {"lags": [1], "hidden_dim": 3, "tau": 26},
                {"engine": "bptt", "max_epochs": 1},
                "tau=26 exceeds the guard (25)",
            ),
            (
                {"lags": [1], "hidden_dim": 3, "tau": 12},
                {"val_start": "2007-10-01T00:00:00", "max_epochs": 1},
                "val_end is missing",
            ),
            (
                {"lags": [1], "hidden_dim": 3, "tau": 12},
                {"val_end": "2007-10-01T00:00:00", "max_epochs": 1},
                "val_start is missing",
            ),
            (
                {"lags": [1], "hidden_dim": 3, "tau": 12},
                {
                    "train_start": "2007-09-01T00:00:00",
                    "train_end": "2007-03-01T00:00:00",
                    "max_epochs": 1,
                },
                "train_start 2007-09-01T00:00:00 is not before "
                "train_end 2007-03-01T00:00:00",
            ),
            (
                {"lags": [1], "hidden_dim": 3, "tau": 12},
                {
                    "train_end": "2007-09-01T00:00:00",
                    "val_start": "2007-12-01T00:00:00",
                    "val_end": "2007-10-01T00:00:00",
                    "max_epochs": 1,
                },
                "val_start 2007-12-01T00:00:00 is not before "
                "val_end 2007-10-01T00:00:00",
            ),
            (
                {"lags": [1], "hidden_dim": 3, "tau": 12},
                {
                    "train_start": "2007-06-01T00:00:00",
                    "train_end": "2007-06-01T00:00:00",
                    "max_epochs": 1,
                },
                "train_start 2007-06-01T00:00:00 is not before "
                "train_end 2007-06-01T00:00:00",
            ),
            (
                {"lags": [1], "hidden_dim": 3, "tau": 12},
                {
                    "train_end": "2007-09-01T00:00:00",
                    "val_start": "2007-10-01T00:00:00",
                    "val_end": "2007-10-01T00:00:00",
                    "max_epochs": 1,
                },
                "val_start 2007-10-01T00:00:00 is not before "
                "val_end 2007-10-01T00:00:00",
            ),
        ],
        ids=[
            "lags",
            "hidden_dim",
            "hidden_dim_above_bound",
            "hidden_dim_past_the_int_digit_limit",
            "lag_count_above_bound",
            "tau",
            "lag_reach",
            "bptt_above_guard",
            "val_start_only",
            "val_end_only",
            "train_range_reversed",
            "val_range_reversed",
            "train_range_empty",
            "val_range_empty",
        ],
    )
    def test_bad_model_value_is_a_config_error(
        self, tmp_path, capsys, one_year_csv, model, train, named
    ):
        config = tmp_path / "config.json"
        config.write_text(dumps({"model": model, "train": {"stride": 97, **train}}))
        checkpoint = tmp_path / "ck.json"
        argv = ["train", "--config", str(config), "--data", one_year_csv]
        assert main(argv + ["--out", str(checkpoint)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not checkpoint.exists()

    @pytest.mark.parametrize(
        "model, train, named",
        [
            ({"tau": 12}, {"stride": 0}, "train_stride must be >= 1, got 0"),
            (
                {"lags": [1], "hidden_dim": 3, "tau": 26},
                {"engine": "bptt", "stride": 97},
                "tau=26 exceeds the guard (25)",
            ),
        ],
        ids=["zero_stride", "bptt_above_guard"],
    )
    def test_bad_setting_is_rejected_before_the_deseasonalizer_fit(
        self, tmp_path, capsys, monkeypatch, one_year_csv, model, train, named
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("train fitted the deseasonalizer")

        monkeypatch.setattr(HourlyDeseasonalizer, "_fit", refuse)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": model, "train": train}))
        checkpoint = tmp_path / "ck.json"
        argv = ["train", "--config", str(config), "--data", one_year_csv]
        assert main(argv + ["--out", str(checkpoint)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert named in err
        assert not checkpoint.exists()

    @pytest.mark.parametrize(
        "mode, bench, named",
        [
            ("tau", {"tau_max": 4, "engines": ["sgd"]}, "'sgd'"),
            ("neurons", {"lag_sets": [[0]]}, "(0,)"),
            ("tau", {"tau_min": 6, "tau_max": 5}, "'trrl' has no tau in [6, 5]"),
            ("tau", {"tau_min": 0, "tau_max": 4}, "bench.tau_min must be >= 1"),
            (
                "tau",
                {"tau_min": 26, "tau_max": 27, "engines": ["bptt"]},
                "at or below the guard 25",
            ),
            ("tau", {"engines": []}, "bench.engines is empty"),
            ("neurons", {"hidden_dims": []}, "bench.hidden_dims is empty"),
            ("neurons", {"lag_sets": []}, "bench.lag_sets is empty"),
        ],
        ids=[
            "engines",
            "lag_sets",
            "tau_min_above_tau_max",
            "tau_min_below_one",
            "bptt_above_guard",
            "no_engines",
            "no_hidden_dims",
            "no_lag_sets",
        ],
    )
    def test_bad_bench_value_is_a_config_error(
        self, tmp_path, capsys, mode, bench, named
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bench": bench}))
        out = tmp_path / "bench.csv"
        argv = ["bench", "--mode", mode, "--config", str(config), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["pbonacci", "--p", "1", "--n", "5"], "order p must be >= 2, got 1"),
            (["pbonacci", "--p", "2", "--n", "0"], "table length must be >= 1, got 0"),
            (["synth", "--out", "s.csv", "--start-year", "0"], "start_year 0"),
            (
                ["synth", "--out", "s.csv", "--start-year", "9995", "--years", "5"],
                "start_year 9995 and 5 years",
            ),
            (["gradcheck", "--seeds", "0"], "--seeds must be >= 1, got 0"),
            (["gradcheck", "--seeds", "-3"], "--seeds must be >= 1, got -3"),
        ],
        ids=[
            "pbonacci-p",
            "pbonacci-n",
            "synth-start_year",
            "synth-past_9999",
            "gradcheck-zero_seeds",
            "gradcheck-negative_seeds",
        ],
    )
    def test_argument_that_crashes_or_runs_nothing_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, argv, named
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and named in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "section, key, value",
        WRONGLY_TYPED,
        ids=[f"{section}.{key}" for section, key, _ in WRONGLY_TYPED[:-1]]
        + ["train.learning_rate_too_large_for_a_float"],
    )
    def test_wrongly_typed_value_is_a_config_error(
        self, tmp_path, capsys, one_year_csv, section, key, value
    ):
        config = {
            "model": {"hidden_dim": 3, "tau": 12},
            "train": {"stride": 97, "max_epochs": 1},
        }
        config.setdefault(section, {})[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        checkpoint = tmp_path / "ck.json"
        argv = ["train", "--config", str(path), "--data", one_year_csv]
        assert main(argv + ["--out", str(checkpoint)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{section}.{key} " in err
        assert not checkpoint.exists()

    def test_unread_paths_out_rejected(self, tmp_path, capsys, one_year_csv):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "paths": {"out": str(tmp_path / "x.csv")},
                    "model": {"hidden_dim": 3, "tau": 12},
                    "train": {"stride": 97, "max_epochs": 1},
                }
            )
        )
        checkpoint = tmp_path / "ck.json"
        argv = ["train", "--config", str(config), "--data", one_year_csv]
        assert main(argv + ["--out", str(checkpoint)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'out'" in err
        assert not checkpoint.exists()

    @pytest.mark.parametrize(
        "mode, bench, unread",
        [
            ("neurons", {"engines": ["sgd"]}, "engines"),
            ("neurons", {"tau_max": 4}, "tau_max"),
            ("tau", {"hidden_dims": [3]}, "hidden_dims"),
        ],
        ids=["neurons-engines", "neurons-tau_max", "tau-hidden_dims"],
    )
    def test_key_the_mode_does_not_read_is_a_config_error(
        self, tmp_path, capsys, mode, bench, unread
    ):
        config = tmp_path / "config.json"
        # Each sweep otherwise runs a small case.
        small = {
            "tau": {"tau_min": 3, "tau_max": 4, "engines": ["trrl"]},
            "neurons": {"lag_sets": [[1]], "hidden_dims": [3]},
        }
        config.write_text(json.dumps({"bench": {**small[mode], **bench}}))
        out = tmp_path / "bench.csv"
        argv = ["bench", "--mode", mode, "--config", str(config), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(unread) in err
        assert not out.exists()

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,demand_mwh,drybulb_f,wetbulb_f\n")
        assert (
            main(
                [
                    "train",
                    "--data",
                    str(bad),
                    "--out",
                    str(tmp_path / "ck.json"),
                ]
            )
            == 3
        )


DELETE = object()

# (path into the checkpoint record, new value or DELETE, what the error names)
MALFORMED_ENTRIES = [
    (("theta", 0), "0.5", "theta"),
    (("theta", 0), None, "theta"),
    (("phi", 0), float("nan"), "phi"),
    (("extras", "normalization", "log_std"), "1.0", "normalization.log_std"),
    (("extras", "normalization", "log_std"), 0.0, "normalization.log_std"),
    (("extras", "encoder", "drybulb_std"), "1.0", "encoder.drybulb_std"),
    (("extras", "encoder", "wetbulb_std"), 0, "encoder.wetbulb_std"),
    (("extras", "pipeline_params", "tau"), "12", "pipeline_params.tau"),
    (("extras", "pipeline_params", "tau"), 0, "tau must be >= 1, got 0"),
    (("extras", "pipeline_params", "tau"), 1, "largest lag 1 does not fit"),
    (("extras", "pipeline_params", "lags"), 1, "pipeline_params.lags"),
    (("extras", "pipeline_params", "loss"), 3, "pipeline_params.loss"),
    (("extras", "pipeline_params", "loss"), "mae", "'mae'"),
    (("extras", "seasonal", "fit_origin"), "2007-13-01", "seasonal.fit_origin"),
    (("extras", "seasonal", "fit_origin"), "2007-01-01T00:00:00+00:00", "UTC offset"),
    (("extras", "seasonal", "coef", "x"), [0.0] * 13, "seasonal.coef: ['x']"),
    (("extras", "seasonal", "coef", "5"), DELETE, "hour 5"),
    (("extras", "seasonal", "coef", "0"), [0.0] * 14, "hour 0"),
    (("extras", "seasonal", "coef", "0"), [0.0], "hour 0"),
    (("extras", "pipeline_params", "bogus"), 1, "bogus"),
    (("spec", "hidden_activation"), "tanh", "tanh"),
    (("extras", "pipeline_params", "include_trend"), False, "include_trend"),
    (("spec", "hidden_dim"), 3.0, "hidden_dim"),
    (("spec", "lag_set"), [1.5], "lag_set"),
    (("spec",), "x", "spec"),
    (("spec",), [], "spec"),
    (("spec",), 5, "spec"),
    (("extras", "pipeline_params", "engine"), "bogus", "'bogus'"),
    (("theta", 0), 10**400, "theta"),
    (("extras", "seasonal", "coef", "0", 0), 10**400, "seasonal.coef.0"),
    (("extras", "normalization", "log_mean"), 10**400, "normalization.log_mean"),
    (("extras", "encoder", "drybulb_mean"), 10**400, "encoder.drybulb_mean"),
    (
        ("extras", "pipeline_params", "learning_rate"),
        10**400,
        "pipeline_params.learning_rate",
    ),
    (("spec", "hidden_dim"), 1001, "hidden_dim must be <= 1000"),
    (("spec", "y_dim"), 2**63, "y_dim must be <= 1000"),
    (("spec", "x_dim"), 10**6, "weight_count must be <= 25000"),
    (
        ("spec", "lag_set"),
        list(range(1, 502)),
        "len(lag_set) * y_dim must be <= 1000, got 501 * 2 = 1002",
    ),
    (
        ("spec",),
        {"lag_set": [1, 2], "x_dim": 13, "hidden_dim": 3, "y_dim": 600},
        "len(lag_set) * y_dim must be <= 1000",
    ),
    (("theta", 0), HUGE_INT, "model.json is not valid JSON" if INT_DIGITS_LIMITED else "theta"),
    (("extras", "pipeline_params", "tau"), DELETE, "pipeline_params.tau"),
    (("extras", "pipeline_params", "train_stride"), 0, "train_stride must be >= 1, got 0"),
]


@pytest.fixture(scope="module")
def saved_pipeline(tmp_path_factory):
    """(data CSV, checkpoint record) of a small fitted pipeline."""
    series, pipe = fitted_pipeline()
    folder = tmp_path_factory.mktemp("saved")
    data, checkpoint = folder / "data.csv", folder / "model.json"
    write_csv(series, str(data))
    pipe.save(str(checkpoint))
    return str(data), json.loads(checkpoint.read_text())


class TestMalformedCheckpoint:
    @pytest.mark.parametrize(
        "path, value, named",
        MALFORMED_ENTRIES,
        ids=[
            "theta_string",
            "theta_null",
            "phi_nan",
            "log_std_string",
            "log_std_zero",
            "drybulb_std_string",
            "wetbulb_std_zero",
            "tau_string",
            "tau_zero",
            "tau_within_a_lag",
            "lags_integer",
            "loss_number",
            "loss_unknown",
            "fit_origin_not_a_date",
            "fit_origin_with_offset",
            "coef_key_not_an_hour",
            "coef_hour_missing",
            "coef_one_extra",
            "coef_one_entry",
            "pipeline_param_unknown",
            "hidden_activation_unknown",
            "retired_setting_at_another_value",
            "spec_hidden_dim_float",
            "spec_lag_float",
            "spec_string",
            "spec_list",
            "spec_number",
            "engine_unknown",
            "theta_too_large_for_a_float",
            "coef_too_large_for_a_float",
            "log_mean_too_large_for_a_float",
            "drybulb_mean_too_large_for_a_float",
            "learning_rate_too_large_for_a_float",
            "spec_hidden_dim_above_bound",
            "spec_y_dim_above_bound",
            "spec_weight_count_above_bound",
            "spec_lag_count_above_bound",
            "spec_lags_times_y_dim_above_bound",
            "theta_past_the_int_digit_limit",
            "tau_missing",
            "train_stride_zero",
        ],
    )
    def test_malformed_entry_exits_with_data_error_naming_it(
        self, tmp_path, capsys, saved_pipeline, path, value, named
    ):
        data, record = saved_pipeline
        record = json.loads(json.dumps(record))
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        checkpoint, out = tmp_path / "model.json", tmp_path / "forecast.csv"
        checkpoint.write_text(dumps(record))
        argv = ["forecast", "--checkpoint", str(checkpoint), "--data", data]
        argv += ["--start", "2007-06-01T00:00:00", "--end", "2007-06-01T02:00:00"]
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and named in err
        assert not out.exists()

    def test_bptt_above_its_guard_exits_with_data_error(
        self, tmp_path, capsys, saved_pipeline
    ):
        # Each setting alone is valid; together bptt could not train them.
        data, record = saved_pipeline
        record = json.loads(json.dumps(record))
        record["extras"]["pipeline_params"].update(engine="bptt", tau=26)
        checkpoint, out = tmp_path / "model.json", tmp_path / "forecast.csv"
        checkpoint.write_text(json.dumps(record))
        argv = ["forecast", "--checkpoint", str(checkpoint), "--data", data]
        argv += ["--start", "2007-06-01T00:00:00", "--end", "2007-06-01T02:00:00"]
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "pipeline_params are invalid: tau=26 exceeds the guard (25)" in err
        assert not out.exists()

    def test_x_dim_other_than_the_encoder_width_exits_with_data_error(
        self, tmp_path, capsys, saved_pipeline
    ):
        # A consistent checkpoint (theta resized to the spec) whose network
        # reads 5 inputs, where the encoder writes FEATURE_DIM of them.
        data, record = saved_pipeline
        record = json.loads(json.dumps(record))
        record["spec"]["x_dim"] = 5
        theta_size = RnnSpec.from_dict(record["spec"]).theta_size
        record["theta"] = record["theta"][:theta_size]
        checkpoint, out = tmp_path / "model.json", tmp_path / "forecast.csv"
        checkpoint.write_text(json.dumps(record))
        argv = ["forecast", "--checkpoint", str(checkpoint), "--data", data]
        argv += ["--start", "2007-06-01T00:00:00", "--end", "2007-06-01T02:00:00"]
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "'x_dim': 5" in err
        assert f"'x_dim': {FEATURE_DIM}" in err
        assert not out.exists()

    def write_foreign(self, path):
        path.write_text('{"magic": "NOPE"}')

    def write_truncated(self, path):
        path.write_text('{"magic": "RNNP1", "spec": {"lag_set": [1, 2')

    def write_model_only(self, path):
        spec = RnnSpec(lag_set=(1,), x_dim=13, hidden_dim=2, y_dim=2)
        save_checkpoint(str(path), spec, init_params(spec, Rng(0)))

    @pytest.mark.parametrize("kind", ["foreign", "truncated", "model_only"])
    def test_forecast_exits_with_data_error(self, tmp_path, capsys, kind):
        data = tmp_path / "data.csv"
        data.write_text(
            "timestamp,demand_mwh,drybulb_f,wetbulb_f\n"
            "2007-01-01T00:00:00,100.0,30.0,28.0\n"
            "2007-01-01T01:00:00,101.0,31.0,29.0\n"
        )
        checkpoint = tmp_path / "model.json"
        getattr(self, "write_" + kind)(checkpoint)
        argv = [
            "forecast",
            "--checkpoint",
            str(checkpoint),
            "--data",
            str(data),
            "--start",
            "2007-01-01T01:00:00",
            "--end",
            "2007-01-01T02:00:00",
            "--out",
            str(tmp_path / "forecast.csv"),
        ]
        assert main(argv) == 3
        assert "data error" in capsys.readouterr().err


class TestMissingFiles:
    def test_forecast_missing_checkpoint(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text(
            "timestamp,demand_mwh,drybulb_f,wetbulb_f\n"
            "2007-01-01T00:00:00,100.0,30.0,28.0\n"
        )
        argv = [
            "forecast",
            "--checkpoint",
            "nope.json",
            "--data",
            str(data),
            "--start",
            "2007-01-01T00:00:00",
            "--end",
            "2007-01-01T01:00:00",
            "--out",
            str(tmp_path / "forecast.csv"),
        ]
        assert main(argv) == 3
        assert "nope.json" in capsys.readouterr().err

    def test_train_missing_data(self, tmp_path, capsys):
        argv = ["train", "--data", "nope.csv", "--out", str(tmp_path / "ck.json")]
        assert main(argv) == 3
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--history"])
    def test_train_output_directory_missing_exits_before_training(
        self, tmp_path, capsys, one_year_csv, flag
    ):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "model": {"lags": [1], "hidden_dim": 3, "tau": 12},
                    "train": {"stride": 97, "max_epochs": 1},
                }
            )
        )
        checkpoint = tmp_path / "ck.json"
        missing = str(tmp_path / "no_such_dir" / "out.file")
        args = {
            "--config": str(config),
            "--data": one_year_csv,
            "--out": str(checkpoint),
            "--history": str(tmp_path / "h.csv"),
            flag: missing,
        }
        assert main(["train", *(a for item in args.items() for a in item)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and missing in err
        assert not checkpoint.exists()

    def test_unwritable_output_names_the_destination(self, tmp_path, capsys):
        out = str(tmp_path / "no_such_dir" / "series.csv")
        assert main(["synth", "--out", out, "--years", "1"]) == 2
        err = capsys.readouterr().err
        assert out in err and ".tmp" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--out", "series.csv", "--truth-out", "MISSING"],
            ["forecast", "--checkpoint", "ck.json", "--data", "data.csv",
             "--start", "2007-01-03T00:00:00", "--end", "2007-01-04T00:00:00",
             "--out", "MISSING"],
            ["evaluate", "--forecasts", "fc.csv", "--data", "data.csv",
             "--out", "MISSING"],
            ["gradcheck", "--seeds", "1", "--out", "MISSING"],
            ["bench", "--config", "config.json", "--out", "MISSING"],
        ],
        ids=["synth-truth", "forecast", "evaluate", "gradcheck", "bench"],
    )
    def test_output_directory_missing_exits_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the subcommand started work")

        for name in (
            "load_config",
            "ingest_csv",
            "synth_generate",
            "run_gradient_check",
            "_bench_records",
        ):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.chdir(tmp_path)
        missing = str(tmp_path / "no_such_dir" / "out.file")
        assert main([missing if a == "MISSING" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and missing in err
        assert list(tmp_path.iterdir()) == []


class TestNonUtf8Input:
    """A file that is not utf-8 is bad data (or a bad config), named."""

    @pytest.mark.parametrize(
        "flag, code",
        [("--data", 3), ("--config", 2), ("--holidays", 3), ("--forecasts", 3)],
    )
    def test_exits_naming_the_file(self, tmp_path, capsys, one_year_csv, flag, code):
        bad = str(tmp_path / "bad.txt")
        with open(bad, "wb") as f:  # a utf-16 file with its byte-order mark
            f.write(b"\xff\xfe" + "2007-01-01\n".encode("utf-16-le"))
        if flag == "--forecasts":
            args = {"--forecasts": bad, "--data": one_year_csv}
            command = "evaluate"
        else:
            args = {"--data": one_year_csv, "--out": str(tmp_path / "ck.json")}
            args[flag] = bad
            command = "train"
        assert main([command, *(a for item in args.items() for a in item)]) == code
        err = capsys.readouterr().err
        assert bad in err and "utf-8" in err
        assert not (tmp_path / "ck.json").exists()


class TestEvaluate:
    @pytest.mark.parametrize("loss", ["mse", "gaussian_nll"])
    def test_cli_scores_like_the_pipeline(self, tmp_path, loss):
        series, pipe = fitted_pipeline(loss)
        forecasts = pipe.forecast_range(
            series, datetime(2007, 8, 1), datetime(2007, 8, 3)
        )
        data, csv_path, report = (
            str(tmp_path / name) for name in ("data.csv", "fc.csv", "report.json")
        )
        write_csv(series, data)
        write_forecast_csv(forecasts, csv_path)
        argv = ["evaluate", "--forecasts", csv_path, "--data", data, "--out", report]
        assert main(argv) == 0
        with open(report) as f:
            assert json.load(f) == pipe.evaluate(forecasts, series).to_dict()


    @pytest.mark.parametrize(
        "body, named",
        [
            ("", "fc.csv"),
            ("not-a-time,1.0,0.1,0.2,1.0,2.0\n", "line 2"),
            ("2007-01-01T00:00:00,1.0,0.1,0.2,1.0,2.0\n"
             "2007-01-01T01:00:00,many,0.1,0.2,1.0,2.0\n", "line 3"),
            ("2007-01-01T00:00:00,nan,0.1,0.2,1.0,2.0\n", "line 2"),
            ("2007-01-01T00:00:00,1.0,inf,0.2,1.0,2.0\n", "line 2"),
            ("2007-01-01T00:00:00,1.0,0.1,-0.2,1.0,2.0\n", "line 2"),
            ("2007-01-01T00:00:00,1.0,0.1,0.2,1.0,2.0\n"
             "2007-01-01T01:00:00,1.0,0.1,0.2,1.0,2.0\n"
             "2007-01-01T00:00:00,1.0,0.1,0.2,1.0,2.0\n",
             "line 4: timestamp 2007-01-01T00:00:00 repeats line 2"),
            ("2007-01-01T00:00:00,1.0,0.1,0.2,1.0,2.0\n"
             "2007-01-01T01:00:00,1.0,0.1,,,\n",
             "line 3: sigma_log is empty but not on line 2"),
            ("2007-01-01T00:00:00,1.0,0.1,0.2,abc,-5\n", "line 2: could not convert"),
            ("2007-01-01T00:00:00,1.0,0.1,0.2,1.0,-5\n", "line 2: q05 1.0 and q95 -5.0"),
            ("2007-01-01T00:00:00,1.0,0.1,0.2,0.0,2.0\n", "line 2: q05 0.0 and q95 2.0"),
            ("2007-01-01T00:00:00,1.0,0.1,0.2,2.0,1.0\n", "line 2: q05 2.0 and q95 1.0"),
            ("2007-01-01T00:00:00,1.0,0.1,0.2,1.0,inf\n", "line 2: q05 1.0 and q95 inf"),
            ("2007-01-01T00:00:00,1.0,0.1,0.2,1.0,nan\n", "line 2: q05 1.0 and q95 nan"),
            ("2007-01-01T00:00:00,1.0,0.1,0.2,,\n", "line 2: could not convert"),
            ("2007-01-01T00:00:00,1.0,0.1,,1.0,2.0\n",
             "line 2: q05 '1.0' and q95 '2.0' must be empty where sigma_log is"),
            ("2007-01-01T00:00:00,1.0,0.1,,,2.0\n", "line 2: q05 '' and q95 '2.0'"),
            ("2007-01-01T00:00:00+00:00,1.0,0.1,0.2,1.0,2.0\n",
             "line 2: timestamp '2007-01-01T00:00:00+00:00' has a UTC offset"),
            ("2007-01-01T00:00:00,1.0,0.1,0.2,1.0,2.0\n"
             "2007-01-01T01:00:00,1.0,0.1\n",
             "line 3: 3 fields, expected 6: no sigma_log, q05, q95"),
            ("2007-01-01T00:00:00,1.0,0.1,0.2,1.0,2.0,3.0,4.0\n",
             "line 2: 8 fields, expected 6"),
            ("2007-01-01T00:00:00,1.0,0.1,0.2,1.0,2.0\n"
             "\n"
             "2007-01-01T01:00:00,1.0,0.1,0.2,1.0,2.0\n",
             "line 3: 0 fields, expected 6: no timestamp, point, mu_log"),
            ("2007-01-01T00:00:00,1.0,2782,0.2,1.0,2.0\n",
             "line 2: mu_log 2782.0 and sigma_log 0.2 overflow a float"),
            ("2007-01-01T00:00:00,1.0,0.1,1e308,1.0,2.0\n",
             "line 2: mu_log 0.1 and sigma_log 1e+308 overflow a float"),
        ],
        ids=[
            "header_only",
            "bad_timestamp",
            "bad_number",
            "nan_point",
            "inf_mu_log",
            "negative_sigma_log",
            "repeated_timestamp",
            "mixed_sigma",
            "q05_not_a_number",
            "q95_negative",
            "q05_zero",
            "q05_above_q95",
            "q95_infinite",
            "q95_nan",
            "quantiles_empty_with_sigma",
            "quantiles_set_without_sigma",
            "q95_set_without_sigma",
            "timestamp_with_offset",
            "row_cut_to_3_fields",
            "row_with_8_fields",
            "empty_row",
            "mu_log_overflows",
            "sigma_log_overflows",
        ],
    )
    def test_malformed_forecasts_exit_with_data_error(
        self, tmp_path, capsys, body, named
    ):
        data, forecasts = tmp_path / "data.csv", tmp_path / "fc.csv"
        data.write_text(
            "timestamp,demand_mwh,drybulb_f,wetbulb_f\n"
            "2007-01-01T00:00:00,100.0,30.0,28.0\n"
            "2007-01-01T01:00:00,101.0,30.0,28.0\n"
        )
        forecasts.write_text(",".join(FORECAST_CSV_HEADER) + "\n" + body)
        argv = ["evaluate", "--forecasts", str(forecasts), "--data", str(data)]
        assert main(argv) == 3
        assert named in capsys.readouterr().err


class TestNaiveTimestamps:
    """Timestamps are naive local hours: one with a UTC offset is a data
    error in a file and a config error in an argument or config date."""

    OFFSET = "2007-06-01T00:00:00+00:00"

    def test_series_csv_with_offset_exits_with_data_error(self, tmp_path, capsys):
        data, forecasts = tmp_path / "data.csv", tmp_path / "fc.csv"
        data.write_text(
            "timestamp,demand_mwh,drybulb_f,wetbulb_f\n"
            f"{self.OFFSET},100.0,30.0,28.0\n"
        )
        forecasts.write_text(
            ",".join(FORECAST_CSV_HEADER) + "\n2007-06-01T00:00:00,1.0,0.1,0.2,1.0,2.0\n"
        )
        argv = ["evaluate", "--forecasts", str(forecasts), "--data", str(data)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert f"{data} line 2: timestamp '{self.OFFSET}' has a UTC offset" in err

    def test_forecast_csv_with_offset_exits_with_data_error(
        self, tmp_path, capsys, one_year_csv
    ):
        forecasts = tmp_path / "fc.csv"
        forecasts.write_text(
            ",".join(FORECAST_CSV_HEADER) + f"\n{self.OFFSET},1.0,0.1,0.2,1.0,2.0\n"
        )
        argv = ["evaluate", "--forecasts", str(forecasts), "--data", one_year_csv]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert f"{forecasts} line 2: timestamp '{self.OFFSET}' has a UTC offset" in err

    @pytest.mark.parametrize("flag", ["--start", "--end"])
    def test_forecast_bound_with_offset_exits_with_config_error(
        self, tmp_path, capsys, saved_pipeline, flag
    ):
        data, record = saved_pipeline
        checkpoint, out = tmp_path / "model.json", tmp_path / "forecast.csv"
        checkpoint.write_text(json.dumps(record))
        bounds = {"--start": "2007-06-01T00:00:00", "--end": "2007-06-01T02:00:00"}
        bounds[flag] = self.OFFSET
        argv = ["forecast", "--checkpoint", str(checkpoint), "--data", data]
        argv += [a for item in bounds.items() for a in item]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag in err and "UTC offset" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "start, end",
        [
            ("2007-06-02T00:00:00", "2007-06-01T00:00:00"),
            ("2007-06-01T00:00:00", "2007-06-01T00:00:00"),
        ],
        ids=["reversed", "empty"],
    )
    def test_forecast_start_not_before_end_exits_with_config_error(
        self, tmp_path, capsys, one_year_csv, start, end
    ):
        # The bounds are checked before the checkpoint is read: there is none.
        out = tmp_path / "forecast.csv"
        argv = ["forecast", "--checkpoint", str(tmp_path / "missing.json")]
        argv += ["--data", one_year_csv, "--start", start, "--end", end]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"--start {start} is not before --end {end}" in err
        assert not out.exists()

    def test_config_date_with_offset_exits_with_config_error(
        self, tmp_path, capsys, one_year_csv
    ):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"model": {"lags": [1], "hidden_dim": 3, "tau": 12},
                        "train": {"stride": 97, "train_end": self.OFFSET}})
        )
        checkpoint = tmp_path / "ck.json"
        argv = ["train", "--config", str(config), "--data", one_year_csv]
        assert main(argv + ["--out", str(checkpoint)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "train_end" in err
        assert "UTC offset" in err
        assert not checkpoint.exists()


class TestEndToEndWorkflow:
    def test_synth_train_forecast_evaluate(self, tmp_path, capsys):
        data = str(tmp_path / "data.csv")
        assert main(["synth", "--out", data, "--years", "2", "--seed", "11"]) == 0
        series = ingest_csv(data)
        assert len(series) == (365 + 366) * 24

        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "seed": 5,
                    "model": {"lags": [1], "hidden_dim": 3, "loss": "gaussian_nll",
                              "tau": 12},
                    "train": {
                        "engine": "trrl",
                        "learning_rate": 5e-3,
                        "batch_size": 32,
                        "max_epochs": 2,
                        "patience": 5,
                        "stride": 73,
                        "train_start": "2007-01-01T00:00:00",
                        "train_end": "2008-01-01T00:00:00",
                    },
                }
            )
        )
        checkpoint = str(tmp_path / "model.rnnp.json")
        history = str(tmp_path / "history.csv")
        assert (
            main(
                [
                    "train",
                    "--config",
                    str(config),
                    "--data",
                    data,
                    "--out",
                    checkpoint,
                    "--history",
                    history,
                ]
            )
            == 0
        )
        with open(history) as f:
            lines = f.read().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,seconds"
        assert len(lines) == 3

        forecasts = str(tmp_path / "forecast.csv")
        assert (
            main(
                [
                    "forecast",
                    "--checkpoint",
                    checkpoint,
                    "--data",
                    data,
                    "--start",
                    "2008-02-01T00:00:00",
                    "--end",
                    "2008-02-03T00:00:00",
                    "--out",
                    forecasts,
                ]
            )
            == 0
        )

        report = str(tmp_path / "report.json")
        assert (
            main(
                [
                    "evaluate",
                    "--forecasts",
                    forecasts,
                    "--data",
                    data,
                    "--out",
                    report,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "RMSE" in out
        with open(report) as f:
            payload = json.load(f)
        assert set(payload) >= {"rmse_mwh", "mape_pct"}

    def test_synth_determinism_across_invocations(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        main(["synth", "--out", a, "--years", "1", "--seed", "3"])
        main(["synth", "--out", b, "--years", "1", "--seed", "3"])
        assert open(a).read() == open(b).read()

    def test_synth_truth_out_lists_the_config_it_was_made_with(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {"noise_sigma": 0.03, "ar1": 0.3}}))
        truth = tmp_path / "truth.json"
        argv = ["synth", "--config", str(config), "--out", str(tmp_path / "s.csv")]
        assert main(argv + ["--years", "1", "--truth-out", str(truth)]) == 0
        with open(truth) as f:
            payload = json.load(f)
        assert payload["config"] == {
            "start_year": 2007,
            "years": 1,
            "holidays": [],
            "temp_coeff": 0.05,
            "temp_coeff_lag24": 0.06,
            "ar1": 0.3,
            "ar24": 0.25,
            "noise_sigma": 0.03,
        }
        assert len(payload["log_det"]) == len(payload["noise"]) == 8760
