"""End-to-end pipeline behavior at desk scale.

The heavyweight accuracy/calibration checks live in test_acceptance; these
tests pin the assembly semantics: zero-network identities, checkpoint
round-trips, forecast file formats, and the walk-forward driver shape.
"""

import json
import math
import re
from datetime import date, datetime, timedelta

import pytest

import rnnp.forecaster
import rnnp.pipeline
from rnnp.base import ConfigError, DataValidationError
from rnnp.features import FEATURE_DIM, CalendarFeatureEncoder
from rnnp.linalg import Rng
from rnnp.model import ModelParams, forward_sequence
from rnnp.pipeline import (
    PARAM_KINDS,
    LoadForecastPipeline,
    build_walk_forward_plan,
    read_forecast_csv,
    run_walk_forward,
    write_forecast_csv,
)
from rnnp.synth import SynthConfig, synth_generate
from rnnp.training import SIGMA_FLOOR, HyperGrid, softplus


def make_series(years=2, seed=50, **overrides):
    series, truth = synth_generate(SynthConfig(years=years, **overrides), Rng(seed))
    return series, truth


def quick_pipeline(**overrides):
    kwargs = dict(
        lags=(1,),
        hidden_dim=3,
        loss="gaussian_nll",
        learning_rate=5e-3,
        batch_size=32,
        max_epochs=2,
        patience=10,
        tau=12,
        train_stride=48,
        seed=9,
    )
    kwargs.update(overrides)
    return LoadForecastPipeline(**kwargs)


def zero_out(pipe):
    spec = pipe.forecaster_.spec_
    pipe.forecaster_.params_ = ModelParams(
        theta=[0.0] * spec.theta_size, phi=[0.0] * spec.phi_size
    )


class TestZeroNetworkIdentities:
    def test_point_head_reduces_to_seasonal_forecast(self):
        series, _ = make_series(years=1, seed=51)
        pipe = quick_pipeline(loss="mse", max_epochs=1)
        pipe.fit(series, series.start, series.end)
        zero_out(pipe)
        start, end = datetime(2007, 6, 1), datetime(2007, 6, 3)
        forecasts = pipe.forecast_range(series, start, end)
        deseason = pipe.deseasonalizer_
        for f in forecasts:
            want = math.exp(
                deseason.log_mean_
                + deseason.log_std_ * deseason.seasonal_at(f.timestamp)
            )
            assert f.point == want  # bitwise: the network contributes nothing
            assert f.sigma_log is None

    def test_gaussian_head_sigma_at_rest_value(self):
        series, _ = make_series(years=1, seed=52)
        pipe = quick_pipeline(max_epochs=1)
        pipe.fit(series, series.start, series.end)
        zero_out(pipe)
        f = pipe.forecast_range(series, datetime(2007, 7, 1), datetime(2007, 7, 1, 6))
        rest_sigma = softplus(0.0) + SIGMA_FLOOR
        for fc in f:
            assert fc.sigma_z == pytest.approx(rest_sigma, rel=1e-12)
            assert fc.mu_z == 0.0


class TestNoiselessRecovery:
    def test_point_pipeline_on_pure_seasonal_signal(self):
        """With no noise and no weather response the linear stage explains
        everything; the trained network only has to stay out of the way."""
        config = SynthConfig(
            years=2,
            noise_sigma=0.0,
            ar1=0.0,
            ar24=0.0,
            temp_coeff=0.0,
            temp_coeff_lag24=0.0,
        )
        series, _ = synth_generate(config, Rng(60))
        pipe = LoadForecastPipeline(
            lags=(1,),
            hidden_dim=4,
            loss="mse",
            learning_rate=0.02,
            batch_size=32,
            max_epochs=15,
            patience=15,
            tau=12,
            train_stride=7,
            seed=2,
        )
        pipe.fit(series, datetime(2007, 1, 1), datetime(2008, 1, 1))
        forecasts = pipe.forecast_range(
            series, datetime(2008, 2, 1), datetime(2008, 3, 1)
        )
        report = pipe.evaluate(forecasts, series)
        assert report.mape_pct < 0.5


class TestForecastAssembly:
    def test_probabilistic_point_is_lognormal_mean(self):
        series, _ = make_series(years=1, seed=53)
        pipe = quick_pipeline()
        pipe.fit(series, series.start, series.end)
        forecasts = pipe.forecast_range(
            series, datetime(2007, 5, 1), datetime(2007, 5, 2)
        )
        for f in forecasts:
            want = math.exp(f.mu_log + 0.5 * f.sigma_log**2)
            assert f.point == pytest.approx(want, rel=1e-14)
            assert f.sigma_log > 0.0

    def test_needs_window_history(self):
        series, _ = make_series(years=1, seed=54)
        pipe = quick_pipeline(tau=49)
        pipe.fit(series, series.start, series.end)
        with pytest.raises(DataValidationError, match="history"):
            pipe.forecast_range(series, series.start, datetime(2007, 1, 2))

    def test_forecast_encodes_only_the_hours_its_windows_read(self, monkeypatch):
        series, _ = make_series(years=1, seed=57)
        pipe = quick_pipeline()
        pipe.fit(series, series.start, series.end)
        calls = []
        rows = CalendarFeatureEncoder._rows

        def counting_rows(self, timestamps, dry, wet):
            calls.extend(timestamps)
            return rows(self, timestamps, dry, wet)

        monkeypatch.setattr(CalendarFeatureEncoder, "_rows", counting_rows)
        start = datetime(2007, 6, 1)
        pipe.forecast_range(series, start, datetime(2007, 6, 2))
        assert len(calls) == pipe.tau - 1 + 24
        assert calls[0] == start - timedelta(hours=pipe.tau - 1)

    def test_forecast_takes_the_seasonal_values_in_one_batch(self, monkeypatch):
        series, _ = make_series(years=1, seed=57)
        pipe = quick_pipeline()
        pipe.fit(series, series.start, series.end)
        deseason = pipe.deseasonalizer_
        start, end = datetime(2007, 6, 1, 7), datetime(2007, 6, 3)
        want = [deseason.seasonal_at(ts) for ts in series.timestamps[
            series.index_of(start) : series.index_of(end)
        ]]

        def no_single_hour(self, ts):
            raise AssertionError("seasonal_at called per forecast hour")

        monkeypatch.setattr(type(deseason), "seasonal_at", no_single_hour)
        forecasts = pipe.forecast_range(series, start, end)
        assert [repr(f.seasonal_z) for f in forecasts] == [repr(s) for s in want]

    def test_forecast_csv_round_trip(self, tmp_path):
        series, _ = make_series(years=1, seed=55)
        pipe = quick_pipeline()
        pipe.fit(series, series.start, series.end)
        forecasts = pipe.forecast_range(
            series, datetime(2007, 3, 1), datetime(2007, 3, 1, 12)
        )
        path = str(tmp_path / "forecast.csv")
        write_forecast_csv(forecasts, path)
        rows = read_forecast_csv(path)
        assert len(rows) == len(forecasts)
        for row, f in zip(rows, forecasts):
            assert row[0] == f.timestamp
            assert row[1] == f.point
            assert row[2] == f.mu_log
            assert row[3] == f.sigma_log

    def test_point_head_csv_leaves_distribution_columns_empty(self, tmp_path):
        series, _ = make_series(years=1, seed=59)
        pipe = quick_pipeline(loss="mse")
        pipe.fit(series, series.start, series.end)
        forecasts = pipe.forecast_range(
            series, datetime(2007, 3, 2), datetime(2007, 3, 2, 6)
        )
        path = str(tmp_path / "forecast.csv")
        write_forecast_csv(forecasts, path)
        rows = read_forecast_csv(path)
        assert all(sigma is None for _, _, _, sigma in rows)
        with open(path) as f:
            assert f.read().count(",,") > 0  # empty quantile columns


class TestProjectedForecasts:
    """forecast_range projects each hour once and hands predict_output the
    window's projections; its outputs equal forward_sequence on each raw
    window, and predict_output runs once per forecast hour."""

    @pytest.fixture(scope="class", params=["mse", "gaussian_nll"])
    def fitted(self, request):
        series, _ = make_series(years=1, seed=57)
        pipe = quick_pipeline(loss=request.param, lags=(1, 2, 24), tau=30)
        pipe.fit(series, series.start, series.end)
        return series, pipe

    @pytest.mark.parametrize(
        "first, hours",
        [
            (29, 40),  # the first window starts at the series' first hour
            (29, 1),
            (3000, 1),
            (3000, 30),
        ],
    )
    def test_equals_raw_windows_one_call_per_hour(
        self, fitted, monkeypatch, first, hours
    ):
        series, pipe = fitted
        fc = pipe.forecaster_
        start = series.timestamps[first]
        end = series.timestamps[first + hours]
        features = pipe.encoder_.transform(series)
        want = [
            forward_sequence(
                fc.params_, fc.spec_, features[k - pipe.tau + 1 : k + 1]
            ).y_final
            for k in range(first, first + hours)
        ]
        predict_output = rnnp.forecaster.RnnForecaster.predict_output
        got = []

        def recording(self, *args, **kwargs):
            got.append(predict_output(self, *args, **kwargs))
            return got[-1]

        monkeypatch.setattr(rnnp.forecaster.RnnForecaster, "predict_output", recording)
        forecasts = pipe.forecast_range(series, start, end)
        assert got == want
        assert len(forecasts) == hours
        assert [(f.mu_z, f.sigma_z) for f in forecasts] == [
            fc.head_.mean_and_sigma(y) for y in want
        ]


class TestCheckpoint:
    def test_save_load_reproduces_forecasts(self, tmp_path):
        series, _ = make_series(years=1, seed=56)
        pipe = quick_pipeline()
        pipe.fit(series, series.start, series.end)
        start, end = datetime(2007, 4, 1), datetime(2007, 4, 1, 8)
        want = pipe.forecast_range(series, start, end)
        path = str(tmp_path / "model.rnnp.json")
        pipe.save(path)
        again = LoadForecastPipeline.load(path)
        got = again.forecast_range(series, start, end)
        assert [f.point for f in got] == [f.point for f in want]
        assert [f.mu_log for f in got] == [f.mu_log for f in want]
        assert again.get_params() == pipe.get_params()

    def test_checkpoint_naming_the_hidden_activation_still_loads(self, tmp_path):
        """Older checkpoints carry "hidden_activation": "sigmoid" in the spec;
        they load and forecast as before, and any other activation is
        rejected."""
        series, _ = make_series(years=1, seed=56)
        pipe = quick_pipeline()
        pipe.fit(series, series.start, series.end)
        start, end = datetime(2007, 4, 1), datetime(2007, 4, 1, 8)
        want = pipe.forecast_range(series, start, end)
        path = tmp_path / "model.rnnp.json"
        pipe.save(str(path))
        record = json.loads(path.read_text())
        assert "hidden_activation" not in record["spec"]
        record["spec"]["hidden_activation"] = "sigmoid"
        path.write_text(json.dumps(record))
        got = LoadForecastPipeline.load(str(path)).forecast_range(series, start, end)
        assert got == want
        record["spec"]["hidden_activation"] = "relu"
        path.write_text(json.dumps(record))
        with pytest.raises(DataValidationError, match="relu"):
            LoadForecastPipeline.load(str(path))

    def test_checkpoint_naming_retired_settings_still_loads(self, tmp_path):
        """Older checkpoints carry sigma_floor, yearly_harmonics and
        include_trend in pipeline_params; at the values the library now
        fixes they load and forecast as before, at any other value they are
        rejected naming the key."""
        series, _ = make_series(years=1, seed=56)
        pipe = quick_pipeline()
        pipe.fit(series, series.start, series.end)
        start, end = datetime(2007, 4, 1), datetime(2007, 4, 1, 8)
        want = pipe.forecast_range(series, start, end)
        path = tmp_path / "model.rnnp.json"
        pipe.save(str(path))
        record = json.loads(path.read_text())
        params = record["extras"]["pipeline_params"]
        legacy = {"sigma_floor": 1e-4, "yearly_harmonics": 2, "include_trend": True}
        assert not set(legacy) & set(params)
        params.update(legacy)
        path.write_text(json.dumps(record))
        got = LoadForecastPipeline.load(str(path)).forecast_range(series, start, end)
        assert got == want
        for key, other in (
            ("sigma_floor", 1e-3),
            ("yearly_harmonics", 3),
            ("include_trend", False),
        ):
            params[key] = other
            path.write_text(json.dumps(record))
            with pytest.raises(DataValidationError, match=key):
                LoadForecastPipeline.load(str(path))
            params[key] = legacy[key]

    def test_save_load_save_is_byte_stable(self, tmp_path):
        series, _ = make_series(years=1, seed=59)
        holidays = frozenset({date(2007, 1, 1), date(2007, 7, 4), date(2007, 12, 25)})
        pipe = quick_pipeline(holidays=holidays)
        pipe.fit(series, series.start, series.end)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        pipe.save(str(first))
        LoadForecastPipeline.load(str(first)).save(str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_missing_state_entry_is_named(self, tmp_path):
        series, _ = make_series(years=1, seed=59)
        pipe = quick_pipeline()
        pipe.fit(series, series.start, series.end)
        path = tmp_path / "model.json"
        pipe.save(str(path))
        record = json.loads(path.read_text())
        del record["extras"]["encoder"]["wetbulb_std"]
        path.write_text(json.dumps(record))
        with pytest.raises(DataValidationError, match="encoder.wetbulb_std"):
            LoadForecastPipeline.load(str(path))

    def test_every_pipeline_parameter_has_a_checkpoint_kind(self):
        assert set(PARAM_KINDS) == set(LoadForecastPipeline._param_names())

    def test_bad_holiday_date_rejected(self, tmp_path):
        series, _ = make_series(years=1, seed=59)
        pipe = quick_pipeline()
        pipe.fit(series, series.start, series.end)
        path = tmp_path / "model.json"
        pipe.save(str(path))
        record = json.loads(path.read_text())
        record["extras"]["pipeline_params"]["holidays"] = ["2007-13-01"]
        path.write_text(json.dumps(record))
        with pytest.raises(DataValidationError, match="holiday"):
            LoadForecastPipeline.load(str(path))


class TestLagReach:
    @pytest.mark.parametrize("lags, tau", [((1, 168), 49), ((1, 12), 12)])
    def test_lag_the_window_cannot_reach_is_rejected_before_encoding(
        self, monkeypatch, lags, tau
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("fit encoded the series")

        monkeypatch.setattr(CalendarFeatureEncoder, "fit", refuse)
        series, _ = make_series(years=1, seed=58)
        pipe = quick_pipeline(lags=lags, tau=tau)
        with pytest.raises(ValueError, match=f"lag {lags[-1]} .*tau={tau}"):
            pipe.fit(series, series.start, series.end)

    def test_largest_lag_below_tau_fits(self):
        series, _ = make_series(years=1, seed=58)
        pipe = quick_pipeline(lags=(1, 11), tau=12, max_epochs=1)
        pipe.fit(series, series.start, series.end)
        assert len(pipe.forecaster_.history_) == 1


class TestParameterCheck:
    """A bad pipeline parameter is rejected before any encoding."""

    BAD = [
        ({"engine": "bogus"}, ConfigError, "unknown engine 'bogus'"),
        ({"loss": "bogus"}, ConfigError, "unknown loss head 'bogus'"),
        ({"hidden_dim": 0}, ValueError, "hidden_dim must be >= 1, got 0"),
        ({"hidden_dim": 1001}, ValueError, "hidden_dim must be <= 1000, got 1001"),
        ({"learning_rate": -1}, ConfigError, "learning_rate must be positive"),
        ({"tau": 0}, ValueError, "tau must be >= 1, got 0"),
    ]
    IDS = ["engine", "loss", "hidden_dim_0", "hidden_dim_1001", "learning_rate", "tau"]

    @pytest.fixture
    def encodings(self, monkeypatch):
        """The ranges ``CalendarFeatureEncoder.transform`` is called on; it
        still runs."""
        calls = []
        transform = CalendarFeatureEncoder.transform

        def spy(self, series, start, end):
            calls.append((start, end))
            return transform(self, series, start, end)

        monkeypatch.setattr(CalendarFeatureEncoder, "transform", spy)
        return calls

    @pytest.mark.parametrize("overrides, error, named", BAD, ids=IDS)
    def test_fit_rejects_it_before_encoding(self, encodings, overrides, error, named):
        series, _ = make_series(years=1, seed=58)
        with pytest.raises(error, match=re.escape(named)):
            quick_pipeline(**overrides).fit(series, series.start, series.end)
        assert encodings == []

    def test_walk_forward_rejects_it_before_encoding(self, encodings):
        series, _ = make_series(years=2, seed=58)
        with pytest.raises(ConfigError, match="unknown engine 'bogus'"):
            run_walk_forward(
                series,
                build_walk_forward_plan(2007, 1, 1),
                lag_sets=[(1,)],
                grid=HyperGrid(hidden_dims=(3,), learning_rates=(5e-3,), batch_sizes=(32,)),
                pipeline_kwargs=dict(engine="bogus", max_epochs=1, tau=12),
            )
        assert encodings == []


class TestNetworkSetup:
    """The network's (head, spec, config) is built once per fit."""

    @pytest.fixture
    def setups(self, monkeypatch):
        """The input widths ``RnnForecaster._training_setup`` is called with;
        it still runs."""
        calls = []
        setup = rnnp.forecaster.RnnForecaster._training_setup

        def spy(self, x_dim):
            calls.append(x_dim)
            return setup(self, x_dim)

        monkeypatch.setattr(rnnp.forecaster.RnnForecaster, "_training_setup", spy)
        return calls

    def test_once_per_pipeline_fit(self, setups):
        series, _ = make_series(years=1, seed=58)
        quick_pipeline(max_epochs=1).fit(series, series.start, series.end)
        assert setups == [FEATURE_DIM]

    def test_once_per_lag_set_and_once_per_split_fit(self, setups):
        series, _ = make_series(years=2, seed=58)
        run_walk_forward(
            series,
            build_walk_forward_plan(2007, 1, 1),
            lag_sets=[(1,)],
            grid=HyperGrid(hidden_dims=(3,), learning_rates=(5e-3,), batch_sizes=(32,)),
            pipeline_kwargs=dict(loss="mse", max_epochs=1, tau=12),
            train_stride=96,
        )
        assert setups == [FEATURE_DIM, FEATURE_DIM]


class TestValidationRange:
    @pytest.mark.parametrize(
        "given, missing", [("val_start", "val_end"), ("val_end", "val_start")]
    )
    def test_one_bound_without_the_other_is_rejected_before_encoding(
        self, monkeypatch, given, missing
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("fit encoded the series")

        monkeypatch.setattr(CalendarFeatureEncoder, "fit", refuse)
        series, _ = make_series(years=1, seed=58)
        bound = {given: datetime(2007, 10, 1)}
        with pytest.raises(ValueError, match=f"{missing} is missing"):
            quick_pipeline().fit(series, series.start, series.end, **bound)

    @pytest.mark.parametrize(
        "bounds, named",
        [
            ((datetime(2007, 9, 1), datetime(2007, 3, 1)), "train_start"),
            ((datetime(2007, 6, 1), datetime(2007, 6, 1)), "train_start"),
            (
                (datetime(2007, 1, 1), datetime(2007, 9, 1),
                 datetime(2007, 12, 1), datetime(2007, 10, 1)),
                "val_start",
            ),
            (
                (datetime(2007, 1, 1), datetime(2007, 9, 1),
                 datetime(2007, 10, 1), datetime(2007, 10, 1)),
                "val_start",
            ),
        ],
        ids=["train_reversed", "train_empty", "val_reversed", "val_empty"],
    )
    def test_reversed_or_empty_range_is_rejected_before_encoding(
        self, monkeypatch, bounds, named
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("fit encoded the series")

        monkeypatch.setattr(CalendarFeatureEncoder, "fit", refuse)
        series, _ = make_series(years=1, seed=58)
        end_key = named.replace("start", "end")
        with pytest.raises(ValueError, match=f"{named} .* is not before {end_key} "):
            quick_pipeline().fit(series, *bounds)


class TestTrainingHandOff:
    """The pipeline trains on its own windows, without the (X, y) checks."""

    def test_pipeline_skips_the_estimator_input_check(self, monkeypatch):
        def refuse(X, y):
            raise AssertionError("pipeline windows were re-validated")

        monkeypatch.setattr(rnnp.forecaster, "_as_windows", refuse)
        series, _ = make_series(years=2, seed=59)
        pipe = quick_pipeline(max_epochs=1)
        pipe.fit(
            series,
            datetime(2007, 1, 1),
            datetime(2008, 1, 1),
            datetime(2008, 1, 1),
            datetime(2008, 3, 1),
        )
        assert len(pipe.forecaster_.history_) == 1
        rows = run_walk_forward(
            series,
            build_walk_forward_plan(2007, 1, 1),
            lag_sets=[(1,)],
            grid=HyperGrid(hidden_dims=(3,), learning_rates=(5e-3,), batch_sizes=(32,)),
            pipeline_kwargs=dict(
                loss="mse", max_epochs=1, patience=5, tau=12, seed=3
            ),
            train_stride=96,
        )
        assert len(rows) == 1

    def test_estimator_fit_on_pipeline_windows_gives_the_same_parameters(self):
        series, _ = make_series(years=2, seed=60)
        bounds = (
            datetime(2007, 1, 1),
            datetime(2008, 1, 1),
            datetime(2008, 1, 1),
            datetime(2008, 3, 1),
        )
        pipe = quick_pipeline().fit(series, *bounds)
        windows, val_windows = quick_pipeline()._prepare_windows(series, *bounds)
        est = pipe._make_forecaster().fit(
            [w.xs for w in windows],
            [w.target for w in windows],
            ([w.xs for w in val_windows], [w.target for w in val_windows]),
        )
        assert est.params_ == pipe.forecaster_.params_
        assert [h.val_loss for h in est.history_] == [
            h.val_loss for h in pipe.forecaster_.history_
        ]


class TestWalkForward:
    def test_plan_shape(self):
        plan = build_walk_forward_plan(2007, 4, 3)
        assert len(plan) == 3
        assert plan[0].train_start == datetime(2007, 1, 1)
        assert plan[0].train_end == plan[0].test_start == datetime(2011, 1, 1)
        assert plan[2].train_start == datetime(2009, 1, 1)
        assert plan[2].test_end == datetime(2014, 1, 1)

    def test_single_split_degenerates_to_train_validate_test(self):
        series, _ = make_series(years=2, seed=57)
        plan = build_walk_forward_plan(2007, 1, 1)
        rows = run_walk_forward(
            series,
            plan,
            lag_sets=[(1,)],
            grid=HyperGrid(hidden_dims=(3,), learning_rates=(5e-3,), batch_sizes=(32,)),
            pipeline_kwargs=dict(
                loss="mse", max_epochs=2, patience=5, tau=12, seed=3
            ),
            train_stride=96,
        )
        assert len(rows) == 1
        assert rows[0].test_year == 2008
        assert rows[0].report.rmse_mwh > 0.0

    def test_one_row_per_lag_set_and_year(self, monkeypatch):
        # predict_output runs once per test hour, never inside grid_search:
        # the benchmark counts these calls as walk_forward's requests.
        calls = {"total": 0, "in_grid_search": 0}
        predict_output = rnnp.forecaster.RnnForecaster.predict_output
        grid_search = rnnp.pipeline.grid_search

        def counting(self, rows):
            calls["total"] += 1
            return predict_output(self, rows)

        def searching(*args, **kwargs):
            before = calls["total"]
            cells = grid_search(*args, **kwargs)
            calls["in_grid_search"] += calls["total"] - before
            return cells

        monkeypatch.setattr(rnnp.forecaster.RnnForecaster, "predict_output", counting)
        monkeypatch.setattr(rnnp.pipeline, "grid_search", searching)
        series, _ = make_series(years=3, seed=58)
        plan = build_walk_forward_plan(2007, 1, 2)
        rows = run_walk_forward(
            series,
            plan,
            lag_sets=[(1,), (1, 2)],
            grid=HyperGrid(hidden_dims=(3,), learning_rates=(5e-3,), batch_sizes=(32,)),
            pipeline_kwargs=dict(
                loss="mse", max_epochs=1, patience=5, tau=12, seed=4
            ),
            train_stride=96,
        )
        assert [(r.lag_set, r.test_year) for r in rows] == [
            ((1,), 2008),
            ((1,), 2009),
            ((1, 2), 2008),
            ((1, 2), 2009),
        ]
        test_hours = sum(
            len(range(*series.index_range(s.test_start, s.test_end))) for s in plan
        )
        assert test_hours == 366 * 24 + 365 * 24
        assert calls == {"total": 2 * test_hours, "in_grid_search": 0}
