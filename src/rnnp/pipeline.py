"""End-to-end hourly load forecasting: deseasonalize, learn, reassemble.

The pipeline z-scores log demand, removes per-hour calendar structure with
the linear deseasonalizer, trains the recurrent model on overlapping
fixed-length residual windows (closed loop, the network's own outputs as
feedbacks), and produces forecasts for a horizon by running one window
per target hour with realized weather as known.  A probabilistic head
yields a lognormal distribution per hour after denormalization; its mean
is the point forecast.  A walk-forward driver rolls a fixed-length
training window one year at a time, choosing hyperparameters on the first
split only.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass
from datetime import datetime
from itertools import islice

from .base import (
    NUMBER,
    BaseEstimator,
    ConfigError,
    DataValidationError,
    atomic_write,
    check_fitted,
    check_kind,
    checkpoint_field,
    open_utf8,
)
from .features import CalendarFeatureEncoder
from .forecaster import RnnForecaster, _check_lag_reach
from .metrics import MetricReport, point_metrics, probabilistic_metrics
from .model import load_checkpoint, pack, project_inputs, save_checkpoint, unpack
from .seasonal import YEARLY_HARMONICS, HourlyDeseasonalizer
from .series import HourlySeries
from .stats import lognormal_mean, lognormal_quantile
from .training import SIGMA_FLOOR, HyperGrid, grid_search
from .windows import make_windows

FORECAST_CSV_HEADER = ["timestamp", "point", "mu_log", "sigma_log", "q05", "q95"]

# Settings that older checkpoints carry in pipeline_params and that are now
# fixed: each loads only at the one value the library uses.
RETIRED_PARAMS = {
    "sigma_floor": SIGMA_FLOOR,
    "yearly_harmonics": YEARLY_HARMONICS,
    "include_trend": True,
}

# The JSON kind of each saved pipeline parameter (see ``base.check_kind``).
PARAM_KINDS = {
    "lags": [int],
    "hidden_dim": int,
    "loss": str,
    "engine": str,
    "learning_rate": NUMBER,
    "batch_size": int,
    "max_epochs": int,
    "patience": int,
    "tau": int,
    "train_stride": int,
    "holidays": [str],
    "seed": int,
}


@dataclass
class ForecastDistribution:
    """One hour's forecast: seasonal part, network part, assembled lognormal."""

    timestamp: datetime
    seasonal_z: float
    mu_z: float
    sigma_z: float | None
    mu_log: float
    sigma_log: float | None
    point: float


class LoadForecastPipeline(BaseEstimator):
    """Deseasonalizer + feature encoder + recurrent residual model."""

    def __init__(
        self,
        lags: tuple = (1, 2, 24),
        hidden_dim: int = 15,
        loss: str = "gaussian_nll",
        engine: str = "trrl",
        learning_rate: float = 1e-3,
        batch_size: int = 32,
        max_epochs: int = 500,
        patience: int = 100,
        tau: int = 49,
        train_stride: int = 1,
        holidays: frozenset = frozenset(),
        seed: int = 0,
    ) -> None:
        self.lags = lags
        self.hidden_dim = hidden_dim
        self.loss = loss
        self.engine = engine
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.patience = patience
        self.tau = tau
        self.train_stride = train_stride
        self.holidays = holidays
        self.seed = seed

    def _prepare_windows(
        self,
        series: HourlySeries,
        start: datetime,
        end: datetime,
        val_start: datetime | None,
        val_end: datetime | None,
    ) -> tuple:
        """Fit the feature encoder and the deseasonalizer on [start, end).

        Returns ``(train_windows, val_windows)``: the residual windows of
        [start, end) and, when both validation bounds are given, of
        [val_start, val_end), else None.  ``HourlySeries`` has checked the
        data, so the windows go to training without another check.  A lag
        no window reaches is rejected first, before any encoding.
        """
        _check_lag_reach(self.lags, self.tau)
        self.encoder_ = CalendarFeatureEncoder(holidays=self.holidays).fit(
            series, start, end
        )
        self.deseasonalizer_ = HourlyDeseasonalizer(holidays=self.holidays)

        def windows(i: datetime, j: datetime, residuals) -> list:
            features = self.encoder_.transform(series, i, j)
            return make_windows(
                features, residuals.residuals, self.tau, self.train_stride
            )

        train_windows = windows(
            start, end, self.deseasonalizer_.fit_transform(series, start, end)
        )
        if val_start is None or val_end is None:
            return train_windows, None
        val_residuals = self.deseasonalizer_.transform(series, val_start, val_end)
        return train_windows, windows(val_start, val_end, val_residuals)

    def _make_forecaster(self) -> RnnForecaster:
        """An unfitted network with this pipeline's parameters of the same name."""
        return RnnForecaster(
            **{name: getattr(self, name) for name in RnnForecaster._param_names()}
        )

    def fit(
        self,
        series: HourlySeries,
        train_start: datetime,
        train_end: datetime,
        val_start: datetime | None = None,
        val_end: datetime | None = None,
    ) -> "LoadForecastPipeline":
        windows, val_windows = self._prepare_windows(
            series, train_start, train_end, val_start, val_end
        )
        self.forecaster_ = self._make_forecaster()._fit_windows(
            windows, val_windows
        )
        return self

    def forecast_range(
        self, series: HourlySeries, start: datetime, end: datetime
    ) -> list:
        """Ex-post closed-loop forecasts for every hour in [start, end).

        Each hour runs a fresh window of length tau ending at that hour,
        feedbacks zero-initialized at the window start, exogenous inputs
        (calendar + realized weather) taken as known.  Each encoded hour is
        projected once (``project_inputs``) and its projection is shared by
        the tau windows that contain it; the outputs equal those of
        ``forward_sequence`` on each raw window, bit for bit.
        """
        check_fitted(self, ["forecaster_"])
        i0, i1 = series.index_range(start, end)
        if i0 < self.tau - 1:
            raise DataValidationError(
                f"forecasting {start.isoformat()} needs {self.tau - 1} hours of "
                f"exogenous history before it"
            )
        # Encode only the hours the windows read, from tau - 1 before start.
        features = self.encoder_.transform(
            series, series.timestamps[i0 - self.tau + 1], end
        )
        # The parameters are fixed, so each hour's input projection is made
        # once and reused by every window containing it.  The ring keeps the
        # last tau of them: memory does not grow with the range.
        projections = project_inputs(
            self.forecaster_.params_, self.forecaster_.spec_, features
        )
        window = deque(islice(projections, self.tau - 1), maxlen=self.tau)
        timestamps = series.timestamps[i0:i1]
        # The seasonal value of every forecast hour, in one batch.
        seasonal = self.deseasonalizer_._seasonal(timestamps)
        out = []
        for ts, s_z, projection in zip(timestamps, seasonal, projections):
            window.append(projection)
            y_final = self.forecaster_.predict_output(window, projected=True)
            mu_z, sigma_z = self.forecaster_.head_.mean_and_sigma(y_final)
            mu_log, sigma_log = self.deseasonalizer_.to_log_params(
                s_z + mu_z, sigma_z
            )
            if sigma_log is None:
                point = math.exp(mu_log)
            else:
                point = lognormal_mean(mu_log, sigma_log)
            out.append(
                ForecastDistribution(
                    timestamp=ts,
                    seasonal_z=s_z,
                    mu_z=mu_z,
                    sigma_z=sigma_z,
                    mu_log=mu_log,
                    sigma_log=sigma_log,
                    point=point,
                )
            )
        return out

    def evaluate(
        self, forecasts: list, series: HourlySeries
    ) -> MetricReport:
        return score_forecasts(
            [(f.timestamp, f.point, f.mu_log, f.sigma_log) for f in forecasts],
            series,
        )

    def save(self, path: str) -> None:
        check_fitted(self, ["forecaster_"])
        flat = pack(self.forecaster_.params_, self.forecaster_.spec_)
        extras = {
            "pipeline_params": _jsonable_params(self.get_params()),
            **self.deseasonalizer_.state(),
            **self.encoder_.state(),
        }
        save_checkpoint(path, self.forecaster_.spec_, flat, extras)

    @classmethod
    def load(cls, path: str) -> "LoadForecastPipeline":
        spec, flat, extras = load_checkpoint(path)
        params = checkpoint_field(extras, "pipeline_params", kind=dict)
        for key, value in RETIRED_PARAMS.items():
            if key in params and params.pop(key) != value:
                raise DataValidationError(
                    f"checkpoint pipeline_params {key!r} must be {value!r}, "
                    f"the only value this version supports"
                )
        check_kind(
            params, PARAM_KINDS, "pipeline_params", DataValidationError, "checkpoint"
        )
        try:
            params["holidays"] = frozenset(
                datetime.fromisoformat(d).date() for d in params.get("holidays", [])
            )
        except (TypeError, ValueError) as exc:
            raise DataValidationError(
                f"checkpoint has a bad holiday date: {exc}"
            ) from None
        params["lags"] = tuple(checkpoint_field(extras, "pipeline_params", "lags"))
        pipe = cls(**params)
        pipe.encoder_ = CalendarFeatureEncoder.from_state(
            extras, holidays=pipe.holidays
        )
        pipe.deseasonalizer_ = HourlyDeseasonalizer.from_state(
            extras, holidays=pipe.holidays
        )
        fc = pipe._make_forecaster()
        try:
            if pipe.tau < 1:
                raise ValueError(f"tau must be >= 1, got {pipe.tau}")
            _check_lag_reach(pipe.lags, pipe.tau)
            fc.head_, fc.spec_, _ = fc._training_setup(spec.x_dim)
        except (ConfigError, ValueError) as exc:  # a loss, lag or size fit rejects
            raise DataValidationError(
                f"checkpoint pipeline_params are invalid: {exc}"
            ) from None
        if fc.spec_ != spec:
            raise DataValidationError(
                "checkpoint spec does not match its pipeline parameters"
            )
        fc.params_ = unpack(flat, spec)
        fc.history_ = []
        pipe.forecaster_ = fc
        return pipe


def _jsonable_params(params: dict) -> dict:
    out = dict(params)
    out["lags"] = list(params["lags"])
    out["holidays"] = sorted(d.isoformat() for d in params["holidays"])
    return out


def score_forecasts(rows: list, series: HourlySeries) -> MetricReport:
    """Score (timestamp, point, mu_log, sigma_log) rows against realized demand.

    Probabilistic metrics when every row has a ``sigma_log``, point
    metrics otherwise.
    """
    realized = [series.demand_mwh[series.index_of(ts)] for ts, _, _, _ in rows]
    points = [point for _, point, _, _ in rows]
    if all(sigma is not None for _, _, _, sigma in rows):
        dists = [(mu, sigma) for _, _, mu, sigma in rows]
        return probabilistic_metrics(points, dists, realized)
    return point_metrics(points, realized)


def write_forecast_csv(forecasts: list, path: str) -> None:
    """Forecast CSV: timestamp, point, lognormal parameters, 5%/95% quantiles."""
    with atomic_write(path) as f:
        writer = csv.writer(f)
        writer.writerow(FORECAST_CSV_HEADER)
        for fc in forecasts:
            if fc.sigma_log is None:
                q05 = q95 = ""
                sigma = ""
            else:
                q05 = repr(lognormal_quantile(fc.mu_log, fc.sigma_log, 0.05))
                q95 = repr(lognormal_quantile(fc.mu_log, fc.sigma_log, 0.95))
                sigma = repr(fc.sigma_log)
            writer.writerow(
                [
                    fc.timestamp.isoformat(),
                    repr(fc.point),
                    repr(fc.mu_log),
                    sigma,
                    q05,
                    q95,
                ]
            )


def read_forecast_csv(path: str) -> list:
    """Read back (timestamp, point, mu_log, sigma_log or None) rows.

    A file without rows, a field that does not parse, a non-finite
    ``point`` or ``mu_log``, or a ``sigma_log`` that is present but not a
    finite positive number raises ``DataValidationError`` naming the file
    or the line.
    """
    rows = []
    with open_utf8(path) as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != FORECAST_CSV_HEADER:
            raise DataValidationError(f"bad forecast header {reader.fieldnames!r}")
        for rec in reader:
            try:
                ts = datetime.fromisoformat(rec["timestamp"])
                point, mu_log = float(rec["point"]), float(rec["mu_log"])
                sigma_log = float(rec["sigma_log"]) if rec["sigma_log"] else None
                if not (math.isfinite(point) and math.isfinite(mu_log)):
                    raise ValueError("point and mu_log must be finite")
                if sigma_log is not None and not (
                    math.isfinite(sigma_log) and sigma_log > 0.0
                ):
                    raise ValueError(
                        f"sigma_log {sigma_log!r} is not a finite positive number"
                    )
                rows.append((ts, point, mu_log, sigma_log))
            except (TypeError, ValueError) as exc:  # TypeError: a missing field
                raise DataValidationError(
                    f"{path} line {reader.line_num}: {exc}"
                ) from None
    if not rows:
        raise DataValidationError(f"forecast file {path} has no rows")
    return rows


@dataclass(frozen=True)
class WalkForwardSplit:
    train_start: datetime
    train_end: datetime
    test_start: datetime
    test_end: datetime


def build_walk_forward_plan(
    first_train_year: int, train_years: int, n_splits: int
) -> list:
    """Rolling splits: a fixed-length training window advancing one year.

    The first split's test year serves as the validation year for
    hyperparameter selection; later splits are proper test years.
    """
    if train_years < 1 or n_splits < 1:
        raise ValueError("train_years and n_splits must be >= 1")
    splits = []
    for k in range(n_splits):
        t0 = datetime(first_train_year + k, 1, 1)
        t1 = datetime(first_train_year + k + train_years, 1, 1)
        splits.append(
            WalkForwardSplit(
                train_start=t0,
                train_end=t1,
                test_start=t1,
                test_end=datetime(first_train_year + k + train_years + 1, 1, 1),
            )
        )
    return splits


@dataclass
class WalkForwardRow:
    lag_set: tuple
    test_year: int
    hidden_dim: int
    learning_rate: float
    batch_size: int
    report: MetricReport


def run_walk_forward(
    series: HourlySeries,
    splits: list,
    lag_sets: list,
    grid: HyperGrid,
    pipeline_kwargs: dict,
    train_stride: int = 1,
) -> list:
    """Hyperparameters from the first split, then roll and re-test.

    For each lag set, the grid is searched once with the first split's
    test year as validation; the winning cell is frozen and every split is
    retrained and evaluated with it.  Returns one row per (lag set, test
    year).
    """
    if not splits:
        raise ValueError("empty walk-forward plan")
    rows = []
    for lag_set in lag_sets:
        kwargs = {
            **pipeline_kwargs,
            "lags": tuple(lag_set),
            "train_stride": train_stride,
        }
        probe = LoadForecastPipeline(**kwargs)
        first = splits[0]
        windows, val_windows = probe._prepare_windows(
            series,
            first.train_start,
            first.train_end,
            first.test_start,
            first.test_end,
        )
        head, base_spec, config = probe._make_forecaster()._training_setup(
            len(windows[0].xs[0])
        )
        cells = grid_search(
            base_spec, windows, val_windows, head, probe.engine, grid, config
        )
        best = cells[0]

        for split in splits:
            pipe = LoadForecastPipeline(
                **{
                    **kwargs,
                    "hidden_dim": best.hidden_dim,
                    "learning_rate": best.learning_rate,
                    "batch_size": best.batch_size,
                }
            )
            pipe.fit(series, split.train_start, split.train_end)
            forecasts = pipe.forecast_range(
                series, split.test_start, split.test_end
            )
            rows.append(
                WalkForwardRow(
                    lag_set=tuple(lag_set),
                    test_year=split.test_start.year,
                    hidden_dim=best.hidden_dim,
                    learning_rate=best.learning_rate,
                    batch_size=best.batch_size,
                    report=pipe.evaluate(forecasts, series),
                )
            )
    return rows
