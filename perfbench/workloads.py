"""The four benchmark workloads, each driving rnnp through its public API.

Every workload makes its inputs from the seed with ``synth_generate``,
writes them with ``write_csv`` and reads them back with ``ingest_csv``, so
the program only ever sees generated data that went through its own CSV
ingest.  A workload has

* ``setup()``: the set-up a user pays before the first timed call; the
  runner repeats it and reports the median as ``setup_s``;
* ``round()``: one repeatable unit of timed work: a job and its
  closed-loop requests, which are either calls the job makes itself or a
  batch that follows it, so that requests are sampled across the whole
  run rather than in one burst;
* ``trace_unit()``: the fixed amount of work the traced pass repeats;
* ``metrics()``: the end-to-end metrics, from the samples collected.

Timed calls are kept as wall-clock intervals ``(t0, t1)``; ``metrics()``
turns them into reference seconds with the run's ``Speedometer``.  Output
checks go through ``Outcome.check``; an exception in a timed call is
caught by the runner and counted as a failed operation.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from statistics import median
from datetime import datetime, timedelta

import rnnp
import rnnp.engines
import rnnp.gradcheck
import rnnp.model
import rnnp.pipeline
import rnnp.series
import rnnp.synth
import rnnp.windows
from rnnp.linalg import Rng
from speedometer import Intervals, clock
from tracing import CallTimer, forward_macs

HOUR = timedelta(hours=1)
PAIR_TOL = 1e-10

# Acceptance criterion-6 configuration, trained for a fixed epoch count.
CRITERION6 = dict(
    lags=(1, 2, 24),
    hidden_dim=8,
    loss="gaussian_nll",
    engine="trrl",
    learning_rate=4e-3,
    batch_size=32,
    max_epochs=1,
    patience=1,
    tau=49,
    train_stride=25,
    seed=3,
)


class Outcome:
    """Attempted and failed operations plus the result of each check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: dict = {}  # name -> [passed, total]
        self.errors: list = []

    def op(self, ok: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def check(self, name: str, ok: bool) -> None:
        self.op(ok)
        entry = self.checks.setdefault(name, [0, 0])
        entry[0] += 1 if ok else 0
        entry[1] += 1


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def digest_floats(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(struct.pack("<d", v))
    return h.hexdigest()


def digest_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def params_digest(forecaster) -> str:
    flat = rnnp.model.pack(forecaster.params_, forecaster.spec_)
    return digest_floats(list(flat.theta) + list(flat.phi))


def all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def relative_gap(a, b) -> float:
    """max |a - b| over both gradient parts, relative to the largest |b|."""
    va = list(a.d_theta) + list(a.d_phi)
    vb = list(b.d_theta) + list(b.d_phi)
    scale = max((abs(v) for v in vb), default=0.0)
    gap = max((abs(x - y) for x, y in zip(va, vb)), default=0.0)
    return gap / scale if scale > 0.0 else gap


def window_count(series, start, end, tau: int, stride: int) -> int:
    i, j = series.index_range(start, end)
    return (j - i - tau) // stride + 1


class Workload:
    name = ""
    min_rounds = 1

    def __init__(self, seed: int, workdir: str, outcome: Outcome, speed) -> None:
        self.seed = seed
        self.workdir = workdir
        self.out = outcome
        self.speed = speed
        self.counts: dict = {}
        self.digests: dict = {}
        self.notes: dict = {}

    def _ingest(self, series) -> tuple:
        """CSV round trip of a generated series; returns (series, sha256)."""
        path = os.path.join(self.workdir, f"{self.name}-input.csv")
        rnnp.series.write_csv(series, path)
        digest = digest_file(path)
        return rnnp.series.ingest_csv(path), digest

    def _record_digest(self, key: str, value: str) -> None:
        """Keep the first digest; every later one must equal it."""
        first = self.digests.setdefault(key, value)
        self.out.check(f"{key}_repeatable", value == first)

    def trace_unit(self) -> None:
        """The fixed work the traced pass times: one round by default."""
        self.round()

    def seconds(self, intervals: list) -> list:
        """Reference seconds of each wall-clock interval."""
        return [self.speed.seconds(t0, t1) for t0, t1 in intervals]

    def e2e(self, work: int, work_iv: list, job_iv: list, request_iv: list) -> dict:
        """The timing metrics; ``work`` items are done in each ``work_iv``
        interval.  The wall-clock figures are printed as notes."""
        work_s = self.seconds(work_iv)
        request_ms = [1e3 * s for s in self.seconds(request_iv)]
        self.notes["jobs"] = len(job_iv)
        self.notes["job_s"] = median(self.seconds(job_iv))
        self.notes["requests"] = len(request_iv)
        wall_ms = [1e3 * (t1 - t0) for t0, t1 in request_iv]
        self.notes["wall.request_ms.p50"] = percentile(wall_ms, 50)
        self.notes["wall.request_ms.p90"] = percentile(wall_ms, 90)
        self.notes["wall.throughput_per_s"] = (
            work * len(work_iv) / sum(t1 - t0 for t0, t1 in work_iv)
        )
        return {
            "throughput_per_s": (work * len(work_s) / sum(work_s), "1/s"),
            "request_ms.p50": (percentile(request_ms, 50), "ms"),
            "request_ms.p90": (percentile(request_ms, 90), "ms"),
        }


class TrainWorkload(Workload):
    """LoadForecastPipeline.fit on the criterion-6 configuration.

    The request is one per-window trrl gradient inside training, timed at
    every call so that the samples span the whole fit.
    """

    name = "train"
    min_rounds = 2
    n_checked = 4
    train_span = (datetime(2007, 1, 1), datetime(2011, 1, 1))
    val_span = (datetime(2011, 1, 1), datetime(2012, 1, 1))
    sample_span = (datetime(2007, 1, 1), datetime(2007, 1, 8))

    def setup(self) -> str:
        series, _ = rnnp.synth.synth_generate(
            rnnp.SynthConfig(years=5, noise_sigma=0.025), Rng(self.seed)
        )
        self.series, digest = self._ingest(series)
        self.fit_iv: list = []
        self.request_iv = Intervals()
        tau, stride = CRITERION6["tau"], CRITERION6["train_stride"]
        self.windows = window_count(self.series, *self.train_span, tau, stride)
        self.val_windows = window_count(self.series, *self.val_span, tau, stride)
        return digest

    def round(self) -> None:
        pipe = rnnp.pipeline.LoadForecastPipeline(**CRITERION6)
        calls_before = len(self.request_iv)
        with CallTimer("rnnp.engines", "trrl_gradients", self.request_iv):
            t0 = clock()
            pipe.fit(self.series, *self.train_span, *self.val_span)
            self.fit_iv.append((t0, clock()))
        calls = len(self.request_iv) - calls_before
        history = pipe.forecaster_.history_
        epochs = len(history)
        self.out.check("epochs_fixed", epochs == CRITERION6["max_epochs"])
        self.out.check("trrl_calls_per_fit", calls == self.windows * epochs)
        self.out.check(
            "losses_finite",
            all_finite([h.train_loss for h in history] + [h.val_loss for h in history]),
        )
        self._record_digest("trained_params_sha256", params_digest(pipe.forecaster_))
        self._check_engines(pipe)
        self.counts["epochs_per_fit"] = epochs
        self.counts["train_windows_per_epoch"] = self.windows
        self.counts["val_windows_per_epoch"] = self.val_windows

    def _check_engines(self, pipe) -> None:
        """trrl against rtrl at the fitted parameters on the workload's own
        windows (the first week of training data)."""
        fc, series = pipe.forecaster_, self.series
        i, j = series.index_range(*self.sample_span)
        residuals = pipe.deseasonalizer_.transform(series, *self.sample_span).residuals
        features = [
            pipe.encoder_.encode(series.timestamps[k], series.drybulb_f[k], series.wetbulb_f[k])
            for k in range(i, j)
        ]
        windows = rnnp.windows.make_windows(features, residuals, CRITERION6["tau"], 25)
        for w in windows[: self.n_checked]:
            loss = fc.head_.bind(w.target)
            trrl, counter = rnnp.engines.trrl_gradients(fc.params_, fc.spec_, w.xs, loss)
            rtrl, _ = rnnp.engines.rtrl_gradients(fc.params_, fc.spec_, w.xs, loss)
            self.out.check("trrl_vs_rtrl_1e-10", relative_gap(trrl, rtrl) <= PAIR_TOL)
        epochs = len(fc.history_)
        self.counts["trrl_macs_per_window"] = counter.mac_count
        self.counts["trrl_macs_per_fit_computed"] = counter.mac_count * self.windows * epochs
        self.counts["forward_macs_per_fit_computed"] = (
            forward_macs(fc.spec_, CRITERION6["tau"]) * (self.windows + self.val_windows) * epochs
        )

    def metrics(self) -> dict:
        work = self.windows * self.counts["epochs_per_fit"]
        metrics = self.e2e(work, self.fit_iv, self.fit_iv, self.request_iv)
        self.notes["train_windows_per_s"] = metrics["throughput_per_s"][0]
        return metrics


class ForecastWorkload(Workload):
    """Serving a restored pipeline: a batch range and day-ahead requests."""

    name = "forecast"
    min_rounds = 4
    calls_per_round = 25
    days = 56
    fit_span = (datetime(2007, 1, 1), datetime(2008, 1, 1))
    test_start = datetime(2008, 1, 1)

    def setup(self) -> str:
        series, _ = rnnp.synth.synth_generate(
            rnnp.SynthConfig(years=2), Rng(self.seed)
        )
        n = len(series) - 366 * 24 + self.days * 24  # 2007 plus the test days
        series = rnnp.HourlySeries(
            timestamps=series.timestamps[:n],
            demand_mwh=series.demand_mwh[:n],
            drybulb_f=series.drybulb_f[:n],
            wetbulb_f=series.wetbulb_f[:n],
        )
        self.series, digest = self._ingest(series)
        fitted = rnnp.pipeline.LoadForecastPipeline(
            **dict(CRITERION6, train_stride=100)
        ).fit(self.series, *self.fit_span)
        path = os.path.join(self.workdir, "forecast-model.json")
        fitted.save(path)
        self.pipe = rnnp.pipeline.LoadForecastPipeline.load(path)
        self.out.check(
            "save_load_params_identical",
            params_digest(self.pipe.forecaster_) == params_digest(fitted.forecaster_),
        )
        self._record_digest("trained_params_sha256", params_digest(self.pipe.forecaster_))
        self.csv_path = os.path.join(self.workdir, "forecast.csv")
        self.forecast_iv: list = []
        self.evaluate_iv: list = []
        self.job_iv: list = []
        self.request_iv: list = []
        self.calls = 0
        return digest

    def _batch(self) -> None:
        end = self.test_start + self.days * 24 * HOUR
        t0 = clock()
        batch = self.pipe.forecast_range(self.series, self.test_start, end)
        t1 = clock()
        rnnp.pipeline.write_forecast_csv(batch, self.csv_path)
        t2 = clock()
        report = self.pipe.evaluate(batch, self.series)
        t3 = clock()
        self.batch = batch
        self.forecast_iv.append((t0, t1))
        self.evaluate_iv.append((t2, t3))
        self.job_iv.append((t0, t3))
        self.out.check("batch_finite", all_finite(f.point for f in batch))
        self.out.check("mape_finite", math.isfinite(report.mape_pct))
        self._record_digest("forecast_csv_sha256", digest_file(self.csv_path))
        self.counts["batch_hours"] = len(batch)
        self.counts["forward_macs_per_batch_computed"] = len(batch) * forward_macs(
            self.pipe.forecaster_.spec_, self.pipe.tau
        )
        self.counts["forecast_csv_bytes"] = os.path.getsize(self.csv_path)

    def _day_ahead(self, n: int) -> None:
        """Closed loop: each 24-hour request starts when the previous returns."""
        for _ in range(n):
            day = self.calls % self.days
            start = self.test_start + day * 24 * HOUR
            t0 = clock()
            got = self.pipe.forecast_range(self.series, start, start + 24 * HOUR)
            self.request_iv.append((t0, clock()))
            self.calls += 1
            self.out.check(
                "dayahead_equals_batch", got == self.batch[day * 24 : (day + 1) * 24]
            )
        self.counts["rows_encoded_per_request"] = len(self.series)
        self.counts["rows_read_per_request"] = 24 + self.pipe.tau - 1

    def round(self) -> None:
        self._batch()
        self._day_ahead(self.calls_per_round)

    def metrics(self) -> dict:
        hours = self.counts["batch_hours"]
        metrics = self.e2e(hours, self.forecast_iv, self.job_iv, self.request_iv)
        self.notes["forecast_hours_per_s"] = metrics["throughput_per_s"][0]
        self.notes["evaluate_s"] = median(self.seconds(self.evaluate_iv))
        self.notes["dayahead_ms.p50"] = metrics["request_ms.p50"][0]
        self.notes["dayahead_ms.p90"] = metrics["request_ms.p90"][0]
        return metrics


class WalkForwardWorkload(Workload):
    """run_walk_forward: a 2-cell grid over 2 yearly splits of 3 years.

    The request is one hourly RnnForecaster.predict_output inside the
    walk-forward's forecast stage, timed at every call.
    """

    name = "walk_forward"
    min_rounds = 2
    lag_sets = [(1,)]
    kwargs = dict(loss="gaussian_nll", max_epochs=2, patience=2, tau=12, seed=9)
    stride = 97

    def setup(self) -> str:
        series, _ = rnnp.synth.synth_generate(
            rnnp.SynthConfig(years=3), Rng(self.seed)
        )
        self.series, digest = self._ingest(series)
        self.plan = rnnp.pipeline.build_walk_forward_plan(2007, 1, 2)
        self.grid = rnnp.HyperGrid(
            hidden_dims=(3, 4), learning_rates=(5e-3,), batch_sizes=(32,)
        )
        self.test_hours = sum(
            len(range(*self.series.index_range(s.test_start, s.test_end)))
            for s in self.plan
        )
        self.run_iv: list = []
        self.request_iv = Intervals()
        return digest

    def round(self) -> None:
        calls_before = len(self.request_iv)
        with CallTimer("rnnp.forecaster", "RnnForecaster.predict_output", self.request_iv):
            t0 = clock()
            rows = rnnp.pipeline.run_walk_forward(
                self.series,
                self.plan,
                lag_sets=self.lag_sets,
                grid=self.grid,
                pipeline_kwargs=self.kwargs,
                train_stride=self.stride,
            )
            self.run_iv.append((t0, clock()))
        calls = len(self.request_iv) - calls_before
        self.out.check("hourly_forecasts", calls == self.test_hours)
        expected = [
            (tuple(lags), s.test_start.year) for lags in self.lag_sets for s in self.plan
        ]
        self.out.check("layout", [(r.lag_set, r.test_year) for r in rows] == expected)
        self.out.check(
            "mape_finite",
            all(math.isfinite(r.report.mape_pct) and r.report.apl_mwh is not None for r in rows),
        )
        text = repr([(r.lag_set, r.test_year, r.hidden_dim, r.report.to_dict()) for r in rows])
        self._record_digest("rows_sha256", hashlib.sha256(text.encode()).hexdigest())
        self.counts["rows"] = len(rows)
        self.counts["grid_cells"] = len(self.grid.cells()) * len(self.lag_sets)
        self.counts["test_hours"] = self.test_hours

    def metrics(self) -> dict:
        metrics = self.e2e(self.test_hours, self.run_iv, self.run_iv, self.request_iv)
        self.notes["walk_forward_s"] = self.notes["job_s"]
        return metrics


class VerifyWorkload(Workload):
    """The gradcheck path plus trrl and rtrl at the production shape."""

    name = "verify"
    min_rounds = 10
    instances = 20  # run_gradient_check's default instance set, seeds 0..19
    per_round = 10

    def setup(self) -> str:
        series, _ = rnnp.synth.synth_generate(rnnp.SynthConfig(years=1), Rng(self.seed))
        self.series, digest = self._ingest(series)
        features = rnnp.CalendarFeatureEncoder().fit_transform(self.series)
        residuals = rnnp.HourlyDeseasonalizer().fit(self.series).transform(self.series).residuals
        self.windows = rnnp.windows.make_windows(features, residuals, 49, 97)
        self.spec = rnnp.RnnSpec(lag_set=(1, 2, 24), x_dim=len(features[0]), hidden_dim=15, y_dim=2)
        self.params = rnnp.init_params(self.spec, Rng(self.seed))
        self.head = rnnp.LossHead(kind="gaussian_nll")
        self.check_iv: list = []
        self.trrl_iv: list = []
        self.rtrl_iv: list = []
        self.calls = 0
        return digest

    def _gradcheck(self) -> None:
        t0 = clock()
        rows, all_ok = rnnp.gradcheck.run_gradient_check(self.instances)
        self.check_iv.append((t0, clock()))
        self.out.check("gradcheck_all_ok", all_ok)
        text = repr([(r.engine, r.seed, r.max_rel_err, r.max_abs_err) for r in rows])
        self._record_digest("gradcheck_rows_sha256", hashlib.sha256(text.encode()).hexdigest())
        self.counts["gradcheck_comparisons"] = len(rows)

    def _engines(self, n: int) -> None:
        for _ in range(n):
            w = self.windows[self.calls % len(self.windows)]
            self.calls += 1
            loss = self.head.bind(w.target)
            t0 = clock()
            trrl, trrl_counter = rnnp.engines.trrl_gradients(self.params, self.spec, w.xs, loss)
            t1 = clock()
            rtrl, rtrl_counter = rnnp.engines.rtrl_gradients(self.params, self.spec, w.xs, loss)
            t2 = clock()
            self.trrl_iv.append((t0, t1))
            self.rtrl_iv.append((t1, t2))
            self.out.check("trrl_vs_rtrl_1e-10", relative_gap(trrl, rtrl) <= PAIR_TOL)
            if (self.calls - 1) % len(self.windows) == 0:
                self._record_digest("trrl_grad_sha256", digest_floats(trrl.d_theta + trrl.d_phi))
        self.counts["trrl_macs_per_call"] = trrl_counter.mac_count
        self.counts["rtrl_macs_per_call"] = rtrl_counter.mac_count
        self.counts["trrl_peak_floats"] = trrl_counter.peak_floats
        self.counts["rtrl_peak_floats"] = rtrl_counter.peak_floats
        self.counts["forward_macs_per_call_computed"] = forward_macs(self.spec, len(w.xs))

    def round(self) -> None:
        self._gradcheck()
        self._engines(self.per_round)

    def trace_unit(self) -> None:
        for _ in range(2):
            self.round()

    def metrics(self) -> dict:
        metrics = self.e2e(self.instances, self.check_iv, self.check_iv, self.trrl_iv)
        self.notes["gradcheck_instances_per_s"] = metrics["throughput_per_s"][0]
        self.notes["trrl_grad_ms.p50"] = metrics["request_ms.p50"][0]
        self.notes["trrl_grad_ms.p90"] = metrics["request_ms.p90"][0]
        rtrl_ms = [1e3 * s for s in self.seconds(self.rtrl_iv)]
        self.notes["rtrl_grad_ms.p50"] = percentile(rtrl_ms, 50)
        self.notes["rtrl_grad_ms.p90"] = percentile(rtrl_ms, 90)
        return metrics


WORKLOADS = {
    w.name: w
    for w in (TrainWorkload, ForecastWorkload, WalkForwardWorkload, VerifyWorkload)
}
