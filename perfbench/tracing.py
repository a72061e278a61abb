"""Span tracing of rnnp from outside the package, for the traced pass.

The tracer replaces public functions and methods of ``rnnp`` with thin
wrappers at every place a caller looks them up: the defining module, every
``rnnp`` module that imported the name, and any module-level dict that
holds it (such as an engine registry).  A wrapper records one span
``[name, start, end, parent]`` per call, in memory, plus exact counts taken
from the call's arguments and results.  Nothing is written until the run
ends.  Self time is a span's duration minus the time its child spans cover.

Hot scalar helpers (``CalendarFeatureEncoder.encode``,
``lognormal_quantile``) are counted without spans, and the matrix-vector
kernels of ``rnnp.linalg`` are not wrapped at all: they run millions of
times per workload, so a wrapper would measure itself.  ``linalg`` work is
reported through the MAC counts of the engines and forward passes instead.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
from collections import defaultdict


def forward_macs(spec, tau: int) -> int:
    """MACs of one forward pass, computed: tau * h * (x + p*y + y)."""
    y = spec.y_dim
    return tau * spec.hidden_dim * (spec.x_dim + len(spec.lag_set) * y + y)


def _hook_engine(counts, name, args, kwargs, result):
    counts[name + ".macs"] += result[1].mac_count
    peak = name + ".peak_floats"
    counts[peak] = max(counts[peak], result[1].peak_floats)
    if len(result) > 2:
        counts[name + ".macronodes"] += result[2]


def _hook_forward(counts, name, args, kwargs, result):
    counts[name + ".macs"] += forward_macs(args[1], len(args[2]))


def _hook_evaluate_loss(counts, name, args, kwargs, result):
    counts[name + ".windows"] += len(args[2])


def _hook_grid_search(counts, name, args, kwargs, result):
    counts[name + ".cells"] += len(result)


def _hook_forecast_range(counts, name, args, kwargs, result):
    # Distinct feature rows the hourly windows of this call read.
    pipe = args[0]
    counts["features.rows_read"] += len(result) + pipe.tau - 1


def _hook_write_forecast_csv(counts, name, args, kwargs, result):
    counts[name + ".bytes"] += os.path.getsize(args[1])


def _hook_rows(counts, name, args, kwargs, result):
    counts[name + ".rows"] += len(result)


def _hook_windows(counts, name, args, kwargs, result):
    counts[name + ".windows"] += len(result)


def _hook_gradcheck(counts, name, args, kwargs, result):
    rows = result[0]
    counts[name + ".comparisons"] += len(rows)
    counts[name + ".failures"] += sum(1 for r in rows if not r.ok)


# (module, attribute, hook) for spanned calls; attribute "Class.method"
# wraps a method on its class.  Layer names drop the "rnnp." prefix.
SPANNED = (
    ("rnnp.engines", "trrl_gradients", _hook_engine),
    ("rnnp.engines", "rtrl_gradients", _hook_engine),
    ("rnnp.engines", "bptt_gradients", _hook_engine),
    ("rnnp.engines", "finite_difference_gradients", None),
    ("rnnp.model", "forward_sequence", _hook_forward),
    ("rnnp.model", "save_checkpoint", None),
    ("rnnp.model", "load_checkpoint", None),
    ("rnnp.training", "train", None),
    ("rnnp.training", "adam_step", None),
    ("rnnp.training", "evaluate_loss", _hook_evaluate_loss),
    ("rnnp.training", "grid_search", _hook_grid_search),
    ("rnnp.forecaster", "RnnForecaster.fit", None),
    ("rnnp.forecaster", "RnnForecaster.predict_output", None),
    ("rnnp.pipeline", "LoadForecastPipeline.fit", None),
    ("rnnp.pipeline", "LoadForecastPipeline.forecast_range", _hook_forecast_range),
    ("rnnp.pipeline", "LoadForecastPipeline.evaluate", None),
    ("rnnp.pipeline", "run_walk_forward", None),
    ("rnnp.pipeline", "write_forecast_csv", _hook_write_forecast_csv),
    ("rnnp.seasonal", "HourlyDeseasonalizer.fit", None),
    ("rnnp.seasonal", "HourlyDeseasonalizer.transform", None),
    ("rnnp.seasonal", "HourlyDeseasonalizer.seasonal_at", None),
    ("rnnp.seasonal", "qr_lstsq", None),
    ("rnnp.features", "CalendarFeatureEncoder.transform", _hook_rows),
    ("rnnp.windows", "make_windows", _hook_windows),
    ("rnnp.metrics", "probabilistic_metrics", None),
    ("rnnp.metrics", "average_pinball_loss", None),
    ("rnnp.series", "ingest_csv", None),
    ("rnnp.series", "write_csv", None),
    ("rnnp.synth", "synth_generate", None),
    ("rnnp.gradcheck", "run_gradient_check", _hook_gradcheck),
)

COUNTED = (
    ("rnnp.features", "CalendarFeatureEncoder.encode"),
    ("rnnp.stats", "lognormal_quantile"),
)


def patch(module_name: str, attr: str, make, restore: list) -> None:
    """Replace ``module.attr`` by ``make(name, original)`` wherever rnnp
    looks it up, appending what to undo to ``restore``."""
    module = sys.modules[module_name]
    name = module_name.split(".", 1)[1] + "." + attr
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, make(name, original))
        restore.append((setattr, cls, meth, original))
        return
    original = getattr(module, attr)
    wrapper = make(name, original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "rnnp" or mod_name.startswith("rnnp.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                restore.append((setattr, mod, key, original))
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = wrapper
                        restore.append((dict.__setitem__, value, dkey, original))


def unpatch(restore: list) -> None:
    while restore:
        setter, target, key, original = restore.pop()
        setter(target, key, original)


class CallTimer:
    """Adds the wall-clock interval of every call of one function to
    ``into`` (an ``Intervals``) while active, for the untraced pass.

    Used where a workload's per-call latency can only be sampled inside a
    longer job; the wrapper costs two clock reads per call.
    """

    def __init__(self, module_name: str, attr: str, into) -> None:
        self.target = (module_name, attr)
        self.into = into
        self._restore: list = []

    def _make(self, name: str, fn):
        add, clock = self.into.add, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            add(t0, clock())
            return result

        return wrapper

    def __enter__(self) -> "CallTimer":
        patch(*self.target, self._make, self._restore)
        return self

    def __exit__(self, *exc) -> None:
        unpatch(self._restore)


class Tracer:
    """Installs wrappers, records spans and counts, restores on removal."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self._restore: list = []
        self._call_counters: dict = {}

    def _span_wrapper(self, name: str, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        errors = name.split(".", 1)[0] + ".errors"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[errors] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, name, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        # No span and no error accounting: these run up to millions of times
        # per workload, so the wrapper stays as thin as a Python call can be.
        # One counter per name, kept across install() calls.
        calls = self._call_counters.setdefault(name + ".calls", itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(calls)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, attr, hook in SPANNED:
            patch(
                module_name,
                attr,
                lambda name, fn, _hook=hook: self._span_wrapper(name, fn, _hook),
                self._restore,
            )
        for module_name, attr in COUNTED:
            patch(module_name, attr, self._count_wrapper, self._restore)

    def remove(self) -> None:
        unpatch(self._restore)

    def layer_metrics(self, overhead_frac: float, wanted: list) -> dict:
        """Aggregate spans and counts into the ``wanted`` (name, unit)
        metrics; a metric the workload never produced reports 0."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        trrl_forward = 0.0
        cell_s: list = []
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]
            if parent < 0:
                continue
            parent_name = spans[parent][0]
            if parent_name == "engines.trrl_gradients" and name == "model.forward_sequence":
                trrl_forward += dur
            if parent_name == "training.grid_search":
                # A grid cell is one train call plus the evaluate_loss after it.
                if name == "training.train":
                    cell_s.append(dur)
                elif name == "training.evaluate_loss" and cell_s:
                    cell_s[-1] += dur

        values = dict(self.counts)
        for key, counter in self._call_counters.items():
            # count() yields 0, 1, ...: the next value is the calls so far.
            values[key] = next(counter)
        for name in set(calls):
            values[name + ".calls"] = calls[name]
            values[name + ".self_s"] = self_s[name]
            values[name + ".s"] = total[name]
        for engine in ("trrl", "rtrl"):
            key = f"engines.{engine}_gradients"
            busy = self_s.get(key, 0.0)
            values[key + ".mac_per_s"] = (
                values.get(key + ".macs", 0) / busy if busy > 0 else 0.0
            )
        trrl_total = total.get("engines.trrl_gradients", 0.0)
        values["engines.trrl_gradients.forward_share"] = (
            trrl_forward / trrl_total if trrl_total > 0 else 0.0
        )
        values["training.grid_search.cell_s_max"] = max(cell_s, default=0.0)
        encoded = values.get("features.CalendarFeatureEncoder.transform.rows", 0)
        values["features.rows_used_frac"] = (
            values.get("features.rows_read", 0) / encoded if encoded else 0.0
        )
        values["linalg.macs"] = sum(
            values.get(f"{key}.macs", 0)
            for key in (
                "engines.trrl_gradients",
                "engines.rtrl_gradients",
                "engines.bptt_gradients",
                "model.forward_sequence",
            )
        )
        values["trace.overhead_frac"] = overhead_frac
        out = {}
        for metric, unit in wanted:
            value = values.get(metric, 0)
            if unit in ("count", "MAC", "B"):
                value = int(value)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as JSON lines, once, at the end."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                    )
                )
                f.write("\n")
