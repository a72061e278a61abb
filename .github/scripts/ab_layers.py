"""Two rnnp source trees in one process: the same bits, then thread-CPU time.

    python .github/scripts/ab_layers.py BASE_SRC CHANGE_SRC [--rounds N]

BASE_SRC and CHANGE_SRC are ``src`` directories, each holding an ``rnnp``
package; they are loaded side by side under two package names.  For each
layer below, each tree builds the same seeded inputs through its own public
API and runs the layer's unit of work once.  The script compares the
SHA-256 of the outputs (floats as ``float.hex``, files as their bytes) and
the counts (the ``OpCounter`` fields, and bptt's visit count), and exits 1
naming the first layer that differs.

Then it times ``--rounds`` interleaved rounds in thread CPU time,
alternating which tree goes first, and prints per layer the median of the
change/parent ratios, their quartiles and the rounds in which the change
was faster.  It reports timings and never asserts them.

A layer whose public callables have different signatures in the two trees
is reported as not comparable and is not timed; the script then exits 1
once the other layers have run.  Standard library only (Python >= 3.10).

Layers: ``synth_generate`` (5 years), ``write_csv`` (the file's bytes) and
``ingest_csv``, which the series path runs; ``project_inputs`` +
``forward_steps``, ``trrl_gradients`` and ``rtrl_gradients`` at lags
{1, 2, 24}, x 13, h 15, y 2, tau 49 (24 windows); ``bptt_gradients`` at
the same shape cut to tau 14 (8 windows); and ``finite_difference_gradients`` at a gradcheck-sized
shape, lags {1, 2, 5}, x 13, h 4, y 2, tau 12.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import inspect
import os
import statistics
import sys
import tempfile
import time
from datetime import date

SEED = 7
YEARS = 5
HOLIDAYS = frozenset({date(2007, 1, 1), date(2007, 7, 4), date(2008, 7, 5)})
LAGS, HIDDEN, TAU, WINDOWS = (1, 2, 24), 15, 49, 24
BPTT_TAU, BPTT_WINDOWS = 14, 8
FD_LAGS, FD_HIDDEN, FD_TAU, FD_WINDOWS = (1, 2, 5), 4, 12, 4


class Tree:
    """One ``rnnp`` package, imported under ``name`` from ``src``."""

    def __init__(self, name: str, src: str) -> None:
        package = os.path.join(os.path.abspath(src), "rnnp")
        init = os.path.join(package, "__init__.py")
        if not os.path.isfile(init):
            sys.exit(f"no rnnp package under {src}")
        spec = importlib.util.spec_from_file_location(
            name, init, submodule_search_locations=[package]
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        self.name = name

    def get(self, dotted: str):
        """``module.attr`` of this tree's package."""
        module, attr = dotted.rsplit(".", 1)
        return getattr(importlib.import_module(f"{self.name}.{module}"), attr)


def floats_sha(*columns) -> str:
    h = hashlib.sha256()
    for column in columns:
        for v in column:
            h.update(v.hex().encode())
            h.update(b"\n")
        h.update(b"|")
    return h.hexdigest()


def series_sha(series) -> str:
    stamps = "\n".join(ts.isoformat() for ts in series.timestamps)
    columns = floats_sha(series.demand_mwh, series.drybulb_f, series.wetbulb_f)
    return hashlib.sha256(stamps.encode()).hexdigest() + columns


def generated(tree: Tree, years: int):
    config = tree.get("synth.SynthConfig")(years=years, holidays=HOLIDAYS)
    return tree.get("synth.synth_generate")(config, tree.get("linalg.Rng")(SEED))


def production(
    tree: Tree, lags=LAGS, hidden=HIDDEN, tau=TAU, count=WINDOWS
) -> tuple:
    """(params, spec, windows): ``count`` encoded tau-hour windows of a
    generated year, one hour apart, and seeded parameters."""
    series, _ = generated(tree, 1)
    encoder = tree.get("features.CalendarFeatureEncoder")(holidays=HOLIDAYS)
    rows = encoder.fit_transform(series)
    spec = tree.get("model.RnnSpec")(
        lag_set=lags, x_dim=len(rows[0]), hidden_dim=hidden, y_dim=2
    )
    params = tree.get("model.init_params")(spec, tree.get("linalg.Rng")(SEED))
    windows = [rows[150 + i : 150 + i + tau] for i in range(count)]
    return params, spec, windows


# Each layer's setup(tree, workdir) builds its inputs and returns
# (run, digest): ``run()`` is the timed unit of work, and
# ``digest(run())`` gives (outputs sha256, counts).


def synth_layer(tree: Tree, workdir: str) -> tuple:
    def digest(out):
        series, truth = out
        return series_sha(series) + floats_sha(truth.log_det, truth.noise), ()

    return (lambda: generated(tree, YEARS)), digest


def write_layer(tree: Tree, workdir: str) -> tuple:
    series, _ = generated(tree, YEARS)
    path = os.path.join(workdir, f"{tree.name}.csv")
    write_csv = tree.get("series.write_csv")

    def digest(_):
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest(), ()

    return (lambda: write_csv(series, path)), digest


def ingest_layer(tree: Tree, workdir: str) -> tuple:
    series, _ = generated(tree, YEARS)
    path = os.path.join(workdir, f"{tree.name}-in.csv")
    tree.get("series.write_csv")(series, path)
    ingest_csv = tree.get("series.ingest_csv")
    return (lambda: ingest_csv(path)), (lambda out: (series_sha(out), ()))


def forward_layer(tree: Tree, workdir: str) -> tuple:
    params, spec, windows = production(tree)
    project, steps = tree.get("model.project_inputs"), tree.get("model.forward_steps")

    def run():
        return [list(steps(params, spec, list(project(params, spec, w)))) for w in windows]

    def digest(out):
        return floats_sha(*(v for window in out for h, y in window for v in (h, y))), ()

    return run, digest


def gradients_sha(pairs) -> str:
    return floats_sha(*(v for g in pairs for v in (g.d_theta, g.d_phi, [g.loss])))


def engine_layer(name: str, tau: int = TAU, count: int = WINDOWS):
    """The layer of engine ``name`` over ``count`` production windows cut to
    ``tau``; bptt's visit count is compared with the ``OpCounter``."""

    def setup(tree: Tree, workdir: str) -> tuple:
        params, spec, windows = production(tree, tau=tau, count=count)
        engine = tree.get(f"engines.{name}")
        loss = tree.get("training.LossHead")(kind="gaussian_nll").bind(0.3)

        def run():
            return [engine(params, spec, w, loss) for w in windows]

        def digest(out):
            counts = tuple((c.mac_count, c.peak_floats, *rest) for _, c, *rest in out)
            return gradients_sha(g for g, *_ in out), counts

        return run, digest

    return setup


def finite_difference_layer(tree: Tree, workdir: str) -> tuple:
    params, spec, windows = production(tree, FD_LAGS, FD_HIDDEN, FD_TAU, FD_WINDOWS)
    oracle = tree.get("engines.finite_difference_gradients")
    loss = tree.get("training.LossHead")(kind="gaussian_nll").bind(0.3)

    def run():
        return [oracle(params, spec, w, loss) for w in windows]

    return run, (lambda out: (gradients_sha(out), ()))


# (name, the public callables whose signatures must match, setup)
LAYERS = (
    ("synth_generate", ("synth.synth_generate", "synth.SynthConfig"), synth_layer),
    ("write_csv", ("series.write_csv",), write_layer),
    ("ingest_csv", ("series.ingest_csv",), ingest_layer),
    (
        "project_inputs+forward_steps",
        ("model.project_inputs", "model.forward_steps", "model.RnnSpec", "model.init_params"),
        forward_layer,
    ),
    (
        "trrl_gradients",
        ("engines.trrl_gradients", "training.LossHead"),
        engine_layer("trrl_gradients"),
    ),
    (
        "rtrl_gradients",
        ("engines.rtrl_gradients", "training.LossHead"),
        engine_layer("rtrl_gradients"),
    ),
    (
        "bptt_gradients",
        ("engines.bptt_gradients", "training.LossHead"),
        engine_layer("bptt_gradients", BPTT_TAU, BPTT_WINDOWS),
    ),
    (
        "finite_difference_gradients",
        ("engines.finite_difference_gradients", "training.LossHead"),
        finite_difference_layer,
    ),
)


def signature_differs(base: Tree, change: Tree, callables) -> str | None:
    """The first callable whose signature differs between the trees."""
    for dotted in callables:
        try:
            a, b = (str(inspect.signature(t.get(dotted))) for t in (base, change))
        except AttributeError:
            return dotted
        if a != b:
            return dotted
    return None


def thread_seconds(run) -> float:
    gc.collect()
    t0 = time.thread_time()
    run()
    return time.thread_time() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("base_src")
    parser.add_argument("change_src")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    base, change = Tree("rnnp_parent", args.base_src), Tree("rnnp_change", args.change_src)
    print(f"python {sys.version.split()[0]}, {args.rounds} rounds, thread CPU seconds")
    print(f"{'layer':30} {'bits':6} {'parent s':>9} {'change s':>9} "
          f"{'change/parent [q1-q3]':>23} {'faster':>7}")
    passed = True
    with tempfile.TemporaryDirectory() as workdir:
        for name, callables, setup in LAYERS:
            differs = signature_differs(base, change, callables)
            if differs:
                print(f"{name:30} not comparable: {differs} differs between the trees")
                passed = False
                continue
            runs = [setup(tree, workdir) for tree in (base, change)]
            outs = [digest(run()) for run, digest in runs]
            if outs[0] != outs[1]:
                what = "outputs" if outs[0][0] != outs[1][0] else "counts"
                print(f"{name:30} DIFFERS: the {what} are not the same")
                return 1
            times = ([], [])
            for r in range(args.rounds):
                for side in (0, 1) if r % 2 == 0 else (1, 0):
                    times[side].append(thread_seconds(runs[side][0]))
            ratios = [c / p for p, c in zip(*times)]
            q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
            faster = sum(c < p for p, c in zip(*times))
            counters = outs[0][1]
            macs = f", {sum(c[0] for c in counters)} MACs" if counters else ""
            print(
                f"{name:30} {'same':6} {statistics.median(times[0]):9.4f} "
                f"{statistics.median(times[1]):9.4f} "
                f"{statistics.median(ratios):8.3f} [{q1:.3f}-{q3:.3f}] "
                f"{faster:3}/{args.rounds}{macs}"
            )
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
