"""Every rnnp name the benchmark reaches still resolves.

``perfbench/`` looks functions and methods up by name: the tracer wraps
each ``(module, attribute)`` of ``tracing.SPANNED`` and ``tracing.COUNTED``,
and the workloads time calls through ``CallTimer("module", "attr", ...)``.
A deleted or renamed name would only show in a benchmark run; these tests
read ``perfbench/`` as it is and fail first.  Some hooks also read a
traced call's arguments by position, so a reordered parameter would
silently miscount a traced metric; those positions are checked too.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

import rnnp.model
from rnnp.forecaster import RnnForecaster

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def call_timer_targets() -> list:
    """The (module, attribute) string arguments of every ``CallTimer`` call
    in workloads.py."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    targets = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "CallTimer"
        ):
            module, attr = node.args[:2]
            targets.append((module.value, attr.value))
    return targets


def unresolved(module_name: str, attr: str) -> str | None:
    """Why ``tracing.patch`` could not wrap ``module.attr``, or None."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name, None)
        if cls is None:
            return f"{module_name} has no class {cls_name}"
        if meth not in cls.__dict__:
            return f"{cls_name}.{meth} is not defined on the class itself"
        return None
    if not callable(getattr(module, attr, None)):
        return f"{module_name} has no function {attr}"
    return None


TRACING = load_tracing()
TRACED = [(m, a) for m, a, _ in TRACING.SPANNED] + list(TRACING.COUNTED)
TIMED = call_timer_targets()


def test_the_benchmark_names_were_found():
    assert len(TRACED) >= 30
    assert ("rnnp.engines", "trrl_gradients") in TIMED
    assert ("rnnp.forecaster", "RnnForecaster.predict_output") in TIMED


@pytest.mark.parametrize("module_name, attr", TRACED + TIMED)
def test_name_resolves(module_name, attr):
    assert unresolved(module_name, attr) is None


# The leading parameters each tracing hook reads by position (``args[i]``);
# ``forecast_range``'s hook reads the pipeline, ``self``.
HOOK_POSITIONS = [
    ("rnnp.model", "forward_sequence", ["params", "spec", "xs"]),
    ("rnnp.training", "evaluate_loss", ["params", "spec", "windows", "head"]),
    ("rnnp.pipeline", "LoadForecastPipeline.forecast_range", ["self"]),
    ("rnnp.pipeline", "write_forecast_csv", ["forecasts", "path"]),
]


@pytest.mark.parametrize("module_name, attr, leading", HOOK_POSITIONS)
def test_hooked_parameters_keep_their_positions(module_name, attr, leading):
    hooked = {(m, a) for m, a, hook in TRACING.SPANNED if hook is not None}
    assert (module_name, attr) in hooked
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    params = list(inspect.signature(target).parameters.values())[: len(leading)]
    assert [p.name for p in params] == leading
    assert all(
        p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) for p in params
    )


def rnnp_reads(path: pathlib.Path) -> list:
    """Every dotted name rooted at ``rnnp`` that ``path`` reads: each
    ``rnnp.<module>.<name>`` or ``rnnp.<name>`` attribute chain (and each of
    its prefixes), and each ``from rnnp.<module> import <name>``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts, inner = [], node
            while isinstance(inner, ast.Attribute):
                parts.append(inner.attr)
                inner = inner.value
            if isinstance(inner, ast.Name) and inner.id == "rnnp":
                chains.add(".".join(["rnnp", *reversed(parts)]))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rnnp"):
            chains.update(f"{node.module}.{alias.name}" for alias in node.names)
    return sorted(chains)


def resolve(chain: str):
    """The object ``chain`` names, importing submodules on the way, or None."""
    parts = chain.split(".")
    target = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if hasattr(target, part):
            target = getattr(target, part)
            continue
        try:
            target = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return None
    return target


READS = rnnp_reads(PERFBENCH / "workloads.py")


def test_the_plain_api_reads_were_found():
    assert "rnnp.model.pack" in READS
    assert "rnnp.pipeline.LoadForecastPipeline.load" in READS
    assert "rnnp.linalg.Rng" in READS


@pytest.mark.parametrize("chain", READS)
def test_plain_api_read_resolves(chain):
    assert resolve(chain) is not None


def test_params_digest_reads_packed_lists():
    """``params_digest`` reads ``.theta`` and ``.phi`` of
    ``rnnp.model.pack(fc.params_, fc.spec_)`` as lists of floats."""
    X = [[[0.1 * t, -0.2], [0.3, 0.05 * t]] for t in range(8)]
    y = [0.1 * t - 0.3 for t in range(8)]
    fc = RnnForecaster(lags=(1,), hidden_dim=2, loss="mse", max_epochs=1).fit(X, y)
    packed = rnnp.model.pack(fc.params_, fc.spec_)
    assert isinstance(packed.theta, list) and isinstance(packed.phi, list)
    assert len(packed.theta) == fc.spec_.theta_size
    assert len(packed.phi) == fc.spec_.phi_size
    assert all(type(v) is float for v in packed.theta + packed.phi)
