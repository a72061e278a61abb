"""Every rnnp name the benchmark reaches still resolves.

``perfbench/`` looks functions and methods up by name: the tracer wraps
each ``(module, attribute)`` of ``tracing.SPANNED`` and ``tracing.COUNTED``,
and the workloads time calls through ``CallTimer("module", "attr", ...)``.
A deleted or renamed name would only show in a benchmark run; these tests
read ``perfbench/`` as it is and fail first.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

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
