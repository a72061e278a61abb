"""Source rules: standard-library imports only, and no float sum builtins."""

import ast
import pathlib
import sys

import pytest

import rnnp
from rnnp.gradcheck import _random_instance
from rnnp.kernels import kernel_source

PACKAGE_DIR = pathlib.Path(rnnp.__file__).parent


def test_absolute_imports_are_standard_library():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}: {name}")
    assert foreign == []


# Python 3.12 made the builtin float sum() compensated, so its result
# depends on the interpreter version; math.fsum and math.sumprod are
# compensated or fused everywhere.  Sums are written as left-to-right loops.
# pbonacci.py sums only exact integers.
SUM_EXEMPT = {"pbonacci.py"}


def sum_calls(tree: ast.AST, name: str) -> list:
    """``name:line: builtin`` for each float sum builtin ``tree`` uses."""
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "sum":
                offenders.append(f"{name}:{node.lineno}: sum")
            elif isinstance(func, ast.Attribute) and func.attr in ("fsum", "sumprod"):
                offenders.append(f"{name}:{node.lineno}: {func.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in ("fsum", "sumprod"):
                    offenders.append(f"{name}:{node.lineno}: {alias.name}")
    return offenders


def test_no_float_sum_builtins():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name in SUM_EXEMPT:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += sum_calls(tree, path.name)
    assert offenders == []


# (hidden_dim, x_dim, y_dim, lag_set) of every shape the package runs:
# the gradcheck's instances, the pipeline's and walk_forward's.
RUN_SHAPES = sorted(
    {
        (s.hidden_dim, s.x_dim, s.y_dim, s.lag_set)
        for s in (_random_instance(seed)[0] for seed in range(20))
    }
    | {(15, 13, 2, (1, 2, 24)), (3, 13, 2, (1,))}
)

# (hidden_dim, y_dim, lag_set) of the generated kernels: the pipeline's
# shapes, y 1 and 3, h 1, and a gapped lag set; then the other
# ones RUN_SHAPES holds.
KERNEL_SHAPES = [
    (8, 2, (1, 2, 24)),
    (15, 2, (1, 2, 24)),
    (3, 1, (1,)),
    (4, 3, (2, 5)),
    (1, 1, (1, 3)),
    (1, 3, (1, 3, 6)),
]
KERNEL_SHAPES += sorted({(h, y, lags) for h, _, y, lags in RUN_SHAPES} - set(KERNEL_SHAPES))


def float_literals(tree: ast.AST) -> set:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
    }


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
def test_generated_kernels_have_no_sum_and_no_weight(shape):
    """The generated source obeys the same rule, and its only float
    literals are the 0.0 a sum starts from (or an input is tested
    against) and the 1.0 of h (1 - h): no weight or input value is ever
    written into it.  Each (h, y, lags) is checked at the encoder's x_dim
    of 13 and at every x_dim a run pairs it with."""
    h, y, lags = shape
    x_dims = {13} | {x for rh, x, ry, rl in RUN_SHAPES if (rh, ry, rl) == shape}
    for x in sorted(x_dims):
        tree = ast.parse(kernel_source(h, x, y, lags))
        assert sum_calls(tree, f"kernel_source{(h, x, y, lags)}") == []
        assert float_literals(tree) == {0.0, 1.0}


def test_only_the_kernels_module_generates_code():
    """Straight-line code is generated and compiled in one place, so every
    generated kernel shares one generator and one cache: no other module
    of the package calls ``exec`` or ``compile``."""
    calls = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("exec", "compile"):
                    calls.append((path.name, node.func.id))
    assert sorted(calls) == [("kernels.py", "compile"), ("kernels.py", "exec")]
