"""Source rules: standard-library imports only, and no float sum builtins."""

import ast
import pathlib
import sys

import pytest

import rnnp
from rnnp.engines import kernel_source

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


# (hidden_dim, y_dim, lag_set) of the generated gradient kernels: the
# pipeline's shapes, y 1 and 3, h 1, and a gapped lag set.
KERNEL_SHAPES = [
    (8, 2, (1, 2, 24)),
    (15, 2, (1, 2, 24)),
    (3, 1, (1,)),
    (4, 3, (2, 5)),
    (1, 1, (1, 3)),
    (1, 3, (1, 3, 6)),
]


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
def test_generated_kernels_have_no_sum_and_no_weight(shape):
    """The generated source obeys the same rule, and its only float
    literals are the 0.0 a row sum starts from and the 1.0 of h (1 - h):
    no weight or input value is ever written into it."""
    tree = ast.parse(kernel_source(*shape))
    assert sum_calls(tree, f"kernel_source{shape}") == []
    floats = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
    }
    assert floats == {0.0, 1.0}
