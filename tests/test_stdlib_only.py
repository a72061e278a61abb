"""Source rules: standard-library imports only, and no float sum builtins."""

import ast
import pathlib
import sys

import rnnp

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


def test_no_float_sum_builtins():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name in SUM_EXEMPT:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "sum":
                    offenders.append(f"{path.name}:{node.lineno}: sum")
                elif isinstance(func, ast.Attribute) and func.attr in (
                    "fsum",
                    "sumprod",
                ):
                    offenders.append(f"{path.name}:{node.lineno}: {func.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                for alias in node.names:
                    if alias.name in ("fsum", "sumprod"):
                        offenders.append(f"{path.name}:{node.lineno}: {alias.name}")
    assert offenders == []
