"""The package imports nothing outside the standard library."""

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
