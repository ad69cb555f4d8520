"""The package's own source: every module but ``__init__.py``, whose imports
are re-exports, uses each name it imports, so a deletion leaves no import
behind; and no module imports ``scipy.optimize``, since the convex geometry
(hull margins, report-space hulls, extraction's convexity certificate) is
one Qhull routine."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "srmarket"


def unused_imports(source: str) -> list:
    """The names a module imports and no ``ast.Name`` of it reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def imports_scipy_optimize(source: str) -> bool:
    """Whether an import statement names scipy.optimize or a module in it:
    ``import a.b`` names a.b, ``from a import b`` names a and a.b."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names += [node.module] + [f"{node.module}.{a.name}"
                                      for a in node.names]
    return any(name == "scipy.optimize" or name.startswith("scipy.optimize.")
               for name in names)


def test_the_walk_finds_an_unused_import():
    assert unused_imports("import math\nfrom functools import lru_cache as c\n"
                          "from os import path\nfrom __future__ import annotations\n"
                          "path.join\n") == ["math", "c"]


def test_no_module_has_an_unused_import():
    found = {p.name: unused_imports(p.read_text())
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


@pytest.mark.parametrize("source", [
    "import scipy.optimize\n",
    "def f():\n    from scipy.optimize import linprog\n",
    "from scipy import optimize as opt\n",
    "from scipy.optimize._linprog import linprog\n",
])
def test_the_walk_finds_a_scipy_optimize_import(source):
    assert imports_scipy_optimize(source)


def test_the_walk_passes_other_scipy_imports():
    assert not imports_scipy_optimize(
        "from scipy.spatial import ConvexHull\nimport scipy.optimizer\n")


def test_no_module_imports_scipy_optimize():
    found = [p.name for p in sorted(PACKAGE.glob("*.py"))
             if imports_scipy_optimize(p.read_text())]
    assert found == []
