"""The package's own source: every module but ``__init__.py``, whose imports
are re-exports, uses each name it imports, so a deletion leaves no import
behind; no module imports ``scipy.optimize``, since the convex geometry
(hull margins, report-space hulls, extraction's convexity certificate) is
one Qhull routine; and no seeded sampler draws one item at a time: no call
on a generator named ``rng`` sits in a loop or a comprehension, since one
block of draws is the same stream as the items drawn one by one."""

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


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
         ast.DictComp, ast.GeneratorExp)


def draws_in_loops(source: str) -> list:
    """The line numbers of the calls ``rng.<method>(...)`` that sit inside a
    for or while loop (its iterable included) or a comprehension."""
    lines = set()
    for loop in ast.walk(ast.parse(source)):
        if isinstance(loop, LOOPS):
            lines |= {node.lineno for node in ast.walk(loop)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and isinstance(node.func.value, ast.Name)
                      and node.func.value.id == "rng"}
    return sorted(lines)


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


@pytest.mark.parametrize("source", [
    "for _ in range(3):\n    x = rng.integers(0, 9, size=3)\n",
    "while len(out) < 5:\n    out.append(rng.normal())\n",
    "for w in rng.uniform(size=(4, 2)):\n    pass\n",
    "xs = [rng.normal(scale=4.0, size=2) for _ in range(9)]\n",
    "xs = {i: rng.random() for i in range(9)}\n",
    "def f(rng):\n    for a in b:\n        if a:\n            rng.integers(0, a)\n",
])
def test_the_walk_finds_a_draw_in_a_loop(source):
    assert draws_in_loops(source) != []


def test_the_walk_passes_a_draw_outside_loops():
    assert draws_in_loops(
        "ws = rng.uniform(0.2, 1.0, size=(9, 3))\nfor w in ws:\n    f(w)\n"
        "xs = [cfg.rng() for cfg in cfgs]\n") == []


def test_no_module_draws_in_a_loop():
    found = {p.name: draws_in_loops(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
