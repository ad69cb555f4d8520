"""The package's own source: every module but ``__init__.py``, whose imports
are re-exports, uses each name it imports, so a deletion leaves no import
behind; no module imports ``scipy.optimize``, since the convex geometry
(hull margins, report-space hulls, extraction's convexity certificate) is
one Qhull routine; no seeded sampler draws one item at a time: no call on a
generator named ``rng`` sits in a loop or a comprehension, since one block
of draws is the same stream as the items drawn one by one; every
tolerance constant of ``contracts.py`` names, in a ``# pinned:`` comment on
its line, a test under ``tests/`` that fails once it moves 100-fold; and no
expectation goes through BLAS: no module calls ``np.dot``, and no ``@`` or
``np.matmul`` takes a belief's ``.pmf``, since a BLAS kernel orders the
products by the CPU it detects (``ordered_dot`` and ``_dots`` sum in the
order of the outcomes); and BRACKET_PAD is read only in ``contracts.inset``,
so every search box is inset by the same rule."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "srmarket"


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


def _number(node) -> bool:
    """Whether an expression is number literals under arithmetic."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.UnaryOp):
        return _number(node.operand)
    return isinstance(node, ast.BinOp) and _number(node.left) and _number(node.right)


def defines_test(test_id: str) -> bool:
    """Whether ``path::[Class::]test[params]``, path from the repository
    root, names a test function defined in that file (read by AST)."""
    path, *names = test_id.split("::")
    if not names or not (ROOT / path).is_file():
        return False
    body = ast.parse((ROOT / path).read_text()).body
    for name in names[:-1]:
        body = next((node.body for node in body if isinstance(node, ast.ClassDef)
                     and node.name == name), [])
    last = names[-1].split("[")[0]
    return last.startswith("test") and any(
        isinstance(node, ast.FunctionDef) and node.name == last for node in body)


def unpinned_constants(source: str) -> list:
    """The module-level upper-case names assigned a number, INF aside, whose
    line names no defined test in a ``# pinned: <test id>`` comment."""
    lines = source.splitlines()
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                node.targets[0].id.isupper() and node.targets[0].id != "INF" and \
                _number(node.value):
            pin = re.search(r"# pinned: (\S+)", lines[node.end_lineno - 1])
            if not (pin and defines_test(pin.group(1))):
                found.append(node.targets[0].id)
    return found


def test_the_walk_flags_a_constant_with_no_pin():
    here = "tests/test_source.py::"
    assert unpinned_constants(
        "import math\n"
        "A_TOL = 1e-9\n"
        f"B_TOL = -2.0 ** 3  # pinned: {here}test_no_such_test\n"
        f"C_TOL = 1  # pinned: {here}test_the_walk_finds_an_unused_import\n"
        f"D_TOL = 2  # pinned: {here}test_the_walk_finds_a_draw_in_a_loop[0]\n"
        "E_TOL = 3  # pinned: tests/no_such_file.py::test_x\n"
        "F_TOL = 4  # pinned: tests/test_source.py::TestNoSuchClass::test_x\n"
        "INF = math.inf\nSPACE = object()\nlower = 1.0\n") == \
        ["A_TOL", "B_TOL", "E_TOL", "F_TOL"]


def test_every_tolerance_names_its_pinning_test():
    assert unpinned_constants((PACKAGE / "contracts.py").read_text()) == []


def _is_pmf(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "pmf"


def _is_np(node, name: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == name and \
        isinstance(node.value, ast.Name) and node.value.id == "np"


def blas_products(source: str) -> list:
    """The line numbers of the calls ``np.dot(...)``, and of the products
    ``a @ b`` and ``np.matmul(a, b)`` with an operand ``<expr>.pmf``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _is_np(node.func, "dot"):
            lines.add(node.lineno)
        elif isinstance(node, ast.Call) and _is_np(node.func, "matmul") and \
                any(map(_is_pmf, node.args)):
            lines.add(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) \
                and (_is_pmf(node.left) or _is_pmf(node.right)):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("source", [
    "v = float(np.dot(row, pmf))\n",
    "def f(a, b):\n    return a - np.dot(a, b) * b\n",
    "expected = self.matrix @ p.pmf\n",
    "num = p.pmf @ self.phi\n",
    "x = np.matmul(rule.phi.T, belief.pmf)\n",
])
def test_the_walk_finds_a_blas_product(source):
    assert blas_products(source) != []


def test_the_walk_passes_ordered_sums_and_other_products():
    assert blas_products(
        "v = ordered_dot(row, p.pmf_list)\nw = _dots(self.phi.T, p.pmf)\n"
        "x = normals @ d\ny = np.matmul(a, xs[..., None])\nz = a.dot(b)\n"
        "pmf = p.pmf\n") == []


def test_no_module_takes_an_expectation_through_blas():
    found = {p.name: blas_products(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}



def bracket_pad_reads(source: str) -> list:
    """The line numbers that read ``BRACKET_PAD``, as a name or an
    attribute, outside a function named ``inset``."""
    tree = ast.parse(source)
    inset = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             and fn.name == "inset" for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree) if id(node) not in inset and (
        isinstance(node, ast.Name) and node.id == "BRACKET_PAD"
        and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute) and node.attr == "BRACKET_PAD"))


@pytest.mark.parametrize("source", [
    "def f(lo, hi):\n    pad = BRACKET_PAD * (hi - lo)\n    return lo + pad, hi - pad\n",
    "limits = [hi - BRACKET_PAD * (hi - lo), BRACKET_PAD * (hi - lo) - lo]\n",
    "def inset_box(lo, hi):\n    return contracts.BRACKET_PAD * (hi - lo)\n",
])
def test_the_walk_finds_a_bracket_pad_read(source):
    assert bracket_pad_reads(source) != []


def test_the_walk_passes_inset_and_the_constant():
    assert bracket_pad_reads(
        "BRACKET_PAD = 1e-13\n"
        "def inset(lo, hi):\n    pad = BRACKET_PAD * (hi - lo)\n"
        "    return lo + pad, hi - pad\n"
        "lo, hi = inset(a, b)\n") == []


def test_only_inset_reads_bracket_pad():
    found = {p.name: bracket_pad_reads(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
