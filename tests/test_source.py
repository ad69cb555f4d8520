"""The package's own source: every module but ``__init__.py``, whose imports
are re-exports, uses each name it imports, so a deletion leaves no import
behind."""

import ast
from pathlib import Path

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


def test_the_walk_finds_an_unused_import():
    assert unused_imports("import math\nfrom functools import lru_cache as c\n"
                          "from os import path\nfrom __future__ import annotations\n"
                          "path.join\n") == ["math", "c"]


def test_no_module_has_an_unused_import():
    found = {p.name: unused_imports(p.read_text())
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
