"""Compare two directories of srmarket report files for a declared update.

    PYTHONPATH=src python tests/report_diff.py OLD_DIR NEW_DIR

Both directories must hold the same file names.  In each file that differs,
verdicts, witness keys, budgets and every word must be equal, and every
number that changed must lie within VERDICT_TOL of the old one (relative
above 1), the tolerance within which a replayed witness reproduces.  Axiom
reports (``*.report.txt``) and JSON files are compared field by field;
other files line by line, number by number.  Each changed number is printed
as ``file: where: old -> new``.  Exits 1 when a file breaks a rule.
"""
from __future__ import annotations

import json
import os
import re
import sys

from srmarket.contracts import VERDICT_TOL

NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan)")


class Mismatch(AssertionError):
    """A difference that a declared number update may not make."""


def _compare(old, new, where: str, changes: list, tol: float = VERDICT_TOL):
    """Walk two JSON-like values: containers keep their keys and lengths,
    words stay equal, numbers move by at most tol * max(1, |old|)."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            raise Mismatch(f"{where}: keys {sorted(old)} -> {sorted(new)}")
        for key in old:
            _compare(old[key], new[key], f"{where}.{key}", changes, tol)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            raise Mismatch(f"{where}: length {len(old)} -> {len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            _compare(a, b, f"{where}[{i}]", changes, tol)
    elif isinstance(old, (int, float)) and isinstance(new, (int, float)) \
            and not isinstance(old, bool) and not isinstance(new, bool):
        if old == new:
            return
        if not abs(new - old) <= tol * max(1.0, abs(old)):
            raise Mismatch(f"{where}: {old!r} -> {new!r} beyond {tol}")
        changes.append(f"{where}: {old!r} -> {new!r}")
    elif old != new:
        raise Mismatch(f"{where}: {old!r} -> {new!r}")


def _read_report(text: str) -> tuple:
    """(header lines, head fields, witness-block JSON) of an axiom report."""
    head, _, block = text.partition("witness-block:\n")
    lines = head.splitlines()
    fields = dict(line.split(": ", 1) for line in lines
                  if line and not line.startswith("#"))
    fields["margin"] = float(fields["margin"])
    return [line for line in lines if line.startswith("#")], fields, \
        json.loads(block)


def _tokens(text: str) -> list:
    """The lines of a text as words and numbers."""
    return [[float(t) if i % 2 else t for i, t in enumerate(NUMBER.split(line))]
            for line in text.splitlines()]


def compare_file(name: str, old: str, new: str) -> list:
    """The changed numbers of one file; raises Mismatch past the rules."""
    changes: list = []
    if name.endswith(".report.txt"):
        old_head, old_fields, old_block = _read_report(old)
        new_head, new_fields, new_block = _read_report(new)
        _compare(old_head, new_head, "header", changes)
        _compare(old_fields, new_fields, "", changes)
        _compare(old_block["budget"], new_block["budget"], "budget", changes,
                 tol=0.0)
        _compare(old_block, new_block, "", changes)
    elif name.endswith(".json"):
        _compare(json.loads(old), json.loads(new), "", changes)
    else:
        _compare(_tokens(old), _tokens(new), "line", changes)
    return [f"{name}: {c.lstrip('.')}" for c in changes]


def compare_dirs(old_dir: str, new_dir: str) -> list:
    """Every changed number of every differing file in the two directories;
    raises Mismatch on a file that breaks a rule."""
    names = sorted(os.listdir(old_dir))
    if names != sorted(os.listdir(new_dir)):
        raise Mismatch(f"file names differ: {sorted(set(names) ^ set(os.listdir(new_dir)))}")
    out = []
    for name in names:
        with open(os.path.join(old_dir, name)) as a, \
                open(os.path.join(new_dir, name)) as b:
            old, new = a.read(), b.read()
        if old != new:
            out += compare_file(name, old, new)
    return out


def main(argv: list) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    try:
        changes = compare_dirs(*argv)
    except Mismatch as exc:
        print(f"not a declared number update: {exc}")
        return 1
    for line in changes:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
