"""Every bundled config's report files, pinned by their SHA-256.

Each bundled config runs through ``srmarket.cli.main`` with the command its
keys select (``figure``, ``extract`` for a ``grid``, ``check`` for
``axioms``, else ``session``), and every file it writes must hash to the
entry of ``tests/data/bundled_reports.sha256``.  A change that means to keep
the reports byte-identical is held to that here.  A change that means to
alter a report regenerates the manifest from the repository root with

    PYTHONPATH=src python tests/test_bundled_reports.py > tests/data/bundled_reports.sha256

and says which files changed and why.  For a change that only moves
numbers in their last digits, ``tests/report_diff.py OLD_DIR NEW_DIR`` runs
on the report files of the parent commit and of the change (each written by
``report_hashes``, or by ``srmarket`` with ``--out``): it checks that
verdicts, witness keys and budgets stay equal and every changed number
within the replay tolerance, and prints each change.  The hashes hold for the Python and
numpy the manifest was made with; a platform whose libm rounds ``exp`` or
``log`` differently in the last bit may differ.
"""

import hashlib
import os
import sys
import tempfile

import pytest
import report_diff

from srmarket.cli import bundled_config_names, load_config, main
from srmarket.reports import HOLDS_AT_BUDGET, AxiomReport

MANIFEST = os.path.join(os.path.dirname(__file__), "data",
                        "bundled_reports.sha256")


def _command(config: dict) -> str:
    if "figure" in config:
        return "figure"
    if "grid" in config:
        return "extract"
    if "axioms" in config:
        return "check"
    return "session"


def report_hashes(out_dir: str) -> dict:
    """Run every bundled config into out_dir; file name -> SHA-256."""
    for name in bundled_config_names():
        cmd = _command(load_config(name))
        code = main([cmd, "--config", name, "--out", out_dir])
        assert code == 0, f"{cmd} {name} exited {code}"
    return {fn: hashlib.sha256(open(os.path.join(out_dir, fn), "rb").read())
            .hexdigest()
            for fn in sorted(os.listdir(out_dir))}


def manifest_text(hashes: dict) -> str:
    return "".join(f"{h}  {fn}\n" for fn, h in hashes.items())


def test_bundled_reports_match_manifest(tmp_path):
    with open(MANIFEST) as fh:
        expected = dict(line.split()[::-1] for line in fh if line.strip())
    actual = report_hashes(str(tmp_path))
    assert len(actual) == 59
    assert sorted(actual) == sorted(expected)
    changed = [fn for fn in actual if actual[fn] != expected[fn]]
    assert changed == []


def _report(margin=0.25, verdict=HOLDS_AT_BUDGET, witness=None, budget=None):
    return AxiomReport("WN", verdict, margin, witness or {"inf": [1.0, -2.0]},
                       budget or {"scenarios": 200}).to_text()


@pytest.mark.parametrize("new", [
    _report(verdict="fails"),
    _report(budget={"scenarios": 201}),
    _report(budget={"scenarios": 200.0 + 1e-10}),
    _report(budget={"portfolios": 200}),
    _report(witness={"inf": [1.0, -2.001]}),
    _report(witness={"inf": [1.0]}),
    _report(witness={"sup": [1.0, -2.0]}),
    _report(margin=0.2500001),
])
def test_report_diff_refuses_more_than_a_number_update(new):
    with pytest.raises(report_diff.Mismatch):
        report_diff.compare_file("x__WN.report.txt", _report(), new)


def test_report_diff_lists_each_changed_number(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    files = {"a__WN.report.txt": (_report(), _report(
                 margin=0.25 + 1e-12, witness={"inf": [1.0, -2.0 - 1e-10]})),
             "a.dat": ("# y F\n-3 2.5 k1\n", "# y F\n-3 2.5000000001 k1\n"),
             "a__summary.json": ('{"WN": "holds"}', '{"WN": "holds"}')}
    for name, (a, b) in files.items():
        (old / name).write_text(a)
        (new / name).write_text(b)
    assert report_diff.compare_dirs(str(old), str(new)) == [
        "a.dat: line[1][3]: 2.5 -> 2.5000000001",
        "a__WN.report.txt: margin: 0.25 -> 0.250000000001",
        "a__WN.report.txt: witness.inf[1]: -2.0 -> -2.0000000001",
    ]
    (new / "a.dat").write_text("# y G\n-3 2.5 k1\n")
    with pytest.raises(report_diff.Mismatch):
        report_diff.compare_dirs(str(old), str(new))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        sys.stdout.write(manifest_text(report_hashes(d)))
