"""Every bundled config's report files, pinned by their SHA-256.

Each bundled config runs through ``srmarket.cli.main`` with the command its
keys select (``figure``, ``extract`` for a ``grid``, ``check`` for
``axioms``, else ``session``), and every file it writes must hash to the
entry of ``tests/data/bundled_reports.sha256``.  A change that means to keep
the reports byte-identical is held to that here.  A change that means to
alter a report regenerates the manifest from the repository root with

    PYTHONPATH=src python tests/test_bundled_reports.py > tests/data/bundled_reports.sha256

and says which files changed and why.  The hashes hold for the Python and
numpy the manifest was made with; a platform whose libm rounds ``exp`` or
``log`` differently in the last bit may differ.
"""

import hashlib
import os
import sys
import tempfile

from srmarket.cli import bundled_config_names, load_config, main

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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        sys.stdout.write(manifest_text(report_hashes(d)))
