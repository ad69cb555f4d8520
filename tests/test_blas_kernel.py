"""Finite expected scores do not depend on the BLAS kernel.

OpenBLAS picks its dot-product kernel by the CPU it detects, and kernels
order and fuse the products differently, so ``np.dot`` of one pair of
vectors may differ in its last bits from host to host.  Every finite E_p of
the package sums in the order of the outcomes instead (``_dots`` over a
table, ``ordered_dot`` in Python floats for one row).  Here a subprocess
reruns ``expected_score``, ``grid_scores``, ``expected_payoff`` and
``best_response`` on the named finite rules, and the ratio market's session
report, under another ``OPENBLAS_CORETYPE``; every bit must equal this
process's.  Where the other kernel's ``np.dot`` rounds as this process's
does on fixed vectors, the comparison would show nothing, and the test
skips."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import srmarket

TESTS = Path(__file__).resolve().parent

CHILD = """\
import json
import test_blas_kernel as t
print(json.dumps({"dot": t.dot_probe(), "scores": t.fingerprint()}))
"""


def dot_probe() -> str:
    """``np.dot`` of 200 fixed pairs of 3-vectors, as the hex of its bytes:
    about a third of such dots differ between two OpenBLAS kernels."""
    a, b = np.random.default_rng(0).normal(size=(2, 200, 3))
    return np.array([np.dot(x, y) for x, y in zip(a, b)]).tobytes().hex()


def fingerprint() -> dict:
    """Per named finite rule, the bits of each E_p reader and of the best
    response on three seeded beliefs; and the ratio session's report."""
    from test_cli import RATIO_SESSION_CONFIG
    from test_stack_scores import NAMED_FINITE_RULES

    from srmarket.axioms import random_beliefs_for
    from srmarket.cli import run_session
    from srmarket.contracts import expected_payoff

    out = {}
    for i, rule in enumerate(NAMED_FINITE_RULES):
        reports = rule.report_grid(9)
        vals = []
        for p in random_beliefs_for(rule, np.random.default_rng(i), 3):
            vals += [rule.expected_score(r, p) for r in reports]
            vals += rule.grid_scores(reports, p)
            vals += [expected_payoff(rule.score_contract(r), p) for r in reports]
            vals += np.ravel(rule.best_response(p)).tolist()
        out[f"{i}-{rule.family}"] = np.array(vals, dtype=float).tobytes().hex()
    with tempfile.TemporaryDirectory() as out_dir:
        assert run_session(RATIO_SESSION_CONFIG, out_dir) == 0
        out["ratio_session"] = Path(out_dir, "ratio_session__session.txt").read_text()
    return out


@pytest.mark.parametrize("kernel", ["Prescott", "Haswell"])
def test_finite_scores_do_not_depend_on_the_blas_kernel(kernel):
    path = os.pathsep.join([str(TESTS), str(Path(srmarket.__file__).parents[1])])
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, "-c", CHILD], env=env, cwd=TESTS,
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    if got["dot"] == dot_probe():
        pytest.skip(f"np.dot under OPENBLAS_CORETYPE={kernel} rounds as this "
                    "process's does: numpy links no OpenBLAS, or this process "
                    "runs that kernel already")
    assert got["scores"] == fingerprint()
