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
skips.

numpy also picks its SIMD loops of ``exp`` and ``log`` by the CPU it
detects, and they round differently.  ``log_partition`` takes its
exponentials through libm, so a cost market's values, gradients and session
do not depend on them either: a subprocess with numpy's AVX-512 loops
switched off (``NPY_DISABLE_CPU_FEATURES``) must give the same bits, and
the test skips where that leaves ``np.exp`` as it was."""

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


# numpy's AVX-512 feature groups; a name a host lacks is ignored
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

DISPATCH_CHILD = """\
import json
import test_blas_kernel as t
print(json.dumps({"exp": t.exp_probe(), "costs": t.cost_fingerprint()}))
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


def exp_probe() -> str:
    """``np.exp`` of 200 fixed numbers, as the hex of its bytes: numpy's
    AVX-512 and AVX2 loops round a few of them differently."""
    x = np.random.default_rng(0).uniform(-5.0, 5.0, 200)
    return np.exp(x).tobytes().hex()


def cost_fingerprint() -> dict:
    """The bits of ``log_partition``'s four forms on seeded states, for the
    binary LMSR cost and a three-outcome phi; and of a seeded 300-trade
    binary-LMSR session: each contract, the held score, the replayed
    contracts and the ledger lines."""
    from srmarket.convex import binary_lmsr_cost, log_partition
    from srmarket.costmarket import binary_lmsr_rule
    from srmarket.engine import MarketSession

    rng = np.random.default_rng(7)
    out = {}
    phi3 = [[0.3, -1.2], [2.5, 0.7], [-0.4, 1.9]]
    for name, fn in (("binary", binary_lmsr_cost()), ("three", log_partition(phi3))):
        qs = rng.uniform(-30.0, 30.0, size=(200, fn.dim))
        vals = [fn.values(qs), fn.grads(qs), [fn.value(q) for q in qs],
                [fn.grad(q) for q in qs]]
        out[name] = np.concatenate([np.ravel(v) for v in vals]).tobytes().hex()
    rule = binary_lmsr_rule()
    session = MarketSession(rule, 0.0)
    for i, q in enumerate(rng.uniform(-20.0, 20.0, 300).tolist()):
        session.execute_trade(f"t{i % 7}", q)
    lines = session.ledger_lines()
    replayed = MarketSession.replay(rule, 0.0, lines)
    contracts = [rec.contract.values for rec in session.records + replayed.records]
    out["session"] = np.concatenate(contracts + [session._held]).tobytes().hex()
    out["ledger"] = lines
    return out


def run_child(code: str, **env) -> dict:
    """The JSON that code prints in a subprocess that imports this module
    and srmarket's sources, with env added to this process's environment."""
    path = os.pathsep.join([str(TESTS), str(Path(srmarket.__file__).parents[1])])
    child = subprocess.run([sys.executable, "-c", code],
                           env={**os.environ, **env, "PYTHONPATH": path}, cwd=TESTS,
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_cost_markets_do_not_depend_on_numpy_simd_dispatch():
    got = run_child(DISPATCH_CHILD, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    if got["exp"] == exp_probe():
        pytest.skip(f"np.exp under NPY_DISABLE_CPU_FEATURES={NO_AVX512!r} rounds "
                    "as this process's does: this host has no AVX-512, or "
                    "this process runs without it already")
    assert got["costs"] == cost_fingerprint()


@pytest.mark.parametrize("kernel", ["Prescott", "Haswell"])
def test_finite_scores_do_not_depend_on_the_blas_kernel(kernel):
    got = run_child(CHILD, OPENBLAS_CORETYPE=kernel)
    if got["dot"] == dot_probe():
        pytest.skip(f"np.dot under OPENBLAS_CORETYPE={kernel} rounds as this "
                    "process's does: numpy links no OpenBLAS, or this process "
                    "runs that kernel already")
    assert got["scores"] == fingerprint()
