"""Measures the reference figures quoted in README.md, each repeated, and
prints the median with the range over the repeats.

    python3 bench/figures.py

Takes about a minute.  Not part of a benchmark run.
"""
from __future__ import annotations

import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

from run import OUT, ROOT, load_library

REPEATS = 5


def timed(fn, repeats=REPEATS) -> list:
    out = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        out.append(perf_counter() - t0)
    return out


def show(label: str, values: list, scale: float = 1.0, unit: str = "s") -> None:
    vals = [v * scale for v in values]
    print(f"{label:58s} median {statistics.median(vals):9.3f} {unit}  "
          f"range {min(vals):.3f}-{max(vals):.3f}  (n={len(vals)})")


def main() -> int:
    sm = load_library()
    from srmarket import cli
    from srmarket.contracts import SIGMOID
    out = str(OUT / "figures")

    probe = ("import time, sys; sys.path.insert(0, 'src'); import srmarket; "
             "t = time.perf_counter(); import scipy.optimize; "
             "print(time.perf_counter() - t)")
    cold = [float(subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                                 capture_output=True, text=True).stdout)
            for _ in range(REPEATS)]
    show("scipy.optimize import in a fresh interpreter", cold)
    cli.main(["extract", "--config", "extract_entropy", "--out", out])
    show("warm extract_entropy through cli.main", timed(
        lambda: cli.main(["extract", "--config", "extract_entropy", "--out", out])),
        1e3, "ms")

    checks = [n for n in cli.bundled_config_names() if "axioms" in cli.load_config(n)]

    def check_pass(seed=None) -> bool:
        """True when every config's verdicts match its expected ones."""
        codes = [cli.main(["check", "--config", name, "--out", out] +
                          (["--seed", str(seed)] if seed is not None else []))
                 for name in checks]
        return not any(codes)

    show("all bundled check configs, bundled seeds", timed(check_pass))
    for seed in (1, 2, 3, 101, 202):
        show(f"all bundled check configs, search seed {seed}",
             timed(lambda: check_pass(seed), 3))
        print(f"{'':58s} verdicts as expected: {check_pass(seed)}")

    rng = np.random.default_rng(0)
    rule = sm.QuantileRule(0.3, SIGMOID)
    for n in (200, 400, 800):
        session = sm.open_session(rule, 0.0)
        for r in rng.normal(0.0, 2.0, n):
            session.execute_trade("t", float(r))
        show(f"worst_case_loss, sigmoid quantile ledger of {n} trades",
             timed(session.worst_case_loss, 3), 1e3, "ms")

    qrule = sm.QuantileRule(0.5)
    blocks = [t / 1000 for t in timed(
        lambda: [qrule.trade_contract(-1.0, 1.0) for _ in range(1000)], 10)]
    show("trade_contract, identity quantile (blocks of 1000 calls)",
         blocks, 1e6, "us")

    belief = sm.cdf_belief([-1.0, 0.0, 0.5, 2.0], [0.0, 0.3, 0.7, 1.0])
    pmf = sm.finite_belief(sm.OutcomeSpace.finite([0, 1]), [0.3, 0.7])
    ent = sm.ExpectationRule(sm.binary_negentropy(), phi=[[0.0], [1.0]])
    for label, rule, p in (
            ("best_response, sigmoid quantile (real line)", rule, belief),
            ("best_response, expectile (real line)", sm.ExpectileRule(0.3), belief),
            ("best_response, binary entropy expectation (1-D finite)", ent, pmf)):
        rule.best_response(p)
        show(label, timed(lambda: rule.best_response(p), 20), 1e3, "ms")
    shutil.rmtree(out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
