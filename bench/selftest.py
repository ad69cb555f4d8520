"""Self-test of the benchmark's checks: each one passes on real outputs and
rejects a perturbed copy, and a run that checked nothing does not pass.

    python3 bench/selftest.py

Exits 0 when every perturbation was caught.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import sys

from run import OUT, load_library

SEED = 7


def failures_of(wl, outputs) -> list:
    import workloads
    ck = workloads.Checker()
    if hasattr(wl, "reference"):
        wl.reference = None
    wl.check(outputs, ck)
    assert ck.count > 0, "check ran no assertions"
    return ck.failures


def _shift(files, fname, pick, column, offset=1e-6):
    """Copy of files with one number of one text line moved by offset;
    pick selects the line index from the file's lines."""
    out = dict(files)
    lines = out[fname].decode().splitlines()
    i = pick(lines)
    cols = lines[i].split()
    cols[column] = repr(float(cols[column]) + offset)
    lines[i] = ("  " if lines[i].startswith("  ") else "") + " ".join(cols)
    out[fname] = ("\n".join(lines) + "\n").encode()
    return out


def config_suite_cases(outputs):
    files, replays = outputs
    summary = json.loads(files["mode_market__summary.json"])
    summary["verdicts"]["WN"] = "holds"
    flipped = dict(files)
    flipped["mode_market__summary.json"] = json.dumps(summary).encode()
    yield "verdict differs from the paper", (flipped, replays)
    yield "figure column off by 1e-6", (_shift(
        files, "fig_discretized_lmsr.dat",
        lambda lines: [i for i, l in enumerate(lines) if not l.startswith("#")][6],
        1), replays)
    yield "extracted cost off by 1e-6", (_shift(
        files, "extract_entropy__extract.txt",
        lambda lines: [i for i, l in enumerate(lines) if l.startswith("shares")][0] + 5,
        2), replays)
    wrong_step = dict(files)
    fname = "extract_mode__extract.txt"
    wrong_step[fname] = files[fname].replace(b"failure_step: subgroup",
                                             b"failure_step: convexity")
    yield "extraction fails at the wrong step", (wrong_step, replays)
    rejected = dict(replays, quantile_sigmoid__WN="rejected: WN candidate improves")
    yield "a fails witness that does not replay", (files, rejected)
    missing = {k: v for k, v in replays.items() if k != "ratio_market__TN"}
    yield "a fails witness left unreplayed", (files, missing)
    shifted = dict(replays, mean_unbounded__WCL=replays["mean_unbounded__WCL"] * 1.01)
    yield "replayed WCL margin differs from the report", (files, shifted)


def long_session_cases(outputs):
    fields = ("session", "executed", "wcl", "settles", "pi", "replayed")

    def with_ledger(i, **changes):
        out = list(outputs)
        parts = dict(zip(fields, out[i]), **changes)
        out[i] = tuple(parts[f] for f in fields)
        return out

    for i, name in ((0, "quantile_sigmoid"), (2, "lmsr_cost"), (3, "ratio")):
        session, executed, wcl, settles, pi, replayed = outputs[i]
        settles = list(settles)
        settles[1] = dataclasses.replace(settles[1],
                                         maker_loss=settles[1].maker_loss + 1e-6)
        yield f"{name}: settlement off by 1e-6", with_ledger(i, settles=settles)
        yield f"{name}: worst-case loss off by 1e-6", with_ledger(i, wcl=wcl + 1e-6)
    yield "expectile: finite worst-case loss", with_ledger(1, wcl=1e6)
    yield "a trade missing from the ledger", with_ledger(
        3, executed=outputs[3][1] + [1.5])
    pi = dataclasses.replace(outputs[0][4], margin=1e-9)
    yield "path independence margin 1e-9", with_ledger(0, pi=pi)
    lines, again = outputs[2][5]
    again = copy.copy(again)
    again.records = again.records[:-1]
    yield "replay drops a trade", with_ledger(2, replayed=(lines, again))


def elicitation_cases(outputs):
    def with_result(f, j, br=None, pv=None):
        out = [list(got) for got in outputs]
        old_br, old_pv = out[f][j]
        out[f][j] = (old_br if br is None else br, old_pv if pv is None else pv)
        return out

    mode_want = outputs[0][0][0]
    other = 1 if mode_want != 1 else 2
    yield "mode best_response", with_result(0, 0, br=other)
    yield "mode property", with_result(0, 0, pv=(other,))
    for f, name in ((1, "ratio"), (2, "entropy_expectation"), (3, "mean"),
                    (4, "quantile"), (5, "quantile_sigmoid"), (6, "expectile")):
        br, pv = outputs[f][0]
        yield f"{name} best_response off by 1e-5", with_result(f, 0, br=br + 1e-5)
        yield f"{name} property_value off by 1e-5", with_result(f, 0, pv=pv + 1e-5)


def main() -> int:
    sm = load_library()
    import workloads
    missed = []
    cases = {"config_suite": config_suite_cases, "long_session": long_session_cases,
             "elicitation": elicitation_cases}
    scratch = OUT / "selftest"
    try:
        for name, make_cases in cases.items():
            wl = workloads.WORKLOADS[name](sm, SEED, str(scratch))
            res = wl.run_pass()
            clean = failures_of(wl, res.outputs)
            if clean or res.failed:
                print(f"{name}: real outputs rejected: {clean[:3]}")
                return 1
            for label, bad in make_cases(res.outputs):
                caught = bool(failures_of(wl, bad))
                print(f"{name}: {label}: {'caught' if caught else 'MISSED'}")
                if not caught:
                    missed.append(f"{name}: {label}")
            if name == "config_suite":
                wl.reference = None
                wl.check(res.outputs, workloads.Checker())
                files, replays = res.outputs
                second = dict(files)
                second["lmsr_open__TN.report.txt"] += b" "
                ck = workloads.Checker()
                wl.check((second, replays), ck)
                caught = bool(ck.failures)
                print(f"{name}: second pass writes different bytes: "
                      f"{'caught' if caught else 'MISSED'}")
                if not caught:
                    missed.append(f"{name}: byte identity")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    empty = workloads.Checker()
    print(f"a run that checked nothing: {'fails' if not empty.passed else 'PASSES'}")
    if empty.passed:
        missed.append("empty run passes")
    print("self-test:", "all perturbations caught" if not missed else f"missed {missed}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
