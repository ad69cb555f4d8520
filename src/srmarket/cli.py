"""Configuration-driven batch surface: axiom suites, scripted trading
sessions, cost extraction, and figure data emission.

Configs are single JSON documents (nested key-value plus arrays).  Reports
carry a human-readable header with the config hash and tool version,
followed by machine-readable witness blocks; identical config + seed
produces byte-identical files.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import traceback
from importlib import resources

import numpy as np

from . import __version__
from .axioms import (
    AXIOMS,
    SearchConfig,
    btb_budgets,
    btb_candidates,
    build_belief,
    exhaustive_triples,
)
from .contracts import IDENTITY, SIGMOID, PayoffOverflow
from .convex import binary_lmsr_cost, quadratic
from .costmarket import extract_cost_market, roundtrip_residual
from .engine import MarketSession
from .reports import HOLDS, HOLDS_AT_BUDGET
from .schema import (
    MARKET,
    ConfigError,
    build,
    built,
    check,
    figure_values,
    validate,
)
from .scoring import ExpectationRule, FiniteReports, ModeRule, QuantileRule


# ---------------------------------------------------------------------------
# builders: each reads a block that ``schema.validate`` has checked


def build_rule(spec) -> object:
    """The rule a ``market`` block describes; a block off the schema, or a
    value the rule's constructor rejects, is a config error."""
    check(MARKET, spec, "the market block")
    return build(MARKET, spec)


def build_search(spec: dict | None, seed=None) -> SearchConfig:
    spec = {k: tuple(v) if isinstance(v, list) else v
            for k, v in (spec or {}).items() if k != "exhaustive_scenarios"}
    if seed is not None:
        spec["seed"] = seed
    return SearchConfig(**spec)


# ---------------------------------------------------------------------------
# orchestration


def _canonical(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(_canonical(config).encode()).hexdigest()[:16]


def _header(config: dict) -> str:
    return (f"# tool: srmarket {__version__}\n"
            f"# config: {config.get('name', 'unnamed')}\n"
            f"# config_sha256: {config_hash(config)}\n")


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _market(config: dict):
    """The rule of a config's market block, once r0 lies in its reports."""
    rule = build_rule(config["market"])
    if "r0" in config:
        built(f"r0 {config['r0']!r}", rule.validate_report, config["r0"])
    return rule


def _verdict_matches(expected: str, actual: str) -> bool:
    if expected == "holds":
        return actual in (HOLDS, HOLDS_AT_BUDGET)
    return expected == actual


def _given(config: dict, rule) -> dict:
    """The values a check config gives its axioms, built (see
    ``axioms.AXIOMS``), once each axiom it runs applies to the market."""
    given = {key: config[key] for key in ("r0", "price_bound_trials")
             if key in config}
    space = rule.outcome_space
    if "ic_beliefs" in config:
        given["ic_beliefs"] = [built("ic_beliefs", build_belief, b, space)
                               for b in config["ic_beliefs"]]
    if "btb" in config:
        btb = config["btb"]
        belief = built("btb", build_belief, btb["belief"], space)
        built("btb", btb_candidates, rule, belief, btb["state"])
        epsilons = built("btb", btb_budgets, btb.get("epsilons"))
        given["btb"] = (belief, btb["state"], epsilons)
    if config.get("search", {}).get("exhaustive_scenarios") and \
            isinstance(rule.report_space, FiniteReports):
        given["scenarios"] = exhaustive_triples(list(rule.report_space.labels))
    for axiom in config["axioms"]:
        if AXIOMS[axiom].applies is not None:
            built(axiom, AXIOMS[axiom].applies, rule)
    return given


def run_check(config: dict, out_dir: str) -> int:
    validate(config, "check")
    rule = _market(config)
    cfg = built("search", build_search, config.get("search"), config.get("seed"))
    built("search", cfg.report_grid, rule)
    given = _given(config, rule)
    name = config.get("name", "check")

    verdicts = {}
    for axiom in config["axioms"]:
        rep = AXIOMS[axiom].check(rule, given, cfg)
        verdicts[axiom] = rep.verdict
        _write(os.path.join(out_dir, f"{name}__{axiom}.report.txt"),
               _header(config) + rep.to_text())
    summary = {"name": name, "config_sha256": config_hash(config),
               "version": __version__, "verdicts": verdicts}
    _write(os.path.join(out_dir, f"{name}__summary.json"),
           json.dumps(summary, indent=2, sort_keys=True) + "\n")

    expected = config.get("expected", {})
    bad = {a: (expected[a], verdicts[a]) for a in expected
           if not _verdict_matches(expected[a], verdicts[a])}
    if bad:
        for a, (want, got) in sorted(bad.items()):
            print(f"{name}: {a} expected {want}, got {got}", file=sys.stderr)
        return 1
    return 0


def run_session(config: dict, out_dir: str) -> int:
    validate(config, "session")
    rule = _market(config)
    name = config.get("name", "session")
    traders = config.get("traders", [])
    beliefs = [built(f"the belief of trader {t['id']!r}", build_belief,
                     t["belief"], rule.outcome_space) for t in traders]
    outcome = config.get("outcome")
    if outcome is not None:
        built("outcome", rule.outcome_space.validate, outcome)
    session = MarketSession(rule, config["r0"])
    for trader, belief in zip(traders, beliefs):
        session.execute_trade(trader["id"], rule.best_response(belief))
    lines = [_header(config)]
    lines.append("ledger:")
    lines.extend(session.ledger_lines())
    if outcome is not None:
        st = session.settle(outcome)
        lines.append("settlement:")
        lines.append(json.dumps({
            "outcome": st.outcome,
            "payoffs": [[t, v] for t, v in st.payoffs],
            "maker_loss": st.maker_loss,
            "telescoped_loss": st.telescoped_loss,
        }, sort_keys=True))
    wcl = session.worst_case_loss()
    lines.append(f"worst_case_loss: {wcl!r}")
    if len(session.records) >= 2:
        pi = session.verify_path_independence()
        lines.append(f"path_independence: {pi.verdict} (margin {pi.margin!r})")
    _write(os.path.join(out_dir, f"{name}__session.txt"),
           "\n".join(lines) + "\n")
    return 0


def run_extract(config: dict, out_dir: str) -> int:
    validate(config, "extract")
    rule = _market(config)
    name = config.get("name", "extract")
    grid = config.get("grid") or rule.report_grid()
    if isinstance(grid, dict):
        grid = [float(v) for v in np.linspace(grid["lo"], grid["hi"], grid["num"])]
    # extraction reads the grid's score table: a finite outcome space, two
    # distinct reports, and reports in the report space
    ext = built("the extract grid", extract_cost_market, rule, grid)
    lines = [_header(config)]
    lines.append(f"ok: {ext.ok}")
    lines.append(f"failure_step: {ext.failure_step}")
    lines.append(f"k: {ext.k}")
    if ext.phi is not None:
        lines.append("phi:")
        for row in ext.phi:
            lines.append("  " + " ".join(f"{v:.17g}" for v in row))
    if ext.shares is not None:
        lines.append("shares (one row per report: report, v, cost):")
        for r, v, c in zip(ext.reports, ext.shares, ext.cost_values):
            vtxt = " ".join(f"{x:.17g}" for x in v)
            lines.append(f"  {r!r} {vtxt} {c:.17g}")
        lines.append(f"solve_residual: {ext.solve_residual!r}")
        lines.append(f"roundtrip_residual: {roundtrip_residual(rule, ext)!r}")
        lines.append(f"convexity_gap: {ext.convexity_gap!r}")
    lines.append("witness:")
    lines.append(json.dumps(ext.witness, indent=2, sort_keys=True, default=str))
    _write(os.path.join(out_dir, f"{name}__extract.txt"), "\n".join(lines) + "\n")

    expect_failure = config.get("expect_failure")
    if expect_failure is not None:
        return 0 if ext.failure_step == expect_failure else 1
    return 0 if ext.ok else 1


# ---------------------------------------------------------------------------
# figure data


def _dat(path: str, config: dict, columns: list[str], rows) -> None:
    lines = [_header(config).rstrip("\n")]
    lines.append("# columns: " + " ".join(columns))
    for row in rows:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    _write(path, "\n".join(lines) + "\n")


def run_figure(config: dict, out_dir: str) -> int:
    validate(config, "figure")
    which = config["figure"]
    v = figure_values(config)
    if which == "mode_position":
        rule = built("outcomes", ModeRule, v["outcomes"])
        r_a, r_b, (r_from, r_to) = v["r_left"], v["r_center"], v["trade"]
        for key, r in (("r_left", r_a), ("r_center", r_b), ("trade", r_from),
                       ("trade", r_to)):
            built(key, rule.validate_report, r)
        d = rule.trade_contract(r_from, r_to)
        rows = [[y, rule.score(r_a, y), rule.score(r_b, y), d(y)]
                for y in rule.outcome_space.labels]
        cols = ["y", f"S({r_a},y)", f"S({r_b},y)", f"F({r_to},y|{r_from})"]
    elif which == "mean_position":
        rule = ExpectationRule(quadratic(1))
        r, rp = v["trade"]
        r2 = v["state"]
        picks = v["contracts"]
        r2p = rule.matched_candidates([([(r, rp)], r2)])[0]
        built("trade and state", rule.validate_report, r2p)
        held = rule.trade_contract(r, rp)
        neut = rule.trade_contract(r2, r2p)
        trades = [rule.trade_contract(r2, c) for c in picks]
        ys = np.linspace(*v["window"], v["points"])
        rows = [[y, held(y), *(d(y) for d in trades), held(y) + neut(y)]
                for y in ys]
        cols = ["y", f"F({rp},y|{r})"] + \
            [f"F({c},y|{r2})" for c in picks] + ["neutralized"]
    elif which == "median_position":
        rid = built("alpha", QuantileRule, v["alpha"], IDENTITY)
        rsig = QuantileRule(v["alpha"], SIGMOID)
        r, rp = v["trade"]
        r1, r1p, r2, r2p = v["scenario"]
        held = rid.trade_contract(r1, r1p)
        green = rid.trade_contract(r2, r2p)
        plotted = [rid.score_contract(r), rid.score_contract(rp),
                   rid.trade_contract(r, rp), rsig.trade_contract(r, rp),
                   held, green]
        ys = np.linspace(*v["window"], v["points"])
        rows = [[y, *(d(y) for d in plotted), held(y) + green(y)] for y in ys]
        cols = ["y", f"S({r},y)", f"S({rp},y)", "F_identity", "F_sigmoid",
                "held", "candidate", "net"]
    else:  # discretized_lmsr
        cost = binary_lmsr_cost()
        rows = [[q, cost.value([q]), cost.grad([q])[0]]
                for q in range(-v["bound"], v["bound"] + 1)]
        cols = ["q", "C(q)", "price"]
    name = config.get("name", which)
    _dat(os.path.join(out_dir, f"{name}.dat"), config, cols, rows)
    return 0


# ---------------------------------------------------------------------------
# entry point


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path_or_name: str) -> dict:
    if os.path.exists(path_or_name):
        config = _read_json(path_or_name)
    else:
        bundle = resources.files("srmarket") / "configs" / f"{path_or_name}.json"
        if not bundle.is_file():
            raise ConfigError(
                f"no config file or bundled config named {path_or_name!r}")
        config = json.loads(bundle.read_text())
    if not isinstance(config, dict):
        raise ConfigError("a config must be a JSON object")
    return config


def bundled_config_names() -> list[str]:
    base = resources.files("srmarket") / "configs"
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="srmarket",
        description="scoring-rule market toolkit: axiom checks, sessions, "
                    "cost extraction, figure data")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("check", "session", "extract", "figure"):
        p = sub.add_parser(cmd)
        p.add_argument("--config", required=True,
                       help="config path or bundled config name")
        p.add_argument("--out", default="out", help="output directory")
        # each command offers only the flags it reads
        if cmd == "check":
            p.add_argument("--seed", type=int, default=None,
                           help="overrides the config seed")
            p.add_argument("--expect", default=None,
                           help="golden verdict JSON file")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    run = {"check": run_check, "session": run_session, "extract": run_extract,
           "figure": run_figure}[args.command]
    try:
        config = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            config["seed"] = args.seed
        if getattr(args, "expect", None):
            overrides = _read_json(args.expect)
            expected = config.get("expected", {})
            if not (isinstance(overrides, dict) and isinstance(expected, dict)):
                raise ConfigError("'expected' and --expect must be JSON objects")
            config["expected"] = {**expected, **overrides}
        # an overflow is reported once, as PayoffOverflow, not by numpy too
        with np.errstate(over="ignore"):
            return run(config, args.out)
    except (ConfigError, PayoffOverflow) as exc:  # overflow: config's fault
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of srmarket, not of the config
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
