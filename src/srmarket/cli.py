"""Configuration-driven batch surface: axiom suites, scripted trading
sessions, cost extraction, and figure data emission.

Configs are single JSON documents (nested key-value plus arrays).  Reports
carry a human-readable header with the config hash and tool version,
followed by machine-readable witness blocks; identical config + seed
produces byte-identical files.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import traceback
from dataclasses import fields
from importlib import resources

import numpy as np

from . import __version__
from .axioms import AXIOMS, ConfigError, SearchConfig, build_belief, config_block
from .contracts import IDENTITY, SIGMOID, OutcomeSpace
from .convex import (
    binary_lmsr_cost,
    binary_negentropy,
    interval_negentropy,
    log_partition,
    quadratic,
    simplex_negentropy,
)
from .costmarket import (
    CostRule,
    ShareSpace,
    extract_cost_market,
    roundtrip_residual,
)
from .engine import MarketSession
from .reports import HOLDS, HOLDS_AT_BUDGET
from .scoring import (
    ExpectationRule,
    ExpectileRule,
    FiniteRule,
    ModeRule,
    QuantileRule,
    RatioRule,
)

# top-level keys of each command's configs; a check config also takes the
# needs of the axioms it runs
CHECK_KEYS = ("name", "seed", "market", "r0", "axioms", "expected", "search")
SESSION_KEYS = ("name", "seed", "market", "r0", "traders", "outcome")
EXTRACT_KEYS = ("name", "market", "grid", "expect_failure")
# each family's market keys beside "family": (required, optional)
FAMILY_KEYS = {
    "mode": (("outcomes",), ()),
    "finite": (("outcomes", "matrix"), ("reports",)),
    "weighted_mode": (("outcomes", "weights"), ()),
    "expectation": (("potential",), ("phi", "outcomes")),
    "quantile": (("alpha",), ("transform",)),
    "expectile": (("tau",), ("g_coeffs",)),
    "ratio": (("potential", "phi", "b"), ("outcomes",)),
    "cost": (("cost", "phi"), ("outcomes", "shares", "conjugate_closure")),
}


# ---------------------------------------------------------------------------
# builders


def build_transform(name: str):
    if name in (None, "identity"):
        return IDENTITY
    if name == "sigmoid":
        return SIGMOID
    raise ConfigError(f"unknown transform {name!r}")


def build_potential(spec: dict):
    name = spec.get("name")
    if name == "quadratic":
        return quadratic(spec.get("dim", 1), spec.get("lo"), spec.get("hi"))
    if name == "binary_negentropy":
        return binary_negentropy()
    if name == "interval_negentropy":
        return interval_negentropy(spec["lo"], spec["hi"])
    if name == "simplex_negentropy":
        return simplex_negentropy(spec["k"])
    if name == "log_partition":
        return log_partition(np.asarray(spec["phi"], dtype=float))
    if name == "binary_lmsr":
        return binary_lmsr_cost()
    raise ConfigError(f"unknown potential {name!r}")


def build_shares(spec):
    if spec in (None, "full"):
        return ShareSpace.full()
    if isinstance(spec, dict) and "lattice_scale" in spec:
        return ShareSpace.integer_lattice(spec.get("k", 1),
                                          spec["lattice_scale"])
    if isinstance(spec, dict) and "basis" in spec:
        return ShareSpace.lattice(spec["basis"])
    raise ConfigError(f"unknown share space {spec!r}")


def build_rule(spec: dict):
    """The rule a ``market`` block describes; a value its constructor
    rejects is a config error."""
    try:
        return _build_rule(spec)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"market {spec.get('family')!r} has no {exc} entry") \
            from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"market {spec.get('family')!r}: {exc}") from exc


def _build_rule(spec: dict):
    family = spec.get("family")
    if family not in FAMILY_KEYS:
        raise ConfigError(f"unknown family {family!r}")
    required, optional = FAMILY_KEYS[family]
    config_block(spec, f"market {family!r}", ("family",) + required, optional)
    if family == "mode":
        return ModeRule(spec["outcomes"])
    if family == "finite":
        space = OutcomeSpace.finite(spec["outcomes"])
        return FiniteRule(np.asarray(spec["matrix"], dtype=float), space,
                          spec.get("reports"))
    if family == "weighted_mode":
        return FiniteRule.weighted_mode(spec["outcomes"], spec["weights"])
    if family == "expectation":
        pot = build_potential(spec["potential"])
        phi = spec.get("phi")
        if phi is None:
            return ExpectationRule(pot)
        space = OutcomeSpace.finite(spec["outcomes"]) \
            if "outcomes" in spec else None
        return ExpectationRule(pot, np.asarray(phi, dtype=float), space)
    if family == "quantile":
        return QuantileRule(spec["alpha"], build_transform(spec.get("transform")))
    if family == "expectile":
        return ExpectileRule(spec["tau"],
                             tuple(spec.get("g_coeffs", (0.0, 0.0, 1.0))))
    if family == "ratio":
        space = OutcomeSpace.finite(spec["outcomes"]) \
            if "outcomes" in spec else None
        return RatioRule(build_potential(spec["potential"]),
                         np.asarray(spec["phi"], dtype=float),
                         np.asarray(spec["b"], dtype=float), space)
    space = OutcomeSpace.finite(spec["outcomes"]) if "outcomes" in spec else None
    return CostRule(build_potential(spec["cost"]),
                    np.asarray(spec["phi"], dtype=float), space,
                    build_shares(spec.get("shares")),
                    spec.get("conjugate_closure"))


def build_search(spec: dict | None, seed=None) -> SearchConfig:
    keys = ("exhaustive_scenarios",) + tuple(f.name for f in fields(SearchConfig))
    spec = dict(config_block(spec or {}, "search", (), keys))
    spec.pop("exhaustive_scenarios", None)
    if seed is not None:
        spec["seed"] = seed
    if "report_window" in spec:
        spec["report_window"] = tuple(spec["report_window"])
    if "epsilons" in spec:
        spec["epsilons"] = tuple(spec["epsilons"])
    try:
        return SearchConfig(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"search: {exc}") from exc


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
    if "r0" in config and not rule.report_space.contains(config["r0"]):
        raise ConfigError(f"r0 {config['r0']!r} lies outside the reports")
    return rule


def _verdict_matches(expected: str, actual: str) -> bool:
    if expected == "holds":
        return actual in (HOLDS, HOLDS_AT_BUDGET)
    return expected == actual


def run_check(config: dict, out_dir: str) -> int:
    axioms = config.get("axioms")
    if not axioms:
        raise ConfigError("a check config needs a nonempty 'axioms' list")
    unknown = [a for a in axioms if a not in AXIOMS]
    if unknown:
        raise ConfigError(f"unknown axioms {unknown}")
    expected = config.get("expected", {})
    not_run = sorted(set(expected) - set(axioms))
    if not_run:
        raise ConfigError(f"'expected' names axioms that are not run: {not_run}")
    needs = [key for a in axioms for key in AXIOMS[a].needs]
    config_block(config, "the check config",
                 ("market",) + tuple(k for k in needs if k[-1] != "?"),
                 CHECK_KEYS + tuple(k.rstrip("?") for k in needs))
    rule = _market(config)
    cfg = build_search(config.get("search"), config.get("seed"))
    name = config.get("name", "check")

    verdicts = {}
    for axiom in axioms:
        try:
            rep = AXIOMS[axiom].check(rule, config, cfg)
        except ConfigError as exc:
            raise ConfigError(f"{axiom}: {exc}") from exc
        verdicts[axiom] = rep.verdict
        _write(os.path.join(out_dir, f"{name}__{axiom}.report.txt"),
               _header(config) + rep.to_text())
    summary = {"name": name, "config_sha256": config_hash(config),
               "version": __version__, "verdicts": verdicts}
    _write(os.path.join(out_dir, f"{name}__summary.json"),
           json.dumps(summary, indent=2, sort_keys=True) + "\n")

    bad = {a: (expected[a], verdicts[a]) for a in expected
           if not _verdict_matches(expected[a], verdicts[a])}
    if bad:
        for a, (want, got) in sorted(bad.items()):
            print(f"{name}: {a} expected {want}, got {got}", file=sys.stderr)
        return 1
    return 0


def run_session(config: dict, out_dir: str) -> int:
    config_block(config, "the session config", ("market", "r0"), SESSION_KEYS)
    rule = _market(config)
    name = config.get("name", "session")
    session = MarketSession(rule, config["r0"])
    for trader in config.get("traders", []):
        belief = build_belief(trader["belief"], rule.outcome_space)
        report = rule.best_response(belief)
        session.execute_trade(trader["id"], report)
    lines = [_header(config)]
    lines.append("ledger:")
    lines.extend(session.ledger_lines())
    outcome = config.get("outcome")
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
    config_block(config, "the extract config", ("market",), EXTRACT_KEYS)
    rule = _market(config)
    name = config.get("name", "extract")
    gspec = config.get("grid")
    if isinstance(gspec, dict):
        grid = [float(v) for v in np.linspace(gspec["lo"], gspec["hi"],
                                              gspec["num"])]
    elif gspec is not None:
        grid = gspec
    else:
        grid = rule.report_grid()
    ext = extract_cost_market(rule, grid)
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
    which = config.get("figure")
    name = config.get("name", which or "figure")
    path = os.path.join(out_dir, f"{name}.dat")
    if which == "mode_position":
        rule = ModeRule(config.get("outcomes", [1, 2, 3]))
        r_a = config.get("r_left", 1)
        r_b = config.get("r_center", 3)
        r_from, r_to = config.get("trade", [1, 2])
        d = rule.trade_contract(r_from, r_to)
        rows = [[y, rule.score(r_a, y), rule.score(r_b, y), d(y)]
                for y in rule.outcome_space.labels]
        _dat(path, config, ["y", f"S({r_a},y)", f"S({r_b},y)",
                            f"F({r_to},y|{r_from})"], rows)
        return 0
    if which == "mean_position":
        rule = ExpectationRule(quadratic(1))
        r, rp = config.get("trade", [-1.0, 1.0])
        r2 = config.get("state", 1.0)
        picks = config.get("contracts", [1.5, 2.5])
        r2p = rule.tn_candidate(r, rp, r2)
        held = rule.trade_contract(r, rp)
        neut = rule.trade_contract(r2, r2p)
        ys = np.linspace(*config.get("window", (-3.0, 3.0)),
                         config.get("points", 121))
        rows = []
        for y in ys:
            row = [y, held(y)]
            row.extend(rule.trade_contract(r2, c)(y) for c in picks)
            row.append(held(y) + neut(y))
            rows.append(row)
        cols = ["y", f"F({rp},y|{r})"] + \
            [f"F({c},y|{r2})" for c in picks] + ["neutralized"]
        _dat(path, config, cols, rows)
        return 0
    if which == "median_position":
        alpha = config.get("alpha", 0.5)
        rid = QuantileRule(alpha, IDENTITY)
        rsig = QuantileRule(alpha, SIGMOID)
        r, rp = config.get("trade", [-1.0, 1.0])
        r1, r1p, r2, r2p = config.get("scenario", [1.0, 2.0, 0.0, 0.5])
        held = rid.trade_contract(r1, r1p)
        green = rid.trade_contract(r2, r2p)
        ys = np.linspace(*config.get("window", (-4.0, 4.0)),
                         config.get("points", 161))
        rows = []
        for y in ys:
            rows.append([
                y,
                rid.score(r, y), rid.score(rp, y),
                rid.trade_contract(r, rp)(y),
                rsig.trade_contract(r, rp)(y),
                held(y), green(y), held(y) + green(y),
            ])
        cols = ["y", f"S({r},y)", f"S({rp},y)", "F_identity", "F_sigmoid",
                "held", "candidate", "net"]
        _dat(path, config, cols, rows)
        return 0
    if which == "discretized_lmsr":
        cost = binary_lmsr_cost()
        bound = config.get("bound", 6)
        rows = [[q, cost.value([q]), cost.grad([q])[0]]
                for q in range(-bound, bound + 1)]
        _dat(path, config, ["q", "C(q)", "price"], rows)
        return 0
    raise ConfigError(f"unknown figure {which!r}")


# ---------------------------------------------------------------------------
# entry point


def load_config(path_or_name: str) -> dict:
    if os.path.exists(path_or_name):
        with open(path_or_name) as fh:
            config = json.load(fh)
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


def main(argv=None) -> int:
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
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--expect", default=None,
                       help="golden verdict JSON file")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        config["seed"] = args.seed
    if args.expect:
        try:
            with open(args.expect) as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        config.setdefault("expected", {}).update(overrides)

    run = {"check": run_check, "session": run_session, "extract": run_extract,
           "figure": run_figure}[args.command]
    try:
        return run(config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of srmarket, not of the config
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
