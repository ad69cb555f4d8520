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
from importlib import resources

import numpy as np

from . import __version__
from .axioms import (
    SearchConfig,
    check_arb,
    check_btb,
    check_ic,
    check_pn,
    check_tn,
    check_wcl,
    check_wn,
    exhaustive_triples,
)
from .contracts import IDENTITY, SIGMOID, cdf_belief, finite_belief, uniform_belief
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
    check_open,
    check_quasi_open,
    check_subgroup,
    extract_cost_market,
    price_bound_check,
    roundtrip_residual,
)
from .engine import MarketSession
from .reports import HOLDS, HOLDS_AT_BUDGET, AxiomReport
from .scoring import (
    ExpectationRule,
    ExpectileRule,
    FiniteRule,
    FiniteReports,
    ModeRule,
    QuantileRule,
    RatioRule,
)
from .contracts import OutcomeSpace, project_cashless


class ConfigError(ValueError):
    pass


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
    family = spec.get("family")
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
    if family == "cost":
        space = OutcomeSpace.finite(spec["outcomes"]) \
            if "outcomes" in spec else None
        return CostRule(build_potential(spec["cost"]),
                        np.asarray(spec["phi"], dtype=float), space,
                        build_shares(spec.get("shares")),
                        spec.get("conjugate_closure"))
    raise ConfigError(f"unknown family {family!r}")


def build_belief(spec: dict, space: OutcomeSpace):
    if "pmf" in spec:
        return finite_belief(space, spec["pmf"])
    if "cdf" in spec:
        return cdf_belief(spec["cdf"]["x"], spec["cdf"]["F"])
    if "uniform" in spec:
        a, b = spec["uniform"]
        return uniform_belief(a, b)
    raise ConfigError(f"unknown belief spec {spec!r}")


def build_search(spec: dict | None, seed=None) -> SearchConfig:
    spec = dict(spec or {})
    spec.pop("exhaustive_scenarios", None)
    if seed is not None:
        spec["seed"] = seed
    if "report_window" in spec:
        spec["report_window"] = tuple(spec["report_window"])
    if "epsilons" in spec:
        spec["epsilons"] = tuple(spec["epsilons"])
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


def _scenarios_for(rule, config, cfg: SearchConfig):
    if config.get("search", {}).get("exhaustive_scenarios") and \
            isinstance(rule.report_space, FiniteReports):
        return exhaustive_triples(list(rule.report_space.labels))
    return None


def run_axiom(axiom: str, rule, config: dict, cfg: SearchConfig) -> AxiomReport:
    r0 = config.get("r0")
    if axiom == "WCL":
        if r0 is None:
            raise ConfigError("WCL needs r0")
        return check_wcl(rule, r0, cfg)
    if axiom == "ARB":
        return check_arb(rule, cfg=cfg)
    if axiom == "IC":
        beliefs = None
        if "ic_beliefs" in config:
            beliefs = [build_belief(b, rule.outcome_space)
                       for b in config["ic_beliefs"]]
        return check_ic(rule, beliefs, cfg)
    if axiom == "WN":
        return check_wn(rule, _scenarios_for(rule, config, cfg), cfg)
    if axiom == "TN":
        return check_tn(rule, _scenarios_for(rule, config, cfg), cfg)
    if axiom == "PN":
        return check_pn(rule, None, cfg)
    if axiom == "BTB":
        btb = config.get("btb")
        if not btb:
            raise ConfigError("BTB needs a btb block: state, belief, epsilons")
        belief = build_belief(btb["belief"], rule.outcome_space)
        return check_btb(rule, belief, btb["state"],
                         tuple(btb.get("epsilons", cfg.epsilons)), cfg)
    if axiom == "OPEN":
        if not isinstance(rule, CostRule):
            raise ConfigError("OPEN applies to cost markets")
        return check_open(rule, cfg.rng())
    if axiom == "QUASI-OPEN":
        if not isinstance(rule, CostRule):
            raise ConfigError("QUASI-OPEN applies to cost markets")
        return check_quasi_open(rule, cfg.lattice_bound, cfg.rng())
    if axiom == "PRICE-BOUND":
        if not isinstance(rule, CostRule):
            raise ConfigError("PRICE-BOUND applies to cost markets")
        return price_bound_check(rule, config.get("price_bound_trials", 1000),
                                 cfg.rng())
    if axiom == "SUBGROUP":
        return _subgroup_report(rule, cfg)
    raise ConfigError(f"unknown axiom {axiom!r}")


def _subgroup_report(rule, cfg: SearchConfig) -> AxiomReport:
    if isinstance(rule, CostRule) and rule.shares.is_lattice:
        pts = rule.shares.lattice_points(cfg.lattice_bound)
        centered = rule.phi - np.mean(rule.phi, axis=0)
        sample = [centered @ w for w in pts]
        pinv = np.linalg.pinv(centered)

        def region(cand):
            n = np.linalg.solve(rule.shares._b(), pinv @ cand)
            back = centered @ (rule.shares._b() @ n)
            if np.max(np.abs(back - cand)) > 1e-9:
                return False
            return bool(np.all(np.abs(n) <= cfg.lattice_bound + 1e-9) and
                        np.max(np.abs(n - np.round(n))) <= 1e-9)

        return check_subgroup(sample, region=region)
    if isinstance(rule.report_space, FiniteReports):
        hs = []
        for r in rule.report_space.labels:
            d0, _ = project_cashless(rule.score_contract(r))
            hs.append(d0.values)
        sample = [h1 - h2 for h1 in hs for h2 in hs]
        return check_subgroup(sample, exhaustive=True)
    raise ConfigError("SUBGROUP needs a finite rule or a lattice market")


def _verdict_matches(expected: str, actual: str) -> bool:
    if expected == "holds":
        return actual in (HOLDS, HOLDS_AT_BUDGET)
    return expected == actual


def _required(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config has no {key!r} entry")
    return config[key]


def run_check(config: dict, out_dir: str) -> int:
    axioms = config.get("axioms")
    if not axioms:
        raise ConfigError("a check config needs a nonempty 'axioms' list")
    expected = config.get("expected", {})
    not_run = sorted(set(expected) - set(axioms))
    if not_run:
        raise ConfigError(f"'expected' names axioms that are not run: {not_run}")
    rule = build_rule(_required(config, "market"))
    cfg = build_search(config.get("search"), config.get("seed"))
    name = config.get("name", "check")

    verdicts = {}
    for axiom in axioms:
        rep = run_axiom(axiom, rule, config, cfg)
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
    rule = build_rule(_required(config, "market"))
    name = config.get("name", "session")
    session = MarketSession(rule, _required(config, "r0"))
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
    rule = build_rule(_required(config, "market"))
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
            return json.load(fh)
    bundle = resources.files("srmarket") / "configs" / f"{path_or_name}.json"
    if bundle.is_file():
        return json.loads(bundle.read_text())
    raise ConfigError(f"no config file or bundled config named {path_or_name!r}")


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

    try:
        if args.command == "check":
            return run_check(config, args.out)
        if args.command == "session":
            return run_session(config, args.out)
        if args.command == "extract":
            return run_extract(config, args.out)
        if args.command == "figure":
            return run_figure(config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
