"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from implication import implication_chain_consistent
from srmarket.axioms import (
    SearchConfig,
    check_arb,
    check_btb,
    check_pn,
    check_tn,
    check_wcl,
    check_wn,
    exhaustive_triples,
    random_cdf_belief,
    replay_witness,
    scenario_triples,
)
from srmarket.cli import load_config, run_figure
from srmarket.contracts import (
    SIGMOID,
    cdf_belief,
    finite_belief,
    project_cashless,
)
from srmarket.convex import (
    binary_negentropy,
    interval_negentropy,
    quadratic,
    simplex_negentropy,
)
from srmarket.costmarket import (
    ShareSpace,
    binary_lmsr_rule,
    check_subgroup,
    discretized_lmsr_rule,
    extract_cost_market,
    price_bound_check,
    roundtrip_residual,
)
from srmarket.engine import open_session
from srmarket.scoring import (
    ExpectationRule,
    ExpectileRule,
    FiniteRule,
    ModeRule,
    QuantileRule,
    RatioRule,
)

DELTA = 1e-9
SEED = 2026


@contextmanager
def criterion(cid: int, label: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {cid} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {cid} {label}: PASS")


def make_rules():
    return {
        "mode3": ModeRule([1, 2, 3]),
        "finite50": FiniteRule.weighted_mode(
            list(range(1, 51)),
            1.0 + np.linspace(0.0, 1.0, 50)),
        "expectation_entropy": ExpectationRule(
            binary_negentropy(), phi=np.array([[0.0], [1.0]])),
        "expectation_real": ExpectationRule(quadratic(1)),
        "quantile_id": QuantileRule(0.5),
        "quantile_sigmoid": QuantileRule(0.3, SIGMOID),
        "expectile": ExpectileRule(0.3),
        "ratio": RatioRule(interval_negentropy(0.0, 3.0),
                           phi=np.array([0.0, 1.0, 3.0]),
                           b=np.array([2.0, 1.0, 1.0])),
        "lmsr": binary_lmsr_rule(),
        "lmsr_lattice": discretized_lmsr_rule(),
    }


def signature_config(name: str) -> SearchConfig:
    window = {
        "quantile_id": (-3.0, 3.0),
        "quantile_sigmoid": (-3.0, 3.0),
        "expectile": (-3.0, 3.0),
        "expectation_real": (-3.0, 3.0),
        "lmsr": (-4.0, 4.0),
        "lmsr_lattice": (-8.0, 8.0),
    }.get(name, (-4.0, 4.0))
    return SearchConfig(report_points=51, candidate_points=51,
                        scenario_count=200, portfolio_count=200,
                        delta=DELTA, lattice_bound=8, seed=SEED,
                        report_window=window)


@pytest.fixture(scope="module")
def signatures():
    """Run the full axiom table once; criteria 1, 5, and 8 consume it."""
    rules = make_rules()
    table: dict[str, dict] = {}

    def put(name, axiom, report):
        table.setdefault(name, {})[axiom] = report

    # finite properties: complete 3-label mode plus a 50-label instance
    mode = rules["mode3"]
    cfgm = signature_config("mode3")
    put("mode3", "WCL", check_wcl(mode, 1, cfgm))
    put("mode3", "ARB", check_arb(mode, cfg=cfgm))
    tri3 = exhaustive_triples([1, 2, 3])
    put("mode3", "WN", check_wn(mode, tri3, cfgm))
    put("mode3", "TN", check_tn(mode, tri3, cfgm))
    put("mode3", "PN", check_pn(mode, cfg=cfgm))
    put("mode3", "BTB", check_btb(
        mode, finite_belief(mode.outcome_space, [0.2, 0.5, 0.3]), 3,
        epsilons=(0.5, 0.05), cfg=cfgm))

    big = rules["finite50"]
    cfgb = signature_config("finite50")
    put("finite50", "WCL", check_wcl(big, 1, cfgb))
    put("finite50", "ARB", check_arb(big, cfg=cfgb))
    tri50 = scenario_triples(list(big.report_space.labels), 200, cfgb.rng())
    put("finite50", "WN", check_wn(big, tri50, cfgb))
    put("finite50", "TN", check_tn(big, tri50, cfgb))
    pmf = np.full(50, 0.5 / 49)
    pmf[9] = 0.5
    put("finite50", "BTB", check_btb(
        big, finite_belief(big.outcome_space, pmf), 3,
        epsilons=(0.5,), cfg=cfgb))

    # expectation market on a bounded domain, bounded differentiable potential
    ent = rules["expectation_entropy"]
    cfge = signature_config("expectation_entropy")
    put("expectation_entropy", "WCL", check_wcl(ent, 0.5, cfge))
    put("expectation_entropy", "ARB", check_arb(ent, cfg=cfge))
    put("expectation_entropy", "WN", check_wn(ent, cfg=cfge))
    put("expectation_entropy", "TN", check_tn(ent, cfg=cfge))
    put("expectation_entropy", "PN", check_pn(ent, cfg=cfge))
    put("expectation_entropy", "BTB", check_btb(
        ent, finite_belief(ent.outcome_space, [0.3, 0.7]), 0.5,
        epsilons=(0.5, 0.05), cfg=cfge))

    # expectation market on the whole real line
    mean = rules["expectation_real"]
    cfgr = signature_config("expectation_real")
    put("expectation_real", "WCL", check_wcl(mean, 0.0, cfgr))
    put("expectation_real", "ARB", check_arb(mean, cfg=cfgr))
    put("expectation_real", "WN", check_wn(mean, cfg=cfgr))
    put("expectation_real", "TN", check_tn(mean, cfg=cfgr))
    put("expectation_real", "PN", check_pn(mean, cfg=cfgr))

    # quantiles: identity and sigmoid coordinates
    for name in ("quantile_id", "quantile_sigmoid"):
        rule = rules[name]
        cfgq = signature_config(name)
        put(name, "ARB", check_arb(rule, cfg=cfgq))
        put(name, "WN", check_wn(rule, cfg=cfgq))
        put(name, "TN", check_tn(rule, cfg=cfgq))
        put(name, "WCL", check_wcl(rule, 0.0, cfgq))
        rng = cfgq.rng()
        verdicts = []
        for _ in range(3):
            p = random_cdf_belief(rng, cfgq.report_window)
            state = p.quantile(rule.alpha) - 0.25
            verdicts.append(check_btb(rule, p, state,
                                      epsilons=(0.5, 0.05), cfg=cfgq))
        worst = min(verdicts, key=lambda r: r.ok)
        put(name, "BTB", worst)

    # expectiles
    exp_rule = rules["expectile"]
    cfgx = signature_config("expectile")
    put("expectile", "ARB", check_arb(exp_rule, cfg=cfgx))
    put("expectile", "WN", check_wn(exp_rule, cfg=cfgx))
    put("expectile", "TN", check_tn(exp_rule, cfg=cfgx))

    # ratio of expectations
    ratio = rules["ratio"]
    cfgt = signature_config("ratio")
    put("ratio", "ARB", check_arb(ratio, cfg=cfgt))
    put("ratio", "WN", check_wn(ratio, cfg=cfgt))
    put("ratio", "TN", check_tn(ratio, cfg=cfgt))
    put("ratio", "PN", check_pn(ratio, cfg=cfgt))

    # cost markets
    lmsr = rules["lmsr"]
    cfgl = signature_config("lmsr")
    put("lmsr", "TN", check_tn(lmsr, cfg=cfgl))
    put("lmsr", "PN", check_pn(lmsr, cfg=cfgl))
    put("lmsr", "WCL", check_wcl(lmsr, 0.0, cfgl))
    lat = rules["lmsr_lattice"]
    cfgll = signature_config("lmsr_lattice")
    scen = scenario_triples([float(v) for v in range(-4, 5)], 200,
                            cfgll.rng())
    put("lmsr_lattice", "TN", check_tn(lat, scen, cfgll))

    return rules, table


class TestCriterion1:
    def test_axiom_signature_table(self, signatures):
        rules, table = signatures
        expected = {
            "mode3": {"WCL": "holds", "ARB": "holds", "WN": "fails",
                      "TN": "fails", "BTB": "fails"},
            "finite50": {"WCL": "holds", "ARB": "holds", "WN": "fails",
                         "TN": "fails", "BTB": "fails"},
            "expectation_entropy": {"WCL": "holds", "BTB": "ok",
                                    "TN": "ok", "PN": "ok"},
            "expectation_real": {"WCL": "fails"},
            "quantile_id": {"WN": "fails", "BTB": "ok"},
            "quantile_sigmoid": {"WN": "fails", "WCL": "holds", "BTB": "ok"},
            "expectile": {"WN": "ok"},
            "ratio": {"WN": "ok", "TN": "fails"},
        }
        with criterion(1, "axiom signature table"):
            for name, axioms in expected.items():
                for axiom, want in axioms.items():
                    rep = table[name][axiom]
                    if want == "fails":
                        assert rep.verdict == "fails", (name, axiom, rep)
                    elif want == "holds":
                        assert rep.verdict == "holds", (name, axiom, rep)
                    else:
                        assert rep.ok, (name, axiom, rep)
            # the real-line expectation failure is the divergence probe
            w = table["expectation_real"]["WCL"].witness
            assert w["diverges"]
            losses = [v for _, v in w["losses"]]
            assert all(b > a for a, b in zip(losses, losses[1:]))
            # budgets: >= 50 report points and >= 200 scenarios on the
            # continuous families; the 3-label instance is fully exhaustive
            assert table["quantile_id"]["WN"].budget["scenarios"] >= 200 or \
                table["quantile_id"]["WN"].verdict == "fails"
            assert table["expectation_entropy"]["TN"].budget[
                "scenarios"] >= 200


class TestCriterion2:
    def test_extraction_roundtrip(self):
        with criterion(2, "cost extraction round-trip"):
            grid1 = [float(v) for v in np.linspace(0.1, 0.9, 9)]
            cases = []
            cases.append((ExpectationRule(
                quadratic(1, lo=[0.0], hi=[1.0]),
                phi=np.array([[0.0], [1.0]])), grid1,
                lambda r: np.array([2.0 * r]),
                lambda q: q[0] ** 2 / 4.0))
            cases.append((ExpectationRule(
                binary_negentropy(), phi=np.array([[0.0], [1.0]])), grid1,
                lambda r: np.array([math.log(r / (1 - r))]),
                lambda q: math.log(1.0 + math.exp(q[0]))))
            sx = simplex_negentropy(2)
            grid2 = [np.array([a, b])
                     for a in np.linspace(0.12, 0.72, 4)
                     for b in np.linspace(0.12, 0.72, 4) if a + b < 0.92]
            cases.append((ExpectationRule(
                sx, phi=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])),
                grid2, lambda r: sx.grad(r),
                lambda q: math.log(1.0 + float(np.sum(np.exp(q))))))
            for rule, grid, canon_share, canon_cost in cases:
                assert len(grid) >= 9
                ext = extract_cost_market(rule, grid)
                assert ext.ok, ext.failure_step
                assert roundtrip_residual(rule, ext) < 1e-8
                qs = np.array([canon_share(np.atleast_1d(
                    np.asarray(r, dtype=float)) if not np.isscalar(r) else r)
                    for r in grid])
                qs = qs.reshape(len(grid), -1)
                ck = np.array([canon_cost(q) for q in qs])
                a = np.hstack([qs, np.ones((len(grid), 1))])
                w, *_ = np.linalg.lstsq(a, ext.shares, rcond=None)
                assert float(np.max(np.abs(a @ w - ext.shares))) < 1e-8
                coef, *_ = np.linalg.lstsq(a, ext.cost_values - ck,
                                           rcond=None)
                dev = float(np.max(np.abs(a @ coef -
                                          (ext.cost_values - ck))))
                assert dev < 1e-6


class TestCriterion3:
    def test_subgroup_falsifier(self):
        with criterion(3, "subgroup falsifier"):
            mode = ModeRule([1, 2, 3])
            hs = []
            for r in (1, 2, 3):
                d0, _ = project_cashless(mode.score_contract(r))
                hs.append(d0.values)
            sample = [a - b for a in hs for b in hs]
            rep = check_subgroup(sample, exhaustive=True)
            assert rep.verdict == "fails" and rep.witness["kind"] == "sum"

            lat = ShareSpace.integer_lattice(1)
            phi = np.array([[0.0], [1.0]])
            centered = phi - np.mean(phi, axis=0)
            pts = lat.lattice_points(8)
            sample = [centered @ w for w in pts]
            col = centered[:, 0]

            def region(cand):
                n = float(cand @ col / (col @ col))
                return abs(n) <= 8 + 1e-9 and abs(n - round(n)) <= 1e-9

            rep2 = check_subgroup(sample, region=region)
            assert rep2.ok


class TestCriterion4:
    def test_price_bound(self):
        with criterion(4, "price-bound inequality"):
            rule = binary_lmsr_rule()
            rep = price_bound_check(rule, trials=1000,
                                    rng=np.random.default_rng(SEED))
            assert rep.ok
            assert rep.budget["trials"] == 1000
            assert rep.margin > 0.0
            spot = rule.cost.value([1.0]) - rule.cost.value([0.0])
            assert spot == pytest.approx(math.log((1.0 + math.e) / 2.0),
                                         abs=1e-12)


class TestCriterion5:
    def test_implication_chain(self, signatures):
        _, table = signatures
        with criterion(5, "implication chain consistency"):
            for name, axioms in table.items():
                verdicts = {a: r.verdict for a, r in axioms.items()}
                assert implication_chain_consistent(verdicts), (name,
                                                                verdicts)


class TestCriterion6:
    def test_arb_and_elicitation_universality(self):
        with criterion(6, "IC/ARB universality"):
            rules = {
                "mode": ModeRule([1, 2, 3]),
                "expectation": ExpectationRule(quadratic(1)),
                "quantile": QuantileRule(0.3),
                "expectile": ExpectileRule(0.7),
                "ratio": RatioRule(interval_negentropy(0.0, 3.0),
                                   phi=np.array([0.0, 1.0, 3.0]),
                                   b=np.array([2.0, 1.0, 1.0])),
            }
            cfg = SearchConfig(report_points=51, seed=SEED,
                               report_window=(-3.0, 3.0))
            for name, rule in rules.items():
                assert check_arb(rule, cfg=cfg).ok, name

            rng = np.random.default_rng(SEED)
            count = {name: 0 for name in rules}
            while min(count.values()) < 100:
                pmf3 = rng.dirichlet(np.ones(3))
                if count["mode"] < 100:
                    p = finite_belief(rules["mode"].outcome_space, pmf3)
                    assert rules["mode"].best_response(p) in \
                        rules["mode"].property_value(p)
                    count["mode"] += 1
                if count["ratio"] < 100:
                    p = finite_belief(rules["ratio"].outcome_space, pmf3)
                    gamma = rules["ratio"].property_value(p)
                    if 0.1 < gamma < 2.9:
                        got = rules["ratio"].best_response(p)
                        assert abs(got - gamma) <= 1e-6
                        count["ratio"] += 1
                pc = random_cdf_belief(rng, (-3.0, 3.0))
                if count["expectation"] < 100:
                    got = rules["expectation"].best_response(pc)
                    assert abs(got - pc.mean()) <= 1e-6
                    count["expectation"] += 1
                if count["quantile"] < 100:
                    got = rules["quantile"].best_response(pc)
                    assert abs(got - pc.quantile(0.3)) <= 1e-6
                    count["quantile"] += 1
                if count["expectile"] < 100:
                    got = rules["expectile"].best_response(pc)
                    want = rules["expectile"].property_value(pc)
                    assert abs(got - want) <= 1e-6
                    count["expectile"] += 1


class TestCriterion7:
    def test_path_independence_exactness(self):
        with criterion(7, "telescoping/PI exactness"):
            rng = np.random.default_rng(SEED)
            setups = [
                (ModeRule([1, 2, 3]),
                 lambda: int(rng.integers(1, 4)), 1),
                (ExpectationRule(quadratic(1)),
                 lambda: float(rng.normal(scale=2)), 0.0),
                (ExpectationRule(binary_negentropy(),
                                 phi=np.array([[0.0], [1.0]])),
                 lambda: float(rng.uniform(0.05, 0.95)), 0.5),
                (QuantileRule(0.4),
                 lambda: float(rng.normal(scale=2)), 0.0),
                (QuantileRule(0.6, SIGMOID),
                 lambda: float(rng.normal(scale=2)), 0.0),
                (ExpectileRule(0.3),
                 lambda: float(rng.normal(scale=2)), 0.0),
                (RatioRule(interval_negentropy(0.0, 3.0),
                           phi=np.array([0.0, 1.0, 3.0]),
                           b=np.array([2.0, 1.0, 1.0])),
                 lambda: float(rng.uniform(0.1, 2.9)), 1.0),
            ]
            for rule, draw, r0 in setups:
                session = open_session(rule, r0)
                for i in range(20):
                    session.execute_trade(f"t{i % 4}", draw())
                rep = session.verify_path_independence()
                assert rep.verdict == "holds"
                assert rep.margin <= 1e-12
                y = draw() if not rule.outcome_space.is_finite else None
                if y is None:
                    y = rule.outcome_space.labels[0]
                st = session.settle(y)
                assert abs(st.maker_loss - st.telescoped_loss) <= 1e-12


class TestCriterion8:
    def test_witness_replay(self, signatures):
        rules, table = signatures
        with criterion(8, "witness replay"):
            replayed = 0
            for name, axioms in table.items():
                for axiom, rep in axioms.items():
                    if rep.verdict != "fails":
                        continue
                    margin = replay_witness(rules[name], rep)
                    assert abs(margin - rep.margin) <= 1e-9, \
                        (name, axiom, margin, rep.margin)
                    replayed += 1
            assert replayed >= 8


class TestCriterion9:
    def test_figure_data_matches_closed_forms(self, tmp_path):
        with criterion(9, "figure data"):
            out = str(tmp_path)
            for name in ("fig_mode_position", "fig_mean_position",
                         "fig_median_position", "fig_discretized_lmsr"):
                assert run_figure(load_config(name), out) == 0

            rows = _read_dat(tmp_path / "fig_mode_position.dat")
            for y, s1, s3, f in rows:
                assert s1 == (1.0 if y == 1 else 0.0)
                assert s3 == (1.0 if y == 3 else 0.0)
                assert f == (1.0 if y == 2 else 0.0) - (1.0 if y == 1 else 0.0)

            rows = _read_dat(tmp_path / "fig_mean_position.dat")
            for y, f_held, f15, f25, net in rows:
                r, rp, r2 = -1.0, 1.0, 1.0
                assert abs(f_held - (r * r - rp * rp + 2 * y * (rp - r))) \
                    <= 1e-12
                assert abs(f15 - (r2 * r2 - 1.5 ** 2 + 2 * y * (1.5 - r2))) \
                    <= 1e-12
                assert abs(f25 - (r2 * r2 - 2.5 ** 2 + 2 * y * (2.5 - r2))) \
                    <= 1e-12
                r2p = r2 - (rp - r)
                assert abs(net - (f_held +
                                  r2 * r2 - r2p * r2p +
                                  2 * y * (r2p - r2))) <= 1e-12

            def qscore(a, g, r, y):
                return (a - (1.0 if r >= y else 0.0)) * (g(r) - g(y))

            ident = lambda v: v
            sig = lambda v: 1.0 / (1.0 + math.exp(-v))
            rows = _read_dat(tmp_path / "fig_median_position.dat")
            for y, s_r, s_rp, f_id, f_sig, held, cand, net in rows:
                assert abs(s_r - qscore(0.5, ident, -1.0, y)) <= 1e-12
                assert abs(s_rp - qscore(0.5, ident, 1.0, y)) <= 1e-12
                assert abs(f_id - (qscore(0.5, ident, 1.0, y) -
                                   qscore(0.5, ident, -1.0, y))) <= 1e-12
                assert abs(f_sig - (qscore(0.5, sig, 1.0, y) -
                                    qscore(0.5, sig, -1.0, y))) <= 1e-12
                want_held = qscore(0.5, ident, 2.0, y) - \
                    qscore(0.5, ident, 1.0, y)
                want_cand = qscore(0.5, ident, 0.5, y) - \
                    qscore(0.5, ident, 0.0, y)
                assert abs(held - want_held) <= 1e-12
                assert abs(cand - want_cand) <= 1e-12
                assert abs(net - (want_held + want_cand)) <= 1e-12

            rows = _read_dat(tmp_path / "fig_discretized_lmsr.dat")
            for q, c, price in rows:
                assert abs(c - math.log(1.0 + math.exp(q))) <= 1e-12
                assert abs(price - 1.0 / (1.0 + math.exp(-q))) <= 1e-12


def _read_dat(path):
    rows = []
    for line in path.read_text().splitlines():
        if not line.startswith("#"):
            rows.append([float(v) for v in line.split()])
    return rows
