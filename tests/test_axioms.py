"""Axiom checkers: verdicts on canonical instances, witness content, and
witness replay through the session primitives."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from implication import implication_chain_consistent
from srmarket.axioms import (
    AXIOMS,
    SearchConfig,
    check_arb,
    check_btb,
    check_ic,
    check_pn,
    check_tn,
    check_wcl,
    check_wn,
    exhaustive_triples,
    min_label,
    random_beliefs_for,
    replay_witness,
    scenario_triples,
)
from srmarket.cli import build_rule, bundled_config_names, load_config, main
from srmarket.contracts import (
    SIGMOID,
    OutcomeSpace,
    PayoffOverflow,
    finite_belief,
    uniform_belief,
)
from srmarket.convex import binary_negentropy, interval_negentropy, quadratic
from srmarket.costmarket import binary_lmsr_rule, discretized_lmsr_rule
from srmarket.reports import AxiomReport
from srmarket.scoring import (
    ExpectationRule,
    ExpectileRule,
    FiniteRule,
    ModeRule,
    QuantileRule,
    RatioRule,
)

CFG = SearchConfig(report_points=21, candidate_points=21, scenario_count=40,
                   portfolio_count=15, ic_beliefs=8, seed=0,
                   report_window=(-3.0, 3.0))


def mode3():
    return ModeRule([1, 2, 3])


def entropy_rule():
    return ExpectationRule(binary_negentropy(), phi=np.array([[0.0], [1.0]]))


def ratio_rule():
    return RatioRule(interval_negentropy(0.0, 3.0),
                     phi=np.array([0.0, 1.0, 3.0]),
                     b=np.array([2.0, 1.0, 1.0]))


def priced_cash_rule():
    return FiniteRule(np.array([[1.0, 0.0], [0.0, 1.0], [-4.0, -5.0],
                                [-5.0, -8.0]]), OutcomeSpace.finite((1, 2)))


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(delta=0.0)
        with pytest.raises(ValueError):
            SearchConfig(report_points=1)

    @pytest.mark.parametrize("field,value", [
        ("scenario_count", 0), ("portfolio_count", 0), ("portfolio_size", 0),
        ("ic_beliefs", 0), ("lattice_bound", 0), ("seed", -1),
        ("report_points", 2.5), ("candidate_points", True),
        ("report_window", (4.0, -4.0)), ("report_window", (1.0, 1.0))])
    def test_empty_budgets_and_bad_grids_rejected(self, field, value):
        # a library caller meets the guard a config meets: no budget may be
        # empty, so no check can hold over nothing
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{field: value})

    def test_scenario_generators(self):
        rng = np.random.default_rng(0)
        tri = scenario_triples([1, 2, 3], 50, rng)
        assert len(tri) == 50
        assert all(a != b for a, b, _ in tri)
        full = exhaustive_triples([1, 2, 3])
        assert len(full) == 3 * 2 * 3


class TestIC:
    def test_mode(self):
        assert check_ic(mode3(), cfg=CFG).ok

    def test_no_beliefs_rejected(self):
        with pytest.raises(ValueError, match="belief"):
            check_ic(mode3(), [], cfg=CFG)

    def test_mean(self):
        assert check_ic(ExpectationRule(quadratic(1)), cfg=CFG).ok

    def test_quantile_and_expectile(self):
        assert check_ic(QuantileRule(0.5), cfg=CFG).ok
        assert check_ic(ExpectileRule(0.3), cfg=CFG).ok

    def test_ratio(self):
        assert check_ic(ratio_rule(), cfg=CFG).ok

    def test_set_valued_property_picks_agree(self):
        # rounding in the trade rows breaks the tie between labels 1 and 2
        # differently from state 4
        rule = FiniteRule(np.array([
            [0.7857857007138075, 0.4146558493556708, 0.7344835717887294],
            [0.8857857007138075, 0.41307126522535736, 0.7344835717887294],
            [-4.067940313386622, -4.8850673667190945, -4.270984882923691],
            [-4.07257607137544, -4.032073810075354, -4.985293695034631],
            [-4.136359909754424, -4.0188049599336555, -4.042789820389037]]),
            OutcomeSpace.finite((0, 1, 2)))
        p = finite_belief(rule.outcome_space, [
            0.008206770373050174, 0.5179131998139413, 0.47388002981300836])
        assert rule.property_value(p) == (1, 2)
        rep = check_ic(rule, [p], SearchConfig(), states=[1, 2, 3, 4, 5])
        assert rep.ok, rep.witness

    def test_argmax_varies_replays(self):
        # the mean 0.068 lies midway between the grid reports 0.02 and
        # 0.116, whose expected trade payoffs tie up to rounding
        rule = ExpectationRule(quadratic(1, lo=[-1.0], hi=[2.0]),
                               phi=[[0.0], [1.0]])
        cfg = SearchConfig(report_points=11)
        grid = cfg.report_grid(rule)
        p = finite_belief(rule.outcome_space, [0.932, 0.068])
        rep = check_ic(rule, [p], cfg, states=grid)
        assert rep.verdict == "fails"
        assert set(map(float, rep.witness["argmaxes"])) == {0.02, 0.116}
        assert replay_witness(rule, rep) == rep.margin == 1.0

    def test_argmax_state_free(self):
        rep = check_ic(entropy_rule(), cfg=CFG)
        assert rep.ok
        assert rep.budget["states"] == 3


class TestARB:
    def test_mode_holds_exhaustively(self):
        rep = check_arb(mode3(), cfg=CFG)
        assert rep.verdict == "holds"
        assert rep.margin <= 0.0 + 1e-12

    def test_identity_trades_zero(self):
        rep = check_arb(QuantileRule(0.5), cfg=CFG)
        assert rep.ok
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_dominated_report_fails_with_replay(self):
        # S(2, .) = S(1, .) + 1 manufactures an arbitrage trade 1 -> 2
        m = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
        rule = FiniteRule(m, OutcomeSpace.finite((1, 2, 3)))
        rep = check_arb(rule, cfg=CFG)
        assert rep.verdict == "fails"
        pairs = rep.witness["pairs"]
        assert {"r": 1, "r_new": 2, "inf": 1.0} in pairs
        assert replay_witness(rule, rep) == pytest.approx(rep.margin)


class TestWCL:
    def test_mode_bound_one(self):
        rep = check_wcl(mode3(), 1, CFG)
        assert rep.verdict == "holds"
        assert rep.margin == pytest.approx(1.0)

    def test_mean_on_reals_diverges(self):
        rule = ExpectationRule(quadratic(1))
        rep = check_wcl(rule, 0.0, CFG)
        assert rep.verdict == "fails"
        losses = [v for _, v in rep.witness["losses"]]
        assert all(b > a for a, b in zip(losses, losses[1:]))
        assert replay_witness(rule, rep) == losses[-1]

    def test_sigmoid_quantile_closed_form_bound(self):
        rep = check_wcl(QuantileRule(0.5, SIGMOID), 0.0, CFG)
        assert rep.verdict == "holds"
        assert rep.margin == pytest.approx(0.5)

    def test_identity_quantile_diverges_in_reports(self):
        rule = QuantileRule(0.5)
        rep = check_wcl(rule, 0.0, CFG)
        assert rep.verdict == "fails"
        assert replay_witness(rule, rep) == rep.margin

    def test_entropy_rule_bounded(self):
        rep = check_wcl(entropy_rule(), 0.5, CFG)
        assert rep.verdict == "holds"
        assert rep.margin <= math.log(2.0) + 1e-12


class TestWN:
    def test_mode_fails_exhaustively(self):
        rep = check_wn(mode3(), scenarios=exhaustive_triples([1, 2, 3]),
                       cfg=CFG)
        assert rep.verdict == "fails"
        assert replay_witness(mode3(), rep) <= CFG.delta

    def test_quantile_fails(self):
        rule = QuantileRule(0.5)
        rep = check_wn(rule, scenarios=[(1.0, 2.0, 0.0)], cfg=CFG)
        assert rep.verdict == "fails"
        # every candidate's bad outcome certifies no improvement
        assert replay_witness(rule, rep) <= CFG.delta

    def test_expectile_slope_matching_holds(self):
        rep = check_wn(ExpectileRule(0.3), cfg=CFG)
        assert rep.ok

    def test_ratio_holds(self):
        rep = check_wn(ratio_rule(), cfg=CFG)
        assert rep.ok
        assert rep.margin > CFG.delta

    def test_mean_holds(self):
        rep = check_wn(ExpectationRule(quadratic(1)), cfg=CFG)
        assert rep.ok

    def test_no_scenario_raises(self):
        # a check over no scenario would hold over nothing
        with pytest.raises(ValueError, match="at least one"):
            check_wn(mode3(), scenarios=[], cfg=CFG)

    def test_overflowing_reports_raise_without_a_warning(self):
        # reports near -1e300 square past the largest float; the score
        # pieces overflow to nan, which is PayoffOverflow, not a numpy
        # warning followed by a verdict on nan payoffs
        rule = ExpectationRule(quadratic())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PayoffOverflow):
                check_wn(rule, cfg=SearchConfig(report_window=(-1e300, 3.0)))
            assert math.isnan(rule.score(1e300, 1.0))


class TestTN:
    def test_mode_fails(self):
        rep = check_tn(mode3(), scenarios=exhaustive_triples([1, 2, 3]),
                       cfg=CFG)
        assert rep.verdict == "fails"
        replay_witness(mode3(), rep)

    def test_entropy_rule_holds(self):
        rep = check_tn(entropy_rule(), cfg=CFG)
        assert rep.ok
        assert rep.margin > 0

    def test_mean_on_reals_holds(self):
        rep = check_tn(ExpectationRule(quadratic(1)), cfg=CFG)
        assert rep.ok

    def test_ratio_fails(self):
        rule = ratio_rule()
        rep = check_tn(rule, cfg=CFG)
        assert rep.verdict == "fails"
        replay_witness(rule, rep)

    def test_failure_lists_the_first_80_of_all_candidates_tried(self):
        # candidates are built as they are tried; the witness keeps the
        # first 80 and the budget counts every one
        rule = ratio_rule()
        rep = check_tn(rule, cfg=SearchConfig(candidate_points=101))
        assert rep.verdict == "fails"
        assert len(rep.witness["candidates"]) == 80
        assert rep.budget["candidates"] == 125
        replay_witness(rule, rep)

    def test_lattice_market_holds(self):
        rule = discretized_lmsr_rule()
        cfg = SearchConfig(seed=1, scenario_count=25, lattice_bound=6,
                           report_window=(-6.0, 6.0))
        scen = scenario_triples([float(v) for v in range(-3, 4)], 25,
                                cfg.rng())
        rep = check_tn(rule, scenarios=scen, cfg=cfg)
        assert rep.ok
        assert rep.margin > 0

    def test_unwind_scenarios_neutralize_even_for_quantile(self):
        # standing exactly at the held trade's endpoint lets the trader
        # unwind; TN still fails overall on generic states
        rule = QuantileRule(0.5)
        rep = check_tn(rule, scenarios=[(0.0, 1.0, 1.0)], cfg=CFG)
        assert rep.ok

    def test_no_scenario_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            check_tn(mode3(), scenarios=[], cfg=CFG)


class TestPN:
    def test_entropy_portfolios(self):
        rep = check_pn(entropy_rule(), cfg=CFG)
        assert rep.ok

    def test_lmsr_full_space(self):
        rule = binary_lmsr_rule()
        cfg = SearchConfig(seed=3, portfolio_count=10,
                           report_window=(-3.0, 3.0))
        rep = check_pn(rule, cfg=cfg)
        assert rep.ok

    def test_quantile_fails(self):
        rule = QuantileRule(0.5)
        ports = [([(0.0, 1.0), (2.0, 1.5)], -1.0)]
        rep = check_pn(rule, portfolios=ports, cfg=CFG)
        assert rep.verdict == "fails"
        replay_witness(rule, rep)

    def test_fails_margin_is_best_flat_level_over_position_inf(self):
        # from state 3 the trade to report 4 turns the held trade 1 -> 2
        # into cash, but at -2, below the held worst case -1
        rule = priced_cash_rule()
        rep = check_pn(rule, portfolios=[([(1, 2)], 3)], cfg=CFG)
        assert rep.verdict == "fails"
        assert rep.witness["position_inf"] == -1.0
        assert rep.margin == -1.0
        assert replay_witness(rule, rep) == -1.0
        assert check_tn(rule, scenarios=[(1, 2, 3)], cfg=CFG).margin == -1.0

    def test_degenerate_constant_portfolio_skipped(self):
        rule = entropy_rule()
        ports = [([(0.3, 0.7), (0.7, 0.3)], 0.5)]
        rep = check_pn(rule, portfolios=ports, cfg=CFG)
        assert rep.ok
        assert rep.budget["degenerate"] == 1

    def test_no_portfolio_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            check_pn(mode3(), portfolios=[], cfg=CFG)


class TestBTB:
    def test_mode_fails_below_unit_budget(self):
        rule = mode3()
        p = finite_belief(rule.outcome_space, [0.2, 0.5, 0.3])
        rep = check_btb(rule, p, 3, epsilons=(0.5,), cfg=CFG)
        assert rep.verdict == "fails"
        assert replay_witness(rule, rep) == rep.margin

    def test_quantile_small_trades(self):
        rule = QuantileRule(0.5)
        rep = check_btb(rule, uniform_belief(0.0, 1.0), 0.3,
                        epsilons=(0.5, 0.05, 0.005), cfg=CFG)
        assert rep.ok
        for hit in rep.witness["trades"]:
            assert hit["inf"] > -hit["epsilon"]
            assert hit["expected"] > 0

    def test_quantile_explicit_construction(self):
        # moving half-way to the quantile risks exactly half the distance
        rule = QuantileRule(0.5)
        d = rule.trade_contract(0.3, 0.35)
        lo, _ = __import__("srmarket.contracts",
                           fromlist=["contract_bounds"]).contract_bounds(d)
        assert lo == pytest.approx(-0.025, abs=1e-12)
        gain = __import__("srmarket.contracts",
                          fromlist=["expected_payoff"]).expected_payoff(
            d, uniform_belief(0.0, 1.0))
        assert gain == pytest.approx(0.00875, abs=1e-12)

    def test_expectation_shrinking_trades(self):
        rule = entropy_rule()
        p = finite_belief(rule.outcome_space, [0.3, 0.7])
        rep = check_btb(rule, p, 0.5, epsilons=(0.5, 0.05, 0.005), cfg=CFG)
        assert rep.ok

    def test_mean_on_reals_fails(self):
        rule = ExpectationRule(quadratic(1))
        rep = check_btb(rule, uniform_belief(0.0, 1.0), 0.1,
                        epsilons=(0.5,), cfg=CFG)
        assert rep.verdict == "fails"
        # every candidate breaks one of the two conditions: nontrivial
        # trades risk unboundedly, vanishing trades gain nothing
        for entry in rep.witness["candidates"]:
            assert entry["inf"] <= -0.5 or entry["expected"] <= CFG.delta

    def test_precondition_enforced(self):
        rule = mode3()
        p = finite_belief(rule.outcome_space, [0.2, 0.5, 0.3])
        with pytest.raises(ValueError):
            check_btb(rule, p, 2, cfg=CFG)

    def test_no_budgets_rejected(self):
        # no budget to meet would let BTB hold over nothing
        rule = mode3()
        p = finite_belief(rule.outcome_space, [0.2, 0.5, 0.3])
        with pytest.raises(ValueError, match="budget"):
            check_btb(rule, p, 3, epsilons=(), cfg=CFG)

    def test_state_outside_the_reports_rejected(self):
        rule = mode3()
        p = finite_belief(rule.outcome_space, [0.2, 0.5, 0.3])
        with pytest.raises(ValueError, match="outside"):
            check_btb(rule, p, 9, cfg=CFG)


class TestHelpers:
    def test_min_label(self):
        assert min_label((3, 1, 2)) == 1
        assert min_label(0.7) == 0.7

    def test_random_beliefs_match_family(self):
        rng = np.random.default_rng(0)
        for b in random_beliefs_for(mode3(), rng, 5):
            assert b.pmf is not None and len(b.pmf) == 3
        for b in random_beliefs_for(QuantileRule(0.5), rng, 5):
            assert b.xs is not None

    def test_implication_chain(self):
        assert implication_chain_consistent(
            {"PN": "holds", "TN": "holds-at-budget", "WN": "holds"})
        assert not implication_chain_consistent(
            {"TN": "holds", "WN": "fails"})
        assert not implication_chain_consistent(
            {"PN": "holds-at-budget", "TN": "fails"})
        assert implication_chain_consistent(
            {"PN": "fails", "TN": "fails", "WN": "holds-at-budget"})


class WrongMode(ModeRule):
    """A mode market that claims the least likely outcome as its statistic."""

    def property_value(self, p):
        return (self.report_space.labels[int(np.argmin(p.pmf))],)


class LowBoundMode(ModeRule):
    """A mode market whose closed-form loss bound understates its losses."""

    def loss_bound(self, r0) -> float:
        return 0.5


class ShiftedMean(ExpectationRule):
    def property_value(self, p):
        return super().property_value(p) + 1.0


def targeted_fails() -> dict:
    """name -> (rule, fails report): every replay path and witness shape."""
    mode = mode3()
    mean = ExpectationRule(quadratic(1))
    box = ExpectationRule(quadratic(1, lo=[-1.0], hi=[2.0]),
                          phi=[[0.0], [1.0]])
    wrong, shifted = WrongMode([1, 2, 3]), ShiftedMean(quadratic(1))
    arb = FiniteRule(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0],
                               [0.0, 1.0, 0.0]]), OutcomeSpace.finite((1, 2, 3)))
    priced, median = priced_cash_rule(), QuantileRule(0.5)
    low = LowBoundMode([1, 2, 3])
    pmf = finite_belief(mode.outcome_space, [0.2, 0.5, 0.3])
    box_cfg = SearchConfig(report_points=11)
    return {
        "ARB": (arb, check_arb(arb, cfg=CFG)),
        "WCL-losses": (mean, check_wcl(mean, 0.0, CFG)),
        "WCL-reports": (median, check_wcl(median, 0.0, CFG)),
        "WCL-bound": (low, check_wcl(low, 1, CFG)),
        "WN-mode": (mode, check_wn(mode, exhaustive_triples([1, 2, 3]), CFG)),
        "WN-median": (median, check_wn(median, [(1.0, 2.0, 0.0)], CFG)),
        "TN-priced": (priced, check_tn(priced, [(1, 2, 3)], CFG)),
        "TN-ratio": (ratio_rule(), check_tn(ratio_rule(), cfg=CFG)),
        "PN-priced": (priced, check_pn(priced, [([(1, 2)], 3)], CFG)),
        "PN-median": (median, check_pn(
            median, [([(0.0, 1.0), (2.0, 1.5)], -1.0)], CFG)),
        "BTB-mode": (mode, check_btb(mode, pmf, 3, epsilons=(0.5,), cfg=CFG)),
        "BTB-mean": (mean, check_btb(mean, uniform_belief(0.0, 1.0), 0.1,
                                     epsilons=(0.5,), cfg=CFG)),
        "IC-set": (wrong, check_ic(wrong, [pmf], CFG)),
        "IC-scalar": (shifted, check_ic(shifted, cfg=CFG)),
        "IC-varies": (box, check_ic(
            box, [finite_belief(box.outcome_space, [0.932, 0.068])], box_cfg,
            states=box_cfg.report_grid(box))),
    }


def parse_report(text: str) -> AxiomReport:
    head, block = text.split("witness-block:\n")
    fields = dict(line.split(": ", 1) for line in head.splitlines()
                  if not line.startswith("#"))
    return AxiomReport(axiom=fields["axiom"], verdict=fields["verdict"],
                       margin=float(fields["margin"]), **json.loads(block))


# one stored number per witness shape, moved off its recomputed value
TAMPERS = {
    "ARB": lambda w: w["pairs"][0].update(inf=w["pairs"][0]["inf"] + 1e-3),
    "WCL-losses": lambda w: w["losses"][-1].__setitem__(
        1, w["losses"][-1][1] * 1.001),
    "WCL-reports": lambda w: w["trade_sups"][-1].__setitem__(
        1, w["trade_sups"][-1][1] + 1.0),
    "WCL-bound": lambda w: w.update(grid_sup=w["grid_sup"] + 1e-3),
    "WN-mode": lambda w: w.update(held_inf=w["held_inf"] - 1e-3),
    "WN-median": lambda w: w["candidates"][0].update(
        value=w["candidates"][0]["value"] + 1.0),
    "TN-priced": lambda w: w["candidates"][-1].update(level=-2.5),
    "TN-ratio": lambda w: w["candidates"][0].update(
        spread=w["candidates"][0]["spread"] + 1.0),
    "PN-priced": lambda w: w.update(position_inf=-0.5),
    "PN-median": lambda w: w["portfolio"][0].__setitem__(1, 0.5),
    "BTB-mode": lambda w: w["candidates"][0].update(inf=-0.75),
    "BTB-mean": lambda w: w["candidates"][-1].update(expected=1.0),
    "IC-set": lambda w: w.update(property=[3]),
    "IC-scalar": lambda w: w.update(argmax_score=w["argmax_score"] + 1e-3),
    "IC-varies": lambda w: w["argmax_scores"].__setitem__(
        0, w["argmax_scores"][0] + 1e-3),
}


class TestReplay:
    def test_one_table_entry_per_axiom(self):
        assert sorted(AXIOMS) == sorted([
            "ARB", "WCL", "IC", "WN", "TN", "PN", "BTB", "OPEN",
            "QUASI-OPEN", "PRICE-BOUND", "SUBGROUP"])

    def test_targeted_fails_replay_to_their_margins(self):
        for name, (rule, rep) in targeted_fails().items():
            assert rep.verdict == "fails", name
            assert abs(replay_witness(rule, rep) - rep.margin) <= 1e-9, name

    def test_closed_form_bound_witness_replays(self):
        # the witness names r0 and the grid report attaining the sup, and
        # the replay recomputes the sup from their trade
        rule, rep = targeted_fails()["WCL-bound"]
        assert rep.witness["reason"] == "closed-form bound violated"
        assert (rep.witness["r0"], rep.witness["trade_to"]) == (1, 2)
        assert rep.margin == rep.witness["grid_sup"] == 1.0
        assert replay_witness(rule, rep) == 1.0

    def test_bundled_fails_replay_from_their_report_files(self, tmp_path):
        replayed = 0
        for name in bundled_config_names():
            config = load_config(name)
            if "axioms" not in config:
                continue
            assert main(["check", "--config", name, "--out",
                         str(tmp_path)]) == 0
            rule = build_rule(config["market"])
            for axiom in config["axioms"]:
                rep = parse_report(
                    (tmp_path / f"{name}__{axiom}.report.txt").read_text())
                if rep.verdict == "fails":
                    margin = replay_witness(rule, rep)
                    assert abs(margin - rep.margin) <= 1e-9, (name, axiom)
                    replayed += 1
        assert replayed == 6

    def test_tampered_margin_does_not_come_back(self):
        for name, (rule, rep) in targeted_fails().items():
            tampered = dataclasses.replace(rep, margin=rep.margin + 1.0)
            assert abs(replay_witness(rule, tampered) - rep.margin) <= 1e-9, \
                name

    @pytest.mark.parametrize("name", sorted(TAMPERS))
    def test_tampered_witness_number_is_rejected(self, name):
        rule, rep = targeted_fails()[name]
        witness = json.loads(json.dumps(rep.witness))
        TAMPERS[name](witness)
        with pytest.raises(AssertionError):
            replay_witness(rule, dataclasses.replace(rep, witness=witness))
