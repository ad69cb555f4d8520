"""Differential test of WN, TN and PN: the row judge, on payoff vectors
over a finite outcome space and on coefficient rows on the real line,
against the per-scenario contract loop it replaced, kept here as the
reference.  The reports must be equal, and so must their text, byte for
byte."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srmarket.axioms import (
    SearchConfig,
    _candidate_grid,
    _failure,
    _judge_rows,
    _local_candidates,
    check_pn,
    check_tn,
    check_wn,
    exhaustive_triples,
    portfolio_scenarios,
    replay_witness,
    scenario_triples,
)
from srmarket.contracts import (
    SIGMOID,
    OutcomeSpace,
    PayoffOverflow,
    combine,
    contract_bounds,
    contract_is_constant,
)
from srmarket.convex import binary_negentropy, interval_negentropy, quadratic
from srmarket.costmarket import ShareSpace, binary_lmsr_rule
from srmarket.reports import FAILS, HOLDS_AT_BUDGET, AxiomReport
from srmarket.scoring import (
    ExpectationRule,
    ExpectileRule,
    FiniteRule,
    ModeRule,
    QuantileRule,
    RatioRule,
    ScoringRule,
)

CHECKS = {"WN": check_wn, "TN": check_tn, "PN": check_pn}


def _cash_level(net) -> float:
    flat, level = contract_is_constant(net)
    return level if flat else -math.inf


# axiom -> (value of held + trade, entries kept)
REFERENCE = {
    "WN": (lambda net: contract_bounds(net)[0], None),
    "TN": (_cash_level, 80),
    "PN": (_cash_level, 80),
}


def reference(axiom, rule, scenarios, cfg) -> AxiomReport:
    """The per-scenario contract loop: each held position, trade and net is
    built as a contract, rescoring its reports, one candidate at a time."""
    value, cap = REFERENCE[axiom]
    count = "portfolios" if axiom == "PN" else "scenarios"
    if scenarios is None:
        grid = cfg.report_grid(rule)
        scenarios = portfolio_scenarios(
            grid, cfg.portfolio_count, cfg.portfolio_size, cfg.rng()) \
            if axiom == "PN" else \
            scenario_triples(grid, cfg.scenario_count, cfg.rng())
    degenerate = 0
    worst = math.inf
    for scenario in scenarios:
        if axiom == "PN":
            trades, state = scenario
            held = combine([rule.trade_contract(a, b) for a, b in trades],
                           [1.0] * len(trades))
        else:
            trades, state = [(scenario[0], scenario[1])], scenario[2]
            held = rule.trade_contract(*trades[0])
        if contract_is_constant(held)[0]:
            degenerate += 1
            continue
        base, _ = contract_bounds(held)
        # the analytic candidate first, when it is a report
        analytic = rule.matched_candidates([(trades, state)])[0] \
            if axiom in rule.matches else None
        first = [analytic] if analytic is not None and \
            rule.report_space.contains(analytic) else []
        tried = []
        for c in (first + _local_candidates(rule, state, cfg) +
                  _candidate_grid(rule, cfg)):
            tried.append(c)
            best = value(combine([held, rule.trade_contract(state, c)],
                                 [1.0, 1.0]))
            if best > base + cfg.delta:
                break
        else:
            _, _, margin, witness, budget = _failure(
                axiom, rule, scenario, tried[:cap], len(scenarios), len(tried))
            return AxiomReport(axiom=axiom, verdict=FAILS, margin=margin,
                               witness=witness, budget=budget)
        worst = min(worst, (best - base) if base > -math.inf else math.inf)
    return AxiomReport(axiom=axiom, verdict=HOLDS_AT_BUDGET,
                       margin=worst if worst < math.inf else 0.0,
                       budget={count: len(scenarios), "degenerate": degenerate})


def priced_cash_rule():
    # report 3 is report 1 less 5 in cash, report 4 report 2 less 8
    return FiniteRule(np.array([[1.0, 0.0], [0.0, 1.0], [-4.0, -5.0],
                                [-5.0, -8.0]]), OutcomeSpace.finite((1, 2)))


class HookedMatrix(FiniteRule):
    """A payoff matrix with analytic candidates for WN, TN and PN: the first
    held trade's start when the market stands at the last one's end (an
    unwind), else a label picked from the position, or a report outside the
    space, which no check may try."""

    matches = frozenset({"WN", "TN", "PN"})

    def matched_candidates(self, positions: list) -> list:
        labels = self.report_space.labels
        out = []
        for trades, r2 in positions:
            r1, r1p = trades[0][0], trades[-1][1]
            k = labels.index(r1) + 2 * labels.index(r2)
            out.append(r1 if r2 == r1p else labels[k % len(labels)] if k % 3 else 0)
        return out


def hooked_matrix():
    return HookedMatrix(np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0],
                                  [1.0, 1.0, 0.0], [3.0, -1.0, 2.0]]),
                        OutcomeSpace.finite((1, 2, 3)))


FINITE_RULES = {
    "hooked-matrix": hooked_matrix,
    "mode3": lambda: ModeRule(3),
    "mode-letters": lambda: ModeRule(["a", "b", "c", "d"]),
    "priced-cash": priced_cash_rule,
    "entropy": lambda: ExpectationRule(binary_negentropy(),
                                       phi=np.array([[0.0], [1.0]])),
    "quadratic-2d": lambda: ExpectationRule(
        quadratic(2), phi=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
    "ratio": lambda: RatioRule(interval_negentropy(0.0, 3.0),
                               phi=np.array([0.0, 1.0, 3.0]),
                               b=np.array([2.0, 1.0, 1.0])),
    "lmsr": binary_lmsr_rule,
    "lmsr-lattice": lambda: binary_lmsr_rule(ShareSpace.integer_lattice(1)),
    "lmsr-half-lattice": lambda: binary_lmsr_rule(
        ShareSpace.integer_lattice(1, 0.5)),
}

REAL_RULES = {
    # linear trades: the held infimum is -inf
    "mean": lambda: ExpectationRule(quadratic(1)),
    "median": lambda: QuantileRule(0.5),
    "sigmoid-quantile": lambda: QuantileRule(0.3, SIGMOID),
    "expectile": lambda: ExpectileRule(0.3),
}


def small_cfg(seed: int, rule, delta: float = 1e-9) -> SearchConfig:
    # a margin of 1 ties integer payoffs with the held infimum plus delta
    lattice = getattr(getattr(rule, "shares", None), "is_lattice", False)
    return SearchConfig(report_points=9, candidate_points=9, scenario_count=12,
                        portfolio_count=6, lattice_bound=3, seed=seed,
                        delta=delta,
                        report_window=(-3.0, 3.0) if not lattice else (-4.0, 4.0))


DELTAS = st.sampled_from([1e-9, 1.0])


def assert_same(axiom, rule, scenarios, cfg) -> AxiomReport:
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference(axiom, rule, scenarios, cfg)
    got = CHECKS[axiom](rule, scenarios, cfg=cfg)
    assert got == want
    assert got.to_text() == want.to_text()
    if got.verdict == FAILS:
        # a replay judges with the margin the check recorded, whatever delta
        assert abs(replay_witness(rule, got) - got.margin) <= 1e-9
    return got


@st.composite
def drawn_scenarios(draw, grid, axiom):
    """Scenarios on the grid, some degenerate: a null trade, or a portfolio
    that undoes itself; portfolios of one to three trades."""
    n = len(grid)
    idx = st.integers(0, n - 1)
    if axiom != "PN":
        return draw(st.lists(st.tuples(idx, idx, idx).map(
            lambda t: tuple(grid[i] for i in t)), min_size=1, max_size=8))

    def portfolio(t):
        trades = [(grid[i], grid[j]) for i, j in t[0]]
        if t[2]:
            trades += [(b, a) for a, b in trades]
        return trades, grid[t[1]]

    return draw(st.lists(st.tuples(
        st.lists(st.tuples(idx, idx), min_size=1, max_size=3), idx,
        st.booleans()).map(portfolio), min_size=1, max_size=5))


@pytest.mark.parametrize("name", sorted(FINITE_RULES))
@pytest.mark.parametrize("axiom", sorted(CHECKS))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), delta=DELTAS)
def test_finite_sampled_scenarios(name, axiom, seed, delta):
    rule = FINITE_RULES[name]()
    assert_same(axiom, rule, None, small_cfg(seed, rule, delta))


@pytest.mark.parametrize("name", sorted(FINITE_RULES))
@pytest.mark.parametrize("axiom", sorted(CHECKS))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_finite_drawn_scenarios(name, axiom, data):
    rule = FINITE_RULES[name]()
    cfg = small_cfg(0, rule, data.draw(DELTAS))
    scenarios = data.draw(drawn_scenarios(cfg.report_grid(rule), axiom))
    assert_same(axiom, rule, scenarios, cfg)


@settings(max_examples=30, deadline=None)
@given(matrix=st.lists(st.lists(st.integers(-3, 3).map(float), min_size=3,
                                max_size=3), min_size=2, max_size=4),
       axiom=st.sampled_from(["WN", "TN"]), delta=DELTAS)
@example(matrix=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], axiom="TN", delta=1e-9)
def test_finite_matrix_exhaustive(matrix, axiom, delta):
    # every triple of a finite report space, as the CLI's
    # exhaustive_scenarios gives them; equal rows make null trades
    rule = HookedMatrix(np.array(matrix), OutcomeSpace.finite((1, 2, 3)))
    assert_same(axiom, rule, exhaustive_triples(list(rule.report_space.labels)),
                small_cfg(0, rule, delta))


@pytest.mark.parametrize("axiom", ["WN", "TN"])
def test_exhaustive_mode_and_priced_cash(axiom):
    for rule in (ModeRule(4), priced_cash_rule()):
        rep = assert_same(axiom, rule,
                          exhaustive_triples(list(rule.report_space.labels)),
                          small_cfg(0, rule))
        assert rep.verdict == FAILS


def test_degenerate_and_failing_scenarios_count_as_before():
    rule = priced_cash_rule()
    cfg = small_cfg(0, rule)
    # 1 -> 3 is cash, so degenerate; 1 -> 2 from state 3 fails TN
    rep = assert_same("TN", rule, [(1, 3, 2), (2, 2, 1), (1, 2, 3)], cfg)
    assert rep.verdict == FAILS
    rep = assert_same("PN", rule, [([(1, 3)], 2), ([(1, 2), (2, 1)], 4)], cfg)
    assert rep.budget == {"portfolios": 2, "degenerate": 2}


@pytest.mark.parametrize("name", sorted(REAL_RULES))
@pytest.mark.parametrize("axiom", sorted(CHECKS))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_real_line_memoized_loop(name, axiom, seed):
    rule = REAL_RULES[name]()
    cfg = small_cfg(seed, rule)
    cfg.scenario_count, cfg.portfolio_count = 5, 3
    assert_same(axiom, rule, None, cfg)


@pytest.mark.parametrize("name", sorted(REAL_RULES))
@pytest.mark.parametrize("axiom", sorted(CHECKS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_real_line_drawn_scenarios(name, axiom, data):
    rule = REAL_RULES[name]()
    cfg = small_cfg(0, rule)
    scenarios = data.draw(drawn_scenarios(cfg.report_grid(rule), axiom))
    assert_same(axiom, rule, scenarios, cfg)


@pytest.mark.parametrize("name", sorted(REAL_RULES))
def test_real_line_rows_that_share_reports(name):
    rule = REAL_RULES[name]()
    cfg = small_cfg(0, rule)
    # breakpoints at both 0.0 and -0.0, which are one breakpoint
    assert_same("WN", rule, [(0.0, 1.5, -0.0), (-0.0, -2.25, 0.0)], cfg)
    assert_same("TN", rule, [(0.0, 1.5, -0.0), (-0.0, -2.25, 0.0)], cfg)
    assert_same("PN", rule, [([(0.0, 1.5), (-0.0, -0.75)], -0.0)], cfg)
    # a report repeated within a portfolio: a trade held twice, and a
    # report that ends one trade and starts the next
    assert_same("PN", rule, [([(1.5, -0.75), (1.5, -0.75)], 0.0),
                             ([(0.0, 1.5), (1.5, 3.0)], 1.5)], cfg)
    # a portfolio that undoes itself holds nothing, alone or before another
    undone = ([(0.75, 2.25), (2.25, 0.75)], 0.0)
    rep = assert_same("PN", rule, [undone], cfg)
    assert rep.budget == {"portfolios": 1, "degenerate": 1}
    assert_same("PN", rule, [undone, ([(0.75, 2.25), (-3.0, 0.0)], 1.5)], cfg)


@pytest.mark.parametrize("name", sorted(REAL_RULES))
@pytest.mark.parametrize("axiom", sorted(CHECKS))
def test_real_line_reports_near_1e7(name, axiom):
    # pieces in absolute t round their constant terms at the scale of r or
    # r^2 there; the rows must still be combine's floats
    rule = REAL_RULES[name]()
    cfg = replace(small_cfg(3, rule), report_window=(1e7 - 3.0, 1e7 + 3.0))
    cfg.scenario_count, cfg.portfolio_count = 5, 3
    assert_same(axiom, rule, None, cfg)


@st.composite
def unequal_portfolios(draw, grid):
    """Two to five portfolios on the grid, of one to three trades each, not
    all of one length."""
    idx = st.integers(0, len(grid) - 1)
    portfolio = st.tuples(st.lists(st.tuples(idx, idx), min_size=1, max_size=3),
                          idx).map(lambda t: ([(grid[i], grid[j]) for i, j in t[0]],
                                              grid[t[1]]))
    return draw(st.lists(portfolio, min_size=2, max_size=5).filter(
        lambda ps: len({len(trades) for trades, _ in ps}) > 1))


@pytest.mark.parametrize("name", sorted(REAL_RULES))
@settings(max_examples=10, deadline=None)
@given(data=st.data(), delta=st.sampled_from([1e-9, 0.05]))
def test_real_line_portfolios_of_unequal_length(name, data, delta):
    # a shorter portfolio holds null trades at a report it holds, which pay
    # 0.0 in every cell and break only where the position breaks
    rule = REAL_RULES[name]()
    cfg = small_cfg(0, rule, delta)
    assert_same("PN", rule, data.draw(unequal_portfolios(cfg.report_grid(rule))), cfg)


def test_null_trades_are_not_scored_at_the_state():
    # the second portfolio holds nothing, so its state 1e155, whose score
    # overflows, is never scored; neither is it where the first portfolio
    # holds a null trade
    rule = REAL_RULES["mean"]()
    cfg = SearchConfig(report_points=9, candidate_points=9)
    rep = assert_same("PN", rule, [([(1.0, 2.0), (2.0, 0.5)], 0.0),
                                   ([(1.5, 1.5)], 1e155)], cfg)
    assert rep.verdict == HOLDS_AT_BUDGET


@pytest.mark.parametrize("name", sorted(REAL_RULES))
@pytest.mark.parametrize("axiom", sorted(CHECKS))
def test_the_real_line_judge_scores_no_report_alone(name, axiom):
    # the judge scores each step's reports in one piece_rows call
    rule = REAL_RULES[name]()
    cfg = small_cfg(4, rule)
    scenarios = portfolio_scenarios(cfg.report_grid(rule), 4, 3, cfg.rng()) \
        if axiom == "PN" else scenario_triples(cfg.report_grid(rule), 8, cfg.rng())
    with mock.patch.object(rule, "score_pieces",
                           side_effect=AssertionError("scored alone")):
        with np.errstate(over="ignore", invalid="ignore"):
            _judge_rows(axiom, rule, scenarios, cfg)


@pytest.mark.parametrize("name,axiom", [("expectile", "WN"), ("mean", "WN"),
                                        ("mean", "TN"), ("mean", "PN")])
def test_holding_real_line_checks_call_score_pieces_zero_times(name, axiom):
    # a check that holds builds no witness, so no contract either
    rule = REAL_RULES[name]()
    with mock.patch.object(rule, "score_pieces", wraps=rule.score_pieces) as spy:
        rep = CHECKS[axiom](rule, None, cfg=small_cfg(0, rule))
    assert rep.verdict == HOLDS_AT_BUDGET
    assert spy.call_count == 0


def test_real_line_net_overflow_raises():
    # ExpectileRule(0.1) pays -0.9 (y - r)^2 below r: held 0 -> 1.3e154 and
    # the analytic trade 0 -> -1.3e154 each put -1.52e308 in the constant
    # term below -1.3e154, and held + trade overflows there
    rule = ExpectileRule(0.1)
    with pytest.raises(PayoffOverflow):
        check_wn(rule, [(0.0, 1.3e154, 0.0)], small_cfg(0, rule))
    # a score that overflows by itself, -inf in the mean's constant term at
    # 1e154, is not snapped away by the sums built on it
    rule = REAL_RULES["mean"]()
    with pytest.raises(PayoffOverflow):
        check_wn(rule, [(0.0, 1e154, 0.0)], small_cfg(0, rule))


def test_real_line_overflow_after_a_failing_scenario_raises():
    # all held positions are summed before any scenario is judged: the
    # reference loop fails at the first scenario and never builds the
    # second, whose held trade pays -0.9 * 3.4e308 below -1.7e308
    rule = QuantileRule(0.1)
    cfg = small_cfg(0, rule)
    scenarios = [(-3.0, -2.25, -3.0), (-1.7e308, 1.7e308, 0.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert reference("WN", rule, scenarios, cfg).verdict == FAILS
    with pytest.raises(PayoffOverflow):
        check_wn(rule, scenarios, cfg)


def test_real_line_minus_inf_held_infimum():
    # the mean market's trades are linear in y: a held infimum is -inf, and
    # a candidate improves when it makes held + trade bounded below; the
    # null trade 0.0 -> -0.0 is degenerate
    rule = REAL_RULES["mean"]()
    cfg = small_cfg(0, rule)
    for axiom, scenarios in (("WN", [(1.0, 2.0, 0.0), (0.0, -0.0, 1.5)]),
                             ("PN", [([(1.0, 2.0), (0.5, -1.0)], 0.0)])):
        rep = assert_same(axiom, rule, scenarios, cfg)
        assert rep.verdict == HOLDS_AT_BUDGET


def overflow_rule(first_overflows: bool):
    # from state 4 the held trade 4 -> 2 pays [1e308, 1]: the trade to the
    # lift report raises its worst case, the trade to the big report
    # overflows its first payoff; the candidates are tried as labels 1 to 4
    big, lift = [1e308, 0.0], [3.0, 3.0]
    rows = [big, [1e308, 1.0], lift, [0.0, 0.0]] if first_overflows else \
        [lift, [1e308, 1.0], big, [0.0, 0.0]]
    return FiniteRule(np.array(rows), OutcomeSpace.finite((1, 2)))


def test_overflow_past_the_first_improving_candidate_is_not_met():
    assert_same("WN", overflow_rule(False), [(4, 2, 4)], small_cfg(0, None))


def test_overflow_before_the_first_improving_candidate_raises():
    rule = overflow_rule(True)
    with pytest.raises(PayoffOverflow):
        with np.errstate(over="ignore"):
            reference("WN", rule, [(4, 2, 4)], small_cfg(0, None))
    with pytest.raises(PayoffOverflow):
        check_wn(rule, [(4, 2, 4)], small_cfg(0, None))


# ---------------------------------------------------------------------------
# the judge's batches, its score calls, and its row-built witnesses

# axiom, rule, a failing scenario, and scenarios that hold (or are
# degenerate); no rule here has an analytic candidate, so every scenario
# that is not degenerate is judged in the batches
PLACED = {
    "WN-mode4": ("WN", lambda: ModeRule(4), (1, 2, 1),
                 [(1, 2, 2), (1, 3, 3), (1, 4, 4), (2, 1, 1)]),
    "TN-priced-cash": ("TN", priced_cash_rule, (1, 2, 1),
                       [(1, 2, 2), (1, 4, 1), (1, 3, 1), (1, 4, 3), (2, 1, 1)]),
    "PN-mode3": ("PN", lambda: ModeRule(3), ([(3, 2), (1, 3)], 1),
                 [([(2, 3), (3, 1)], 1), ([(1, 3), (3, 1)], 1),
                  ([(1, 2), (3, 1)], 2)]),
    "WN-median": ("WN", REAL_RULES["median"], (2.25, 3.0, -1.5),
                  [(3.0, -3.0, -2.25), (-1.5, 2.25, -0.75), (-0.75, 0.75, 0.0)]),
}


@pytest.mark.parametrize("at", range(21))
@pytest.mark.parametrize("case", sorted(PLACED))
def test_a_failing_scenario_at_each_place_in_the_batches(case, at):
    # batches of 1, 2, 4, 8 and 16 unsettled scenarios: a failure at places
    # 0 to 20 meets every batch size, first, last and within a batch
    axiom, make, failing, holding = PLACED[case]
    rule = make()
    others = [holding[j % len(holding)] for j in range(20)]
    rep = assert_same(axiom, rule, others[:at] + [failing] + others[at:],
                      small_cfg(0, rule))
    assert rep.verdict == FAILS


def test_an_overflow_later_in_a_batch_does_not_raise_before_a_failure():
    # with the market at 1 the held trade 1 -> 2 fails WN, and 1 -> 3 holds
    # a payoff that the candidate 1 overflows; after the first scenario the
    # batches hold scenarios 1-2 and 3-6, read in order
    rule = overflow_rule(True)
    cfg = small_cfg(0, None)
    holding, failing, overflowing = (1, 2, 4), (1, 2, 1), (1, 3, 1)
    for scenarios in ([holding, failing, overflowing],
                      [holding] * 3 + [failing, holding, holding, overflowing]):
        rep = assert_same("WN", rule, scenarios, cfg)
        assert rep.witness["scenario"] == {"r1": 1, "r1_new": 2, "state": 1}
    for scenarios in ([holding, overflowing, failing],
                      [holding] * 3 + [overflowing, holding, holding, failing]):
        with pytest.raises(PayoffOverflow):
            with np.errstate(over="ignore"):
                reference("WN", rule, scenarios, cfg)
        with pytest.raises(PayoffOverflow):
            check_wn(rule, scenarios, cfg)


@pytest.mark.parametrize("name", ["median", "sigmoid-quantile"])
def test_states_at_zero_and_minus_zero_in_one_batch(name):
    # 0.0 and -0.0 are equal floats, and one key of a plain dict; the judge
    # scores each, as the contract loop does
    rule = REAL_RULES[name]()
    scenarios = [(-0.75, 0.75, 0.0), (-0.75, 0.75, -0.0), (3.0, -3.0, -0.0),
                 (1.5, 2.25, 0.0), (1.5, 2.25, -0.0)]
    with mock.patch.object(rule, "piece_rows", wraps=rule.piece_rows) as spy:
        rep = assert_same("WN", rule, scenarios, small_cfg(0, rule))
    assert rep.verdict == FAILS
    zeros = [r for call in spy.call_args_list for r in call.args[0] if r == 0.0]
    assert {math.copysign(1.0, r) for r in zeros} == {-1.0, 1.0}


# axiom -> the rules and scenarios of failing checks, on both outcome kinds
FAILING = {
    "WN": [(lambda: ModeRule(4), [(1, 2, 2), (1, 2, 1)]),
           (REAL_RULES["median"], [(3.0, -3.0, -2.25), (2.25, 3.0, -1.5)])],
    "TN": [(priced_cash_rule, [(1, 2, 2), (1, 2, 1)]),
           (REAL_RULES["expectile"], [(-2.25, -0.75, -0.75), (3.0, -3.0, -2.25)])],
    "PN": [(lambda: ModeRule(3), [([(2, 3), (3, 1)], 1), ([(3, 2), (1, 3)], 1)]),
           (REAL_RULES["median"], [([(0.0, 0.75), (1.5, 3.0)], -3.0)])],
}


@pytest.mark.parametrize("kind", [0, 1], ids=["finite", "real-line"])
@pytest.mark.parametrize("axiom", sorted(FAILING))
def test_a_failing_check_builds_no_trade_contract(axiom, kind):
    # the witness is read from rows: no trade_contract, and no combine
    make, scenarios = FAILING[axiom][kind]
    rule = make()
    cfg = small_cfg(0, rule)
    refuse = AssertionError("a contract was built")
    with mock.patch.object(rule, "trade_contract", side_effect=refuse), \
            mock.patch("srmarket.axioms.combine", side_effect=refuse), \
            mock.patch("srmarket.scoring.combine", side_effect=refuse):
        rep = CHECKS[axiom](rule, scenarios, cfg=cfg)
    assert rep.verdict == FAILS
    with np.errstate(over="ignore", invalid="ignore"):
        assert rep == reference(axiom, rule, scenarios, cfg)


@pytest.mark.parametrize("name", sorted(FINITE_RULES) + sorted(REAL_RULES))
@pytest.mark.parametrize("axiom", sorted(CHECKS))
def test_each_group_of_reports_is_scored_in_one_call(name, axiom):
    # one call for the held positions, one for the analytic nets, one per
    # batch of 1, 2, 4, ... unsettled scenarios and one for a witness
    rule = {**FINITE_RULES, **REAL_RULES}[name]()
    method = "score_rows" if rule.outcome_space.is_finite else "piece_rows"
    with mock.patch.object(rule, method, wraps=getattr(rule, method)) as spy:
        rep = CHECKS[axiom](rule, None, cfg=small_cfg(1, rule))
    n = rep.budget["portfolios" if axiom == "PN" else "scenarios"]
    assert 1 <= spy.call_count <= 3 + n.bit_length()


class SplitMedian(QuantileRule):
    """The median rule with the last piece of a positive report's score split
    at r + 1 into two equal pieces: its score tables, stacked per report,
    have unequal piece counts from call to call."""

    piece_rows = ScoringRule.piece_rows  # stack_pieces of each report's pieces

    def score_pieces(self, r):
        ends, pieces = super().score_pieces(r)
        return (ends, pieces) if r <= 0.0 else ((*ends, r + 1.0), (*pieces, pieces[-1]))


@pytest.mark.parametrize("axiom", sorted(CHECKS))
def test_score_tables_of_unequal_piece_counts_share_one_stack(axiom):
    rule = SplitMedian(0.5)
    assert rule.piece_rows([-1.0])[1].shape[1] == 2
    assert rule.piece_rows([-1.0, 1.0])[1].shape[1] == 3
    cfg = small_cfg(2, rule)
    cfg.scenario_count, cfg.portfolio_count = 6, 4
    assert_same(axiom, rule, None, cfg)
