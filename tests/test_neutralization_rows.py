"""Differential test of WN, TN and PN: the payoff-row path of a finite
outcome space, and the memoized contract loop of the real line, against the
per-scenario contract loop they replaced, kept here as the reference.  The
reports must be equal, and so must their text, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srmarket.axioms import (
    SearchConfig,
    _failure,
    _improved,
    _scenario_candidates,
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
)

CHECKS = {"WN": check_wn, "TN": check_tn, "PN": check_pn}


def _cash_level(net) -> float:
    flat, level = contract_is_constant(net)
    return level if flat else -math.inf


# axiom -> (analytic-candidate hook, value of held + trade, entries kept)
REFERENCE = {
    "WN": ("wn_candidate", lambda net: contract_bounds(net)[0], None),
    "TN": ("tn_candidate", _cash_level, 80),
    "PN": ("pn_candidate", _cash_level, 80),
}


def reference(axiom, rule, scenarios, cfg) -> AxiomReport:
    """The per-scenario contract loop: each held position, trade and net is
    built as a contract, rescoring its reports, one candidate at a time."""
    hook, value, cap = REFERENCE[axiom]
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
            held, state = rule.trade_contract(scenario[0], scenario[1]), scenario[2]
        if contract_is_constant(held)[0]:
            degenerate += 1
            continue
        base, _ = contract_bounds(held)
        tried = []
        for c in _scenario_candidates(rule, state, cfg,
                                      getattr(rule, hook)(*scenario)):
            tried.append(c)
            best = value(combine([held, rule.trade_contract(state, c)],
                                 [1.0, 1.0]))
            if _improved(best, base, cfg.delta):
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
    """A payoff matrix with analytic candidates: the held trade's start when
    the market stands at its end (an unwind), else a label picked from the
    scenario, or a report outside the space, which no check may try."""

    def wn_candidate(self, r1, r1p, r2):
        if r2 == r1p:
            return r1
        labels = self.report_space.labels
        k = labels.index(r1) + 2 * labels.index(r2)
        return labels[k % len(labels)] if k % 3 else 0

    tn_candidate = wn_candidate

    def pn_candidate(self, trades, r):
        return self.wn_candidate(trades[0][0], trades[-1][1], r)


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
    if got.verdict == FAILS and cfg.delta == SearchConfig.delta:
        # a replay judges with the default margin
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
