"""One expected-score reader: ``ScoringRule.stack_scores`` reads E_p of each
row of a ``score_stack``, and ``grid_scores`` is it on the reports' stack.
Each value must equal ``expected_score`` of its report bit for bit, on
either outcome kind, and a finite grid must reject its reports as the
row-by-row path it replaced did.  Over a finite space one report's payoff
row, scored in Python floats, must equal its row of the score table bit for
bit, and ``expected_payoff`` of its contract its expected score."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_real_line_tables import RULES, grids, quadratic_mean_rule
from test_score_table import finite_rules

from srmarket.axioms import random_beliefs_for
from srmarket.contracts import (
    SIGMOID,
    OutcomeMismatch,
    OutcomeSpace,
    PayoffOverflow,
    expected_payoff,
    finite_belief,
)
from srmarket.convex import (
    binary_negentropy,
    interval_negentropy,
    quadratic,
    simplex_negentropy,
)
from srmarket.costmarket import binary_lmsr_rule, discretized_lmsr_rule
from srmarket.scoring import (
    ExpectationRule,
    ExpectileRule,
    FiniteRule,
    InvalidReport,
    ModeRule,
    QuantileRule,
    RatioRule,
    _finite_values,
)

NAMED_FINITE_RULES = [
    ModeRule(4),
    ExpectationRule(binary_negentropy(), phi=[[0.0], [1.0]]),
    ExpectationRule(simplex_negentropy(2), phi=[[0, 0], [1, 0], [0, 1]]),
    ExpectationRule(quadratic(1, lo=[-2.0], hi=[3.0]), phi=[0.0, 1.0, 2.5]),
    RatioRule(interval_negentropy(0.0, 3.0), [0.0, 1.0, 3.0], [2.0, 1.0, 1.0]),
    binary_lmsr_rule(),
    discretized_lmsr_rule(),
]
NAMED_FINITE = st.sampled_from(NAMED_FINITE_RULES)


@st.composite
def finite_cases(draw):
    rule = draw(st.one_of(NAMED_FINITE, finite_rules()))
    reports = draw(st.lists(st.sampled_from(rule.report_grid(9)), min_size=1,
                            max_size=12))
    return rule, reports


@st.composite
def real_line_cases(draw):
    rule = draw(RULES)
    return rule, draw(grids(max_points=30))


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=80, deadline=None)
@given(case=st.one_of(finite_cases(), real_line_cases()),
       seed=st.integers(0, 2 ** 16))
def test_grid_scores_are_expected_scores_bit_for_bit(case, seed):
    rule, reports = case
    for p in random_beliefs_for(rule, np.random.default_rng(seed), 3):
        want = [rule.expected_score(r, p) for r in reports]
        assert bits(rule.grid_scores(reports, p)) == bits(want)
        assert bits(rule.stack_scores(*rule.score_stack(reports), p)) == bits(want)


@settings(max_examples=80, deadline=None)
@given(case=finite_cases(), seed=st.integers(0, 2 ** 16))
def test_one_report_is_its_table_row_bit_for_bit(case, seed):
    rule, reports = case
    for r in reports:
        assert bits(rule.score_list(r)) == bits(rule.score_rows([r])[0])
    for p in random_beliefs_for(rule, np.random.default_rng(seed), 3):
        for r in reports:
            assert bits(expected_payoff(rule.score_contract(r), p)) == \
                bits(rule.expected_score(r, p))


def row_by_row(rule, reports, p):
    """The finite ``grid_scores`` that ``stack_scores`` replaced: each
    report validated and scored alone, then one dot product per row."""
    return _finite_values([rule.score_list(r) for r in reports], rule._pmf(p))


def raised(f, *args):
    with pytest.raises(ValueError) as info:
        f(*args)
    return type(info.value), str(info.value)


def test_a_finite_grid_rejects_reports_as_row_by_row():
    inf = float("inf")
    rule = FiniteRule([[inf, 0.0], [0.0, 1.0], [1.0, 0.0]],
                      OutcomeSpace.finite((0, 1)))
    p = finite_belief(rule.outcome_space, [0.5, 0.5])
    # the first report outside the report space raises, even after a row
    # that overflows; a row that overflows raises once every report is valid
    for reports, error in (([2, 4, 5], InvalidReport), ([1, 2, 7], InvalidReport),
                           ([2, 1, 3], PayoffOverflow)):
        got = raised(rule.grid_scores, reports, p)
        assert got == raised(row_by_row, rule, reports, p)
        assert got[0] is error
    assert raised(rule.grid_scores, [2, 4, 5], p)[1] == \
        "report 4 outside the report space"


@pytest.mark.parametrize("rule", [
    QuantileRule(0.5), QuantileRule(0.3, SIGMOID), ExpectileRule(0.3),
    quadratic_mean_rule(1.0, 0.0)], ids=["quantile", "sigmoid", "expectile",
                                         "mean"])
def test_an_empty_real_line_stack_checks_the_belief_kind(rule):
    # the belief's moment table is fetched before any row is read
    pmf = finite_belief(OutcomeSpace.finite([0, 1]), [0.5, 0.5])
    with pytest.raises(OutcomeMismatch):
        rule.grid_scores([], pmf)
