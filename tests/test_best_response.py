"""The best response over one continuous report dimension: a single
``brent_max`` over the bracket of ``_search_bracket``, which scores no grid
and agrees with the statistic ``property_value`` evaluates."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srmarket.contracts import SIGMOID, cdf_belief, finite_belief
from srmarket.convex import binary_negentropy, interval_negentropy, quadratic
from srmarket.costmarket import SEARCH_BOUND, binary_lmsr_rule
from srmarket.scoring import (
    ExpectationRule,
    ExpectileRule,
    QuantileRule,
    RatioRule,
)


def ratio_rule():
    return RatioRule(interval_negentropy(0.0, 3.0), [0.0, 1.0, 3.0],
                     [2.0, 1.0, 1.0])


def entropy_rule():
    return ExpectationRule(binary_negentropy(), phi=[[0.0], [1.0]])


# every bundled family with one continuous report dimension
FAMILIES = {
    "mean": lambda: ExpectationRule(quadratic(1)),
    "quantile": lambda: QuantileRule(0.3),
    "quantile_sigmoid": lambda: QuantileRule(0.7, SIGMOID),
    "expectile": lambda: ExpectileRule(0.3),
    "ratio": ratio_rule,
    "entropy": entropy_rule,
    "lmsr": binary_lmsr_rule,
}


def _beliefs(rule, rng, count):
    """Seeded beliefs of the rule's kind: piecewise-linear CDFs drawn the
    way the elicitation benchmark draws them, or pmfs whose components are
    at least 0.05, or, for a quarter of them, at least 0.001."""
    out = []
    for i in range(count):
        if rule.outcome_space.is_finite:
            n = rule.outcome_space.n
            floor = 0.001 if i % 4 == 0 else 0.05
            pmf = floor + (1.0 - n * floor) * rng.dirichlet(np.ones(n))
            out.append(finite_belief(rule.outcome_space, pmf))
            continue
        xs = rng.uniform(-2.0, 2.0) + np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.3, 1.2, 6))])
        fs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, 6))])
        fs = fs / fs[-1]
        fs[-1] = 1.0
        out.append(cdf_belief(xs, fs))
    return out


def assert_agrees(rule, p):
    r = rule.best_response(p)
    assert abs(r - rule.property_value(p)) <= 1e-6 * (1.0 + abs(r))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_search_scores_no_grid_and_probes_at_most_60_times(name):
    rule = FAMILIES[name]()

    def no_grid(*args):
        raise AssertionError("best_response scored a grid")
    rule.score_stack = rule.grid_scores = no_grid
    score = rule.expected_score
    probes = [0]

    def counted(r, p):
        probes[0] += 1
        return score(r, p)
    rule.expected_score = counted
    for p in _beliefs(rule, np.random.default_rng(41), 20):
        probes[0] = 0
        assert_agrees(rule, p)
        assert probes[0] <= 60, probes[0]


@st.composite
def cdf_beliefs(draw, top=None):
    """Piecewise-linear CDFs of 1 to 6 cells, from 1e-3 to 5 wide, with
    masses at least 1e-3 of the largest, starting in [-20, 20]; with
    ``top``, cells at most 1 wide and a support ending below it."""
    n = draw(st.integers(1, 6))
    loc = draw(st.floats(-20.0, 20.0 if top is None else top - 6.0))
    widths = draw(st.lists(st.floats(1e-3, 5.0 if top is None else 1.0),
                           min_size=n, max_size=n))
    masses = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    xs = loc + np.concatenate([[0.0], np.cumsum(widths)])
    fs = np.concatenate([[0.0], np.cumsum(masses)])
    fs = fs / fs[-1]
    fs[-1] = 1.0
    return cdf_belief(xs, fs)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["mean", "quantile", "expectile"]),
       st.floats(0.01, 0.99), cdf_beliefs())
def test_real_line_picks_agree_with_the_statistic(family, level, p):
    # a level near 0 or 1 puts a quantile or expectile near an end of the
    # support, 1 + 0.1 of its width inside the bracket's end
    rule = {"mean": lambda: ExpectationRule(quadratic(1)),
            "quantile": lambda: QuantileRule(level),
            "expectile": lambda: ExpectileRule(level)}[family]()
    assert_agrees(rule, p)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 0.99), cdf_beliefs(top=10.0))
def test_sigmoid_quantile_picks_agree_with_the_quantile(level, p):
    # supports end below y = 10: further up the expected score in the
    # coordinate sigmoid(y), near 1, rounds coarser than its curvature, and
    # the pick for a uniform belief on [14, 15] is 14.5 + 2.1e-5
    rule = QuantileRule(level, SIGMOID)
    assert_agrees(rule, p)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.001, 0.999))
@example(0.001)
@example(0.999)
def test_entropy_picks_agree_with_the_mean(q):
    # the bracket is the report box [0, 1] inset by BRACKET_PAD of its span
    rule = entropy_rule()
    assert_agrees(rule, finite_belief(rule.outcome_space, [1.0 - q, q]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.001, 1.0), min_size=3, max_size=3))
@example([1.0, 0.001, 0.001])
@example([0.001, 0.001, 1.0])
def test_ratio_picks_agree_with_the_ratio(weights):
    # mass near the first or the last outcome puts the ratio of
    # expectations near 0 or 3, the ends of the report box
    rule = ratio_rule()
    pmf = np.asarray(weights) / sum(weights)
    assert_agrees(rule, finite_belief(rule.outcome_space, pmf))


@settings(max_examples=200, deadline=None)
@given(st.floats(0.001, 0.999))
@example(0.001)
@example(0.999)
def test_lmsr_picks_agree_with_the_share_state(q):
    # a pmf belief has no support: the bracket is the share states within
    # SEARCH_BOUND of zero, and logit(0.001) = -6.9
    rule = binary_lmsr_rule()
    assert rule._search_bracket(None) == (-SEARCH_BOUND, SEARCH_BOUND)
    assert_agrees(rule, finite_belief(rule.outcome_space, [1.0 - q, q]))
