"""``expected_payoff`` on the real line: the moment table's reader against
an exact rational reference and the cell-by-cell implementation it
replaced, kept here, ``stack_scores`` on padded rows against each row's
contract, and property tests of the expectation itself."""

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from srmarket.contracts import (
    IDENTITY,
    INF,
    REAL_LINE,
    SEARCH_XTOL,
    SIGMOID,
    cdf_belief,
    combine,
    contract_bounds,
    expected_payoff,
    piecewise_contract,
    sigmoid,
    softplus,
    uniform_belief,
)
from srmarket.convex import brent_max, quadratic
from srmarket.scoring import ExpectationRule, ExpectileRule, QuantileRule, ScoringRule


def power_integral(T, k, a, b):
    """Integral of T(y)**k dy over a finite [a, b]."""
    if k == 0:
        return b - a
    if T is SIGMOID:
        # d/dy [softplus(y) - sigmoid(y)] = s - s(1 - s) = s^2
        def anti(y):
            return softplus(y) if k == 1 else softplus(y) - sigmoid(y)
        return anti(b) - anti(a)
    return (b ** (k + 1) - a ** (k + 1)) / (k + 1)


def reference_expected_payoff(d, p):
    """E_p d(Y) on the real line, cell by cell as before the moment table:
    per cell, the CDF at both ends, interpolated with its end values set to
    0 and 1 as the moment table sets them, the piece from a bisection at the
    lower end, and the power integrals of t.  Each integral takes the
    density before its coefficient: a tiny coefficient times a narrow
    cell's width would round to a subnormal and lose its digits."""
    T = d.transform
    lo, hi = p.support()
    fs = np.array(p.fs)
    fs[0], fs[-1] = 0.0, 1.0
    cuts = set(float(x) for x in p.xs)
    cuts.update(b for b in d.ends if lo < b < hi)
    edges = sorted(cuts)
    total = []
    los = [-INF, *d.ends]
    for a, b in zip(edges, edges[1:]):
        fa, fb = np.interp([a, b], p.xs, fs).tolist()
        dens = (fb - fa) / (b - a)
        if dens == 0.0:
            continue
        i = max(bisect_right(los, a) - 1, 0)
        cell = 0.0
        for k, c in enumerate(d.pieces[i]):
            if c != 0.0:
                cell += c * (dens * power_integral(T, k, a, b))
        total.append(cell)
    return float(math.fsum(total))


def exact_expected_payoff(d, p):
    """E_p d(Y) in rational arithmetic, for the identity transform: the
    belief's CDF with its end values set to 0 and 1, each cell of knots and
    breakpoints taking the piece at its lower end, and the exact integrals
    of t = y."""
    F = Fraction
    xs = [F(x) for x in p.xs]
    fs = [F(f) for f in p.fs]
    fs[0], fs[-1] = F(0), F(1)
    lo, hi = p.support()
    cuts = set(xs)
    cuts.update(F(b) for b in d.ends if lo < b < hi)
    edges = sorted(cuts)
    los = [-INF, *d.ends]
    total = F(0)
    for a, b in zip(edges, edges[1:]):
        i = bisect_right(xs, a) - 1
        dens = (fs[i + 1] - fs[i]) / (xs[i + 1] - xs[i])
        coeffs = d.pieces[max(bisect_right(los, a) - 1, 0)]
        total += dens * sum(F(c) * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                            for k, c in enumerate(coeffs))
    return total


def assert_within_reference_error(d, p):
    """The moment table's error against the exact value is at most the
    cell-by-cell reference's plus 4 ulps of the payoff's sup on the
    support; on the sigmoid, whose integrals have no rational form, it is
    within 1e-12 of that sup of the cell reference, and never less than 4
    ulps of the sup, which 1e-12 of a subnormal sup would underflow."""
    got = expected_payoff(d, p)
    scale = _sup_on_support(d, p)
    try:
        ref = reference_expected_payoff(d, p)
    except ValueError:  # fsum of inf and -inf
        ref = math.nan
    if d.transform is SIGMOID:
        if math.isfinite(ref):
            assert abs(got - ref) <= max(1e-12 * scale, 4 * math.ulp(scale))
        else:
            # the reference overflows on a cell narrower than the CDF's rounding
            assert math.isfinite(got)
        return
    exact = exact_expected_payoff(d, p)
    ref_err = abs(Fraction(ref) - exact) if math.isfinite(ref) else 0
    assert abs(Fraction(got) - exact) <= ref_err + 4 * Fraction(math.ulp(scale))


# Belief knots and contract breakpoints draw from one pool, so they often
# coincide.
POOL = [-3.0, -1.0, -0.25, 0.0, 0.5, 2.0, 7.5]
POINTS = st.one_of(st.sampled_from(POOL),
                   st.floats(-20.0, 20.0, allow_nan=False))
# multiples of 1/16: cells no narrower than that, where the closed-form
# integrals keep their relative precision
GRID_POINTS = st.one_of(st.sampled_from(POOL),
                        st.integers(-320, 320).map(lambda k: k / 16.0))
COEFFS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.3, -0.7, 1e-13]),
                   st.floats(-1e3, 1e3, allow_nan=False))
# CDF end values off by up to the 1e-12 that cdf_belief accepts
F_FIRST = st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -1e-12])
F_LAST = st.sampled_from([1.0, 1.0 - 1e-13, 1.0 + 1e-13, 1.0 - 1e-12, 1.0 + 9.9e-13])


def _distinct(draw, points, min_size, max_size):
    return sorted(set(draw(st.lists(points, min_size=min_size, max_size=max_size))))


TRANSFORMS = st.sampled_from([IDENTITY, SIGMOID])


@st.composite
def contracts(draw, points=POINTS, transform=None):
    """Piecewise contracts of 1-6 pieces, zero coefficients included."""
    if transform is None:
        transform = draw(TRANSFORMS)
    ends = _distinct(draw, points, 0, 5)
    m = len(ends) + 1
    flat = draw(st.lists(COEFFS, min_size=3 * m, max_size=3 * m))
    return piecewise_contract(ends, [tuple(flat[3 * i:3 * i + 3]) for i in range(m)],
                              transform)


@st.composite
def beliefs(draw, points=POINTS):
    """Piecewise-linear CDFs of 1-7 cells with end values off by <= 1e-12."""
    xs = _distinct(draw, points, 2, 8)
    if len(xs) < 2:
        xs = [xs[0], xs[0] + 1.0]
    steps = draw(st.lists(st.floats(0.05, 1.0), min_size=len(xs) - 1,
                          max_size=len(xs) - 1))
    fs = np.concatenate([[0.0], np.cumsum(steps)]) / sum(steps)
    fs[0] = draw(F_FIRST)
    fs[-1] = draw(F_LAST)
    # cdf_belief rejects knots so close that the density overflows
    with np.errstate(over="ignore"):
        assume(np.isfinite(np.diff(fs) / np.diff(xs)).all())
    return cdf_belief(xs, fs)


def _split(coeffs, cuts, transform=IDENTITY):
    return piecewise_contract(cuts, [coeffs] * (len(cuts) + 1), transform)


# breakpoints on every knot of the belief; the belief's end values are off
# by the most cdf_belief accepts
ON_KNOTS = (_split((0.3, -0.7, 1.0), [-1.0, 0.5, 2.0]),
            cdf_belief([-1.0, 0.5, 2.0], [1e-12, 0.4, 1.0 - 1e-12]))
# breakpoints on an inner knot and on both ends of the support, and one
# between knots
AT_KNOTS = (_split((1.0, 2.0, -0.5), [-1.0, 0.0, 1.0, 2.0]),
            cdf_belief([-1.0, 0.25, 1.0, 2.0], [1e-13, 0.3, 0.6, 1.0]))
# the all-cash contract, of one piece
CASH = piecewise_contract((), ((1.0, 0.0, 0.0),))


# most of the mass far from the first knot: re-centred there rather than at
# the mean of t, the table's terms reach 4 times the payoff's sup and its
# error 7.2 ulps of it beyond the reference's
FAR_FROM_X0 = (_split((853.8888989939592, 417.5896447351247, -293.08996030284356), []),
               cdf_belief([-20.0, -3.5516027155689898, -0.25, -0.0, 0.44313096706163807,
                           2.0, 8.49836555044185],
                          [-1e-13, 0.07461065271685248, 0.19548369445010044,
                           0.3259796274998148, 0.579646677212618, 0.7724026405790537,
                           0.999999999999]))


# t^2 on [-3, 0] under a CDF whose end value is 1 - 1e-12: a cell reference
# that read the raw end value was off by 1.02e-12 of the sup, 1
SIGMOID_RAW_END = (piecewise_contract([-3.0, 0.0], [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                                                  (-1.0, 0.0, 0.0)], SIGMOID),
                   cdf_belief([-3.0, 0.125], [0.0, 1.0 - 1e-12]))
# a subnormal sup, 5e-324, where 1e-12 of it underflows to 0
SIGMOID_SUBNORMAL = (piecewise_contract([-3.0], [(0.0, 0.0, 0.0), (5e-324, 0.0, 0.0)],
                                        SIGMOID),
                     cdf_belief([-3.0, -1.0, -0.25], [0.0, 4.0 / 7.0, 1.0]))


@settings(max_examples=300, deadline=None)
@given(contracts(), beliefs())
@example(*ON_KNOTS)
@example(*AT_KNOTS)
@example(*FAR_FROM_X0)
@example(*SIGMOID_RAW_END)
@example(*SIGMOID_SUBNORMAL)
def test_matches_exact_reference(d, p):
    assert_within_reference_error(d, p)


@st.composite
def contract_rows(draw):
    """1-6 contracts in one coordinate, of 1-6 pieces each."""
    transform = draw(TRANSFORMS)
    return [draw(contracts(transform=transform))
            for _ in range(draw(st.integers(1, 6)))]


class Listed(ScoringRule):
    """A rule whose report k pays the k-th of the given contracts."""

    outcome_space = REAL_LINE

    def __init__(self, ds):
        self.ds = ds
        self.transform = ds[0].transform

    def score_contract(self, r):
        return self.ds[r]


# pays 0 below 1e300 and 1e300 from there; under this belief the integrals
# of t and t^2 overflow, which only zero coefficients read
FAR = (piecewise_contract([1e300], [(0.0, 0.0, 0.0), (1e300, 0.0, 0.0)]),
       cdf_belief([0.0, math.nextafter(1e300, 0.0), 1e300], [0.0, 0.5, 1.0]))


@settings(max_examples=200, deadline=None)
@given(contract_rows(), beliefs())
@example([ON_KNOTS[0], _split((1.0, 0.0, 0.0), [])], ON_KNOTS[1])
@example([AT_KNOTS[0], _split((0.0, 1.0, 1.0), [-1.0, 0.5])], AT_KNOTS[1])
@example([FAR[0], CASH], FAR[1])
def test_stack_scores_read_each_padded_row_as_its_contract(ds, p):
    # score_stack pads rows of fewer pieces with +inf ends and zero pieces,
    # and the one reader reads such a row as the contract it pads
    rule = Listed(ds)
    got = rule.stack_scores(*rule.score_stack(range(len(ds))), p)
    assert got.shape == (len(ds),)
    assert np.array([expected_payoff(d, p) for d in ds]).tobytes() == \
        got.tobytes()


def test_quantile_far_from_the_origin_finds_the_median():
    # centred on the belief, the expected scores near 1e7 cancel no terms of
    # 1e14; in t itself their noise was above the curvature, and the pick
    # 1e7 + 0.4604
    p = uniform_belief(1e7, 1e7 + 1.0)
    assert abs(QuantileRule(0.5).best_response(p) - (1e7 + 0.5)) <= 1e-6
    assert abs(p.mean() - (1e7 + 0.5)) <= 1e-8


@pytest.mark.parametrize("x", [1.0, 1e300])
def test_each_cell_takes_the_piece_at_its_lower_end(x):
    # d pays 0 below x and x from x on; the belief puts half its mass on the
    # one-ulp cell below x, whose midpoint rounds onto x
    d = piecewise_contract([x], [(0.0, 0.0, 0.0), (x, 0.0, 0.0)])
    p = cdf_belief([0.0, math.nextafter(x, 0.0), x], [0.0, 0.5, 1.0])
    assert expected_payoff(d, p) == 0.0


def _elicitation_beliefs(rng, count, cells=6):
    """Piecewise-linear CDFs drawn the way the elicitation benchmark draws them."""
    out = []
    for _ in range(count):
        xs = rng.uniform(-2.0, 2.0) + np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.3, 1.2, cells))])
        fs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, cells))])
        fs = fs / fs[-1]
        fs[-1] = 1.0
        out.append(cdf_belief(xs, fs))
    return out


def test_rule_contracts_match_reference():
    rng = np.random.default_rng(401)
    rules = [ExpectationRule(quadratic(1)), QuantileRule(0.3),
             QuantileRule(0.7, SIGMOID), ExpectileRule(0.3)]
    checked = 0
    for rule in rules:
        for p in _elicitation_beliefs(rng, 15):
            lo, hi = p.support()
            # reports inside, outside and on the knots of the belief
            reports = ([float(r) for r in rng.uniform(lo - 1.0, hi + 1.0, 8)]
                       + [float(x) for x in p.xs])
            for r0, r1 in zip(reports, reports[1:]):
                for d in (rule.score_contract(r1), rule.trade_contract(r0, r1)):
                    assert_within_reference_error(d, p)
                    checked += 1
    assert checked == 4 * 15 * 14 * 2


def old_best_response(rule, p):
    """``best_response`` on the cell-by-cell reference: the argmax of 201
    reports over the belief's support padded by 1 + 0.1 of its width, then
    ``brent_max`` between its neighbours."""
    def f(r):
        return reference_expected_payoff(rule.score_contract(r), p)
    a, b = p.support()
    pad = 1.0 + 0.1 * (b - a)
    grid = [float(v) for v in np.linspace(a - pad, b + pad, 201)]
    i = int(np.argmax([f(r) for r in grid]))
    return brent_max(f, grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)],
                     SEARCH_XTOL)


def test_real_line_picks_match_old_picks_and_property():
    rng = np.random.default_rng(402)
    rules = [ExpectationRule(quadratic(1)), QuantileRule(0.3),
             QuantileRule(0.7, SIGMOID), ExpectileRule(0.3)]
    for rule in rules:
        for p in _elicitation_beliefs(rng, 4):
            r = rule.best_response(p)
            tol = 1e-6 * (1.0 + abs(r))
            assert abs(r - old_best_response(rule, p)) <= tol
            assert abs(r - rule.property_value(p)) <= tol


def _sup_on_support(d, p):
    """A bound on |d| over the belief's support: every addend of the
    expectation is at most the cell's probability times this."""
    T = d.transform
    lo, hi = p.support()
    t = max(abs(T(lo)), abs(T(hi)))
    return max(abs(c0) + abs(c1) * t + abs(c2) * t * t
               for c0, c1, c2 in d.pieces)


WEIGHTS = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 0.5, -2.5]),
                    st.floats(-10.0, 10.0, allow_nan=False))


@st.composite
def same_coordinate_pairs(draw):
    transform = draw(TRANSFORMS)
    return (draw(contracts(GRID_POINTS, transform)),
            draw(contracts(GRID_POINTS, transform)))


@settings(max_examples=200, deadline=None)
@given(same_coordinate_pairs(), WEIGHTS, WEIGHTS, beliefs(GRID_POINTS))
def test_linear_in_the_contract(pair, a, b, p):
    d1, d2 = pair
    lhs = expected_payoff(combine([d1, d2], [a, b]), p)
    rhs = a * expected_payoff(d1, p) + b * expected_payoff(d2, p)
    scale = abs(a) * _sup_on_support(d1, p) + abs(b) * _sup_on_support(d2, p)
    assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0)


@settings(max_examples=200, deadline=None)
@given(contracts(GRID_POINTS), beliefs(GRID_POINTS))
def test_within_contract_bounds(d, p):
    lo, hi = contract_bounds(d)
    e = expected_payoff(d, p)
    slack = 1e-10 * max(_sup_on_support(d, p), 1.0)
    assert lo - slack <= e <= hi + slack


@settings(max_examples=100, deadline=None)
@given(TRANSFORMS, st.lists(POINTS, max_size=4), beliefs())
def test_cash_integrates_to_one(transform, cuts, p):
    assert abs(expected_payoff(CASH, p) - 1.0) <= 1e-12
    ones = _split((1.0, 0.0, 0.0), sorted(set(cuts)), transform)
    assert abs(expected_payoff(ones, p) - 1.0) <= 1e-12
