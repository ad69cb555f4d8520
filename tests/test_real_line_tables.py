"""Real-line ARB, IC and WCL score each grid report once: a differential
test against the per-pair paths they replaced, kept here as the references
(WCL's is ``test_score_table.reference_check_wcl``).

ARB: every infimum of a trade that ``contracts.sum_rows`` sums must equal
``contract_bounds(trade_contract(r, r'))`` bit for bit, and ``check_arb``'s
report must equal the per-pair scan's to the byte; so must every sup, which
WCL reads.  IC: the expected trade
payoffs are now differences of expected scores, equal to the per-trade
values within rounding, so each argmax must be the reference's or tied
with it in the reference values, and verdicts must agree.  WCL: the report
must equal the per-report trades' to the byte.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_score_table import assert_ic_values_match, reference_check_ic, \
    reference_check_wcl

from srmarket import axioms, scoring
from srmarket.axioms import (
    SearchConfig,
    _is_exhaustive,
    _j,
    check_arb,
    check_ic,
    check_wcl,
    random_cdf_belief,
)
from srmarket.cli import build_rule, build_search, bundled_config_names, \
    load_config
from srmarket.contracts import (
    IDENTITY,
    INF,
    SIGMOID,
    STRUCT_TOL,
    OutcomeMismatch,
    OutcomeSpace,
    PayoffOverflow,
    Piece,
    PiecewiseLinearTransform,
    combine,
    contract_bounds,
    contract_pieces,
    expected_scores,
    finite_belief,
    piecewise_contract,
    sum_rows,
    uniform_belief,
)
from srmarket.convex import ConvexFn
from srmarket.reports import FAILS, HOLDS, HOLDS_AT_BUDGET, AxiomReport
from srmarket.scoring import (
    ExpectationRule,
    ExpectileRule,
    InvalidReport,
    ModeRule,
    QuantileRule,
    ScoringRule,
)


# ---------------------------------------------------------------------------
# the per-pair paths, as they were before the coefficient table


def reference_arb_scan(rule, grid, delta):
    worst = -INF
    bad = []
    for r in grid:
        for rp in grid:
            lo, _ = contract_bounds(rule.trade_contract(r, rp))
            if lo > worst:
                worst = lo
            if lo > delta:
                bad.append({"r": _j(r), "r_new": _j(rp), "inf": lo})
                if len(bad) >= 10:
                    return worst, bad
    return worst, bad


def reference_check_arb(rule, grid, cfg=SearchConfig()):
    worst, bad = reference_arb_scan(rule, grid, cfg.delta)
    if bad:
        return AxiomReport(axiom="ARB", verdict=FAILS, margin=worst,
                           witness={"pairs": bad},
                           budget={"grid": len(grid)})
    verdict = HOLDS if _is_exhaustive(rule, grid) else HOLDS_AT_BUDGET
    return AxiomReport(axiom="ARB", verdict=verdict, margin=worst,
                       budget={"grid": len(grid),
                               "pairs": len(grid) ** 2})


def quantile_trade_min(rule, r, rp):
    """Closed-form infimum of a quantile trade r -> rp: upward trades bottom
    out at (alpha - 1)(g(rp) - g(r)) on outcomes below r, downward trades
    at alpha (g(rp) - g(r)) on outcomes above r."""
    g = rule.transform
    if rp > r:
        return (rule.alpha - 1.0) * (g(rp) - g(r))
    if rp < r:
        return rule.alpha * (g(rp) - g(r))
    return 0.0


class CashBonus(ScoringRule):
    """A real-line rule paying ``slope * t(r)`` in cash on top of a quantile
    score, t the rule's coordinate: arbitrage and a shifted argmax once the
    slope exceeds what an upward trade can lose."""

    family = "cash_bonus"

    def __init__(self, base: QuantileRule, slope: float):
        self.base, self.slope = base, slope
        self.transform = base.transform
        self.outcome_space = base.outcome_space
        self.report_space = base.report_space

    def score_contract(self, r):
        c = self.base.score_contract(r)
        bonus = self.slope * c.transform(r)
        return piecewise_contract(
            [Piece(p.lo, p.hi, (p.coeffs[0] + bonus,) + p.coeffs[1:])
             for p in c.pieces], c.transform)

    def property_value(self, p):
        return self.base.property_value(p)


def quadratic_mean_rule(a: float, b: float) -> ExpectationRule:
    """Mean rule of the potential G(x) = a x^2 + b x."""
    pot = ConvexFn(dim=1, value_fn=lambda x: float(a * x[0] ** 2 + b * x[0]),
                   grad_fn=lambda x: 2.0 * a * x + b,
                   lo=np.array([-INF]), hi=np.array([INF]))
    return ExpectationRule(pot)


# ---------------------------------------------------------------------------
# generated rules and grids

LEVELS = st.one_of(st.sampled_from([0.5, 0.3, 0.7, 0.05, 0.95]),
                   st.floats(0.01, 0.99))


@st.composite
def pwlinear_transforms(draw):
    x0 = draw(st.floats(-6.0, 2.0))
    gaps = draw(st.lists(st.floats(0.05, 4.0), min_size=1, max_size=4))
    slopes = draw(st.lists(st.floats(0.05, 5.0), min_size=len(gaps),
                           max_size=len(gaps)))
    xs = [x0] + [x0 + float(v) for v in np.cumsum(gaps)]
    ts = [0.0] + [float(v) for v in np.cumsum(np.multiply(slopes, gaps))]
    return PiecewiseLinearTransform(xs, ts)


TRANSFORMS = st.one_of(st.just(IDENTITY), st.just(SIGMOID),
                       pwlinear_transforms())


@st.composite
def quantile_rules(draw):
    return QuantileRule(draw(LEVELS), draw(TRANSFORMS))


@st.composite
def expectile_rules(draw):
    g = (draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)),
         draw(st.one_of(st.just(1.0), st.floats(0.01, 10.0))))
    return ExpectileRule(draw(LEVELS), g)


@st.composite
def mean_rules(draw):
    return quadratic_mean_rule(draw(st.one_of(st.just(1.0),
                                              st.floats(0.01, 10.0))),
                               draw(st.floats(-5.0, 5.0)))


RULES = st.one_of(quantile_rules(), expectile_rules(), mean_rules())

# reports 1e-13 apart leave rounding residue in trade coefficients, which
# the snap clears; at 1e17 they lie beyond 2**53, where adjacent floats are
# more than 1.0 apart
WIDTHS = st.sampled_from([1e-13, 1e-9, 0.5, 3.0, 40.0, 1e6, 1e17])


@st.composite
def grids(draw, rule, max_points=60):
    """2-60 reports: a linspace, reports repeated, the transform's kinks,
    sometimes shuffled."""
    n = draw(st.integers(2, max_points))
    centre = draw(st.floats(-3.0, 3.0))
    width = draw(WIDTHS)
    grid = [float(v) for v in np.linspace(centre - width, centre + width, n)]
    transform = getattr(rule, "transform", IDENTITY)
    extra = list(transform.kinks())
    extra += draw(st.lists(st.sampled_from(grid), max_size=4))
    grid = (grid + extra)[:max_points]
    if draw(st.booleans()):
        grid = draw(st.permutations(grid))
    return grid


def trade_rows(stack, transform):
    """For each row i of a score stack in turn, from one ``sum_rows``: the
    infimum and the sup of every trade from row i to a row j, and whether
    its payoffs are finite."""
    for i in range(len(stack[0])):
        _, rows = sum_rows([((stack, tuple(a[i:i + 1] for a in stack)),
                             (1.0, -1.0))], transform)
        yield rows.inf(), rows.sup(), rows.finite


def contract_rows(contracts):
    """``trade_rows`` of piecewise contracts."""
    return trade_rows(contract_pieces(contracts), contracts[0].transform)


def assert_arb_matches(rule, grid, cfg=SearchConfig()):
    for r, (los, sups, finite) in zip(grid, trade_rows(*rule.score_stack(grid))):
        assert finite.all()
        ref = [contract_bounds(rule.trade_contract(r, rp)) for rp in grid]
        assert los.tolist() == [lo for lo, _ in ref]
        assert sups.tolist() == [hi for _, hi in ref]
    assert check_arb(rule, grid, cfg).to_text() == \
        reference_check_arb(rule, grid, cfg).to_text()


# ---------------------------------------------------------------------------
# ARB


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_arb_infima_and_reports_match_per_pair_scan(data):
    rule = data.draw(RULES)
    assert_arb_matches(rule, data.draw(grids(rule)))


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_arbitrage_reports_match_per_pair_scan(data):
    # the bonus makes upward trades pay in every outcome: the scan stops at
    # the 10th pair above delta, often inside the first row
    base = data.draw(quantile_rules())
    slope = data.draw(st.sampled_from([0.0, 1.0, 1.5, 40.0]))
    rule = CashBonus(base, slope)
    grid = data.draw(grids(rule, max_points=30))
    assert_arb_matches(rule, grid)


def test_bundled_real_line_grids_match_per_pair_bounds():
    for rule in (QuantileRule(0.5, SIGMOID), quadratic_mean_rule(1.0, 0.0),
                 ExpectileRule(0.3)):
        assert_arb_matches(rule, SearchConfig(
            report_window=(-3.0, 3.0)).report_grid(rule))


@pytest.mark.parametrize("grid,last,margin", [
    # row 0 holds 10 hits before the largest infimum of the grid
    (range(12), {"r": 0.0, "r_new": 10.0, "inf": 15.0}, 15.0),
    # rows from 8 down to 4 hold 0, 1, 2, 3 and 4 upward hits
    (range(8, -1, -1), {"r": 4.0, "r_new": 5.0, "inf": 1.5}, 6.0)])
def test_scan_stops_at_the_tenth_pair(grid, last, margin):
    # worst covers the visited pairs only
    rule = CashBonus(QuantileRule(0.5), 2.0)
    grid = [float(v) for v in grid]
    rep = check_arb(rule, grid)
    assert rep.to_text() == reference_check_arb(rule, grid).to_text()
    assert len(rep.witness["pairs"]) == 10
    assert rep.witness["pairs"][-1] == last
    assert rep.margin == margin


def quantile_infimum_error(rule, r, rp):
    """How far the table's infimum of the quantile trade r -> rp may lie
    from ``quantile_trade_min``.

    Every operand either side sums is at most m = max(|g(r)|, |g(rp)|) in
    magnitude: the score coefficients (alpha - 1) g and alpha g, and, at
    the trade's piece ends t in {g(r), g(rp)}, the terms t (1 - alpha) and
    t alpha.  The table rounds the two score coefficients c0 and c1 of each
    side (4 roundings, the c1 ones scaled by |t| <= m), their differences
    (2), t c1 and c0 + t c1 (2); the closed form rounds g(rp) - g(r) and
    its product with alpha or alpha - 1 (2).  Each of these 10 roundings is
    at most half an ulp of a value below 2 m, so at most one ulp of m.
    Where a coefficient difference of two pieces lies within STRUCT_TOL of
    its operands, the table snaps it to 0, which moves the infimum by at
    most STRUCT_TOL m more."""
    g = rule.transform
    m = max(abs(g(r)), abs(g(rp)))
    snaps = any(a != b and abs(a - b) <= STRUCT_TOL * max(abs(a), abs(b))
                for x in rule.score_pieces(rp)[1] for y in rule.score_pieces(r)[1]
                for a, b in zip(x, y))
    return 10 * math.ulp(m) + (STRUCT_TOL * m if snaps else 0.0)


# reports at +-1e17 lie beyond 2**53, where adjacent floats are more than
# 1.0 apart
@settings(max_examples=30, deadline=None)
@given(LEVELS, st.sampled_from([IDENTITY, SIGMOID]), st.integers(2, 40),
       st.lists(st.floats(-8.0, 8.0), max_size=5),
       st.lists(st.sampled_from([-1e17, 1e17]), max_size=2))
# the trade -1e17 -> -6 sums coefficients of 9.5e16, whose ulp is 16: its
# infimum lies 7 from the closed form, 1.35e-15 of it
@example(0.9483226018895924, IDENTITY, 2, [], [-1e17])
def test_quantile_infima_match_closed_form(alpha, transform, n, inner, far):
    rule = QuantileRule(alpha, transform)
    grid = [float(v) for v in np.linspace(-6.0, 6.0, n)] + inner + far
    for r, (los, _, _) in zip(grid, trade_rows(*rule.score_stack(grid))):
        for rp, lo in zip(grid, los):
            assert abs(lo - quantile_trade_min(rule, r, rp)) <= \
                quantile_infimum_error(rule, r, rp)


def test_check_arb_builds_no_trade_contract():
    for rule in (QuantileRule(0.3, SIGMOID), ExpectileRule(0.7),
                 quadratic_mean_rule(1.0, 0.0)):
        with mock.patch.object(rule, "trade_contract",
                               side_effect=AssertionError("per-pair path")):
            check_arb(rule, cfg=SearchConfig(report_points=9))


def test_overflowing_trade_coefficients_are_rejected():
    # each score is finite; above both reports the trade's cash overflows
    rule = QuantileRule(0.9)
    with pytest.raises(ValueError, match="finite"):
        check_arb(rule, [-1e308, 1e308])


def test_an_invalid_report_raises_before_an_overflowing_one():
    # the whole grid is validated before any score is checked for overflow,
    # as ``score_table`` does over a finite space
    rule = ExpectileRule(0.5)
    for grid in ([0.0, 1e200, math.nan], [0.0, math.nan, 1e200]):
        with pytest.raises(InvalidReport):
            check_arb(rule, grid)
    with pytest.raises(PayoffOverflow):
        check_arb(rule, [0.0, 1e200])


# generated piecewise contracts reach what score contracts of one rule do
# not: quadratic tails (a vertex beyond the float range), breakpoints one
# float apart, and cells whose ends sum beyond the largest float
EDGES = st.one_of(
    st.sampled_from([-1.7e308, -1e308, -3.0, -1.0, 0.0, 1.0,
                     float(np.nextafter(1.0, 2.0)), 2.5, 1e17, 1e17 + 16.0,
                     1e308, 1.7e308]),
    st.floats(-50.0, 50.0))
COEFFS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.3, 0.1 + 0.2, 1e-13,
                                    1e-300, -1e-300, 1e10, -1e10]),
                   st.floats(-1e3, 1e3))


@st.composite
def contract_lists(draw):
    transform = draw(st.sampled_from([IDENTITY, SIGMOID]))
    out = []
    for _ in range(draw(st.integers(1, 8))):
        cuts = sorted(set(draw(st.lists(EDGES, max_size=3))))
        ends = [-INF] + cuts + [INF]
        flat = draw(st.lists(COEFFS, min_size=3 * (len(ends) - 1),
                             max_size=3 * (len(ends) - 1)))
        out.append(piecewise_contract(
            [Piece(lo, hi, tuple(flat[3 * k:3 * k + 3]))
             for k, (lo, hi) in enumerate(zip(ends, ends[1:]))], transform))
    if draw(st.booleans()):
        out.append(out[0])
    return out


def _tail(c1, c2):
    return piecewise_contract([Piece(-INF, 0.0, (0.0, c1, c2)),
                               Piece(0.0, INF, (0.0, 0.0, 0.0))])


# the lower tail of the trade is 1e10 t + 1e-300 t^2: its vertex overflows
# to -inf and decides the infimum
OVERFLOWED_VERTEX = [_tail(1e10, 1e-300), _tail(0.0, 0.0)]
# 0.3 - (0.1 + 0.2) is rounding residue, which the snap clears to 0.0
SNAPPED_RESIDUE = [_tail(0.0, 0.0), piecewise_contract(
    [Piece(-INF, INF, (0.3, 0.0, 0.0))]), piecewise_contract(
    [Piece(-INF, INF, (0.1 + 0.2, 0.0, 0.0))])]
# one polynomial on both sides of a breakpoint, one float from its vertex,
# where it rounds below its value at the vertex: compacted into one piece,
# the breakpoint is no candidate
_BOWL = (0.1, 4.127555772777217, 3.0371125210782273)
COMPACTED = [_tail(0.0, 0.0), piecewise_contract(
    [Piece(-INF, -0.6795197320038475, _BOWL),
     Piece(-0.6795197320038475, INF, _BOWL)])]

# beyond 2**53, the first cell [-inf, -1.7e308) takes the first piece; the
# second cell, whose ends sum past the largest float, takes the second
FAR_CELLS = [_tail(0.0, 0.0), piecewise_contract(
    [Piece(-INF, -1.7e308, (-9.0, 0.0, 0.0)),
     Piece(-1.7e308, -1e308, (3.0, 0.0, 0.0)),
     Piece(-1e308, INF, (2.0, 0.0, 0.0))])]


@settings(max_examples=200, deadline=None)
@given(contract_lists())
@example(OVERFLOWED_VERTEX)
@example(SNAPPED_RESIDUE)
@example(COMPACTED)
@example(FAR_CELLS)
def test_generated_contracts_match_combine_bounds(contracts):
    for i, (los, sups, finite) in enumerate(contract_rows(contracts)):
        assert finite.all()
        ref = [contract_bounds(combine([c, contracts[i]], [1.0, -1.0]))
               for c in contracts]
        assert los.tolist() == [lo for lo, _ in ref]
        assert sups.tolist() == [hi for _, hi in ref]


def test_overflowed_vertex_decides_the_infimum():
    rows = list(contract_rows(OVERFLOWED_VERTEX))
    assert rows[1][0][0] == -INF
    assert contract_bounds(combine(OVERFLOWED_VERTEX, [1.0, -1.0]))[0] == -INF


def test_contract_pieces_rejects_mixed_coordinates():
    with pytest.raises(OutcomeMismatch):
        contract_pieces([QuantileRule(0.5).score_contract(0.0),
                         QuantileRule(0.5, SIGMOID).score_contract(0.0)])
    with pytest.raises(OutcomeMismatch):
        contract_pieces([ModeRule([1, 2]).score_contract(1),
                         ModeRule([1, 3]).score_contract(1)])


# ---------------------------------------------------------------------------
# IC


def assert_ic_matches(rule, grid, states, beliefs):
    """Values within rounding of the per-trade ones; argmaxes equal or tied
    within 1e-12 of the expected scores' scale; verdicts equal when no
    tie decided a pick, and the reports equal when every pick agrees."""
    tied = assert_ic_values_match(rule, grid, states, beliefs)
    cfg = SearchConfig(report_points=len(grid))
    with mock.patch.object(SearchConfig, "report_grid",
                           lambda self, rule: list(grid)):
        rep = check_ic(rule, beliefs, cfg, states)
        ref = reference_check_ic(rule, beliefs, cfg, states)
    if tied:
        return
    assert rep.verdict == ref.verdict
    assert rep.margin == ref.margin
    got_w, ref_w = dict(rep.witness), dict(ref.witness)
    if "argmax_score" in ref_w:
        assert got_w.pop("argmax_score") == pytest.approx(
            ref_w.pop("argmax_score"), rel=1e-12, abs=1e-12)
    assert got_w == ref_w
    assert rep.budget == ref.budget


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ic_matches_per_trade_values(data):
    rule = data.draw(st.one_of(
        RULES, st.builds(CashBonus, quantile_rules(),
                         st.sampled_from([0.0, 0.5, 2.0]))))
    n = data.draw(st.integers(2, 60))
    lo = data.draw(st.floats(-6.0, 0.0))
    width = data.draw(st.floats(0.5, 10.0))
    grid = [float(v) for v in np.linspace(lo, lo + width, n)]
    grid += data.draw(st.lists(st.sampled_from(grid), max_size=3))
    states = data.draw(st.lists(
        st.one_of(st.sampled_from(grid), st.floats(-8.0, 8.0)),
        min_size=1, max_size=3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    beliefs = [random_cdf_belief(rng, (lo - 1.0, lo + width + 1.0))
               for _ in range(3)]
    assert_ic_matches(rule, grid, states, beliefs)


def test_bundled_real_line_ic_matches_per_trade_values():
    cfg = SearchConfig(report_window=(-3.0, 3.0), ic_beliefs=5, seed=7)
    for rule in (QuantileRule(0.5, SIGMOID), quadratic_mean_rule(1.0, 0.0),
                 ExpectileRule(0.3)):
        grid = cfg.report_grid(rule)
        states = [grid[0], grid[len(grid) // 2], grid[-1]]
        beliefs = axioms.random_beliefs_for(rule, cfg.rng(), cfg.ic_beliefs,
                                            cfg.report_window)
        assert_ic_matches(rule, grid, states, beliefs)


def test_ic_scores_each_report_once_per_belief():
    rule = ExpectileRule(0.3)
    cfg = SearchConfig(report_points=21, ic_beliefs=4)
    calls = []

    def counting(ends, coeffs, p, transform):
        calls.append(len(coeffs))
        return expected_scores(ends, coeffs, p, transform)

    # one array read per belief, of the 21 grid reports and the 3 states
    with mock.patch.object(scoring, "expected_scores", counting):
        check_ic(rule, cfg=cfg)
    assert calls == [21 + 3] * 4


def test_ic_rejects_a_belief_of_the_wrong_kind():
    # checked before property_value, which cannot read the other kind
    with pytest.raises(OutcomeMismatch):
        check_ic(ModeRule([1, 2, 3]), [uniform_belief(0.0, 1.0)])
    pmf = finite_belief(OutcomeSpace.finite([0, 1]), [0.5, 0.5])
    for rule in (QuantileRule(0.5), ExpectileRule(0.3),
                 quadratic_mean_rule(1.0, 0.0)):
        with pytest.raises(OutcomeMismatch):
            check_ic(rule, [pmf], SearchConfig(report_points=5))


def test_ic_fails_witness_replays():
    rule = CashBonus(QuantileRule(0.5), 2.0)
    cfg = SearchConfig(report_points=11, ic_beliefs=2)
    rep = check_ic(rule, cfg=cfg)
    assert rep.verdict == FAILS
    assert math.isfinite(rep.witness["argmax_score"])
    assert axioms.replay_witness(rule, rep) == rep.margin


# ---------------------------------------------------------------------------
# WCL


def _real_line_configs():
    configs = {name: load_config(name) for name in bundled_config_names()}
    return [name for name, c in configs.items() if "market" in c and
            not build_rule(c["market"]).outcome_space.is_finite]


@pytest.mark.parametrize("name", _real_line_configs())
def test_bundled_real_line_wcl_matches_per_report_trades(name):
    config = load_config(name)
    rule = build_rule(config["market"])
    cfg = build_search(config.get("search"), config.get("seed"))
    r0 = config.get("r0", 0.0)
    assert check_wcl(rule, r0, cfg).to_text() == \
        reference_check_wcl(rule, r0, cfg).to_text()


def test_every_real_line_market_is_covered():
    assert set(_real_line_configs()) >= {
        "expectile_market", "mean_unbounded", "quantile_sigmoid"}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wcl_matches_per_report_trades(data):
    rule = data.draw(RULES)
    lo = data.draw(st.floats(-6.0, 0.0))
    cfg = SearchConfig(report_points=data.draw(st.integers(2, 60)),
                       report_window=(lo, lo + data.draw(st.floats(0.5, 10.0))))
    r0 = data.draw(st.one_of(st.just(lo), st.floats(-8.0, 8.0)))
    assert check_wcl(rule, r0, cfg).to_text() == \
        reference_check_wcl(rule, r0, cfg).to_text()


def test_wcl_builds_a_trade_contract_only_for_a_witness():
    # a closed-form bound, the report sequence, an outcome-sequence witness
    for rule, calls in ((QuantileRule(0.3, SIGMOID), 0), (QuantileRule(0.3), 0),
                        (ExpectileRule(0.7), 1)):
        with mock.patch.object(rule, "trade_contract",
                               wraps=rule.trade_contract) as spy:
            rep = check_wcl(rule, 0.0, SearchConfig(report_points=9))
        assert spy.call_count == calls
        assert ("losses" in rep.witness) == bool(calls)


def test_wcl_rejects_overflowing_trade_coefficients():
    # above both reports the trade -1e308 -> 1e308 pays -0.9e308 - 0.9e308
    cfg = SearchConfig(report_points=2, report_window=(0.0, 1e308))
    with pytest.raises(ValueError, match="finite"):
        check_wcl(QuantileRule(0.9), -1e308, cfg)
