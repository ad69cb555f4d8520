"""Finite-outcome ARB, IC and WCL read one score table per report grid: a
differential test against the per-pair checkers they replaced, kept here as
the references.  Reports must agree to the byte.  IC reads expected
scores, so its trade values must equal the per-trade ones within rounding,
and each argmax the reference's or a tie."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srmarket.axioms import (
    SearchConfig,
    _is_exhaustive,
    _j,
    _outcome_probe,
    check_arb,
    check_ic,
    check_wcl,
    random_beliefs_for,
)
from srmarket.cli import build_belief, build_rule, build_search, \
    bundled_config_names, load_config
from srmarket.contracts import (
    INF,
    OutcomeMismatch,
    OutcomeSpace,
    REAL_LINE,
    contract_bounds,
    expected_payoff,
    finite_belief,
)
from srmarket.convex import quadratic
from srmarket.reports import FAILS, HOLDS, HOLDS_AT_BUDGET, AxiomReport
from srmarket.scoring import (
    ExpectationRule,
    FiniteReports,
    FiniteRule,
    InvalidReport,
    ModeRule,
    RatioRule,
)


# ---------------------------------------------------------------------------
# the per-pair checkers, as they were before the score table


def reference_check_ic(rule, beliefs=None, cfg=SearchConfig()):
    rng = cfg.rng()
    grid = cfg.report_grid(rule)
    if beliefs is None:
        beliefs = random_beliefs_for(rule, rng, cfg.ic_beliefs,
                                     cfg.report_window)
    continuous = not isinstance(rule.report_space, FiniteReports)
    if continuous and np.isscalar(grid[0]):
        step = max(b - a for a, b in zip(grid, grid[1:]))
    elif continuous:
        step = float(np.max(np.linalg.norm(
            np.diff(np.asarray(grid, dtype=float), axis=0), axis=1)))
    else:
        step = 0.0
    worst = 0.0
    for p in beliefs:
        gamma = rule.property_value(p)
        # the trades from the reference state, the first grid report
        vals = reference_ic_values(rule, grid, grid[0], p)
        i = int(np.argmax(vals))
        pick = grid[i]
        if isinstance(gamma, tuple):
            bad = pick not in gamma
            gap = 0.0 if not bad else 1.0
        else:
            gap = float(np.max(np.abs(
                np.atleast_1d(np.asarray(pick, dtype=float)) -
                np.atleast_1d(np.asarray(gamma, dtype=float)))))
            bad = gap > step + 1e-9
        worst = max(worst, gap)
        if bad:
            return AxiomReport(
                axiom="IC", verdict=FAILS, margin=gap,
                witness={"belief": p.to_dict(), "state": _j(grid[0]),
                         "argmax": _j(pick), "property": _j(gamma),
                         "argmax_score": vals[i],
                         "grid_resolution": step},
                budget={"beliefs": len(beliefs), "grid": len(grid)})
    return AxiomReport(axiom="IC", verdict=HOLDS_AT_BUDGET, margin=worst,
                       budget={"beliefs": len(beliefs), "grid": len(grid),
                               "grid_resolution": step})


def reference_check_arb(rule, grid=None, cfg=SearchConfig()):
    if grid is None:
        grid = cfg.report_grid(rule)
    worst = -INF
    bad = []
    for r in grid:
        for rp in grid:
            lo, _ = contract_bounds(rule.trade_contract(r, rp))
            if lo > worst:
                worst = lo
            if lo > cfg.delta:
                bad.append({"r": _j(r), "r_new": _j(rp), "inf": lo})
                if len(bad) >= 10:
                    break
        if len(bad) >= 10:
            break
    if bad:
        return AxiomReport(axiom="ARB", verdict=FAILS, margin=worst,
                           witness={"pairs": bad},
                           budget={"grid": len(grid)})
    verdict = HOLDS if _is_exhaustive(rule, grid) else HOLDS_AT_BUDGET
    return AxiomReport(axiom="ARB", verdict=verdict, margin=worst,
                       budget={"grid": len(grid),
                               "pairs": len(grid) ** 2})


def reference_check_wcl(rule, r0, cfg=SearchConfig()):
    grid = cfg.report_grid(rule)
    grid_sup = 0.0
    for r in grid:
        d = rule.trade_contract(r0, r)
        _, hi = contract_bounds(d)
        if hi == INF:
            losses = _outcome_probe(d)
            return AxiomReport(
                axiom="WCL", verdict=FAILS, margin=losses[-1][1],
                witness={"r0": _j(r0), "trade_to": _j(r),
                         "losses": [[_j(y), v] for y, v in losses],
                         "diverges": True},
                budget={"grid": len(grid)})
        grid_sup = max(grid_sup, hi)
    bound = rule.loss_bound(r0)
    if bound is not None:
        if grid_sup > bound + 1e-9:
            return AxiomReport(axiom="WCL", verdict=FAILS, margin=grid_sup,
                               witness={"reason": "closed-form bound violated",
                                        "bound": bound, "grid_sup": grid_sup},
                               budget={"grid": len(grid)})
        return AxiomReport(axiom="WCL", verdict=HOLDS, margin=bound,
                           witness={"bound": bound, "grid_sup": grid_sup},
                           budget={"grid": len(grid)})
    if rule.report_space.dim == 1 and not rule.report_space.bounded:
        seq = []
        base = max(abs(cfg.report_window[0]), abs(cfg.report_window[1]), 1.0)
        for i in range(10):
            r = base * (4.0 ** i)
            for cand in (r, -r):
                _, hi = contract_bounds(rule.trade_contract(r0, cand))
                seq.append([cand, hi])
        sups = [s for _, s in seq]
        if max(sups) > 10.0 * grid_sup + 100.0:
            seq.sort(key=lambda e: e[1])
            return AxiomReport(
                axiom="WCL", verdict=FAILS, margin=seq[-1][1],
                witness={"r0": _j(r0), "trade_sups": seq[-10:],
                         "diverges": True, "direction": "reports"},
                budget={"grid": len(grid)})
        grid_sup = max(grid_sup, max(sups))
    verdict = HOLDS if _is_exhaustive(rule, grid) else HOLDS_AT_BUDGET
    return AxiomReport(axiom="WCL", verdict=verdict, margin=grid_sup,
                       witness={"grid_sup": grid_sup},
                       budget={"grid": len(grid)})


def reference_ic_values(rule, grid, state, p):
    return [expected_payoff(rule.trade_contract(state, r), p) for r in grid]


def stack_ic_values(rule, grid, p) -> tuple:
    """What ``check_ic`` reads under p: the index of its argmax, from one
    ``stack_scores`` of the grid, and the expected trade payoffs
    E_p S(r) - E_p S(grid[0]) for each grid report r."""
    s = rule.stack_scores(*rule.score_stack(grid), p)
    return int(np.argmax(s)), (s - s[0]).tolist()


def assert_ic_values_match(rule, grid, beliefs) -> bool:
    """Each IC value lies within 1e-12 of the expected scores' scale of the
    per-trade value from the first grid report, and the argmax is the
    per-trade one or tied with it within that; returns whether a tie
    decided a pick."""
    tied = False
    for p in beliefs:
        scale = max([1.0] + [abs(rule.expected_score(r, p)) for r in grid])
        i, got = stack_ic_values(rule, grid, p)
        ref = reference_ic_values(rule, grid, grid[0], p)
        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-12 * scale
        i_ref = int(np.argmax(ref))
        if i != i_ref:
            assert ref[i_ref] - ref[i] <= 1e-12 * scale
            tied = True
    return tied


def assert_same_checks(rule, cfg, r0, beliefs=None):
    """ARB, IC and WCL agree with the references to the byte, and every IC
    value with the per-trade one within rounding."""
    assert check_arb(rule, cfg=cfg).to_text() == \
        reference_check_arb(rule, cfg=cfg).to_text()
    assert check_ic(rule, beliefs, cfg).to_text() == \
        reference_check_ic(rule, beliefs, cfg).to_text()
    assert check_wcl(rule, r0, cfg).to_text() == \
        reference_check_wcl(rule, r0, cfg).to_text()
    if beliefs is None:
        beliefs = random_beliefs_for(rule, cfg.rng(), cfg.ic_beliefs)
    assert_ic_values_match(rule, cfg.report_grid(rule), beliefs)


# ---------------------------------------------------------------------------
# bundled configs


def _finite_configs():
    out = []
    for name in bundled_config_names():
        config = load_config(name)
        if "market" in config and \
                build_rule(config["market"]).outcome_space.is_finite:
            out.append(name)
    return out


FINITE_CONFIGS = _finite_configs()


def test_every_finite_market_is_covered():
    assert set(FINITE_CONFIGS) >= {
        "discretized_lmsr", "expectation_entropy", "lmsr_open", "mode_market",
        "ratio_market", "extract_entropy", "extract_mode", "extract_ratio"}


@pytest.mark.parametrize("name", FINITE_CONFIGS)
def test_bundled_finite_config_matches_reference(name):
    config = load_config(name)
    rule = build_rule(config["market"])
    cfg = build_search(config.get("search"), config.get("seed"))
    grid = cfg.report_grid(rule)
    r0 = config.get("r0", grid[len(grid) // 2])
    beliefs = None
    if "ic_beliefs" in config:
        beliefs = [build_belief(b, rule.outcome_space)
                   for b in config["ic_beliefs"]]
    assert_same_checks(rule, cfg, r0, beliefs)


# ---------------------------------------------------------------------------
# generated payoff matrices

# a small pool makes exact ties between payoffs, rows and trades common
ENTRIES = st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.1, 0.25, 1.0, 2.0, 7.5])
# row offsets: equal rows plus a constant admit arbitrage; 1e-9 is the
# strictness margin itself
OFFSETS = st.sampled_from([0.0, 0.0, 1e-9, 2e-9, 0.3, 1.0, 4.0])


@st.composite
def finite_rules(draw):
    rows = draw(st.integers(2, 8))
    n = draw(st.integers(2, 4))
    base = np.array(draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                                  min_size=rows, max_size=rows)))
    if draw(st.booleans()):
        base = base + np.array(draw(st.lists(OFFSETS, min_size=rows,
                                             max_size=rows)))[:, None]
    space = OutcomeSpace.finite(range(n))
    labels = list(range(10, 10 + rows))
    return FiniteRule(base, space, report_labels=labels)


def _matrix_rule(matrix):
    matrix = np.asarray(matrix, dtype=float)
    return FiniteRule(matrix, OutcomeSpace.finite(range(matrix.shape[1])),
                      report_labels=list(range(10, 10 + matrix.shape[0])))


@settings(max_examples=150, deadline=None)
@given(rule=finite_rules(), seed=st.integers(0, 2 ** 16),
       r0_index=st.integers(0, 7))
# six rows that are one row plus cash 0..5: the 10th arbitrage pair falls
# in the middle of the third row, so the scan stops early
@example(rule=_matrix_rule([[0.0, 1.0, -0.5]] * 6 + np.arange(6.0)[:, None]),
         seed=0, r0_index=0)
@example(rule=_matrix_rule(np.zeros((5, 3))), seed=1, r0_index=2)
def test_generated_finite_rules_match_reference(rule, seed, r0_index):
    cfg = SearchConfig(seed=seed, ic_beliefs=4)
    labels = rule.report_space.labels
    assert_same_checks(rule, cfg, labels[r0_index % len(labels)])


@settings(max_examples=60, deadline=None)
@given(rule=finite_rules(), data=st.data())
def test_explicit_grids_match_reference(rule, data):
    labels = list(rule.report_space.labels)
    grid = data.draw(st.lists(st.sampled_from(labels), min_size=2, max_size=12))
    cfg = SearchConfig(seed=data.draw(st.integers(0, 99)), ic_beliefs=3)
    beliefs = random_beliefs_for(rule, np.random.default_rng(7), 3)
    assert check_arb(rule, grid, cfg).to_text() == \
        reference_check_arb(rule, grid, cfg).to_text()
    assert check_ic(rule, beliefs, cfg).to_text() == \
        reference_check_ic(rule, beliefs, cfg).to_text()


def test_break_after_ten_pairs_keeps_worst_of_visited_pairs():
    # the largest infimum (row 0 -> row 11) lies after the 10th bad pair
    rule = _matrix_rule(np.zeros((12, 2)) + np.array(
        [0.0] + [1.0] * 10 + [50.0])[:, None])
    rep = check_arb(rule, cfg=SearchConfig())
    assert rep.verdict == FAILS
    assert len(rep.witness["pairs"]) == 10
    assert rep.margin == 1.0
    assert rep.to_text() == reference_check_arb(rule, cfg=SearchConfig()).to_text()


def test_two_dimensional_box_expectation_rule_matches_reference():
    # the box [0, 1]^2 spanned by phi holds reports outside the simplex,
    # which admit arbitrage
    rule = ExpectationRule(quadratic(2, lo=[-1.0, -1.0], hi=[2.0, 2.0]),
                           phi=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cfg = SearchConfig(report_points=7, ic_beliefs=5, seed=3)
    grid = cfg.report_grid(rule)
    assert len(grid) == 49
    assert check_arb(rule, cfg=cfg).verdict == FAILS
    assert_same_checks(rule, cfg, grid[24])


def test_ratio_rule_matches_reference_on_a_coarse_grid():
    from srmarket.convex import interval_negentropy
    rule = RatioRule(interval_negentropy(0.0, 3.0), [0.0, 1.0, 3.0],
                     [2.0, 1.0, 1.0])
    cfg = SearchConfig(report_points=9, ic_beliefs=6, seed=11)
    assert_same_checks(rule, cfg, 1.0)


# ---------------------------------------------------------------------------
# the score table itself


def test_score_table_rows_are_score_contracts():
    rule = ModeRule([1, 2, 3])
    table = rule.score_table([3, 1, 1])
    assert table.shape == (3, 3)
    for row, r in zip(table, [3, 1, 1]):
        assert row.tolist() == rule.score_contract(r).values.tolist()
    assert rule.score_table([]).shape == (0, 3)


def test_score_table_validates_each_report():
    rule = ModeRule([1, 2, 3])
    with pytest.raises(InvalidReport):
        rule.score_table([1, 4])
    box = ExpectationRule(quadratic(1, lo=[-1.0], hi=[2.0]), phi=[0.0, 1.0])
    with pytest.raises(InvalidReport):
        box.score_table([0.5, 1.5])


def test_score_table_needs_a_finite_outcome_space():
    rule = ExpectationRule(quadratic(1))
    assert rule.outcome_space is REAL_LINE
    with pytest.raises(OutcomeMismatch):
        rule.score_table([0.0])


def test_ic_rejects_a_belief_over_other_outcomes():
    rule = ModeRule([1, 2, 3])
    other = finite_belief(OutcomeSpace.finite([1, 2, 4]), [0.2, 0.3, 0.5])
    with pytest.raises(OutcomeMismatch):
        check_ic(rule, [other])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_trade_payoffs_are_rejected():
    # each score is finite; the trade between the rows overflows
    rule = _matrix_rule([[1e308, 0.0], [-1e308, 0.0]])
    for check in (lambda: check_arb(rule), lambda: check_wcl(rule, 10),
                  lambda: check_ic(rule)):
        with pytest.raises(ValueError, match="finite"):
            check()
    with pytest.raises(ValueError, match="finite"):
        reference_check_arb(rule)


def test_ic_scores_each_report_once_per_check():
    rule = ExpectationRule(quadratic(1, lo=[-1.0], hi=[2.0]), phi=[[0.0], [1.0]])
    cfg = SearchConfig(report_points=21, ic_beliefs=4)
    calls = []
    score_rows = rule.score_rows

    def counting(reports):
        calls.append(len(reports))
        return score_rows(reports)

    # one table of the 21 grid reports, which every belief reads
    rule.score_rows = counting
    check_ic(rule, cfg=cfg)
    assert calls == [21]
