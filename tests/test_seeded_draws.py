"""Each seeded sampler against the one-at-a-time loop it replaced.

The samplers take their whole sample in one generator call: WN and TN's
scenario triples, PN's portfolios, IC's beliefs and OPEN's share states
and hull margins on a full share space.  The loops below are the
references.  A sampler must draw the same items, to the bit, and leave the
generator in the same state, on every seed, grid size and count (0
included); OPEN must give the loop's report on markets of one to three
securities.  PRICE-BOUND's lattice trials and QUASI-OPEN's states are held
to their loops in ``test_array_forms.py``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srmarket.contracts import INF, RESIDUAL_ACCEPT, SEARCH_XTOL
from srmarket.convex import quadratic
from srmarket.costmarket import (
    GRAD_SAMPLES,
    INVERT_TARGETS,
    CostRule,
    binary_lmsr_rule,
    check_open,
    exp_family_rule,
    invert_gradient,
)
from srmarket.axioms import (
    portfolio_scenarios,
    random_beliefs_for,
    scenario_triples,
)
from srmarket.reports import FAILS, HOLDS_AT_BUDGET, AxiomReport
from srmarket.scoring import ModeRule, QuantileRule
from test_convex import hull_margin

SEEDS = st.integers(0, 2 ** 32 - 1)
GRID_SIZES = st.sampled_from([1, 2, 3, 17])


def reference_triples(grid, count, rng):
    out = []
    n = len(grid)
    guard = 0
    while len(out) < count and guard < 50 * count:
        guard += 1
        i, j, s = rng.integers(0, n, size=3)
        if i == j:
            continue
        out.append((grid[int(i)], grid[int(j)], grid[int(s)]))
    return out


def reference_portfolios(grid, count, size, rng):
    out = []
    n = len(grid)
    guard = 0
    while len(out) < count and guard < 50 * count:
        guard += 1
        trades = []
        for _ in range(size):
            i, j = rng.integers(0, n, size=2)
            if i == j:
                j = (j + 1) % n
            trades.append((grid[int(i)], grid[int(j)]))
        s = grid[int(rng.integers(0, n))]
        out.append((trades, s))
    return out


def reference_pmfs(n, count, rng):
    out = []
    for _ in range(count):
        pmf = rng.dirichlet(np.ones(n))
        out.append(pmf / np.sum(pmf))
    return out


def reference_cdfs(count, window, rng):
    a, b = window
    out = []
    for _ in range(count):
        gx = np.cumsum(rng.uniform(0.5, 1.5, size=6))
        xs = a + (b - a) * (gx - gx[0]) / (gx[-1] - gx[0])
        gf = np.cumsum(rng.uniform(0.5, 1.5, size=6))
        fs = (gf - gf[0]) / (gf[-1] - gf[0])
        out.append((xs, fs))
    return out


def reference_open(rule, rng):
    """``check_open`` with a state's draw, gradient and hull margin at a time."""
    qs = [rng.normal(scale=4.0, size=rule.k) for _ in range(GRAD_SAMPLES)]
    min_margin = INF
    for q in qs:
        m = hull_margin(rule.phi, rule.cost.grad(q))
        min_margin = min(min_margin, m)
        if m <= 0.0:
            return AxiomReport(
                axiom="OPEN", verdict=FAILS, margin=m,
                witness={"q": q.tolist(), "gradient": rule.cost.grad(q).tolist(),
                         "hull_margin": m},
                budget={"grad_samples": GRAD_SAMPLES})
    misses = []
    for _ in range(INVERT_TARGETS):
        w = rng.uniform(0.2, 1.0, size=rule.phi.shape[0])
        w = w / np.sum(w)
        target = w @ rule.phi
        q = invert_gradient(rule.cost, target, SEARCH_XTOL)
        gap = INF if q is None else float(
            np.max(np.abs(rule.cost.grad(q) - target)))
        if gap > RESIDUAL_ACCEPT:
            misses.append({"target": target.tolist(), "gap": gap})
    if misses:
        return AxiomReport(axiom="OPEN", verdict=FAILS, margin=-1.0,
                           witness={"unreached_targets": misses},
                           budget={"grad_samples": GRAD_SAMPLES,
                                   "invert_targets": INVERT_TARGETS})
    return AxiomReport(axiom="OPEN", verdict=HOLDS_AT_BUDGET, margin=min_margin,
                       budget={"grad_samples": GRAD_SAMPLES,
                               "invert_targets": INVERT_TARGETS})


def assert_same_state(a, b):
    assert a.bit_generator.state == b.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=GRID_SIZES, count=st.integers(0, 60))
def test_scenario_triples_are_the_loops_draws(seed, n, count):
    grid = [float(v) for v in range(n)]
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert scenario_triples(grid, count, got_rng) == \
        reference_triples(grid, count, want_rng)
    assert_same_state(got_rng, want_rng)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=GRID_SIZES, count=st.integers(0, 20),
       size=st.integers(1, 4))
def test_portfolios_are_the_loops_draws(seed, n, count, size):
    grid = [float(v) for v in range(n)]
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert portfolio_scenarios(grid, count, size, got_rng) == \
        reference_portfolios(grid, count, size, want_rng)
    assert_same_state(got_rng, want_rng)


def test_no_portfolio_draws_nothing():
    rng = np.random.default_rng(3)
    assert portfolio_scenarios([0.0, 1.0], 0, 2, rng) == []
    assert_same_state(rng, np.random.default_rng(3))


# a finite outcome space has at least two outcomes
@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.sampled_from([2, 3, 17]), count=st.integers(0, 12))
def test_finite_beliefs_are_the_loops_draws(seed, n, count):
    rule = ModeRule(list(range(n)))
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = [p.pmf for p in random_beliefs_for(rule, got_rng, count)]
    want = reference_pmfs(n, count, want_rng)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert_same_state(got_rng, want_rng)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, count=st.integers(0, 12), lo=st.floats(-10.0, 10.0),
       width=st.floats(0.5, 20.0))
def test_real_line_beliefs_are_the_loops_draws(seed, count, lo, width):
    window = (lo, lo + width)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = [(p.xs, p.fs) for p in random_beliefs_for(QuantileRule(0.5), got_rng,
                                                     count, window)]
    want = reference_cdfs(count, window, want_rng)
    assert len(got) == len(want)
    assert all(np.array_equal(gx, wx) and np.array_equal(gf, wf)
               for (gx, gf), (wx, wf) in zip(got, want))
    assert_same_state(got_rng, want_rng)


OPEN_MARKETS = {
    "lmsr_open": binary_lmsr_rule(),
    "exp_family_2": exp_family_rule([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
    # the simplex's four vertices in R^3
    "exp_family_3": exp_family_rule(np.vstack([np.zeros(3), np.eye(3)])),
    # C(q) = q^2: the gradient 2q leaves [0, 1] at most states
    "steep_cost": CostRule(quadratic(1), [[0.0], [1.0]]),
}


@pytest.mark.parametrize("name", sorted(OPEN_MARKETS))
@settings(max_examples=10, deadline=None)
@given(seed=SEEDS)
def test_open_matches_the_state_loop(name, seed):
    rule = OPEN_MARKETS[name]
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert check_open(rule, got_rng) == reference_open(rule, want_rng)
    assert_same_state(got_rng, want_rng)
