"""Differential test of extraction's convexity certificate: the lower hull
of the lifted (share, cost) points, against the one linear program per
point that it replaced, kept here as the reference.

The point sets hold 0 and every unit vector among their shares, as
extraction's do (report 0 and each basis report), so they span the share
space.  Both must give the same verdict at RESIDUAL_ACCEPT, gaps within
1e-9 of the cost scale, and the same point wherever the largest gap leads the next by
more than that."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from srmarket.contracts import RESIDUAL_ACCEPT
from srmarket.costmarket import _lower_envelope_gap

TOL = 1e-9


def reference_gaps(shares: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Each point's height above the lower convex envelope of the set: the
    max of s_j . w + t over the affine functions (w, t) below every point,
    one linear program per point, at feasibility tolerances of 1e-10: at
    HiGHS's defaults a gap below about 5e-8 reads 0.0."""
    m, k = shares.shape
    a_ub = np.hstack([shares, np.ones((m, 1))])
    gaps = np.empty(m)
    for j in range(m):
        c = -np.concatenate([shares[j], [1.0]])
        res = linprog(c, A_ub=a_ub, b_ub=costs,
                      bounds=[(None, None)] * (k + 1), method="highs",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10})
        assert res.success, res.message
        gaps[j] = costs[j] + res.fun
    return gaps


def assert_agrees(shares, costs) -> None:
    shares = np.asarray(shares, dtype=float)
    costs = np.asarray(costs, dtype=float)
    gap, at = _lower_envelope_gap(shares, costs)
    assert type(gap) is float and (at is None or type(at) is int)
    # HiGHS's absolute tolerances do not hold at costs of order 1e12, so the
    # reference solves in units of the cost scale
    scale = max(1.0, float(np.max(np.abs(costs))))
    gaps = scale * reference_gaps(shares, costs / scale)
    # the first point with the largest positive gap, as the loop picked it
    ref_at = int(np.argmax(gaps)) if np.max(gaps) > 0.0 else None
    ref = 0.0 if ref_at is None else float(gaps[ref_at])
    accept = RESIDUAL_ACCEPT * scale
    # within rounding of the threshold either verdict is right; the gaps
    # are still held together below
    if abs(ref - accept) > TOL * scale:
        assert (gap > accept) == (ref > accept), (gap, ref)
    assert abs(gap - ref) <= TOL * scale, (gap, ref)
    ranked = np.sort(gaps)[::-1]
    if ref > 0.0 and ranked[0] - ranked[1] > TOL * scale:
        assert at == ref_at, (at, ref_at, gaps)
    if gap == 0.0:
        assert at is None


def spanning(k: int, extra: np.ndarray) -> np.ndarray:
    """0, each unit vector, then the extra shares not already among them."""
    base = np.vstack([np.zeros(k), np.eye(k)])
    rows = [row for row in extra
            if not any(np.array_equal(row, b) for b in base)]
    unique = [row for i, row in enumerate(rows)
              if not any(np.array_equal(row, r) for r in rows[:i])]
    return np.vstack([base] + unique) if unique else base


@st.composite
def share_sets(draw, k: int) -> np.ndarray:
    # shares on a half-integer grid: distinct points, collinear ones common
    n = draw(st.integers(0, 10))
    coords = draw(st.lists(st.integers(-6, 6), min_size=n * k,
                           max_size=n * k))
    return spanning(k, np.reshape(np.asarray(coords, dtype=float) / 2.0,
                                  (n, k)))


@st.composite
def affine(draw, k: int):
    w = np.asarray(draw(st.lists(st.floats(-3, 3), min_size=k, max_size=k)))
    t = draw(st.floats(-3, 3))
    return lambda s: s @ w + t


def convex_cost(weights, tilt):
    # a strictly convex function: weighted squares, exponentials and
    # a log-sum-exp, plus an affine part
    return lambda s: weights[0] * np.sum(s * s, axis=1) + \
        weights[1] * np.sum(np.exp(s / 2.0), axis=1) + \
        weights[2] * np.log1p(np.sum(np.exp(s), axis=1)) + tilt(s)


@st.composite
def convex_costs(draw, k: int):
    weights = draw(st.lists(st.floats(0.05, 3), min_size=3, max_size=3))
    return convex_cost(weights, draw(affine(k)))


# cost scales: a rule's costs are of the order of its scores, and a hull of
# unit shares lifted by costs of 1e12 has facets within 1e-12 of vertical
SCALES = st.sampled_from([1.0, 1e4, 1e8, 1e12])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda k: st.tuples(share_sets(k), convex_costs(k))), SCALES)
def test_convex_costs_sit_on_the_envelope(case, scale):
    shares, cost = case
    costs = scale * cost(shares)
    assert _lower_envelope_gap(shares, costs)[0] <= RESIDUAL_ACCEPT * max(
        1.0, float(np.max(np.abs(costs))))
    assert_agrees(shares, costs)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2).flatmap(lambda k: share_sets(k).flatmap(
    lambda s: st.tuples(st.just(s), st.lists(
        st.floats(-5, 5), min_size=len(s), max_size=len(s))))), SCALES)
# (0, 1e-8) lies 1e-8 above the chord from (-0.5, 0) to (1, 0)
@example((np.array([[0.0], [1.0], [-0.5]]), [1e-8, 0.0, 0.0]), 1.0)
def test_arbitrary_costs(case, scale):
    shares, costs = case
    assert_agrees(shares, scale * np.asarray(costs))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda k: st.tuples(share_sets(k), affine(k))))
def test_affine_costs_have_no_gap(case):
    # a flat lifted set, which hull_facets refuses, or one flat within
    # rounding
    shares, cost = case
    assert_agrees(shares, cost(shares))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 2).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.floats(-5, 5), min_size=k + 1, max_size=k + 1))))
def test_fewer_than_k_plus_two_points(case):
    # 0 and the unit vectors alone: an affine function interpolates any
    # costs, and hull_facets refuses the k + 1 lifted points
    k, costs = case
    shares = spanning(k, np.empty((0, k)))
    assert _lower_envelope_gap(shares, np.asarray(costs)) == (0.0, None)
    assert_agrees(shares, costs)


@settings(max_examples=60, deadline=None)
@given(convex_costs(2), st.integers(3, 7), st.integers(0, 2), st.data(),
       st.floats(1e-6, 5.0))
def test_raised_cost_on_a_collinear_boundary(cost, n, side, data, raise_by):
    assert_raised_on_a_side(cost, n, side, data.draw(st.integers(1, n - 1)),
                            raise_by)


@pytest.mark.parametrize("n, side, j", [(5, 0, 1), (5, 2, 1), (6, 0, 4)])
def test_raised_cost_at_the_verdict_threshold(n, side, j):
    # costs below 1, raised by RESIDUAL_ACCEPT itself: the gap and the
    # reference's may land either side of the threshold
    assert_raised_on_a_side(convex_cost([0.05, 0.05, 0.05], lambda s: 0.0),
                            n, side, j, RESIDUAL_ACCEPT)


def assert_raised_on_a_side(cost, n, side, j, raise_by):
    # the simplex grid {(a, b) / n : a + b <= n}: each side holds n + 1
    # collinear shares, so the lifted hull has a vertical facet through it,
    # within rounding of vertical on the slanted side; a point inside a side
    # whose cost is raised above the mean of its two neighbours' is a vertex
    # of that facet and sits that far above the envelope
    grid = [(a, b) for a in range(n + 1) for b in range(n + 1 - a)]
    shares = spanning(2, np.asarray(grid, dtype=float) / n)
    mid, ends = [((j, 0), [(j - 1, 0), (j + 1, 0)]),
                 ((0, j), [(0, j - 1), (0, j + 1)]),
                 ((j, n - j), [(j - 1, n - j + 1), (j + 1, n - j - 1)])][side]

    def index(point) -> int:
        hits = (shares == np.divide(point, n)).all(axis=1)
        return int(np.flatnonzero(hits)[0])

    costs = cost(shares)
    costs[index(mid)] = np.mean(costs[[index(e) for e in ends]]) + raise_by
    gap, at = _lower_envelope_gap(shares, costs)
    assert at == index(mid)
    assert abs(gap - raise_by) <= TOL * max(1.0, float(np.max(np.abs(costs))))
    assert_agrees(shares, costs)


@pytest.mark.parametrize("k", [1, 2])
def test_a_non_finite_point_raises(k):
    # a flat lifted set reads as no gap; a non-finite one is no verdict
    shares = spanning(k, np.full((1, k), 0.5))
    costs = np.zeros(len(shares))
    costs[-1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        _lower_envelope_gap(shares, costs)
    # an infinite cost raises before it scales the others, which would warn
    costs[-1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        _lower_envelope_gap(shares, costs)
    shares[-1, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        _lower_envelope_gap(shares, np.zeros(len(shares)))
