"""Convex potentials: values, gradients and their ranges, the conjugate
pair of the binary LMSR cost and the negative entropy, the Bregman
kernel of the expectile score, and the hull routine, whose 2-D monotone
chain is tested against Qhull."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from srmarket.convex import (
    FlatHull,
    binary_lmsr_cost,
    binary_negentropy,
    hull_facets,
    interval_negentropy,
    log_partition,
    quadratic,
    simplex_negentropy,
)
from srmarket.scoring import ExpectileRule


def hull_margin(points, x) -> float:
    """Signed distance of x to the boundary of conv(points), positive
    inside: the least slack of the hull's facet inequalities at x."""
    a, b = hull_facets(points)
    return float(np.min(-(a @ np.atleast_1d(np.asarray(x, dtype=float)) + b)))


class TestConjugate:
    def test_fenchel_young(self):
        # the conjugate of the binary negative entropy is log(1 + e^q)
        rng = np.random.default_rng(0)
        g = binary_negentropy()
        for _ in range(200):
            x = rng.uniform(0.01, 0.99)
            q = rng.normal(scale=3.0)
            vg = g.value([x])
            vc = math.log1p(math.exp(q))
            assert vg + vc >= q * x - 1e-8
        # equality when q is the gradient at x
        for x in (0.2, 0.5, 0.9):
            q = g.grad([x])[0]
            vc = math.log1p(math.exp(q))
            assert g.value([x]) + vc == pytest.approx(q * x, abs=1e-10)

    def test_double_conjugate_recovers_value(self):
        g = binary_negentropy()
        c = binary_lmsr_cost()
        for x in np.linspace(0.1, 0.9, 9):
            # G**(x) = sup_q q x - C(q), maximized at q = logit(x)
            q = math.log(x / (1 - x))
            assert q * x - c.value([q]) == pytest.approx(g.value([x]),
                                                         abs=1e-6)


class TestBregman:
    def test_quadratic_is_squared_distance(self):
        assert -2.0 * ExpectileRule(0.5).score(1.0, 3.0) == pytest.approx(4.0)

    def test_zero_at_equal_arguments(self):
        rule = ExpectileRule(0.5, (1.0, -2.0, 3.0))
        for x in (0.1, 0.5, 0.83):
            assert rule.score(x, x) == 0.0

    def test_nonnegativity_random(self):
        rng = np.random.default_rng(1)
        rule = ExpectileRule(0.5, (1.0, -2.0, 3.0))
        for _ in range(200):
            y, x = rng.uniform(-5.0, 5.0, size=2)
            assert -2.0 * rule.score(x, y) >= -1e-12


class TestConvexityCheck:
    def test_log_partition_gradients_in_simplex(self):
        c = log_partition(np.array([[0.0], [1.0]]))
        for q in np.linspace(-5, 5, 21):
            g = c.grad([q])[0]
            assert 0.0 < g < 1.0


class TestGradientRange:
    def test_binary_lmsr_inside_unit_interval(self):
        c = binary_lmsr_cost()
        margins = [hull_margin(np.array([[0.0], [1.0]]), c.grad([q]))
                   for q in np.linspace(-6, 6, 25)]
        assert min(margins) > 0

    def test_quadratic_escapes(self):
        g = quadratic(1)
        assert hull_margin(np.array([[0.0], [1.0]]), g.grad([5.0])) <= 0

    def test_simplex_log_partition_strictly_inside(self):
        phi = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        c = log_partition(phi)
        for a in (-2.0, 0.0, 2.0):
            for b in (-1.0, 1.0):
                pt = c.grad(np.array([a, b]))
                assert hull_margin(phi, pt) > 0
                # gradients are softmax mixtures: strict inequalities
                assert pt[0] > 0 and pt[1] > 0 and pt[0] + pt[1] < 1

    def test_hull_margin_interval(self):
        assert hull_margin(np.array([0.0, 1.0]), 0.25) == pytest.approx(0.25)
        assert hull_margin(np.array([0.0, 1.0]), 1.25) == pytest.approx(-0.25)


def cross(o, p, q) -> int:
    """(p - o) x (q - o) of integer points, exact: 0 when they are
    collinear."""
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


@st.composite
def lattice_sets(draw):
    """(integer points, unit): 2-D points on an integer lattice, some of
    them repeated and a collinear run among them, to be scaled by a unit
    that makes the largest coordinate about a power of two from 2^-20 to
    2^27.  Every orientation test on them is exact in floats."""
    bound = draw(st.sampled_from([4, 64, 2 ** 20]))
    coord = st.integers(-bound, bound)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=12))
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    if draw(st.booleans()):
        x, y = draw(st.sampled_from(pts))
        step = st.integers(-bound // 4, bound // 4)
        dx, dy = draw(step), draw(step)
        ts = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
        pts += [(x + t * dx, y + t * dy) for t in ts]
    return pts, 2.0 ** draw(st.integers(-20, 27)) / bound


def margins(a, b, xs) -> np.ndarray:
    """The hull margin min(-(a @ x + b)) of each row of xs."""
    return np.min(-(xs @ a.T + b), axis=1)


class TestHullFacets:
    @settings(max_examples=300, deadline=None)
    @given(lattice_sets(), st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                                    max_size=6))
    def test_planar_hull_matches_qhull(self, case, probes):
        pts, unit = case
        xs = unit * np.asarray(pts, dtype=float)
        distinct = sorted(set(pts))
        flat = len(distinct) < 3 or all(
            cross(distinct[0], distinct[1], p) == 0 for p in distinct[2:])
        if flat:
            with pytest.raises(FlatHull):
                hull_facets(xs)
            return
        a, b = hull_facets(xs)
        assert np.all(np.abs(np.hypot(a[:, 0], a[:, 1]) - 1.0) <= 4e-16)
        scale = float(np.max(np.abs(xs)))
        eq = ConvexHull(xs).equations
        at = np.vstack([xs, xs.mean(axis=0),
                        scale * np.asarray(probes).reshape(-1, 2)])
        got, ref = margins(a, b, at), margins(eq[:, :-1], eq[:, -1], at)
        assert np.all(np.abs(got - ref) <= 1e-12 * scale), np.abs(got - ref).max()
        # every input point is in the hull
        assert np.all(got[:len(xs)] >= -1e-12 * scale)

    @pytest.mark.parametrize("points", [
        [[1.0, 2.0]], [[1.0, 2.0], [1.0, 2.0], [-0.0, 0.0]],
        [[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [-2.0, -2.0], [1.0, 1.0]],
        [[0.0, 5.0], [0.0, -1.0], [0.0, 2.0]],
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]])
    def test_flat_sets_raise(self, points):
        with pytest.raises(FlatHull):
            hull_facets(points)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_points_raise(self, dim, bad):
        points = np.vstack([np.zeros(dim), np.eye(dim)])
        points[1, 0] = bad
        with pytest.raises(ValueError, match="finite") as exc:
            hull_facets(points)
        assert not isinstance(exc.value, FlatHull)


class TestBuiltins:
    def test_simplex_negentropy_grad_and_conjugate(self):
        # the conjugate is log(1 + sum e^q), maximized at the softmax of q
        g = simplex_negentropy(2)
        x = np.array([0.2, 0.3])
        q = g.grad(x)
        z = 1.0 + float(np.sum(np.exp(q)))
        assert np.allclose(np.exp(q) / z, x, atol=1e-10)
        # Fenchel-Young equality at the gradient
        v = math.log(z)
        assert g.value(x) + v == pytest.approx(float(np.dot(q, x)), abs=1e-10)

    def test_binary_lmsr_value_stable(self):
        c = binary_lmsr_cost()
        assert c.value([0.0]) == pytest.approx(math.log(2.0), abs=1e-15)
        assert c.value([100.0]) == pytest.approx(100.0, abs=1e-12)
        assert c.value([-100.0]) == pytest.approx(0.0, abs=1e-12)

    def test_value_closure_at_boundary(self):
        g = binary_negentropy()
        assert g.value_closure([0.0]) == 0.0
        assert g.value_closure([1.0]) == 0.0

    @pytest.mark.parametrize("fn,points", [
        (quadratic(1), [[-2.0], [0.3], [1.7]]),
        (binary_negentropy(), [[0.2], [0.5], [0.9]]),
        (interval_negentropy(0.0, 3.0), [[0.4], [1.5], [2.6]]),
        (binary_lmsr_cost(), [[-3.0], [0.0], [2.0]]),
    ])
    def test_gradients_match_central_differences(self, fn, points):
        h = 1e-5
        for x in points:
            x = np.asarray(x)
            for i in range(fn.dim):
                e = np.zeros(fn.dim)
                e[i] = h
                fd = (fn.value(x + e) - fn.value(x - e)) / (2 * h)
                assert fn.grad(x)[i] == pytest.approx(fd, abs=1e-5)

    def test_subgradient_inequality_sampled(self):
        rng = np.random.default_rng(0)
        for fn in (quadratic(1), binary_negentropy(),
                   interval_negentropy(0.0, 3.0)):
            lo = np.where(np.isfinite(fn.lo), fn.lo, -3.0)
            hi = np.where(np.isfinite(fn.hi), fn.hi, 3.0)
            for _ in range(100):
                x, z = lo + (hi - lo) * (0.01 + 0.98 * rng.uniform(size=2))
                gap = fn.value([z]) - fn.value([x]) - \
                    fn.grad([x])[0] * (z - x)
                assert gap >= -1e-9
