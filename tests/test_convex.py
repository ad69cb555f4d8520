"""Convex potentials: values, gradients and their ranges, the conjugate
pair of the binary LMSR cost and the negative entropy, and the Bregman
kernel of the expectile score."""

import math

import numpy as np
import pytest

from srmarket.convex import (
    binary_lmsr_cost,
    binary_negentropy,
    hull_margin,
    interval_negentropy,
    log_partition,
    quadratic,
    simplex_negentropy,
)
from srmarket.scoring import ExpectileRule


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


def _negentropy_expectile():
    """The expectile rule at tau = 1/2 on the binary negative entropy: its
    score is -D(y, r) / 2 for the entropy's Bregman divergence D."""
    def g(p):
        return p * math.log(p) + (1 - p) * math.log(1 - p)

    return ExpectileRule(0.5, g=g, gprime=lambda p: math.log(p / (1 - p)))


class TestBregman:
    def test_quadratic_is_squared_distance(self):
        assert -2.0 * ExpectileRule(0.5).score(1.0, 3.0) == pytest.approx(4.0)

    def test_zero_at_equal_arguments(self):
        rule = _negentropy_expectile()
        for x in (0.1, 0.5, 0.83):
            assert rule.score(x, x) == 0.0

    def test_negentropy_matches_direct_formula(self):
        y, x = 0.5, 0.25
        direct = (y * math.log(y / x) +
                  (1 - y) * math.log((1 - y) / (1 - x)))
        d = -2.0 * _negentropy_expectile().score(x, y)
        assert d == pytest.approx(direct, abs=1e-12)
        assert d > 0

    def test_nonnegativity_random(self):
        rng = np.random.default_rng(1)
        rule = _negentropy_expectile()
        for _ in range(200):
            y, x = rng.uniform(0.01, 0.99, size=2)
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
