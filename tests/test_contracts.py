"""Contract and belief primitives: exact bounds, combination, projection,
and expectations cross-checked against independent oracles."""

import math

import numpy as np
import pytest

from srmarket.contracts import (
    IDENTITY,
    SIGMOID,
    INF,
    OutcomeMismatch,
    OutcomeSpace,
    PayoffOverflow,
    Piece,
    PiecewiseLinearTransform,
    cdf_belief,
    combine,
    contract_argmin,
    contract_bounds,
    contract_is_constant,
    expected_payoff,
    finite_belief,
    finite_contract,
    ones_contract,
    piecewise_contract,
    project_cashless,
    uniform_belief,
)

SPACE3 = OutcomeSpace.finite((1, 2, 3))


def affine(c0, c1, transform=IDENTITY):
    return piecewise_contract([Piece(-INF, INF, (c0, c1, 0.0))], transform)


class TestBounds:
    def test_finite_componentwise(self):
        d = finite_contract(SPACE3, [1.0, 0.0, -1.0])
        assert contract_bounds(d) == (-1.0, 1.0)

    def test_all_ones_constant(self):
        assert contract_bounds(ones_contract(SPACE3)) == (1.0, 1.0)

    def test_unbounded_affine_line(self):
        # mean-market trade 2y - 1 has unbounded loss and gain
        d = affine(-1.0, 2.0)
        assert contract_bounds(d) == (-INF, INF)

    def test_quadratic_vertex_interior(self):
        # -(y - 1)^2 peaks at the vertex y = 1
        d = piecewise_contract([Piece(-INF, INF, (-1.0, 2.0, -1.0))])
        lo, hi = contract_bounds(d)
        assert lo == -INF
        assert hi == pytest.approx(0.0, abs=1e-15)

    def test_sigmoid_coordinate_is_bounded(self):
        d = affine(0.0, 1.0, SIGMOID)  # payoff sigmoid(y)
        lo, hi = contract_bounds(d)
        assert (lo, hi) == (0.0, 1.0)

    def test_vertex_beyond_float_range(self):
        # the vertex -1 / (2 * c2) overflows; the infimum -1 / (4 * c2) does not
        c2 = 2.225073858507203e-309
        lo, hi = contract_bounds(
            piecewise_contract([Piece(-INF, INF, (0.0, 1.0, c2))]))
        assert lo == pytest.approx(-1.0 / (4.0 * c2), rel=1e-12)
        assert hi == INF

    def test_self_cancellation_is_zero(self):
        d = piecewise_contract([
            Piece(-INF, 0.0, (1.0, 2.0, 0.0)),
            Piece(0.0, INF, (1.0, -1.0, 0.5)),
        ])
        z = combine([d, d], [1.0, -1.0])
        assert contract_bounds(z) == (0.0, 0.0)


class TestFiniteContract:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            finite_contract(OutcomeSpace.finite((0, 1)), [bad, 0.0])


class TestCombine:
    def test_sums_to_cash(self):
        space = OutcomeSpace.finite((1, 2))
        a = finite_contract(space, [1.0, 0.0])
        b = finite_contract(space, [0.0, 1.0])
        out = combine([a, b], [1.0, 1.0])
        assert np.array_equal(out.values, [1.0, 1.0])

    def test_negation(self):
        d = piecewise_contract([Piece(-INF, 0.0, (1.0, 1.0, 0.0)),
                                Piece(0.0, INF, (1.0, -2.0, 0.0))])
        n = combine([d], [-1.0])
        for y in (-3.0, -0.5, 0.0, 0.5, 3.0):
            assert n(y) == -d(y)

    def test_mismatched_spaces_rejected(self):
        a = finite_contract(SPACE3, [1.0, 0.0, 0.0])
        b = affine(0.0, 1.0)
        with pytest.raises(OutcomeMismatch):
            combine([a, b], [1.0, 1.0])
        with pytest.raises(OutcomeMismatch):
            combine([affine(0.0, 1.0, SIGMOID), b], [1.0, 1.0])

    def test_median_trade_sum_matches_grid_and_is_bounded(self):
        # two piecewise-affine median-market trades; their sum must agree
        # with pointwise addition on a dense grid and stay bounded
        from srmarket.scoring import QuantileRule

        rule = QuantileRule(0.5)
        d1 = rule.trade_contract(1.0, 2.0)
        d2 = rule.trade_contract(0.0, 0.5)
        s = combine([d1, d2], [1.0, 1.0])
        for y in np.linspace(-5, 5, 401):
            assert s(y) == pytest.approx(d1(y) + d2(y), abs=1e-12)
        lo, hi = contract_bounds(s)
        assert math.isfinite(lo) and math.isfinite(hi)

    def test_finite_overflow_raises_without_a_warning(self):
        # each score is finite; their difference overflows, and numpy's
        # RuntimeWarning (an error under the suite's filterwarnings) must not
        # come before PayoffOverflow
        from srmarket.scoring import FiniteRule

        rule = FiniteRule([[1.5e308, 0.0], [-1.5e308, 0.0]],
                          OutcomeSpace.finite((0, 1)))
        with pytest.raises(PayoffOverflow):
            rule.trade_contract(2, 1)


class TestProjectCashless:
    def test_pure_cash(self):
        space = OutcomeSpace.finite((1, 2))
        d0, cash = project_cashless(finite_contract(space, [3.0, 3.0]))
        assert cash == 3.0
        assert np.allclose(d0.values, 0.0)

    def test_already_cashless(self):
        space = OutcomeSpace.finite((1, 2))
        d0, cash = project_cashless(finite_contract(space, [1.0, -1.0]))
        assert cash == 0.0
        assert np.array_equal(d0.values, [1.0, -1.0])

    def test_mean_subtraction(self):
        d0, cash = project_cashless(finite_contract(SPACE3, [2.0, 0.0, 1.0]))
        assert cash == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(d0.values, [1.0, -1.0, 0.0], atol=1e-15)

    def test_idempotent(self):
        d0, _ = project_cashless(finite_contract(SPACE3, [2.0, 0.0, 1.0]))
        d00, cash = project_cashless(d0)
        assert cash == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(d00.values, d0.values, atol=1e-12)

    def test_orthogonal_to_ones(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            d = finite_contract(SPACE3, rng.normal(size=3) * 5)
            d0, _ = project_cashless(d)
            assert abs(float(np.sum(d0.values))) <= 1e-12 * 10

    def test_real_line_rejected(self):
        with pytest.raises(OutcomeMismatch):
            project_cashless(affine(0.0, 1.0))


class TestExpectedPayoff:
    def test_dot_product(self):
        space = OutcomeSpace.finite((1, 2))
        d = finite_contract(space, [1.0, 0.0])
        p = finite_belief(space, [0.25, 0.75])
        assert expected_payoff(d, p) == pytest.approx(0.25, abs=1e-15)

    def test_normalization(self):
        p = finite_belief(SPACE3, [0.2, 0.5, 0.3])
        assert expected_payoff(ones_contract(SPACE3), p) == pytest.approx(1.0)

    def test_uniform_mean_closed_form_and_monte_carlo(self):
        d = affine(0.0, 1.0)  # payoff y
        u = uniform_belief(0.0, 1.0)
        exact = expected_payoff(d, u)
        assert exact == pytest.approx(0.5, abs=1e-14)
        rng = np.random.default_rng(42)
        mc = float(np.mean(u.sample(rng, 10 ** 6)))
        assert exact == pytest.approx(mc, abs=2e-3)

    def test_quadratic_against_monte_carlo(self):
        d = piecewise_contract([Piece(-INF, 0.5, (0.0, 0.0, 1.0)),
                                Piece(0.5, INF, (0.25, -1.0, 2.0))])
        p = cdf_belief([-1.0, 0.0, 2.0], [0.0, 0.7, 1.0])
        exact = expected_payoff(d, p)
        rng = np.random.default_rng(7)
        ys = p.sample(rng, 10 ** 6)
        mc = float(np.mean([d(y) for y in ys[:200000]]))
        assert exact == pytest.approx(mc, rel=0.02)

    def test_sigmoid_integrals_against_quadrature(self):
        d = piecewise_contract([Piece(-INF, 0.0, (0.5, 1.0, -0.25)),
                                Piece(0.0, INF, (0.5, 1.0, -0.25))], SIGMOID)
        p = cdf_belief([-2.0, 1.0, 3.0], [0.0, 0.4, 1.0])
        exact = expected_payoff(d, p)
        from scipy.integrate import quad

        def integrand(y):
            dens = 0.4 / 3.0 if y < 1.0 else 0.6 / 2.0
            return d(y) * dens

        approx, _ = quad(integrand, -2.0, 3.0, points=[1.0], limit=200)
        assert exact == pytest.approx(approx, abs=1e-9)

    def test_cell_narrower_than_cdf_rounding(self):
        # the cell (-5e-324, 0) gets the 1e-13 that the CDF's clamp to 0
        # moves at the left end: its density overflowed to inf
        p = cdf_belief([-5e-324, 1.0], [1e-13, 1.0])
        zero = piecewise_contract([Piece(-INF, 0.0, (0.0, 0.0, 0.0)),
                                   Piece(0.0, INF, (0.0, 0.0, 0.0))])
        ones = piecewise_contract([Piece(-INF, 0.0, (1.0, 0.0, 0.0)),
                                   Piece(0.0, INF, (1.0, 0.0, 0.0))])
        assert expected_payoff(zero, p) == 0.0
        assert expected_payoff(ones, p) == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_kind_rejected(self):
        p = finite_belief(SPACE3, [0.2, 0.5, 0.3])
        with pytest.raises(OutcomeMismatch):
            expected_payoff(affine(0.0, 1.0), p)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        p = cdf_belief([-1.0, 0.5, 2.0], [0.0, 0.3, 1.0])
        for _ in range(20):
            c = rng.normal(size=6)
            d1 = piecewise_contract([Piece(-INF, 0.0, tuple(c[:3])),
                                     Piece(0.0, INF, tuple(c[:3]))])
            d2 = piecewise_contract([Piece(-INF, 1.0, tuple(c[3:])),
                                     Piece(1.0, INF, tuple(c[3:]))])
            a, b = rng.normal(size=2)
            lhs = expected_payoff(combine([d1, d2], [a, b]), p)
            rhs = a * expected_payoff(d1, p) + b * expected_payoff(d2, p)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_bounds_sandwich_expectation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = rng.normal(size=3)
            d = piecewise_contract([Piece(-INF, 0.3, tuple(c)),
                                    Piece(0.3, INF, (c[0], c[1], 0.0))])
            p = cdf_belief([-2.0, 0.0, 1.5], [0.0, 0.5, 1.0])
            lo, hi = contract_bounds(d)
            e = expected_payoff(d, p)
            assert lo - 1e-12 <= e <= hi + 1e-12


class TestBeliefs:
    def test_pmf_validation(self):
        with pytest.raises(ValueError):
            finite_belief(SPACE3, [0.5, 0.5, 0.1])
        with pytest.raises(ValueError):
            finite_belief(SPACE3, [1.1, -0.1, 0.0])

    def test_cdf_validation(self):
        with pytest.raises(ValueError):
            cdf_belief([0.0, 1.0], [0.0, 0.9])
        with pytest.raises(ValueError):
            cdf_belief([0.0, 1.0, 2.0], [0.0, 0.0, 1.0])  # flat start
        with pytest.raises(ValueError):
            cdf_belief([0.0, 0.0, 2.0], [0.0, 0.5, 1.0])

    def test_pmf_rejects_non_finite(self):
        with pytest.raises(ValueError):
            finite_belief(OutcomeSpace.finite((0, 1)), [math.nan, math.nan])

    def test_cdf_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cdf_belief([0.0, math.nan, 2.0], [0.0, 0.5, 1.0])

    def test_cdf_rejects_overflowing_density(self):
        # 1 / 2.2e-311 overflows: every expectation came out inf
        with pytest.raises(ValueError):
            cdf_belief([0.0, 2.2e-311], [0.0, 1.0])

    def test_quantile_inverts_cdf(self):
        p = cdf_belief([0.0, 1.0, 4.0], [0.0, 0.25, 1.0])
        assert p.quantile(0.25) == pytest.approx(1.0, abs=1e-12)
        assert p.quantile(0.625) == pytest.approx(2.5, abs=1e-12)
        assert p.cdf(p.quantile(0.1)) == pytest.approx(0.1, abs=1e-12)

    def test_uniform_mean(self):
        assert uniform_belief(2.0, 6.0).mean() == pytest.approx(4.0, abs=1e-12)


class TestTransforms:
    def test_sigmoid_roundtrip(self):
        # beyond |y| ~ 16 the rounding of sigmoid(y) itself costs ~1e-7
        for y in np.linspace(-15, 15, 31):
            assert SIGMOID.inverse(SIGMOID(y)) == pytest.approx(y, abs=1e-8)

    def test_sigmoid_power_integrals_match_quadrature(self):
        from scipy.integrate import quad

        # a uniform belief's moment table holds the integrals over its
        # support, divided by the width
        total = uniform_belief(-1.5, 2.0).moments(SIGMOID).total
        for k in (0, 1, 2):
            approx, _ = quad(lambda y: SIGMOID(y) ** k, -1.5, 2.0)
            assert 3.5 * total[k] == pytest.approx(approx, abs=1e-10)

    def test_piecewise_linear_transform(self):
        t = PiecewiseLinearTransform([0.0, 1.0, 2.0], [0.0, 0.5, 2.0])
        assert t(0.5) == pytest.approx(0.25)
        assert t(1.5) == pytest.approx(1.25)
        assert t(-1.0) == pytest.approx(-0.5)  # extended by end slope
        assert t.inverse(t(1.7)) == pytest.approx(1.7, abs=1e-12)
        with pytest.raises(ValueError):
            PiecewiseLinearTransform([0.0, 1.0], [1.0, 0.0])


class TestHelpers:
    def test_constant_detection(self):
        flat, lvl = contract_is_constant(ones_contract(SPACE3))
        assert flat and lvl == 1.0
        d = affine(2.0, 0.0)
        flat, lvl = contract_is_constant(d)
        assert flat and lvl == 2.0
        assert not contract_is_constant(affine(0.0, 1.0))[0]

    def test_argmin_finite(self):
        d = finite_contract(SPACE3, [0.5, -2.0, 1.0])
        y, v, attained = contract_argmin(d)
        assert (y, v, attained) == (2, -2.0, True)

    def test_argmin_piecewise(self):
        d = piecewise_contract([Piece(-INF, 0.0, (1.0, 0.0, 0.0)),
                                Piece(0.0, INF, (1.0, -2.0, 1.0))])
        y, v, attained = contract_argmin(d)
        assert attained
        assert v == pytest.approx(0.0, abs=1e-12)
        assert y == pytest.approx(1.0, abs=1e-9)
