"""The five scoring families: score formulas, payoff contracts, elicited
statistics, and independent best responses."""

import math

import numpy as np
import pytest

from srmarket.contracts import (
    SIGMOID,
    cdf_belief,
    contract_bounds,
    finite_belief,
    uniform_belief,
)
from srmarket.convex import (
    binary_negentropy,
    interval_negentropy,
    quadratic,
    simplex_negentropy,
)
from srmarket.scoring import (
    ExpectationRule,
    ExpectileRule,
    FiniteRule,
    InvalidReport,
    ModeRule,
    QuantileRule,
    RatioRule,
)


def grid_argmax(rule, p, grid):
    """Independent argmax oracle over an explicit report grid."""
    vals = [rule.expected_score(r, p) for r in grid]
    return grid[int(np.argmax(vals))]


class TestModeRule:
    def setup_method(self):
        self.rule = ModeRule([1, 2, 3])

    def test_dollar_iff_correct(self):
        assert self.rule.score(2, 2) == 1.0
        assert self.rule.score(2, 3) == 0.0

    def test_score_contract_unit_vector(self):
        d = self.rule.score_contract(1)
        assert np.array_equal(d.values, [1.0, 0.0, 0.0])

    def test_property_is_pmf_argmax(self):
        p = finite_belief(self.rule.outcome_space, [0.2, 0.5, 0.3])
        assert self.rule.property_value(p) == (2,)

    def test_tie_returns_full_set(self):
        p = finite_belief(self.rule.outcome_space, [0.4, 0.4, 0.2])
        assert self.rule.property_value(p) == (1, 2)
        assert self.rule.best_response(p) == 1  # smallest label on ties

    def test_best_response_two_outcomes(self):
        rule = ModeRule([1, 2])
        p = finite_belief(rule.outcome_space, [0.6, 0.4])
        assert rule.best_response(p) == 1

    def test_invalid_report(self):
        with pytest.raises(InvalidReport):
            self.rule.score(7, 1)

    def test_loss_bound_is_one(self):
        assert self.rule.loss_bound(1) == pytest.approx(1.0)


class TestFiniteRule:
    def test_weighted_mode_property(self):
        rule = FiniteRule.weighted_mode([1, 2, 3], [1.0, 1.5, 2.0])
        p = finite_belief(rule.outcome_space, [0.5, 0.3, 0.2])
        # argmax of (0.5, 0.45, 0.4) -> label 1
        assert rule.property_value(p) == (1,)
        p2 = finite_belief(rule.outcome_space, [0.3, 0.3, 0.4])
        assert rule.property_value(p2) == (3,)

    def test_dominated_report_matrix(self):
        # S(2, .) = S(1, .) + 1: report 1 can never be optimal
        from srmarket.contracts import OutcomeSpace

        m = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
        rule = FiniteRule(m, OutcomeSpace.finite((1, 2, 3)))
        p = finite_belief(rule.outcome_space, [0.8, 0.1, 0.1])
        assert 1 not in rule.property_value(p)


class TestExpectationRule:
    def setup_method(self):
        self.mean = ExpectationRule(quadratic(1))

    def test_quadratic_score_formula(self):
        # G(r) = r^2, dG = 2r: S(r, y) = 2ry - r^2
        assert self.mean.score(1.0, 3.0) == pytest.approx(5.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            r, y = rng.normal(size=2) * 2
            assert self.mean.score(r, y) == pytest.approx(2 * r * y - r * r,
                                                          abs=1e-12)

    def test_trade_contract_formula(self):
        # F(r', y | r) = r^2 - r'^2 + 2y (r' - r)
        d = self.mean.trade_contract(0.0, 2.0)
        for y in (-1.0, 0.0, 0.5, 3.0):
            assert d(y) == pytest.approx(-4.0 + 4.0 * y, abs=1e-12)

    def test_finite_contract_values(self):
        rule = ExpectationRule(quadratic(1), phi=np.array([[0.0], [1.0]]))
        d = rule.score_contract(0.5)
        assert np.allclose(d.values, [-0.25, 0.75], atol=1e-15)

    def test_property_and_best_response_agree(self):
        p = cdf_belief([0.0, 1.4], [0.0, 1.0])  # mean 0.7
        assert self.mean.property_value(p) == pytest.approx(0.7, abs=1e-12)
        assert self.mean.best_response(p) == pytest.approx(0.7, abs=1e-7)

    def test_entropy_rule_on_binary_outcomes(self):
        rule = ExpectationRule(binary_negentropy(),
                               phi=np.array([[0.0], [1.0]]))
        p = finite_belief(rule.outcome_space, [0.25, 0.75])
        assert rule.property_value(p) == pytest.approx(0.75)
        assert rule.best_response(p) == pytest.approx(0.75, abs=1e-7)

    def test_divergence_probe_grows(self):
        losses = self.mean.divergence_probe(0.0)
        vals = [v for _, v in losses]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1e6

    def test_share_inversion(self):
        rule = ExpectationRule(binary_negentropy(),
                               phi=np.array([[0.0], [1.0]]))
        r = rule.invert_share(rule.share(0.3))
        assert r == pytest.approx(0.3, abs=1e-10)

    def test_reports_outside_the_potential_domain_are_invalid(self):
        # the box [0, 1]^2 spanned by phi reaches outside the simplex on
        # which the negative entropy is defined
        rule = ExpectationRule(simplex_negentropy(2),
                               phi=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert rule.report_space.contains([0.2, 0.3])
        assert not rule.report_space.contains([0.8, 0.8])
        with pytest.raises(InvalidReport):
            rule.score_contract([0.8, 0.8])
        # the box alone still bounds a potential defined on all of it
        box = ExpectationRule(quadratic(2), phi=[[0.0, 0.0], [1.0, 0.0],
                                                 [0.0, 1.0]])
        assert box.report_space.contains([0.8, 0.8])

    def test_simplex_searches_stay_in_the_hull(self):
        # the report grid and the best response's coordinate search are cut
        # to the simplex; on the whole box [0, 1]^2 both reached reports
        # outside it and raised InvalidReport for every belief
        from srmarket.axioms import check_arb, check_ic, check_wcl
        rule = ExpectationRule(simplex_negentropy(2),
                               phi=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        p = finite_belief(rule.outcome_space, [0.2, 0.3, 0.5])
        r = rule.best_response(p)
        assert float(np.max(np.abs(r - np.array([0.3, 0.5])))) < 1e-6
        grid = rule.report_grid()
        assert grid and all(rule.report_space.contains(g) for g in grid)
        check_arb(rule)
        check_ic(rule)
        check_wcl(rule, np.array([0.2, 0.3]))


    @pytest.mark.parametrize("pmf", [[0.02, 0.49, 0.49], [0.01, 0.01, 0.98],
                                     [0.001, 0.4, 0.599]])
    def test_simplex_best_response_near_the_facet(self, pmf):
        # the expected score's level sets run along the facet x + y = 1:
        # after 5 coordinate cycles the picks were (0.483, 0.497) and
        # (0.0107, 0.9793); on the last belief 200 cycles of coordinate
        # steps alone stay 1.3e-3 off, and the search along each cycle's
        # move finds it
        rule = ExpectationRule(simplex_negentropy(2),
                               phi=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        r = rule.best_response(finite_belief(rule.outcome_space, pmf))
        assert float(np.max(np.abs(r - np.array(pmf[1:])))) <= 1e-6


class TestQuantileRule:
    def test_pinball_identity_form(self):
        rule = QuantileRule(0.5)
        assert rule.score(1.0, 3.0) == pytest.approx(-1.0)
        rng = np.random.default_rng(2)
        for _ in range(100):
            r, y = rng.normal(size=2) * 3
            # alpha = 1/2 collapses to -|r - y| / 2
            assert rule.score(r, y) == pytest.approx(-0.5 * abs(r - y),
                                                     abs=1e-12)

    def test_sigmoid_contract_bounds(self):
        rule = QuantileRule(0.5, SIGMOID)
        d = rule.score_contract(0.0)
        lo, hi = contract_bounds(d)
        assert -0.5 - 1e-12 <= lo and hi <= 0.0 + 1e-12

    def test_property_is_cdf_quantile(self):
        rule = QuantileRule(0.3)
        assert rule.property_value(uniform_belief(0, 1)) == pytest.approx(0.3)

    def test_best_response_matches_grid_oracle(self):
        rule = QuantileRule(0.3)
        u = uniform_belief(0.0, 1.0)
        grid = [float(v) for v in np.linspace(-0.5, 1.5, 2001)]
        oracle = grid_argmax(rule, u, grid)
        assert abs(oracle - 0.3) <= 1e-3
        assert rule.best_response(u) == pytest.approx(0.3, abs=1e-6)

    def test_transform_invariance_of_argmax(self):
        # strictly increasing transforms leave the elicited quantile alone
        rng = np.random.default_rng(5)
        for _ in range(10):
            xs = np.cumsum(rng.uniform(0.3, 1.0, size=4))
            fs = np.cumsum(rng.uniform(0.3, 1.0, size=4))
            p = cdf_belief(xs - xs[0] - 1.0, (fs - fs[0]) / (fs[-1] - fs[0]))
            for alpha in (0.3, 0.5, 0.8):
                r_id = QuantileRule(alpha).best_response(p)
                r_sig = QuantileRule(alpha, SIGMOID).best_response(p)
                assert r_id == pytest.approx(r_sig, abs=1e-6)
                assert r_id == pytest.approx(p.quantile(alpha), abs=1e-6)

    def test_user_monotone_piecewise_transform(self):
        from srmarket.contracts import PiecewiseLinearTransform

        g = PiecewiseLinearTransform([-1.0, 0.0, 2.0], [-2.0, 0.0, 1.0])
        rule = QuantileRule(0.4, g)
        # contract evaluation matches the raw formula everywhere
        d = rule.score_contract(0.5)
        for y in np.linspace(-3, 4, 71):
            want = (0.4 - (1.0 if 0.5 >= y else 0.0)) * (g(0.5) - g(y))
            assert d(y) == pytest.approx(want, abs=1e-12)
        # expected score integrates exactly across the transform kinks
        p = cdf_belief([-2.0, 1.0, 3.0], [0.0, 0.6, 1.0])
        from scipy.integrate import quad

        def integrand(y):
            dens = 0.6 / 3.0 if y < 1.0 else 0.4 / 2.0
            return rule.score(0.5, y) * dens

        approx, _ = quad(integrand, -2.0, 3.0, points=[0.0, 0.5, 1.0, 2.0],
                         limit=200)
        assert rule.expected_score(0.5, p) == pytest.approx(approx, abs=1e-9)
        # the transform does not move the elicited quantile
        assert rule.best_response(p) == pytest.approx(p.quantile(0.4),
                                                      abs=1e-6)


class TestExpectileRule:
    def test_asymmetric_squared_error(self):
        rule = ExpectileRule(0.3)
        for r, y in ((0.0, 2.0), (1.0, -1.0), (0.5, 0.5)):
            w = abs((1.0 if y <= r else 0.0) - 0.3)
            assert rule.score(r, y) == pytest.approx(-w * (y - r) ** 2)

    def test_contract_matches_score(self):
        rule = ExpectileRule(0.7)
        d = rule.score_contract(0.4)
        for y in np.linspace(-3, 3, 61):
            assert d(y) == pytest.approx(rule.score(0.4, y), abs=1e-12)

    def test_half_expectile_is_mean(self):
        rule = ExpectileRule(0.5)
        u = uniform_belief(0.0, 1.0)
        assert rule.property_value(u) == pytest.approx(0.5, abs=1e-8)
        p = cdf_belief([0.0, 1.0, 5.0], [0.0, 0.8, 1.0])
        assert rule.property_value(p) == pytest.approx(p.mean(), abs=1e-8)

    def test_identification_gap_signs(self):
        rule = ExpectileRule(0.3)
        u = uniform_belief(0.0, 1.0)
        mu = rule.property_value(u)
        assert rule.identification_gap(mu - 0.2, u) < 0
        assert rule.identification_gap(mu + 0.2, u) > 0
        assert rule.identification_gap(mu, u) == pytest.approx(0.0, abs=1e-9)

    def test_best_response_matches_property(self):
        rule = ExpectileRule(0.3)
        u = uniform_belief(0.0, 1.0)
        assert rule.best_response(u) == pytest.approx(rule.property_value(u),
                                                      abs=1e-6)

    def test_score_difference_monotone_in_outcome(self):
        # for r' > r the trade payoff increases strictly in y, and
        # (2 tau - 1) times it is convex in y
        for tau in (0.3, 0.7):
            rule = ExpectileRule(tau)
            d = rule.trade_contract(-0.5, 1.0)
            ys = np.linspace(-6, 6, 1201)
            vals = np.array([d(y) for y in ys])
            assert np.all(np.diff(vals) > 0)
            signed = (2 * tau - 1) * vals
            second = np.diff(signed, 2)
            assert np.min(second) > -1e-9

    def test_bregman_kernel_quasi_convex_in_second_argument(self):
        # no strict interior local max along x for D(y, x); at tau = 1/2 the
        # weight is 1/2 on both sides, so the score is -D(y, x) / 2
        rule = ExpectileRule(0.5, g=math.exp, gprime=math.exp)
        for y in (-1.0, 0.0, 1.5):
            xs = np.linspace(-3, 3, 601)
            vals = np.array([-2.0 * rule.score(x, y) for x in xs])
            inner = (vals[1:-1] > vals[:-2] + 1e-12) & \
                    (vals[1:-1] > vals[2:] + 1e-12)
            assert not np.any(inner)

    def test_callable_transform_scores(self):
        rule = ExpectileRule(0.4, g=lambda y: math.exp(y),
                             gprime=lambda y: math.exp(y))
        breg = math.exp(2.0) - math.exp(1.0) - math.exp(1.0) * 1.0
        assert rule.score(1.0, 2.0) == pytest.approx(-0.4 * breg)
        with pytest.raises(InvalidReport):
            rule.score_contract(1.0)


class TestRatioRule:
    def setup_method(self):
        self.rule = RatioRule(interval_negentropy(0.0, 3.0),
                              phi=np.array([0.0, 1.0, 3.0]),
                              b=np.array([2.0, 1.0, 1.0]))

    def test_score_formula(self):
        g = self.rule.potential
        r, y_idx = 1.2, 2
        expected = (self.rule.b[y_idx] * g.value([r]) +
                    g.grad([r])[0] * (self.rule.phi[y_idx, 0] -
                                      r * self.rule.b[y_idx]))
        assert self.rule.score(r, y_idx) == pytest.approx(expected, abs=1e-12)

    def test_property_is_ratio_of_expectations(self):
        p = finite_belief(self.rule.outcome_space, [0.3, 0.3, 0.4])
        num = 0.3 * 0.0 + 0.3 * 1.0 + 0.4 * 3.0
        den = 0.3 * 2.0 + 0.3 * 1.0 + 0.4 * 1.0
        assert self.rule.property_value(p) == pytest.approx(num / den)

    def test_best_response_matches_property(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            pmf = rng.dirichlet(np.ones(3))
            p = finite_belief(self.rule.outcome_space, pmf)
            gamma = self.rule.property_value(p)
            assert self.rule.best_response(p) == pytest.approx(gamma,
                                                               abs=1e-6)

    def test_first_order_condition_at_property(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pmf = rng.dirichlet(np.ones(3))
            p = finite_belief(self.rule.outcome_space, pmf)
            gamma = self.rule.property_value(p)
            if 0.05 < gamma < 2.95:
                # the central difference of the expected score at gamma
                step = 1e-5
                slope = (self.rule.expected_score(gamma + step, p) -
                         self.rule.expected_score(gamma - step, p)) / (2 * step)
                assert abs(slope) <= 1e-6

    def test_positive_denominator_required(self):
        with pytest.raises(ValueError):
            RatioRule(quadratic(1), phi=np.array([0.0, 1.0]),
                      b=np.array([1.0, 0.0]))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_ratio_rejected_without_warning(self):
        # 1e300 / 1e-300 is inf, which no domain holds, the real line's either
        with pytest.raises(ValueError, match="domain must hold"):
            RatioRule(quadratic(1), phi=np.array([1e300, 1.0, 3.0]),
                      b=np.array([1e-300, 1.0, 1.0]))

    def test_affine_independence_required(self):
        with pytest.raises(ValueError):
            RatioRule(quadratic(1), phi=np.array([1.0, 1.0, 1.0]),
                      b=np.array([1.0, 1.0, 1.0]))


class TestElicitationAgreement:
    """best_response (search) must coincide with property_value (formula)."""

    def test_all_families_random_beliefs(self):
        rng = np.random.default_rng(123)
        mode = ModeRule([1, 2, 3])
        mean = ExpectationRule(quadratic(1))
        ent = ExpectationRule(binary_negentropy(),
                              phi=np.array([[0.0], [1.0]]))
        quant = QuantileRule(0.3)
        expe = ExpectileRule(0.7)
        ratio = RatioRule(interval_negentropy(0.0, 3.0),
                          phi=np.array([0.0, 1.0, 3.0]),
                          b=np.array([2.0, 1.0, 1.0]))
        for _ in range(20):
            pmf3 = rng.dirichlet(np.ones(3))
            p3 = finite_belief(mode.outcome_space, pmf3)
            assert mode.best_response(p3) in mode.property_value(p3)

            pr = finite_belief(ratio.outcome_space, rng.dirichlet(np.ones(3)))
            assert ratio.best_response(pr) == pytest.approx(
                ratio.property_value(pr), abs=1e-6)

            p2 = finite_belief(ent.outcome_space,
                               rng.dirichlet(np.ones(2)))
            if 0.02 < p2.pmf[1] < 0.98:
                assert ent.best_response(p2) == pytest.approx(
                    ent.property_value(p2), abs=1e-6)

            xs = np.cumsum(rng.uniform(0.3, 1.0, size=5)) - 2.0
            fs = np.cumsum(rng.uniform(0.3, 1.0, size=5))
            pc = cdf_belief(xs, (fs - fs[0]) / (fs[-1] - fs[0]))
            assert mean.best_response(pc) == pytest.approx(pc.mean(),
                                                           abs=1e-6)
            assert quant.best_response(pc) == pytest.approx(
                pc.quantile(0.3), abs=1e-6)
            assert expe.best_response(pc) == pytest.approx(
                expe.property_value(pc), abs=1e-6)
