"""Cost-function markets: trades, prices, lattices, neutralization,
openness checks, the price-bound inequality, subgroup falsification, and
the cost-extraction pipeline.

A cost market is a ``CostRule`` traded by ``MarketSession``: buying the
bundle v at the share state q is the trade q -> q + v, whose contract pays
v . phi(y) - (C(q + v) - C(q))."""

import math

import numpy as np
import pytest

from srmarket.contracts import (
    OutcomeSpace,
    combine,
    contract_is_constant,
    finite_belief,
    logit,
    project_cashless,
)
from srmarket.convex import (
    ConvexFn,
    binary_negentropy,
    interval_negentropy,
    quadratic,
    simplex_negentropy,
)
from srmarket.costmarket import (
    CostRule,
    ShareSpace,
    binary_lmsr_rule,
    check_open,
    check_quasi_open,
    check_subgroup,
    discretized_lmsr_rule,
    exp_family_rule,
    extract_cost_market,
    invert_gradient,
    price_bound_check,
    roundtrip_residual,
)
from srmarket.engine import MarketSession
from srmarket.scoring import ExpectationRule, InvalidReport, ModeRule, RatioRule


def line_fn(value, grad, lo=-math.inf, hi=math.inf):
    """A scalar potential from its value and gradient alone: no array forms,
    so its ``values`` and ``grads`` loop over the rows."""
    return ConvexFn(dim=1, value_fn=value, grad_fn=grad, lo=np.array([lo]),
                    hi=np.array([hi]))


def capped_cost():
    """Differentiable convex cost whose gradient attains the hull vertex 1:
    flat left tail, quadratic bridge, unit-slope right tail."""

    def val(q):
        q = q[0]
        if q <= -1.0:
            return 0.0
        if q < 3.0:
            return (q + 1.0) ** 2 / 8.0
        return q - 1.0

    def grad(q):
        q = q[0]
        if q <= -1.0:
            return [0.0]
        if q < 3.0:
            return [(q + 1.0) / 4.0]
        return [1.0]

    return line_fn(val, grad)


class TestShareSpace:
    def test_full_contains_everything(self):
        assert ShareSpace.full().contains([1.2345])

    def test_integer_lattice_membership(self):
        lat = ShareSpace.integer_lattice(1)
        assert lat.contains([3.0])
        assert lat.contains([-5.0])
        assert not lat.contains([0.5])

    def test_lattice_group_closure(self):
        lat = ShareSpace.lattice([[2.0, 0.0], [1.0, 1.0]])
        pts = lat.lattice_points(2)
        for v in pts[:10]:
            assert lat.contains(-v)
            for w in pts[:10]:
                assert lat.contains(v + w)

    def test_singular_basis_rejected(self):
        with pytest.raises(ValueError):
            ShareSpace.lattice([[1.0, 1.0], [1.0, 1.0]])


def buy(session: MarketSession, v):
    """Buy the bundle v at the session's share state: its trade contract."""
    return session.execute_trade("t", session.current + v)


class TestTrading:
    def test_lmsr_cost_of_first_share(self):
        d = buy(MarketSession(binary_lmsr_rule(), 0.0), 1.0)
        cost = math.log((1 + math.e) / 2)
        assert d.values == pytest.approx([-cost, 1.0 - cost], abs=1e-12)

    def test_zero_bundle_free(self):
        d = buy(MarketSession(binary_lmsr_rule(), 0.5), 0.0)
        assert np.all(d.values == 0.0)

    def test_lattice_rejects_fractional(self):
        session = MarketSession(discretized_lmsr_rule(), 0.0)
        with pytest.raises(InvalidReport):
            buy(session, 0.5)
        buy(session, 2.0)  # integers fine

    def test_score_hooks_validate_each_report(self):
        # a report of the wrong shape, or with an infinite share, raises
        # before it is scored, and the first such report raises
        binary = binary_lmsr_rule()
        p = finite_belief(binary.outcome_space, [0.3, 0.7])
        two = exp_family_rule(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        calls = [lambda: binary.trade_contract(0.0, [1.0, 5.0]),
                 lambda: binary.expected_score([1.0, 5.0], p),
                 lambda: binary.score_table([[1.0, 5.0]]),
                 lambda: binary.score_table([0.0, [1.0, 5.0], math.inf]),
                 lambda: binary.score_contract([1.0, math.inf]),
                 lambda: two.score_contract([1.0]),
                 lambda: two.score_contract([1.0, math.inf])]
        for call in calls:
            with pytest.raises(InvalidReport, match=r"\[1\.0"):
                call()

    def test_cost_path_independence(self):
        rule = binary_lmsr_rule()
        s1 = MarketSession(rule, 0.0)
        paid = buy(s1, 1.5).values + buy(s1, -0.7).values
        direct = buy(MarketSession(rule, 0.0), 0.8).values
        assert paid == pytest.approx(direct, abs=1e-12)

    def test_session_trade_validation_through_engine(self):
        from srmarket.engine import open_session

        rule = discretized_lmsr_rule()
        s = open_session(rule, 0.0)
        s.execute_trade("a", 2.0)
        with pytest.raises(InvalidReport):
            s.execute_trade("b", 2.5)

    def test_orientation_relabeling(self):
        # the opposite-orientation display pays (q - q')phi + C(q) - C(q');
        # it is our market with the share axis flipped: cost C(-q), states
        # negated.  Contracts coincide after that relabeling.
        rule = binary_lmsr_rule()
        c = rule.cost
        mirrored = CostRule(
            line_fn(lambda q: c.value([-q[0]]), lambda q: [-c.grad([-q[0]])[0]]),
            rule.phi, rule.outcome_space)
        phi = rule.phi[:, 0]
        for q, qp in ((0.0, 1.5), (-2.0, 0.7), (1.0, -1.0)):
            flipped_display = (q - qp) * phi + c.value([q]) - c.value([qp])
            dm = mirrored.trade_contract(-q, -qp)
            assert np.allclose(dm.values, flipped_display, atol=1e-12)


class TestPrices:
    def test_lmsr_symmetry_at_zero(self):
        assert binary_lmsr_rule().price(0.0)[0] == pytest.approx(0.5, abs=1e-15)

    def test_lmsr_price_at_log3(self):
        assert binary_lmsr_rule().price(math.log(3.0))[0] == \
            pytest.approx(0.75, abs=1e-12)

    def test_exp_family_uniform_at_zero(self):
        phi = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        rule = exp_family_rule(phi)
        assert np.allclose(rule.price([0.0, 0.0]), [1 / 3, 1 / 3], atol=1e-12)

    def test_property_value_inverts_price(self):
        rule = binary_lmsr_rule()
        p = finite_belief(rule.outcome_space, [0.25, 0.75])
        q = rule.property_value(p)
        assert q == pytest.approx(math.log(3.0), abs=1e-8)


class TestBestResponse:
    def test_full_space_pmf_belief(self):
        rule = binary_lmsr_rule()
        p = finite_belief(rule.outcome_space, [0.3, 0.7])
        q = rule.best_response(p)
        assert abs(q - rule.property_value(p)) <= 1e-6
        assert abs(q - logit(0.7)) <= 1e-6

    def test_lattice_answer_is_tradable(self):
        rule = discretized_lmsr_rule()
        p = finite_belief(rule.outcome_space, [0.3, 0.7])
        q = rule.best_response(p)
        assert q == 1.0  # the lattice state nearest logit(0.7) = 0.847
        session = MarketSession(rule, 0.0)
        session.execute_trade("a", q)
        assert session.current == 1.0

    def test_two_securities_full_space(self):
        rule = exp_family_rule([[1, 0], [0, 1], [0, 0]])
        p = finite_belief(rule.outcome_space, [0.2, 0.3, 0.5])
        q = rule.best_response(p)
        target = rule.property_value(p)  # log(p_y / p_3) = (-0.916, -0.511)
        assert np.all(np.isfinite(q))
        assert np.max(np.abs(q - target)) <= 1e-5


def neutralize(rule, bundles: list) -> tuple:
    """Buy each bundle in turn from the zero state, then move to the
    state ``matched_candidates`` picks: (closing bundle, held portfolio, net
    position)."""
    session = MarketSession(rule, 0.0)
    held = [buy(session, v) for v in bundles]
    trades = [(r.r_old, r.r_new) for r in session.records]
    [q_star] = rule.matched_candidates([(trades, session.current)])
    v_star = q_star - session.current
    closing = session.execute_trade("t", q_star)
    portfolio = combine(held, [1.0] * len(held))
    return v_star, portfolio, combine([portfolio, closing], [1.0, 1.0])


class TestNeutralization:
    def test_single_bundle(self):
        v_star, held, net = neutralize(binary_lmsr_rule(), [2.0])
        assert v_star == -2.0
        flat, cash = contract_is_constant(net)
        assert flat
        assert cash - float(np.min(held.values)) > 0

    def test_portfolio_cancellation(self):
        v_star, _, net = neutralize(binary_lmsr_rule(), [2.0, -1.0, 3.0])
        assert v_star == pytest.approx(-4.0)
        assert contract_is_constant(net)[0]

    def test_empty_sum_is_degenerate(self):
        rule = binary_lmsr_rule()
        v_star, _, net = neutralize(rule, [1.0, -1.0])
        assert abs(v_star) <= 1e-12
        costs = [rule.cost.value([1.0]) - rule.cost.value([0.0]),
                 rule.cost.value([0.0]) - rule.cost.value([1.0])]
        flat, cash = contract_is_constant(net)
        assert flat and cash == pytest.approx(-sum(costs), abs=1e-12)

    def test_mean_market_share_matching(self):
        # quadratic-potential market over outcomes {0, 1}: holding the trade
        # 0.1 -> 0.3 and standing at 0.9, the canceling report is 0.7 and the
        # net position is 0.24 cash, above the held contract's floor of -0.08
        rule = ExpectationRule(quadratic(1), phi=np.array([[0.0], [1.0]]))
        held = rule.trade_contract(0.1, 0.3)
        assert np.allclose(held.values, [-0.08, 0.32])
        [cand] = rule.matched_candidates([([(0.1, 0.3)], 0.9)])
        assert cand == pytest.approx(0.7, abs=1e-9)
        net = combine([held, rule.trade_contract(0.9, cand)], [1.0, 1.0])
        flat, level = contract_is_constant(net)
        assert flat and level == pytest.approx(0.24, abs=1e-7)
        assert level > float(np.min(held.values))


class TestOpenness:
    def test_binary_lmsr_open(self):
        assert check_open(binary_lmsr_rule()).ok

    def test_exp_family_open(self):
        phi = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert check_open(exp_family_rule(phi)).ok

    def test_capped_cost_not_open(self):
        rule = CostRule(capped_cost(), np.array([[0.0], [1.0]]))
        rep = check_open(rule)
        assert rep.verdict == "fails"

    def test_discretized_lmsr_quasi_open(self):
        rep = check_quasi_open(discretized_lmsr_rule(), bound=6)
        assert rep.ok
        assert rep.margin > 0

    def test_capped_cost_not_quasi_open(self):
        rule = CostRule(capped_cost(), np.array([[0.0], [1.0]]),
                        shares=ShareSpace.integer_lattice(1))
        rep = check_quasi_open(rule, bound=6)
        assert rep.verdict == "fails"
        assert "q" in rep.witness and "v" in rep.witness
        # replay the witness directly
        q = np.asarray(rep.witness["q"])
        v = np.asarray(rep.witness["v"])
        x = rule.cost.grad(q)
        assert float(np.max(rule.phi @ v)) - float(np.dot(x, v)) <= 0.0

    def test_gradient_inversion_hits_targets(self):
        rule = binary_lmsr_rule()
        for target in np.linspace(0.05, 0.95, 10):
            q = invert_gradient(rule.cost, [target])
            assert q is not None
            assert rule.cost.grad(q)[0] == pytest.approx(target, abs=1e-7)


class TestPriceBound:
    def test_binary_lmsr_thousand_trials(self):
        rep = price_bound_check(binary_lmsr_rule(), trials=1000,
                                rng=np.random.default_rng(0))
        assert rep.ok
        assert rep.margin > 0.0

    def test_spot_check_closed_form(self):
        rule = binary_lmsr_rule()
        margin = 1.0 - (rule.cost.value([1.0]) - rule.cost.value([0.0]))
        assert margin == pytest.approx(1.0 - math.log((1 + math.e) / 2),
                                       abs=1e-12)
        assert margin > 0

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trial_on_a_lattice_raises(self, trials):
        # zero trials checked nothing, and must not report holds-at-budget
        with pytest.raises(ValueError, match="at least one trial"):
            price_bound_check(discretized_lmsr_rule(), trials=trials)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trial_on_the_full_space_raises(self, trials):
        with pytest.raises(ValueError, match="at least one trial"):
            price_bound_check(binary_lmsr_rule(), trials=trials)

    def test_ratio_form_spot_check(self):
        # cost q^2/4 with security-to-denominator ratios {0, 1}: one unit
        # costs 1/4, strictly below the best ratio payoff of 1
        c = lambda q: q * q / 4.0
        assert max(0.0 / 2.0, 1.0 / 1.0) - (c(1.0) - c(0.0)) == pytest.approx(
            0.75)


class TestSubgroup:
    def test_mode_sum_counterexample(self):
        rule = ModeRule([1, 2, 3])
        hs = []
        for r in (1, 2, 3):
            d0, _ = project_cashless(rule.score_contract(r))
            hs.append(d0.values)
        sample = [a - b for a in hs for b in hs]
        rep = check_subgroup(sample)
        assert rep.verdict == "fails"
        assert rep.witness["kind"] == "sum"
        # the witness candidate is really absent from the closure sample
        cand = np.asarray(rep.witness["candidate"])
        dists = [float(np.max(np.abs(np.asarray(s) - cand))) for s in sample]
        assert min(dists) > 1e-9

    def test_lattice_closed_within_bound(self):
        lat = ShareSpace.integer_lattice(1)
        phi = np.array([[0.0], [1.0]])
        centered = phi - np.mean(phi, axis=0)
        sample = [centered @ w for w in lat.lattice_points(8)]
        col = centered[:, 0]

        def region(cand):
            n = float(cand @ col / (col @ col))
            return abs(n) <= 8 + 1e-9 and abs(n - round(n)) <= 1e-9

        rep = check_subgroup(sample, region=region)
        assert rep.ok

    def test_singleton_zero_sample(self):
        rep = check_subgroup([np.zeros(3)])
        assert rep.ok

    def test_sample_without_its_negation_fails(self):
        # with no region the sample is the whole set: a check that demands
        # nothing cannot pass
        rep = check_subgroup([np.array([1.0])])
        assert rep.verdict == "fails"
        assert rep.witness == {"kind": "negation", "d": [1.0]}


class TestExtraction:
    def test_entropy_rule_recovers_lmsr_conjugate(self):
        rule = ExpectationRule(binary_negentropy(),
                               phi=np.array([[0.0], [1.0]]))
        grid = [float(v) for v in np.linspace(0.1, 0.9, 9)]
        ext = extract_cost_market(rule, grid)
        assert ext.ok and ext.k == 1
        assert roundtrip_residual(rule, ext) < 1e-8
        # shares are affine in the logit; the cost matches log(1 + e^q)
        # up to affine terms
        logits = np.array([math.log(p / (1 - p)) for p in grid])
        a = np.vstack([logits, np.ones(len(grid))]).T
        coef, *_ = np.linalg.lstsq(a, ext.shares[:, 0], rcond=None)
        assert float(np.max(np.abs(a @ coef - ext.shares[:, 0]))) < 1e-9
        c_known = np.array([math.log(1 + math.exp(q)) for q in logits])
        coef2, *_ = np.linalg.lstsq(a, ext.cost_values - c_known, rcond=None)
        assert float(np.max(np.abs(a @ coef2 -
                                   (ext.cost_values - c_known)))) < 1e-6

    def test_mode_aborts_at_subgroup(self):
        ext = extract_cost_market(ModeRule([1, 2, 3]), [1, 2, 3])
        assert not ext.ok
        assert ext.failure_step == "subgroup"
        assert ext.witness["kind"] == "sum"

    @pytest.mark.parametrize("rule,grid", [
        (ModeRule([1, 2, 3]), [2]),
        (ExpectationRule(quadratic(1, lo=[-2.0], hi=[3.0]),
                         phi=[[0.0], [1.0], [2.5]]), [1.0, 1.0])],
        ids=["mode-one", "mean-repeated"])
    def test_grid_of_one_distinct_report_rejected(self, rule, grid):
        # a grid holds no trade: every rule read as redundant at the rank step
        with pytest.raises(ValueError, match="two distinct reports, not 1"):
            extract_cost_market(rule, grid)

    def test_constant_shift_rule_rejected_as_degenerate(self):
        from srmarket.scoring import FiniteRule

        m = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [0.0, 0.0, 0.0]])
        rule = FiniteRule(m, OutcomeSpace.finite((1, 2, 3)))
        ext = extract_cost_market(rule, [1, 2, 3])
        assert not ext.ok
        assert ext.failure_step == "rank"

    def test_ratio_rule_fails_group_structure(self):
        rule = RatioRule(interval_negentropy(0.0, 3.0),
                         phi=np.array([0.0, 1.0, 3.0]),
                         b=np.array([2.0, 1.0, 1.0]))
        grid = [float(v) for v in np.linspace(0.3, 2.7, 9)]
        ext = extract_cost_market(rule, grid)
        assert not ext.ok
        assert ext.failure_step == "subgroup"
        assert ext.k == 2
        tw = ext.witness.get("translate_witness")
        assert tw is not None and tw["distance"] > 1e-3

    def test_simplex_negentropy_two_dims(self):
        rule = ExpectationRule(simplex_negentropy(2),
                               phi=np.array([[1.0, 0.0], [0.0, 1.0],
                                             [0.0, 0.0]]))
        grid = [np.array([a, b])
                for a in np.linspace(0.12, 0.72, 4)
                for b in np.linspace(0.12, 0.72, 4) if a + b < 0.92]
        ext = extract_cost_market(rule, grid)
        assert ext.ok and ext.k == 2
        assert roundtrip_residual(rule, ext) < 1e-8

    def test_large_scores_keep_a_convex_cost(self):
        # scores of order 1e13 on shares of order 1: the cost's slopes put
        # the lower hull's facets within 1e-13 of vertical unless the costs
        # are taken in units of their scale
        rule = ExpectationRule(quadratic(1), phi=[[0.0], [1e7]])
        ext = extract_cost_market(rule, [k * 1e6 for k in range(1, 10)])
        assert ext.ok and ext.k == 1
        assert ext.convexity_gap <= 1e-7 * np.max(np.abs(ext.cost_values))

    def test_nonconvex_potential_fails_at_convexity(self):
        # sin(6x) is concave near 0.9: the cost point of that report sits
        # above the lower convex envelope of the others
        fn = line_fn(lambda x: math.sin(6.0 * x[0]),
                     lambda x: [6.0 * math.cos(6.0 * x[0])], 0.0, 1.0)
        rule = ExpectationRule(fn, phi=[[0.0], [1.0]])
        ext = extract_cost_market(rule, [k / 10 for k in range(1, 10)])
        assert not ext.ok and ext.failure_step == "convexity" and ext.k == 1
        assert ext.witness["report"] == "0.9"
        gap = ext.witness["envelope_gap"]
        assert type(gap) is float and type(ext.convexity_gap) is float
        assert gap == ext.convexity_gap
        assert gap == pytest.approx(4.588976817564819, rel=1e-9)
