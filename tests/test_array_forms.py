"""The array forms against the scalar forms they stand beside.

Each named potential's ``values``/``grads`` must equal its ``value``/``grad``
row by row within 0 ulps, and its array ``grad_inverse`` the closed form of
one target it replaced: both forms take the same libm functions and add
products in the same order.  So must
each rule's ``score_table`` against its stacked ``score_list``, each
real-line rule's ``piece_rows`` against its stacked ``score_pieces``, and
the batched share-matching candidates against the per-position hooks they
replaced.  The
one-pass PRICE-BOUND and QUASI-OPEN checks are held to the per-trial loops
they replaced, kept here as the references: the reports must be equal, on
seeds, and for PRICE-BOUND on lattices of random real bases of one to three
rows, and the generator must end in the loop's state."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srmarket.contracts import (
    INF,
    MEMBER_TOL,
    SIGMOID,
    PayoffOverflow,
    combine,
    piecewise_contract,
    sigmoid,
    stack_pieces,
)
from srmarket.convex import (
    ConvexFn,
    _vec,
    binary_lmsr_cost,
    binary_negentropy,
    interval_negentropy,
    invert_gradient,
    invert_gradients,
    log_partition,
    quadratic,
    simplex_negentropy,
)
from srmarket.costmarket import (
    CostRule,
    ShareSpace,
    binary_lmsr_rule,
    check_quasi_open,
    discretized_lmsr_rule,
    exp_family_rule,
    price_bound_check,
)
from srmarket.reports import FAILS, HOLDS_AT_BUDGET, AxiomReport
from srmarket.scoring import (
    ExpectationRule,
    ExpectileRule,
    InvalidReport,
    ModeRule,
    QuantileRule,
    RatioRule,
)

# the largest distance, in ulps, allowed between an array form's entry and
# the scalar form's: none
ULPS = 0


def assert_within_ulps(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    with np.errstate(invalid="ignore"):
        same = (got == want) | (np.isnan(got) & np.isnan(want)) | \
            (np.abs(got - want) <= ULPS * np.spacing(np.abs(want)))
    assert same.all(), (got[~same], want[~same])


# ---------------------------------------------------------------------------
# the potentials


def _interior(lo, hi):
    # points strictly inside (lo, hi), a few of them near either end
    return st.one_of(st.floats(lo, hi, exclude_min=True, exclude_max=True),
                     st.sampled_from([lo + 1e-12 * (hi - lo), hi - 1e-12 * (hi - lo)]))


def _simplex_points(k):
    return st.lists(st.floats(1e-9, 1.0), min_size=k + 1, max_size=k + 1).map(
        lambda w: (np.asarray(w) / np.sum(w))[:k])


PHI3 = np.array([[0.3, -1.2], [2.5, 0.7], [-0.4, 1.9]])
POTENTIALS = {
    "quadratic-1": (quadratic(1), st.floats(-1e6, 1e6).map(lambda v: [v])),
    "quadratic-3": (quadratic(3), st.lists(st.floats(-1e6, 1e6), min_size=3,
                                           max_size=3)),
    "binary-negentropy": (binary_negentropy(), _interior(0.0, 1.0).map(lambda v: [v])),
    # a point within an ulp of an end can scale onto it, where neither form
    # is defined
    "interval-negentropy": (interval_negentropy(-1.5, 3.0), _interior(-1.5, 3.0)
                            .filter(lambda v: 0.0 < (v + 1.5) / 4.5 < 1.0)
                            .map(lambda v: [v])),
    "simplex-negentropy-2": (simplex_negentropy(2), _simplex_points(2)),
    "simplex-negentropy-3": (simplex_negentropy(3), _simplex_points(3)),
    "binary-lmsr": (binary_lmsr_cost(), st.floats(-700.0, 700.0).map(lambda v: [v])),
    "log-partition-2": (log_partition(PHI3), st.lists(st.floats(-50.0, 50.0),
                                                      min_size=2, max_size=2)),
}


@pytest.mark.parametrize("name", sorted(POTENTIALS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_values_and_grads_match_the_scalar_forms(name, data):
    fn, points = POTENTIALS[name]
    xs = np.array(data.draw(st.lists(points, min_size=1, max_size=12)), dtype=float)
    assert fn.values_fn is not None and fn.grads_fn is not None
    assert_within_ulps(fn.values(xs), [fn.value(x) for x in xs])
    assert_within_ulps(fn.grads(xs), [fn.grad(x) for x in xs])


def _softmax(t):
    m = max(0.0, float(np.max(t)))
    e = np.exp(t - m)
    return e / (math.exp(-m) + float(np.sum(e)))


# the closed-form inverses one target at a time, as they were before the
# array form replaced them
SCALAR_INVERSES = {
    "quadratic-1": lambda t: 0.5 * t,
    "quadratic-3": lambda t: 0.5 * t,
    "binary-negentropy": lambda t: np.array([sigmoid(t[0])]),
    "interval-negentropy": lambda t: np.array([-1.5 + 4.5 * sigmoid(4.5 * t[0])]),
    "simplex-negentropy-2": _softmax,
    "simplex-negentropy-3": _softmax,
}


@pytest.mark.parametrize("name", sorted(SCALAR_INVERSES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_grad_inverse_matches_the_scalar_form(name, data):
    fn, _ = POTENTIALS[name]
    targets = np.array(data.draw(st.lists(
        st.lists(st.floats(-800.0, 800.0), min_size=fn.dim, max_size=fn.dim),
        min_size=1, max_size=12)), dtype=float)
    assert_within_ulps(fn.grad_inverse(targets),
                       [SCALAR_INVERSES[name](t) for t in targets])
    for got, t in zip(invert_gradients(fn, targets), targets):
        want = invert_gradient(fn, t)
        assert (got is None) == (want is None)
        if want is not None:
            assert_within_ulps(got, want)


def test_simplex_gradient_is_nan_off_the_open_simplex():
    fn = simplex_negentropy(2)
    xs = np.array([[0.2, 0.3], [0.6, 0.4], [0.7, 0.5]])
    assert_within_ulps(fn.grads(xs), [fn.grad(x) for x in xs])
    assert np.isnan(fn.grads(xs)[1:]).all()


def test_from_callables_loops_over_the_rows():
    # a potential given by its value and gradient alone, no array forms
    fn = ConvexFn(dim=1, value_fn=lambda x: x[0] ** 4,
                  grad_fn=lambda x: [4.0 * x[0] ** 3], lo=np.array([-INF]),
                  hi=np.array([INF]))
    assert fn.values_fn is None and fn.grad_inverse is None
    xs = np.array([[-1.0], [0.5], [2.0]])
    assert fn.values(xs).tolist() == [1.0, 0.0625, 16.0]
    assert fn.grads(xs).tolist() == [[-4.0], [0.5], [32.0]]
    assert [x.tolist() for x in invert_gradients(fn, [[4.0], [-32.0]])] == \
        [pytest.approx([1.0]), pytest.approx([-2.0])]


def test_overflow_is_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert quadratic(2).values([[1e200, 1e200]]).tolist() == [INF]


# ---------------------------------------------------------------------------
# score tables


RULES = {
    "lmsr": (binary_lmsr_rule(), st.floats(-30.0, 30.0)),
    "lmsr-lattice": (discretized_lmsr_rule(), st.integers(-8, 8).map(float)),
    "exp-family-2": (exp_family_rule(PHI3), st.lists(
        st.floats(-20.0, 20.0), min_size=2, max_size=2).map(np.array)),
    "entropy-expectation": (ExpectationRule(binary_negentropy(), [[0.0], [1.0]]),
                            _interior(0.0, 1.0)),
    "simplex-expectation": (ExpectationRule(simplex_negentropy(2),
                                            [[0, 0], [1, 0], [0, 1]]),
                            _simplex_points(2).filter(
                                lambda x: min(x[0], x[1], 1 - x[0] - x[1]) > 1e-6)),
    "quadratic-box-2": (ExpectationRule(quadratic(2), PHI3),
                        st.tuples(st.floats(-0.39, 2.49), st.floats(-1.19, 1.89))
                        .map(np.array)),
    "ratio": (RatioRule(interval_negentropy(0.0, 3.0), [0.0, 1.0, 3.0],
                        [2.0, 1.0, 1.0]), st.floats(0.01, 2.99)),
}


@pytest.mark.parametrize("name", sorted(RULES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_score_table_matches_stacked_score_rows(name, data):
    rule, reports = RULES[name]
    rs = data.draw(st.lists(reports, min_size=1, max_size=12))
    assert_within_ulps(rule.score_table(rs), [rule.score_list(r) for r in rs])


def test_score_table_raises_for_the_first_report_outside_the_space():
    rule, _ = RULES["ratio"]
    with pytest.raises(InvalidReport, match="3.5"):
        rule.score_table([1.0, 3.5, -1.0])
    rule, _ = RULES["simplex-expectation"]
    with pytest.raises(InvalidReport, match="0.7"):
        rule.score_table([np.array([0.2, 0.3]), np.array([0.7, 0.7])])
    # a report of the wrong shape takes the report-by-report path
    with pytest.raises(InvalidReport):
        rule.score_table([np.array([0.2, 0.3]), 0.5])


def test_score_table_overflow_raises_without_a_warning():
    rule = ExpectationRule(quadratic(1, lo=[-1e300], hi=[1e300]),
                           [[-1e300], [1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PayoffOverflow):
            rule.score_table([0.0, 9e299])


# ---------------------------------------------------------------------------
# real-line piece tables


PIECE_RULES = {
    "median": QuantileRule(0.5),
    "sigmoid-quantile": QuantileRule(0.3, SIGMOID),
    "expectile": ExpectileRule(0.3),
    "expectile-g": ExpectileRule(0.8, (1.0, -2.0, 3.0)),
    "mean": ExpectationRule(quadratic(1)),
}

# signed zeros, reports near 1e7, where the constant terms round at the
# scale of r or r^2, and +-1e154, where the mean's and a steep expectile's
# constant terms overflow
PIECE_REPORTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e7, -1e7, 1e7 + 0.5, 1e154, -1e154,
                     float(np.nextafter(0.0, 1.0)), 0.1 + 0.2]),
    st.floats(1e7 - 8.0, 1e7 + 8.0), st.integers(-4, 4),
    st.floats(allow_nan=False, allow_infinity=False))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", sorted(PIECE_RULES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_piece_rows_match_stacked_score_pieces(name, data):
    # to the bit, signed zeros and overflows included; score_stack then
    # raises PayoffOverflow, without numpy's warning, where a row overflows
    rule = PIECE_RULES[name]
    rs = data.draw(st.lists(PIECE_REPORTS, min_size=1, max_size=12))
    with np.errstate(over="ignore", invalid="ignore"):
        want = stack_pieces([rule.score_pieces(r) for r in rs])
        got = rule.piece_rows(rs)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert (_bits(g) == _bits(w)).all(), (g, w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.isfinite(want[1]).all():
            stack, transform = rule.score_stack(rs)
            assert transform is rule.transform
            assert all((_bits(g) == _bits(w)).all() for g, w in zip(stack, want))
        else:
            with pytest.raises(PayoffOverflow):
                rule.score_stack(rs)


@pytest.mark.parametrize("name", ["mean", "expectile-g"])
def test_score_stack_overflows_at_1e154(name):
    rule = PIECE_RULES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (1e154, -1e154):
            with pytest.raises(PayoffOverflow):
                rule.score_stack([0.0, r])


def test_piece_rows_raise_for_the_first_report_outside_the_space():
    for rule in PIECE_RULES.values():
        with pytest.raises(InvalidReport, match="'1.0'"):
            rule.piece_rows([0.0, "1.0", math.nan])
        with pytest.raises(InvalidReport, match="nan"):
            rule.piece_rows([0.0, math.nan, "1.0"])


# ---------------------------------------------------------------------------
# analytic neutralization candidates


def _report_or_none(c):
    return None if c is None else np.atleast_1d(c).tolist()


def reference_share(rule, r):
    """``PotentialRule.share`` as it was: dG at one report."""
    return rule.potential.grad(rule._r(r))


def reference_invert_share(rule, q):
    """``PotentialRule.invert_share`` as it was: one inversion, and None
    where it finds no point or the report space leaves the point out."""
    x = invert_gradient(rule.potential, q)
    if x is None:
        return None
    r = x if rule.k > 1 else float(x[0])
    return r if rule.report_space.contains(r) else None


def reference_candidate(rule, hook, position):
    """The share-matching hooks as they were, one share at a time: WN and
    TN subtract the held trade's share change, PN sums its trades' changes
    from zero."""
    trades, state = position
    if hook == "pn_candidate":
        total = np.zeros(rule.k)
        for ra, rb in trades:
            total = total + reference_share(rule, rb) - reference_share(rule, ra)
    else:
        [(r1, r1p)] = trades
        total = reference_share(rule, r1p) - reference_share(rule, r1)
    return reference_invert_share(rule, reference_share(rule, state) - total)


def reference_cost_candidate(rule, hook, position):
    """``CostRule.pn_candidate`` as it was: sell back each held bundle."""
    trades, r = position
    total = np.zeros(rule.k)
    for ra, rb in trades:
        total = total + _vec(rb) - _vec(ra)
    out = _vec(r) - total
    return float(out[0]) if rule.k == 1 else out


def reference_expectile_candidate(rule, hook, position):
    """``ExpectileRule.wn_candidate`` as it was: match the tail slopes, which
    for the linear g' is r2' = r2 + (r1 - r1p)."""
    [(r1, r1p)], r2 = position
    return float(r2) + (float(r1) - float(r1p))


MATCHED_RULES = {**RULES, "expectile": (ExpectileRule(0.3), st.floats(-30.0, 30.0))}

# each deleted hook, and the check it served
HOOKS = {"wn_candidate": "WN", "tn_candidate": "TN", "pn_candidate": "PN"}


@pytest.mark.parametrize("name", ["entropy-expectation", "simplex-expectation",
                                  "quadratic-box-2", "ratio", "lmsr",
                                  "lmsr-lattice", "exp-family-2", "expectile"])
@pytest.mark.parametrize("hook", sorted(HOOKS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_analytic_candidates_match_the_share_loop(name, hook, data):
    # one batch over positions of mixed sizes, each position alone, and the
    # hook it replaced agree; no report is -0.0, whose share the sum from
    # zero could turn into 0.0
    rule, reports = MATCHED_RULES[name]
    serves = HOOKS[hook] in rule.matches
    # the ratio's and the expectile's hooks matched for WN alone
    assert serves == (hook == "wn_candidate" or name not in ("ratio", "expectile"))
    if not serves:
        return
    reports = reports.map(lambda r: r + 0.0)   # -0.0 + 0.0 is 0.0
    most = 3 if hook == "pn_candidate" else 1
    position = st.integers(1, most).flatmap(lambda m: st.tuples(
        st.lists(st.tuples(reports, reports), min_size=m, max_size=m), reports))
    positions = data.draw(st.lists(position, min_size=1, max_size=8))
    got = list(map(_report_or_none, rule.matched_candidates(positions)))
    assert got == [_report_or_none(rule.matched_candidates([p])[0])
                   for p in positions]
    reference = reference_cost_candidate if isinstance(rule, CostRule) else \
        reference_expectile_candidate if isinstance(rule, ExpectileRule) else \
        reference_candidate
    assert got == [_report_or_none(reference(rule, hook, p)) for p in positions]


def test_rules_without_a_hook_match_for_no_check():
    # the quantile and the payoff matrices had no analytic candidate
    assert not QuantileRule(0.3).matches
    assert not ModeRule(3).matches


# ---------------------------------------------------------------------------
# PRICE-BOUND and QUASI-OPEN in one pass


def reference_price_bound(rule, trials=1000, rng=None):
    """``price_bound_check`` as a loop over the trials, before the batch."""
    rng = rng or np.random.default_rng(0)
    min_margin = INF
    worst = None
    for _ in range(trials):
        if rule.shares.is_lattice:
            b = rule.shares._b()
            q = b @ rng.integers(-8, 9, size=rule.k).astype(float)
            n = rng.integers(-6, 7, size=rule.k).astype(float)
            if np.all(n == 0):
                n[0] = 1.0
            v = b @ n
        else:
            q = rng.normal(scale=4.0, size=rule.k)
            v = rng.normal(scale=3.0, size=rule.k)
            if np.linalg.norm(v) <= MEMBER_TOL:
                v = np.ones(rule.k)
        margin = float(np.max(rule.phi @ v)) - (
            rule.cost.value(q + v) - rule.cost.value(q))
        if margin < min_margin:
            min_margin = margin
            worst = {"q": q.tolist(), "v": v.tolist(), "margin": margin}
        if margin <= 0.0:
            return AxiomReport(axiom="PRICE-BOUND", verdict=FAILS,
                               margin=margin, witness=worst,
                               budget={"trials": trials})
    return AxiomReport(axiom="PRICE-BOUND", verdict=HOLDS_AT_BUDGET,
                       margin=min_margin, witness={"tightest": worst},
                       budget={"trials": trials})


def reference_quasi_open(rule, bound=8, rng=None):
    """``check_quasi_open`` as a loop over states and directions."""
    rng = rng or np.random.default_rng(0)
    if rule.shares.is_lattice:
        qs = rule.shares.lattice_points(bound)
        vs = rule.shares.lattice_points(bound, include_zero=False)
    else:
        qs = [rng.normal(scale=4.0, size=rule.k) for _ in range(40)]
        vs = [rng.normal(scale=2.0, size=rule.k) for _ in range(40)]
        vs = [v for v in vs if np.linalg.norm(v) > MEMBER_TOL]
    min_margin = INF
    for q in qs:
        x = rule.cost.grad(q)
        for v in vs:
            margin = float(np.max(rule.phi @ v)) - float(np.dot(x, v))
            if margin < min_margin:
                min_margin = margin
            if margin <= 0.0:
                return AxiomReport(
                    axiom="QUASI-OPEN", verdict=FAILS, margin=margin,
                    witness={"q": np.atleast_1d(q).tolist(),
                             "v": np.atleast_1d(v).tolist(),
                             "subgradient": x.tolist(), "margin": margin},
                    budget={"states": len(qs), "directions": len(vs)})
    return AxiomReport(axiom="QUASI-OPEN", verdict=HOLDS_AT_BUDGET,
                       margin=min_margin,
                       budget={"states": len(qs), "directions": len(vs),
                               "bound": bound})


def _steep_cost():
    # C(q) = q^2 charges 2qv + v^2 for v, past max(0, v) for most states
    return quadratic(1)


# the securities of the two-security market pay 0 or 1, so every product
# sum is exact in any order, the reference's BLAS order included
MARKETS = {
    "lmsr_open": binary_lmsr_rule(),
    "discretized_lmsr": discretized_lmsr_rule(),
    "exp_family_2": exp_family_rule([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
    "steep_cost": CostRule(_steep_cost(), [[0.0], [1.0]]),
    "steep_cost_lattice": CostRule(_steep_cost(), [[0.0], [1.0]],
                                   shares=ShareSpace.integer_lattice(1)),
}


@pytest.mark.parametrize("name", sorted(MARKETS))
def test_price_bound_matches_the_trial_loop(name):
    rule = MARKETS[name]
    got = price_bound_check(rule, 1000, np.random.default_rng(0))
    assert got == reference_price_bound(rule, 1000, np.random.default_rng(0))
    assert got.verdict == (FAILS if name.startswith("steep") else HOLDS_AT_BUDGET)


def assert_price_bound_matches(rule, seed, trials):
    """The one-pass check gives the loop's report; where the loop ran every
    trial (it stops at a failing one), the generator ends in its state."""
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = price_bound_check(rule, trials, got_rng)
    assert got == reference_price_bound(rule, trials, want_rng)
    if got.verdict == HOLDS_AT_BUDGET:
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("name", sorted(MARKETS))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 16), trials=st.integers(1, 300))
def test_price_bound_matches_the_trial_loop_on_seeds(name, seed, trials):
    assert_price_bound_matches(MARKETS[name], seed, trials)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([1, 2, 3]),
       trials=st.integers(1, 300), data=st.data())
def test_price_bound_matches_the_trial_loop_on_random_lattices(seed, k, trials,
                                                               data):
    # the simplex's exponential family on a lattice of a random real basis,
    # diagonally dominant so invertible: its products round, so the reports
    # are equal only if the one-pass basis product is each trial's b @ n
    basis = np.eye(k) + np.array(data.draw(st.lists(
        st.lists(st.floats(-0.3, 0.3), min_size=k, max_size=k),
        min_size=k, max_size=k)))
    phi = np.vstack([np.zeros(k), np.eye(k)])
    rule = CostRule(log_partition(phi), phi, shares=ShareSpace.lattice(basis))
    assert_price_bound_matches(rule, seed, trials)


@pytest.mark.parametrize("name", sorted(MARKETS))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16), bound=st.integers(1, 8))
def test_quasi_open_matches_the_pair_loop(name, seed, bound):
    rule = MARKETS[name]
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = check_quasi_open(rule, bound, got_rng)
    want = reference_quasi_open(rule, bound, want_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    if rule.k == 1:
        assert got == want
    else:
        # the subgradient . v of two securities: BLAS may fuse its two
        # products, in either form, so the margins agree within an ulp
        assert (got.verdict, got.budget) == (want.verdict, want.budget)
        assert got.margin == pytest.approx(want.margin, rel=4e-16, abs=1e-300)


# ---------------------------------------------------------------------------
# combine refuses a sum that overflows


def _constant(level):
    return piecewise_contract((), [(level, 0.0, 0.0)])


def test_combine_raises_on_an_infinite_term():
    # abs(inf) <= STRUCT_TOL * inf holds, so the snap once made this 0.0
    with pytest.raises(PayoffOverflow):
        combine([_constant(INF), _constant(1.0)], [1.0, 1.0])


def test_combine_raises_on_a_sum_that_overflows():
    with pytest.raises(PayoffOverflow):
        combine([_constant(1.7e308), _constant(1.7e308)], [1.0, 1.0])
    assert combine([_constant(1.7e308), _constant(-1.7e308)],
                   [1.0, 1.0]).pieces[0] == (0.0, 0.0, 0.0)
