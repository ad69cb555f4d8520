"""Fast paths and searches of the rule primitives, each pinned against the
code it replaced: ``RatioRule.reports_at`` stopping once its bracket
stops moving, ``BoxReports.contains`` with its corners converted once, the
search core of ``convex`` (``bisect``, ``bracket``, the fixed-step
``golden_max`` and ``invert_gradient``) against the loops each caller
hand-rolled, and ``brent_max`` against the golden-section search it
replaced.  The named potentials invert their gradients in closed form; the
share-inversion tests run the bisection fallback, the same potential
without its ``grad_inverse``, and
``test_closed_form_inverses_are_within_ulps_of_exact`` pins the closed forms
against exact arithmetic."""

import dataclasses
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from srmarket.contracts import (
    RESIDUAL_ACCEPT,
    SIGMOID,
    OutcomeSpace,
    cdf_belief,
    expected_payoff,
    finite_belief,
    project_cashless,
)
from srmarket.convex import (
    binary_negentropy,
    brent_max,
    golden_max,
    interval_negentropy,
    invert_gradient,
    log_partition,
    quadratic,
    simplex_negentropy,
)
from srmarket.costmarket import score_range_membership
from srmarket.scoring import (
    BoxReports,
    ExpectationRule,
    ExpectileRule,
    FiniteRule,
    ModeRule,
    QuantileRule,
    RatioRule,
    RealReports,
)


def reference_invert_share(rule, q):
    """The report whose share is q, ``reports_at([q])[0]``, with all 300
    bisection steps."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    dlo, dhi = float(rule.potential.lo[0]), float(rule.potential.hi[0])
    if math.isfinite(dlo) and math.isfinite(dhi):
        pad = 1e-13 * (dhi - dlo)
        lo, hi = dlo + pad, dhi - pad
    else:
        lo, hi = -1.0, 1.0
        for _ in range(400):
            if rule.potential.grad([lo])[0] <= q[0]:
                break
            lo *= 2.0
        for _ in range(400):
            if rule.potential.grad([hi])[0] >= q[0]:
                break
            hi *= 2.0
    if rule.potential.grad([lo])[0] > q[0] or rule.potential.grad([hi])[0] < q[0]:
        return None
    for _ in range(300):
        m = 0.5 * (lo + hi)
        if rule.potential.grad([m])[0] < q[0]:
            lo = m
        else:
            hi = m
    out = 0.5 * (lo + hi)
    return out if rule.report_space.contains(out) else None


def bisecting(fn):
    """The potential fn without its closed-form inverse, so that
    ``invert_gradient`` bisects."""
    return dataclasses.replace(fn, grad_inverse=None)


RATIO_RULES = {
    "bounded": RatioRule(bisecting(interval_negentropy(0.0, 3.0)),
                         [0.0, 1.0, 3.0], [2.0, 1.0, 1.0]),
    "unbounded": RatioRule(bisecting(quadratic(1)), [0.0, 1.0, 3.0],
                           [2.0, 1.0, 1.0]),
}


@pytest.mark.parametrize("kind", sorted(RATIO_RULES))
def test_invert_share_equals_full_bisection(kind):
    rule = RATIO_RULES[kind]
    rng = np.random.default_rng(20 if kind == "bounded" else 21)
    lo, hi = rule.report_space.lo[0], rule.report_space.hi[0]
    # shares of reports across and just beyond the report space, raw shares
    # of every magnitude, and the exact shares of the box corners
    targets = [rule.potential.grad([r])[0]
               for r in rng.uniform(lo - 0.1, hi + 0.1, 150)
               if kind == "unbounded" or 0.0 < r < 3.0]
    targets += list(rng.normal(0.0, 1.0, 100) * 10.0 ** rng.integers(-3, 6, 100))
    targets += [rule.potential.grad([lo + 1e-9])[0],
                rule.potential.grad([hi - 1e-9])[0], 0.0, -0.0, 1e300, -1e300]
    seen = 0
    for q in targets:
        got, want = rule.reports_at([q])[0], reference_invert_share(rule, q)
        assert got == want, q
        seen += got is not None
    assert seen >= 100


class _CountingPotential:
    """Forwards to a potential and counts gradient calls."""

    def __init__(self, fn):
        self.fn, self.grads = fn, 0

    def grad(self, x):
        self.grads += 1
        return self.fn.grad(x)

    def __getattr__(self, name):
        return getattr(self.fn, name)


@pytest.mark.parametrize("kind", sorted(RATIO_RULES))
def test_invert_share_stops_when_the_bracket_stops_moving(kind, monkeypatch):
    rule = RATIO_RULES[kind]
    counter = _CountingPotential(rule.potential)
    monkeypatch.setattr(rule, "potential", counter)
    for r in (0.1, 0.7, 1.5, 2.9):
        q = counter.fn.grad([r])[0]
        counter.grads = 0
        assert abs(rule.reports_at([q])[0] - r) < 1e-9
        # bracketing takes at most a few dozen calls; a double's bracket
        # stops moving after well under 120 halvings, not 300
        assert counter.grads < 200


def _outcome(f, *args):
    try:
        return ("value", f(*args))
    except Exception as exc:  # the exception class must match as well
        return ("raises", type(exc))


def reference_contains(box, r):
    """``BoxReports.contains`` converting the report and both corners; only
    real numbers, or a sequence of them, are reports: not a numeric string,
    nor an int past the float range."""
    if np.asarray(r).dtype.kind not in "biuf":
        return False
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.shape != (box.dim,):
        return False
    return bool(np.all(r > np.asarray(box.lo)) and
                np.all(r < np.asarray(box.hi)))


INF = float("inf")
NAN = float("nan")
CONTAINS_INPUTS = [
    0.5, -0.5, 0.0, -0.0, 1.0, -1.0, 2, 0, -1, 1, True, False,
    np.float64(0.25), np.float32(0.25), np.int64(0), np.float64(-1.0),
    np.array(0.5), np.array(1.0), np.array([0.5]), np.array([-1.0]),
    np.array([0.5, 0.5]), np.array([[0.5]]), np.array([0.5, 0.5, 0.5]),
    np.array([[0.5, 0.5]]), np.array([-1.0, 0.5]), np.array([0.5, 1.0]),
    np.array([], dtype=float), np.array([True, False]),
    [0.5], [0.5, 0.5], [1.0, 0.0], [[0.5, 0.5]], (0.5, -0.25), [],
    NAN, INF, -INF, [NAN, 0.5], [0.5, INF], np.array([-INF, 0.0]),
    np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), 1e-320, -1e-320,
    "0.5", "abc", None, 10 ** 400, 2 ** 53 + 1,
]
BOXES = [
    BoxReports((-1.0,), (1.0,)),
    BoxReports((0.0,), (3.0,)),
    BoxReports((-1.0, -1.0), (1.0, 1.0)),
    BoxReports((0.0, -0.5), (0.5, 1.0)),
    BoxReports((-INF, -INF), (INF, INF)),
    BoxReports((-INF,), (INF,)),
    BoxReports([-1.0], [1.0]),
]


@pytest.mark.parametrize("box", BOXES, ids=repr)
def test_box_contains_equals_reference(box):
    for r in CONTAINS_INPUTS:
        assert _outcome(box.contains, r) == _outcome(reference_contains, box, r), r


def test_box_contains_returns_plain_bools():
    box = BoxReports((-1.0,), (1.0,))
    assert box.contains(0.5) is True
    assert box.contains(np.float64(2.0)) is False
    assert BoxReports((0.0, 0.0), (1.0, 1.0)).contains([0.5, 0.5]) is True


# ---------------------------------------------------------------------------
# the search core against the loops it replaced


def reference_expectation_invert_share(self, q, tol=1e-12):
    """``ExpectationRule.invert_share`` as it was: 110 halvings a coordinate,
    8 cycles, and a residual test for every dimension."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if isinstance(self.report_space, RealReports):
        lo, hi = np.array([-1.0]), np.array([1.0])
        for _ in range(200):
            if self.potential.grad(lo)[0] <= q[0]:
                break
            lo *= 2.0
        for _ in range(200):
            if self.potential.grad(hi)[0] >= q[0]:
                break
            hi *= 2.0
    else:
        span = np.asarray(self.report_space.hi) - np.asarray(self.report_space.lo)
        lo = np.asarray(self.report_space.lo) + 1e-13 * span
        hi = np.asarray(self.report_space.hi) - 1e-13 * span
    x = 0.5 * (lo + hi)
    for _ in range(8):
        for i in range(self.k):
            a, b = lo[i], hi[i]
            # bisect to adjacent floats; the gradient may be steep
            for _ in range(110):
                m = 0.5 * (a + b)
                if m <= a or m >= b:
                    break
                x[i] = m
                if self.potential.grad(x)[i] < q[i]:
                    a = m
                else:
                    b = m
            x[i] = 0.5 * (a + b)
        if float(np.max(np.abs(self.potential.grad(x) - q))) <= 1e-11:
            break
    if float(np.max(np.abs(self.potential.grad(x) - q))) > 1e-7:
        return None
    r = x if self.k > 1 else float(x[0])
    return r if self.report_space.contains(r) else None


def reference_invert_gradient(fn, target, tol: float = 1e-10,
                              max_width: float = 1e9):
    """``costmarket.invert_gradient`` as it was."""
    target = np.atleast_1d(np.asarray(target, dtype=float))
    k = fn.dim
    q = np.zeros(k)
    for _ in range(40):
        for i in range(k):
            lo, hi = -1.0, 1.0
            for _ in range(80):
                probe = q.copy()
                probe[i] = lo
                if fn.grad(probe)[i] <= target[i]:
                    break
                lo *= 2.0
                if abs(lo) > max_width:
                    return None
            for _ in range(80):
                probe = q.copy()
                probe[i] = hi
                if fn.grad(probe)[i] >= target[i]:
                    break
                hi *= 2.0
                if abs(hi) > max_width:
                    return None
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                probe = q.copy()
                probe[i] = mid
                if fn.grad(probe)[i] < target[i]:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= tol:
                    break
            q[i] = 0.5 * (lo + hi)
        if float(np.max(np.abs(fn.grad(q) - target))) <= 1e-8:
            return q
    return q if float(np.max(np.abs(fn.grad(q) - target))) <= 1e-6 else None


def reference_expectile_property_value(self, p, tol: float = 1e-10) -> float:
    """``ExpectileRule.property_value`` as it was."""
    a, b = p.support()
    a, b = a - 1.0, b + 1.0
    for _ in range(200):
        m = 0.5 * (a + b)
        if self.identification_gap(m, p) < 0.0:
            a = m
        else:
            b = m
        if b - a <= tol:
            break
    return 0.5 * (a + b)


def reference_golden_max(f, lo: float, hi: float, xtol: float) -> float:
    """``scoring._golden_max`` as it was."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def reference_score_range_membership(rule, window: tuple, num: int = 4001):
    """``costmarket.score_range_membership`` as it was, with its inline
    80-step golden-section minimization."""
    grid = np.linspace(window[0], window[1], num)
    hs = []
    for r in grid:
        d0, _ = project_cashless(rule.score_contract(float(r)))
        hs.append(d0.values)
    hs = np.asarray(hs)

    def oracle(target):
        target = np.asarray(target, dtype=float).ravel()
        dists = np.max(np.abs(hs - target), axis=1)
        i = int(np.argmin(dists))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, num - 1)]
        # golden refine on the 1-d distance slice
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi

        def dist_at(r):
            d0, _ = project_cashless(rule.score_contract(float(r)))
            return float(np.max(np.abs(d0.values - target)))

        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = dist_at(c), dist_at(d)
        for _ in range(80):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = dist_at(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = dist_at(d)
        best_r = 0.5 * (a + b)
        return dist_at(best_r), best_r

    return oracle


# Shares at which the bracket rule returns a report that the old residual
# test rejected.  On the binary negative entropy they are steep interior
# shares near the top of the domain, where adjacent floats of the report
# are 1.1e-16 apart but the gradient moves by more than 1e-7 between them;
# on the quadratic they are shares past 1e9, where adjacent floats of the
# report leave a residual of one ulp of the share (a share whose half the
# old halvings hit exactly kept its report), up to the bracket limit 2^200.
NOW_ATTAINED = {
    "binary_negentropy": {21.0, 21.5, 22.0, 22.5, 23.5, 24.0, 24.5, 25.0,
                          25.5, 26.0, 26.5, 27.0, 27.5, 28.0, 28.5, 29.0,
                          29.5},
    "quadratic": {s * 10.0 ** k / 3.0 for s in (1, -1) for k in (
        10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 25, 27, 28, 29,
        30, 31, 32, 33, 34, 36, 37, 39, 40, 41, 42, 45, 47, 48, 49, 50, 51,
        52, 53, 54, 57, 58, 60)},
}


def _expectation_targets(kind, rule):
    if kind == "binary_negentropy":
        rng = np.random.default_rng(30)
        g = rule.potential
        return [g.grad([r])[0] for r in rng.uniform(0.0, 1.0, 200)] + \
            [float(v) for v in np.arange(-31.0, 31.5, 0.5)]
    return [s * 10.0 ** k / 3.0 for k in range(-40, 71) for s in (1, -1)] + [0.0]


@pytest.mark.parametrize("kind", ["binary_negentropy", "quadratic"])
def test_expectation_invert_share_equals_old_loop(kind):
    rule = ExpectationRule(bisecting(binary_negentropy()), phi=[[0.0], [1.0]]) \
        if kind == "binary_negentropy" else ExpectationRule(bisecting(quadratic(1)))
    attained, sharper = set(), 0
    for q in _expectation_targets(kind, rule):
        got = rule.reports_at([q])[0]
        want = reference_expectation_invert_share(rule, q)
        if got == want:
            continue
        residual = abs(rule.potential.grad([got])[0] - q)
        if want is None:
            # the report is exact to within the gradient's step at one ulp
            attained.add(q)
            assert residual <= 1e-2 * max(1.0, abs(q))
        else:
            # |q| < 1e-17 on the quadratic: the old loop stopped after 110
            # halvings, short of adjacent floats; the report is now exact
            assert kind == "quadratic" and abs(q) < 1e-17, q
            assert residual <= abs(rule.potential.grad([want])[0] - q)
            sharper += 1
    assert attained == NOW_ATTAINED[kind]
    assert sharper == (49 if kind == "quadratic" else 0)


def exact_logistic_inverse(lo: float, span: float, t: float) -> Decimal:
    """lo + span * sigmoid(span * t), the exact inverse of the (interval)
    negative entropy's gradient, in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(lo) + Decimal(span) / (1 + (-Decimal(span) * Decimal(t)).exp())


def _ulps(got: float, exact: Decimal) -> float:
    return float(abs(Decimal(got) - exact) / Decimal(math.ulp(float(exact))))


# potential, the reports whose shares are targets, and (lo, span) of a
# logistic inverse; the bounded quadratic's reports reach beyond its box
CLOSED_FORMS = {
    "binary_negentropy": (binary_negentropy(), (0.0, 1.0), (0.0, 1.0)),
    "interval_negentropy": (interval_negentropy(0.0, 3.0), (0.0, 3.0), (0.0, 3.0)),
    "quadratic": (quadratic(1), (-2.0, 2.0), None),
    "bounded_quadratic": (quadratic(1, lo=[-1.0], hi=[2.0]), (-1.5, 2.5), None),
}


@pytest.mark.parametrize("kind", sorted(CLOSED_FORMS))
def test_closed_form_inverses_are_within_ulps_of_exact(kind):
    fn, (a, b), logistic = CLOSED_FORMS[kind]
    rng = np.random.default_rng(37)
    targets = [fn.grad([r])[0] for r in rng.uniform(a, b, 200)]
    if kind == "binary_negentropy":
        targets += _expectation_targets(kind, ExpectationRule(fn, phi=[[0.0], [1.0]]))
    elif kind == "quadratic":
        targets += _expectation_targets(kind, ExpectationRule(fn))
    found = 0
    for t in targets:
        got = invert_gradient(fn, t)
        assert (got is None) == (invert_gradient(bisecting(fn), t) is None), t
        if got is None:
            continue
        found += 1
        if logistic is None:
            assert Fraction(float(got[0])) == Fraction(float(t)) / 2, t
        else:
            # the bisection fallback is up to 24 ulps off on the binary
            # targets and 9 on the interval ones
            assert _ulps(float(got[0]), exact_logistic_inverse(*logistic, t)) <= 4.0, t
    assert found >= 150


def test_simplex_invert_share_matches_softmax():
    # the old loop raised "math domain error" on every target: its first
    # probe, the box midpoint (0.5, 0.5), lies on the simplex's edge; the
    # exact inverse of the negative entropy's gradient is the softmax
    rule = ExpectationRule(simplex_negentropy(2),
                           phi=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rng = np.random.default_rng(31)
    found = 0
    for _ in range(60):
        x = rng.dirichlet(np.ones(3))[:2]
        q = rule.potential.grad(x)
        r = rule.reports_at([q])[0]
        if r is not None:
            found += 1
            softmax = np.exp(q) / (1.0 + float(np.sum(np.exp(q))))
            assert float(np.max(np.abs(r - softmax))) < 1e-6
            assert float(np.max(np.abs(rule.potential.grad(r) - q))) \
                <= RESIDUAL_ACCEPT
    # the cycling bisection fallback misses six, which take more than 40
    # cycles to come within RESIDUAL_ACCEPT
    assert found == 60
    # the softmax is shifted by the largest exponent, so it stays finite
    # where e^t overflows; that point lies on the simplex's edge, outside
    # the report space
    far = np.array([800.0, 799.0])
    w = 1.0 / (1.0 + math.exp(-1.0))
    assert np.allclose(invert_gradient(rule.potential, far), [w, 1.0 - w])
    assert rule.reports_at([far])[0] is None


LOG_PARTITIONS = {
    "1d": [[0.0], [1.0], [3.0]],
    "2d": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
}


@pytest.mark.parametrize("kind", sorted(LOG_PARTITIONS))
def test_invert_gradient_equals_old_loop(kind):
    phi = np.asarray(LOG_PARTITIONS[kind])
    fn = log_partition(phi)
    rng = np.random.default_rng(32)
    # interior mixtures, the hull's vertices (attained once exp underflows),
    # and targets outside the hull
    targets = [rng.dirichlet(np.ones(len(phi))) @ phi
               for _ in range(25 if kind == "2d" else 100)]
    targets += list(phi) + [1.5 * phi[-1], phi[-1] + 0.1, -0.1 * phi[-1]]
    found = 0
    for t in targets:
        got = invert_gradient(fn, t, 1e-10)
        want = reference_invert_gradient(fn, t)
        assert (got is None) == (want is None), t
        if got is not None:
            assert np.array_equal(got, want), t
            found += 1
    # five 2-D interior targets take more than 40 cycles, then as before
    assert found == (23 if kind == "2d" else 103)


def _cdf_beliefs(rng, count):
    out = []
    for _ in range(count):
        xs = np.sort(rng.uniform(-5.0, 5.0, 4))
        fs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 2)), [1.0]])
        out.append(cdf_belief(xs, fs))
    return out


def test_expectile_property_value_equals_old_loop():
    rng = np.random.default_rng(33)
    for tau in (0.1, 0.3, 0.5, 0.9):
        rule = ExpectileRule(tau)
        for p in _cdf_beliefs(rng, 15):
            assert rule.property_value(p) == \
                reference_expectile_property_value(rule, p)


def _golden_cases():
    # (f, lo, hi, the maximizer of f)
    return [(lambda r: -(r - 0.3) ** 2, -1.0, 2.0, 0.3),
            (lambda r: math.sin(r), 0.0, 3.0, math.pi / 2.0),
            (lambda r: -abs(r - 1e-3), -0.5, 0.5, 1e-3),
            (lambda r: -math.cosh(r - 4.0), 3.5, 4.4, 4.0)]


def reference_golden_min_steps(f, lo: float, hi: float, steps: int) -> float:
    """The fixed-step golden-section minimization ``score_range_membership``
    ran inline, with its step count as a parameter."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


@pytest.mark.parametrize("case", range(4))
def test_golden_max_fixed_steps_equals_old_loop(case):
    f, lo, hi, _ = _golden_cases()[case]
    for steps in (1, 5, 80):
        assert golden_max(lambda r: -f(r), lo, hi, steps=steps) == \
            reference_golden_min_steps(f, lo, hi, steps)


def _budgeted(f, calls: int):
    """f, failing once it is called more than ``calls`` times: a search
    that does not stop fails instead of running on."""
    count = [0]

    def g(*args):
        count[0] += 1
        assert count[0] <= calls, "the search does not stop"
        return f(*args)
    return g


def _in_bracket(f, lo: float, hi: float):
    """f, failing when it is probed outside [lo, hi]."""
    def g(r):
        assert lo <= r <= hi, f"probe {r!r} outside [{lo!r}, {hi!r}]"
        return f(r)
    return g


@pytest.mark.parametrize("case", range(4))
def test_brent_max_stays_in_the_bracket_and_stops_at_the_maximizer(case):
    f, lo, hi, best = _golden_cases()[case]
    for xtol in (1e-10, 1e-6, 0.3):
        r = brent_max(_budgeted(_in_bracket(f, lo, hi), 60), lo, hi, xtol)
        # a value-only search fixes a smooth maximum only where rounding
        # still tells f(r) from f(best), about sqrt(eps) away
        assert abs(r - best) <= xtol + math.ulp(best) or f(r) >= f(best)


def test_brent_max_stops_where_xtol_is_below_an_ulp():
    # the ulp of 1e7 is 1.9e-9, above xtol
    lo, hi = 1e7 - 1.0, 1e7 + 1.0
    f = _budgeted(_in_bracket(lambda r: -(r - 1e7) ** 2, lo, hi), 60)
    assert abs(brent_max(f, lo, hi, 1e-10) - 1e7) <= 1e-10 + math.ulp(1e7)


def test_brent_max_converges_on_a_kink():
    for c in (0.0, 1e-3, 0.123456789, -0.4, 0.49999):
        for xtol in (1e-10, 1e-6):
            f = _budgeted(_in_bracket(lambda r: -abs(r - c), -0.5, 0.5), 60)
            assert abs(brent_max(f, -0.5, 0.5, xtol) - c) <= xtol


def test_best_response_returns_where_xtol_is_below_an_ulp():
    rule = QuantileRule(0.5)
    rule.expected_score = _budgeted(rule.expected_score, 2000)
    r = rule.best_response(cdf_belief([1e7, 1e7 + 1.0], [0.0, 1.0]))
    assert 1e7 <= r <= 1e7 + 1.0


def old_search_grid(rule, p):
    """The grid a 1-D best_response scored before it searched the whole
    bracket: 41 reports over a box, or 201 over the belief's support padded
    by 1 + 0.1 of its width."""
    if isinstance(rule.report_space, BoxReports):
        return rule.report_space.grid(41)
    a, b = p.support()
    pad = 1.0 + 0.1 * (b - a)
    return rule.report_space.grid(201, (a - pad, b + pad))


def test_best_response_golden_equals_old_loop():
    # brent_max and the old golden-section loop each fix a maximizer to
    # about sqrt(eps) of the expected score, so their picks agree to the
    # elicitation bound, not to the bit
    rng = np.random.default_rng(35)
    ratio = RatioRule(interval_negentropy(0.0, 3.0), [0.0, 1.0, 3.0],
                      [2.0, 1.0, 1.0])
    entropy = ExpectationRule(binary_negentropy(), phi=[[0.0], [1.0]])
    real = [QuantileRule(0.5, SIGMOID), QuantileRule(0.2),
            ExpectileRule(0.3), ExpectationRule(quadratic(1))]
    cases = [(rule, p) for rule in real for p in _cdf_beliefs(rng, 3)]
    cases += [(rule, finite_belief(rule.outcome_space,
                                   rng.dirichlet(np.ones(rule.outcome_space.n))))
              for rule in (ratio, entropy) for _ in range(4)]
    for rule, p in cases:
        grid = old_search_grid(rule, p)
        vals = [rule.expected_score(r, p) for r in grid]
        i = int(np.argmax(vals))
        want = reference_golden_max(lambda r: rule.expected_score(r, p),
                                    grid[max(i - 1, 0)],
                                    grid[min(i + 1, len(grid) - 1)], 1e-10)
        r = rule.best_response(p)
        tol = 1e-6 * (1.0 + abs(r))
        assert abs(r - want) <= tol
        assert abs(r - rule.property_value(p)) <= tol


def _search_families(rng, count):
    """Three rules over finite outcomes and four on the real line, each
    with ``count`` seeded beliefs."""
    ratio = RatioRule(interval_negentropy(0.0, 3.0), [0.0, 1.0, 3.0],
                      [2.0, 1.0, 1.0])
    finite = [ratio, ExpectationRule(binary_negentropy(), phi=[[0.0], [1.0]]),
              ExpectationRule(quadratic(1), phi=[[0.0], [1.0], [3.0]])]
    real = [QuantileRule(0.5, SIGMOID), QuantileRule(0.2),
            ExpectileRule(0.3), ExpectationRule(quadratic(1))]
    fams = [(rule, _cdf_beliefs(rng, count)) for rule in real]
    for rule in finite:
        # pmfs at least 0.05 away from the simplex's faces;
        # tests/test_best_response.py draws them nearer
        n = rule.outcome_space.n
        fams.append((rule, [finite_belief(rule.outcome_space, 0.05 + (1.0 - 0.05 * n)
                                          * rng.dirichlet(np.ones(n)))
                            for _ in range(count)]))
    return fams


def test_best_response_probe_counts():
    # golden section took 44-46 probes for each of these searches
    for rule, beliefs in _search_families(np.random.default_rng(38), 20):
        n = [0]
        score = rule.expected_score

        def counted(r, q):
            n[0] += 1
            return score(r, q)
        rule.expected_score = counted
        counts = []
        for p in beliefs:
            n[0] = 0
            rule.best_response(p)
            counts.append(n[0])
        assert np.mean(counts) <= 28 and max(counts) < 44, (rule, counts)


def test_finite_report_picks_equal_the_per_contract_argmax():
    # each expected score is the dot product expected_payoff takes of the
    # score contract's payoffs, so ties break as before
    rng = np.random.default_rng(37)
    rules = [ModeRule(5), ModeRule(["a", "b"]),
             FiniteRule.weighted_mode([1, 2, 3], [1.0, 2.0, 0.5]),
             FiniteRule(rng.uniform(-1.0, 1.0, (6, 4)), OutcomeSpace.finite(range(4)))]
    for rule in rules:
        grid = rule.report_grid()
        n = rule.outcome_space.n
        # exact ties, a tie within TIE_TOL whose larger value is on the
        # larger report, and no ties
        near = np.array([0.5 - 1e-13, 0.5 + 1e-13] + [0.0] * (n - 2))
        for pmf in [np.full(n, 1.0 / n), near] + list(rng.dirichlet(np.ones(n), 20)):
            p = finite_belief(rule.outcome_space, pmf)
            vals = [expected_payoff(rule.score_contract(r), p) for r in grid]
            want = min(r for r, v in zip(grid, vals) if max(vals) - v <= 1e-12)
            assert rule.best_response(p) == want


def test_score_range_membership_golden_equals_old_loop():
    rule = RatioRule(interval_negentropy(0.0, 3.0), [0.0, 1.0, 3.0],
                     [2.0, 1.0, 1.0])
    window = (0.05, 2.95)
    got = score_range_membership(rule, window)
    want = reference_score_range_membership(rule, window, num=4001)
    rng = np.random.default_rng(36)
    targets = [project_cashless(rule.score_contract(float(r)))[0].values
               for r in rng.uniform(0.1, 2.9, 6)]
    targets += [t + rng.normal(0.0, 0.05, 3) for t in targets]
    for t in targets:
        assert got(t) == want(t)
