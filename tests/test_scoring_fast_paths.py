"""Fast paths and searches of the rule primitives, each pinned against the
code it replaced: ``RatioRule.invert_share`` stopping once its bracket
stops moving, ``BoxReports.contains`` with its corners converted once, and
the one search core of ``convex`` (``bisect``, ``bracket``, ``golden_max``
and ``invert_gradient``) against the loops each caller hand-rolled."""

import math

import numpy as np
import pytest

from srmarket.contracts import (
    RESIDUAL_ACCEPT,
    SIGMOID,
    cdf_belief,
    finite_belief,
    project_cashless,
)
from srmarket.convex import (
    binary_negentropy,
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
    QuantileRule,
    RatioRule,
    RealReports,
)


def reference_invert_share(rule, q):
    """``RatioRule.invert_share`` with all 300 bisection steps."""
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


RATIO_RULES = {
    "bounded": RatioRule(interval_negentropy(0.0, 3.0), [0.0, 1.0, 3.0],
                         [2.0, 1.0, 1.0]),
    "unbounded": RatioRule(quadratic(1), [0.0, 1.0, 3.0], [2.0, 1.0, 1.0]),
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
        got, want = rule.invert_share(q), reference_invert_share(rule, q)
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
        assert abs(rule.invert_share(q) - r) < 1e-9
        # bracketing takes at most a few dozen calls; a double's bracket
        # stops moving after well under 120 halvings, not 300
        assert counter.grads < 200


def _outcome(f, *args):
    try:
        return ("value", f(*args))
    except Exception as exc:  # the exception class must match as well
        return ("raises", type(exc))


def reference_contains(box, r):
    """``BoxReports.contains`` converting the report and both corners."""
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


def reference_expectile_wn_candidate(self, r1, r1p, r2):
    """``ExpectileRule.wn_candidate`` on a callable transform, as it was."""
    target = self.gprime(r2) + self.gprime(r1) - self.gprime(r1p)
    lo, hi = -1.0, 1.0
    for _ in range(200):
        if self.gprime(lo) <= target:
            break
        lo *= 2.0
    for _ in range(200):
        if self.gprime(hi) >= target:
            break
        hi *= 2.0
    for _ in range(200):
        m = 0.5 * (lo + hi)
        if self.gprime(m) < target:
            lo = m
        else:
            hi = m
    return 0.5 * (lo + hi)


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
    rule = ExpectationRule(binary_negentropy(), phi=[[0.0], [1.0]]) \
        if kind == "binary_negentropy" else ExpectationRule(quadratic(1))
    attained, sharper = set(), 0
    for q in _expectation_targets(kind, rule):
        got = rule.invert_share(q)
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
        r = rule.invert_share(q)
        if r is not None:
            found += 1
            softmax = np.exp(q) / (1.0 + float(np.sum(np.exp(q))))
            assert float(np.max(np.abs(r - softmax))) < 1e-6
            assert float(np.max(np.abs(rule.potential.grad(r) - q))) \
                <= RESIDUAL_ACCEPT
    # the other six take more than 40 cycles to come within RESIDUAL_ACCEPT
    assert found == 54


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


def test_expectile_wn_candidate_equals_old_loop():
    rule = ExpectileRule(0.3, g=math.exp, gprime=math.exp)
    rng = np.random.default_rng(34)
    below = 0
    for r1, r1p, r2 in rng.uniform(-3.0, 3.0, (200, 3)):
        got = rule.wn_candidate(r1, r1p, r2)
        want = reference_expectile_wn_candidate(rule, r1, r1p, r2)
        if math.exp(r2) + math.exp(r1) - math.exp(r1p) <= 0.0:
            # below the range of g' = exp: the old loop returned the end of
            # a bracket doubled 200 times, the new one no candidate
            assert got is None and want < -1e59
            below += 1
        else:
            assert got == want
    assert 0 < below < 200


def _golden_cases():
    return [(lambda r: -(r - 0.3) ** 2, -1.0, 2.0),
            (lambda r: math.sin(r), 0.0, 3.0),
            (lambda r: -abs(r - 1e-3), -0.5, 0.5),
            (lambda r: -math.cosh(r - 4.0), 3.5, 4.4)]


@pytest.mark.parametrize("case", range(4))
def test_golden_max_equals_old_loop(case):
    f, lo, hi = _golden_cases()[case]
    for xtol in (1e-10, 1e-6, 0.3):
        assert golden_max(f, lo, hi, xtol) == reference_golden_max(f, lo, hi, xtol)


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
    f, lo, hi = _golden_cases()[case]
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


def test_golden_max_stops_at_adjacent_floats():
    # the ulp of 1e7 is 1.9e-9, above xtol
    f = _budgeted(lambda r: -(r - 1e7) ** 2, 1000)
    assert golden_max(f, 1e7 - 1, 1e7 + 1, 1e-10) == 1e7


def test_best_response_returns_where_xtol_is_below_an_ulp():
    rule = QuantileRule(0.5)
    rule.expected_score = _budgeted(rule.expected_score, 2000)
    r = rule.best_response(cdf_belief([1e7, 1e7 + 1.0], [0.0, 1.0]))
    assert 1e7 <= r <= 1e7 + 1.0


def test_best_response_golden_equals_old_loop():
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
        grid = rule._default_search_grid(p)
        vals = [rule.expected_score(r, p) for r in grid]
        i = int(np.argmax(vals))
        want = reference_golden_max(lambda r: rule.expected_score(r, p),
                                    grid[max(i - 1, 0)],
                                    grid[min(i + 1, len(grid) - 1)], 1e-10)
        assert rule.best_response(p) == want


def test_score_range_membership_golden_equals_old_loop():
    rule = RatioRule(interval_negentropy(0.0, 3.0), [0.0, 1.0, 3.0],
                     [2.0, 1.0, 1.0])
    window = (0.05, 2.95)
    got = score_range_membership(rule, window, num=301)
    want = reference_score_range_membership(rule, window, num=301)
    rng = np.random.default_rng(36)
    targets = [project_cashless(rule.score_contract(float(r)))[0].values
               for r in rng.uniform(0.1, 2.9, 6)]
    targets += [t + rng.normal(0.0, 0.05, 3) for t in targets]
    for t in targets:
        assert got(t) == want(t)
