"""Fast paths of the rule primitives, each pinned against the code it
replaced: ``RatioRule.invert_share`` stopping once its bracket stops moving,
and ``BoxReports.contains`` with its corners converted once."""

import math

import numpy as np
import pytest

from srmarket.convex import interval_negentropy, quadratic
from srmarket.scoring import BoxReports, RatioRule


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
