"""Convex potentials, subgradient selections, and the one search core.

These power the expectation and ratio scoring families and every
cost-function market.  A ConvexFn bundles an evaluator, a subgradient
selection and domain bounds; the evaluator and the selection also have an
array form over the rows of an (N, dim) array, which scores many reports
in one pass.  Every market trades by matching shares, which are gradients
of a potential, so one gradient inversion (``invert_gradient``, or
``invert_gradients`` of many targets) serves all of them: the potential's
closed-form ``grad_inverse`` where it has one, else ``bracket`` and
``bisect``.  ``brent_max`` is the one maximizer of a unimodal function to
a tolerance; ``golden_max`` runs a fixed number of golden-section steps,
for cost extraction's non-smooth distance.  ``hull_facets`` is the one hull
routine: report-space hulls, openness margins, and extraction's convexity
certificate, the lower hull of the lifted (share, cost) points.  It is
exact on the line, a monotone chain in the plane, and Qhull, imported on
first use, in 3 or more dimensions.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contracts import (
    BRACKET_LIMIT,
    INF,
    OPT_TOL,
    RESIDUAL_ACCEPT,
    inset,
    logit,
    ordered_dot,
)


def _vec(x) -> np.ndarray:
    # np.atleast_1d, without its cost on the 1-D arrays most calls pass
    x = np.asarray(x, dtype=float)
    return x if x.ndim else x.reshape(1)


def _floats(x) -> list:
    """A number or a vector as a list of Python floats, the argument of a
    potential's scalar forms; a numpy float becomes a Python float, whose
    arithmetic never warns."""
    if isinstance(x, float):
        return [float(x)]
    return np.asarray(x, dtype=float).reshape(-1).tolist()


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``f`` of each entry of x, for the ``math`` functions of the scalar
    forms: numpy's log, log1p and exp round 0.3-5% of inputs one ulp away
    from libm's, and an array form agrees with its scalar form to the bit."""
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


@dataclass(eq=False)
class ConvexFn:
    """A convex function on a box domain with a chosen subgradient selection.

    The scalar forms ``value_fn``, ``grad_fn`` and ``closure_fn`` take one
    point as a list of ``dim`` Python floats; the value and the closure
    return a Python float, the gradient a list of ``dim`` Python floats, so
    a rule scores one report without numpy (of the named potentials, only
    ``simplex_negentropy``'s scalar forms use numpy inside).
    ``value``, ``grad`` and ``value_closure`` call them on a number, a
    sequence or an array, ``grad`` returning an array.  An array form must
    equal its scalar form row by row to the bit."""

    dim: int
    value_fn: Callable[[list], float]
    grad_fn: Callable[[list], list]
    lo: np.ndarray
    hi: np.ndarray
    closure_fn: Callable[[list], float] | None = None
    # vertices of a polytope that bounds the domain inside the box
    vertices: np.ndarray | None = None
    # the inverse of the gradient in closed form, when the potential has one:
    # the gradient of its convex conjugate, grad G*, of each row of an
    # (N, dim) array
    grad_inverse: Callable[[np.ndarray], np.ndarray] | None = None
    # the array forms of the value and the gradient, of each row of an
    # (N, dim) array; a missing one loops over the rows
    values_fn: Callable[[np.ndarray], np.ndarray] | None = None
    grads_fn: Callable[[np.ndarray], np.ndarray] | None = None
    # (lo, hi) of the open box of the points the evaluators take, where
    # rounding makes it narrower than the domain box
    interior: tuple | None = None

    def value(self, x) -> float:
        return float(self.value_fn(_floats(x)))

    def grad(self, x) -> np.ndarray:
        return np.array(self.grad_fn(_floats(x)), dtype=float)

    def values(self, xs) -> np.ndarray:
        """``value`` of each row of xs, an (N, dim) array; an overflow is
        inf or nan, without numpy's warning."""
        xs = np.asarray(xs, dtype=float).reshape(-1, self.dim)
        with np.errstate(all="ignore"):
            if self.values_fn is None:
                return np.array([self.value(x) for x in xs], dtype=float)
            return self.values_fn(xs)

    def grads(self, xs) -> np.ndarray:
        """``grad`` of each row of xs, as an (N, dim) array."""
        xs = np.asarray(xs, dtype=float).reshape(-1, self.dim)
        with np.errstate(all="ignore"):
            if self.grads_fn is None:
                return np.array([self.grad(x) for x in xs],
                                dtype=float).reshape(-1, self.dim)
            return self.grads_fn(xs)

    def value_closure(self, x) -> float:
        """Value extended by limits to the domain boundary where defined."""
        if self.closure_fn is not None:
            return float(self.closure_fn(_floats(x)))
        return self.value(x)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a[..., j] * b[..., j], broadcast, with the products added in
    the order of j, as ``contracts.ordered_dot`` adds them in Python floats.
    BLAS may fuse a product into the sum or order the terms by the shape of
    its input and the CPU it detects; added in order, a score row and the
    same row of a score table agree to the bit on any host."""
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out = out + a[..., j] * b[..., j]
    return out


def _box(dim, lo, hi):
    lo = np.full(dim, -INF) if lo is None else np.asarray(lo, dtype=float)
    hi = np.full(dim, INF) if hi is None else np.asarray(hi, dtype=float)
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise ValueError("a domain box needs one bound per dimension")
    return lo, hi


def quadratic(dim: int = 1, lo=None, hi=None) -> ConvexFn:
    """G(x) = ||x||^2 with gradient 2x and inverse t / 2."""
    lo, hi = _box(dim, lo, hi)
    return ConvexFn(
        dim=dim,
        value_fn=lambda x: ordered_dot(x, x),
        grad_fn=lambda x: [2.0 * v for v in x],
        lo=lo, hi=hi,
        grad_inverse=lambda ts: 0.5 * ts,
        values_fn=lambda xs: _dots(xs, xs),
        grads_fn=lambda xs: 2.0 * xs,
    )


def _logits(p: np.ndarray) -> np.ndarray:
    """``logit`` of each entry, in its floats."""
    return _libm(math.log, p) - _libm(math.log1p, -p)


def _sigmoids(y: np.ndarray) -> np.ndarray:
    """``contracts.sigmoid`` of each entry, in its floats: each branch takes
    the exponential of -|y|."""
    e = _libm(math.exp, -np.abs(y))
    return np.where(y >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _negentropy(p: np.ndarray) -> np.ndarray:
    """p log p + (1 - p) log(1 - p) of each entry, in the scalar forms'
    floats."""
    return p * _libm(math.log, p) + (1.0 - p) * _libm(math.log, 1.0 - p)


def binary_negentropy() -> ConvexFn:
    """G(p) = p log p + (1-p) log(1-p) on (0, 1); its gradient is the logit,
    whose inverse is the sigmoid."""
    return interval_negentropy(0.0, 1.0)


def _least(holds, a: float, b: float) -> float:
    """The least float in (a, b] where ``holds``, false at a, true at b and
    monotone between, holds: bisection down to adjacent floats."""
    while True:
        m = a + 0.5 * (b - a)
        if not a < m < b:
            return b
        if holds(m):
            b = m
        else:
            a = m


def interval_negentropy(lo: float, hi: float) -> ConvexFn:
    """Negative entropy rescaled to (lo, hi); its gradient range is all of R,
    so share matching never leaves the report space.  A point within ulps
    of an end can scale onto it, so the evaluators take the open interval
    of the points whose scaled coordinate lies strictly inside (0, 1)."""
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    span = hi - lo
    bottom = _least(lambda x: (x - lo) / span > 0.0, lo, hi)
    top = _least(lambda x: (x - lo) / span >= 1.0, lo, hi)

    def val(x):
        z = (x[0] - lo) / span
        return z * math.log(z) + (1.0 - z) * math.log(1.0 - z)

    def clo(x):
        z = min(max((x[0] - lo) / span, 0.0), 1.0)
        out = 0.0
        if z > 0.0:
            out += z * math.log(z)
        if z < 1.0:
            out += (1.0 - z) * math.log(1.0 - z)
        return out

    return ConvexFn(
        dim=1,
        value_fn=val,
        grad_fn=lambda x: [logit((x[0] - lo) / span) / span],
        lo=np.array([lo]), hi=np.array([hi]),
        closure_fn=clo,
        grad_inverse=lambda ts: lo + span * _sigmoids(span * ts),
        values_fn=lambda xs: _negentropy((xs[:, 0] - lo) / span),
        grads_fn=lambda xs: _logits((xs - lo) / span) / span,
        interior=((math.nextafter(bottom, lo),), (top,)),
    )


def simplex_negentropy(k: int) -> ConvexFn:
    """Negative entropy over the open simplex, in its first k coordinates.

    G(x) = sum_i x_i log x_i + x0 log x0 with x0 = 1 - sum x.  Off the open
    simplex the gradient is nan, which the searches read as not below a
    target.  The gradient log x - log x0 inverts to the softmax
    e^t / (1 + sum e^t), shifted by the largest exponent.
    """

    def val(x):
        x = np.array(x)
        x0 = 1.0 - float(np.sum(x))
        return float(np.sum(x * np.log(x))) + x0 * math.log(x0)

    def grad(x):
        x0 = 1.0 - float(np.sum(x))
        if x0 <= 0.0:
            return [math.nan] * k
        return (np.log(x) - math.log(x0)).tolist()

    def clo(x):
        parts = x + [1.0 - float(np.sum(x))]
        return sum(p * math.log(p) for p in parts if p > 0.0)

    def vals(xs):
        x0 = 1.0 - xs.sum(axis=1)
        return (xs * np.log(xs)).sum(axis=1) + x0 * _libm(math.log, x0)

    def grads(xs):
        x0 = 1.0 - xs.sum(axis=1)
        inside = x0 > 0.0
        log_x0 = _libm(math.log, np.where(inside, x0, 1.0))
        return np.where(inside[:, None], np.log(xs) - log_x0[:, None], np.nan)

    def inverses(ts):
        m = np.maximum(0.0, ts.max(axis=1))
        e = np.exp(ts - m[:, None])
        return e / (_libm(math.exp, -m) + e.sum(axis=1))[:, None]

    return ConvexFn(
        dim=k,
        value_fn=val,
        grad_fn=grad,
        lo=np.zeros(k), hi=np.ones(k),
        closure_fn=clo,
        vertices=np.vstack([np.zeros(k), np.eye(k)]),
        grad_inverse=inverses,
        values_fn=vals,
        grads_fn=grads,
    )


def log_partition(phi: np.ndarray) -> ConvexFn:
    """C(q) = log sum_y exp(q . phi(y)), the exponential-family cost.

    Both forms take the same steps with libm, the scalar forms in Python
    floats: each exponent less the largest through ``math.exp``, their sum
    in the order of the outcomes (numpy's pairwise sum regroups 8 or more
    terms, Python's ``sum`` compensates from 3.12), then ``math.log``.  So
    they agree to the bit whichever SIMD loops numpy dispatches to."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim == 1:
        phi = phi[:, None]
    n, k = phi.shape
    rows, cols = phi.tolist(), phi.T.tolist()

    def weights(q):
        # the exponentials of the exponents less the largest, their sum,
        # and the largest
        w = [ordered_dot(row, q) for row in rows]
        m = max(w)
        e = [math.exp(v - m) for v in w]
        total = e[0]
        for v in e[1:]:
            total += v
        return e, total, m

    def val(q):
        _, total, m = weights(q)
        return m + math.log(total)

    def grad(q):
        e, total, _ = weights(q)
        p = [v / total for v in e]
        return [ordered_dot(col, p) for col in cols]

    def shifted(qs):
        # weights of each row of qs, as arrays
        w = _dots(qs[:, None, :], phi)
        m = w.max(axis=1)
        e = _libm(math.exp, w - m[:, None])
        total = e[:, 0]
        for j in range(1, n):
            total = total + e[:, j]
        return e, total, m

    def vals(qs):
        _, total, m = shifted(qs)
        return m + _libm(math.log, total)

    def grads(qs):
        e, total, _ = shifted(qs)
        return _dots((e / total[:, None])[:, None, :], phi.T)

    return ConvexFn(
        dim=k,
        value_fn=val,
        grad_fn=grad,
        lo=np.full(k, -INF), hi=np.full(k, INF),
        values_fn=vals,
        grads_fn=grads,
    )


def binary_lmsr_cost() -> ConvexFn:
    """C(q) = log(1 + e^q) for a single security paying 1{Y = 1}."""
    return log_partition(np.array([[0.0], [1.0]]))


# ---------------------------------------------------------------------------
# the search core

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
EPS = sys.float_info.epsilon


def bisect(f, target, lo: float, hi: float, xtol: float = 0.0) -> float:
    """Where the nondecreasing f crosses target between lo and hi: halves
    [lo, hi], moving lo where f is below target and hi elsewhere, until it
    is xtol wide or two adjacent floats, and returns its midpoint."""
    while hi - lo > xtol:
        m = 0.5 * (lo + hi)
        if m <= lo or m >= hi:
            break
        if f(m) < target:
            lo = m
        else:
            hi = m
    return 0.5 * (lo + hi)


def bracket(f, target):
    """(lo, hi) with f(lo) <= target <= f(hi) for a nondecreasing f on the
    real line, doubled out from (-1, 1); None past BRACKET_LIMIT."""
    lo, hi = -1.0, 1.0
    while f(lo) > target:
        lo *= 2.0
        if lo < -BRACKET_LIMIT:
            return None
    while f(hi) < target:
        hi *= 2.0
        if hi > BRACKET_LIMIT:
            return None
    return lo, hi


def golden_max(f, lo: float, hi: float, steps: int) -> float:
    """Golden-section maximizer of a unimodal f on [lo, hi] after a fixed
    number of steps: the midpoint of the last bracket."""
    a, b = float(lo), float(hi)
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def brent_max(f, lo: float, hi: float, xtol: float) -> float:
    """Maximizer of a unimodal f on [lo, hi] by Brent's localmin on -f
    (R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973,
    ch. 5): a step to the vertex of the parabola through the three best
    probes where it lies well inside the bracket, else a golden-section
    step.  Every probe lies in [lo, hi], at least tol = xtol / 3 + 4 eps |x|
    from the best one x, and the search stops once x is within 2 tol of the
    bracket's ends; the ulp term lets it stop where xtol is below an ulp."""
    a, b = float(lo), float(hi)
    x = w = v = a + (1.0 - INVPHI) * (b - a)
    fx = fw = fv = -f(x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol = xtol / 3.0 + 4.0 * EPS * abs(x)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return x
        p = q = r = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            # the parabola's vertex, unless it is within 2 tol of an end
            d = p / q
            u = x + d
            if min(u - a, b - u) < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (b if x < m else a) - x
            d = (1.0 - INVPHI) * e
        # not within tol of x
        u = x + (d if abs(d) >= tol else tol if d > 0.0 else -tol)
        fu = -f(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _boxes(fn: ConvexFn) -> list:
    """Per coordinate, the domain box inset by BRACKET_PAD of its span where
    that box is finite, else None."""
    return [inset(a, b) if math.isfinite(a) and math.isfinite(b) else None
            for a, b in zip(fn.lo.tolist(), fn.hi.tolist())]


def invert_gradients(fn: ConvexFn, targets) -> list:
    """``invert_gradient`` of each row of targets, an (N, dim) array: one
    ``grad_inverse`` call and one box test where the potential has a
    closed-form inverse, else one search per row."""
    targets = np.asarray(targets, dtype=float).reshape(-1, fn.dim)
    if fn.grad_inverse is None:
        return [invert_gradient(fn, t) for t in targets]
    with np.errstate(all="ignore"):
        xs = fn.grad_inverse(targets)
    boxes = _boxes(fn)
    lo = np.array([-BRACKET_LIMIT if box is None else box[0] for box in boxes])
    hi = np.array([BRACKET_LIMIT if box is None else box[1] for box in boxes])
    inside = ((lo <= xs) & (xs <= hi)).all(axis=1)
    return [x if ok else None for x, ok in zip(xs, inside)]


def invert_gradient(fn: ConvexFn, target, xtol: float = 0.0):
    """A point x with grad fn(x) = target, or None when there is none.

    The search box of each coordinate is the domain box inset by
    BRACKET_PAD of its span where that box is finite, and the real line out
    to BRACKET_LIMIT elsewhere.  A potential with a closed-form
    ``grad_inverse`` returns it when it is finite and within that box.
    Otherwise each gradient component is monotone in its own coordinate, so
    each coordinate is bisected in turn with the others held, within the
    box or a doubled ``bracket``.  A scalar target is attained when its
    bracket encloses it.  In more dimensions the coordinates cycle until the
    residual is within OPT_TOL, and the point is accepted within
    RESIDUAL_ACCEPT."""
    target = _vec(target)
    if fn.grad_inverse is not None:
        return invert_gradients(fn, target)[0]
    boxes = _boxes(fn)
    x = np.array([0.5 * (box[0] + box[1]) if box is not None else 0.0
                  for box in boxes])

    def solve(i) -> bool:
        def f(v):
            x[i] = v
            return fn.grad(x)[i]

        t = target[i]
        if boxes[i] is None:
            ends = bracket(f, t)
            if ends is None:
                return False
        else:
            ends = boxes[i]
            if fn.dim == 1 and (f(ends[0]) > t or f(ends[1]) < t):
                return False
        x[i] = bisect(f, t, ends[0], ends[1], xtol)
        return True

    if fn.dim == 1:
        return x if solve(0) else None
    for _ in range(40):
        if not all(solve(i) for i in range(fn.dim)):
            return None
        if float(np.max(np.abs(fn.grad(x) - target))) <= OPT_TOL:
            return x
    return x if float(np.max(np.abs(fn.grad(x) - target))) <= RESIDUAL_ACCEPT \
        else None


class FlatHull(ValueError):
    """A set of 2 or more dimensions whose hull has no interior."""


def _cross(o, p, q) -> float:
    """(p - o) x (q - o): positive when o, p, q turn counter-clockwise."""
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _hull_ring(pts: np.ndarray) -> list:
    """The vertices of conv(pts) of a 2-D set, counter-clockwise, by
    Andrew's monotone chain (A. M. Andrew, *IPL* 9(5), 1979) over the
    distinct points in plain floats; collinear points are not vertices."""
    order = sorted(set(map(tuple, pts.tolist())))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(order) + chain(reversed(order))


def hull_facets(points) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with conv(points) = {x : a @ x + b <= 0}, each row of a a unit
    normal: exact intervals in one dimension, a monotone chain's edges in
    two, and Qhull's facet equations (C. B. Barber et al., *ACM TOMS*
    22(4), 1996) in more.  A non-finite point is a ValueError, and a set
    of 2 or more dimensions whose hull is flat is ``FlatHull``."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if not np.isfinite(pts).all():
        raise ValueError("hull points must be finite")
    if pts.shape[1] == 1:
        return np.array([[-1.0], [1.0]]), \
            np.array([float(np.min(pts)), -float(np.max(pts))])
    if pts.shape[1] == 2:
        ring = _hull_ring(pts)
        if len(ring) < 3:
            raise FlatHull("a 2-D hull needs 3 points off one line")
        # the outward normal of the edge p -> q of a counter-clockwise ring
        # is (dy, -dx), and each edge's line passes through its p
        p = np.array(ring)
        d = np.roll(p, -1, axis=0) - p
        a = np.column_stack([d[:, 1], -d[:, 0]]) / np.hypot(d[:, 1], d[:, 0])[:, None]
        return a, -_dots(a, p)
    from scipy.spatial import ConvexHull, QhullError

    try:
        eq = ConvexHull(pts).equations
    except QhullError as exc:
        raise FlatHull(str(exc)) from exc
    return eq[:, :-1], eq[:, -1]
