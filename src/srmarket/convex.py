"""Convex potentials, subgradient selections, and the one search core.

These power the expectation and ratio scoring families and every
cost-function market.  A ConvexFn bundles an evaluator, a subgradient
selection and domain bounds.  Every market trades by matching shares,
which are gradients of a potential, so one gradient inversion
(``invert_gradient``) serves all of them: the potential's closed-form
``grad_inverse`` where it has one, else ``bracket`` and ``bisect``;
``golden_max`` is the one golden-section search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contracts import (
    BRACKET_LIMIT,
    BRACKET_PAD,
    INF,
    OPT_TOL,
    RESIDUAL_ACCEPT,
    logit,
    sigmoid,
)


def _vec(x) -> np.ndarray:
    # np.atleast_1d, without its cost on the 1-D arrays most calls pass
    x = np.asarray(x, dtype=float)
    return x if x.ndim else x.reshape(1)


@dataclass(eq=False)
class ConvexFn:
    """A convex function on a box domain with a chosen subgradient selection."""

    dim: int
    value_fn: Callable[[np.ndarray], float]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    lo: np.ndarray
    hi: np.ndarray
    differentiable: bool = True
    bounded: bool = False
    name: str = ""
    closure_fn: Callable[[np.ndarray], float] | None = None
    # vertices of a polytope that bounds the domain inside the box
    vertices: np.ndarray | None = None
    # the inverse of the gradient in closed form, when the potential has one:
    # the gradient of its convex conjugate, grad G*
    grad_inverse: Callable[[np.ndarray], np.ndarray] | None = None

    def value(self, x) -> float:
        return float(self.value_fn(_vec(x)))

    def grad(self, x) -> np.ndarray:
        return np.asarray(self.grad_fn(_vec(x)), dtype=float)

    def value_closure(self, x) -> float:
        """Value extended by limits to the domain boundary where defined."""
        if self.closure_fn is not None:
            return float(self.closure_fn(_vec(x)))
        return self.value(x)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``float(np.dot(a, b))`` without numpy's overflow warning: a product
    past the largest float is inf or nan, which the scoring layer rejects as
    ``PayoffOverflow``.  Vectors of one entry, every scalar potential's,
    multiply as Python floats, which round as ``np.dot`` does and never
    warn."""
    if len(a) == 1:
        return float(a[0]) * float(b[0])
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.dot(a, b))


def _box(dim, lo, hi):
    lo = np.full(dim, -INF) if lo is None else np.asarray(lo, dtype=float)
    hi = np.full(dim, INF) if hi is None else np.asarray(hi, dtype=float)
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise ValueError("a domain box needs one bound per dimension")
    return lo, hi


def quadratic(dim: int = 1, lo=None, hi=None) -> ConvexFn:
    """G(x) = ||x||^2 with gradient 2x and inverse t / 2."""
    lo, hi = _box(dim, lo, hi)
    full = not (np.any(np.isfinite(lo)) or np.any(np.isfinite(hi)))
    return ConvexFn(
        dim=dim,
        value_fn=lambda x: _dot(x, x),
        grad_fn=lambda x: 2.0 * x,
        lo=lo, hi=hi,
        bounded=not full,
        name="quadratic",
        grad_inverse=lambda t: 0.5 * t,
    )


def binary_negentropy() -> ConvexFn:
    """G(p) = p log p + (1-p) log(1-p) on (0, 1); its gradient is the logit,
    whose inverse is the sigmoid."""

    def val(x):
        p = x[0]
        return p * math.log(p) + (1.0 - p) * math.log(1.0 - p)

    def clo(x):
        p = min(max(x[0], 0.0), 1.0)
        out = 0.0
        if 0.0 < p:
            out += p * math.log(p)
        if p < 1.0:
            out += (1.0 - p) * math.log(1.0 - p)
        return out

    return ConvexFn(
        dim=1,
        value_fn=val,
        grad_fn=lambda x: np.array([logit(x[0])]),
        lo=np.array([0.0]), hi=np.array([1.0]),
        bounded=True,
        name="binary-negentropy",
        closure_fn=clo,
        grad_inverse=lambda t: np.array([sigmoid(t[0])]),
    )


def interval_negentropy(lo: float, hi: float) -> ConvexFn:
    """Negative entropy rescaled to (lo, hi); its gradient range is all of R,
    so share matching never leaves the report space."""
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    span = hi - lo

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
        grad_fn=lambda x: np.array([logit((x[0] - lo) / span) / span]),
        lo=np.array([lo]), hi=np.array([hi]),
        bounded=True,
        name=f"interval-negentropy[{lo},{hi}]",
        closure_fn=clo,
        grad_inverse=lambda t: np.array([lo + span * sigmoid(span * t[0])]),
    )


def simplex_negentropy(k: int) -> ConvexFn:
    """Negative entropy over the open simplex, in its first k coordinates.

    G(x) = sum_i x_i log x_i + x0 log x0 with x0 = 1 - sum x.  Off the open
    simplex the gradient is nan, which the searches read as not below a
    target.  The gradient log x - log x0 inverts to the softmax
    e^t / (1 + sum e^t), shifted by the largest exponent.
    """

    def val(x):
        x0 = 1.0 - float(np.sum(x))
        return float(np.sum(x * np.log(x))) + x0 * math.log(x0)

    def grad(x):
        x0 = 1.0 - float(np.sum(x))
        if x0 <= 0.0:
            return np.full(k, np.nan)
        return np.log(x) - math.log(x0)

    def clo(x):
        parts = list(x) + [1.0 - float(np.sum(x))]
        return sum(p * math.log(p) for p in parts if p > 0.0)

    def inverse(t):
        m = max(0.0, float(np.max(t)))
        e = np.exp(t - m)
        return e / (math.exp(-m) + float(np.sum(e)))

    return ConvexFn(
        dim=k,
        value_fn=val,
        grad_fn=grad,
        lo=np.zeros(k), hi=np.ones(k),
        bounded=True,
        name=f"simplex-negentropy-{k}",
        closure_fn=clo,
        vertices=np.vstack([np.zeros(k), np.eye(k)]),
        grad_inverse=inverse,
    )


def log_partition(phi: np.ndarray) -> ConvexFn:
    """C(q) = log sum_y exp(q . phi(y)), the exponential-family cost."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim == 1:
        phi = phi[:, None]
    n, k = phi.shape

    def val(q):
        w = phi @ q
        m = float(np.max(w))
        return m + math.log(float(np.sum(np.exp(w - m))))

    def grad(q):
        w = phi @ q
        w = w - np.max(w)
        e = np.exp(w)
        p = e / np.sum(e)
        return phi.T @ p

    return ConvexFn(
        dim=k,
        value_fn=val,
        grad_fn=grad,
        lo=np.full(k, -INF), hi=np.full(k, INF),
        name="log-partition",
    )


def binary_lmsr_cost() -> ConvexFn:
    """C(q) = log(1 + e^q) for a single security paying 1{Y = 1}."""
    fn = log_partition(np.array([[0.0], [1.0]]))
    fn.name = "binary-lmsr"
    return fn


def from_callables(dim, value, grad, lo=None, hi=None, **flags) -> ConvexFn:
    lo, hi = _box(dim, lo, hi)
    return ConvexFn(dim=dim, value_fn=lambda x: float(value(x)),
                    grad_fn=lambda x: _vec(grad(x)), lo=lo, hi=hi, **flags)


# ---------------------------------------------------------------------------
# the search core

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def golden_max(f, lo: float, hi: float, xtol: float = 0.0,
               steps: int | None = None) -> float:
    """Golden-section maximizer of a unimodal f on [lo, hi], refined until
    the bracket is xtol wide or its probes stop lying strictly inside it,
    or, when given, for a fixed number of steps."""
    a, b = float(lo), float(hi)
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    n = 0
    while b - a > xtol and n != steps:
        if steps is None and not (a < c < b and a < d < b):
            break
        n += 1
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


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
    target = np.atleast_1d(np.asarray(target, dtype=float))
    boxes = []
    for a, b in zip(fn.lo.tolist(), fn.hi.tolist()):
        pad = BRACKET_PAD * (b - a)
        boxes.append((a + pad, b - pad)
                     if math.isfinite(a) and math.isfinite(b) else None)
    if fn.grad_inverse is not None:
        x = np.asarray(fn.grad_inverse(target), dtype=float)
        for v, box in zip(x.tolist(), boxes):
            if not (box[0] <= v <= box[1] if box is not None
                    else abs(v) <= BRACKET_LIMIT):
                return None
        return x
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


def hull_facets(points) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with conv(points) = {x : a @ x + b <= 0}, each row of a a unit
    normal: exact intervals in one dimension, the convex hull's facet
    equations otherwise."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] == 1:
        return np.array([[-1.0], [1.0]]), \
            np.array([float(np.min(pts)), -float(np.max(pts))])
    from scipy.spatial import ConvexHull

    eq = ConvexHull(pts).equations
    return eq[:, :-1], eq[:, -1]


def hull_margin(points: np.ndarray, x) -> float:
    """Signed distance of x to the boundary of conv(points): positive
    inside."""
    a, b = hull_facets(points)
    return float(np.min(-(a @ _vec(x) + b)))
