"""Convex potentials, subgradient selections, conjugates, Bregman divergences.

These power the expectation and ratio scoring families and every
cost-function market.  A ConvexFn bundles an evaluator, a subgradient
selection, domain bounds, and (for the built-ins) a closed-form conjugate
used as the independent reference for the numerical conjugate path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contracts import INF, logit, sigmoid, softplus
from .reports import FAILS, HOLDS_AT_BUDGET, AxiomReport


def _vec(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


@dataclass(eq=False)
class ConvexFn:
    """A convex function on a box domain with a chosen subgradient selection."""

    dim: int
    value_fn: Callable[[np.ndarray], float]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    lo: np.ndarray
    hi: np.ndarray
    differentiable: bool = True
    strictly_convex: bool = True
    bounded: bool = False
    name: str = ""
    conjugate_fn: Callable[[np.ndarray], tuple[float, np.ndarray]] | None = None
    closure_fn: Callable[[np.ndarray], float] | None = None
    # vertices of a polytope that bounds the domain inside the box
    vertices: np.ndarray | None = None

    def value(self, x) -> float:
        return float(self.value_fn(_vec(x)))

    def grad(self, x) -> np.ndarray:
        return np.asarray(self.grad_fn(_vec(x)), dtype=float)

    def grad1(self, x) -> float:
        """Scalar subgradient, for dim-1 potentials."""
        return float(self.grad(x)[0])

    def value_closure(self, x) -> float:
        """Value extended by limits to the domain boundary where defined."""
        if self.closure_fn is not None:
            return float(self.closure_fn(_vec(x)))
        return self.value(x)

    def in_domain(self, x, margin: float = 0.0) -> bool:
        x = _vec(x)
        return bool(np.all(x > self.lo + margin) and np.all(x < self.hi - margin))

    def bounded_box(self, fallback: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        lo = np.where(np.isfinite(self.lo), self.lo, -fallback)
        hi = np.where(np.isfinite(self.hi), self.hi, fallback)
        return lo, hi


def _box(dim, lo, hi):
    lo = np.full(dim, -INF) if lo is None else np.asarray(lo, dtype=float)
    hi = np.full(dim, INF) if hi is None else np.asarray(hi, dtype=float)
    return lo, hi


def quadratic(dim: int = 1, lo=None, hi=None) -> ConvexFn:
    """G(x) = ||x||^2 with gradient 2x; conjugate ||q||^2 / 4 at q/2."""
    lo, hi = _box(dim, lo, hi)
    full = not (np.any(np.isfinite(lo)) or np.any(np.isfinite(hi)))
    return ConvexFn(
        dim=dim,
        value_fn=lambda x: float(np.dot(x, x)),
        grad_fn=lambda x: 2.0 * x,
        lo=lo, hi=hi,
        bounded=not full,
        name="quadratic",
        conjugate_fn=(lambda q: (float(np.dot(q, q)) / 4.0, q / 2.0)) if full else None,
    )


def binary_negentropy() -> ConvexFn:
    """G(p) = p log p + (1-p) log(1-p) on (0, 1); conjugate log(1 + e^q)."""

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
        conjugate_fn=lambda q: (softplus(q[0]), np.array([sigmoid(q[0])])),
        closure_fn=clo,
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

    def conj(q):
        # sup_x q x - G(x) = q lo + span * softplus(q span) shifted form
        s = q[0] * span
        return q[0] * lo + softplus(s), np.array([lo + span * sigmoid(s)])

    return ConvexFn(
        dim=1,
        value_fn=val,
        grad_fn=lambda x: np.array([logit((x[0] - lo) / span) / span]),
        lo=np.array([lo]), hi=np.array([hi]),
        bounded=True,
        name=f"interval-negentropy[{lo},{hi}]",
        conjugate_fn=conj,
        closure_fn=clo,
    )


def simplex_negentropy(k: int) -> ConvexFn:
    """Negative entropy over the open simplex, in its first k coordinates.

    G(x) = sum_i x_i log x_i + x0 log x0 with x0 = 1 - sum x; the conjugate
    is log(1 + sum e^{q_i}).
    """

    def val(x):
        x0 = 1.0 - float(np.sum(x))
        return float(np.sum(x * np.log(x))) + x0 * math.log(x0)

    def grad(x):
        x0 = 1.0 - float(np.sum(x))
        return np.log(x) - math.log(x0)

    def clo(x):
        parts = list(x) + [1.0 - float(np.sum(x))]
        return sum(p * math.log(p) for p in parts if p > 0.0)

    def conj(q):
        m = max(0.0, float(np.max(q)))
        z = math.exp(-m) + sum(math.exp(v - m) for v in q)
        value = m + math.log(z)
        ex = np.exp(q - m)
        return value, ex / z

    return ConvexFn(
        dim=k,
        value_fn=val,
        grad_fn=grad,
        lo=np.zeros(k), hi=np.ones(k),
        bounded=True,
        name=f"simplex-negentropy-{k}",
        conjugate_fn=conj,
        closure_fn=clo,
        vertices=np.vstack([np.zeros(k), np.eye(k)]),
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
        strictly_convex=False,
        name="log-partition",
    )


def binary_lmsr_cost() -> ConvexFn:
    """C(q) = log(1 + e^q) for a single security paying 1{Y = 1}."""
    fn = log_partition(np.array([[0.0], [1.0]]))
    fn.name = "binary-lmsr"
    fn.strictly_convex = True
    fn.conjugate_fn = lambda q: _binary_lmsr_conjugate(q)
    return fn


def _binary_lmsr_conjugate(p: np.ndarray) -> tuple[float, np.ndarray]:
    v = p[0]
    if not 0.0 < v < 1.0:
        raise ValueError("conjugate of the binary cost is finite on (0, 1) only")
    g = binary_negentropy()
    return g.value([v]), np.array([logit(v)])


def from_callables(dim, value, grad, lo=None, hi=None, **flags) -> ConvexFn:
    lo, hi = _box(dim, lo, hi)
    return ConvexFn(dim=dim, value_fn=lambda x: float(value(x)),
                    grad_fn=lambda x: _vec(grad(x)), lo=lo, hi=hi, **flags)


# ---------------------------------------------------------------------------
# operations


class DivergentConjugate(ValueError):
    """sup_x q.x - G(x) is unbounded over the domain."""


def conjugate(fn: ConvexFn, q, tol: float = 1e-10) -> tuple[float, np.ndarray]:
    """Fenchel conjugate value and maximizer at q.

    Uses the registered closed form when present, otherwise maximizes the
    concave map x -> q.x - G(x) by grid search polished with per-coordinate
    ternary search.  Unbounded domains are probed by box expansion and
    rejected when the objective keeps growing.
    """
    q = _vec(q)
    if fn.conjugate_fn is not None:
        value, arg = fn.conjugate_fn(q)
        return float(value), _vec(arg)

    def obj(x: np.ndarray) -> float:
        return float(np.dot(q, x)) - fn.value(x)

    lo, hi = fn.bounded_box()
    inset = 1e-9 * (hi - lo)
    lo_s, hi_s = lo + inset, hi - inset
    for _ in range(60):
        grids = [np.linspace(a, b, 33) for a, b in zip(lo_s, hi_s)]
        best, best_x = -INF, None
        mesh = np.meshgrid(*grids, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        for x in pts:
            v = obj(x)
            if v > best:
                best, best_x = v, x.copy()
        on_edge = [
            (not math.isfinite(fn.lo[i]) and best_x[i] <= lo_s[i] + 1e-12)
            or (not math.isfinite(fn.hi[i]) and best_x[i] >= hi_s[i] - 1e-12)
            for i in range(fn.dim)
        ]
        if not any(on_edge):
            break
        lo_s = np.where(np.isfinite(fn.lo), lo_s, lo_s * 2 - 1)
        hi_s = np.where(np.isfinite(fn.hi), hi_s, hi_s * 2 + 1)
        if np.any(np.abs(lo_s) > 1e12) or np.any(np.abs(hi_s) > 1e12):
            raise DivergentConjugate(f"conjugate of {fn.name or 'potential'} "
                                     f"diverges at q={q.tolist()}")
    x = best_x.astype(float)
    for _ in range(6):
        for i in range(fn.dim):
            a, b = lo_s[i], hi_s[i]
            for _ in range(200):
                if b - a <= tol:
                    break
                m1 = a + (b - a) / 3.0
                m2 = b - (b - a) / 3.0
                x1, x2 = x.copy(), x.copy()
                x1[i], x2[i] = m1, m2
                if obj(x1) < obj(x2):
                    a = m1
                else:
                    b = m2
            x[i] = 0.5 * (a + b)
    return obj(x), x


def bregman(fn: ConvexFn, y: float, x: float) -> float:
    """D(y, x) = g(y) - g(x) - dg(x) (y - x) for a scalar potential."""
    if fn.dim != 1:
        raise ValueError("Bregman divergence here is for scalar potentials")
    if not (fn.in_domain(y) and fn.in_domain(x)):
        raise ValueError("arguments outside the potential domain")
    return fn.value(y) - fn.value(x) - fn.grad1(x) * (float(y) - float(x))


def check_convexity(fn: ConvexFn, samples: int = 200,
                    rng: np.random.Generator | None = None,
                    box: tuple | None = None) -> AxiomReport:
    """Midpoint convexity, subgradient inequality, and directional gradient
    monotonicity on random pairs.  A failure carries the witness pair."""
    rng = rng or np.random.default_rng(0)
    if box is None:
        lo, hi = fn.bounded_box(fallback=3.0)
    else:
        lo, hi = np.asarray(box[0], float), np.asarray(box[1], float)
    span = hi - lo
    worst = INF
    for _ in range(samples):
        x = lo + span * (0.01 + 0.98 * rng.uniform(size=fn.dim))
        z = lo + span * (0.01 + 0.98 * rng.uniform(size=fn.dim))
        mid = 0.5 * (x + z)
        gap_mid = 0.5 * (fn.value(x) + fn.value(z)) - fn.value(mid)
        gap_sub = fn.value(z) - fn.value(x) - float(np.dot(fn.grad(x), z - x))
        gap_mono = float(np.dot(fn.grad(z) - fn.grad(x), z - x))
        m = min(gap_mid, gap_sub, gap_mono)
        worst = min(worst, m)
        if m < -1e-9:
            return AxiomReport(
                axiom="CONVEXITY", verdict=FAILS, margin=m,
                witness={"x": x.tolist(), "z": z.tolist(),
                         "midpoint_gap": gap_mid, "subgradient_gap": gap_sub,
                         "monotonicity_gap": gap_mono},
                budget={"samples": samples})
    return AxiomReport(axiom="CONVEXITY", verdict=HOLDS_AT_BUDGET, margin=worst,
                       budget={"samples": samples})


def hull_margin(points: np.ndarray, x) -> float:
    """Signed distance of x to the boundary of conv(points): positive inside.

    Exact interval arithmetic in one dimension; facet equations from the
    convex hull otherwise.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    x = _vec(x)
    if pts.shape[1] == 1:
        return float(min(x[0] - np.min(pts), np.max(pts) - x[0]))
    from scipy.spatial import ConvexHull

    hull = ConvexHull(pts)
    a = hull.equations[:, :-1]
    b = hull.equations[:, -1]
    return float(np.min(-(a @ x + b)))


@dataclass
class GradientRangeSummary:
    """Sampled gradient images classified against int(conv(hull_points))."""

    points: list
    margins: list
    all_inside: bool
    min_margin: float
    outside_witness: list | None


def gradient_range(fn: ConvexFn, qs, hull_points) -> GradientRangeSummary:
    pts, margins = [], []
    witness = None
    for q in qs:
        g = fn.grad(q)
        m = hull_margin(hull_points, g)
        pts.append(g.tolist())
        margins.append(m)
        if m <= 0 and witness is None:
            witness = [np.atleast_1d(q).tolist(), g.tolist(), m]
    return GradientRangeSummary(
        points=pts, margins=margins,
        all_inside=witness is None,
        min_margin=float(min(margins)) if margins else INF,
        outside_witness=witness,
    )
