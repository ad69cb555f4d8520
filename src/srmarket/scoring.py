"""The scoring-rule families: finite payoff matrices (mode), expectations,
quantiles, expectiles, and ratios of expectations.

Every rule exposes the score, the full payoff contract of a report, the
statistic it elicits, and an independent search-based best response.  The
two report channels stay separate on purpose: ``property_value`` evaluates
the statistic directly, ``best_response`` maximizes expected score, and
their agreement is itself a checked property.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Sequence

import numpy as np

from .contracts import (
    IDENTITY,
    INF,
    MEMBER_TOL,
    REAL_LINE,
    SEARCH_CYCLES,
    SEARCH_XTOL,
    STRUCT_TOL,
    TIE_TOL,
    Belief,
    Contract,
    OutcomeMismatch,
    OutcomeSpace,
    PayoffOverflow,
    Transform,
    combine,
    finite_contract,
    inset,
    ordered_dot,
    stack_pieces,
)
from .convex import (
    ConvexFn,
    _dots,
    _floats,
    _libm,
    _vec,
    bisect,
    brent_max,
    hull_facets,
    invert_gradients,
)


class InvalidReport(ValueError):
    """Report outside the rule's report space."""


# ---------------------------------------------------------------------------
# report spaces


@dataclass(frozen=True)
class FiniteReports:
    labels: tuple

    dim = 0

    def contains(self, r) -> bool:
        return r in self.labels

    def grid(self, num: int = 51, window: tuple = (-4.0, 4.0)) -> list:
        """Every label, whatever the number of points or the window."""
        return list(self.labels)


@dataclass(frozen=True)
class BoxReports:
    """Open box in R^k; reports validated strictly inside, and more than
    ``STRUCT_TOL`` inside the convex hull of ``hull``'s points when it is
    given (the hull's facet equations carry rounding), and inside the open
    box ``interior`` of a potential when it is given; the grid spans lo..hi."""

    lo: tuple
    hi: tuple
    hull: tuple | None = field(default=None, repr=False)
    interior: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        # the corners and the hull's facets converted once, since every
        # validate_report asks; a scalar report of a 1-D box compares with
        # plain floats
        lo, hi = self.interior or (-INF, INF)
        object.__setattr__(self, "_lo", np.maximum(np.asarray(self.lo, dtype=float), lo))
        object.__setattr__(self, "_hi", np.minimum(np.asarray(self.hi, dtype=float), hi))
        object.__setattr__(self, "_interval", (float(self._lo[0]), float(self._hi[0]))
                           if self._lo.shape == (1,) and self.hull is None else None)
        object.__setattr__(self, "_facets", None if self.hull is None
                           else hull_facets(self.hull))

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, r) -> bool:
        if self._interval is not None and isinstance(r, float):
            lo, hi = self._interval
            return lo < float(r) < hi
        xs = report_rows([r], self.dim)
        return xs is not None and bool(self.contains_rows(xs)[0])

    def contains_rows(self, xs: np.ndarray) -> np.ndarray:
        """``contains`` of each row of an (R, dim) array."""
        inside = ((xs > self._lo) & (xs < self._hi)).all(axis=1)
        if self._facets is not None:
            a, b = self._facets
            inside &= np.min(-(_dots(xs[:, None, :], a) + b), axis=1) > STRUCT_TOL
        return inside

    def grid(self, num: int = 51, window: tuple = (-4.0, 4.0)) -> list:
        """``num`` points per axis, inset by 2% of the axis span, less the
        points the hull does not contain; the box, not ``window``, bounds them."""
        axes = []
        for a, b in zip(self.lo, self.hi):
            pad = 0.02 * (b - a)
            axes.append(np.linspace(a + pad, b - pad, num))
        if self.dim == 1:
            pts = [float(v) for v in axes[0]]
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = [np.array(v) for v in zip(*[m.ravel() for m in mesh])]
        return pts if self.hull is None else [p for p in pts if self.contains(p)]


@dataclass(frozen=True)
class RealReports:
    dim = 1

    def contains(self, r) -> bool:
        # float and int first: they spare the abstract class's slower check;
        # a number past the float range is no report
        try:
            return isinstance(r, (float, int, Real)) and math.isfinite(r)
        except OverflowError:
            return False

    def contains_rows(self, xs: np.ndarray) -> np.ndarray:
        return np.isfinite(xs).all(axis=1)

    def grid(self, num: int = 51, window: tuple = (-4.0, 4.0)) -> list:
        return [float(v) for v in np.linspace(window[0], window[1], num)]


# ---------------------------------------------------------------------------
# base rule


class ScoringRule:
    """A rule defines ``score_contract``, or the form it wraps:
    ``score_list`` over a finite outcome space, ``score_pieces`` on the real
    line."""

    family = "abstract"

    outcome_space: OutcomeSpace
    report_space: object
    # the coordinate of real-line score pieces
    transform: Transform = IDENTITY

    # -- report plumbing ----------------------------------------------------

    def validate_report(self, r) -> None:
        if not self.report_space.contains(r):
            raise InvalidReport(f"report {r!r} outside the report space")

    def validate_trade(self, r_old, r_new) -> None:
        self.validate_report(r_new)

    def _r(self, r) -> np.ndarray:
        """A report of ``report_space.dim`` numbers as an array, validated."""
        self.validate_report(r)
        return _vec(r)

    def _stack(self, reports: list) -> np.ndarray:
        """The reports as the rows of an (R, dim) array, validated in order:
        all at once, or report by report where that finds one outside the
        report space, so the first such report raises."""
        k = self.report_space.dim
        xs = report_rows(reports, k)
        inside = getattr(self.report_space, "contains_rows", None)
        if xs is None or inside is None or not inside(xs).all():
            xs = np.array([self._r(r) for r in reports],
                          dtype=float).reshape(len(reports), k)
        return xs

    def report_grid(self, num: int = 51, window: tuple = (-4.0, 4.0)) -> list:
        return self.report_space.grid(num, window)

    # -- scoring ------------------------------------------------------------

    def score(self, r, y) -> float:
        self.validate_report(r)
        self.outcome_space.validate(y)
        return self.score_contract(r)(y)

    def score_contract(self, r) -> Contract:
        """The payoff contract of report r; payoffs or piece coefficients
        that overflow raise ``PayoffOverflow``."""
        if self.outcome_space.is_finite:
            return finite_contract(self.outcome_space, self.score_list(r))
        ends, coeffs = self.score_pieces(r)
        if not all(math.isfinite(v) for c in coeffs for v in c):
            raise PayoffOverflow("payoffs must be finite")
        return Contract(space=REAL_LINE, ends=tuple(ends),
                        pieces=tuple(map(tuple, coeffs)), transform=self.transform)

    def score_list(self, r) -> list:
        """The payoffs of report r over a finite outcome space as Python
        floats, which ``score_contract`` wraps once it has checked them for
        finiteness, and ``expected_score`` and a session read.  Validates r."""
        return self.score_contract(r).values.tolist()

    def score_pieces(self, r) -> tuple:
        """``(ends, coeffs)`` of report r's real-line score: P pieces, each
        (c0, c1, c2) in the coordinate ``transform``, breaking at P - 1
        ascending ends.  Validates r."""
        c = self.score_contract(r)
        return c.ends, c.pieces

    def score_table(self, reports) -> np.ndarray:
        """The payoff vectors of ``score_contract(r)`` for each report, one
        row per report: the (R, n) array of a ``score_stack`` over a finite
        outcome space."""
        if not self.outcome_space.is_finite:
            raise OutcomeMismatch("score tables need a finite outcome space")
        return self.score_stack(reports)[0][0]

    def score_rows(self, reports: list) -> np.ndarray:
        """The unchecked (R, n) score table: ``score_list`` of each report,
        stacked, where a rule has no array expression for it."""
        return np.array([self.score_list(r) for r in reports], dtype=float)

    def piece_rows(self, reports: list) -> tuple:
        """The unchecked piece table ``(ends, coeffs)`` that
        ``contracts.stack_pieces`` makes of each report's ``score_pieces``,
        where a rule has no array expression for it."""
        return stack_pieces([self.score_pieces(r) for r in reports])

    def score_stack(self, reports) -> tuple:
        """The reports' scores as ``contracts.sum_rows`` reads them, and
        their transform: ``((score_rows,), None)`` over a finite outcome
        space, else ``(piece_rows, transform)``.  Each report is validated,
        in order, as ``score_contract`` validates it; then payoffs or
        coefficients that overflow raise ``PayoffOverflow``, without numpy's
        warning."""
        reports = list(reports)
        finite_space = self.outcome_space.is_finite
        with np.errstate(over="ignore", invalid="ignore"):
            stack = (self.score_rows(reports).reshape(
                len(reports), self.outcome_space.n),) if finite_space \
                else self.piece_rows(reports)
        if not np.isfinite(stack[-1]).all():
            raise PayoffOverflow("payoffs must be finite")
        return stack, None if finite_space else self.transform

    def trade_contract(self, r_old, r_new) -> Contract:
        """The contract handed out for moving the state r_old -> r_new: it
        pays S(r_new, .) - S(r_old, .)."""
        return combine([self.score_contract(r_new), self.score_contract(r_old)],
                       [1.0, -1.0])

    def _pmf(self, p: Belief) -> np.ndarray:
        if p.pmf is None or p.space.labels != self.outcome_space.labels:
            raise OutcomeMismatch("belief kind must match the outcome space")
        return p.pmf

    def expected_score(self, r, p: Belief) -> float:
        """E_p S(r, Y): over a finite space the payoffs times the pmf summed
        in Python floats in the order of the outcomes, as ``stack_scores``
        sums each row of a table; a payoff that overflows raises
        ``PayoffOverflow``."""
        if self.outcome_space.is_finite:
            self._pmf(p)
            val = ordered_dot(self.score_list(r), p.pmf_list)
            if not math.isfinite(val):
                raise PayoffOverflow("payoffs must be finite")
            return val
        ends, coeffs = self.score_pieces(r)
        return p.moments(self.transform).expectation(ends, coeffs)

    def stack_scores(self, stack: tuple, transform, p: Belief) -> np.ndarray:
        """E_p of each row of a ``score_stack``: one ``_finite_values`` sum
        of the payoff table over a finite space, and on the real line one
        ``MomentTable.expectation`` per row of the belief's table, fetched
        once.  A belief of the other kind raises ``OutcomeMismatch``, even
        for an empty stack."""
        if transform is None:
            return np.array(_finite_values(stack[0], self._pmf(p)))
        table = p.moments(transform)
        return np.array([table.expectation(ends, coeffs) for ends, coeffs
                         in zip(stack[0].tolist(), stack[1].tolist())])

    def grid_scores(self, reports, p: Belief) -> list:
        """``expected_score`` of each report, from one score stack."""
        return self.stack_scores(*self.score_stack(reports), p).tolist()

    # -- elicitation --------------------------------------------------------

    def property_value(self, p: Belief):
        raise NotImplementedError

    def best_response(self, p: Belief):
        """Maximizer of expected score found by search, independent of
        property_value: one ``brent_max`` over ``_search_bracket`` in one
        continuous dimension, which assumes the expected score unimodal in
        r, as it is for every family (its derivative G''(r)(mu - r), a
        positive multiple of alpha - F(r), or monotone, changes sign once);
        the least finite report within TIE_TOL of the best; in more
        dimensions a grid argmax refined one coordinate at a time.  The
        search reads only ``expected_score``."""
        if self.report_space.dim == 1:
            lo, hi = self._search_bracket(p)
            return brent_max(lambda r: self.expected_score(r, p), lo, hi, SEARCH_XTOL)
        finite = isinstance(self.report_space, FiniteReports)
        grid = self.report_space.grid() if finite else self._search_box().grid(41)
        vals = self.grid_scores(grid, p)
        if finite:
            best = max(vals)
            return min(g for g, v in zip(grid, vals) if best - v <= TIE_TOL)
        return _coordinate_max(
            lambda r: self.expected_score(r, p),
            np.asarray(grid[int(np.argmax(vals))], dtype=float), self._search_box())

    def _search_box(self) -> BoxReports:
        """The box a multi-dimensional best_response searches."""
        return self.report_space

    def _search_bracket(self, p: Belief) -> tuple:
        """The interval a 1-D best_response searches: on the real line the
        belief's support, padded by 1 + 0.1 of its width; else the box
        inset by BRACKET_PAD of its span."""
        if isinstance(self.report_space, RealReports):
            a, b = p.support()
            pad = 1.0 + 0.1 * (b - a)
            return a - pad, b + pad
        return inset(self.report_space.lo[0], self.report_space.hi[0])

    # -- family hooks used by the axiom checkers -----------------------------

    def loss_bound(self, r0) -> float | None:
        """Closed-form worst-case-loss bound from r0 when the family admits
        one; None means only grid evidence is available."""
        return None

    # the neutralization checks whose analytic candidate is share matching
    matches: frozenset = frozenset()

    def share_rows(self, reports: list) -> np.ndarray:
        """The share of each report, as the rows of an (R, dim) array: the
        report itself, as a cost market's share state or an expectile's tail
        slope (affine in the report) is."""
        return self._stack(reports)

    def reports_at(self, shares) -> list:
        """The report whose share is each row, or None where there is none."""
        return [None if x is None else as_report(x) for x in shares]

    def matched_candidates(self, positions: list) -> list:
        """Per position (held trades [(old, new), ...], state): the report
        whose share is the state's less the held trades' share change, or
        None.  The shares of every position's reports are one ``share_rows``
        call, summed from zero in the order of the trades, and the reports
        one ``reports_at`` call."""
        if not positions:
            return []
        sizes = np.array([len(trades) for trades, _ in positions])
        m = int(sizes.max())
        # a shorter portfolio pads with its state, which the sum skips
        reports = [r for trades, state in positions for r in
                   [state, *(r for trade in trades for r in trade),
                    *[state] * (2 * (m - len(trades)))]]
        shares = self.share_rows(reports).reshape(len(positions), 2 * m + 1, -1)
        total = np.zeros_like(shares[:, 0])
        for j in range(m):
            total = np.where((j < sizes)[:, None],
                             total + shares[:, 2 * j + 2] - shares[:, 2 * j + 1],
                             total)
        return self.reports_at(shares[:, 0] - total)


def as_report(x):
    """The report of a vector x of report coordinates: a float when x has
    one entry, else x."""
    return float(x[0]) if len(x) == 1 else x


def report_rows(reports: list, k: int) -> np.ndarray | None:
    """The reports as the rows of an (R, k) float array when each is a real
    number (k = 1) or a vector of k of them, else None: a numeric string is
    no report."""
    try:
        xs = np.array(reports)
    except (TypeError, ValueError):
        return None
    R = len(reports)
    if xs.dtype.kind not in "biuf" or not (
            xs.shape == (R, k) or k == 1 and xs.shape == (R,)):
        return None
    return xs.reshape(R, k).astype(float, copy=False)


def _piece_columns(R: int, ends: tuple, pieces: tuple) -> tuple:
    """The piece table ``(ends, coeffs)`` of R reports from the array form
    of a ``score_pieces`` expression: each end and coefficient an (R,)
    array, or a number that every row shares."""
    table = np.empty((R, len(ends) + 3 * len(pieces)))
    for j, v in enumerate((*ends, *(v for c in pieces for v in c))):
        table[:, j] = v
    return table[:, :len(ends)], table[:, len(ends):].reshape(R, len(pieces), 3)


def _finite_values(rows, pmf: np.ndarray) -> list:
    """E_p of each row of an (R, n) payoff table: one ``_dots`` sum over the
    outcomes, in their order, so a row's value is its ``ordered_dot`` with
    the pmf to the bit; a row holding inf or nan makes its value
    non-finite and raises, without numpy's warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _dots(np.asarray(rows, dtype=float), pmf).tolist()
    if not all(map(math.isfinite, vals)):
        raise PayoffOverflow("payoffs must be finite")
    return vals


def _coordinate_max(f, x0: np.ndarray, box: BoxReports) -> np.ndarray:
    """``brent_max`` along each coordinate in turn, then along the cycle's
    whole move (on a long diagonal ridge the moves of successive cycles line
    up with it), within the box inset by BRACKET_PAD of its span and, when
    the box has a hull, within the hull inset by 2 STRUCT_TOL.  The cycles
    stop once one moves no coordinate by more than SEARCH_XTOL or no longer
    raises f, whose rounding then decides the line searches' probes, and
    after SEARCH_CYCLES."""
    lo, hi = inset(np.asarray(box.lo, dtype=float), np.asarray(box.hi, dtype=float))
    # the search region as rows of normals . x <= limits
    eye = np.eye(len(x0))
    normals, limits = np.vstack([eye, -eye]), np.concatenate([hi, -lo])
    if box._facets is not None:
        a, b = box._facets
        normals = np.vstack([normals, a])
        limits = np.concatenate([limits, -b - 2.0 * STRUCT_TOL])

    def line_max(x, d):
        # x + s d stays in the region for s between the bounds each row sets;
        # the box's rows bound s on both sides for any d != 0; products
        # summed in order, so the probes do not move with the BLAS kernel
        slope = _dots(normals, d)
        room = limits - _dots(normals, x)
        s_lo = float(np.max(room[slope < 0.0] / slope[slope < 0.0]))
        s_hi = float(np.min(room[slope > 0.0] / slope[slope > 0.0]))
        if not s_lo < s_hi:
            return x
        s = brent_max(lambda s: f(x + s * d), s_lo, s_hi,
                      SEARCH_XTOL / float(np.max(np.abs(d))))
        return x + s * d

    x = x0.astype(float)
    fx = f(x)
    for _ in range(SEARCH_CYCLES):
        start = x
        for d in eye:
            x = line_max(x, d)
        if np.any(x != start):
            x = line_max(x, x - start)
        fy = f(x)
        if not fy > fx or np.max(np.abs(x - start)) <= SEARCH_XTOL:
            return x
        fx = fy
    return x


# ---------------------------------------------------------------------------
# finite payoff matrices


class FiniteRule(ScoringRule):
    """Explicit payoff matrix S[r, y] over finite reports x finite outcomes.

    Elicits the finite property r* = argmax_r E_p S(r, Y); ties return the
    full argmax set and downstream consumers take the smallest label.
    """

    family = "finite"

    def __init__(self, matrix, outcome_space: OutcomeSpace,
                 report_labels: Sequence | None = None):
        self.matrix = np.asarray(matrix, dtype=float)
        self.outcome_space = outcome_space
        if self.matrix.shape[1] != outcome_space.n:
            raise ValueError("matrix columns must match the outcome count")
        labels = tuple(report_labels) if report_labels is not None \
            else tuple(range(1, self.matrix.shape[0] + 1))
        if not len(set(labels)) == len(labels) == self.matrix.shape[0] >= 2:
            raise ValueError("a finite rule needs one distinct report label "
                             "per matrix row, and at least 2 rows")
        self.report_space = FiniteReports(labels)

    @classmethod
    def weighted_mode(cls, labels: Sequence, weights: Sequence) -> "FiniteRule":
        w = np.asarray(weights, dtype=float)
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        space = OutcomeSpace.finite(labels)
        return cls(np.diag(w), space, report_labels=labels)

    def _row(self, r) -> int:
        self.validate_report(r)
        return self.report_space.labels.index(r)

    def score_list(self, r) -> list:
        return self.matrix[self._row(r)].tolist()

    def score_rows(self, reports: list) -> np.ndarray:
        return self.matrix[[self._row(r) for r in reports]]

    def property_value(self, p: Belief):
        expected = _dots(self.matrix, p.pmf)
        best = float(np.max(expected))
        return tuple(lbl for lbl, v in zip(self.report_space.labels, expected)
                     if best - v <= TIE_TOL)

    def loss_bound(self, r0) -> float:
        # finitely many contracts: the loss is one of them, hence bounded
        base = self.matrix[self._row(r0)]
        return float(np.max(self.matrix - base))


class ModeRule(FiniteRule):
    """$1 iff you guess correctly; elicits the mode of the distribution."""

    def __init__(self, labels: Sequence):
        if isinstance(labels, int):
            labels = range(1, labels + 1)
        space = OutcomeSpace.finite(labels)
        super().__init__(np.eye(space.n), space, report_labels=space.labels)

    def property_value(self, p: Belief):
        # direct argmax of the pmf, independent of the score matrix
        best = float(np.max(p.pmf))
        return tuple(lbl for lbl, v in zip(self.outcome_space.labels, p.pmf)
                     if best - v <= TIE_TOL)


# ---------------------------------------------------------------------------
# rules on a convex potential: expectations and ratios of expectations


def payoff_table(phi, outcome_space: OutcomeSpace | None, dim: int,
                 independent: bool = True) -> tuple:
    """``(phi, outcome_space)``: a security payoff table as an (n, dim)
    array, one row per outcome of the finite space (outcomes 0..n-1 when
    none is given), whose rows are affinely independent if asked."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim == 1:
        phi = phi[:, None]
    if outcome_space is None:
        outcome_space = OutcomeSpace.finite(range(phi.shape[0]))
    if phi.shape != (outcome_space.n, dim):
        raise ValueError(f"phi must hold {dim} payoffs per outcome, one row "
                         f"per outcome, not shape {phi.shape}")
    if independent and np.linalg.matrix_rank(
            phi - np.mean(phi, axis=0), tol=MEMBER_TOL) != dim:
        raise ValueError("securities must be affinely independent")
    return phi, outcome_space


def _inside_domain(potential: ConvexFn, points: np.ndarray) -> None:
    """Reports span the box of the points: the potential's domain box must
    hold it, and a non-finite point lies in none."""
    if not np.isfinite(points).all() or np.any(points < potential.lo) or \
            np.any(points > potential.hi):
        raise ValueError("the potential's domain must hold every payoff point")


class PotentialRule(ScoringRule):
    """A rule on a convex potential G whose shares dG(r) trade by matching:
    a trade's share change is undone by inverting the potential's gradient."""

    potential: ConvexFn

    @property
    def k(self) -> int:
        return self.potential.dim

    matches = frozenset({"WN"})

    def _affine(self, r) -> tuple:
        """G(r) - dG_r . r and dG_r, from the potential's scalar forms in
        Python floats: an expectation score is the first plus dG_r . phi(y),
        a ratio score b(y) times the first plus dG_r . phi(y).  Validates r."""
        self.validate_report(r)
        x = _floats(r)
        dg = self.potential.grad_fn(x)
        return self.potential.value_fn(x) - ordered_dot(dg, x), dg

    def _affines(self, reports: list) -> tuple:
        """``_affine`` of each report, as an (R,) and an (R, k) array."""
        xs = self._stack(reports)
        dg = self.potential.grads(xs)
        return self.potential.values(xs) - _dots(dg, xs), dg

    def share_rows(self, reports: list) -> np.ndarray:
        return self.potential.grads(self._stack(reports))

    def reports_at(self, shares) -> list:
        """One ``invert_gradients`` call; None also where the report space
        leaves the point out."""
        return [r if r is not None and self.report_space.contains(r) else None
                for r in super().reports_at(invert_gradients(self.potential, shares))]


class ExpectationRule(PotentialRule):
    """S(r, y) = G(r) + dG_r . (phi(y) - r) for strictly convex G.

    Elicits the expected security payoff E_p phi(Y).  ``phi`` is a payoff
    table over a finite outcome space; with no table the outcome space is
    the real line and phi is the identity.
    """

    family = "expectation"

    def __init__(self, potential: ConvexFn, phi=None,
                 outcome_space: OutcomeSpace | None = None,
                 report_space=None):
        self.potential = potential
        if phi is None:
            self.outcome_space = REAL_LINE
            self.phi = None
            if potential.dim != 1:
                raise ValueError("identity securities need a scalar potential")
            self.report_space = report_space or RealReports()
        else:
            self.phi, self.outcome_space = payoff_table(
                phi, outcome_space, potential.dim, independent=False)
            _inside_domain(potential, self.phi)
            self._phi_rows = self.phi.tolist()
            if report_space is None:
                # the box phi spans, cut to the potential's polytope domain
                lo = tuple(float(v) for v in np.min(self.phi, axis=0))
                hi = tuple(float(v) for v in np.max(self.phi, axis=0))
                hull = None if potential.vertices is None else \
                    tuple(map(tuple, potential.vertices.tolist()))
                report_space = BoxReports(lo, hi, hull, potential.interior)
            self.report_space = report_space

    matches = frozenset({"WN", "TN", "PN"})

    def score_list(self, r) -> list:
        base, dg = self._affine(r)
        return [base + ordered_dot(dg, row) for row in self._phi_rows]

    def score_rows(self, reports: list) -> np.ndarray:
        base, dg = self._affines(reports)
        return base[:, None] + _dots(dg[:, None, :], self.phi)

    def score_pieces(self, r) -> tuple:
        base, dg = self._affine(r)
        return (), ((base, dg[0], 0.0),)

    def piece_rows(self, reports: list) -> tuple:
        base, dg = self._affines(reports)
        return _piece_columns(len(base), (), ((base, dg[:, 0], 0.0),))

    def property_value(self, p: Belief):
        if self.phi is None:
            return p.mean()
        out = _dots(self.phi.T, p.pmf)
        return as_report(out)

    def loss_bound(self, r0) -> float | None:
        if self.phi is None:
            return None
        # S(r, y) <= G(phi(y)) by the subgradient inequality
        top = max(self.potential.value_closure(row) for row in self.phi)
        base = self.score_contract(r0)
        return top - float(np.min(base.values))


# ---------------------------------------------------------------------------
# quantile markets


class QuantileRule(ScoringRule):
    """S(r, y) = (alpha - 1{r >= y}) (g(r) - g(y)) for strictly increasing g.

    Elicits the alpha-quantile; with alpha = 1/2 and g the identity this is
    the negative absolute loss -|r - y| / 2 ... times 2 on the raw form.
    Bounded transforms (sigmoid) bound every score in
    (-max(alpha, 1-alpha) * range(g), 0].
    """

    family = "quantile"

    def __init__(self, alpha: float, transform: Transform = IDENTITY):
        if not 0.0 < alpha < 1.0:
            raise ValueError("quantile level must lie in (0, 1)")
        self.alpha = float(alpha)
        self.transform = transform
        self.outcome_space = REAL_LINE
        self.report_space = RealReports()

    def score_pieces(self, r) -> tuple:
        self.validate_report(r)
        return (float(r),), self._pieces(self.transform(r))

    def piece_rows(self, reports: list) -> tuple:
        xs = self._stack(reports)[:, 0]
        # the identity's coordinate of a report is the report
        gr = xs if self.transform is IDENTITY else _libm(self.transform, xs)
        return _piece_columns(len(xs), (xs,), self._pieces(gr))

    def _pieces(self, gr) -> tuple:
        """The two pieces of the score at the coordinate gr, a float or an array."""
        a = self.alpha
        return ((a - 1.0) * gr, 1.0 - a, 0.0), (a * gr, -a, 0.0)

    def property_value(self, p: Belief) -> float:
        return p.quantile(self.alpha)

    def loss_bound(self, r0) -> float | None:
        t_lo, t_hi = self.transform.lo_limit(), self.transform.hi_limit()
        if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
            return None
        return max(self.alpha, 1.0 - self.alpha) * (t_hi - t_lo)


# ---------------------------------------------------------------------------
# expectile markets


class ExpectileRule(ScoringRule):
    """S(r, y) = -|1{y <= r} - tau| D_g(y, r) for strictly convex g.

    g is a quadratic (coefficients c0 + c1 y + c2 y^2, c2 > 0), whose
    Bregman kernel is c2 (y - r)^2 and keeps contracts piecewise quadratic.
    """

    family = "expectile"

    # WN matches tail slopes g'(r), which are affine in r: the report is its
    # share
    matches = frozenset({"WN"})

    def __init__(self, tau: float, g_coeffs: tuple = (0.0, 0.0, 1.0)):
        if not 0.0 < tau < 1.0:
            raise ValueError("expectile level must lie in (0, 1)")
        self.tau = float(tau)
        c0, c1, c2 = (float(v) for v in g_coeffs)
        if c2 <= 0:
            raise ValueError("quadratic transform needs positive curvature")
        self.g_coeffs = (c0, c1, c2)
        self.g = lambda y: c0 + c1 * y + c2 * y * y
        self.gprime = lambda y: c1 + 2.0 * c2 * y
        self.outcome_space = REAL_LINE
        self.report_space = RealReports()

    def _weight(self, r, y) -> float:
        return abs((1.0 if y <= r else 0.0) - self.tau)

    def score(self, r, y) -> float:
        self.validate_report(r)
        self.outcome_space.validate(y)
        # the Bregman divergence D_g(y, r)
        breg = self.g(y) - self.g(r) - self.gprime(r) * (y - r)
        return -self._weight(r, y) * breg

    def score_pieces(self, r) -> tuple:
        self.validate_report(r)
        r = float(r)
        return (r,), self._pieces(r)

    def piece_rows(self, reports: list) -> tuple:
        xs = self._stack(reports)[:, 0]
        return _piece_columns(len(xs), (xs,), self._pieces(xs))

    def _pieces(self, r) -> tuple:
        """The two pieces of the score of r, a float or an array of reports."""
        a = self.g_coeffs[2]

        def piece(w):
            # -w * a * (y - r)^2
            return -w * a * r * r, 2.0 * w * a * r, -w * a

        return piece(1.0 - self.tau), piece(self.tau)

    def identification_gap(self, x: float, p: Belief) -> float:
        """E_p |1{x >= Y} - tau| (x - Y); the expectile is its unique root."""
        t = self.tau
        return p.moments(IDENTITY).expectation(
            (float(x),), (((1 - t) * x, -(1 - t), 0.0), (t * x, -t, 0.0)))

    def property_value(self, p: Belief) -> float:
        # the gap is strictly increasing in x, so bisection is globally safe
        a, b = p.support()
        return bisect(lambda x: self.identification_gap(x, p), 0.0,
                      a - 1.0, b + 1.0, SEARCH_XTOL)


# ---------------------------------------------------------------------------
# ratio-of-expectations markets


class RatioRule(PotentialRule):
    """S(r, y) = b(y) G(r) + dG_r . (phi(y) - r b(y)) over a finite space.

    Elicits E_p phi / E_p b; the denominator security b stays strictly
    positive.  G must be differentiable and strictly convex with gradient
    range covering R^k for the share-matching candidates to exist.
    """

    family = "ratio"

    def __init__(self, potential: ConvexFn, phi, b,
                 outcome_space: OutcomeSpace | None = None,
                 report_space=None):
        self.potential = potential
        self.phi, self.outcome_space = payoff_table(phi, outcome_space,
                                                    potential.dim)
        self.b = np.asarray(b, dtype=float)
        if self.b.shape != (self.outcome_space.n,) or np.min(self.b) <= 0:
            raise ValueError("denominator payoffs must be strictly positive, "
                             "one per outcome")
        self._phi_rows, self._b_list = self.phi.tolist(), self.b.tolist()
        # the elicited ratio lives in the convex hull of phi(y)/b(y)
        with np.errstate(over="ignore"):
            ratios = self.phi / self.b[:, None]
        _inside_domain(potential, ratios)
        if report_space is None:
            report_space = BoxReports(
                tuple(float(v) for v in np.min(ratios, axis=0)),
                tuple(float(v) for v in np.max(ratios, axis=0)),
                interior=potential.interior)
        self.report_space = report_space

    def score_list(self, r) -> list:
        base, dg = self._affine(r)
        return [bb * base + ordered_dot(dg, row)
                for bb, row in zip(self._b_list, self._phi_rows)]

    def score_rows(self, reports: list) -> np.ndarray:
        base, dg = self._affines(reports)
        return self.b * base[:, None] + _dots(dg[:, None, :], self.phi)

    def property_value(self, p: Belief):
        num = _dots(self.phi.T, p.pmf)
        den = ordered_dot(self._b_list, p.pmf_list)
        out = num / den
        return as_report(out)

    def loss_bound(self, r0) -> float | None:
        # S(r, y) = b(y) [G(r) + dG_r . (phi(y)/b(y) - r)] <= b(y) G(phi(y)/b(y))
        try:
            top = max(float(bb) * self.potential.value_closure(row / bb)
                      for row, bb in zip(self.phi, self.b))
        except (ValueError, ZeroDivisionError, OverflowError):
            return None
        base = self.score_contract(r0)
        return top - float(np.min(base.values))
