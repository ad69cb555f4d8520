"""Outcome spaces, payoff contracts, and beliefs.

Payoffs over a finite outcome space are plain vectors.  Payoffs over the
real line are piecewise polynomials of degree <= 2 in a strictly
increasing coordinate t = transform(y).  Restricting to this class keeps
payoff bounds and expectations against piecewise-linear CDFs exact: every
piece is analyzed at its endpoints and vertex, and every integral has a
closed form.  A belief keeps, per transform, one moment table: the
cumulative integrals of 1, s and s^2 dF at its knots and the transform's
kinks, with s = t re-centred at the belief's mean of t where t is affine
between kinks.  A piece's expectation is its coefficients dotted with the
difference of the table read at its ends; ``expected_payoff`` and
``expected_pieces`` read one payoff in floats, ``expected_scores`` many as
arrays, by the same operations.

Tolerance policy: structural identities (telescoping, projection, a BTB
state at its target) are held to STRUCT_TOL, and a lattice basis whose
determinant is below it is singular; anything derived from iterative
optimization is held to OPT_TOL.  Expected scores within TIE_TOL of the
best tie, and the smallest tied report is picked (best responses over
finite reports, the finite properties).  The searches of ``convex`` bracket
a finite domain inset by BRACKET_PAD of its span and an infinite one by
doubling out to BRACKET_LIMIT, and a closed-form gradient inverse is
attained within the same box; a search that does not run to adjacent floats
stops at a bracket SEARCH_XTOL wide; a search of one coordinate at a time
cycles until a cycle moves no coordinate by more than that width or no
longer raises the objective, for at most SEARCH_CYCLES cycles.  A gradient
inversion in more than one dimension stops once its residual is within
OPT_TOL and accepts its point within RESIDUAL_ACCEPT; openness counts a
price target as reached, and cost extraction a translate as in the score
range, within RESIDUAL_ACCEPT too.  A bundle lies on a share lattice, and a
vector in a subgroup sample, when it is within MEMBER_TOL of a member, and
a sampled direction within MEMBER_TOL of zero is zero.  Cost extraction
takes a difference vector as a new security when it leaves the span of the
earlier ones by more than PIVOT_TOL of the largest difference, and
securities are affinely independent at that rank tolerance; extraction fits
the shares and costs within FIT_TOL of their scale, in a report window
inset by WINDOW_PAD of the report box's span.  A contract is cash when its
payoff is constant within FLAT_TOL, and a candidate outcome attains a
contract's infimum within ATTAIN_TOL (relative above 1).  A grid verdict
fails only past VERDICT_TOL: an IC argmax beyond a grid step of the
property, a WCL grid sup above the closed-form bound.  A replayed witness
reproduces when every number it recomputes is within REPLAY_TOL of the
stored one (relative above 1).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real
from typing import Iterable, Sequence

import numpy as np

STRUCT_TOL = 1e-12
OPT_TOL = 1e-8
TIE_TOL = 1e-12
SEARCH_XTOL = 1e-10
SEARCH_CYCLES = 200
ATTAIN_TOL = 1e-9
BRACKET_PAD = 1e-13
BRACKET_LIMIT = 2.0 ** 200
RESIDUAL_ACCEPT = 1e-6
MEMBER_TOL = 1e-9
PIVOT_TOL = 1e-9
FIT_TOL = 1e-7
WINDOW_PAD = 1e-6
FLAT_TOL = 1e-9
VERDICT_TOL = 1e-9
REPLAY_TOL = 1e-9

INF = math.inf


class OutcomeMismatch(ValueError):
    """Operands live over different outcome spaces."""


class PayoffOverflow(ValueError):
    """A payoff that a float cannot hold: inf or nan."""


class InvalidOutcome(ValueError):
    """Outcome not a member of the outcome space."""


# ---------------------------------------------------------------------------
# outcome spaces


@dataclass(frozen=True)
class OutcomeSpace:
    """Finite label set, or the real line when ``labels`` is None."""

    labels: tuple | None

    @staticmethod
    def finite(labels: Iterable) -> "OutcomeSpace":
        labels = tuple(labels)
        if len(labels) < 2:
            raise ValueError("finite outcome space needs at least 2 outcomes")
        if len(set(labels)) != len(labels):
            raise ValueError("outcome labels must be distinct")
        return OutcomeSpace(labels)

    @staticmethod
    def real_line() -> "OutcomeSpace":
        return REAL_LINE

    @property
    def is_finite(self) -> bool:
        return self.labels is not None

    @property
    def n(self) -> int:
        if self.labels is None:
            raise ValueError("real-line outcome space has no cardinality")
        return len(self.labels)

    def index(self, y) -> int:
        try:
            return self.labels.index(y)
        except (ValueError, AttributeError):
            raise InvalidOutcome(f"outcome {y!r} not in {self.labels!r}")

    def contains(self, y) -> bool:
        if self.labels is None:
            return isinstance(y, Real) and math.isfinite(y)
        return y in self.labels

    def validate(self, y) -> None:
        if not self.contains(y):
            raise InvalidOutcome(f"outcome {y!r} lies outside the outcome space")


REAL_LINE = OutcomeSpace(None)


# ---------------------------------------------------------------------------
# strictly increasing coordinate transforms


def sigmoid(y: float) -> float:
    if y >= 0:
        return 1.0 / (1.0 + math.exp(-y))
    e = math.exp(y)
    return e / (1.0 + e)


def softplus(y: float) -> float:
    if y > 30.0:
        return y + math.log1p(math.exp(-y))
    return math.log1p(math.exp(y))


def logit(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError("logit needs p in (0, 1)")
    return math.log(p) - math.log1p(-p)


class Transform:
    """Identity coordinate t(y) = y.  Base class for monotone transforms."""

    name = "identity"

    def __call__(self, y: float) -> float:
        return float(y)

    def lo_limit(self) -> float:
        return -INF

    def hi_limit(self) -> float:
        return INF

    def inverse(self, t: float) -> float:
        return float(t)

    # affine between kinks: a moment table re-centres t on the belief and
    # integrates its powers as polynomials of the offset within a cell
    affine = True

    def kinks(self) -> tuple:
        """Interior points where the slope changes."""
        return ()

    def slope(self, y: float) -> float:
        """dt/dy on the kink-free cell that starts at y (affine transforms)."""
        return 1.0

    def key(self) -> tuple:
        return (self.name,)

    def __repr__(self) -> str:
        return f"Transform({self.name})"


IDENTITY = Transform()


class SigmoidTransform(Transform):
    """t(y) = 1 / (1 + exp(-y)), bounded in (0, 1)."""

    name = "sigmoid"

    def __call__(self, y: float) -> float:
        return sigmoid(y)

    def lo_limit(self) -> float:
        return 0.0

    def hi_limit(self) -> float:
        return 1.0

    def inverse(self, t: float) -> float:
        return logit(t)

    affine = False

    def antiderivatives(self, y: float) -> tuple:
        """Antiderivatives of t and t^2 at y: softplus and, since
        d/dy [softplus - sigmoid] = t - t(1 - t) = t^2, softplus less the
        sigmoid."""
        sp = softplus(y)
        return sp, sp - sigmoid(y)


SIGMOID = SigmoidTransform()


class PiecewiseLinearTransform(Transform):
    """User-supplied strictly increasing piecewise-linear map.

    Extends beyond the first/last knot with the end-segment slopes.
    """

    name = "pwlinear"

    def __init__(self, xs: Sequence[float], ts: Sequence[float]):
        xs = [float(x) for x in xs]
        ts = [float(t) for t in ts]
        if len(xs) != len(ts) or len(xs) < 2:
            raise ValueError("need matching knot arrays of length >= 2")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("knot locations must be strictly increasing")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("knot values must be strictly increasing")
        self.xs = xs
        self.ts = ts

    def _segment(self, y: float) -> tuple[float, float]:
        # slope/intercept of the active linear segment
        i = bisect_right(self.xs, y) - 1
        i = max(0, min(i, len(self.xs) - 2))
        m = (self.ts[i + 1] - self.ts[i]) / (self.xs[i + 1] - self.xs[i])
        return m, self.ts[i] - m * self.xs[i]

    def __call__(self, y: float) -> float:
        m, b = self._segment(y)
        return m * float(y) + b

    def inverse(self, t: float) -> float:
        i = bisect_right(self.ts, t) - 1
        i = max(0, min(i, len(self.ts) - 2))
        m = (self.ts[i + 1] - self.ts[i]) / (self.xs[i + 1] - self.xs[i])
        return self.xs[i] + (t - self.ts[i]) / m

    def kinks(self) -> tuple:
        return tuple(self.xs[1:-1])

    def slope(self, y: float) -> float:
        return self._segment(y)[0]

    def key(self) -> tuple:
        return (self.name, tuple(self.xs), tuple(self.ts))


# ---------------------------------------------------------------------------
# contracts


@dataclass(frozen=True)
class Piece:
    """Polynomial payoff c0 + c1*t + c2*t^2 on the outcome interval [lo, hi)."""

    lo: float
    hi: float
    coeffs: tuple[float, float, float]

    def poly(self, t: float) -> float:
        c0, c1, c2 = self.coeffs
        return c0 + t * (c1 + t * c2)


@dataclass(frozen=True, eq=False)
class Contract:
    """Outcome-contingent payoff: a vector, or pieces in a monotone coordinate."""

    space: OutcomeSpace
    values: np.ndarray | None = None
    pieces: tuple[Piece, ...] | None = None
    transform: Transform | None = None

    def __call__(self, y) -> float:
        if self.values is not None:
            return float(self.values[self.space.index(y)])
        i = bisect_right([p.lo for p in self.pieces], y) - 1
        i = max(i, 0)
        return self.pieces[i].poly(self.transform(y))

    @property
    def is_finite(self) -> bool:
        return self.values is not None

    def breakpoints(self) -> list[float]:
        """Finite piece boundaries (empty for finite-space contracts)."""
        if self.values is not None:
            return []
        return [p.hi for p in self.pieces if math.isfinite(p.hi)]

    def to_dict(self) -> dict:
        if self.values is not None:
            return {"kind": "finite", "labels": list(self.space.labels),
                    "payoffs": [float(v) for v in self.values]}
        return {
            "kind": "piecewise",
            "transform": list(self.transform.key()),
            "pieces": [{"lo": p.lo, "hi": p.hi, "coeffs": list(p.coeffs)}
                       for p in self.pieces],
        }


def finite_contract(space: OutcomeSpace, values) -> Contract:
    if not space.is_finite:
        raise OutcomeMismatch("vector payoffs need a finite outcome space")
    arr = np.asarray(values, dtype=float)
    if arr.shape != (space.n,):
        raise ValueError(f"expected {space.n} payoffs, got {arr.shape}")
    # a loop over Python floats: a fraction of np.isfinite's cost on the
    # few outcomes of a finite space, and every finite contract passes here
    if not all(map(math.isfinite, arr.tolist())):
        raise PayoffOverflow("payoffs must be finite")
    arr.flags.writeable = False
    return Contract(space=space, values=arr)


def ones_contract(space: OutcomeSpace) -> Contract:
    """The all-cash contract paying 1 in every outcome."""
    if space.is_finite:
        return finite_contract(space, np.ones(space.n))
    return piecewise_contract([Piece(-INF, INF, (1.0, 0.0, 0.0))])


def piecewise_contract(pieces: Iterable[Piece],
                       transform: Transform = IDENTITY) -> Contract:
    pieces = tuple(sorted(pieces, key=lambda p: p.lo))
    if not pieces:
        raise ValueError("need at least one piece")
    if pieces[0].lo != -INF or pieces[-1].hi != INF:
        raise ValueError("pieces must tile the whole real line")
    for a, b in zip(pieces, pieces[1:]):
        if a.hi != b.lo:
            raise ValueError("pieces must be contiguous without gaps/overlaps")
    for p in pieces:
        if not p.lo < p.hi:
            raise ValueError("empty piece interval")
        if len(p.coeffs) != 3:
            raise ValueError("pieces carry exactly 3 polynomial coefficients")
    return Contract(space=REAL_LINE, pieces=pieces, transform=transform)


def _poly_extremes(coeffs, ta: float, tb: float) -> tuple[float, float]:
    """Exact inf/sup of a quadratic over the t-interval (ta, tb)."""
    c0, c1, c2 = coeffs
    lo_vals, hi_vals = [], []

    def at(t: float) -> float:
        return c0 + t * (c1 + t * c2)

    for t, toward_plus in ((ta, False), (tb, True)):
        if math.isinf(t):
            if c2 != 0.0:
                lim = INF if c2 > 0 else -INF
            elif c1 != 0.0:
                sign = c1 if toward_plus else -c1
                lim = INF if sign > 0 else -INF
            else:
                lim = c0
            lo_vals.append(lim)
            hi_vals.append(lim)
        else:
            v = at(t)
            lo_vals.append(v)
            hi_vals.append(v)
    if c2 != 0.0:
        tv = -c1 / (2.0 * c2)
        if ta < tv < tb:
            v = at(tv)
            lo_vals.append(v)
            hi_vals.append(v)
        elif math.isinf(tv) and tv in (ta, tb):
            # a vertex beyond the largest float, on an unbounded side
            v = c0 - c1 * c1 / (4.0 * c2)
            lo_vals.append(v)
            hi_vals.append(v)
    return min(lo_vals), max(hi_vals)


def contract_bounds(d: Contract) -> tuple[float, float]:
    """Exact (inf, sup) of the payoff; unbounded pieces yield +-inf."""
    if d.values is not None:
        return float(np.min(d.values)), float(np.max(d.values))
    lo, hi = INF, -INF
    T = d.transform
    for p in d.pieces:
        ta = T(p.lo) if math.isfinite(p.lo) else T.lo_limit()
        tb = T(p.hi) if math.isfinite(p.hi) else T.hi_limit()
        plo, phi = _poly_extremes(p.coeffs, ta, tb)
        lo = min(lo, plo)
        hi = max(hi, phi)
    return lo, hi


def combine(contracts: Sequence[Contract], weights: Sequence[float]) -> Contract:
    """Pointwise weighted sum; piece lists merge on the union of breakpoints.

    Each cell [lo, hi) of the union sums, operand by operand, the weighted
    coefficients of the piece holding lo (piece 0 on the first cell), which
    holds the whole cell.  Lower ends ascend, so each operand's piece is
    found by a walk that only moves forward: the cost is cells times
    operands.  A sum that overflows raises ``PayoffOverflow``.
    """
    if len(contracts) != len(weights) or not contracts:
        raise ValueError("need matching nonempty contract/weight lists")
    first = contracts[0]
    if first.values is not None:
        if any(c.values is None or c.space.labels != first.space.labels
               for c in contracts):
            raise OutcomeMismatch("contracts live over different outcome spaces")
        # Python floats round as numpy's do, and a sum that overflows is inf
        # or nan without numpy's warning, which finite_contract rejects
        total = [0.0] * first.space.n
        for c, w in zip(contracts, weights):
            w = float(w)
            total = [t + w * v for t, v in zip(total, c.values.tolist())]
        return finite_contract(first.space, total)

    key = first.transform.key()
    if any(c.pieces is None or c.transform.key() != key for c in contracts):
        raise OutcomeMismatch("contracts use different outcome coordinates")
    cuts = sorted({b for c in contracts for b in c.breakpoints()})
    edges = [-INF] + cuts + [INF]
    # per operand: where its later pieces start, each piece's weighted
    # coefficients, and the index of the piece holding the current cell
    walks = []
    for c, w in zip(contracts, weights):
        w = float(w)
        walks.append([[p.lo for p in c.pieces[1:]],
                      [(w * c0, w * c1, w * c2)
                       for c0, c1, c2 in (p.coeffs for p in c.pieces)],
                      0])
    cells = []
    for lo in edges[:-1]:
        # running sums acc and largest magnitudes mag, one per coefficient
        acc0 = acc1 = acc2 = mag0 = mag1 = mag2 = 0.0
        for walk in walks:
            starts, terms, i = walk
            # the piece holding lo is the last one starting at or below it
            while i < len(starts) and starts[i] <= lo:
                i += 1
            walk[2] = i
            t0, t1, t2 = terms[i]
            acc0 += t0
            acc1 += t1
            acc2 += t2
            t0, t1, t2 = abs(t0), abs(t1), abs(t2)
            if t0 > mag0:
                mag0 = t0
            if t1 > mag1:
                mag1 = t1
            if t2 > mag2:
                mag2 = t2
        # an overflowed sum is inf or nan, and x * 0.0 is 0.0 only for a
        # finite x
        if acc0 * 0.0 + acc1 * 0.0 + acc2 * 0.0 != 0.0:
            raise PayoffOverflow("payoffs must be finite")
        # snap cancellation residue: sums below 1e-12 of the largest term
        # are float noise from exact algebraic cancellations
        if acc0 != 0.0 and abs(acc0) <= STRUCT_TOL * mag0:
            acc0 = 0.0
        if acc1 != 0.0 and abs(acc1) <= STRUCT_TOL * mag1:
            acc1 = 0.0
        if acc2 != 0.0 and abs(acc2) <= STRUCT_TOL * mag2:
            acc2 = 0.0
        cells.append((acc0, acc1, acc2))
    return piecewise_contract(merge_runs(edges, cells), first.transform)


def merge_runs(edges: list, cells: list) -> list[Piece]:
    """The pieces of cells [edges[x], edges[x + 1]) paying the coefficients
    ``cells[x]``, a run of equal coefficients compacted into one piece that
    pays the run's last."""
    pieces = []
    lo = edges[0]
    for hi, c, after in zip(edges[1:], cells, cells[1:]):
        if c != after:
            pieces.append(Piece(lo, hi, c))
            lo = hi
    pieces.append(Piece(lo, edges[-1], cells[-1]))
    return pieces


def stack_pieces(rows) -> tuple:
    """Piecewise payoffs ``(ends, coeffs)`` stacked: ends (R, P - 1) padded
    with +inf, coefficients (R, P, 3) padded with zeros."""
    P = max(len(c) for _, c in rows)
    ends = [tuple(e) + (INF,) * (P - 1 - len(e)) for e, _ in rows]
    coeffs = [tuple(c) + ((0.0, 0.0, 0.0),) * (P - len(c)) for _, c in rows]
    return (np.array(ends, dtype=float).reshape(len(rows), P - 1),
            np.array(coeffs, dtype=float))


def contract_pieces(contracts: Sequence[Contract]) -> tuple:
    """``stack_pieces`` of piecewise contracts in one coordinate."""
    if any(c.pieces is None or c.transform.key() != contracts[0].transform.key()
           for c in contracts):
        raise OutcomeMismatch("contracts need pieces in one outcome coordinate")
    return stack_pieces([(c.breakpoints(), [p.coeffs for p in c.pieces])
                         for c in contracts])


def lay_pieces(tables, transform: Transform) -> tuple:
    """Lay row r of K piece tables (one row serves all) on its breakpoints:
    ``(cuts, t_ends, terms)``, where cell x runs between the x-th and
    (x + 1)-th of -inf, ``cuts[r]`` and +inf, whose coordinates ``t_ends[r]``
    holds, and ``terms[k][r, x]`` is table k's piece there; ``cuts`` and a
    sum of the terms form a piece table.  A breakpoint that tables share, or
    a +inf that pads one, starts an empty cell that joins the next cell."""
    R = max(len(ends) for ends, _ in tables)
    edges = [np.full((R, 1), -INF)]
    edges += [np.broadcast_to(ends, (R, ends.shape[1])) for ends, _ in tables]
    edges = np.sort(np.concatenate(edges + [np.full((R, 1), INF)], axis=1), axis=1)
    # the distinct edges, from -inf to +inf, and their coordinates
    knots = np.sort(edges, axis=None)
    knots = knots[np.append(True, knots[1:] != knots[:-1])]
    t_knots = np.array([transform.lo_limit()]
                       + [transform(v) for v in knots[1:-1].tolist()]
                       + [transform.hi_limit()])
    t_ends = t_knots[np.searchsorted(knots, edges)]
    lows = edges[:, :-1]
    terms = []
    for ends, coeffs in tables:
        # the last piece starting at or below the cell; padding starts none
        at = ((ends[:, None, :] <= lows[:, :, None])
              & np.isfinite(ends)[:, None, :]).sum(axis=2)
        terms.append(np.broadcast_to(coeffs, (R,) + coeffs.shape[1:])[
            np.arange(R)[:, None], at])
    return edges[:, 1:-1], t_ends, terms


def cell_sums(terms, weights, snap: bool = True) -> np.ndarray:
    """``combine``'s sum of the weighted terms, entry by entry: 0.0 plus each
    term in turn, and with ``snap`` 0.0 for a sum within STRUCT_TOL of its
    largest term.  An overflow stays inf or nan, where ``combine`` raises
    ``PayoffOverflow``; callers read which rows are finite."""
    acc = mag = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for x, w in zip(terms, weights):
            term = x if w == 1.0 else w * x  # 1.0 * x is x, to the bit
            acc = acc + term
            if snap:
                mag = np.maximum(mag, np.abs(term))
    if not snap:
        return acc
    return np.where((acc != 0.0) & (np.abs(acc) <= STRUCT_TOL * mag)
                    & np.isfinite(mag), 0.0, acc)


def cell_extremes(t_ends: np.ndarray, acc: np.ndarray) -> tuple:
    """Per cell of laid rows, the infimum and supremum of the piece
    ``combine`` compacts it into, a run of identical cells, with
    ``_poly_extremes``' extremes over the run's coordinates."""
    change = (acc[:, 1:] != acc[:, :-1]).any(axis=2)
    first = np.pad(change, ((0, 0), (1, 0)), constant_values=True)
    last = np.pad(change, ((0, 0), (0, 1)), constant_values=True)
    cells = np.arange(acc.shape[1])
    ta = np.take_along_axis(
        t_ends, np.maximum.accumulate(np.where(first, cells, 0), axis=1), axis=1)
    tb = np.take_along_axis(t_ends, np.minimum.accumulate(
        np.where(last, cells, cells[-1])[:, ::-1], axis=1)[:, ::-1] + 1, axis=1)
    c0, c1, c2 = acc[..., 0], acc[..., 1], acc[..., 2]

    def poly(t):
        return c0 + t * (c1 + t * c2)

    def limit(slope):
        return np.where(c2 != 0.0, np.where(c2 > 0, INF, -INF),
                        np.where(c1 != 0.0, np.where(slope > 0, INF, -INF), c0))

    with np.errstate(all="ignore"):
        lo_end = np.where(np.isinf(ta), limit(-c1), poly(ta))
        hi_end = np.where(np.isinf(tb), limit(c1), poly(tb))
        tv = -c1 / (2.0 * c2)
        # a vertex inside the piece, or beyond the largest float on an
        # unbounded side; nan, which fmin and fmax pass over, where none is
        vertex = np.where(
            (c2 != 0.0) & (ta < tv) & (tv < tb), poly(tv),
            np.where((c2 != 0.0) & np.isinf(tv) & ((tv == ta) | (tv == tb)),
                     c0 - c1 * c1 / (4.0 * c2), np.nan))
    return (np.fmin(np.minimum(lo_end, hi_end), vertex),
            np.fmax(np.maximum(lo_end, hi_end), vertex))


class Rows:
    """Summed rows read as payoffs: per cell (per outcome over a finite
    space) the infimum and sup of the piece ``combine`` compacts it into
    (``bounds``, found when first read), and whether each row is
    ``finite``.  A flat row pays its level: a vector's mean, a contract's
    first constant term."""

    def __init__(self, net: np.ndarray, t_ends: np.ndarray | None = None):
        self.net, self.t_ends = net, t_ends
        self.finite = np.isfinite(net.reshape(len(net), -1)).all(axis=1)

    @cached_property
    def bounds(self) -> tuple:
        if self.t_ends is None:
            return self.net, self.net
        return cell_extremes(self.t_ends, self.net)

    def inf(self) -> np.ndarray:
        return self.bounds[0].min(axis=1)

    def sup(self) -> np.ndarray:
        return self.bounds[1].max(axis=1)

    def cash(self) -> np.ndarray:
        """The level where ``contract_is_constant`` finds a row flat, or -inf."""
        lo, hi = self.bounds
        level = self.net.mean(axis=1) if self.t_ends is None else self.net[:, 0, 0]
        dev = np.maximum(np.abs(lo - level[:, None]), np.abs(hi - level[:, None]))
        return np.where(dev.max(axis=1) <= FLAT_TOL, level, -INF)


def sum_rows(legs, transform: Transform | None = None) -> tuple:
    """The row-by-row sum of weighted stacks: the summed stack and its
    ``Rows``.  A stack is ``(values,)``, payoff rows over a finite outcome
    space (``transform`` None), or a piece table ``(ends, coeffs)`` in the
    coordinate ``transform``; a stack of one row serves all rows.  Each leg
    ``(stacks, weights)`` sums its weighted stacks, then the legs' sums are
    summed, each in ``combine``'s floats (``cell_sums``, snapped on the real
    line, where each row's stacks are laid on its own breakpoints)."""
    stacks = [stack for leg, _ in legs for stack in leg]
    if transform is None:
        terms = [values for values, in stacks]
    else:
        cuts, t_ends, terms = lay_pieces(stacks, transform)
    terms = iter(terms)
    snap = transform is not None
    sums = [cell_sums([next(terms) for _ in leg], weights, snap) for leg, weights in legs]
    # the sum of one leg, 0.0 + x, is x to the bit: a sum from 0.0 is never -0.0
    net = sums[0] if len(sums) == 1 else cell_sums(sums, (1.0,) * len(sums), snap)
    if transform is None:
        return (net,), Rows(net)
    return (cuts, net), Rows(net, t_ends)


def project_cashless(d: Contract) -> tuple[Contract, float]:
    """Split d = d0 + cash * ones with d0 orthogonal to the all-ones contract."""
    if d.values is None:
        raise OutcomeMismatch("cashless projection is defined on finite spaces")
    cash = float(np.mean(d.values))
    d0 = finite_contract(d.space, d.values - cash)
    return d0, cash


def contract_is_constant(d: Contract, tol: float = FLAT_TOL) -> tuple[bool, float]:
    """Whether the payoff is constant within tol; returns (flag, level)."""
    if d.values is not None:
        lvl = float(np.mean(d.values))
        return bool(np.max(np.abs(d.values - lvl)) <= tol), lvl
    lvl = d.pieces[0].coeffs[0]
    lo, hi = contract_bounds(d)
    return abs(lo - lvl) <= tol and abs(hi - lvl) <= tol, lvl


def contract_argmin(d: Contract) -> tuple[object, float, bool]:
    """An outcome (nearly) attaining the infimum: (y, value, attained).

    For unbounded-below contracts returns a deep probe outcome with
    attained=False.
    """
    if d.values is not None:
        i = int(np.argmin(d.values))
        return d.space.labels[i], float(d.values[i]), True
    lo, _ = contract_bounds(d)
    if lo == -INF:
        # walk a probe outward until the payoff is very negative
        y = -1.0
        for _ in range(60):
            if d(y) < -1e12 or d(-y) < -1e12:
                break
            y *= 4.0
        probe = y if d(y) <= d(-y) else -y
        return probe, d(probe), False
    T = d.transform
    best = (None, INF)
    for p in d.pieces:
        cands = []
        if math.isfinite(p.lo):
            cands.append(p.lo)
        if math.isfinite(p.hi):
            cands.append(p.hi)
        if math.isfinite(p.lo) and math.isfinite(p.hi):
            cands.append(0.5 * (p.lo + p.hi))
        if not math.isfinite(p.lo):
            cands.append((p.hi if math.isfinite(p.hi) else 0.0) - 50.0)
        if not math.isfinite(p.hi):
            cands.append((p.lo if math.isfinite(p.lo) else 0.0) + 50.0)
        c0, c1, c2 = p.coeffs
        if c2 != 0.0:
            tv = -c1 / (2.0 * c2)
            ta = T(p.lo) if math.isfinite(p.lo) else T.lo_limit()
            tb = T(p.hi) if math.isfinite(p.hi) else T.hi_limit()
            if ta < tv < tb:
                cands.append(T.inverse(tv))
        for y in cands:
            v = p.poly(T(y))
            if v < best[1]:
                best = (y, v)
    attained = abs(best[1] - lo) <= ATTAIN_TOL * (1.0 + abs(lo))
    return best[0], best[1], attained


# ---------------------------------------------------------------------------
# beliefs


@dataclass(frozen=True, eq=False)
class Belief:
    """Finite pmf, or a continuous piecewise-linear CDF on the real line."""

    space: OutcomeSpace
    pmf: np.ndarray | None = None
    xs: np.ndarray | None = None
    fs: np.ndarray | None = None
    # moment tables by transform key, built on first use
    _moments: dict = field(default_factory=dict, repr=False)

    @property
    def is_finite(self) -> bool:
        return self.pmf is not None

    def moments(self, transform: Transform) -> "MomentTable":
        """The belief's moment table in the transform's coordinate."""
        key = transform.key()
        tab = self._moments.get(key)
        if tab is None:
            if self.xs is None:
                raise OutcomeMismatch("belief kind must match the outcome space")
            tab = self._moments[key] = MomentTable(self, transform)
        return tab

    def cdf(self, y: float) -> float:
        x, f = self.xs, self.fs
        if y <= x[0]:
            return 0.0
        if y >= x[-1]:
            return 1.0
        return float(np.interp(y, x, f))

    def quantile(self, alpha: float) -> float:
        """The unique x with CDF(x) = alpha (CDF strictly increasing on support)."""
        if not 0.0 < alpha < 1.0:
            raise ValueError("quantile level must lie in (0, 1)")
        return float(np.interp(alpha, self.fs, self.xs))

    def support(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])

    def mean(self) -> float:
        return expected_pieces((), ((0.0, 1.0, 0.0),), self, IDENTITY)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.uniform(0.0, 1.0, size)
        return np.interp(u, self.fs, self.xs)

    def to_dict(self) -> dict:
        if self.pmf is not None:
            return {"pmf": [float(p) for p in self.pmf]}
        return {"cdf": {"x": [float(v) for v in self.xs],
                        "F": [float(v) for v in self.fs]}}


def finite_belief(space: OutcomeSpace, pmf) -> Belief:
    if not space.is_finite:
        raise OutcomeMismatch("pmf beliefs need finite outcome spaces")
    arr = np.asarray(pmf, dtype=float)
    if arr.shape != (space.n,):
        raise ValueError(f"expected {space.n} probabilities")
    if not np.isfinite(arr).all():
        raise ValueError("probabilities must be finite")
    if np.any(arr < -STRUCT_TOL):
        raise ValueError("probabilities must be nonnegative")
    if abs(float(np.sum(arr)) - 1.0) > 1e-12:
        raise ValueError("probabilities must sum to 1 within 1e-12")
    arr = np.clip(arr, 0.0, None)
    arr.flags.writeable = False
    return Belief(space=space, pmf=arr)


def cdf_belief(xs, fs) -> Belief:
    """Continuous piecewise-linear CDF: starts at 0, ends at 1, strictly
    increasing on its support (hence no point masses)."""
    x = np.asarray(xs, dtype=float)
    f = np.asarray(fs, dtype=float)
    if x.ndim != 1 or x.shape != f.shape or len(x) < 2:
        raise ValueError("need matching breakpoint arrays of length >= 2")
    if not (np.isfinite(x).all() and np.isfinite(f).all()):
        raise ValueError("CDF breakpoints and values must be finite")
    if np.any(np.diff(x) <= 0):
        raise ValueError("CDF breakpoints must be strictly increasing")
    if abs(f[0]) > STRUCT_TOL or abs(f[-1] - 1.0) > STRUCT_TOL:
        raise ValueError("CDF must start at 0 and end at 1")
    if np.any(np.diff(f) <= 0):
        raise ValueError("CDF must be strictly increasing on its support")
    with np.errstate(over="ignore"):
        if not np.isfinite(np.diff(f) / np.diff(x)).all():
            raise ValueError("CDF density overflows between breakpoints")
    x.flags.writeable = False
    f.flags.writeable = False
    return Belief(space=REAL_LINE, xs=x, fs=f)


def uniform_belief(a: float, b: float) -> Belief:
    return cdf_belief([a, b], [0.0, 1.0])


class MomentTable:
    """Cumulative moments M(y) = (F(y), int s dF, int s^2 dF) up to y of a
    piecewise-linear CDF F, in the coordinate s = t - shift.

    The cells run between the belief's knots and the transform's kinks
    inside the support, and each holds the density of the belief cell it
    lies in.  An affine transform is re-centred at the belief's mean of t,
    and a cell's moments up to y are polynomials of the offset h = y - a
    from its lower end a, with s(a) and the slope stored per cell; the
    sigmoid keeps shift 0 and differences its antiderivatives.  ``at``
    reads one point in plain floats, ``at_array`` an array of points, by
    the same operations, so the two agree to the bit.
    """

    def __init__(self, p: Belief, T: Transform):
        lo, hi = p.support()
        knots = sorted(set(p.xs.tolist()).union(
            k for k in T.kinks() if lo < k < hi))
        # the CDF is exactly 0 and 1 at the ends of the support, which the
        # stored values meet only within STRUCT_TOL
        f = np.array(p.fs)
        f[0], f[-1] = 0.0, 1.0
        dens = np.diff(f) / np.diff(p.xs)
        cell = np.searchsorted(p.xs, knots[:-1], side="right") - 1
        self.transform = T
        self.knots = knots
        self.dens = dens[cell].tolist()
        self.affine = T.affine
        if T.affine:
            self.slopes = [T.slope(a) for a in knots[:-1]]
            # centred at t(x0) first, then at the mean of t where it is
            # finite: there the terms of an expectation, and so its
            # rounding, are smallest
            self._accumulate(T(knots[0]))
            mean = self.shift + self.total[1]
            if math.isfinite(mean):
                self._accumulate(mean)
        else:
            self.anti = [T.antiderivatives(a) for a in knots]
            self._accumulate(0.0)
        # the same lists as arrays, for at_array; _local holds s(a) and the
        # slope per cell, or the antiderivatives per knot
        self._knots, self._dens, self._cum = (
            np.array(v, dtype=float) for v in (knots, self.dens, self.cum))
        self._local = np.array(list(zip(self.s_lo, self.slopes)) if T.affine
                               else self.anti, dtype=float)

    def _accumulate(self, shift: float) -> None:
        self.shift = shift
        if self.affine:
            self.s_lo = [self.transform(a) - shift for a in self.knots[:-1]]
        self.cum = [(0.0, 0.0, 0.0)]
        for j, b in enumerate(self.knots[1:]):
            self.cum.append(self._within(j, b))
        self.total = self.cum[-1]

    def _within(self, j: int, y: float) -> tuple:
        """M(y) for y in cell j."""
        m0, m1, m2 = self.cum[j]
        h = y - self.knots[j]
        w = self.dens[j]
        if self.affine:
            sa = self.s_lo[j]
            mh = self.slopes[j] * h
            return (m0 + w * h, m1 + w * (h * (sa + 0.5 * mh)),
                    m2 + w * (h * (sa * sa + mh * (sa + mh / 3.0))))
        a1, a2 = self.transform.antiderivatives(y)
        b1, b2 = self.anti[j]
        return m0 + w * h, m1 + w * (a1 - b1), m2 + w * (a2 - b2)

    def at(self, y: float) -> tuple:
        """M(y): zero below the support, the total above it."""
        knots = self.knots
        if y <= knots[0]:
            return 0.0, 0.0, 0.0
        if y >= knots[-1]:
            return self.total
        return self._within(bisect_right(knots, y) - 1, y)

    def at_array(self, y: np.ndarray) -> np.ndarray:
        """M at every entry of y, stacked on a last axis of 3."""
        knots = self._knots
        j = np.clip(np.searchsorted(knots, y, side="right") - 1, 0, len(knots) - 2)
        cum = self._cum[j]
        h = y - knots[j]
        w = self._dens[j]
        local = self._local[j]
        if self.affine:
            sa = local[..., 0]
            mh = local[..., 1] * h
            parts = (h, h * (sa + 0.5 * mh), h * (sa * sa + mh * (sa + mh / 3.0)))
        else:
            # the float reader's antiderivatives, point by point: a narrow
            # cell differences them, where another rounding would show
            anti = np.array([self.transform.antiderivatives(v) for v in y.ravel().tolist()])
            anti = anti.reshape(y.shape + (2,)) - local
            parts = (h, anti[..., 0], anti[..., 1])
        out = np.stack([cum[..., k] + w * parts[k] for k in range(3)], axis=-1)
        out = np.where((y <= knots[0])[..., None], 0.0, out)
        return np.where((y >= knots[-1])[..., None], self._cum[-1], out)


def _shifted(c0, c1, c2, t0):
    """Coefficients of c0 + c1 t + c2 t^2 in s = t - t0; floats or arrays."""
    return c0 + t0 * (c1 + c2 * t0), c1 + 2.0 * c2 * t0, c2


def expected_pieces(ends: Sequence[float], coeffs: Sequence, p: Belief,
                    transform: Transform) -> float:
    """E_p of the piecewise payoff whose P pieces carry ``coeffs`` (each
    (c0, c1, c2) in the coordinate t = transform(y)) and break at the P - 1
    ascending ``ends``: the float reader of the belief's moment table.

    Each piece pays c . (M(hi) - M(lo)) in the table's coordinate, a piece
    between two points of one cell included, so no point inside a piece is
    computed; a zero coefficient adds nothing, whatever its moment.
    """
    tab = p.moments(transform)
    t0 = tab.shift
    prev = (0.0, 0.0, 0.0)
    total = 0.0
    for j, (c0, c1, c2) in enumerate(coeffs):
        cur = tab.at(ends[j]) if j < len(ends) else tab.total
        if t0 != 0.0:
            c0, c1, c2 = _shifted(c0, c1, c2, t0)
        if c0 != 0.0:
            total += c0 * (cur[0] - prev[0])
        if c1 != 0.0:
            total += c1 * (cur[1] - prev[1])
        if c2 != 0.0:
            total += c2 * (cur[2] - prev[2])
        prev = cur
    return float(total)


def expected_scores(ends: np.ndarray, coeffs: np.ndarray, p: Belief,
                    transform: Transform) -> np.ndarray:
    """``expected_pieces`` of R payoffs at once, the array reader of the same
    table: ``ends`` has shape (R, P - 1) and ``coeffs`` (R, P, 3).  A row
    with fewer pieces pads its ends with +inf and its coefficients with 0.
    Each row takes the float reader's operations in its order."""
    tab = p.moments(transform)
    t0 = tab.shift
    R, P, _ = coeffs.shape
    with np.errstate(all="ignore"):
        moments = tab.at_array(np.asarray(ends, dtype=float))
        c = coeffs if t0 == 0.0 else np.stack(
            _shifted(coeffs[..., 0], coeffs[..., 1], coeffs[..., 2], t0), axis=-1)
        prev = np.zeros((R, 3))
        total = np.zeros(R)
        for j in range(P):
            cur = moments[:, j] if j < P - 1 else np.array(tab.total)
            for k in range(3):
                ck = c[:, j, k]
                total = total + np.where(ck != 0.0, ck * (cur[..., k] - prev[..., k]), 0.0)
            prev = cur
    return total


def expected_payoff(d: Contract, p: Belief) -> float:
    """E_p d(Y), exact for the supported representations: a dot product with
    the pmf over a finite space, ``expected_pieces`` on the real line."""
    if d.values is not None:
        if p.pmf is None or p.space.labels != d.space.labels:
            raise OutcomeMismatch("belief kind must match the outcome space")
        return float(np.dot(d.values, p.pmf))
    return expected_pieces(d.breakpoints(), [pc.coeffs for pc in d.pieces],
                           p, d.transform)
