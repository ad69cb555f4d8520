"""Outcome spaces, payoff contracts, and beliefs.

Payoffs over a finite outcome space are plain vectors.  Payoffs over the
real line are piecewise polynomials of degree <= 2 in a strictly
increasing coordinate t = transform(y), in one format: a piece table,
which a ``Contract`` holds as one row and the row layer stacks.
Restricting to this class keeps payoff bounds and expectations against
piecewise-linear CDFs exact: every piece is analyzed at its endpoints and
vertex, and every integral has a closed form.  A belief keeps, per
transform, one moment table: the cumulative integrals of 1, s and s^2 dF
at its knots, with s = t re-centred at the belief's mean of t where t is
the identity.  A piece's expectation
is its coefficients dotted with the difference of the table read at its
ends, read in plain floats by ``MomentTable.expectation``, the one reader
of a payoff and of each row of a stack (``ScoringRule.stack_scores``).

Tolerance policy: structural identities (telescoping, projection, a BTB
state at its target) are held to STRUCT_TOL, and a lattice basis whose
determinant is below it is singular; a lifted hull facet whose normal's
cost component is within it of 0 is vertical.  Expected scores within
TIE_TOL of the best tie, and the smallest tied report is picked (best
responses over finite reports, the finite properties).  The searches of
``convex`` bracket a finite domain inset by BRACKET_PAD of its span and an
infinite one by doubling out to BRACKET_LIMIT, and a closed-form gradient
inverse is attained within the same box; a best response searches the
report box, and cost extraction's window lies in it, inset by BRACKET_PAD
of its span too (``inset``, its one reader).  A bisection that does not run
to adjacent floats stops at a bracket SEARCH_XTOL wide, and a best-response
search (Brent's method) once its best probe is within 2 SEARCH_XTOL / 3
plus a few ulps of both bracket ends; a search of one coordinate at a time
cycles until a cycle moves no coordinate by more than SEARCH_XTOL or no
longer raises the objective, for at most SEARCH_CYCLES cycles.  A gradient
inversion in more than one dimension stops once its residual is within
OPT_TOL and accepts its point within RESIDUAL_ACCEPT; openness counts a
price target as reached, and cost extraction a translate as in the score
range and its shares and costs as fitted, within RESIDUAL_ACCEPT (of their
scale) too.  A bundle lies on a share lattice, and a vector in a subgroup
sample, when it is within MEMBER_TOL of a member, and a sampled direction
within MEMBER_TOL of zero is zero; securities are affinely independent at
that rank tolerance, and cost extraction takes a difference vector as a new
security when it leaves the span of the earlier ones by more than
MEMBER_TOL of the largest difference.  A contract is cash when its payoff
is constant within FLAT_TOL.  A grid verdict fails only past VERDICT_TOL
(an IC argmax beyond a grid step of the property, a WCL grid sup above the
closed-form bound), and a replayed witness reproduces when every number it
recomputes is within VERDICT_TOL of the stored one (relative above 1).
Each constant names the test that fails once it moves 100-fold.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real
from typing import Iterable, Sequence

import numpy as np

STRUCT_TOL = 1e-12  # pinned: tests/test_tolerances.py::test_struct_tol
OPT_TOL = 1e-8  # pinned: tests/test_tolerances.py::test_opt_tol
TIE_TOL = 1e-12  # pinned: tests/test_tolerances.py::test_tie_tol
SEARCH_XTOL = 1e-10  # pinned: tests/test_tolerances.py::test_search_xtol
SEARCH_CYCLES = 200  # pinned: tests/test_costmarket.py::TestBestResponse::test_two_securities_full_space
BRACKET_PAD = 1e-13  # pinned: tests/test_cli.py::TestSessionCommand::test_ratio_session_bytes
BRACKET_LIMIT = 2.0 ** 200  # pinned: tests/test_scoring_fast_paths.py::test_expectation_invert_share_equals_old_loop
RESIDUAL_ACCEPT = 1e-6  # pinned: tests/test_tolerances.py::test_residual_accept
MEMBER_TOL = 1e-9  # pinned: tests/test_tolerances.py::test_member_tol
FLAT_TOL = 1e-9  # pinned: tests/test_tolerances.py::test_flat_tol
VERDICT_TOL = 1e-9  # pinned: tests/test_tolerances.py::test_verdict_tol

INF = math.inf


def inset(lo, hi) -> tuple:
    """The interval [lo, hi] inset at each end by BRACKET_PAD of its span,
    of numbers or, per coordinate, of arrays."""
    pad = BRACKET_PAD * (hi - lo)
    return lo + pad, hi - pad


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
            # a number past the float range is no outcome
            try:
                return isinstance(y, Real) and math.isfinite(y)
            except OverflowError:
                return False
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

    # affine: a moment table re-centres t on the belief and integrates its
    # powers as polynomials of the offset within a cell
    affine = True

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


# ---------------------------------------------------------------------------
# contracts


@dataclass(frozen=True, eq=False)
class Contract:
    """Outcome-contingent payoff: a vector over a finite space, or on the
    real line a piece table: P - 1 finite, strictly ascending ``ends`` and P
    ``pieces`` (c0, c1, c2), piece j paying c0 + c1 t + c2 t^2, t =
    transform(y), on [ends[j - 1], ends[j]), with -inf and +inf outermost."""

    space: OutcomeSpace
    values: np.ndarray | None = None
    ends: tuple | None = None
    pieces: tuple | None = None
    transform: Transform | None = None

    def __call__(self, y) -> float:
        if self.values is not None:
            return float(self.values[self.space.index(y)])
        c0, c1, c2 = self.pieces[bisect_right(self.ends, y)]
        t = self.transform(y)
        return c0 + t * (c1 + t * c2)

    def to_dict(self) -> dict:
        if self.values is not None:
            return {"kind": "finite", "labels": list(self.space.labels),
                    "payoffs": [float(v) for v in self.values]}
        return {
            "kind": "piecewise",
            "transform": list(self.transform.key()),
            "pieces": [{"lo": lo, "hi": hi, "coeffs": list(c)} for lo, hi, c
                       in zip((-INF, *self.ends), (*self.ends, INF), self.pieces)],
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


def piecewise_contract(ends: Iterable[float], pieces: Iterable,
                       transform: Transform = IDENTITY) -> Contract:
    """The real-line contract of a piece table from outside, checked (see
    ``Contract``); coefficients may be infinite, whose sums ``combine`` refuses."""
    ends = tuple(ends)
    pieces = tuple(map(tuple, pieces))
    if not all(map(math.isfinite, ends)):
        raise ValueError("piece ends must be finite")
    if any(b <= a for a, b in zip(ends, ends[1:])):
        raise ValueError("piece ends must be strictly ascending")
    if len(pieces) != len(ends) + 1:
        raise ValueError("need one piece more than piece ends")
    if any(len(c) != 3 or not all(isinstance(v, Real) for v in c) for c in pieces):
        raise ValueError("pieces carry exactly 3 real polynomial coefficients")
    return Contract(space=REAL_LINE, ends=ends, pieces=pieces, transform=transform)


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
    t = [T.lo_limit(), *map(T, d.ends), T.hi_limit()]
    for ta, tb, coeffs in zip(t, t[1:], d.pieces):
        plo, phi = _poly_extremes(coeffs, ta, tb)
        lo = min(lo, plo)
        hi = max(hi, phi)
    return lo, hi


def combine(contracts: Sequence[Contract], weights: Sequence[float]) -> Contract:
    """Pointwise weighted sum; piece tables merge on the union of their ends.

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
    cuts = sorted({b for c in contracts for b in c.ends})
    # per operand: where its later pieces start, each piece's weighted
    # coefficients, and the index of the piece holding the current cell
    walks = []
    for c, w in zip(contracts, weights):
        w = float(w)
        walks.append([c.ends, [(w * c0, w * c1, w * c2) for c0, c1, c2 in c.pieces], 0])
    cells = []
    for lo in [-INF] + cuts:
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
    ends, pieces = merge_runs(cuts, cells)
    return Contract(space=REAL_LINE, ends=ends, pieces=pieces,
                    transform=first.transform)


def merge_runs(cuts: list, cells: list) -> tuple:
    """The piece table ``(ends, pieces)`` of the cells between -inf, the
    ascending ``cuts`` and +inf, cell x paying the coefficients ``cells[x]``:
    a run of equal coefficients is compacted into one piece that pays the
    run's last."""
    ends, pieces = [], []
    for end, c, after in zip(cuts, cells, cells[1:]):
        if c != after:
            ends.append(end)
            pieces.append(c)
    pieces.append(cells[-1])
    return tuple(ends), tuple(pieces)


def row_contracts(space: OutcomeSpace, stack: tuple, transform) -> Iterable:
    """Each row of a ``sum_rows`` stack as a contract, in turn: its payoffs
    (``transform`` None), or its cells compacted as ``combine`` compacts them."""
    if transform is None:
        return map(Contract, [space] * len(stack[0]), stack[0])
    cuts, net = stack
    return (Contract(REAL_LINE, None, *merge_runs(row, [*map(tuple, cells)]), transform)
            for row, cells in zip(cuts.tolist(), net.tolist()))


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
    return stack_pieces([(c.ends, c.pieces) for c in contracts])


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
    edge = np.ones((len(acc), 1), dtype=bool)
    first = np.concatenate([edge, change], axis=1)
    last = np.concatenate([change, edge], axis=1)
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


def trade_leg(stack: tuple, new, old) -> tuple:
    """The ``sum_rows`` leg S_new - S_old of a score stack: row k trades
    from the stack's row ``old[k]`` to its row ``new[k]``, each side a slice
    or an index array of rows; a side of one row serves all rows."""
    def rows(at) -> tuple:
        # np.take gathers rows in a fraction of fancy indexing's time
        return tuple(a[at] if isinstance(at, slice) else np.take(a, at, axis=0)
                     for a in stack)
    return (rows(new), rows(old)), (1.0, -1.0)


def project_cashless(d: Contract) -> tuple[Contract, float]:
    """Split d = d0 + cash * ones with d0 orthogonal to the all-ones contract."""
    if d.values is None:
        raise OutcomeMismatch("cashless projection is defined on finite spaces")
    cash = float(np.mean(d.values))
    d0 = finite_contract(d.space, d.values - cash)
    return d0, cash


def contract_is_constant(d: Contract) -> tuple[bool, float]:
    """Whether the payoff is constant within FLAT_TOL; returns (flag, level)."""
    if d.values is not None:
        lvl = float(np.mean(d.values))
        return bool(np.max(np.abs(d.values - lvl)) <= FLAT_TOL), lvl
    lvl = d.pieces[0][0]
    lo, hi = contract_bounds(d)
    return abs(lo - lvl) <= FLAT_TOL and abs(hi - lvl) <= FLAT_TOL, lvl


def contract_argmin(d: Contract) -> tuple[object, float]:
    """An outcome (nearly) attaining the infimum: (y, value); a deep probe
    outcome for a contract unbounded below."""
    if d.values is not None:
        i = int(np.argmin(d.values))
        return d.space.labels[i], float(d.values[i])
    lo, _ = contract_bounds(d)
    if lo == -INF:
        # walk a probe outward until the payoff is very negative
        y = -1.0
        for _ in range(60):
            if d(y) < -1e12 or d(-y) < -1e12:
                break
            y *= 4.0
        probe = y if d(y) <= d(-y) else -y
        return probe, d(probe)
    T = d.transform
    t = [T.lo_limit(), *map(T, d.ends), T.hi_limit()]
    best = (None, INF)
    for a, b, ta, tb, (c0, c1, c2) in zip((-INF, *d.ends), (*d.ends, INF), t, t[1:],
                                          d.pieces):
        cands = []
        if math.isfinite(a):
            cands.append(a)
        if math.isfinite(b):
            cands.append(b)
        if math.isfinite(a) and math.isfinite(b):
            cands.append(0.5 * (a + b))
        if not math.isfinite(a):
            cands.append((b if math.isfinite(b) else 0.0) - 50.0)
        if not math.isfinite(b):
            cands.append((a if math.isfinite(a) else 0.0) + 50.0)
        if c2 != 0.0:
            tv = -c1 / (2.0 * c2)
            if ta < tv < tb:
                cands.append(T.inverse(tv))
        for y in cands:
            t = T(y)
            v = c0 + t * (c1 + t * c2)
            if v < best[1]:
                best = (y, v)
    return best


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

    def moments(self, transform: Transform) -> "MomentTable":
        """The belief's moment table in the transform's coordinate."""
        key = transform.key()
        tab = self._moments.get(key)
        if tab is None:
            if self.xs is None:
                raise OutcomeMismatch("belief kind must match the outcome space")
            tab = self._moments[key] = MomentTable(self, transform)
        return tab

    @cached_property
    def pmf_list(self) -> list:
        """The pmf as a list of Python floats, which one payoff row's
        ``ordered_dot`` reads."""
        return self.pmf.tolist()

    def quantile(self, alpha: float) -> float:
        """The unique x with CDF(x) = alpha (CDF strictly increasing on support)."""
        if not 0.0 < alpha < 1.0:
            raise ValueError("quantile level must lie in (0, 1)")
        return float(np.interp(alpha, self.fs, self.xs))

    def support(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])

    def mean(self) -> float:
        return self.moments(IDENTITY).expectation((), ((0.0, 1.0, 0.0),))

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

    The cells run between the belief's knots, and each holds the belief's
    density on it.  The identity is re-centred at the belief's mean of t,
    and a cell's moments up to y are polynomials of the offset h = y - a
    from its lower end a, with s(a) stored per cell; the sigmoid keeps
    shift 0 and differences its antiderivatives.  ``at``
    reads one point, and ``expectation`` a payoff from the points at its
    pieces' ends, in plain floats: the one reader of the table.
    """

    def __init__(self, p: Belief, T: Transform):
        knots = p.xs.tolist()
        # the CDF is exactly 0 and 1 at the ends of the support, which the
        # stored values meet only within STRUCT_TOL
        f = np.array(p.fs)
        f[0], f[-1] = 0.0, 1.0
        self.transform = T
        self.knots = knots
        self.dens = (np.diff(f) / np.diff(p.xs)).tolist()
        self.affine = T.affine
        if T.affine:
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
            return (m0 + w * h, m1 + w * (h * (sa + 0.5 * h)),
                    m2 + w * (h * (sa * sa + h * (sa + h / 3.0))))
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

    def expectation(self, ends: Sequence[float], coeffs: Sequence) -> float:
        """E of the piecewise payoff whose P pieces carry ``coeffs`` (each
        (c0, c1, c2) in the coordinate t) and break at the P - 1 ascending
        ``ends``, raw or as ``stack_pieces`` pads them.  Each piece pays
        c . (M(hi) - M(lo)) in the table's coordinate, a piece between two
        points of one cell included, so no point inside a piece is computed;
        a zero coefficient adds nothing, whatever its moment."""
        t0 = self.shift
        prev = (0.0, 0.0, 0.0)
        total = 0.0
        for j, (c0, c1, c2) in enumerate(coeffs):
            cur = self.at(ends[j]) if j < len(ends) else self.total
            if t0 != 0.0:
                # the coefficients in s = t - t0
                c0, c1, c2 = c0 + t0 * (c1 + c2 * t0), c1 + 2.0 * c2 * t0, c2
            if c0 != 0.0:
                total += c0 * (cur[0] - prev[0])
            if c1 != 0.0:
                total += c1 * (cur[1] - prev[1])
            if c2 != 0.0:
                total += c2 * (cur[2] - prev[2])
            prev = cur
        return float(total)


def ordered_dot(a, b) -> float:
    """sum_j a[j] b[j] of two lists of Python floats, the products added
    in the order of j, as ``convex._dots`` adds the columns of a table: one
    payoff row and the same row of a table agree to the bit, whatever BLAS
    numpy links.  A product or sum past the largest float is inf or nan,
    without a warning."""
    total = a[0] * b[0]
    for j in range(1, len(a)):
        total += a[j] * b[j]
    return total


def expected_payoff(d: Contract, p: Belief) -> float:
    """E_p d(Y), exact for the supported representations: the payoffs times
    the pmf, summed in the order of the outcomes (``ordered_dot``), over a
    finite space, the belief's moment table on the real line."""
    if d.values is not None:
        if p.pmf is None or p.space.labels != d.space.labels:
            raise OutcomeMismatch("belief kind must match the outcome space")
        return ordered_dot(d.values.tolist(), p.pmf_list)
    return p.moments(d.transform).expectation(d.ends, d.pieces)
