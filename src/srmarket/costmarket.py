"""Cost-function market makers, share lattices, openness checks, and the
cost-extraction pipeline that rewrites a score-difference mechanism over a
finite outcome space as shares + convex cost.

A cost market is the scoring rule ``CostRule`` over share states, traded by
``engine.MarketSession`` like any other rule.  Sign convention, fixed once:
a trader pays C(q + v) - C(q) for the bundle v and receives v . phi(y), so
buying v at the state q is the trade q -> q + v, whose contract is
    v . phi(y) - (C(q + v) - C(q)).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .contracts import (
    INF,
    MEMBER_TOL,
    RESIDUAL_ACCEPT,
    SEARCH_XTOL,
    STRUCT_TOL,
    OutcomeSpace,
    inset,
    ordered_dot,
)
from .convex import (
    ConvexFn,
    FlatHull,
    _dots,
    _floats,
    _vec,
    binary_lmsr_cost,
    golden_max,
    hull_facets,
    invert_gradient,
    log_partition,
)
from .reports import FAILS, HOLDS_AT_BUDGET, AxiomReport
from .scoring import (
    BoxReports,
    FiniteReports,
    InvalidReport,
    RealReports,
    ScoringRule,
    as_report,
    payoff_table,
)


# ---------------------------------------------------------------------------
# share spaces


@dataclass(frozen=True)
class ShareSpace:
    """Full space, or the lattice {B n : n integer} for an invertible basis B.

    Lattices are additive subgroups: they contain 0 and are closed under
    negation and addition by construction.
    """

    basis: tuple | None = None

    @staticmethod
    def full() -> "ShareSpace":
        return ShareSpace(None)

    @staticmethod
    def integer_lattice(k: int = 1, scale: float = 1.0) -> "ShareSpace":
        return ShareSpace.lattice(np.eye(k) * float(scale))

    @staticmethod
    def lattice(basis) -> "ShareSpace":
        b = np.asarray(basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("lattice basis must be square")
        if abs(np.linalg.det(b)) < STRUCT_TOL:
            raise ValueError("lattice basis must be invertible")
        return ShareSpace(tuple(tuple(row) for row in b))

    @property
    def is_lattice(self) -> bool:
        return self.basis is not None

    def _b(self) -> np.ndarray:
        return np.asarray(self.basis, dtype=float)

    def contains(self, v) -> bool:
        if self.basis is None:
            return True
        n = np.linalg.solve(self._b(), _vec(v))
        return bool(np.max(np.abs(n - np.round(n))) <= MEMBER_TOL)

    def lattice_points(self, bound: int, include_zero: bool = True) -> list:
        if self.basis is None:
            raise ValueError("lattice enumeration needs a lattice share space")
        b = self._b()
        k = b.shape[0]
        pts = []
        for coeffs in product(range(-bound, bound + 1), repeat=k):
            if not include_zero and all(c == 0 for c in coeffs):
                continue
            pts.append(b @ np.asarray(coeffs, dtype=float))
        return pts


# ---------------------------------------------------------------------------
# the market as a scoring rule over share states

# best_response searches share states within this many units of zero
SEARCH_BOUND = 12


class CostRule(ScoringRule):
    """S(q, y) = q . phi(y) - C(q); reports are share states.

    With a lattice share space, trades are restricted to lattice bundles
    and validation is strict: off-lattice moves are rejected, not rounded.
    """

    family = "cost"

    # a share state is its own share: selling back the held bundles
    # neutralizes every position
    matches = frozenset({"WN", "TN", "PN"})

    def __init__(self, cost: ConvexFn, phi, outcome_space: OutcomeSpace | None = None,
                 shares: ShareSpace = ShareSpace.full(),
                 conjugate_closure_values=None):
        self.cost = cost
        self.phi, outcome_space = payoff_table(phi, outcome_space, cost.dim)
        if np.isfinite(cost.lo).any() or np.isfinite(cost.hi).any():
            raise ValueError("the cost must be defined on every share state")
        if shares.is_lattice and len(shares.basis) != cost.dim:
            raise ValueError("the share lattice needs one basis row per security")
        if conjugate_closure_values is not None and \
                len(conjugate_closure_values) != outcome_space.n:
            raise ValueError("one conjugate closure value per outcome")
        self.outcome_space = outcome_space
        self.shares = shares
        self.conjugate_closure_values = conjugate_closure_values
        self._phi_rows = self.phi.tolist()
        k = cost.dim
        self.report_space = RealReports() if k == 1 else BoxReports(
            tuple(-INF for _ in range(k)), tuple(INF for _ in range(k)))

    @property
    def k(self) -> int:
        return self.cost.dim

    def validate_trade(self, r_old, r_new) -> None:
        self.validate_report(r_new)
        if not self.shares.is_lattice:
            return
        bundle = _vec(r_new) - _vec(r_old)
        if not self.shares.contains(bundle):
            raise InvalidReport(
                f"bundle {bundle.tolist()} is not in the share space")

    def score_list(self, q) -> list:
        self.validate_report(q)
        x = _floats(q)
        c = float(self.cost.value_fn(x))
        return [ordered_dot(row, x) - c for row in self._phi_rows]

    def score_rows(self, reports: list) -> np.ndarray:
        qs = self._stack(reports)
        return _dots(qs[:, None, :], self.phi) - self.cost.values(qs)[:, None]

    def price(self, q) -> np.ndarray:
        """Instantaneous prices: the gradient (subgradient selection) of the
        cost at the share state."""
        return self.cost.grad(_vec(q))

    def property_value(self, p):
        """Share state whose prices match E_p phi (full-space markets)."""
        target = _dots(self.phi.T, p.pmf)
        q = invert_gradient(self.cost, target, SEARCH_XTOL)
        if q is None:
            raise ValueError("expected security payoff outside the price range")
        return as_report(q)

    def best_response(self, p):
        """On a lattice share space, the best lattice state: refining between
        lattice states would return a state no lattice trade reaches."""
        if not self.shares.is_lattice:
            return super().best_response(p)
        grid = [as_report(v) for v in self.shares.lattice_points(SEARCH_BOUND)]
        return grid[int(np.argmax(self.grid_scores(grid, p)))]

    def _search_bracket(self, p):
        # a pmf belief has no support: the share states a lattice search reaches
        return -SEARCH_BOUND, SEARCH_BOUND

    def _search_box(self) -> BoxReports:
        # the report space is all of R^k, which no grid covers
        return BoxReports((-SEARCH_BOUND,) * self.k, (SEARCH_BOUND,) * self.k)

    def loss_bound(self, r0) -> float | None:
        if self.conjugate_closure_values is None:
            return None
        q0 = _floats(r0)
        vals = [g - ordered_dot(q0, row)
                for g, row in zip(self.conjugate_closure_values, self._phi_rows)]
        return max(vals) + self.cost.value(q0)


def binary_lmsr_rule(shares: ShareSpace = ShareSpace.full()) -> CostRule:
    """log(1 + e^q) cost for a single security paying 1{Y = 1}."""
    return CostRule(binary_lmsr_cost(), np.array([[0.0], [1.0]]),
                    OutcomeSpace.finite((0, 1)), shares,
                    conjugate_closure_values=[0.0, 0.0])


def discretized_lmsr_rule() -> CostRule:
    return binary_lmsr_rule(ShareSpace.integer_lattice(1))


def exp_family_rule(phi, outcome_space: OutcomeSpace | None = None) -> CostRule:
    return CostRule(log_partition(phi), phi, outcome_space)


# ---------------------------------------------------------------------------
# structure checks


# budgets of the seeded structure checks
GRAD_SAMPLES = 100     # OPEN: sampled share states
INVERT_TARGETS = 9     # OPEN: interior price targets inverted
Q_SAMPLES = 40         # QUASI-OPEN on a full share space: states, directions
MAX_PAIRS = 4000       # SUBGROUP: sums tried


def check_open(rule: CostRule, rng=None) -> AxiomReport:
    """Openness: gradients stay strictly inside conv(phi) and every interior
    grid target is hit by gradient inversion within RESIDUAL_ACCEPT."""
    rng = rng or np.random.default_rng(0)
    qs = 4.0 * rng.standard_normal((GRAD_SAMPLES, rule.k))
    # every state's hull margin in one pass; the first failing state in draw
    # order is the witness, and nan margins compare as no margin at all
    xs = rule.cost.grads(qs)
    a, b = hull_facets(rule.phi)
    margins = np.min(-(np.matmul(a, xs[..., None])[..., 0] + b), axis=1)
    bad = np.flatnonzero(margins <= 0.0)
    if len(bad):
        i = int(bad[0])
        m = float(margins[i])
        return AxiomReport(
            axiom="OPEN", verdict=FAILS, margin=m,
            witness={"q": qs[i].tolist(), "gradient": xs[i].tolist(),
                     "hull_margin": m},
            budget={"grad_samples": GRAD_SAMPLES})
    min_margin = float(np.min(np.where(np.isnan(margins), INF, margins)))
    # interior targets: strict convex mixtures of the security payoffs
    misses = []
    ws = rng.uniform(0.2, 1.0, size=(INVERT_TARGETS, rule.phi.shape[0]))
    for w in ws:
        w = w / np.sum(w)
        target = w @ rule.phi
        q = invert_gradient(rule.cost, target, SEARCH_XTOL)
        gap = INF if q is None else float(
            np.max(np.abs(rule.cost.grad(q) - target)))
        if gap > RESIDUAL_ACCEPT:
            misses.append({"target": target.tolist(), "gap": gap})
    if misses:
        return AxiomReport(axiom="OPEN", verdict=FAILS, margin=-1.0,
                           witness={"unreached_targets": misses},
                           budget={"grad_samples": GRAD_SAMPLES,
                                   "invert_targets": INVERT_TARGETS})
    return AxiomReport(axiom="OPEN", verdict=HOLDS_AT_BUDGET, margin=min_margin,
                       budget={"grad_samples": GRAD_SAMPLES,
                               "invert_targets": INVERT_TARGETS})


def check_quasi_open(rule: CostRule, bound: int = 8, rng=None) -> AxiomReport:
    """x . v < max_y v . phi(y) for sampled states q, directions v in the
    share space, and the subgradient selection x of C at q."""
    rng = rng or np.random.default_rng(0)
    if rule.shares.is_lattice:
        qs = rule.shares.lattice_points(bound)
        vs = rule.shares.lattice_points(bound, include_zero=False)
    else:
        qs = 4.0 * rng.standard_normal((Q_SAMPLES, rule.k))
        vs = 2.0 * rng.standard_normal((Q_SAMPLES, rule.k))
        vs = vs[np.linalg.norm(vs, axis=1) > MEMBER_TOL]
    # margins[i, j] of the state qs[i] and the direction vs[j], in one pass
    xs = rule.cost.grads(qs)
    v_arr = np.reshape(vs, (len(vs), rule.k))
    margins = np.max(_dots(v_arr[:, None, :], rule.phi), axis=1) - xs @ v_arr.T
    bad = np.flatnonzero(margins <= 0.0)
    if len(bad):
        # the first failing pair in row-major order, as a loop over the
        # states and then the directions meets it
        i, j = divmod(int(bad[0]), len(vs))
        margin = float(margins[i, j])
        return AxiomReport(
            axiom="QUASI-OPEN", verdict=FAILS, margin=margin,
            witness={"q": np.atleast_1d(qs[i]).tolist(),
                     "v": np.atleast_1d(vs[j]).tolist(),
                     "subgradient": xs[i].tolist(), "margin": margin},
            budget={"states": len(qs), "directions": len(vs)})
    # nan margins compare as no margin at all
    min_margin = float(np.min(np.where(np.isnan(margins), INF, margins),
                              initial=INF))
    return AxiomReport(axiom="QUASI-OPEN", verdict=HOLDS_AT_BUDGET,
                       margin=min_margin,
                       budget={"states": len(qs), "directions": len(vs),
                               "bound": bound})


def price_bound_check(rule: CostRule, trials: int = 1000, rng=None) -> AxiomReport:
    """max_y v . phi(y) > C(q + v) - C(q) on seeded (q, v) trials: lattice
    states and bundles within 8 and 6 steps of zero, or normal draws of
    scale 4 and 3 on a full share space."""
    if trials < 1:
        raise ValueError("PRICE-BOUND needs at least one trial")
    rng = rng or np.random.default_rng(0)
    k = rule.k
    if rule.shares.is_lattice:
        # each trial's state and bundle coefficients, within 8 and 6 of zero;
        # a zero bundle buys the first basis vector.  The stacked product is
        # each row's b @ n to the bit, which d @ b.T is not
        d = rng.integers([[-8], [-6]], [[9], [7]], size=(trials, 2, k)).astype(float)
        d[np.all(d[:, 1] == 0.0, axis=1), 1, 0] = 1.0
        x = np.matmul(rule.shares._b(), d[..., None])[..., 0]
        q_arr, v_arr = x[:, 0], x[:, 1]
    else:
        # normal(scale=s) is s times the next standard normal draw, so one
        # block of draws is the stream of alternating q and v draws
        z = rng.standard_normal((trials, 2, k))
        q_arr, v_arr = 4.0 * z[:, 0], 3.0 * z[:, 1]
        v_arr[np.linalg.norm(v_arr, axis=1) <= MEMBER_TOL] = 1.0
    # every trial's margin in one pass
    margins = np.max(_dots(v_arr[:, None, :], rule.phi), axis=1) - (
        rule.cost.values(q_arr + v_arr) - rule.cost.values(q_arr))
    bad = np.flatnonzero(margins <= 0.0)
    # the trials a loop would visit: up to the first failing one
    seen = margins[:bad[0] + 1] if len(bad) else margins
    # the first strict minimum, which a loop keeps; nan is never below it
    seen = np.where(np.isnan(seen), INF, seen)
    t = int(np.argmin(seen))
    min_margin = float(seen[t])
    worst = None if min_margin == INF else {
        "q": q_arr[t].tolist(), "v": v_arr[t].tolist(), "margin": min_margin}
    if len(bad):
        return AxiomReport(axiom="PRICE-BOUND", verdict=FAILS,
                           margin=min_margin, witness=worst,
                           budget={"trials": trials})
    return AxiomReport(axiom="PRICE-BOUND", verdict=HOLDS_AT_BUDGET,
                       margin=min_margin, witness={"tightest": worst},
                       budget={"trials": trials})


# ---------------------------------------------------------------------------
# subgroup structure of the cashless trade set


def check_subgroup(sample_d, region=None) -> AxiomReport:
    """Falsifier for the additive-subgroup structure of the cashless trade
    contracts: every -d and d + d' of the sample must be in it.

    With ``region`` None the sample is the complete set, so any missing
    element is a counterexample.  Otherwise ``region`` tells whether a
    candidate should have been sampled (lattice balls), and closure is only
    demanded inside it.  The first MAX_PAIRS sums are tried."""
    arr = np.asarray([np.asarray(d, dtype=float).ravel() for d in sample_d])

    def missing(cand) -> bool:
        return (region is None or region(cand)) and \
            np.min(np.max(np.abs(arr - cand), axis=1)) > MEMBER_TOL

    checked = 0
    for i in range(len(arr)):
        if missing(-arr[i]):
            return AxiomReport(
                axiom="SUBGROUP", verdict=FAILS, margin=0.0,
                witness={"kind": "negation", "d": arr[i].tolist()},
                budget={"size": len(arr), "checked": checked})
    for i in range(len(arr)):
        for j in range(i, len(arr)):
            if checked >= MAX_PAIRS:
                break
            checked += 1
            cand = arr[i] + arr[j]
            if missing(cand):
                return AxiomReport(
                    axiom="SUBGROUP", verdict=FAILS, margin=0.0,
                    witness={"kind": "sum", "d": arr[i].tolist(),
                             "d_prime": arr[j].tolist(),
                             "candidate": cand.tolist()},
                    budget={"size": len(arr), "checked": checked})
    return AxiomReport(axiom="SUBGROUP", verdict=HOLDS_AT_BUDGET, margin=0.0,
                       budget={"size": len(arr), "checked": checked,
                               "exhaustive": region is None})


def market_subgroup(rule: ScoringRule, bound: int = 8) -> AxiomReport:
    """``check_subgroup`` on a market's cashless trades: a lattice cost
    market's lattice ball of radius ``bound``, or all differences of a
    finite rule's cashless score vectors."""
    if isinstance(rule, CostRule) and rule.shares.is_lattice:
        b = rule.shares._b()
        centered = rule.phi - np.mean(rule.phi, axis=0)
        pinv = np.linalg.pinv(centered)

        def region(cand):
            n = np.linalg.solve(b, pinv @ cand)
            if np.max(np.abs(centered @ (b @ n) - cand)) > MEMBER_TOL:
                return False
            return bool(np.all(np.abs(n) <= bound + MEMBER_TOL) and
                        np.max(np.abs(n - np.round(n))) <= MEMBER_TOL)

        return check_subgroup([centered @ w
                               for w in rule.shares.lattice_points(bound)],
                              region=region)
    if not isinstance(rule.report_space, FiniteReports):
        raise ValueError("SUBGROUP needs a finite rule or a lattice market")
    hs = _cashless_table(rule, rule.report_space.labels)
    return check_subgroup([h1 - h2 for h1 in hs for h2 in hs])


def _cashless_table(rule: ScoringRule, reports) -> np.ndarray:
    """``score_table`` less each row's mean: the cashless part of each
    report's score vector, one row per report."""
    scores = rule.score_table(reports)
    return scores - np.mean(scores, axis=1, keepdims=True)


def score_range_membership(rule: ScoringRule, window: tuple):
    """Distance oracle to the cashless score range of a rule with scalar
    reports, from 4,001 reports across the window refined by golden
    section: target -> (min distance, nearest report)."""
    num = 4001
    grid = np.linspace(window[0], window[1], num)
    hs = _cashless_table(rule, grid.tolist())

    def oracle(target):
        target = np.asarray(target, dtype=float).ravel()
        dists = np.max(np.abs(hs - target), axis=1)
        i = int(np.argmin(dists))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, num - 1)]

        def dist_at(r):
            # one report: the scalar score is the cheaper form
            row = rule.score_contract(float(r)).values
            return float(np.max(np.abs(row - np.mean(row) - target)))

        # golden refine on the 1-d distance slice
        best_r = golden_max(lambda r: -dist_at(r), lo, hi, steps=80)
        return dist_at(best_r), best_r

    return oracle


# ---------------------------------------------------------------------------
# cost extraction


@dataclass
class Extraction:
    ok: bool
    failure_step: str | None
    witness: dict
    reports: list
    k: int = 0
    phi: np.ndarray | None = None
    shares: np.ndarray | None = None
    cost_values: np.ndarray | None = None
    solve_residual: float = 0.0
    convexity_gap: float = 0.0


def _lower_envelope_gap(shares: np.ndarray, costs: np.ndarray) -> tuple:
    """(gap, index) of the first cost point farthest above the lower convex
    envelope of the (share, cost) points, else (0.0, None).  The envelope is
    the max of the lifted hull's facet planes, costs in units of max(1,
    |cost|), whose unit normal has a cost component below -STRUCT_TOL: a
    facet within rounding of vertical would lift it and hide a gap.  The
    lifted set is ``FlatHull`` when it has fewer than k + 2 points or lies in
    one hyperplane; with extraction's shares, 0 and each unit vector among
    them, that is an affine cost.  A non-finite point raises, before scaling."""
    if not np.isfinite(costs).all():
        raise ValueError("cost points must be finite")
    scale = max(1.0, float(np.max(np.abs(costs))))
    try:
        a, b = hull_facets(np.column_stack([shares, costs / scale]))
    except FlatHull:
        return 0.0, None
    lower = a[:, -1] < -STRUCT_TOL
    env = np.max(-(shares @ a[lower, :-1].T + b[lower]) / a[lower, -1], axis=1)
    gaps = costs - scale * env
    at = int(np.argmax(gaps))
    # a Python float: the extract report prints the gap's repr
    return (float(gaps[at]), at) if gaps[at] > 0.0 else (0.0, None)


def extract_cost_market(rule: ScoringRule, grid) -> Extraction:
    """Rewrite score differences on a report grid as shares and a cost.

    Steps: project score differences to the cashless hyperplane, pick a
    basis of actual difference vectors (these become the securities), solve
    each difference as shares + cash, set the cost to minus the cash, and
    certify that the cost points admit a convex interpolant.

    Finite report spaces are screened first for subgroup closure of the
    complete cashless difference set.  Rules whose extracted share count
    exceeds the intrinsic report dimension are rejected: their share image
    is a lower-dimensional curve, not an additive subgroup; for scalar
    reports the witness adds a translate d + h of a cashless score h by a
    difference d that lies farther than RESIDUAL_ACCEPT from every
    cashless score.  A grid of fewer than two distinct reports raises
    ValueError: it holds no trade, so every rule would read as redundant.
    """
    if not rule.outcome_space.is_finite:
        raise ValueError("cost extraction needs a finite outcome space")
    reports = list(grid)
    distinct = len({tuple(np.ravel(r).tolist()) for r in reports})
    if distinct < 2:
        raise ValueError(f"cost extraction needs at least two distinct "
                         f"reports, not {distinct}")
    scores = rule.score_table(reports)
    n = scores.shape[1]
    h = scores - np.mean(scores, axis=1, keepdims=True)

    if isinstance(rule.report_space, FiniteReports):
        diffs = [h[i] - h[j] for i in range(len(h)) for j in range(len(h))]
        sub = check_subgroup(diffs)
        if not sub.ok:
            return Extraction(ok=False, failure_step="subgroup",
                              witness=sub.witness, reports=reports)

    diffs = h - h[0]
    scale = max(float(np.max(np.abs(diffs))), 1.0)
    basis: list[np.ndarray] = []
    basis_orth: list[np.ndarray] = []
    for row in diffs[1:]:
        res = row.copy()
        for b in basis_orth:
            res = res - _dots(res, b) * b
        norm = float(np.linalg.norm(res))
        if norm > MEMBER_TOL * scale:
            basis.append(row.copy())
            basis_orth.append(res / norm)
    k = len(basis)
    if k == 0:
        return Extraction(ok=False, failure_step="rank",
                          witness={"reason": "all contracts are cash; "
                                             "the rule is redundant"},
                          reports=reports)
    phi = np.stack(basis, axis=1)  # n x k, columns are elements of the range

    intrinsic = getattr(rule.report_space, "dim", None)
    if intrinsic and k > intrinsic:
        witness = {"share_dim": k, "report_dim": intrinsic,
                   "reason": "share image is a curve of lower dimension "
                             "than the extracted span; the cashless trade "
                             "set cannot be an additive subgroup"}
        if intrinsic == 1:
            rs = [float(r) for r in reports]
            span = max(rs) - min(rs)
            window = (min(rs) - 2 * span, max(rs) + 2 * span)
            if isinstance(rule.report_space, BoxReports):
                lo, hi = inset(float(rule.report_space.lo[0]),
                               float(rule.report_space.hi[0]))
                window = (max(window[0], lo), min(window[1], hi))
            d, hm = diffs[-1], h[len(h) // 2]
            dist, at = score_range_membership(rule, window)(d + hm)
            if dist > RESIDUAL_ACCEPT:
                witness["translate_witness"] = {
                    "kind": "translate", "d": d.tolist(), "h": hm.tolist(),
                    "distance": dist, "closest_report": at}
        return Extraction(ok=False, failure_step="subgroup", witness=witness,
                          reports=reports, k=k, phi=phi)

    a = np.hstack([phi, np.ones((n, 1))])
    sol, *_ = np.linalg.lstsq(a, (scores - scores[0]).T, rcond=None)
    sol = sol.T  # one row per report: (v_1..v_k, g)
    recon = sol @ a.T
    residual = float(np.max(np.abs(recon - (scores - scores[0]))))
    if residual > RESIDUAL_ACCEPT * scale:
        return Extraction(ok=False, failure_step="rank",
                          witness={"solve_residual": residual},
                          reports=reports, k=k, phi=phi)
    shares = sol[:, :k]
    cost_values = -sol[:, k]

    gap, at = _lower_envelope_gap(shares, cost_values)
    if gap > RESIDUAL_ACCEPT * max(1.0, float(np.max(np.abs(cost_values)))):
        return Extraction(ok=False, failure_step="convexity",
                          witness={"report": repr(reports[at]),
                                   "share": shares[at].tolist(),
                                   "cost": float(cost_values[at]),
                                   "envelope_gap": gap},
                          reports=reports, k=k, phi=phi, shares=shares,
                          cost_values=cost_values, solve_residual=residual,
                          convexity_gap=gap)
    return Extraction(ok=True, failure_step=None, witness={}, reports=reports,
                      k=k, phi=phi, shares=shares, cost_values=cost_values,
                      solve_residual=residual, convexity_gap=gap)


def roundtrip_residual(rule: ScoringRule, ext: Extraction) -> float:
    """Max |F_reconstructed - F| over all grid report pairs and outcomes,
    where the extracted market pays phi . (v_j - v_i) - (c_j - c_i) for the
    trade grid[i] -> grid[j]."""
    scores = rule.score_table(ext.reports)
    # [i, j] is the trade grid[i] -> grid[j]
    direct = scores[None] - scores[:, None]
    rebuilt = (ext.shares[None] - ext.shares[:, None]) @ ext.phi.T - \
        (ext.cost_values[None] - ext.cost_values[:, None])[..., None]
    return float(np.max(np.abs(direct - rebuilt)))
