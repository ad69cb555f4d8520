"""Cost-function market makers, share lattices, openness checks, and the
cost-extraction pipeline that rewrites a score-difference mechanism over a
finite outcome space as shares + convex cost.

Sign convention, fixed once: a trader pays C(q + v) - C(q) for the bundle
v and receives v . phi(y), so the trade contract is
    v . phi(y) - (C(q + v) - C(q)).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .contracts import (
    INF,
    SEARCH_XTOL,
    OutcomeSpace,
    combine,
    contract_is_constant,
    finite_contract,
)
from .convex import (
    ConvexFn,
    binary_lmsr_cost,
    golden_max,
    hull_margin,
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
        b = np.eye(k) * float(scale)
        return ShareSpace(tuple(tuple(row) for row in b))

    @staticmethod
    def lattice(basis) -> "ShareSpace":
        b = np.asarray(basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("lattice basis must be square")
        if abs(np.linalg.det(b)) < 1e-12:
            raise ValueError("lattice basis must be invertible")
        return ShareSpace(tuple(tuple(row) for row in b))

    @property
    def is_lattice(self) -> bool:
        return self.basis is not None

    def _b(self) -> np.ndarray:
        return np.asarray(self.basis, dtype=float)

    @property
    def dim(self) -> int:
        return len(self.basis) if self.basis is not None else 0

    def contains(self, v, tol: float = 1e-9) -> bool:
        if self.basis is None:
            return True
        v = np.atleast_1d(np.asarray(v, dtype=float))
        n = np.linalg.solve(self._b(), v)
        return bool(np.max(np.abs(n - np.round(n))) <= tol)

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

    def __init__(self, cost: ConvexFn, phi, outcome_space: OutcomeSpace | None = None,
                 shares: ShareSpace = ShareSpace.full(),
                 conjugate_closure_values=None):
        self.cost = cost
        self.phi = np.asarray(phi, dtype=float)
        if self.phi.ndim == 1:
            self.phi = self.phi[:, None]
        if outcome_space is None:
            outcome_space = OutcomeSpace.finite(range(self.phi.shape[0]))
        if self.phi.shape[0] != outcome_space.n:
            raise ValueError("phi rows must match the outcome count")
        if self.phi.shape[1] != cost.dim:
            raise ValueError("phi columns must match the cost dimension")
        centered = self.phi - np.mean(self.phi, axis=0)
        if np.linalg.matrix_rank(centered, tol=1e-9) != self.phi.shape[1]:
            raise ValueError("securities must be affinely independent")
        self.outcome_space = outcome_space
        self.shares = shares
        self.conjugate_closure_values = conjugate_closure_values
        k = cost.dim
        self.report_space = RealReports() if k == 1 else BoxReports(
            tuple(-INF for _ in range(k)), tuple(INF for _ in range(k)))

    @property
    def k(self) -> int:
        return self.cost.dim

    def _q(self, q) -> np.ndarray:
        return np.atleast_1d(np.asarray(q, dtype=float))

    def validate_trade(self, r_old, r_new) -> None:
        self.validate_report(r_new)
        bundle = self._q(r_new) - self._q(r_old)
        if not self.shares.contains(bundle):
            raise InvalidReport(
                f"bundle {bundle.tolist()} is not in the share space")

    def score(self, q, y) -> float:
        qv = self._q(q)
        i = self.outcome_space.index(y)
        return float(np.dot(qv, self.phi[i])) - self.cost.value(qv)

    def score_contract(self, q):
        qv = self._q(q)
        return finite_contract(self.outcome_space,
                               self.phi @ qv - self.cost.value(qv))

    def price(self, q) -> np.ndarray:
        """Instantaneous prices: the gradient (subgradient selection) of the
        cost at the share state."""
        return self.cost.grad(self._q(q))

    def property_value(self, p):
        """Share state whose prices match E_p phi (full-space markets)."""
        target = p.pmf @ self.phi
        q = invert_gradient(self.cost, target, SEARCH_XTOL)
        if q is None:
            raise ValueError("expected security payoff outside the price range")
        return float(q[0]) if self.k == 1 else q

    def best_response(self, p, grid=None, xtol: float = SEARCH_XTOL):
        """On a lattice share space, the best lattice state: refining between
        lattice states would return a state no lattice trade reaches."""
        if not self.shares.is_lattice:
            return super().best_response(p, grid, xtol)
        if grid is None:
            grid = self._default_search_grid(p)
        vals = [self.expected_score(q, p) for q in grid]
        return grid[int(np.argmax(vals))]

    def _default_search_grid(self, p):
        if self.shares.is_lattice:
            return [float(v[0]) if self.k == 1 else v
                    for v in self.shares.lattice_points(SEARCH_BOUND)]
        if self.k == 1:
            # share states 0.1 apart, as far out as the lattice search reaches
            return self.report_space.grid(20 * SEARCH_BOUND + 1,
                                          (-SEARCH_BOUND, SEARCH_BOUND))
        return super()._default_search_grid(p)

    def _search_box(self) -> BoxReports:
        # the report space is all of R^k, which no grid covers
        return BoxReports((-SEARCH_BOUND,) * self.k, (SEARCH_BOUND,) * self.k)

    def loss_bound(self, r0) -> float | None:
        if self.conjugate_closure_values is None:
            return None
        q0 = self._q(r0)
        vals = [g - float(np.dot(q0, row))
                for g, row in zip(self.conjugate_closure_values, self.phi)]
        return max(vals) + self.cost.value(q0)

    def tn_candidate(self, r1, r1p, r2):
        v = self._q(r1p) - self._q(r1)
        out = self._q(r2) - v
        return float(out[0]) if self.k == 1 else out

    def wn_candidate(self, r1, r1p, r2):
        return self.tn_candidate(r1, r1p, r2)

    def pn_candidate(self, trades, r):
        total = np.zeros(self.k)
        for ra, rb in trades:
            total = total + self._q(rb) - self._q(ra)
        out = self._q(r) - total
        return float(out[0]) if self.k == 1 else out


@dataclass
class TradeResult:
    bundle: np.ndarray
    cost: float
    contract: object


class CostMarket:
    """Mutable share state over a CostRule; trades advance the state."""

    def __init__(self, rule: CostRule, q0=None):
        self.rule = rule
        self.state = rule._q(q0 if q0 is not None else np.zeros(rule.k))

    @property
    def k(self) -> int:
        return self.rule.k

    def trade(self, v) -> TradeResult:
        v = self.rule._q(v)
        if not self.rule.shares.contains(v):
            raise InvalidReport(f"bundle {v.tolist()} is not in the share space")
        q = self.state
        cost = self.rule.cost.value(q + v) - self.rule.cost.value(q)
        contract = finite_contract(self.rule.outcome_space,
                                   self.rule.phi @ v - cost)
        self.state = q + v
        return TradeResult(bundle=v, cost=cost, contract=contract)

    def price(self) -> np.ndarray:
        return self.rule.price(self.state)

    def neutralizing_bundle(self, trades: list[TradeResult]) -> tuple:
        """Sell the summed position: v* = -sum(v_i).  Executes v* at the
        current state and returns (v*, cash, diagnostics); cash is the
        constant level of the post-trade net position."""
        if not trades:
            raise ValueError("empty position")
        v_star = -sum((t.bundle for t in trades), np.zeros(self.k))
        pre = combine([t.contract for t in trades], [1.0] * len(trades))
        pre_inf = float(np.min(pre.values))
        closing = self.trade(v_star)
        net = combine([pre, closing.contract], [1.0, 1.0])
        flat, cash = contract_is_constant(net, tol=1e-9)
        diag = {
            "flat": flat,
            "pre_inf": pre_inf,
            "improvement": cash - pre_inf,
            "degenerate": bool(np.max(np.abs(v_star)) <= 1e-12),
        }
        return v_star, cash, diag


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


def check_open(rule: CostRule, rng=None, grad_samples: int = 100,
               invert_targets: int = 9, tol: float = 1e-6) -> AxiomReport:
    """Openness: gradients stay strictly inside conv(phi) and every interior
    grid target is hit by gradient inversion within tol."""
    rng = rng or np.random.default_rng(0)
    if not rule.cost.differentiable:
        return AxiomReport(axiom="OPEN", verdict=FAILS, margin=0.0,
                           witness={"reason": "cost not differentiable"})
    qs = [rng.normal(scale=4.0, size=rule.k) for _ in range(grad_samples)]
    min_margin = INF
    for q in qs:
        m = hull_margin(rule.phi, rule.cost.grad(q))
        min_margin = min(min_margin, m)
        if m <= 0.0:
            return AxiomReport(
                axiom="OPEN", verdict=FAILS, margin=m,
                witness={"q": q.tolist(), "gradient": rule.cost.grad(q).tolist(),
                         "hull_margin": m},
                budget={"grad_samples": grad_samples})
    # interior targets: strict convex mixtures of the security payoffs
    misses = []
    for _ in range(invert_targets):
        w = rng.uniform(0.2, 1.0, size=rule.phi.shape[0])
        w = w / np.sum(w)
        target = w @ rule.phi
        q = invert_gradient(rule.cost, target, SEARCH_XTOL)
        gap = INF if q is None else float(
            np.max(np.abs(rule.cost.grad(q) - target)))
        if gap > tol:
            misses.append({"target": target.tolist(), "gap": gap})
    if misses:
        return AxiomReport(axiom="OPEN", verdict=FAILS, margin=-1.0,
                           witness={"unreached_targets": misses},
                           budget={"grad_samples": grad_samples,
                                   "invert_targets": invert_targets})
    return AxiomReport(axiom="OPEN", verdict=HOLDS_AT_BUDGET, margin=min_margin,
                       budget={"grad_samples": grad_samples,
                               "invert_targets": invert_targets})


def check_quasi_open(rule: CostRule, bound: int = 8, rng=None,
                     q_samples: int = 40) -> AxiomReport:
    """x . v < max_y v . phi(y) for sampled states q, directions v in the
    share space, and the subgradient selection x of C at q."""
    rng = rng or np.random.default_rng(0)
    if rule.shares.is_lattice:
        qs = rule.shares.lattice_points(bound)
        vs = rule.shares.lattice_points(bound, include_zero=False)
    else:
        qs = [rng.normal(scale=4.0, size=rule.k) for _ in range(q_samples)]
        vs = [rng.normal(scale=2.0, size=rule.k) for _ in range(q_samples)]
        vs = [v for v in vs if np.linalg.norm(v) > 1e-9]
    min_margin = INF
    for q in qs:
        x = rule.cost.grad(q)
        for v in vs:
            margin = float(np.max(rule.phi @ v)) - float(np.dot(x, v))
            if margin < min_margin:
                min_margin = margin
            if margin <= 0.0:
                return AxiomReport(
                    axiom="QUASI-OPEN", verdict=FAILS, margin=margin,
                    witness={"q": np.atleast_1d(q).tolist(),
                             "v": np.atleast_1d(v).tolist(),
                             "subgradient": x.tolist(), "margin": margin},
                    budget={"states": len(qs), "directions": len(vs)})
    return AxiomReport(axiom="QUASI-OPEN", verdict=HOLDS_AT_BUDGET,
                       margin=min_margin,
                       budget={"states": len(qs), "directions": len(vs),
                               "bound": bound})


def price_bound_check(rule: CostRule, trials: int = 1000, rng=None,
                      q_scale: float = 4.0, v_scale: float = 3.0) -> AxiomReport:
    """max_y v . phi(y) > C(q + v) - C(q) on seeded (q, v) trials."""
    rng = rng or np.random.default_rng(0)
    min_margin = INF
    worst = None
    for _ in range(trials):
        if rule.shares.is_lattice:
            b = rule.shares._b()
            q = b @ rng.integers(-8, 9, size=rule.k).astype(float)
            n = rng.integers(-6, 7, size=rule.k).astype(float)
            if np.all(n == 0):
                n[0] = 1.0
            v = b @ n
        else:
            q = rng.normal(scale=q_scale, size=rule.k)
            v = rng.normal(scale=v_scale, size=rule.k)
            if np.linalg.norm(v) < 1e-6:
                v = np.ones(rule.k)
        margin = float(np.max(rule.phi @ v)) - (
            rule.cost.value(q + v) - rule.cost.value(q))
        if margin < min_margin:
            min_margin = margin
            worst = {"q": q.tolist(), "v": v.tolist(), "margin": margin}
        if margin <= 0.0:
            return AxiomReport(axiom="PRICE-BOUND", verdict=FAILS,
                               margin=margin, witness=worst,
                               budget={"trials": trials})
    return AxiomReport(axiom="PRICE-BOUND", verdict=HOLDS_AT_BUDGET,
                       margin=min_margin, witness={"tightest": worst},
                       budget={"trials": trials})


# ---------------------------------------------------------------------------
# subgroup structure of the cashless trade set


def _present(sample: np.ndarray, candidate: np.ndarray, tol: float) -> bool:
    return bool(np.min(np.max(np.abs(sample - candidate), axis=1)) <= tol)


def check_subgroup(sample_d, exhaustive: bool = False, region=None,
                   h_sample=None, membership=None, tol: float = 1e-9,
                   max_pairs: int = 4000) -> AxiomReport:
    """Falsifier for the additive-subgroup structure of the cashless trade
    contracts.

    * exhaustive: ``sample_d`` is the complete set; any missing -d or d + d'
      is a counterexample.
    * region: predicate telling whether a candidate element should have been
      sampled (lattice balls); closure is only demanded inside the region.
    * membership + h_sample: oracle check that d + h stays in the cashless
      score range, for rules whose reports are continuous.
    """
    arr = np.asarray([np.asarray(d, dtype=float).ravel() for d in sample_d])
    checked = 0
    for i in range(len(arr)):
        cand = -arr[i]
        if (exhaustive or (region is not None and region(cand))) \
                and not _present(arr, cand, tol):
            return AxiomReport(
                axiom="SUBGROUP", verdict=FAILS, margin=0.0,
                witness={"kind": "negation", "d": arr[i].tolist()},
                budget={"size": len(arr), "checked": checked})
    for i in range(len(arr)):
        for j in range(i, len(arr)):
            if checked >= max_pairs:
                break
            checked += 1
            cand = arr[i] + arr[j]
            inside = exhaustive or (region is not None and region(cand))
            if inside and not _present(arr, cand, tol):
                return AxiomReport(
                    axiom="SUBGROUP", verdict=FAILS, margin=0.0,
                    witness={"kind": "sum", "d": arr[i].tolist(),
                             "d_prime": arr[j].tolist(),
                             "candidate": cand.tolist()},
                    budget={"size": len(arr), "checked": checked})
    if membership is not None and h_sample is not None:
        hs = np.asarray([np.asarray(h, dtype=float).ravel() for h in h_sample])
        for d in arr:
            for h in hs:
                dist, at = membership(d + h)
                if dist > max(1e-6, tol):
                    return AxiomReport(
                        axiom="SUBGROUP", verdict=FAILS, margin=dist,
                        witness={"kind": "translate", "d": d.tolist(),
                                 "h": h.tolist(), "distance": dist,
                                 "closest_report": at},
                        budget={"size": len(arr), "h_size": len(hs)})
    verdict = HOLDS_AT_BUDGET
    return AxiomReport(axiom="SUBGROUP", verdict=verdict, margin=0.0,
                       budget={"size": len(arr), "checked": checked,
                               "exhaustive": exhaustive})


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
            if np.max(np.abs(centered @ (b @ n) - cand)) > 1e-9:
                return False
            return bool(np.all(np.abs(n) <= bound + 1e-9) and
                        np.max(np.abs(n - np.round(n))) <= 1e-9)

        return check_subgroup([centered @ w
                               for w in rule.shares.lattice_points(bound)],
                              region=region)
    if not isinstance(rule.report_space, FiniteReports):
        raise ValueError("SUBGROUP needs a finite rule or a lattice market")
    hs = _cashless_table(rule, rule.report_space.labels)
    return check_subgroup([h1 - h2 for h1 in hs for h2 in hs], exhaustive=True)


def _cashless_table(rule: ScoringRule, reports) -> np.ndarray:
    """``score_table`` less each row's mean: the cashless part of each
    report's score vector, one row per report."""
    scores = rule.score_table(reports)
    return scores - np.mean(scores, axis=1, keepdims=True)


def score_range_membership(rule: ScoringRule, window: tuple,
                           num: int = 4001):
    """Distance oracle to the cashless score range of a rule with scalar
    reports: target -> (min distance, nearest report)."""
    grid = np.linspace(window[0], window[1], num)
    hs = _cashless_table(rule, grid.tolist())

    def oracle(target):
        target = np.asarray(target, dtype=float).ravel()
        dists = np.max(np.abs(hs - target), axis=1)
        i = int(np.argmin(dists))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, num - 1)]

        def dist_at(r):
            h = _cashless_table(rule, [float(r)])[0]
            return float(np.max(np.abs(h - target)))

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
    """Max amount by which a cost point sits above the lower convex envelope
    of the point set; 0 (within tol) iff some convex function interpolates."""
    from scipy.optimize import linprog

    m, k = shares.shape
    a_ub = np.hstack([shares, np.ones((m, 1))])
    worst, worst_i = 0.0, None
    for j in range(m):
        c = -np.concatenate([shares[j], [1.0]])
        res = linprog(c, A_ub=a_ub, b_ub=costs,
                      bounds=[(None, None)] * (k + 1), method="highs")
        if not res.success:
            continue
        env = -res.fun
        gap = costs[j] - env
        if gap > worst:
            worst, worst_i = gap, j
    return worst, worst_i


def extract_cost_market(rule: ScoringRule, grid, pivot_tol: float = 1e-9,
                        membership_window: tuple | None = None) -> Extraction:
    """Rewrite score differences on a report grid as shares and a cost.

    Steps: project score differences to the cashless hyperplane, pick a
    basis of actual difference vectors (these become the securities), solve
    each difference as shares + cash, set the cost to minus the cash, and
    certify that the cost points admit a convex interpolant.

    Finite report spaces are screened first for subgroup closure of the
    complete cashless difference set.  Rules whose extracted share count
    exceeds the intrinsic report dimension are rejected: their share image
    is a lower-dimensional curve, not an additive subgroup.
    """
    if not rule.outcome_space.is_finite:
        raise ValueError("cost extraction needs a finite outcome space")
    reports = list(grid)
    scores = rule.score_table(reports)
    n = scores.shape[1]
    h = scores - np.mean(scores, axis=1, keepdims=True)

    if isinstance(rule.report_space, FiniteReports):
        diffs = [h[i] - h[j] for i in range(len(h)) for j in range(len(h))]
        sub = check_subgroup(diffs, exhaustive=True)
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
            res = res - np.dot(res, b) * b
        norm = float(np.linalg.norm(res))
        if norm > pivot_tol * scale:
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
            window = membership_window
            if window is None:
                rs = [float(r) for r in reports]
                span = max(rs) - min(rs)
                window = (min(rs) - 2 * span, max(rs) + 2 * span)
                if isinstance(rule.report_space, BoxReports):
                    lo = float(rule.report_space.lo[0])
                    hi = float(rule.report_space.hi[0])
                    pad = 1e-6 * (hi - lo)
                    window = (max(window[0], lo + pad),
                              min(window[1], hi - pad))
            oracle = score_range_membership(rule, window)
            sub = check_subgroup([diffs[-1]], h_sample=[h[len(h) // 2]],
                                 membership=oracle)
            if not sub.ok:
                witness["translate_witness"] = sub.witness
        return Extraction(ok=False, failure_step="subgroup", witness=witness,
                          reports=reports, k=k, phi=phi)

    a = np.hstack([phi, np.ones((n, 1))])
    sol, *_ = np.linalg.lstsq(a, (scores - scores[0]).T, rcond=None)
    sol = sol.T  # one row per report: (v_1..v_k, g)
    recon = sol @ a.T
    residual = float(np.max(np.abs(recon - (scores - scores[0]))))
    if residual > 1e-7 * scale:
        return Extraction(ok=False, failure_step="rank",
                          witness={"solve_residual": residual},
                          reports=reports, k=k, phi=phi)
    shares = sol[:, :k]
    cost_values = -sol[:, k]

    gap, at = _lower_envelope_gap(shares, cost_values)
    if gap > 1e-7 * max(1.0, float(np.max(np.abs(cost_values)))):
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


def reconstructed_trade_values(ext: Extraction, i: int, j: int) -> np.ndarray:
    """Payoff vector of the trade grid[i] -> grid[j] in the extracted market."""
    dv = ext.shares[j] - ext.shares[i]
    dc = ext.cost_values[j] - ext.cost_values[i]
    return ext.phi @ dv - dc


def roundtrip_residual(rule: ScoringRule, ext: Extraction) -> float:
    """Max |F_reconstructed - F| over all grid report pairs and outcomes."""
    scores = rule.score_table(ext.reports)
    worst = 0.0
    for i in range(len(ext.reports)):
        for j in range(len(ext.reports)):
            direct = scores[j] - scores[i]
            rebuilt = reconstructed_trade_values(ext, i, j)
            worst = max(worst, float(np.max(np.abs(direct - rebuilt))))
    return worst
