"""Checkers for the market axioms, each returning a verdict plus a witness.

Quantifiers over continuous report or outcome spaces are evaluated on
configured grids; such verdicts are ``holds-at-budget`` unless a
family-specific closed-form bound upgrades them to ``holds``.  Every
``fails`` verdict carries concrete data that replays through the contract
and session primitives alone.

The strictness margin ``delta`` separates the axioms' strict inequalities
from numerical ties.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .contracts import (
    INF,
    Belief,
    OutcomeMismatch,
    cdf_belief,
    combine,
    contract_argmin,
    contract_bounds,
    contract_is_constant,
    expected_payoff,
    finite_belief,
    trade_infima,
    trade_rows,
)
from .engine import MarketSession
from .reports import FAILS, HOLDS, HOLDS_AT_BUDGET, AxiomReport
from .scoring import BoxReports, FiniteReports, RealReports, ScoringRule


@dataclass
class SearchConfig:
    """Grids, budgets, and the strictness margin shared by the checkers."""

    report_points: int = 51
    report_window: tuple = (-4.0, 4.0)
    candidate_points: int = 51
    scenario_count: int = 200
    portfolio_count: int = 40
    portfolio_size: int = 3
    ic_beliefs: int = 20
    epsilons: tuple = (0.5, 0.05)
    delta: float = 1e-9
    lattice_bound: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("strictness margin must be positive")
        if self.report_points < 2 or self.candidate_points < 2:
            raise ValueError("grids must be nonempty")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def report_grid(self, rule: ScoringRule) -> list:
        return rule.report_grid(self.report_points, self.report_window)

    def candidate_grid(self, rule: ScoringRule) -> list:
        shares = getattr(rule, "shares", None)
        if shares is not None and shares.is_lattice:
            pts = shares.lattice_points(self.lattice_bound)
            return [float(v[0]) if len(v) == 1 else v for v in pts]
        return rule.report_grid(self.candidate_points, self.report_window)


def _j(r):
    """JSON-able rendering of a report or outcome."""
    if isinstance(r, np.ndarray):
        return [float(v) for v in r]
    if isinstance(r, (np.floating, np.integer)):
        return float(r)
    return r


def _is_exhaustive(rule: ScoringRule, grid) -> bool:
    return isinstance(rule.report_space, FiniteReports) and \
        set(grid) == set(rule.report_space.labels)


def min_label(prop):
    """Canonical single report from a property value (sets pick the
    smallest label)."""
    if isinstance(prop, tuple):
        return min(prop)
    return prop


# ---------------------------------------------------------------------------
# belief generators (seeded, used by elicitation and budget checks)


def random_finite_belief(rng: np.random.Generator, space) -> Belief:
    pmf = rng.dirichlet(np.ones(space.n))
    pmf = pmf / np.sum(pmf)
    return finite_belief(space, pmf)


def random_cdf_belief(rng: np.random.Generator, window: tuple = (-4.0, 4.0),
                      knots: int = 5) -> Belief:
    a, b = window
    gx = np.cumsum(rng.uniform(0.5, 1.5, size=knots + 1))
    xs = a + (b - a) * (gx - gx[0]) / (gx[-1] - gx[0])
    gf = np.cumsum(rng.uniform(0.5, 1.5, size=knots + 1))
    fs = (gf - gf[0]) / (gf[-1] - gf[0])
    return cdf_belief(xs, fs)


def random_beliefs_for(rule: ScoringRule, rng: np.random.Generator,
                       count: int, window: tuple = (-4.0, 4.0)) -> list[Belief]:
    if rule.outcome_space.is_finite:
        return [random_finite_belief(rng, rule.outcome_space)
                for _ in range(count)]
    return [random_cdf_belief(rng, window) for _ in range(count)]


# ---------------------------------------------------------------------------
# scenario generators


def scenario_triples(grid, count: int, rng: np.random.Generator) -> list:
    """(held trade r1 -> r1', current state r2) triples with r1 != r1'."""
    out = []
    n = len(grid)
    guard = 0
    while len(out) < count and guard < 50 * count:
        guard += 1
        i, j, s = rng.integers(0, n, size=3)
        if i == j:
            continue
        out.append((grid[int(i)], grid[int(j)], grid[int(s)]))
    return out


def exhaustive_triples(grid) -> list:
    return [(a, b, s) for a in grid for b in grid if a != b for s in grid]


def portfolio_scenarios(grid, count: int, size: int,
                        rng: np.random.Generator) -> list:
    out = []
    n = len(grid)
    guard = 0
    while len(out) < count and guard < 50 * count:
        guard += 1
        trades = []
        for _ in range(size):
            i, j = rng.integers(0, n, size=2)
            if i == j:
                j = (j + 1) % n
            trades.append((grid[int(i)], grid[int(j)]))
        s = grid[int(rng.integers(0, n))]
        out.append((trades, s))
    return out


# ---------------------------------------------------------------------------
# IC and ARB


def _require_finite(rows: np.ndarray) -> np.ndarray:
    # trade_contract rejects a trade whose payoffs overflow
    if not np.isfinite(rows).all():
        raise ValueError("payoffs must be finite")
    return rows


def _require_belief_kind(rule: ScoringRule, p: Belief) -> None:
    labels = rule.outcome_space.labels
    if (p.pmf is None) != (labels is None) or \
            (labels is not None and p.space.labels != labels):
        raise OutcomeMismatch("belief kind must match the outcome space")


def _expected_trade_payoffs(rule: ScoringRule, grid, states):
    """values(p, k): the expected payoff under p of the trade from
    states[k] to each grid report.

    On a finite outcome space the grid and the states are scored once, and
    each value is the ``np.dot`` that ``expected_payoff`` takes of the
    trade's payoff vector.  On the real line each value is
    E_p S(r, .) - E_p S(states[k], .), by linearity of expectation: one
    ``expected_payoff`` per grid report per belief, plus one per state."""
    if not rule.outcome_space.is_finite:
        contracts = [rule.score_contract(r) for r in grid]
        state_contracts = [rule.score_contract(s) for s in states]

        @lru_cache(maxsize=1)
        def scores(p):
            return [expected_payoff(c, p) for c in contracts]

        def values(p, k):
            base = expected_payoff(state_contracts[k], p)
            return [v - base for v in scores(p)]
        return values
    table = rule.score_table(grid)
    state_rows = rule.score_table(states)

    def values(p, k):
        rows = _require_finite(trade_rows(table, state_rows[k]))
        return [float(np.dot(row, p.pmf)) for row in rows]
    return values


def check_ic(rule: ScoringRule, beliefs: list[Belief] | None = None,
             cfg: SearchConfig = SearchConfig(), states=None) -> AxiomReport:
    """Grid argmax of the expected trade payoff must match the elicited
    statistic, from every market state (the argmax is state-free because
    payments telescope).

    Each grid report and each state is scored once.  Over a finite outcome
    space the expected trade payoffs are read off the score table; on the
    real line they are differences of expected scores, which equal the
    per-trade values within rounding.  A belief of the wrong kind for the
    outcome space raises ``OutcomeMismatch``."""
    rng = cfg.rng()
    grid = cfg.report_grid(rule)
    if beliefs is None:
        beliefs = random_beliefs_for(rule, rng, cfg.ic_beliefs,
                                     cfg.report_window)
    if states is None:
        states = [grid[0], grid[len(grid) // 2], grid[-1]]
    continuous = not isinstance(rule.report_space, FiniteReports)
    if continuous and np.isscalar(grid[0]):
        step = max(b - a for a, b in zip(grid, grid[1:]))
    elif continuous:
        step = float(np.max(np.linalg.norm(
            np.diff(np.asarray(grid, dtype=float), axis=0), axis=1)))
    else:
        step = 0.0
    expected_trades = _expected_trade_payoffs(rule, grid, states)
    worst = 0.0
    for bi, p in enumerate(beliefs):
        _require_belief_kind(rule, p)
        gamma = rule.property_value(p)
        argmaxes = []
        for k, state in enumerate(states):
            vals = expected_trades(p, k)
            i = int(np.argmax(vals))
            argmaxes.append(i)
            pick = grid[i]
            if isinstance(gamma, tuple):
                bad = pick not in gamma
                gap = 0.0 if not bad else 1.0
            else:
                gap = float(np.max(np.abs(
                    np.atleast_1d(np.asarray(pick, dtype=float)) -
                    np.atleast_1d(np.asarray(gamma, dtype=float)))))
                bad = gap > step + 1e-9
            worst = max(worst, gap)
            if bad:
                return AxiomReport(
                    axiom="IC", verdict=FAILS, margin=gap,
                    witness={"belief": p.to_dict(), "state": _j(state),
                             "argmax": _j(pick), "property": _j(gamma),
                             "argmax_score": vals[i],
                             "grid_resolution": step},
                    budget={"beliefs": len(beliefs), "grid": len(grid)})
        if len(set(argmaxes)) != 1:
            return AxiomReport(
                axiom="IC", verdict=FAILS, margin=1.0,
                witness={"belief": p.to_dict(),
                         "states": [_j(s) for s in states],
                         "argmaxes": [_j(grid[i]) for i in argmaxes],
                         "reason": "argmax varies with the market state"},
                budget={"beliefs": len(beliefs), "grid": len(grid)})
    return AxiomReport(axiom="IC", verdict=HOLDS_AT_BUDGET, margin=worst,
                       budget={"beliefs": len(beliefs), "grid": len(grid),
                               "states": len(states),
                               "grid_resolution": step})


def check_arb(rule: ScoringRule, grid=None,
              cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """No trade may pay strictly positively in every outcome:
    inf F(r'|r) <= 0 for all report pairs on the grid.

    Each grid report is scored once; ``contracts.trade_infima`` gives the
    infima of all trades from one report at a time, equal to
    ``contract_bounds(trade_contract(r, r'))`` on either outcome kind."""
    if grid is None:
        grid = cfg.report_grid(rule)
    worst, bad = _arb_scan(rule, grid, cfg.delta)
    if bad:
        return AxiomReport(axiom="ARB", verdict=FAILS, margin=worst,
                           witness={"pairs": bad},
                           budget={"grid": len(grid)})
    verdict = HOLDS if _is_exhaustive(rule, grid) else HOLDS_AT_BUDGET
    return AxiomReport(axiom="ARB", verdict=verdict, margin=worst,
                       budget={"grid": len(grid),
                               "pairs": len(grid) ** 2})


def _arb_scan(rule: ScoringRule, grid, delta: float) -> tuple:
    """(worst infimum, up to 10 pairs with infimum above delta) over the
    trades r -> r' of the grid in row-major order, stopping at the 10th;
    ``worst`` covers the visited pairs only."""
    worst = -INF
    bad = []
    rows = trade_infima([rule.score_contract(r) for r in grid])
    for r, (los, finite) in zip(grid, rows):
        hits = np.flatnonzero(los > delta)[:10 - len(bad)]
        # the scan stops at the 10th pair above delta
        stop = int(hits[-1]) + 1 if len(bad) + len(hits) >= 10 else len(grid)
        # trade_contract rejects a trade whose payoffs overflow
        if not finite[:stop].all():
            raise ValueError("payoffs must be finite")
        worst = max(worst, float(los[:stop].max()))
        bad.extend({"r": _j(r), "r_new": _j(grid[j]), "inf": float(los[j])}
                   for j in hits)
        if len(bad) >= 10:
            break
    return worst, bad


# ---------------------------------------------------------------------------
# worst-case loss


def _outcome_probe(contract, count: int = 14) -> list:
    """Outcomes marching outward along the direction where the payoff grows."""
    up = [[4.0 ** i, contract(4.0 ** i)] for i in range(count)]
    dn = [[-(4.0 ** i), contract(-(4.0 ** i))] for i in range(count)]
    return up if up[-1][1] >= dn[-1][1] else dn


def check_wcl(rule: ScoringRule, r0, cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """Bounded worst-case maker loss from the initial state r0.

    Unbounded single-trade payoffs fail with an outcome-sequence witness;
    unbounded growth along the report space fails with a report-sequence
    witness; a family closed-form bound upgrades the verdict to holds."""
    grid = cfg.report_grid(rule)
    grid_sup = 0.0
    if rule.outcome_space.is_finite:
        # finite payoffs are bounded: the grid sup is one table's maximum
        table = rule.score_table(grid)
        rows = _require_finite(trade_rows(table, rule.score_table([r0])[0]))
        grid_sup = max(grid_sup, float(rows.max(initial=-INF)))
    else:
        for r in grid:
            d = rule.trade_contract(r0, r)
            _, hi = contract_bounds(d)
            if hi == INF:
                if hasattr(rule, "divergence_probe") and getattr(rule, "phi", 1) is None:
                    losses = rule.divergence_probe(r0)
                    trade_to = float(r0) + 1.0
                else:
                    losses = _outcome_probe(d)
                    trade_to = r
                return AxiomReport(
                    axiom="WCL", verdict=FAILS, margin=losses[-1][1],
                    witness={"r0": _j(r0), "trade_to": _j(trade_to),
                             "losses": [[_j(y), v] for y, v in losses],
                             "diverges": True},
                    budget={"grid": len(grid)})
            grid_sup = max(grid_sup, hi)
    bound = rule.loss_bound(r0)
    if bound is not None:
        if grid_sup > bound + 1e-9:
            return AxiomReport(axiom="WCL", verdict=FAILS, margin=grid_sup,
                               witness={"reason": "closed-form bound violated",
                                        "bound": bound, "grid_sup": grid_sup},
                               budget={"grid": len(grid)})
        return AxiomReport(axiom="WCL", verdict=HOLDS, margin=bound,
                           witness={"bound": bound, "grid_sup": grid_sup},
                           budget={"grid": len(grid)})
    if isinstance(rule.report_space, RealReports):
        seq = []
        base = max(abs(cfg.report_window[0]), abs(cfg.report_window[1]), 1.0)
        for i in range(10):
            r = base * (4.0 ** i)
            for cand in (r, -r):
                _, hi = contract_bounds(rule.trade_contract(r0, cand))
                seq.append([cand, hi])
        sups = [s for _, s in seq]
        if max(sups) > 10.0 * grid_sup + 100.0:
            seq.sort(key=lambda e: e[1])
            return AxiomReport(
                axiom="WCL", verdict=FAILS, margin=seq[-1][1],
                witness={"r0": _j(r0), "trade_sups": seq[-10:],
                         "diverges": True, "direction": "reports"},
                budget={"grid": len(grid)})
        grid_sup = max(grid_sup, max(sups))
    verdict = HOLDS if _is_exhaustive(rule, grid) else HOLDS_AT_BUDGET
    return AxiomReport(axiom="WCL", verdict=verdict, margin=grid_sup,
                       witness={"grid_sup": grid_sup},
                       budget={"grid": len(grid)})


# ---------------------------------------------------------------------------
# neutralization family


def _improved(new_inf: float, base: float, delta: float) -> bool:
    if base == -INF:
        return new_inf > -INF
    return new_inf > base + delta


def _scenario_candidates(rule: ScoringRule, r2, cfg: SearchConfig,
                         analytic) -> list:
    shares = getattr(rule, "shares", None)
    if shares is not None and shares.is_lattice:
        base_q = np.atleast_1d(np.asarray(r2, dtype=float))
        pts = shares.lattice_points(cfg.lattice_bound)
        cands = [float((base_q + w)[0]) if len(w) == 1 else base_q + w
                 for w in pts]
        if analytic is not None and rule.report_space.contains(analytic):
            cands.insert(0, analytic)
        return cands
    cands = []
    if analytic is not None and rule.report_space.contains(analytic):
        cands.append(analytic)
    # local moves around the state: small trades are the improving ones for
    # share-like markets whose cash is itself a security
    if isinstance(rule.report_space, RealReports):
        span = cfg.report_window[1] - cfg.report_window[0]
    elif isinstance(rule.report_space, BoxReports) and rule.report_space.dim == 1:
        span = rule.report_space.hi[0] - rule.report_space.lo[0]
    else:
        span = None
    if span is not None and np.isscalar(r2):
        step = 0.3 * span
        while step > 1e-4 * span:
            for cand in (r2 + step, r2 - step):
                if rule.report_space.contains(cand):
                    cands.append(float(cand))
            step *= 0.5
    cands.extend(cfg.candidate_grid(rule))
    return cands


def check_wn(rule: ScoringRule, scenarios=None,
             cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """Weak neutralization: some candidate trade strictly raises the held
    contract's worst-case payoff."""
    rng = cfg.rng()
    if scenarios is None:
        scenarios = scenario_triples(cfg.report_grid(rule),
                                     cfg.scenario_count, rng)
    degenerate = 0
    best_overall = INF
    for (r1, r1p, r2) in scenarios:
        held = rule.trade_contract(r1, r1p)
        flat, _ = contract_is_constant(held)
        if flat:
            degenerate += 1
            continue
        base, _ = contract_bounds(held)
        cands = _scenario_candidates(rule, r2, cfg,
                                     rule.wn_candidate(r1, r1p, r2))
        best, best_c = -INF, None
        entries = []
        for c in cands:
            comb = combine([held, rule.trade_contract(r2, c)], [1.0, 1.0])
            lo, _ = contract_bounds(comb)
            if lo > best:
                best, best_c = lo, c
            if _improved(lo, base, cfg.delta):
                break
        if not _improved(best, base, cfg.delta):
            for c in cands:
                comb = combine([held, rule.trade_contract(r2, c)], [1.0, 1.0])
                lo, _ = contract_bounds(comb)
                y_bad, v_bad, _ = contract_argmin(comb)
                entries.append({"candidate": _j(c), "inf": lo,
                                "bad_outcome": _j(y_bad), "value": v_bad})
            margin = (best - base) if base > -INF else 0.0
            return AxiomReport(
                axiom="WN", verdict=FAILS, margin=margin,
                witness={"scenario": {"r1": _j(r1), "r1_new": _j(r1p),
                                      "state": _j(r2)},
                         "held_inf": base, "candidates": entries},
                budget={"scenarios": len(scenarios),
                        "candidates": len(cands)})
        gain = (best - base) if base > -INF else INF
        best_overall = min(best_overall, gain)
    return AxiomReport(axiom="WN", verdict=HOLDS_AT_BUDGET,
                       margin=best_overall if best_overall < INF else 0.0,
                       budget={"scenarios": len(scenarios),
                               "degenerate": degenerate})


def check_tn(rule: ScoringRule, scenarios=None,
             cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """Trade neutralization: some candidate trade turns the held contract
    into cash strictly above its worst-case payoff."""
    rng = cfg.rng()
    if scenarios is None:
        scenarios = scenario_triples(cfg.report_grid(rule),
                                     cfg.scenario_count, rng)
    degenerate = 0
    worst_level = INF
    for (r1, r1p, r2) in scenarios:
        held = rule.trade_contract(r1, r1p)
        flat, _ = contract_is_constant(held)
        if flat:
            degenerate += 1
            continue
        base, _ = contract_bounds(held)
        cands = _scenario_candidates(rule, r2, cfg,
                                     rule.tn_candidate(r1, r1p, r2))
        found = None
        entries = []
        for c in cands:
            comb = combine([held, rule.trade_contract(r2, c)], [1.0, 1.0])
            is_flat, level = contract_is_constant(comb, tol=1e-9)
            if is_flat and _improved(level, base, cfg.delta):
                found = (c, level)
                break
        if found is None:
            for c in cands[:80]:
                comb = combine([held, rule.trade_contract(r2, c)], [1.0, 1.0])
                is_flat, level = contract_is_constant(comb, tol=1e-9)
                lo, hi = contract_bounds(comb)
                entries.append({"candidate": _j(c), "flat": bool(is_flat),
                                "level": level if is_flat else None,
                                "spread": (hi - lo) if math.isfinite(hi - lo)
                                else INF})
            flats = [e["level"] for e in entries if e["flat"]]
            margin = (max(flats) - base) if flats and base > -INF else -INF
            return AxiomReport(
                axiom="TN", verdict=FAILS,
                margin=margin if margin > -INF else 0.0,
                witness={"scenario": {"r1": _j(r1), "r1_new": _j(r1p),
                                      "state": _j(r2)},
                         "held_inf": base, "candidates": entries},
                budget={"scenarios": len(scenarios),
                        "candidates": len(cands)})
        gain = (found[1] - base) if base > -INF else INF
        worst_level = min(worst_level, gain)
    return AxiomReport(axiom="TN", verdict=HOLDS_AT_BUDGET,
                       margin=worst_level if worst_level < INF else 0.0,
                       budget={"scenarios": len(scenarios),
                               "degenerate": degenerate})


def check_pn(rule: ScoringRule, portfolios=None,
             cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """Portfolio neutralization: one trade converts the whole held portfolio
    into cash strictly above its worst-case payoff."""
    rng = cfg.rng()
    if portfolios is None:
        portfolios = portfolio_scenarios(cfg.report_grid(rule),
                                         cfg.portfolio_count,
                                         cfg.portfolio_size, rng)
    degenerate = 0
    worst_gain = INF
    for trades, state in portfolios:
        position = combine([rule.trade_contract(a, b) for a, b in trades],
                           [1.0] * len(trades))
        flat, _ = contract_is_constant(position)
        if flat:
            degenerate += 1
            continue
        base, _ = contract_bounds(position)
        cands = _scenario_candidates(rule, state, cfg,
                                     rule.pn_candidate(trades, state))
        found = None
        entries = []
        for c in cands:
            comb = combine([position, rule.trade_contract(state, c)],
                           [1.0, 1.0])
            is_flat, level = contract_is_constant(comb, tol=1e-9)
            if is_flat and _improved(level, base, cfg.delta):
                found = (c, level)
                break
        if found is None:
            for c in cands[:80]:
                comb = combine([position, rule.trade_contract(state, c)],
                               [1.0, 1.0])
                is_flat, level = contract_is_constant(comb, tol=1e-9)
                lo, hi = contract_bounds(comb)
                entries.append({"candidate": _j(c), "flat": bool(is_flat),
                                "level": level if is_flat else None,
                                "spread": (hi - lo) if math.isfinite(hi - lo)
                                else INF})
            return AxiomReport(
                axiom="PN", verdict=FAILS, margin=0.0,
                witness={"portfolio": [[_j(a), _j(b)] for a, b in trades],
                         "state": _j(state), "position_inf": base,
                         "candidates": entries},
                budget={"portfolios": len(portfolios)})
        gain = (found[1] - base) if base > -INF else INF
        worst_gain = min(worst_gain, gain)
    return AxiomReport(axiom="PN", verdict=HOLDS_AT_BUDGET,
                       margin=worst_gain if worst_gain < INF else 0.0,
                       budget={"portfolios": len(portfolios),
                               "degenerate": degenerate})


# ---------------------------------------------------------------------------
# bounded trader budget


def check_btb(rule: ScoringRule, belief: Belief, state, epsilons=None,
              cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """Arbitrarily small budgets still admit positive-expectation trades:
    for each budget, some trade risks less than it and gains in
    expectation."""
    if epsilons is None:
        epsilons = cfg.epsilons
    target = min_label(rule.property_value(belief))
    t_arr = np.atleast_1d(np.asarray(target, dtype=float)) \
        if not isinstance(rule.report_space, FiniteReports) else None
    if isinstance(rule.report_space, FiniteReports):
        if target == state:
            raise ValueError("precondition: the belief's statistic differs "
                             "from the market state")
        candidates = [r for r in rule.report_space.labels if r != state]
    else:
        s_arr = np.atleast_1d(np.asarray(state, dtype=float))
        if float(np.max(np.abs(t_arr - s_arr))) <= 1e-12:
            raise ValueError("precondition: the belief's statistic differs "
                             "from the market state")
        candidates = []
        for i in range(55):
            step = (t_arr - s_arr) * (0.5 ** i)
            cand = s_arr + step
            candidates.append(cand if len(cand) > 1 else float(cand[0]))
    results = []
    worst_ok = INF
    for eps in epsilons:
        hit = None
        entries = []
        for c in candidates:
            d = rule.trade_contract(state, c)
            lo, _ = contract_bounds(d)
            gain = expected_payoff(d, belief)
            if lo > -eps and gain > cfg.delta:
                hit = {"epsilon": eps, "trade_to": _j(c), "inf": lo,
                       "expected": gain}
                worst_ok = min(worst_ok, min(lo + eps, gain))
                break
            entries.append({"candidate": _j(c), "inf": lo, "expected": gain})
        if hit is None:
            return AxiomReport(
                axiom="BTB", verdict=FAILS, margin=0.0,
                witness={"epsilon": eps, "state": _j(state),
                         "belief": belief.to_dict(), "candidates": entries},
                budget={"epsilons": list(epsilons),
                        "candidates": len(candidates)})
        results.append(hit)
    return AxiomReport(axiom="BTB", verdict=HOLDS_AT_BUDGET,
                       margin=worst_ok if worst_ok < INF else 0.0,
                       witness={"trades": results},
                       budget={"epsilons": list(epsilons),
                               "candidates": len(candidates)})


# ---------------------------------------------------------------------------
# witness replay


def replay_witness(rule: ScoringRule, report: AxiomReport) -> float:
    """Recompute a fails-witness through sessions and contract primitives;
    returns the recomputed violation margin.

    Raises if the witness does not reproduce the violating inequality."""
    if report.verdict != FAILS:
        raise ValueError("only fails verdicts carry replayable witnesses")
    w = report.witness
    axiom = report.axiom
    if axiom == "ARB":
        worst = -INF
        for pair in w["pairs"]:
            session = MarketSession(rule, _unj(pair["r"]))
            d = session.execute_trade("replay", _unj(pair["r_new"]))
            lo, _ = contract_bounds(d)
            if abs(lo - pair["inf"]) > 1e-9:
                raise AssertionError("ARB witness does not reproduce")
            worst = max(worst, lo)
        if worst <= 0:
            raise AssertionError("ARB witness no longer violates")
        return worst
    if axiom == "WCL":
        if "losses" in w:
            session = MarketSession(rule, _unj(w["r0"]))
            d = session.execute_trade("replay", _unj(w["trade_to"]))
            vals = [d(_unj(y)) for y, _ in w["losses"]]
            for v, (_, stored) in zip(vals, w["losses"]):
                if abs(v - stored) > 1e-6 * max(1.0, abs(stored)):
                    raise AssertionError("WCL witness does not reproduce")
            if not vals[-1] > vals[0]:
                raise AssertionError("WCL loss sequence is not increasing")
            return vals[-1]
        worst = 0.0
        for r, stored in w["trade_sups"]:
            d = rule.trade_contract(_unj(w["r0"]), _unj(r))
            _, hi = contract_bounds(d)
            if abs(hi - stored) > 1e-6 * max(1.0, abs(stored)):
                raise AssertionError("WCL witness does not reproduce")
            worst = max(worst, hi)
        return worst
    if axiom == "WN":
        sc = w["scenario"]
        held = rule.trade_contract(_unj(sc["r1"]), _unj(sc["r1_new"]))
        base, _ = contract_bounds(held)
        if base == -INF:
            raise AssertionError("WN fails-witness needs a bounded held trade")
        if abs(base - w["held_inf"]) > 1e-9:
            raise AssertionError("WN witness base does not reproduce")
        best = -INF
        for e in w["candidates"]:
            comb = combine(
                [held, rule.trade_contract(_unj(sc["state"]),
                                           _unj(e["candidate"]))], [1.0, 1.0])
            # the payoff at the stored bad outcome caps the candidate's
            # infimum; it must certify no improvement beyond the margin
            v = comb(_unj(e["bad_outcome"]))
            if v > base + 2e-9:
                raise AssertionError("WN candidate improves after all")
            best = max(best, v - base)
        return best
    if axiom == "TN":
        sc = w["scenario"]
        held = rule.trade_contract(_unj(sc["r1"]), _unj(sc["r1_new"]))
        base, _ = contract_bounds(held)
        for e in w["candidates"]:
            comb = combine(
                [held, rule.trade_contract(_unj(sc["state"]),
                                           _unj(e["candidate"]))], [1.0, 1.0])
            flat, level = contract_is_constant(comb, tol=1e-9)
            if flat != e["flat"]:
                raise AssertionError("TN witness flatness flipped")
            if flat and level > base + 1e-9:
                raise AssertionError("TN candidate neutralizes after all")
        return report.margin
    if axiom == "PN":
        trades = [( _unj(a), _unj(b)) for a, b in w["portfolio"]]
        position = combine([rule.trade_contract(a, b) for a, b in trades],
                           [1.0] * len(trades))
        base, _ = contract_bounds(position)
        for e in w["candidates"]:
            comb = combine(
                [position, rule.trade_contract(_unj(w["state"]),
                                               _unj(e["candidate"]))],
                [1.0, 1.0])
            flat, level = contract_is_constant(comb, tol=1e-9)
            if flat and level > base + 1e-9:
                raise AssertionError("PN candidate neutralizes after all")
        return report.margin
    if axiom == "BTB":
        eps = w["epsilon"]
        belief = _belief_from_dict(rule, w["belief"])
        state = _unj(w["state"])
        for e in w["candidates"]:
            d = rule.trade_contract(state, _unj(e["candidate"]))
            lo, _ = contract_bounds(d)
            gain = expected_payoff(d, belief)
            if lo > -eps + 1e-12 and gain > 1e-9:
                raise AssertionError("BTB candidate works after all")
        return report.margin
    if axiom == "IC":
        belief = _belief_from_dict(rule, w["belief"])
        state = _unj(w["state"])
        pick = _unj(w["argmax"])
        d = rule.trade_contract(state, pick)
        score = expected_payoff(d, belief)
        if abs(score - w["argmax_score"]) > 1e-9:
            raise AssertionError("IC witness does not reproduce")
        return report.margin
    raise ValueError(f"no replay path for axiom {axiom}")


def _unj(v):
    if isinstance(v, list):
        return np.asarray(v, dtype=float)
    return v


def _belief_from_dict(rule: ScoringRule, d: dict) -> Belief:
    if "pmf" in d:
        return finite_belief(rule.outcome_space, d["pmf"])
    return cdf_belief(d["cdf"]["x"], d["cdf"]["F"])


def implication_chain_consistent(verdicts: dict) -> bool:
    """No instance may record (TN holds, WN fails) or (PN holds, TN fails)."""
    def ok(v):
        return v in (HOLDS, HOLDS_AT_BUDGET)

    if "TN" in verdicts and "WN" in verdicts:
        if ok(verdicts["TN"]) and verdicts["WN"] == FAILS:
            return False
    if "PN" in verdicts and "TN" in verdicts:
        if ok(verdicts["PN"]) and verdicts["TN"] == FAILS:
            return False
    return True
