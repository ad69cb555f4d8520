"""Checkers for the market axioms, each returning a verdict plus a witness.

Quantifiers over continuous report or outcome spaces are evaluated on
configured grids; such verdicts are ``holds-at-budget`` unless a
family-specific closed-form bound upgrades them to ``holds``.  Every
``fails`` verdict carries concrete data that replays through the contract
and session primitives alone.

The strictness margin ``delta`` separates the axioms' strict inequalities
from numerical ties.  ``AXIOMS`` maps each axiom name to its check, its
replay and the config keys it reads; the CLI and ``replay_witness`` both
dispatch through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

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
    trade_bounds,
    trade_rows,
    uniform_belief,
)
from .costmarket import (
    CostRule,
    check_open,
    check_quasi_open,
    market_subgroup,
    price_bound_check,
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


def _require_finite(finite) -> None:
    # trade_contract rejects a trade whose payoffs overflow
    if not np.all(finite):
        raise ValueError("payoffs must be finite")


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
        rows = trade_rows(table, state_rows[k])
        _require_finite(np.isfinite(rows))
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
    per-trade values within rounding.  Argmaxes that all lie in a
    set-valued property agree, whichever member rounding picks from each
    state.  A belief of the wrong kind for the outcome space raises
    ``OutcomeMismatch``."""
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
    budget = {"beliefs": len(beliefs), "grid": len(grid)}
    worst = 0.0
    for p in beliefs:
        _require_belief_kind(rule, p)
        gamma = rule.property_value(p)
        picks, scores = [], []
        for k, state in enumerate(states):
            vals = expected_trades(p, k)
            i = int(np.argmax(vals))
            pick = grid[i]
            picks.append(pick)
            scores.append(vals[i])
            gap = _ic_gap(pick, gamma)
            worst = max(worst, gap)
            if gap > step + 1e-9:
                return AxiomReport(
                    axiom="IC", verdict=FAILS, margin=gap,
                    witness={"belief": p.to_dict(), "state": _j(state),
                             "argmax": _j(pick), "property": _j(gamma),
                             "argmax_score": vals[i],
                             "grid_resolution": step},
                    budget=budget)
        if _ic_disagreement(picks, gamma):
            return AxiomReport(
                axiom="IC", verdict=FAILS, margin=1.0,
                witness={"belief": p.to_dict(),
                         "states": [_j(s) for s in states],
                         "argmaxes": [_j(r) for r in picks],
                         "argmax_scores": scores,
                         "reason": "argmax varies with the market state"},
                budget=budget)
    return AxiomReport(axiom="IC", verdict=HOLDS_AT_BUDGET, margin=worst,
                       budget={**budget, "states": len(states),
                               "grid_resolution": step})


def _ic_gap(pick, gamma) -> float:
    """Distance of a grid argmax from the property value; for a set-valued
    property 0 inside the set and 1 outside it."""
    if isinstance(gamma, tuple):
        return 0.0 if pick in gamma else 1.0
    return float(np.max(np.abs(
        np.atleast_1d(np.asarray(pick, dtype=float)) -
        np.atleast_1d(np.asarray(gamma, dtype=float)))))


def _ic_disagreement(picks, gamma) -> float:
    """1 when the argmaxes from different states differ, unless they all lie
    in a set-valued property; else 0."""
    if isinstance(gamma, tuple) and all(r in gamma for r in picks):
        return 0.0
    return float(any(_j(r) != _j(picks[0]) for r in picks))


def check_arb(rule: ScoringRule, grid=None,
              cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """No trade may pay strictly positively in every outcome:
    inf F(r'|r) <= 0 for all report pairs on the grid.

    Each grid report is scored once; ``contracts.trade_bounds`` gives the
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
    rows = trade_bounds([rule.score_contract(r) for r in grid])
    for r, (los, _, finite) in zip(grid, rows):
        hits = np.flatnonzero(los > delta)[:10 - len(bad)]
        # the scan stops at the 10th pair above delta
        stop = int(hits[-1]) + 1 if len(bad) + len(hits) >= 10 else len(grid)
        _require_finite(finite[:stop])
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


def _trade_sups(rule: ScoringRule, r0, reports) -> np.ndarray:
    """``contract_bounds(trade_contract(r0, r))[1]`` for each report r: the
    r0 row of one ``trade_bounds`` table."""
    score = rule.score_contract
    _, sups, finite = next(trade_bounds([score(r0)] +
                                        [score(r) for r in reports]))
    _require_finite(finite)
    return sups[1:]


def check_wcl(rule: ScoringRule, r0, cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """Bounded worst-case maker loss from the initial state r0.

    Unbounded single-trade payoffs fail with an outcome-sequence witness;
    unbounded growth along the report space fails with a report-sequence
    witness; a family closed-form bound upgrades the verdict to holds.  The
    trades from r0 are read off one trade table per report list; a trade
    contract is built only for a divergence witness."""
    grid = cfg.report_grid(rule)
    sups = _trade_sups(rule, r0, grid)
    # the first grid report whose trade attains the largest sup
    i = int(np.argmax(sups))
    if sups[i] == INF:
        if hasattr(rule, "divergence_probe") and getattr(rule, "phi", 1) is None:
            losses = rule.divergence_probe(r0)
            trade_to = float(r0) + 1.0
        else:
            losses = _outcome_probe(rule.trade_contract(r0, grid[i]))
            trade_to = grid[i]
        return AxiomReport(
            axiom="WCL", verdict=FAILS, margin=losses[-1][1],
            witness={"r0": _j(r0), "trade_to": _j(trade_to),
                     "losses": [[_j(y), v] for y, v in losses],
                     "diverges": True},
            budget={"grid": len(grid)})
    # the grid sup, and the report it is attained at (r0 for the null trade)
    grid_sup, sup_at = (float(sups[i]), grid[i]) if sups[i] > 0.0 else (0.0, r0)
    bound = rule.loss_bound(r0)
    if bound is not None:
        if grid_sup > bound + 1e-9:
            return AxiomReport(axiom="WCL", verdict=FAILS, margin=grid_sup,
                               witness={"reason": "closed-form bound violated",
                                        "bound": bound, "grid_sup": grid_sup,
                                        "r0": _j(r0), "trade_to": _j(sup_at)},
                               budget={"grid": len(grid)})
        return AxiomReport(axiom="WCL", verdict=HOLDS, margin=bound,
                           witness={"bound": bound, "grid_sup": grid_sup},
                           budget={"grid": len(grid)})
    if isinstance(rule.report_space, RealReports):
        base = max(abs(cfg.report_window[0]), abs(cfg.report_window[1]), 1.0)
        cands = [c for r in (base * 4.0 ** i for i in range(10))
                 for c in (r, -r)]
        sups = _trade_sups(rule, r0, cands)
        seq = [[c, float(s)] for c, s in zip(cands, sups)]
        if sups.max() > 10.0 * grid_sup + 100.0:
            seq.sort(key=lambda e: e[1])
            return AxiomReport(
                axiom="WCL", verdict=FAILS, margin=seq[-1][1],
                witness={"r0": _j(r0), "trade_sups": seq[-10:],
                         "diverges": True, "direction": "reports"},
                budget={"grid": len(grid)})
        grid_sup = max(grid_sup, float(sups.max()))
    verdict = HOLDS if _is_exhaustive(rule, grid) else HOLDS_AT_BUDGET
    return AxiomReport(axiom="WCL", verdict=verdict, margin=grid_sup,
                       witness={"grid_sup": grid_sup},
                       budget={"grid": len(grid)})


# ---------------------------------------------------------------------------
# neutralization family
#
# WN, TN and PN ask one question: does some trade from the market state lift
# a held position above its worst-case payoff?  They differ in the position
# (one held trade, or a portfolio of them) and in the value of held + trade
# that must beat it: its own worst-case payoff for WN, its cash level for TN
# and PN, which is -inf unless held + trade is flat.


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


def _cash_level(net) -> float:
    flat, level = contract_is_constant(net, tol=1e-9)
    return level if flat else -INF


def _worst_entry(net, c) -> dict:
    y_bad, v_bad, _ = contract_argmin(net)
    return {"candidate": _j(c), "inf": contract_bounds(net)[0],
            "bad_outcome": _j(y_bad), "value": v_bad}


def _cash_entry(net, c) -> dict:
    flat, level = contract_is_constant(net, tol=1e-9)
    lo, hi = contract_bounds(net)
    return {"candidate": _j(c), "flat": bool(flat),
            "level": level if flat else None,
            "spread": (hi - lo) if math.isfinite(hi - lo) else INF}


class _Position(NamedTuple):
    """What a scenario holds: one trade r1 -> r1' with the market at r2 (WN,
    TN), or a portfolio of trades with the market at a state (PN)."""
    count: str          # budget key of the scenario count
    sample: Callable    # (rule, cfg) -> the seeded scenarios
    hold: Callable      # (rule, scenario) -> (held contract, market state)
    failure: Callable   # (scenario, held inf, entries, n, k) -> witness, budget
    read: Callable      # witness -> scenario


_ONE_TRADE = _Position(
    "scenarios",
    lambda rule, cfg: scenario_triples(cfg.report_grid(rule),
                                       cfg.scenario_count, cfg.rng()),
    lambda rule, sc: (rule.trade_contract(sc[0], sc[1]), sc[2]),
    lambda sc, base, entries, n, k: (
        {"scenario": {"r1": _j(sc[0]), "r1_new": _j(sc[1]), "state": _j(sc[2])},
         "held_inf": base, "candidates": entries},
        {"scenarios": n, "candidates": k}),
    lambda w: tuple(_unj(w["scenario"][key]) for key in ("r1", "r1_new", "state")))

_PORTFOLIO = _Position(
    "portfolios",
    lambda rule, cfg: portfolio_scenarios(cfg.report_grid(rule), cfg.portfolio_count,
                                          cfg.portfolio_size, cfg.rng()),
    lambda rule, sc: (combine([rule.trade_contract(a, b) for a, b in sc[0]],
                              [1.0] * len(sc[0])), sc[1]),
    lambda sc, base, entries, n, k: (
        {"portfolio": [[_j(a), _j(b)] for a, b in sc[0]], "state": _j(sc[1]),
         "position_inf": base, "candidates": entries},
        {"portfolios": n}),
    lambda w: ([(_unj(a), _unj(b)) for a, b in w["portfolio"]], _unj(w["state"])))

# axiom -> (position, analytic-candidate hook, value of held + trade that
#           must beat the held infimum, failure entry, failure entries kept)
_NEUTRALIZATION = {
    "WN": (_ONE_TRADE, "wn_candidate", lambda net: contract_bounds(net)[0],
           _worst_entry, None),
    "TN": (_ONE_TRADE, "tn_candidate", _cash_level, _cash_entry, 80),
    "PN": (_PORTFOLIO, "pn_candidate", _cash_level, _cash_entry, 80),
}


def _net(rule, held, state, c):
    return combine([held, rule.trade_contract(state, c)], [1.0, 1.0])


def _failure(axiom: str, rule, scenario, cands, n: int, k: int) -> tuple:
    """(held infimum, values, margin, witness, budget) of a failing
    scenario, from the value and the entry of each candidate it lists."""
    position, _, value, entry, _ = _NEUTRALIZATION[axiom]
    held, state = position.hold(rule, scenario)
    base, _ = contract_bounds(held)
    nets = [_net(rule, held, state, c) for c in cands]
    values = [value(net) for net in nets]
    gap = max(values, default=-INF) - base  # 0 when either side is infinite
    witness, budget = position.failure(
        scenario, base, [entry(net, c) for net, c in zip(nets, cands)], n, k)
    return base, values, gap if math.isfinite(gap) else 0.0, witness, budget


def _neutralize(axiom: str, rule: ScoringRule, scenarios,
                cfg: SearchConfig) -> AxiomReport:
    """The WN/TN/PN check: every non-degenerate scenario needs a candidate
    whose value beats the held infimum by more than ``cfg.delta``; the first
    scenario without one fails, listing its candidates' entries."""
    position, hook, value, _, cap = _NEUTRALIZATION[axiom]
    if scenarios is None:
        scenarios = position.sample(rule, cfg)
    degenerate = 0
    worst = INF
    for scenario in scenarios:
        held, state = position.hold(rule, scenario)
        if contract_is_constant(held)[0]:
            degenerate += 1
            continue
        base, _ = contract_bounds(held)
        cands = _scenario_candidates(rule, state, cfg,
                                     getattr(rule, hook)(*scenario))
        for c in cands:
            best = value(_net(rule, held, state, c))
            if _improved(best, base, cfg.delta):
                break
        else:
            _, _, margin, witness, budget = _failure(
                axiom, rule, scenario, cands[:cap], len(scenarios), len(cands))
            return AxiomReport(axiom=axiom, verdict=FAILS, margin=margin,
                               witness=witness, budget=budget)
        worst = min(worst, (best - base) if base > -INF else INF)
    return AxiomReport(axiom=axiom, verdict=HOLDS_AT_BUDGET,
                       margin=worst if worst < INF else 0.0,
                       budget={position.count: len(scenarios),
                               "degenerate": degenerate})


def check_wn(rule: ScoringRule, scenarios=None,
             cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """Weak neutralization: some candidate trade strictly raises the held
    contract's worst-case payoff."""
    return _neutralize("WN", rule, scenarios, cfg)


def check_tn(rule: ScoringRule, scenarios=None,
             cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """Trade neutralization: some candidate trade turns the held contract
    into cash strictly above its worst-case payoff."""
    return _neutralize("TN", rule, scenarios, cfg)


def check_pn(rule: ScoringRule, portfolios=None,
             cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """Portfolio neutralization: one trade converts the whole held portfolio
    into cash strictly above its worst-case payoff."""
    return _neutralize("PN", rule, portfolios, cfg)


# ---------------------------------------------------------------------------
# bounded trader budget


def _btb_entry(rule: ScoringRule, belief: Belief, state, c) -> dict:
    d = rule.trade_contract(state, c)
    return {"candidate": _j(c), "inf": contract_bounds(d)[0],
            "expected": expected_payoff(d, belief)}


def _btb_margin(entries, eps: float, delta: float) -> float:
    """The best candidate's slack min(inf + eps, expected - delta), clipped
    at 0: a budget that no candidate meets has none."""
    return max([0.0] + [min(e["inf"] + eps, e["expected"] - delta)
                        for e in entries])


def check_btb(rule: ScoringRule, belief: Belief, state, epsilons=None,
              cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """Arbitrarily small budgets still admit positive-expectation trades:
    for each budget, some trade risks less than it and gains in
    expectation."""
    if epsilons is None:
        epsilons = cfg.epsilons
    target = min_label(rule.property_value(belief))
    if isinstance(rule.report_space, FiniteReports):
        at_target = target == state
        candidates = [r for r in rule.report_space.labels if r != state]
    else:
        t_arr = np.atleast_1d(np.asarray(target, dtype=float))
        s_arr = np.atleast_1d(np.asarray(state, dtype=float))
        at_target = float(np.max(np.abs(t_arr - s_arr))) <= 1e-12
        candidates = []
        for i in range(55):
            cand = s_arr + (t_arr - s_arr) * (0.5 ** i)
            candidates.append(cand if len(cand) > 1 else float(cand[0]))
    if at_target:
        raise ValueError("precondition: the belief's statistic differs "
                         "from the market state")
    budget = {"epsilons": list(epsilons), "candidates": len(candidates)}
    results = []
    worst_ok = INF
    for eps in epsilons:
        entries = []
        for c in candidates:
            e = _btb_entry(rule, belief, state, c)
            if e["inf"] > -eps and e["expected"] > cfg.delta:
                results.append({"epsilon": eps, "trade_to": e["candidate"],
                                "inf": e["inf"], "expected": e["expected"]})
                worst_ok = min(worst_ok, e["inf"] + eps, e["expected"])
                break
            entries.append(e)
        else:
            return AxiomReport(
                axiom="BTB", verdict=FAILS,
                margin=_btb_margin(entries, eps, cfg.delta),
                witness={"epsilon": eps, "state": _j(state),
                         "belief": belief.to_dict(), "candidates": entries},
                budget=budget)
    return AxiomReport(axiom="BTB", verdict=HOLDS_AT_BUDGET,
                       margin=worst_ok if worst_ok < INF else 0.0,
                       witness={"trades": results}, budget=budget)


# ---------------------------------------------------------------------------
# witness replay
#
# A replay rebuilds a fails witness from the rule alone.  It recomputes the
# numbers the witness stores with the check's own code, and the margin from
# them as the check computed it; ``replay_witness`` raises AssertionError
# when a recomputed number differs from the stored one by more than 1e-9
# (relative above 1), and each replay raises when the violation no longer
# holds.


def replay_witness(rule: ScoringRule, report: AxiomReport) -> float:
    """The violation margin of a fails-witness, recomputed through sessions
    and contract primitives; raises if the witness does not reproduce."""
    if report.verdict != FAILS:
        raise ValueError("only fails verdicts carry replayable witnesses")
    axiom = AXIOMS.get(report.axiom)
    if axiom is None or axiom.replay is None:
        raise ValueError(f"no replay path for axiom {report.axiom}")
    recomputed, margin = axiom.replay(rule, report)
    _expect(_same(recomputed, {k: report.witness[k] for k in recomputed}),
            report.axiom, "does not reproduce")
    return float(margin)


def _same(a, b, tol: float = 1e-9) -> bool:
    """JSON-like values equal up to tol * max(1, |b|) in every number."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and \
            all(_same(a[k], b[k], tol) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and \
            all(_same(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, (int, float)) and a != b:
        return abs(a - b) <= tol * max(1.0, abs(b))
    return a == b


def _expect(holds: bool, axiom: str, what: str) -> None:
    if not holds:
        raise AssertionError(f"{axiom} witness {what}")


# each replay: (rule, fails report) -> (recomputed witness entries, margin)


def _replay_arb(rule, report) -> tuple:
    pairs = []
    for p in report.witness["pairs"]:
        d = MarketSession(rule, _unj(p["r"])).execute_trade("replay",
                                                            _unj(p["r_new"]))
        pairs.append({**p, "inf": contract_bounds(d)[0]})
    margin = max(p["inf"] for p in pairs)
    _expect(margin > 0, "ARB", "no longer violates")
    return {"pairs": pairs}, margin


def _replay_wcl(rule, report) -> tuple:
    w = report.witness
    r0 = _unj(w["r0"])
    if "bound" in w:
        bound = rule.loss_bound(r0)
        grid_sup = contract_bounds(
            rule.trade_contract(r0, _unj(w["trade_to"])))[1]
        _expect(grid_sup > bound + 1e-9, "WCL", "bound holds after all")
        return {"bound": bound, "grid_sup": grid_sup}, grid_sup
    if "losses" in w:
        d = MarketSession(rule, r0).execute_trade("replay", _unj(w["trade_to"]))
        losses = [[y, d(_unj(y))] for y, _ in w["losses"]]
        _expect(losses[-1][1] > losses[0][1], "WCL", "losses do not grow")
        return {"losses": losses}, losses[-1][1]
    sups = [[r, contract_bounds(rule.trade_contract(r0, _unj(r)))[1]]
            for r, _ in w["trade_sups"]]
    return {"trade_sups": sups}, max(s for _, s in sups)


def _replay_neutralization(rule, report) -> tuple:
    """WN, TN and PN: the held position and each listed candidate's value
    and entry, recomputed with the check's own functions."""
    w = report.witness
    scenario = _NEUTRALIZATION[report.axiom][0].read(w)
    base, values, margin, witness, _ = _failure(
        report.axiom, rule, scenario,
        [_unj(e["candidate"]) for e in w["candidates"]], 0, 0)
    _expect(not any(_improved(v, base, SearchConfig.delta) for v in values),
            report.axiom, "candidate improves after all")
    return witness, margin


def _replay_btb(rule, report) -> tuple:
    w = report.witness
    belief = build_belief(w["belief"], rule.outcome_space)
    entries = [_btb_entry(rule, belief, _unj(w["state"]), _unj(e["candidate"]))
               for e in w["candidates"]]
    margin = _btb_margin(entries, w["epsilon"], SearchConfig.delta)
    _expect(margin == 0.0, "BTB", "candidate meets the budget after all")
    return {"candidates": entries}, margin


def _replay_ic(rule, report) -> tuple:
    w = report.witness
    belief = build_belief(w["belief"], rule.outcome_space)
    gamma = rule.property_value(belief)
    if "argmaxes" in w:
        picks = [_unj(r) for r in w["argmaxes"]]
        scores = [expected_payoff(rule.trade_contract(_unj(s), r), belief)
                  for s, r in zip(w["states"], picks)]
        margin = _ic_disagreement(picks, gamma)
        _expect(margin > 0, "IC", "argmaxes agree after all")
        return {"argmax_scores": scores}, margin
    pick = _unj(w["argmax"])
    gap = _ic_gap(pick, gamma)
    _expect(gap > w["grid_resolution"] + 1e-9, "IC",
            "argmax lies within a grid step after all")
    score = expected_payoff(rule.trade_contract(_unj(w["state"]), pick), belief)
    return {"argmax_score": score, "property": _j(gamma)}, gap


def _unj(v):
    if isinstance(v, list):
        return np.asarray(v, dtype=float)
    return v


# ---------------------------------------------------------------------------
# the axiom table: what each axiom runs, replays and reads from a config


class ConfigError(ValueError):
    """A config that cannot be run as written."""


def config_block(block, where: str, required=(), optional=()) -> dict:
    """``block``, once it is an object holding every required key and no
    key outside required + optional."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    missing = [key for key in required if key not in block]
    unknown = sorted(set(block) - set(required) - set(optional))
    if missing or unknown:
        raise ConfigError(f"{where} has no {missing[0]!r} entry" if missing
                          else f"{where} has unknown keys {unknown}")
    return block


def build_belief(spec, space) -> Belief:
    """The belief a pmf, cdf or uniform spec describes; pmf and cdf are the
    forms ``Belief.to_dict`` writes."""
    try:
        if "pmf" in spec:
            return finite_belief(space, spec["pmf"])
        if "cdf" in spec:
            return cdf_belief(spec["cdf"]["x"], spec["cdf"]["F"])
        if "uniform" in spec:
            return uniform_belief(*spec["uniform"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"belief {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown belief spec {spec!r}")


def _scenarios(rule, config):
    """Every (r1, r1', r2) triple of a finite report space when the search
    block asks for them; None, for the seeded sample, otherwise."""
    if config.get("search", {}).get("exhaustive_scenarios") and \
            isinstance(rule.report_space, FiniteReports):
        return exhaustive_triples(list(rule.report_space.labels))


def _run_ic(rule, config, cfg) -> AxiomReport:
    beliefs = config.get("ic_beliefs")
    if beliefs is not None:
        beliefs = [build_belief(b, rule.outcome_space) for b in beliefs]
    return check_ic(rule, beliefs, cfg)


def _run_btb(rule, config, cfg) -> AxiomReport:
    btb = config_block(config["btb"], "the btb block", ("state", "belief"),
                       ("epsilons",))
    belief = build_belief(btb["belief"], rule.outcome_space)
    try:  # a state outside the reports, or at the belief's statistic
        return check_btb(rule, belief, btb["state"],
                         tuple(btb.get("epsilons", cfg.epsilons)), cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cost_market(check):
    """A structure check that applies to cost markets only."""
    def run(rule, config, cfg):
        if not isinstance(rule, CostRule):
            raise ConfigError("applies to cost markets")
        return check(rule, config, cfg)
    return run


def _run_subgroup(rule, config, cfg) -> AxiomReport:
    if not (isinstance(rule.report_space, FiniteReports) or
            isinstance(rule, CostRule) and rule.shares.is_lattice):
        raise ConfigError("needs a finite rule or a lattice market")
    return market_subgroup(rule, cfg.lattice_bound)


class Axiom(NamedTuple):
    check: Callable           # (rule, config, cfg) -> AxiomReport
    replay: Callable | None   # (rule, fails report) -> recomputed entries,
    #                           margin
    needs: tuple = ()         # config keys it reads; "?" marks optional


AXIOMS = {
    "ARB": Axiom(lambda r, c, cfg: check_arb(r, cfg=cfg), _replay_arb),
    "WCL": Axiom(lambda r, c, cfg: check_wcl(r, c["r0"], cfg), _replay_wcl,
                 ("r0",)),
    "IC": Axiom(_run_ic, _replay_ic, ("ic_beliefs?",)),
    "WN": Axiom(lambda r, c, cfg: check_wn(r, _scenarios(r, c), cfg),
                _replay_neutralization),
    "TN": Axiom(lambda r, c, cfg: check_tn(r, _scenarios(r, c), cfg),
                _replay_neutralization),
    "PN": Axiom(lambda r, c, cfg: check_pn(r, None, cfg),
                _replay_neutralization),
    "BTB": Axiom(_run_btb, _replay_btb, ("btb",)),
    "OPEN": Axiom(_cost_market(lambda r, c, cfg: check_open(r, cfg.rng())),
                  None),
    "QUASI-OPEN": Axiom(_cost_market(lambda r, c, cfg: check_quasi_open(
        r, cfg.lattice_bound, cfg.rng())), None),
    "PRICE-BOUND": Axiom(_cost_market(lambda r, c, cfg: price_bound_check(
        r, c.get("price_bound_trials", 1000), cfg.rng())), None,
        ("price_bound_trials?",)),
    "SUBGROUP": Axiom(_run_subgroup, None),
}
