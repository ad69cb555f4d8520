"""Checkers for the market axioms, each returning a verdict plus a witness.

Quantifiers over continuous report or outcome spaces are evaluated on
configured grids; such verdicts are ``holds-at-budget`` unless a
family-specific closed-form bound upgrades them to ``holds``.  Every
``fails`` verdict carries concrete data that replays through the contract
and session primitives alone.

The strictness margin ``delta`` separates the axioms' strict inequalities
from numerical ties.  ``AXIOMS`` maps each axiom name to its check, its
replay and the markets it applies to; the CLI and ``replay_witness`` both
dispatch through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np

from .contracts import (
    INF,
    REPLAY_TOL,
    STRUCT_TOL,
    VERDICT_TOL,
    Belief,
    OutcomeMismatch,
    PayoffOverflow,
    Rows,
    cdf_belief,
    combine,
    contract_argmin,
    contract_bounds,
    contract_is_constant,
    expected_payoff,
    finite_belief,
    stack_pieces,
    sum_rows,
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
from .scoring import (
    BoxReports,
    FiniteReports,
    RealReports,
    ScoringRule,
)


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
        # the least value of each integer field: grids need their ends, and
        # no budget may be empty
        for name, least in (("report_points", 2), ("candidate_points", 2),
                            ("scenario_count", 1), ("portfolio_count", 1),
                            ("portfolio_size", 1), ("ic_beliefs", 1),
                            ("lattice_bound", 1), ("seed", 0)):
            n = getattr(self, name)
            if not isinstance(n, Integral) or isinstance(n, bool) or n < least:
                raise ValueError(f"{name} must be an integer of at least "
                                 f"{least}, not {n!r}")
        if not self.report_window[0] < self.report_window[1]:
            raise ValueError(f"report_window {self.report_window!r} must ascend")
        if self.delta <= 0:
            raise ValueError("strictness margin must be positive")

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


def random_cdf_belief(rng: np.random.Generator,
                      window: tuple = (-4.0, 4.0)) -> Belief:
    """A piecewise-linear CDF on the window with 6 seeded knots."""
    a, b = window
    gx = np.cumsum(rng.uniform(0.5, 1.5, size=6))
    xs = a + (b - a) * (gx - gx[0]) / (gx[-1] - gx[0])
    gf = np.cumsum(rng.uniform(0.5, 1.5, size=6))
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
        raise PayoffOverflow("payoffs must be finite")


def check_ic(rule: ScoringRule, beliefs: list[Belief] | None = None,
             cfg: SearchConfig = SearchConfig(), states=None) -> AxiomReport:
    """Grid argmax of the expected trade payoff must match the elicited
    statistic, from every market state (the argmax is state-free because
    payments telescope).

    Each grid report and each state is scored once (``score_stack``), and
    each belief reads all their expected scores in one ``stack_scores``:
    the expected payoff of the trade s -> r is E_p S(r) - E_p S(s), by
    linearity, equal to the per-trade value within rounding.  Argmaxes
    that all lie in a set-valued property agree, whichever member rounding
    picks from each state.  A trade whose payoffs overflow over a finite
    outcome space raises ``PayoffOverflow`` before any belief is judged; a
    belief of the wrong kind for the outcome space raises
    ``OutcomeMismatch``, and an empty belief list ValueError."""
    rng = cfg.rng()
    grid = cfg.report_grid(rule)
    if beliefs is None:
        beliefs = random_beliefs_for(rule, rng, cfg.ic_beliefs,
                                     cfg.report_window)
    if not beliefs:
        raise ValueError("IC needs at least one belief")
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
    n = len(grid)
    stack, transform = rule.score_stack(list(grid) + list(states))
    if transform is None and states:
        # the trades' payoffs S(r, y) - S(s, y) are finite iff their
        # extremes over r and s are, in each outcome y
        table = stack[0]
        with np.errstate(over="ignore"):
            _require_finite(np.isfinite([table[:n].max(0) - table[n:].min(0),
                                         table[n:].max(0) - table[:n].min(0)]))
    budget = {"beliefs": len(beliefs), "grid": n}
    worst = 0.0
    for p in beliefs:
        # the belief's kind is checked before property_value reads it
        s = rule.stack_scores(stack, transform, p)
        gamma = rule.property_value(p)
        picks, scores = [], []
        for k, state in enumerate(states):
            vals = (s[:n] - s[n + k]).tolist()
            i = int(np.argmax(vals))
            pick = grid[i]
            picks.append(pick)
            scores.append(vals[i])
            gap = _ic_gap(pick, gamma)
            worst = max(worst, gap)
            if gap > step + VERDICT_TOL:
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


def _trade_rows(new: tuple, old: tuple, transform) -> tuple:
    """``sum_rows`` of the trades from each row of the stack ``old`` to each
    row of the stack ``new``: row i * len(new) + j is the trade from old row
    i to new row j, equal to ``combine([S_j, S_i], [1, -1])``."""
    R, K = len(new[0]), len(old[0])
    new = tuple(np.tile(a, (K,) + (1,) * (a.ndim - 1)) for a in new)
    old = tuple(np.repeat(a, R, axis=0) for a in old)
    return sum_rows([((new, old), (1.0, -1.0))], transform)


def check_arb(rule: ScoringRule, grid=None,
              cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """No trade may pay strictly positively in every outcome:
    inf F(r'|r) <= 0 for all report pairs on the grid.

    Each grid report is scored once (``score_stack``), and the trades are
    summed in blocks of at most 4,096 by ``_trade_rows``, whose infima equal
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
    for r, (los, finite) in zip(grid, _trade_infima(rule, grid)):
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


def _trade_infima(rule: ScoringRule, grid):
    """For each grid report r in turn: the infimum of every trade r -> r'
    and whether its payoffs are finite.  The trades are summed in blocks of
    at most 4,096, which bounds the laid arrays at any grid size."""
    stack, transform = rule.score_stack(grid)
    R = len(grid)
    block = max(1, 4096 // R)
    for i in range(0, R, block):
        k = min(block, R - i)
        _, rows = _trade_rows(stack, tuple(a[i:i + k] for a in stack), transform)
        yield from zip(rows.inf().reshape(k, R), rows.finite.reshape(k, R))


# ---------------------------------------------------------------------------
# worst-case loss


def _outcome_probe(contract) -> list:
    """The 14 outcomes +-4^i marching outward along the direction where the
    payoff grows."""
    up = [[4.0 ** i, contract(4.0 ** i)] for i in range(14)]
    dn = [[-(4.0 ** i), contract(-(4.0 ** i))] for i in range(14)]
    return up if up[-1][1] >= dn[-1][1] else dn


def _trade_sups(rule: ScoringRule, r0, reports) -> np.ndarray:
    """``contract_bounds(trade_contract(r0, r))[1]`` for each report r, from
    one ``_trade_rows`` sum."""
    stack, transform = rule.score_stack([r0] + list(reports))
    _, rows = _trade_rows(tuple(a[1:] for a in stack), tuple(a[:1] for a in stack),
                          transform)
    _require_finite(rows.finite)
    return rows.sup()


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
        if grid_sup > bound + VERDICT_TOL:
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
#
# A check judges rows of either outcome kind (``_judge_rows``) in the floats
# of the contracts, and builds a failing scenario's witness from contracts.


def _scenario_candidates(rule: ScoringRule, r2, cfg: SearchConfig, analytic):
    """A scenario's candidate trade targets in the order they are tried: the
    analytic candidate first, then the share lattice around the state r2,
    or local moves around it and then the candidate grid."""
    if analytic is not None and rule.report_space.contains(analytic):
        yield analytic
    shares = getattr(rule, "shares", None)
    if shares is not None and shares.is_lattice:
        base_q = np.atleast_1d(np.asarray(r2, dtype=float))
        for w in shares.lattice_points(cfg.lattice_bound):
            yield float((base_q + w)[0]) if len(w) == 1 else base_q + w
        return
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
                    yield float(cand)
            step *= 0.5
    yield from cfg.candidate_grid(rule)


def _worst_entry(net, c) -> tuple:
    """(value, entry) of the net held + trade to c for WN: its infimum."""
    lo, _ = contract_bounds(net)
    y_bad, v_bad, _ = contract_argmin(net)
    return lo, {"candidate": _j(c), "inf": lo, "bad_outcome": _j(y_bad),
                "value": v_bad}


def _cash_entry(net, c) -> tuple:
    """(value, entry) of the net held + trade to c for TN and PN: its cash
    level if it is flat, else -inf."""
    flat, level = contract_is_constant(net)
    lo, hi = contract_bounds(net)
    return level if flat else -INF, {
        "candidate": _j(c), "flat": bool(flat), "level": level if flat else None,
        "spread": (hi - lo) if math.isfinite(hi - lo) else INF}


class _Position(NamedTuple):
    """What a scenario holds: one trade r1 -> r1' with the market at r2 (WN,
    TN), or a portfolio of trades with the market at a state (PN)."""
    count: str          # budget key of the scenario count
    sample: Callable    # (rule, cfg) -> the seeded scenarios
    trades: Callable    # scenario -> (held trades [(old, new), ...], state)
    failure: Callable   # (scenario, held inf, entries, n, k) -> witness, budget
    read: Callable      # witness -> scenario


_ONE_TRADE = _Position(
    "scenarios",
    lambda rule, cfg: scenario_triples(cfg.report_grid(rule),
                                       cfg.scenario_count, cfg.rng()),
    lambda sc: ([(sc[0], sc[1])], sc[2]),
    lambda sc, base, entries, n, k: (
        {"scenario": {"r1": _j(sc[0]), "r1_new": _j(sc[1]), "state": _j(sc[2])},
         "held_inf": base, "candidates": entries},
        {"scenarios": n, "candidates": k}),
    lambda w: tuple(_unj(w["scenario"][key]) for key in ("r1", "r1_new", "state")))

_PORTFOLIO = _Position(
    "portfolios",
    lambda rule, cfg: portfolio_scenarios(cfg.report_grid(rule), cfg.portfolio_count,
                                          cfg.portfolio_size, cfg.rng()),
    lambda sc: sc,
    lambda sc, base, entries, n, k: (
        {"portfolio": [[_j(a), _j(b)] for a, b in sc[0]], "state": _j(sc[1]),
         "position_inf": base, "candidates": entries},
        {"portfolios": n}),
    lambda w: ([(_unj(a), _unj(b)) for a, b in w["portfolio"]], _unj(w["state"])))

# axiom -> (position, analytic-candidate hook, value of rows held + trade
#           that must beat the held infimum, the same value and the failure
#           entry of a contract, failure entries kept)
_NEUTRALIZATION = {
    "WN": (_ONE_TRADE, "wn_candidate", Rows.inf, _worst_entry, None),
    "TN": (_ONE_TRADE, "tn_candidate", Rows.cash, _cash_entry, 80),
    "PN": (_PORTFOLIO, "pn_candidate", Rows.cash, _cash_entry, 80),
}


def _failure(axiom: str, rule, scenario, cands, n: int, k: int) -> tuple:
    """(held infimum, values, margin, witness, budget) of a failing
    scenario, from the value and the entry of each candidate it lists."""
    position, _, _, entry, _ = _NEUTRALIZATION[axiom]
    trades, state = position.trades(scenario)
    legs = [rule.trade_contract(old, new) for old, new in trades]
    held = legs[0] if len(legs) == 1 else combine(legs, [1.0] * len(legs))
    base, _ = contract_bounds(held)
    scored = [entry(combine([held, rule.trade_contract(state, c)], [1.0, 1.0]), c)
              for c in cands]
    values = [v for v, _ in scored]
    gap = max(values, default=-INF) - base  # 0 when either side is infinite
    witness, budget = position.failure(
        scenario, base, [e for _, e in scored], n, k)
    return base, values, gap if math.isfinite(gap) else 0.0, witness, budget


def _scored_once(score: Callable) -> Callable:
    """``score`` that scores each distinct report once.  Reports are told
    apart by type and, for floats and arrays, by their bits, so 0.0 and
    -0.0 are scored apart."""
    memo = {}

    def scored(r):
        if isinstance(r, np.ndarray):
            key = (r.dtype.str, r.shape, r.tobytes())
        elif isinstance(r, float):
            key = (type(r), r.hex())
        else:
            key = (type(r), repr(r) if isinstance(r, list) else r)
        if key not in memo:
            memo[key] = score(r)
        return memo[key]
    return scored


def _position_rows(rule: ScoringRule) -> tuple:
    """(scores, rows): scores(reports) stacks the reports' scores (None
    pays nothing), in one ``score_rows`` call over a finite space and on
    the real line each distinct report's pieces once, and leaves overflow
    to the rows; rows(trades, held) is the ``sum_rows`` of the trades, each
    a (new, old) pair of stacks, onto a held stack if one is given."""
    finite_space = rule.outcome_space.is_finite
    zero = np.zeros(rule.outcome_space.n) if finite_space else ((), ((0.0, 0.0, 0.0),))
    transform = None if finite_space else rule.transform
    if not finite_space:
        piece = _scored_once(rule.score_pieces)

    def scores(reports) -> tuple:
        given = [r for r in reports if r is not None]
        scored = iter(rule.score_rows(given) if finite_space else map(piece, given))
        scored = [zero if r is None else next(scored) for r in reports]
        return (np.array(scored),) if finite_space else stack_pieces(scored)

    def rows(trades, held=None) -> tuple:
        legs = [((held,), (1.0,))] if held else []
        return sum_rows(legs + [(trade, (1.0, -1.0)) for trade in trades], transform)
    return scores, rows


def _judge_rows(axiom: str, rule: ScoringRule, scenarios,
                cfg: SearchConfig) -> tuple:
    """The failing scenario and the candidates it tried, or None with the
    degenerate count and the least improvement.  All held positions are one
    set of rows, and so are all analytic nets held + trade; a scenario they
    do not settle judges its other candidates as one set and takes the
    first that improves.  Payoffs that overflow raise ``PayoffOverflow`` in
    a held position or analytic net, or a net up to the first improving."""
    position, hook, value, _, _ = _NEUTRALIZATION[axiom]
    scores, rows = _position_rows(rule)
    held_trades, states = zip(*map(position.trades, scenarios))
    if not all(held_trades):
        raise ValueError("a portfolio needs at least one trade")
    legs = []
    for j in range(max(map(len, held_trades))):
        # a shorter portfolio holds null trades
        trades = [t[j] if j < len(t) else (None, None) for t in held_trades]
        legs.append((scores([new for _, new in trades]),
                     scores([old for old, _ in trades])))
    table, held = rows(legs)
    _require_finite(held.finite)
    flat, base = held.cash() > -INF, held.inf()
    live = np.flatnonzero(~flat)
    best = {}
    analytic = {}
    for i, c in zip(live, rule.analytic_candidates(
            hook, [scenarios[i] for i in live])):
        if c is not None and rule.report_space.contains(c):
            analytic[i] = c
    if analytic:
        at = list(analytic)
        trade = scores([analytic[i] for i in at]), scores([states[i] for i in at])
        _, nets = rows([trade], tuple(a[at] for a in table))
        _require_finite(nets.finite)
        vals = value(nets)
        best = {i: v for i, v, ok in zip(at, vals, vals > base[at] + cfg.delta)
                if ok}
    for i in live:
        if i in best:
            continue
        cands = list(_scenario_candidates(rule, states[i], cfg, None))
        trade = scores(cands), scores([states[i]])
        _, nets = rows([trade], tuple(a[i:i + 1] for a in table))
        vals = value(nets)
        hits = np.flatnonzero(vals > base[i] + cfg.delta)
        stop = int(hits[0]) + 1 if len(hits) else len(cands)
        _require_finite(nets.finite[:stop])
        if not len(hits):
            tried = [analytic[i]] + cands if i in analytic else cands
            return (scenarios[i], tried), None, None
        best[i] = vals[hits[0]]
    worst = min((float(best[i] - base[i]) for i in live), default=INF)
    return None, int(flat.sum()), worst


def _neutralize(axiom: str, rule: ScoringRule, scenarios,
                cfg: SearchConfig) -> AxiomReport:
    """The WN/TN/PN check: every non-degenerate scenario needs a candidate
    whose value beats the held infimum by more than ``cfg.delta``; the first
    scenario without one fails, listing its candidates' entries.  No
    scenario raises ValueError."""
    position, _, _, _, cap = _NEUTRALIZATION[axiom]
    if scenarios is None:
        scenarios = position.sample(rule, cfg)
    if not len(scenarios):
        raise ValueError(f"{axiom} needs at least one scenario")
    # rows that overflow raise PayoffOverflow, without numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        failed, degenerate, worst = _judge_rows(axiom, rule, scenarios, cfg)
    if failed is not None:
        scenario, tried = failed
        _, _, margin, witness, budget = _failure(
            axiom, rule, scenario, tried[:cap], len(scenarios), len(tried))
        return AxiomReport(axiom=axiom, verdict=FAILS, margin=margin,
                           witness=witness, budget=budget)
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


def btb_candidates(rule: ScoringRule, belief: Belief, state) -> list:
    """The trade targets BTB tries from the state: the other labels of a
    finite report space, or 55 points halving the way to the belief's
    statistic.  Raises ValueError unless the state is a report away from
    the statistic."""
    rule.validate_report(state)
    target = min_label(rule.property_value(belief))
    if isinstance(rule.report_space, FiniteReports):
        at_target = target == state
        candidates = [r for r in rule.report_space.labels if r != state]
    else:
        t_arr = np.atleast_1d(np.asarray(target, dtype=float))
        s_arr = np.atleast_1d(np.asarray(state, dtype=float))
        at_target = float(np.max(np.abs(t_arr - s_arr))) <= STRUCT_TOL
        candidates = []
        for i in range(55):
            cand = s_arr + (t_arr - s_arr) * (0.5 ** i)
            candidates.append(cand if len(cand) > 1 else float(cand[0]))
    if at_target:
        raise ValueError("precondition: the belief's statistic differs "
                         "from the market state")
    return candidates


def check_btb(rule: ScoringRule, belief: Belief, state, epsilons=None,
              cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """Arbitrarily small budgets still admit positive-expectation trades:
    for each budget, some trade risks less than it and gains in
    expectation.  No budget, or a state that ``btb_candidates`` refuses,
    raises ValueError."""
    if epsilons is None:
        epsilons = cfg.epsilons
    if not epsilons:
        raise ValueError("BTB needs at least one budget")
    candidates = btb_candidates(rule, belief, state)
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
# when a recomputed number differs from the stored one by more than REPLAY_TOL
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


def _same(a, b, tol: float = REPLAY_TOL) -> bool:
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
        _expect(grid_sup > bound + VERDICT_TOL, "WCL", "bound holds after all")
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
    # a value improves past base + delta, which is -inf where base is -inf
    _expect(not any(v > base + SearchConfig.delta for v in values),
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
    _expect(gap > w["grid_resolution"] + VERDICT_TOL, "IC",
            "argmax lies within a grid step after all")
    score = expected_payoff(rule.trade_contract(_unj(w["state"]), pick), belief)
    return {"argmax_score": score, "property": _j(gamma)}, gap


def _unj(v):
    if isinstance(v, list):
        return np.asarray(v, dtype=float)
    return v


# ---------------------------------------------------------------------------
# the axiom table: what each axiom runs and replays, and the markets it
# applies to


def build_belief(spec: dict, space) -> Belief:
    """The belief a pmf, cdf or uniform spec describes over the outcome
    space; pmf and cdf are the forms ``Belief.to_dict`` writes.  A spec of
    the wrong kind for the space raises OutcomeMismatch."""
    if "pmf" in spec:
        return finite_belief(space, spec["pmf"])
    if space.is_finite:
        raise OutcomeMismatch("a cdf or uniform belief needs a real-line "
                              "outcome space")
    if "cdf" in spec:
        return cdf_belief(spec["cdf"]["x"], spec["cdf"]["F"])
    return uniform_belief(*spec["uniform"])


def _cost_market(rule) -> None:
    if not isinstance(rule, CostRule):
        raise ValueError("applies to cost markets")


def _subgroup_market(rule) -> None:
    if not (isinstance(rule.report_space, FiniteReports) or
            isinstance(rule, CostRule) and rule.shares.is_lattice):
        raise ValueError("needs a finite rule or a lattice market")


class Axiom(NamedTuple):
    check: Callable           # (rule, given, cfg) -> AxiomReport
    replay: Callable | None   # (rule, fails report) -> recomputed entries,
    #                           margin
    applies: Callable | None = None  # (rule): raises ValueError when the
    #                                  axiom does not apply to the market


# ``given`` holds the values a check config gives the axioms, built: the
# initial state "r0", IC's beliefs "ic_beliefs", BTB's (belief, state,
# epsilons) "btb", "price_bound_trials", and WN's and TN's "scenarios" (every
# triple of a finite report space, or None for the seeded sample)
AXIOMS = {
    "ARB": Axiom(lambda r, g, cfg: check_arb(r, cfg=cfg), _replay_arb),
    "WCL": Axiom(lambda r, g, cfg: check_wcl(r, g["r0"], cfg), _replay_wcl),
    "IC": Axiom(lambda r, g, cfg: check_ic(r, g.get("ic_beliefs"), cfg),
                _replay_ic),
    "WN": Axiom(lambda r, g, cfg: check_wn(r, g.get("scenarios"), cfg),
                _replay_neutralization),
    "TN": Axiom(lambda r, g, cfg: check_tn(r, g.get("scenarios"), cfg),
                _replay_neutralization),
    "PN": Axiom(lambda r, g, cfg: check_pn(r, None, cfg),
                _replay_neutralization),
    "BTB": Axiom(lambda r, g, cfg: check_btb(r, *g["btb"], cfg), _replay_btb),
    "OPEN": Axiom(lambda r, g, cfg: check_open(r, cfg.rng()), None,
                  _cost_market),
    "QUASI-OPEN": Axiom(lambda r, g, cfg: check_quasi_open(
        r, cfg.lattice_bound, cfg.rng()), None, _cost_market),
    "PRICE-BOUND": Axiom(lambda r, g, cfg: price_bound_check(
        r, g.get("price_bound_trials", 1000), cfg.rng()), None, _cost_market),
    "SUBGROUP": Axiom(lambda r, g, cfg: market_subgroup(r, cfg.lattice_bound),
                      None, _subgroup_market),
}
