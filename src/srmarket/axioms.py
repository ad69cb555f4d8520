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
from itertools import chain
from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np

from .contracts import (
    INF,
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
    row_contracts,
    sum_rows,
    trade_leg,
    uniform_belief,
)
from .convex import _vec
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
    as_report,
)


def btb_budgets(epsilons=None) -> tuple:
    """BTB's budgets as a tuple, (0.5, 0.05) for None, once there is one and
    each is positive and finite: BTB quantifies over budgets epsilon > 0,
    and every trade risks less than an infinite one.  Else ValueError."""
    epsilons = (0.5, 0.05) if epsilons is None else tuple(epsilons)
    if not epsilons or not all(0 < e < INF for e in epsilons):
        raise ValueError(f"epsilons {epsilons!r} must be one or more positive "
                         "finite BTB budgets")
    return epsilons


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
        window = self.report_window
        if len(window) != 2 or not -INF < window[0] < window[1] < INF:
            raise ValueError(f"report_window {window!r} needs two ascending finite ends")
        if not 0 < self.delta < INF:
            raise ValueError("strictness margin must be positive and finite")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def report_grid(self, rule: ScoringRule) -> list:
        """The rule's report grid; one of fewer than two reports, which a
        hull can leave of a box grid, raises ValueError: no trade moves on
        it, so every check over it would hold vacuously."""
        grid = rule.report_grid(self.report_points, self.report_window)
        if len(grid) < 2:
            raise ValueError(f"the report grid needs at least two reports, "
                             f"not {len(grid)}")
        return grid


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
#
# Each seeded sampler takes its whole sample in one generator call: numpy
# fills a block item by item, from the draws each item alone would take, and
# PCG64 keeps a bounded integer's spare 32-bit half between calls, so a block
# is the item-by-item stream, to the items and the generator's state after.


def random_cdf_beliefs(rng: np.random.Generator, count: int,
                       window: tuple = (-4.0, 4.0)) -> list[Belief]:
    """count piecewise-linear CDFs on the window, with 6 seeded knots each:
    the running sums of uniform steps on [0.5, 1.5], rescaled to the window
    for the knots and to [0, 1] for the levels."""
    a, b = window
    g = np.cumsum(rng.uniform(0.5, 1.5, size=(count, 2, 6)), axis=2)
    gx, gf = g[:, 0], g[:, 1]
    xs = a + (b - a) * (gx - gx[:, :1]) / (gx[:, -1:] - gx[:, :1])
    fs = (gf - gf[:, :1]) / (gf[:, -1:] - gf[:, :1])
    return [cdf_belief(x, f) for x, f in zip(xs, fs)]


def random_beliefs_for(rule: ScoringRule, rng: np.random.Generator,
                       count: int, window: tuple = (-4.0, 4.0)) -> list[Belief]:
    """count seeded beliefs of the rule's outcome space: flat-Dirichlet pmfs
    on a finite space, else ``random_cdf_beliefs`` on the window."""
    space = rule.outcome_space
    if not space.is_finite:
        return random_cdf_beliefs(rng, count, window)
    pmfs = rng.dirichlet(np.ones(space.n), size=count)
    return [finite_belief(space, pmf / np.sum(pmf)) for pmf in pmfs]


# ---------------------------------------------------------------------------
# scenario generators


def scenario_triples(grid, count: int, rng: np.random.Generator) -> list:
    """(held trade r1 -> r1', current state r2) triples with r1 != r1', the
    missing ones drawn as one block until count are kept or 50 count index
    triples are spent."""
    return _triples(grid, count, rng, 50 * count)


def _triples(grid, count: int, rng: np.random.Generator, budget: int) -> list:
    m = min(count, budget)
    if m <= 0:
        return []
    draws = rng.integers(0, len(grid), size=(m, 3)).tolist()
    kept = [(grid[i], grid[j], grid[s]) for i, j, s in draws if i != j]
    return kept + _triples(grid, count - len(kept), rng, budget - m)


def exhaustive_triples(grid) -> list:
    return [(a, b, s) for a in grid for b in grid if a != b for s in grid]


def portfolio_scenarios(grid, count: int, size: int,
                        rng: np.random.Generator) -> list:
    """count (trades, state) portfolios of size trades r -> r' (r' the next
    report where the draw repeats r), one row of grid indices per portfolio."""
    n = len(grid)
    rows = rng.integers(0, n, size=(count, 2 * size + 1)).tolist()
    return [([(grid[i], grid[(j + 1) % n if i == j else j])
              for i, j in zip(row[:-1:2], row[1::2])], grid[row[-1]])
            for row in rows]


# ---------------------------------------------------------------------------
# IC and ARB


def _require_finite(finite) -> None:
    # trade_contract rejects a trade whose payoffs overflow
    if not np.all(finite):
        raise PayoffOverflow("payoffs must be finite")


def check_ic(rule: ScoringRule, beliefs: list[Belief] | None = None,
             cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """Grid argmax of the expected trade payoff must match the elicited
    statistic.  Payments telescope, so the expected payoff of the trade
    s -> r is E_p S(r) - E_p S(s) and its argmax does not depend on the
    market state s: each belief reads one argmax of the grid's expected
    scores, and a failure reports the trade from one reference state, the
    first grid report.

    The grid is scored once (``score_stack``), and each belief reads its
    expected scores in one ``stack_scores``, on the real line row by row
    from its moment table.  A trade whose payoffs overflow over a finite
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
    continuous = not isinstance(rule.report_space, FiniteReports)
    if continuous and np.isscalar(grid[0]):
        step = max(b - a for a, b in zip(grid, grid[1:]))
    elif continuous:
        step = float(np.max(np.linalg.norm(
            np.diff(np.asarray(grid, dtype=float), axis=0), axis=1)))
    else:
        step = 0.0
    stack, transform = rule.score_stack(grid)
    if transform is None:
        # the trades' payoffs S(r, y) - S(s, y) are finite iff the spread
        # of the scores is, in each outcome y
        table = stack[0]
        with np.errstate(over="ignore"):
            _require_finite(np.isfinite(table.max(0) - table.min(0)))
    budget = {"beliefs": len(beliefs), "grid": len(grid)}
    worst = 0.0
    for p in beliefs:
        # the belief's kind is checked before property_value reads it
        s = rule.stack_scores(stack, transform, p)
        gamma = rule.property_value(p)
        i = int(np.argmax(s))
        gap = _ic_gap(grid[i], gamma)
        worst = max(worst, gap)
        if gap > step + VERDICT_TOL:
            return AxiomReport(
                axiom="IC", verdict=FAILS, margin=gap,
                witness={"belief": p.to_dict(), "state": _j(grid[0]),
                         "argmax": _j(grid[i]), "property": _j(gamma),
                         "argmax_score": float(s[i] - s[0]),
                         "grid_resolution": step},
                budget=budget)
    return AxiomReport(axiom="IC", verdict=HOLDS_AT_BUDGET, margin=worst,
                       budget={**budget, "grid_resolution": step})


def _ic_gap(pick, gamma) -> float:
    """Distance of a grid argmax from the property value; for a set-valued
    property 0 inside the set and 1 outside it."""
    if isinstance(gamma, tuple):
        return 0.0 if pick in gamma else 1.0
    return float(np.max(np.abs(_vec(pick) - _vec(gamma))))


def check_arb(rule: ScoringRule, grid=None,
              cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """No trade may pay strictly positively in every outcome:
    inf F(r'|r) <= 0 for all report pairs on the grid.

    Each grid report is scored once (``score_stack``), and the trades are
    summed in blocks of at most 4,096, one ``trade_leg`` each, whose infima
    equal ``contract_bounds(trade_contract(r, r'))`` on either outcome kind.
    A grid of fewer than two reports raises ValueError."""
    if grid is None:
        grid = cfg.report_grid(rule)
    if len(grid) < 2:
        raise ValueError("ARB needs at least two grid reports")
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
        # row j * R + l trades from grid report i + j to grid report l
        _, rows = sum_rows([trade_leg(stack, np.tile(np.arange(R), k),
                                      np.repeat(np.arange(i, i + k), R))], transform)
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
    one ``sum_rows``, in which r0's row serves every trade."""
    stack, transform = rule.score_stack([r0] + list(reports))
    _, rows = sum_rows([trade_leg(stack, slice(1, None), slice(0, 1))], transform)
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
        losses = _outcome_probe(rule.trade_contract(r0, grid[i]))
        return AxiomReport(
            axiom="WCL", verdict=FAILS, margin=losses[-1][1],
            witness={"r0": _j(r0), "trade_to": _j(grid[i]),
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
# A check reads a failing scenario's witness from the rows it judges
# (``_judge_rows``); the replay rebuilds it from contracts (``_failure``).


def _local_candidates(rule: ScoringRule, r2, cfg: SearchConfig) -> list:
    """A scenario's own candidate trade targets after the analytic one: the
    share lattice around the state r2, or local moves around it."""
    if getattr(getattr(rule, "shares", None), "is_lattice", False):
        return [as_report(_vec(r2) + w)
                for w in rule.shares.lattice_points(cfg.lattice_bound)]
    # local moves around the state: small trades are the improving ones for
    # share-like markets whose cash is itself a security
    if isinstance(rule.report_space, RealReports):
        span = cfg.report_window[1] - cfg.report_window[0]
    elif isinstance(rule.report_space, BoxReports) and rule.report_space.dim == 1:
        span = rule.report_space.hi[0] - rule.report_space.lo[0]
    else:
        return []
    moves, step = [], 0.3 * span
    while np.isscalar(r2) and step > 1e-4 * span:
        moves += [float(c) for c in (r2 + step, r2 - step)
                  if rule.report_space.contains(c)]
        step *= 0.5
    return moves


def _candidate_grid(rule: ScoringRule, cfg: SearchConfig) -> list:
    """The candidates each scenario tries after its own, off a share lattice."""
    on_lattice = getattr(getattr(rule, "shares", None), "is_lattice", False)
    return [] if on_lattice else rule.report_grid(cfg.candidate_points, cfg.report_window)


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

# axiom -> (position, value of rows held + trade that must beat the held
#           infimum, failure entries kept)
_NEUTRALIZATION = {
    "WN": (_ONE_TRADE, Rows.inf, None),
    "TN": (_ONE_TRADE, Rows.cash, 80),
    "PN": (_PORTFOLIO, Rows.cash, 80),
}


def _failed(axiom: str, scenario, base: float, cands, lo, hi, cash, nets,
            n: int, k: int) -> tuple:
    """(values, margin, witness, budget) of a failing scenario, from its nets
    held + trade: infima, suprema, cash levels (-inf unless flat), contracts."""
    if axiom == "WN":
        values = lo
        entries = [{"candidate": _j(c), "inf": v, "bad_outcome": _j(y), "value": w}
                   for c, v, (y, w) in zip(cands, lo, map(contract_argmin, nets))]
    else:
        values = list(cash)
        entries = [{"candidate": _j(c), "flat": v > -INF,
                    "level": v if v > -INF else None,
                    "spread": b - a if math.isfinite(b - a) else INF}
                   for c, v, a, b in zip(cands, values, lo, hi)]
    gap = max(values, default=-INF) - base  # 0 when either side is infinite
    witness, budget = _NEUTRALIZATION[axiom][0].failure(scenario, base, entries, n, k)
    return values, gap if math.isfinite(gap) else 0.0, witness, budget


def _failure(axiom: str, rule, scenario, cands, n: int, k: int) -> tuple:
    """(held infimum, values, margin, witness, budget) of a failing scenario
    from contracts: the replay's reference for the witness read from rows."""
    trades, state = _NEUTRALIZATION[axiom][0].trades(scenario)
    legs = [rule.trade_contract(old, new) for old, new in trades]
    held = legs[0] if len(legs) == 1 else combine(legs, [1.0] * len(legs))
    base, _ = contract_bounds(held)
    nets = [combine([held, rule.trade_contract(state, c)], [1.0, 1.0]) for c in cands]
    lo, hi = zip(*map(contract_bounds, nets)) if nets else ((), ())
    # a generator: TN and PN read it, WN does not
    cash = (level if flat else -INF for flat, level in map(contract_is_constant, nets))
    return (base, *_failed(axiom, scenario, base, cands, lo, hi, cash, nets, n, k))


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises, not warns
def _judge_rows(axiom: str, rule: ScoringRule, scenarios,
                cfg: SearchConfig) -> AxiomReport:
    """The WN/TN/PN check: every scenario that is not degenerate needs a
    candidate beating the held infimum by more than ``cfg.delta``.  Held
    positions, analytic nets held + trade, and then the unsettled scenarios
    in batches of 1, 2, 4, ... are each one set of rows, read in scenario
    order, whose reports are scored in one unchecked call; the first
    scenario without an improving candidate fails, its entries read from
    rows.  Overflow raises in a held position, an analytic net, or a net
    before its scenario's first improving candidate.  No scenario raises
    ValueError."""
    position, value, cap = _NEUTRALIZATION[axiom]
    if scenarios is None:
        scenarios = position.sample(rule, cfg)
    if not len(scenarios):
        raise ValueError(f"{axiom} needs at least one scenario")
    transform = None if rule.outcome_space.is_finite else rule.transform

    def score(reports) -> tuple:
        # the reports' score stack, its overflow left to the rows
        return (rule.score_rows(reports),) if transform is None else \
            rule.piece_rows(reports)

    def nets(held_at, stack, news, olds) -> tuple:
        held_rows = tuple(a[held_at] for a in table)
        return sum_rows([((held_rows,), (1.0,)), trade_leg(stack, news, olds)], transform)

    held_trades, states = zip(*map(position.trades, scenarios))
    if not all(held_trades):
        raise ValueError("a portfolio needs at least one trade")
    # a shorter portfolio holds null trades at a report it holds: they pay
    # 0.0 in every cell and break where the position already breaks
    steps = [[t[j] if j < len(t) else (t[0][0],) * 2 for t in held_trades]
             for j in range(max(map(len, held_trades)))]
    # trade k of step j: old report in row 2 (j * len(scenarios) + k), new in the next
    stack = score([r for step in steps for trade in step for r in trade])
    olds = 2 * np.arange(len(steps) * len(scenarios)).reshape(len(steps), -1)
    table, held = sum_rows([trade_leg(stack, at + 1, at) for at in olds], transform)
    _require_finite(held.finite)
    flat, base = held.cash() > -INF, held.inf()
    live = np.flatnonzero(~flat)
    analytic, best = {}, {}
    if axiom in rule.matches:
        for i, c in zip(live, rule.matched_candidates(
                [(held_trades[i], states[i]) for i in live])):
            if c is not None and rule.report_space.contains(c):
                analytic[i] = c
    if analytic:
        i, k = list(analytic), len(analytic)
        stack = score([*analytic.values(), *(states[j] for j in i)])
        _, judged = nets(i, stack, np.arange(k), np.arange(k, 2 * k))
        _require_finite(judged.finite)
        vals = value(judged)
        best = {j: v for j, v, ok in zip(i, vals, vals > base[i] + cfg.delta) if ok}
    unsettled = [i for i in live if i not in best]
    grid = _candidate_grid(rule, cfg) if unsettled else []
    for batch in (unsettled[2 ** j - 1:2 ** (j + 1) - 1]
                  for j in range(len(unsettled).bit_length())):
        # rows: the batch's states, the grid, then each state's own
        # candidates, which it tries before the grid
        local = [_local_candidates(rule, states[i], cfg) for i in batch]
        stack = score([*(states[i] for i in batch), *grid,
                       *chain.from_iterable(local)])
        B, G = len(batch), len(grid)
        ends = np.cumsum([B + G, *map(len, local)])
        sizes = np.diff(ends) + G
        news = np.concatenate([x for a, b in zip(ends.tolist(), ends[1:].tolist())
                               for x in (np.arange(a, b), np.arange(B, B + G))])
        _, judged = nets(np.repeat(batch, sizes), stack, news,
                         np.repeat(np.arange(B), sizes))
        vals, end = value(judged), 0
        for i, here, size in zip(batch, local, sizes):
            hits = np.flatnonzero(vals[end:end + size] > base[i] + cfg.delta)
            _require_finite(judged.finite[end:end + (hits[0] + 1 if len(hits) else size)])
            if not len(hits):
                tried = ([analytic[i]] if i in analytic else []) + here + grid
                listed = tried[:cap]
                m = len(listed)
                stack, judged = nets([i] * m, score([*listed, states[i]]),
                                     np.arange(m), np.full(m, m))
                _, margin, witness, budget = _failed(
                    axiom, scenarios[i], float(base[i]), listed, judged.inf().tolist(),
                    judged.sup().tolist(), judged.cash().tolist(),
                    row_contracts(rule.outcome_space, stack, transform),
                    len(scenarios), len(tried))
                return AxiomReport(axiom=axiom, verdict=FAILS, margin=margin,
                                   witness=witness, budget=budget)
            best[i], end = vals[end + hits[0]], end + size
    worst = min((float(best[i] - base[i]) for i in live), default=INF)
    return AxiomReport(axiom=axiom, verdict=HOLDS_AT_BUDGET,
                       margin=worst if worst < INF else 0.0,
                       budget={position.count: len(scenarios),
                               "degenerate": int(flat.sum())})


def check_wn(rule: ScoringRule, scenarios=None,
             cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """Weak neutralization: some candidate trade strictly raises the held
    contract's worst-case payoff."""
    return _judge_rows("WN", rule, scenarios, cfg)


def check_tn(rule: ScoringRule, scenarios=None,
             cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """Trade neutralization: some candidate trade turns the held contract
    into cash strictly above its worst-case payoff."""
    return _judge_rows("TN", rule, scenarios, cfg)


def check_pn(rule: ScoringRule, portfolios=None,
             cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """Portfolio neutralization: one trade converts the whole held portfolio
    into cash strictly above its worst-case payoff."""
    return _judge_rows("PN", rule, portfolios, cfg)


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
        t_arr, s_arr = _vec(target), _vec(state)
        at_target = float(np.max(np.abs(t_arr - s_arr))) <= STRUCT_TOL
        candidates = [as_report(s_arr + (t_arr - s_arr) * (0.5 ** i))
                      for i in range(55)]
    if at_target:
        raise ValueError("precondition: the belief's statistic differs "
                         "from the market state")
    return candidates


def check_btb(rule: ScoringRule, belief: Belief, state, epsilons=None,
              cfg: SearchConfig = SearchConfig()) -> AxiomReport:
    """Arbitrarily small budgets still admit positive-expectation trades:
    for each budget, some trade risks less than it and gains in
    expectation.  No budget, a budget that is not positive, or a state that
    ``btb_candidates`` refuses raises ValueError."""
    epsilons = btb_budgets(epsilons)
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
            # the replay judges with a strictness margin other than the default
            delta = {} if cfg.delta == SearchConfig.delta else {"delta": cfg.delta}
            return AxiomReport(
                axiom="BTB", verdict=FAILS,
                margin=_btb_margin(entries, eps, cfg.delta),
                witness={"epsilon": eps, "state": _j(state),
                         "belief": belief.to_dict(), "candidates": entries, **delta},
                budget=budget)
    return AxiomReport(axiom="BTB", verdict=HOLDS_AT_BUDGET,
                       margin=worst_ok if worst_ok < INF else 0.0,
                       witness={"trades": results}, budget=budget)


# ---------------------------------------------------------------------------
# witness replay
#
# A replay rebuilds a fails witness from the rule alone.  It recomputes the
# numbers the witness stores from trade contracts and sessions, apart from
# the score rows most checks read them from (BTB's check and replay share
# ``_btb_entry``), and the margin from them as the check computed it;
# ``replay_witness`` raises AssertionError when a recomputed number differs
# from the stored one by more than VERDICT_TOL (relative above 1), and each
# replay raises when the violation no longer holds.


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


def _same(a, b) -> bool:
    """JSON-like values equal up to VERDICT_TOL * max(1, |b|) in every number."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and \
            all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and \
            all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, (int, float)) and a != b:
        # a stored infinity is reproduced only by itself
        return math.isfinite(b) and abs(a - b) <= VERDICT_TOL * max(1.0, abs(b))
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
    and entry, recomputed from contracts (``_failure``), apart from the rows
    the check read them from."""
    w = report.witness
    scenario = _NEUTRALIZATION[report.axiom][0].read(w)
    base, values, margin, witness, _ = _failure(
        report.axiom, rule, scenario,
        [_unj(e["candidate"]) for e in w["candidates"]], 0, 0)
    # no value beats base + margin, the best the check saw, past VERDICT_TOL
    top = base + report.margin
    slack = VERDICT_TOL * max(1.0, abs(top)) if math.isfinite(top) else 0.0
    _expect(not any(v > top + slack for v in values),
            report.axiom, "candidate improves after all")
    return witness, margin


def _replay_btb(rule, report) -> tuple:
    w = report.witness
    belief = build_belief(w["belief"], rule.outcome_space)
    entries = [_btb_entry(rule, belief, _unj(w["state"]), _unj(e["candidate"]))
               for e in w["candidates"]]
    margin = _btb_margin(entries, w["epsilon"], w.get("delta", SearchConfig.delta))
    _expect(margin == 0.0, "BTB", "candidate meets the budget after all")
    return {"candidates": entries}, margin


def _replay_ic(rule, report) -> tuple:
    w = report.witness
    belief = build_belief(w["belief"], rule.outcome_space)
    gamma = rule.property_value(belief)
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
