"""Market mechanism: sequential state, trade execution, settlement.

A session pays trader t the score difference between the report they move
the market to and the report they found it at.  Payments telescope, so the
maker's total exposure only depends on the first and last states: the
position is the single contract S(r_T, .) - S(r_0, .), and
``worst_case_loss`` reads its bounds at a cost independent of the ledger
length.  Settlement still sums the ledger trade by trade and reports it
beside the telescoped loss.  Each state is scored once: a trade is the new
score less the held one, and path independence scores r_0 ... r_T once
each, checking a finite ledger as one array.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .contracts import (
    STRUCT_TOL,
    Contract,
    PayoffOverflow,
    combine,
    contract_bounds,
)
from .reports import FAILS, HOLDS, AxiomReport
from .scoring import ScoringRule, score_difference


@dataclass
class TradeRecord:
    index: int
    trader: str
    r_old: object
    r_new: object
    contract: Contract


@dataclass
class Settlement:
    outcome: object
    payoffs: list  # (trader, net payoff) in first-arrival order
    maker_loss: float
    telescoped_loss: float


class MarketSession:
    """Single-writer ledger of reports with telescoping payoffs."""

    def __init__(self, rule: ScoringRule, r0):
        rule.validate_report(r0)
        self.rule = rule
        self.r0 = r0
        self.current = r0
        self.records: list[TradeRecord] = []
        # S(r0, .) and S(current, .): each state is scored once
        self._first = self._held = rule.score_contract(r0)

    def execute_trade(self, trader: str, r_new) -> Contract:
        self.rule.validate_trade(self.current, r_new)
        scored = self.rule.score_contract(r_new)
        contract = score_difference(scored, self._held)
        rec = TradeRecord(index=len(self.records), trader=str(trader),
                         r_old=self.current, r_new=r_new, contract=contract)
        self.records.append(rec)
        self.current = r_new
        self._held = scored
        return contract

    def position_contract(self) -> Contract:
        """The maker's cumulative payout as a contract: by telescoping, the
        one trade from r0 to the current report."""
        return score_difference(self._held, self._first)

    def settle(self, y) -> Settlement:
        by_trader: dict[str, float] = {}
        for rec in self.records:
            by_trader[rec.trader] = by_trader.get(rec.trader, 0.0) + rec.contract(y)
        total = math.fsum(by_trader.values())
        telescoped = self.rule.score(self.current, y) - self.rule.score(self.r0, y)
        return Settlement(outcome=y,
                          payoffs=list(by_trader.items()),
                          maker_loss=total,
                          telescoped_loss=telescoped)

    def worst_case_loss(self) -> float:
        """sup over outcomes of the cumulative maker payout at the current
        state, read from the telescoped contract S(r_T, .) - S(r_0, .);
        +inf when the position is unbounded."""
        return contract_bounds(self.position_contract())[1]

    def verify_path_independence(self) -> AxiomReport:
        """For every consecutive pair of trades, the direct contract must
        equal the two-step sum exactly.  Score-difference mechanisms satisfy
        this by construction, so any failure is an implementation bug."""
        if len(self.records) < 2:
            raise ValueError("path independence needs at least 2 trades")
        states = [self.r0] + [rec.r_new for rec in self.records]
        if self.rule.outcome_space.is_finite:
            gaps = _finite_gaps(self.rule.score_table(states), np.array(
                [rec.contract.values for rec in self.records]))
        else:
            scores = [self.rule.score_contract(r) for r in states]
            gaps = (_max_gap(score_difference(new, old), a.contract, b.contract)
                    for old, new, a, b in zip(scores, scores[2:], self.records,
                                              self.records[1:]))
        worst = 0.0
        for a, b, gap in zip(self.records, self.records[1:], gaps):
            worst = max(worst, gap)
            if gap > STRUCT_TOL:
                return AxiomReport(
                    axiom="PI", verdict=FAILS, margin=gap,
                    witness={"r": repr(a.r_old), "r_mid": repr(a.r_new),
                             "r_new": repr(b.r_new), "gap": gap},
                    budget={"pairs": len(self.records) - 1})
        return AxiomReport(axiom="PI", verdict=HOLDS, margin=worst,
                           budget={"pairs": len(self.records) - 1})

    # -- serialization -------------------------------------------------------

    def ledger_lines(self) -> list[str]:
        """One structured record per trade; replaying them rebuilds the
        contracts bit for bit."""
        lines = []
        for rec in self.records:
            lines.append(json.dumps({
                "index": rec.index,
                "trader": rec.trader,
                "r_old": _jsonable(rec.r_old),
                "r_new": _jsonable(rec.r_new),
            }, sort_keys=True))
        return lines

    @classmethod
    def replay(cls, rule: ScoringRule, r0, lines: list[str]) -> "MarketSession":
        session = cls(rule, r0)
        for line in lines:
            rec = json.loads(line)
            session.execute_trade(rec["trader"], _unjson(rec["r_new"]))
        return session


def _jsonable(r):
    if isinstance(r, np.ndarray):
        return {"vec": [float(v) for v in r]}
    return r


def _unjson(r):
    if isinstance(r, dict) and "vec" in r:
        return np.asarray(r["vec"], dtype=float)
    return r


def _finite_gaps(table: np.ndarray, steps: np.ndarray):
    """Each pair's payoff gap over a finite space, from the states' score
    table and the recorded trades' payoffs: ``combine``'s floats, since
    0.0 + a and 1.0 * a are exact.  A pair whose sums overflow raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        direct, stepped = table[2:] - table[:-2], steps[:-1] + steps[1:]
        gaps = np.max(np.abs(direct - stepped), axis=1).tolist()
    finite = (np.isfinite(direct) & np.isfinite(stepped)).all(axis=1).tolist()
    for gap, ok in zip(gaps, finite):
        if not ok:
            raise PayoffOverflow("payoffs must be finite")
        yield gap


def _max_gap(direct: Contract, first: Contract, second: Contract) -> float:
    """Largest payoff gap of a direct real-line trade and its two steps."""
    # one three-operand sum, so each coefficient is snapped against the
    # largest of the terms that produced it: cancellation between the two
    # steps leaves a residue that a separate two-step sum would keep
    lo, hi = contract_bounds(combine([direct, first, second],
                                     [1.0, -1.0, -1.0]))
    span = max(abs(lo), abs(hi))
    return span if math.isfinite(span) else math.inf


def open_session(rule: ScoringRule, r0) -> MarketSession:
    return MarketSession(rule, r0)
