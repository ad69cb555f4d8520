"""Market mechanism: sequential state, trade execution, settlement.

A session pays trader t the score difference between the report they move
the market to and the report they found it at.  Payments telescope, so the
maker's total exposure only depends on the first and last states: the
position is the single contract S(r_T, .) - S(r_0, .), and
``worst_case_loss`` reads its bounds at a cost independent of the ledger
length.  Settlement still sums the ledger trade by trade and reports it
beside the telescoped loss.  Each state is scored once: a trade is the new
score less the held one.  Path independence scores r_0 ... r_T once each
and checks a ledger of either outcome kind as one ``contracts.sum_rows``
of the score stack and the recorded trades.  A replay of the ledger lines
validates them in order and then builds every trade contract from one
``sum_rows`` of the score stack less itself shifted by one, bit for bit as
trade by trade.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .contracts import (
    REAL_LINE,
    STRUCT_TOL,
    Contract,
    PayoffOverflow,
    contract_bounds,
    contract_pieces,
    merge_runs,
    sum_rows,
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
        """Each trader's net payoff and the maker's loss at the outcome y,
        which must lie in the outcome space (``InvalidOutcome``)."""
        self.rule.outcome_space.validate(y)
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
        gaps = _pair_gaps(self.rule, states, [rec.contract for rec in self.records])
        worst = 0.0
        for a, b, (gap, finite) in zip(self.records, self.records[1:], gaps):
            if not finite:
                raise PayoffOverflow("payoffs must be finite")
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
        return [_ENCODER.encode({"index": rec.index, "trader": rec.trader,
                                 "r_old": _jsonable(rec.r_old),
                                 "r_new": _jsonable(rec.r_new)})
                for rec in self.records]

    @classmethod
    def replay(cls, rule: ScoringRule, r0, lines: list[str]) -> "MarketSession":
        """The session the ledger lines record from r0: each line is read and
        validated in order (its index, its r_old and its trade), then every
        contract is a row of ``_trade_contracts``.  As trade by trade, the
        first bad line raises, unless the lines before it overflow."""
        session = cls(rule, r0)
        states, traders = [r0], []
        try:
            for i, line in enumerate(lines):
                rec = json.loads(line)
                if rec["index"] != i:
                    raise ValueError(f"ledger line {i} has index {rec['index']!r}")
                if not _same_state(_unjson(rec["r_old"]), states[-1]):
                    raise ValueError(f"ledger line {i} trades from {rec['r_old']!r}, "
                                     f"not from the state {states[-1]!r}")
                r_new = _unjson(rec["r_new"])
                rule.validate_trade(states[-1], r_new)
                states.append(r_new)
                traders.append(str(rec["trader"]))
        except (ValueError, KeyError, TypeError):
            # trade by trade, the lines before the bad one are scored first
            _trade_contracts(rule, states)
            raise
        for i, contract in enumerate(_trade_contracts(rule, states)):
            session.records.append(TradeRecord(
                index=i, trader=traders[i], r_old=states[i], r_new=states[i + 1],
                contract=contract))
        session.current = states[-1]
        session._held = rule.score_contract(session.current)
        return session


# ledger lines are encoded by one encoder, not one per line
_ENCODER = json.JSONEncoder(sort_keys=True)


def _same_state(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _jsonable(r):
    if isinstance(r, np.ndarray):
        return {"vec": [float(v) for v in r]}
    return r


def _unjson(r):
    if isinstance(r, dict) and "vec" in r:
        return np.asarray(r["vec"], dtype=float)
    return r


def _rows(stack: tuple, start=None, stop=None) -> tuple:
    """The rows start:stop of a stack."""
    return tuple(a[start:stop] for a in stack)


def _trade_contracts(rule: ScoringRule, states: list) -> list:
    """``score_difference`` of each pair of consecutive states, to the bit:
    one ``sum_rows`` of the states' score stack less itself shifted by one,
    each row a payoff vector or, on the real line, compacted as ``combine``
    compacts it.  An overflow raises ``PayoffOverflow``."""
    if len(states) < 2:
        return []
    stack, transform = rule.score_stack(states)
    (*cuts, net), rows = sum_rows(
        [((_rows(stack, 1), _rows(stack, None, -1)), (1.0, -1.0))], transform)
    if not rows.finite.all():
        raise PayoffOverflow("payoffs must be finite")
    if transform is None:
        net.flags.writeable = False
        return [Contract(space=rule.outcome_space, values=row) for row in net]
    return [Contract(space=REAL_LINE, ends=ends, pieces=pieces, transform=transform)
            for ends, pieces in (merge_runs(row, list(map(tuple, cells)))
                                 for row, cells in zip(cuts[0].tolist(), net.tolist()))]


def _pair_gaps(rule: ScoringRule, states: list, steps: list) -> list:
    """(gap, finite) of each pair of consecutive trades: the largest payoff
    gap of the direct trade S(r_2) - S(r_0) and its two recorded steps V0
    and V1, in the floats of the pairwise reference, and whether those are
    finite: one ``sum_rows`` of direct - (V0 + V1) over a finite space, and
    on the real line of (direct - V0) - V1, where each coefficient snaps
    against its largest term."""
    stack, transform = rule.score_stack(states)
    paid = (np.array([c.values for c in steps]),) if transform is None \
        else contract_pieces(steps)
    first, second = _rows(paid, None, -1), _rows(paid, 1)
    legs = [((_rows(stack, 2), _rows(stack, None, -2)), (1.0, -1.0))]
    if transform is None:
        legs.append(((first, second), (-1.0, -1.0)))
    else:
        legs += [((first,), (-1.0,)), ((second,), (-1.0,))]
    _, rows = sum_rows(legs, transform)
    span = np.maximum(np.abs(rows.inf()), np.abs(rows.sup()))
    return list(zip(span.tolist(), rows.finite))


def open_session(rule: ScoringRule, r0) -> MarketSession:
    return MarketSession(rule, r0)
