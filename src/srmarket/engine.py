"""Market mechanism: sequential state, trade execution, settlement.

A session pays trader t the score difference between the report they move
the market to and the report they found it at.  Payments telescope, so the
maker's total exposure only depends on the first and last states: the
position is the single contract S(r_T, .) - S(r_0, .), and
``worst_case_loss`` reads its bounds at a cost independent of the ledger
length.  Each state is scored once.  Over a finite space a session holds the
``score_list`` of its first and current states, and a live trade is the
difference (new + 0.0) - held, in ``combine``'s floats, as is a trade
replayed from the ledger lines; on the real line it holds score contracts.
Settlement sums the ledger trade by trade, in record order, beside the
telescoped loss.  Path independence scores r_0 ... r_T once each and checks
a ledger of either outcome kind as one ``contracts.sum_rows`` of the score
stack and the recorded trades.
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
    contract_pieces,
    finite_contract,
    row_contracts,
    sum_rows,
    trade_leg,
)
from .reports import FAILS, HOLDS, AxiomReport
from .scoring import ScoringRule


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
        # S(r0, .) and S(current, .), each state scored once: payoff lists
        # over a finite space, contracts on the real line; the first through
        # score_contract, so a non-finite first score raises
        first = rule.score_contract(r0)
        self._first = self._held = \
            first if first.values is None else first.values.tolist()

    def _score(self, r):
        """S(r, .) as a session holds it.  Validates r."""
        if self.rule.outcome_space.is_finite:
            return self.rule.score_list(r)
        return self.rule.score_contract(r)

    def _trade(self, new, old) -> Contract:
        """The trade paying S(new) - S(old) of two held scores, in the
        floats of ``combine``: over a finite space (a + 0.0) - b outcome by
        outcome (0.0 + -0.0 is 0.0).  An overflow raises ``PayoffOverflow``."""
        if isinstance(old, Contract):
            return combine([new, old], [1.0, -1.0])
        return finite_contract(self.rule.outcome_space,
                               [(a + 0.0) - b for a, b in zip(new, old)])

    def execute_trade(self, trader: str, r_new) -> Contract:
        self.rule.validate_trade(self.current, r_new)
        scored = self._score(r_new)
        contract = self._trade(scored, self._held)
        rec = TradeRecord(index=len(self.records), trader=str(trader),
                         r_old=self.current, r_new=r_new, contract=contract)
        self.records.append(rec)
        self.current = r_new
        self._held = scored
        return contract

    def position_contract(self) -> Contract:
        """The maker's cumulative payout as a contract: by telescoping, the
        one trade from r0 to the current report."""
        return self._trade(self._held, self._first)

    def settle(self, y) -> Settlement:
        """Each trader's net payoff and the maker's loss at the outcome y,
        which must lie in the outcome space (``InvalidOutcome``)."""
        space = self.rule.outcome_space
        space.validate(y)
        if space.is_finite:
            j = space.index(y)
            paid = [(rec.trader, float(rec.contract.values[j])) for rec in self.records]
            telescoped = self._held[j] - self._first[j]
        else:
            paid = [(rec.trader, rec.contract(y)) for rec in self.records]
            telescoped = self.rule.score(self.current, y) - self.rule.score(self.r0, y)
        by_trader: dict[str, float] = {}
        for trader, v in paid:
            by_trader[trader] = by_trader.get(trader, 0.0) + v
        total = math.fsum(by_trader.values())
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
                    witness={"r": _jsonable(a.r_old), "r_mid": _jsonable(a.r_new),
                             "r_new": _jsonable(b.r_new), "gap": gap},
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
        session._held = session._score(session.current)
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


def _trade_contracts(rule: ScoringRule, states: list) -> list:
    """``trade_contract`` of each pair of consecutive states, to the bit:
    one ``sum_rows`` of the states' score stack and itself shifted by one,
    over a finite space the floats (new + 0.0) - old, on the real line each
    row compacted as ``combine`` compacts it.  An overflow raises
    ``PayoffOverflow``."""
    if len(states) < 2:
        return []
    stack, transform = rule.score_stack(states)
    stack, rows = sum_rows([trade_leg(stack, slice(1, None), slice(None, -1))], transform)
    if not rows.finite.all():
        raise PayoffOverflow("payoffs must be finite")
    stack[-1].flags.writeable = False  # as every finite contract's payoffs
    return list(row_contracts(rule.outcome_space, stack, transform))


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
    first, second = tuple(a[:-1] for a in paid), tuple(a[1:] for a in paid)
    legs = [trade_leg(stack, slice(2, None), slice(None, -2))]
    if transform is None:
        legs.append(((first, second), (-1.0, -1.0)))
    else:
        legs += [((first,), (-1.0,)), ((second,), (-1.0,))]
    _, rows = sum_rows(legs, transform)
    span = np.maximum(np.abs(rows.inf()), np.abs(rows.sup()))
    return list(zip(span.tolist(), rows.finite))


def open_session(rule: ScoringRule, r0) -> MarketSession:
    return MarketSession(rule, r0)
