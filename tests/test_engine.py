"""Market sessions: trade execution, telescoping settlement, path
independence, replay determinism, worst-case loss."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srmarket.contracts import (
    SIGMOID,
    STRUCT_TOL,
    OutcomeSpace,
    PayoffOverflow,
    Piece,
    combine,
    contract_bounds,
    finite_belief,
    finite_contract,
    piecewise_contract,
)
from srmarket.convex import interval_negentropy, quadratic
from srmarket.costmarket import binary_lmsr_rule
from srmarket.engine import MarketSession, open_session
from srmarket.scoring import (
    ExpectationRule,
    ExpectileRule,
    FiniteRule,
    InvalidReport,
    ModeRule,
    QuantileRule,
    RatioRule,
)

# trades from 0.0 on ExpectileRule(0.3) whose two-step sum leaves an
# 8.9e-16 rounding residue in an unbounded tail slope
EXPECTILE_TRADES = (-1.6540547683787272, 1.5083204016972385,
                    -1.6536170941426578)


class TestSession:
    def test_open_validates_initial_report(self):
        rule = ModeRule([1, 2, 3])
        s = open_session(rule, 1)
        assert s.current == 1 and s.records == []
        with pytest.raises(InvalidReport):
            open_session(rule, 9)

    def test_trade_contract_values(self):
        rule = ModeRule([1, 2, 3])
        s = open_session(rule, 1)
        d = s.execute_trade("a", 2)
        assert np.array_equal(d.values, [-1.0, 1.0, 0.0])

    def test_mean_trade_contract(self):
        rule = ExpectationRule(quadratic(1))
        s = open_session(rule, 0.0)
        d = s.execute_trade("a", 2.0)
        for y in (0.0, 1.0, 2.5):
            assert d(y) == pytest.approx(-4.0 + 4.0 * y, abs=1e-12)

    def test_identity_trade_is_zero(self):
        rule = QuantileRule(0.5)
        s = open_session(rule, 0.7)
        d = s.execute_trade("a", 0.7)
        lo, hi = contract_bounds(d)
        assert lo == hi == 0.0

    def test_invalid_report_rejected_not_clamped(self):
        rule = ModeRule([1, 2, 3])
        s = open_session(rule, 1)
        with pytest.raises(InvalidReport):
            s.execute_trade("a", 4)
        assert s.current == 1 and not s.records


class TestSettlement:
    def test_mode_telescoping(self):
        rule = ModeRule([1, 2, 3])
        s = open_session(rule, 1)
        s.execute_trade("a", 2)
        s.execute_trade("b", 3)
        st = s.settle(3)
        assert st.maker_loss == pytest.approx(1.0, abs=1e-12)
        assert st.telescoped_loss == pytest.approx(st.maker_loss, abs=1e-12)

    def test_no_trades_zero_payoffs(self):
        rule = ModeRule([1, 2, 3])
        s = open_session(rule, 2)
        st = s.settle(1)
        assert st.payoffs == [] and st.maker_loss == 0.0

    def test_round_trip_nets_to_zero(self):
        rule = ExpectationRule(quadratic(1))
        s = open_session(rule, 0.0)
        s.execute_trade("a", 1.0)
        s.execute_trade("a", 0.0)
        for y in (-2.0, 0.3, 5.0):
            st = s.settle(y)
            assert st.maker_loss == pytest.approx(0.0, abs=1e-12)

    def test_telescoping_random_ledgers(self):
        rng = np.random.default_rng(0)
        rule = QuantileRule(0.4)
        for _ in range(5):
            s = open_session(rule, float(rng.normal()))
            for t in range(10):
                s.execute_trade(f"t{t % 3}", float(rng.normal() * 2))
            y = float(rng.normal())
            st = s.settle(y)
            assert st.maker_loss == pytest.approx(st.telescoped_loss,
                                                  abs=1e-12)

    def test_per_trader_aggregation(self):
        rule = ModeRule([1, 2])
        s = open_session(rule, 1)
        s.execute_trade("a", 2)
        s.execute_trade("b", 1)
        s.execute_trade("a", 2)
        st = s.settle(2)
        paid = dict(st.payoffs)
        # a: (S(2)-S(1)) + (S(2)-S(1)) at y=2 -> 2; b: S(1)-S(2) -> -1
        assert paid["a"] == pytest.approx(2.0)
        assert paid["b"] == pytest.approx(-1.0)


class TestPathIndependence:
    def test_mode_exact(self):
        rule = ModeRule([1, 2, 3])
        s = open_session(rule, 1)
        s.execute_trade("a", 2)
        s.execute_trade("b", 3)
        rep = s.verify_path_independence()
        assert rep.verdict == "holds" and rep.margin <= 1e-12

    def test_requires_two_trades(self):
        rule = ModeRule([1, 2, 3])
        s = open_session(rule, 1)
        s.execute_trade("a", 2)
        with pytest.raises(ValueError):
            s.verify_path_independence()

    @pytest.mark.parametrize("make_rule,reports", [
        (lambda: ExpectationRule(quadratic(1)), None),
        (lambda: QuantileRule(0.3), None),
        (lambda: QuantileRule(0.6, SIGMOID), None),
        (lambda: ExpectileRule(0.25), None),
        (lambda: ModeRule([1, 2, 3, 4]), [1, 2, 3, 4]),
    ])
    def test_random_ledgers_all_families(self, make_rule, reports):
        rng = np.random.default_rng(42)
        rule = make_rule()
        if reports is None:
            seq = [float(v) for v in rng.normal(scale=1.5, size=10)]
            r0 = 0.0
        else:
            seq = [reports[i] for i in rng.integers(0, len(reports), 10)]
            r0 = reports[0]
        s = open_session(rule, r0)
        for i, r in enumerate(seq):
            s.execute_trade(f"t{i}", r)
        rep = s.verify_path_independence()
        assert rep.verdict == "holds"
        assert rep.margin <= 1e-12

    def test_tail_slope_residue_is_not_a_gap(self):
        s = open_session(ExpectileRule(0.3), 0.0)
        for i, r in enumerate(EXPECTILE_TRADES):
            s.execute_trade(f"t{i}", r)
        rep = s.verify_path_independence()
        assert rep.verdict == "holds" and rep.margin <= 1e-12

    def test_real_tail_slope_gap_fails(self):
        s = open_session(ExpectileRule(0.3), 0.0)
        for i, r in enumerate(EXPECTILE_TRADES):
            s.execute_trade(f"t{i}", r)
        rec = s.records[-1]
        *body, (lo, hi, (c0, c1, c2)) = [(p.lo, p.hi, p.coeffs)
                                         for p in rec.contract.pieces]
        rec.contract = piecewise_contract(
            [Piece(*p) for p in body] + [Piece(lo, hi, (c0, c1 + 1e-9, c2))])
        rep = s.verify_path_independence()
        assert rep.verdict == "fails" and rep.margin == math.inf

    def test_finite_record_gap_fails(self):
        # the finite twin: the check reads the recorded payoffs, so a record
        # moved by 1e-9 fails its first pair, named by its three states
        s = open_session(ModeRule([1, 2, 3]), 1)
        for i, r in enumerate((2, 3, 1, 2)):
            s.execute_trade(f"t{i}", r)
        rec = s.records[2]
        rec.contract = finite_contract(rec.contract.space,
                                       rec.contract.values + [0.0, 1e-9, 0.0])
        rep = s.verify_path_independence()
        assert rep.verdict == "fails"
        assert rep.margin == pytest.approx(1e-9, rel=1e-6)
        assert rep.witness == {"r": "2", "r_mid": "3", "r_new": "1",
                               "gap": rep.margin}
        assert (rep.verdict, rep.margin) == _pairwise_path_independence(s)

    def test_finite_overflow_raises(self):
        # each trade pays 1e308 on outcome a; the direct trade overflows
        rule = FiniteRule([[-1e308, 0.0], [0.0, 0.0], [1e308, 0.0], [1.0, 0.0]],
                          OutcomeSpace.finite(["a", "b"]))
        s = open_session(rule, 1)
        s.execute_trade("t0", 2)
        s.execute_trade("t1", 3)
        with pytest.raises(ValueError, match="payoffs must be finite") as exc:
            s.verify_path_independence()
        assert isinstance(exc.value, PayoffOverflow)
        # a pair that fails before the overflowing one still decides
        s = open_session(rule, 4)
        for i, r in enumerate((1, 2, 3)):
            s.execute_trade(f"t{i}", r)
        rec = s.records[0]
        rec.contract = finite_contract(rec.contract.space,
                                       rec.contract.values + [0.0, 1e-9])
        rep = s.verify_path_independence()
        assert rep.verdict == "fails" and rep.witness["r_new"] == "2"
        # recorded steps whose sum overflows raise as well
        s = open_session(ModeRule([1, 2, 3]), 1)
        s.execute_trade("t0", 2)
        s.execute_trade("t1", 3)
        for rec in s.records:
            rec.contract = finite_contract(rec.contract.space,
                                           [1.5e308, 0.0, 0.0])
        with pytest.raises(PayoffOverflow, match="payoffs must be finite"):
            s.verify_path_independence()


def _pairwise_path_independence(s: MarketSession) -> tuple:
    """(verdict, margin) of path independence checked pair by pair, each
    direct trade rebuilt by ``trade_contract``: the check that scoring each
    state once replaced."""
    worst = 0.0
    for a, b in zip(s.records, s.records[1:]):
        direct = s.rule.trade_contract(a.r_old, b.r_new)
        if direct.is_finite:
            stepped = combine([a.contract, b.contract], [1.0, 1.0])
            gap = float(np.max(np.abs(direct.values - stepped.values)))
        else:
            lo, hi = contract_bounds(combine([direct, a.contract, b.contract],
                                             [1.0, -1.0, -1.0]))
            span = max(abs(lo), abs(hi))
            gap = span if math.isfinite(span) else math.inf
        worst = max(worst, gap)
        if gap > STRUCT_TOL:
            return "fails", gap
    return "holds", worst


# rule, initial report, and a strategy for its reports: the families of
# the long-session benchmark, and the mode market
LEDGER_FAMILIES = {
    "mode": (ModeRule([1, 2, 3]), 1, st.sampled_from([1, 2, 3])),
    "sigmoid quantile": (QuantileRule(0.3, SIGMOID), 0.0, st.floats(-20.0, 20.0)),
    "expectile": (ExpectileRule(0.3), 0.0, st.floats(-10.0, 10.0)),
    "binary lmsr": (binary_lmsr_rule(), 0.0, st.floats(-20.0, 20.0)),
    "ratio": (RatioRule(interval_negentropy(0.0, 3.0), [0.0, 1.0, 3.0],
                        [2.0, 1.0, 1.0], OutcomeSpace.finite([1, 2, 3])),
              1.0, st.floats(0.05, 2.95)),
}


def _generated_session(data, rule, r0, report, min_size: int = 0):
    """A session of up to 30 generated (trader, report) trades."""
    s = open_session(rule, r0)
    trades = data.draw(st.lists(st.tuples(st.text(max_size=4), report),
                                min_size=min_size, max_size=30), label="ledger")
    for trader, r in trades:
        s.execute_trade(trader, r)
    return s


def _long_session_ledgers(seed: int, n: int = 350):
    """Seeded ledgers on the families of the long-session benchmark."""
    rng = np.random.default_rng(seed)
    ratio = RatioRule(interval_negentropy(0.0, 3.0), [0.0, 1.0, 3.0],
                      [2.0, 1.0, 1.0], OutcomeSpace.finite([1, 2, 3]))
    specs = [
        (QuantileRule(0.3, SIGMOID), 0.0, rng.normal(0.0, 2.0, n)),
        (ExpectileRule(0.3), 0.0, rng.uniform(-3.0, 3.0, n)),
        (binary_lmsr_rule(), 0.0, rng.normal(0.0, 3.0, n)),
        (ratio, 1.0, rng.uniform(0.05, 2.95, n)),
    ]
    for rule, r0, reports in specs:
        s = open_session(rule, r0)
        for i, r in enumerate(reports):
            s.execute_trade(f"t{i % 7}", float(r))
        yield s, rng


class TestTelescopedPosition:
    def test_no_trades_is_zero(self):
        s = open_session(QuantileRule(0.3, SIGMOID), 0.0)
        assert contract_bounds(s.position_contract()) == (0.0, 0.0)
        assert s.worst_case_loss() == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sum_of_ledger(self, seed):
        for s, rng in _long_session_ledgers(seed):
            _assert_telescopes(s, [float(y) for y in rng.uniform(-6.0, 6.0, 20)])

    @pytest.mark.parametrize("family", sorted(LEDGER_FAMILIES))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_sum_of_generated_ledger(self, family, data):
        # pointwise, to the snap of the sum: a net move below combine's snap
        # of cancellation residue (STRUCT_TOL of the largest term) leaves the
        # position a slope that the snapped sum drops, so their bounds may
        # differ (expectile ledger 0 -> 1.0 -> 3.9e-146: -inf against -6e-292)
        rule, r0, report = LEDGER_FAMILIES[family]
        s = _generated_session(data, rule, r0, report, min_size=1)
        _assert_telescopes(s, data.draw(st.lists(
            st.floats(-6.0, 6.0), max_size=5), label="outcomes"), bounds=False)


class TestScoredOnce:
    @pytest.mark.parametrize("family", sorted(LEDGER_FAMILIES))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_rebuilt_trades(self, family, data):
        # each state scored once gives the contracts and the path check of
        # rebuilding both scores of every trade
        rule, r0, report = LEDGER_FAMILIES[family]
        s = _generated_session(data, rule, r0, report)
        for rec in s.records:
            want = rule.trade_contract(rec.r_old, rec.r_new)
            assert rec.contract.to_dict() == want.to_dict()
        want = rule.trade_contract(r0, s.current)
        assert s.position_contract().to_dict() == want.to_dict()
        if len(s.records) >= 2:
            rep = s.verify_path_independence()
            assert (rep.verdict, rep.margin) == _pairwise_path_independence(s)


def _assert_telescopes(s: MarketSession, outcomes, bounds: bool = True) -> None:
    """The telescoped position S(r_T, .) - S(r_0, .) equals the sum of the
    ledger's trade contracts: in its bounds, and at each outcome of a finite
    space, or at the breakpoints and the given outcomes of the real line."""
    summed = combine([r.contract for r in s.records], [1.0] * len(s.records))
    position = s.position_contract()
    for want, got in zip(contract_bounds(summed), contract_bounds(position)) \
            if bounds else ():
        assert math.isfinite(want) == math.isfinite(got)
        if math.isfinite(want):
            assert abs(got - want) <= STRUCT_TOL * max(abs(want), 1.0)
    if position.is_finite:
        outcomes = list(s.rule.outcome_space.labels)
    else:
        outcomes = summed.breakpoints() + position.breakpoints() + outcomes
    for y in outcomes:
        want = summed(y)
        if bounds:
            assert abs(position(y) - want) <= STRUCT_TOL * (1.0 + abs(want))
        else:
            # combine snaps each coefficient sum below STRUCT_TOL of its
            # largest term, so the sum holds to that much of the terms' size
            size = sum(_term_size(r.contract, y) for r in s.records)
            assert abs(position(y) - want) <= 2.0 * STRUCT_TOL * (1.0 + size)


def _term_size(d, y) -> float:
    """|c0| + |c1 t| + |c2 t^2| of the piece paying d(y), or |d(y)|."""
    if d.values is not None:
        return abs(d(y))
    i = max(bisect_right([p.lo for p in d.pieces], y) - 1, 0)
    t = abs(d.transform(y))
    return sum(abs(c) * t ** k for k, c in enumerate(d.pieces[i].coeffs))


class TestWorstCaseLoss:
    def test_mode_single_trade_at_most_one(self):
        rule = ModeRule([1, 2, 3])
        for r in (2, 3):
            s = open_session(rule, 1)
            s.execute_trade("a", r)
            assert s.worst_case_loss() <= 1.0 + 1e-12

    def test_mean_unbounded(self):
        rule = ExpectationRule(quadratic(1))
        s = open_session(rule, 0.0)
        s.execute_trade("a", 1.0)
        assert s.worst_case_loss() == math.inf

    def test_sigmoid_quantile_bounded_by_one(self):
        rule = QuantileRule(0.5, SIGMOID)
        rng = np.random.default_rng(3)
        s = open_session(rule, 0.0)
        for i in range(6):
            s.execute_trade(f"t{i}", float(rng.normal(scale=2)))
        assert s.worst_case_loss() <= 1.0 + 1e-12

    def test_settlement_below_wcl_bound(self):
        rule = ModeRule([1, 2, 3])
        s = open_session(rule, 1)
        s.execute_trade("a", 3)
        s.execute_trade("b", 2)
        wcl = s.worst_case_loss()
        for y in (1, 2, 3):
            assert s.settle(y).maker_loss <= wcl + 1e-12


class TestLedgerReplay:
    def test_bit_for_bit_contracts_finite(self):
        rule = ModeRule([1, 2, 3])
        s = open_session(rule, 1)
        rng = np.random.default_rng(5)
        for i in range(8):
            s.execute_trade(f"t{i % 2}", int(rng.integers(1, 4)))
        replayed = MarketSession.replay(rule, 1, s.ledger_lines())
        assert replayed.current == s.current
        for a, b in zip(s.records, replayed.records):
            assert np.array_equal(a.contract.values, b.contract.values)
            assert a.trader == b.trader and a.index == b.index

    def test_replay_real_line(self):
        rule = QuantileRule(0.4)
        s = open_session(rule, 0.0)
        for i, r in enumerate((1.0, -0.5, 2.25)):
            s.execute_trade(f"t{i}", r)
        replayed = MarketSession.replay(rule, 0.0, s.ledger_lines())
        for a, b in zip(s.records, replayed.records):
            assert a.contract.pieces == b.contract.pieces

    @pytest.mark.parametrize("family", ["mode", "sigmoid quantile"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_generated_ledgers_round_trip(self, family, data):
        # ledger_lines -> replay rebuilds every trade contract bit for bit,
        # on a finite and on a real-line rule
        rule, r0, report = LEDGER_FAMILIES[family]
        s = _generated_session(data, rule, r0, report)
        replayed = MarketSession.replay(rule, r0, s.ledger_lines())
        assert len(replayed.records) == len(s.records)
        assert replayed.ledger_lines() == s.ledger_lines()
        for a, b in zip(s.records, replayed.records):
            assert _bits(a.contract) == _bits(b.contract)


def _bits(d) -> bytes:
    """The bytes of a contract's payoff vector, or of its pieces' ends and
    coefficients."""
    if d.values is not None:
        return np.asarray(d.values, dtype=float).tobytes()
    return np.array([(p.lo, p.hi, *p.coeffs) for p in d.pieces]).tobytes()
