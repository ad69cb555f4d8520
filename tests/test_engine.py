"""Market sessions: trade execution, telescoping settlement, path
independence, replay determinism, worst-case loss."""

import json
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srmarket.contracts import (
    SIGMOID,
    STRUCT_TOL,
    InvalidOutcome,
    OutcomeSpace,
    PayoffOverflow,
    combine,
    contract_bounds,
    finite_belief,
    finite_contract,
    piecewise_contract,
)
from srmarket.convex import interval_negentropy, quadratic
from srmarket.costmarket import (
    binary_lmsr_rule,
    discretized_lmsr_rule,
    exp_family_rule,
)
from srmarket.engine import MarketSession, _unjson, open_session
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

    @pytest.mark.parametrize("rule", [QuantileRule(0.5), ExpectileRule(0.3)],
                             ids=["quantile", "expectile"])
    def test_real_line_outcome_outside_the_space_raises(self, rule):
        # nan and +-inf settled to a nan maker loss, and "x" to a bare
        # TypeError
        s = open_session(rule, 0.0)
        s.execute_trade("a", 1.0)
        s.execute_trade("b", -0.5)
        for y in (math.nan, math.inf, -math.inf, "x"):
            with pytest.raises(InvalidOutcome):
                s.settle(y)
            with pytest.raises(InvalidOutcome):
                rule.score(0.0, y)
        # numpy scalars are outcomes, as before
        for y in (0.25, np.int64(1), np.float32(-0.5)):
            assert math.isfinite(s.settle(y).maker_loss)

    def test_an_int_past_the_float_range_is_no_outcome(self):
        # math.isfinite of it raised OverflowError
        s = open_session(QuantileRule(0.5), 0.0)
        s.execute_trade("a", 1.0)
        with pytest.raises(InvalidOutcome):
            s.settle(10 ** 400)

    def test_finite_outcome_outside_the_space_raises_as_before(self):
        s = open_session(ModeRule([1, 2, 3]), 1)
        s.execute_trade("a", 2)
        for y in (4, math.nan, "x"):
            with pytest.raises(InvalidOutcome):
                s.settle(y)
        assert s.settle(2).maker_loss == 1.0


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
        *body, (c0, c1, c2) = rec.contract.pieces
        rec.contract = piecewise_contract(rec.contract.ends,
                                          [*body, (c0, c1 + 1e-9, c2)])
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
        assert rep.witness == {"r": 2, "r_mid": 3, "r_new": 1,
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
        assert rep.verdict == "fails" and rep.witness["r_new"] == 2
        # recorded steps whose sum overflows raise as well
        s = open_session(ModeRule([1, 2, 3]), 1)
        s.execute_trade("t0", 2)
        s.execute_trade("t1", 3)
        for rec in s.records:
            rec.contract = finite_contract(rec.contract.space,
                                           [1.5e308, 0.0, 0.0])
        with pytest.raises(PayoffOverflow, match="payoffs must be finite"):
            s.verify_path_independence()

    def test_finite_trade_overflow_raises(self):
        # the trade 1 -> 2 pays 1e308 - (-1e308) on outcome a: it raises and
        # leaves the session as it was
        rule = FiniteRule([[-1e308, 0.0], [1e308, 0.0]],
                          OutcomeSpace.finite(["a", "b"]))
        s = open_session(rule, 1)
        with pytest.raises(PayoffOverflow, match="payoffs must be finite"):
            s.execute_trade("t0", 2)
        assert s.current == 1 and s.records == []
        assert _bits(s.position_contract()) == _bits(rule.trade_contract(1, 1))
        assert s.settle("a").maker_loss == 0.0

    def test_real_overflow_raises(self):
        # the real-line twin: QuantileRule(0.1) pays -0.9 (t(r') - t(r)) below
        # both reports, so the trade 1.7e308 -> -1.7e308 holds an infinite
        # coefficient; combine once recorded it, and now the trade raises
        # and leaves the session as it was
        s = open_session(QuantileRule(0.1), 0.0)
        s.execute_trade("t0", 1.7e308)
        with pytest.raises(PayoffOverflow, match="payoffs must be finite"):
            s.execute_trade("t1", -1.7e308)
        assert s.current == 1.7e308 and len(s.records) == 1
        assert s.position_contract().to_dict() == \
            s.rule.trade_contract(0.0, 1.7e308).to_dict()
        # a recorded step with an infinite constant term: combine snaps the
        # infinite sum to 0.0 and reads no gap, the row sums keep it
        s = open_session(ExpectationRule(quadratic(1)), 0.0)
        s.execute_trade("t0", 1.0)
        s.execute_trade("t1", 2.0)
        s.records[1].contract = piecewise_contract((), [(math.inf, 2.0, 0.0)])
        with pytest.raises(PayoffOverflow, match="payoffs must be finite"):
            s.verify_path_independence()


def _pairwise_path_independence(s: MarketSession) -> tuple:
    """(verdict, margin) of path independence checked pair by pair, each
    direct trade rebuilt by ``trade_contract``: the check that scoring each
    state once replaced."""
    worst = 0.0
    for a, b in zip(s.records, s.records[1:]):
        direct = s.rule.trade_contract(a.r_old, b.r_new)
        if direct.values is not None:
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


# the ledger families and two more real-line rules; reports also come from
# a small pool, so that ledgers revisit states (mode reports are few labels)
REVISITING_FAMILIES = {
    **LEDGER_FAMILIES,
    "mean": (ExpectationRule(quadratic(1)), 0.0, st.floats(-20.0, 20.0)),
    "median": (QuantileRule(0.5), 0.0, st.floats(-20.0, 20.0)),
}
for name, (rule, r0, report) in REVISITING_FAMILIES.items():
    if name != "mode":
        pool = [0.5, 1.0, 2.5] if name == "ratio" else [0.0, -0.0, 1.5, -2.0]
        REVISITING_FAMILIES[name] = (
            rule, r0, st.one_of(st.sampled_from(pool), report))


def _vector(pool):
    return st.one_of(st.sampled_from(pool), st.lists(
        st.floats(-6.0, 6.0), min_size=2, max_size=2)).map(
            lambda v: np.array(v, dtype=float))


# the revisiting families, payoffs of -0.0 (which the row differences must
# add in combine's order), a share lattice, and a two-security cost market
# with vector reports; reports also come from a small pool, which holds 0.0
# and -0.0 where the report space does, and on the real line a report an
# ulp from the pool's 1.5, whose trade leaves a residue that combine snaps
REPLAY_FAMILIES = {
    **{name: (rule, r0, report if rule.outcome_space.is_finite
              else st.one_of(st.just(1.5000000000000002), report))
       for name, (rule, r0, report) in REVISITING_FAMILIES.items()},
    "signed zeros": (FiniteRule([[-0.0, 1.0], [0.0, -0.0], [2.0, -0.0]],
                                OutcomeSpace.finite(["a", "b"])),
                     1, st.sampled_from([1, 2, 3])),
    "discretized lmsr": (discretized_lmsr_rule(), 0.0, st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -2.0]),
        st.integers(-30, 30).map(float))),
    "exp family 2": (exp_family_rule([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
                     np.zeros(2), _vector([[0.0, -0.0], [-0.0, 1.5], [2.0, 0.0]])),
}


# the revisiting families, and the replay families whose payoffs hold -0.0
# or whose reports are share lattice points or vectors
SCORED_ONCE_FAMILIES = {
    **REVISITING_FAMILIES,
    **{name: REPLAY_FAMILIES[name]
       for name in ("signed zeros", "discretized lmsr", "exp family 2")},
}


class TestScoredOnce:
    @pytest.mark.parametrize("family", sorted(SCORED_ONCE_FAMILIES))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_rebuilt_trades(self, family, data):
        # each state scored once gives, to the bit, the contracts of
        # rebuilding both scores of every trade through trade_contract,
        # and the path check of the pairwise reference
        rule, r0, report = SCORED_ONCE_FAMILIES[family]
        s = _generated_session(data, rule, r0, report)
        for rec in s.records:
            want = rule.trade_contract(rec.r_old, rec.r_new)
            assert _bits(rec.contract) == _bits(want)
        want = rule.trade_contract(r0, s.current)
        assert _bits(s.position_contract()) == _bits(want)
        if len(s.records) >= 2:
            rep = s.verify_path_independence()
            assert (rep.verdict, rep.margin) == _pairwise_path_independence(s)

    @pytest.mark.parametrize("family", sorted(SCORED_ONCE_FAMILIES))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_settles_as_the_record_loop(self, family, data):
        # the payoffs and the maker loss of the loop over rec.contract(y) in
        # record order, and the telescoped loss of rule.score, to the bit
        rule, r0, report = SCORED_ONCE_FAMILIES[family]
        s = _generated_session(data, rule, r0, report)
        outcomes = rule.outcome_space.labels or data.draw(st.lists(
            st.floats(-6.0, 6.0), min_size=1, max_size=5), label="outcomes")
        for y in outcomes:
            by_trader: dict = {}
            for rec in s.records:
                by_trader[rec.trader] = by_trader.get(rec.trader, 0.0) + rec.contract(y)
            settled = s.settle(y)
            assert [(t, v.hex()) for t, v in settled.payoffs] == \
                [(t, v.hex()) for t, v in by_trader.items()]
            assert settled.maker_loss.hex() == math.fsum(by_trader.values()).hex()
            want = rule.score(s.current, y) - rule.score(r0, y)
            assert settled.telescoped_loss.hex() == want.hex()


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
    if position.values is not None:
        outcomes = list(s.rule.outcome_space.labels)
    else:
        outcomes = [*summed.ends, *position.ends, *outcomes]
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
    t = abs(d.transform(y))
    return sum(abs(c) * t ** k for k, c in enumerate(d.pieces[bisect_right(d.ends, y)]))


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
            # read-only, as the payoffs of every finite contract
            assert not (a.contract.values.flags.writeable
                        or b.contract.values.flags.writeable)
            assert a.trader == b.trader and a.index == b.index

    def test_replay_real_line(self):
        rule = QuantileRule(0.4)
        s = open_session(rule, 0.0)
        for i, r in enumerate((1.0, -0.5, 2.25)):
            s.execute_trade(f"t{i}", r)
        replayed = MarketSession.replay(rule, 0.0, s.ledger_lines())
        for a, b in zip(s.records, replayed.records):
            assert (a.contract.ends, a.contract.pieces) == \
                (b.contract.ends, b.contract.pieces)

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


def _replay_loop(rule, r0, lines) -> MarketSession:
    """The replay that executed one trade per ledger line, which the
    one-table replay replaced: the reference it is pinned to."""
    session = MarketSession(rule, r0)
    for line in lines:
        rec = json.loads(line)
        session.execute_trade(rec["trader"], _unjson(rec["r_new"]))
    return session


def _replayed(replay, rule, r0, lines):
    """The replayed session, or the class and message of what it raised."""
    try:
        return replay(rule, r0, lines)
    except Exception as exc:
        return type(exc), str(exc)


def _ledger_lines(states) -> list[str]:
    """The lines of a ledger through the states, each trade unchecked."""
    return [json.dumps({"index": i, "trader": f"t{i}", "r_old": a, "r_new": b},
                       sort_keys=True) for i, (a, b) in enumerate(zip(states, states[1:]))]


class TestReplayMatchesLoop:
    @pytest.mark.parametrize("family", sorted(REPLAY_FAMILIES))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_generated_ledgers(self, family, data):
        # every contract and the held score to the bit, the state and the
        # lines; a line cut short fails as it failed trade by trade
        rule, r0, report = REPLAY_FAMILIES[family]
        lines = _generated_session(data, rule, r0, report).ledger_lines()
        if lines and data.draw(st.booleans(), label="malformed"):
            k = data.draw(st.integers(0, len(lines) - 1), label="line")
            lines[k] = lines[k][:-1]
        want = _replayed(_replay_loop, rule, r0, lines)
        got = _replayed(MarketSession.replay, rule, r0, lines)
        if isinstance(want, tuple):
            assert got == want
            return
        assert len(got.records) == len(want.records)
        for a, b in zip(want.records, got.records):
            assert _bits(a.contract) == _bits(b.contract)
            assert (a.index, a.trader) == (b.index, b.trader)
        # the held score: a payoff list over a finite space, else a contract
        assert type(got._held) is type(want._held)
        assert _bits(got._held) == _bits(want._held)
        assert np.array_equal(got.current, want.current)
        assert got.ledger_lines() == want.ledger_lines() == lines

    def test_off_lattice_bundle(self):
        # a full-space ledger replayed on the share lattice: line 2 buys 0.5
        ledger = open_session(binary_lmsr_rule(), 0.0)
        for i, q in enumerate((1.0, 3.0, 3.5, 4.0)):
            ledger.execute_trade(f"t{i}", q)
        lines = ledger.ledger_lines()
        rule = discretized_lmsr_rule()
        want = _replayed(_replay_loop, rule, 0.0, lines)
        assert want == (InvalidReport, "bundle [0.5] is not in the share space")
        assert _replayed(MarketSession.replay, rule, 0.0, lines) == want

    def test_overflow_decides_before_a_later_bad_line(self):
        # QuantileRule(0.1) trades 1.7e308 -> -1.7e308 with an infinite
        # coefficient at line 1; line 2's NaN report fails validation after it
        rule = QuantileRule(0.1)
        for states, error in (([0.0, 1.7e308, -1.7e308], PayoffOverflow),
                              ([0.0, 1.7e308, -1.7e308, math.nan], PayoffOverflow),
                              ([0.0, 1.7e308, math.nan], InvalidReport)):
            lines = _ledger_lines(states)
            want = _replayed(_replay_loop, rule, 0.0, lines)
            assert want[0] is error
            assert _replayed(MarketSession.replay, rule, 0.0, lines) == want

    def test_lines_out_of_place_raise(self):
        # the ledger 1 -> 3 -> 2, replayed from lines that were swapped,
        # skipped or edited: each names the first line out of place
        rule = ModeRule([1, 2, 3])
        s = open_session(rule, 1)
        for i, r in enumerate((3, 2, 1)):
            s.execute_trade(f"t{i}", r)
        lines = s.ledger_lines()
        with pytest.raises(ValueError, match="ledger line 0 has index 1"):
            MarketSession.replay(rule, 1, lines[1::-1])
        with pytest.raises(ValueError, match="ledger line 1 has index 2"):
            MarketSession.replay(rule, 1, [lines[0], lines[2]])
        edited = json.loads(lines[1])
        edited["r_old"] = 2
        with pytest.raises(ValueError, match="ledger line 1 trades from 2, "
                                             "not from the state 3"):
            MarketSession.replay(rule, 1, [lines[0], json.dumps(edited), lines[2]])
        with pytest.raises(ValueError, match="ledger line 0 trades from 1"):
            MarketSession.replay(rule, 2, lines)
        assert MarketSession.replay(rule, 1, lines).ledger_lines() == lines

    def test_vector_r_old_compares_entries(self):
        rule = exp_family_rule([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        s = open_session(rule, np.zeros(2))
        s.execute_trade("a", np.array([1.0, -0.5]))
        s.execute_trade("b", np.array([0.25, 2.0]))
        lines = s.ledger_lines()
        assert MarketSession.replay(rule, np.zeros(2), lines).ledger_lines() == lines
        edited = json.loads(lines[1])
        edited["r_old"]["vec"][1] = 0.5
        with pytest.raises(ValueError, match="ledger line 1 trades from"):
            MarketSession.replay(rule, np.zeros(2), [lines[0], json.dumps(edited)])


def _bits(d) -> bytes:
    """The bytes of a payoff list, of a contract's payoff vector, or of its
    pieces' ends and coefficients."""
    values = d if isinstance(d, list) else d.values
    if values is not None:
        return np.asarray(values, dtype=float).tobytes()
    return np.array([*d.ends, *np.ravel(d.pieces)], dtype=float).tobytes()
