"""Differential test: the merge-walk ``combine`` against a reference that
bisects each operand's piece starts at every cell's lower end.  Outputs must
be equal bit for bit.  Regression tests pin each cell's sum at its lower end
against ``Contract.__call__`` of the operands."""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srmarket.contracts import (
    IDENTITY,
    INF,
    SIGMOID,
    STRUCT_TOL,
    Piece,
    combine,
    piecewise_contract,
)
from srmarket.scoring import ExpectileRule, QuantileRule


def reference_combine(contracts, weights):
    """Piecewise weighted sum: for every cell of the union of breakpoints,
    bisect each operand's piece starts at the cell's lower end."""
    first = contracts[0]
    cuts = sorted({b for c in contracts for b in c.breakpoints()})
    edges = [-INF] + cuts + [INF]
    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        acc = [0.0, 0.0, 0.0]
        mag = [0.0, 0.0, 0.0]
        for c, w in zip(contracts, weights):
            i = bisect_right([p.lo for p in c.pieces], lo) - 1
            i = max(i, 0)
            for j in range(3):
                term = float(w) * c.pieces[i].coeffs[j]
                acc[j] += term
                mag[j] = max(mag[j], abs(term))
        for j in range(3):
            if acc[j] != 0.0 and abs(acc[j]) <= STRUCT_TOL * mag[j]:
                acc[j] = 0.0
        pieces.append(Piece(lo, hi, tuple(acc)))
    merged = [pieces[0]]
    for p in pieces[1:]:
        if p.coeffs == merged[-1].coeffs:
            merged[-1] = Piece(merged[-1].lo, p.hi, p.coeffs)
        else:
            merged.append(p)
    return piecewise_contract(merged, first.transform)


# A small pool of breakpoints and coefficients makes operands share edges and
# cancel exactly, which exercises the snap and the run compaction.
EDGES = st.one_of(st.sampled_from([-3.0, -1.0, -0.25, 0.0, 0.5, 2.0, 7.5]),
                  st.floats(-50.0, 50.0, allow_nan=False))
COEFFS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.3, -0.7, 1e-13]),
                   st.floats(-1e3, 1e3, allow_nan=False))
WEIGHTS = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 0.5, 1.0 / 3.0, -2.5]),
                    st.floats(-10.0, 10.0, allow_nan=False))


@st.composite
def contract_lists(draw):
    transform = draw(st.sampled_from([IDENTITY, SIGMOID]))
    n = draw(st.integers(1, 50))
    contracts = []
    for _ in range(n):
        cuts = sorted(set(draw(st.lists(EDGES, max_size=3))))
        edges = [-INF] + cuts + [INF]
        m = len(edges) - 1
        flat = draw(st.lists(COEFFS, min_size=3 * m, max_size=3 * m))
        pieces = [Piece(lo, hi, tuple(flat[3 * i:3 * i + 3]))
                  for i, (lo, hi) in enumerate(zip(edges, edges[1:]))]
        contracts.append(piecewise_contract(pieces, transform))
    weights = draw(st.lists(WEIGHTS, min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        # the first operand again, negated: the sums cancel up to rounding
        contracts.append(contracts[0])
        weights.append(-weights[0])
    return contracts, weights


def _split(coeffs, cut=0.0):
    return piecewise_contract([Piece(-INF, cut, coeffs), Piece(cut, INF, coeffs)])


# 0.1 + 0.2 - 0.3 leaves a residue of 5.6e-17 in every coefficient
CANCELLING = ([_split((0.1,) * 3), _split((0.2,) * 3, 1.0), _split((0.3,) * 3)],
              [1.0, 1.0, -1.0])
# residues beside a small true slope: each coefficient has its own scale
MIXED_SCALES = ([_split((1e5, 1e-9, 0.1)), _split((2e5, 0.0, 0.2), 1.0),
                 _split((3e5, 0.0, 0.3))], [1.0, 1.0, -1.0])


@settings(max_examples=60, deadline=None)
@given(contract_lists())
@example(CANCELLING)
@example(MIXED_SCALES)
def test_matches_reference_bit_for_bit(case):
    contracts, weights = case
    got = combine(contracts, weights).to_dict()
    assert got == reference_combine(contracts, weights).to_dict()


def _ledger_contracts(rule, reports):
    """The trade contracts of a ledger from 0.0, then the direct trade from
    0.0 to the last report."""
    out, cur = [], 0.0
    for r in reports:
        out.append(rule.trade_contract(cur, r))
        cur = r
    return out + [rule.trade_contract(0.0, cur)]


def test_long_ledgers_match_reference():
    rng = np.random.default_rng(201)
    ledgers = [
        _ledger_contracts(QuantileRule(0.3, SIGMOID),
                          [float(r) for r in rng.normal(0.0, 2.0, 350)]),
        _ledger_contracts(ExpectileRule(0.3),
                          [float(r) for r in rng.uniform(-3.0, 3.0, 350)]),
    ]
    for contracts in ledgers:
        n = len(contracts) - 1
        # the ledger sum; the ledger minus the direct trade, which cancels
        # to rounding residue in every coefficient; random weights
        for weights in ([1.0] * n + [0.0], [1.0] * n + [-1.0],
                        [float(w) for w in rng.uniform(-2.0, 2.0, n + 1)]):
            assert (combine(contracts, weights).to_dict()
                    == reference_combine(contracts, weights).to_dict())


def _steps(cuts, levels):
    """A piecewise-constant contract: levels[k] from cuts[k - 1] on."""
    ends = [-INF] + list(cuts) + [INF]
    return piecewise_contract([Piece(lo, hi, (v, 0.0, 0.0))
                               for lo, hi, v in zip(ends, ends[1:], levels)])


_QUANTILE = QuantileRule(0.3)


@pytest.mark.parametrize("contracts,weights,ys", [
    # the trade -1e17 -> 0: beyond 2**53 no float lies within 1.0 below the
    # first breakpoint; -4e17 lies in the first cell
    ([_QUANTILE.score_contract(0.0), _QUANTILE.score_contract(-1e17)],
     [1.0, -1.0], [-4e17, -1e17, 0.0]),
    # a cell one float wide, whose midpoint rounds onto its upper end
    ([_steps([-5e-324], [1.0, 2.0]), _steps([0.0], [0.0, 1.0])],
     [1.0, 1.0], [-5e-324, 0.0]),
    # a cell whose ends sum past the largest float
    ([_steps([1e308], [1.0, 2.0]), _steps([1.7e308], [0.0, 1.0])],
     [1.0, 1.0], [1e308, 1.7e308]),
], ids=["quantile_trade_beyond_2_53", "adjacent_floats", "overflowing_midpoint"])
def test_each_cell_sums_the_pieces_at_its_lower_end(contracts, weights, ys):
    total = combine(contracts, weights)
    for y in ys:
        want = sum(w * c(y) for c, w in zip(contracts, weights))
        assert total(y) == pytest.approx(want, rel=1e-12)
