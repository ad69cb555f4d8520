"""Differential test of ``contracts.sum_rows``, the one row layer of ARB,
WCL, IC, WN/TN/PN, path independence and ledger replay, against the nesting
of ``combine`` it stands for: each leg a ``combine`` of its weighted
operands, and the legs a ``combine`` with weights 1.  Row by row the
infimum and sup of ``Rows`` must equal ``contract_bounds`` of that contract
bit for bit, and the summed stack must be that contract, compacted by
``merge_runs`` on the real line.  A row whose sum overflows must be one
that ``combine`` refuses.  The one leg of ``trade_leg`` must sum to
``trade_contract`` of each row's pair of reports, bit for bit, for every
bundled check market.  ``contract_is_constant`` is held to the per-piece
loop it replaced, kept here as the reference."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from srmarket.cli import build_rule, bundled_config_names, load_config
from srmarket.contracts import (
    FLAT_TOL,
    IDENTITY,
    INF,
    SIGMOID,
    OutcomeSpace,
    PayoffOverflow,
    _poly_extremes,
    combine,
    contract_bounds,
    contract_is_constant,
    contract_pieces,
    finite_contract,
    merge_runs,
    piecewise_contract,
    row_contracts,
    sum_rows,
    trade_leg,
)

EDGES = st.one_of(st.sampled_from([-1e308, -3.0, -1.0, 0.0, 0.5, 2.0, 1e17]),
                  st.floats(-50.0, 50.0))
# 0.3 - (0.1 + 0.2) leaves residue that the snap clears; 1.5e308 twice
# overflows
COEFFS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.3, 0.1 + 0.2, 1e-13,
                                    1e10, 1.5e308]),
                   st.floats(-1e3, 1e3))
SPACE = OutcomeSpace.finite([0, 1, 2])


@st.composite
def piecewise(draw, transform):
    cuts = sorted(set(draw(st.lists(EDGES, max_size=3))))
    m = len(cuts) + 1
    flat = draw(st.lists(COEFFS, min_size=3 * m, max_size=3 * m))
    return piecewise_contract(
        cuts, [tuple(flat[3 * k:3 * k + 3]) for k in range(m)], transform)


@st.composite
def vectors(draw):
    return finite_contract(SPACE, draw(st.lists(COEFFS, min_size=3, max_size=3)))


@st.composite
def legs(draw, operand):
    """(rows, legs): 1-3 legs of 1-3 operands each, weights +-1, and each
    operand a list of contracts, one per row or one that serves all."""
    rows = draw(st.integers(1, 4))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 3))
        operands = [draw(st.lists(operand, min_size=n, max_size=n))
                    for n in draw(st.lists(st.sampled_from([1, rows]),
                                           min_size=size, max_size=size))]
        weights = draw(st.lists(st.sampled_from([1.0, -1.0]),
                                min_size=size, max_size=size))
        out.append((operands, tuple(weights)))
    return rows, out


def nested_combine(legs, row):
    """The row's contract: each leg ``combine``d, then the legs with weights
    1; None where ``combine`` refuses an overflow (over a finite space after
    numpy's warning)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            sums = [combine([ops[row % len(ops)] for ops in operands], weights)
                    for operands, weights in legs]
            return combine(sums, [1.0] * len(sums))
    except PayoffOverflow:
        return None


def summed(legs, stack):
    return sum_rows([(tuple(stack(ops) for ops in operands), weights)
                     for operands, weights in legs],
                    legs[0][0][0][0].transform)


def same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_rows_match(rows, legs, rows_out, to_contract):
    (*cuts, net), got = rows_out
    for r in range(rows):
        want = nested_combine(legs, r)
        # stacks of one row each sum to one row
        k = r % len(net)
        assert bool(got.finite[k]) == (want is not None)
        if want is None:
            continue
        lo, hi = contract_bounds(want)
        assert same(float(got.inf()[k]), lo)
        assert same(float(got.sup()[k]), hi)
        assert to_contract(cuts, net, k).to_dict() == want.to_dict()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_real_line_rows_match_nested_combine(data):
    transform = data.draw(st.sampled_from([IDENTITY, SIGMOID]))
    rows, legs_ = data.draw(legs(piecewise(transform)))

    def compacted(cuts, net, r):
        cells = [tuple(c) for c in net[r].tolist()]
        return piecewise_contract(*merge_runs(cuts[0][r].tolist(), cells), transform)

    assert_rows_match(rows, legs_, summed(legs_, contract_pieces), compacted)


@settings(max_examples=200, deadline=None)
@given(legs(vectors()))
def test_finite_rows_match_nested_combine(drawn):
    rows, legs_ = drawn
    out = sum_rows([(tuple((np.array([c.values for c in ops]),) for ops in operands),
                     weights) for operands, weights in legs_])
    assert_rows_match(rows, legs_, out,
                      lambda cuts, net, r: finite_contract(SPACE, net[r]))


def test_one_leg_of_one_stack_is_the_stack():
    # 0.0 + x is x, to the bit, for an x that no sum starting at 0.0 makes
    # -0.0
    values = np.array([[0.0, -2.5, 1e-300]])
    (net,), rows = sum_rows([(((values,),), (1.0,))])
    assert net.tobytes() == values.tobytes()
    assert rows.finite.tolist() == [True]


# ---------------------------------------------------------------------------
# trade_leg

CHECK_MARKETS = [name for name in bundled_config_names()
                 if "axioms" in load_config(name)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CHECK_MARKETS), st.data())
def test_trade_leg_sums_to_trade_contracts(name, data):
    rule = build_rule(load_config(name)["market"])
    grid = rule.report_grid()
    reports = [grid[i] for i in data.draw(
        st.lists(st.integers(0, len(grid) - 1), min_size=2, max_size=6))]
    R = len(reports)
    form = data.draw(st.sampled_from(["indices", "slices", "one old row"]))
    if form == "indices":
        n = data.draw(st.integers(1, 8))
        idx = st.lists(st.integers(0, R - 1), min_size=n, max_size=n)
        new, old = np.array(data.draw(idx)), np.array(data.draw(idx))
        pairs = list(zip(old.tolist(), new.tolist()))
    elif form == "slices":
        new, old = slice(1, None), slice(None, -1)
        pairs = [(k, k + 1) for k in range(R - 1)]
    else:
        new, old = slice(1, None), slice(0, 1)
        pairs = [(0, k) for k in range(1, R)]
    scores, transform = rule.score_stack(reports)
    stack, got = sum_rows([trade_leg(scores, new, old)], transform)
    assert got.finite.all()
    for k, (row, (i, j)) in enumerate(zip(
            row_contracts(rule.outcome_space, stack, transform), pairs, strict=True)):
        want = rule.trade_contract(reports[i], reports[j])
        assert repr(row.to_dict()) == repr(want.to_dict())
        lo, hi = contract_bounds(want)
        assert (float(got.inf()[k]), float(got.sup()[k])) == (lo, hi)


# ---------------------------------------------------------------------------
# contract_is_constant


def reference_is_constant(d, tol):
    """The per-piece loop ``contract_is_constant`` ran before it read
    ``contract_bounds``."""
    if d.values is not None:
        lvl = float(np.mean(d.values))
        return bool(np.max(np.abs(d.values - lvl)) <= tol), lvl
    lvl = d.pieces[0][0]
    T = d.transform
    for lo, hi, coeffs in zip((-INF, *d.ends), (*d.ends, INF), d.pieces):
        ta = T(lo) if math.isfinite(lo) else T.lo_limit()
        tb = T(hi) if math.isfinite(hi) else T.hi_limit()
        plo, phi = _poly_extremes(coeffs, ta, tb)
        if not (abs(plo - lvl) <= tol and abs(phi - lvl) <= tol):
            return False, lvl
    return True, lvl


# levels and nearly flat slopes, so that a good share of contracts is flat
NEAR = st.sampled_from([0.0, 1.0, 1.0 + 1e-10, 1.0 - 3e-8, 1.4, 1e-12, -1e-9])


@st.composite
def near_flat(draw):
    transform = draw(st.sampled_from([IDENTITY, SIGMOID, None]))
    if transform is None:
        return finite_contract(SPACE, draw(st.lists(
            st.one_of(NEAR, st.floats(-1e3, 1e3)), min_size=3, max_size=3)))
    cuts = sorted(set(draw(st.lists(EDGES, max_size=3))))
    return piecewise_contract(
        cuts, [(draw(st.one_of(NEAR, COEFFS)),
                draw(st.one_of(st.just(0.0), NEAR, COEFFS)),
                draw(st.one_of(st.just(0.0), NEAR)))
               for _ in range(len(cuts) + 1)], transform)


@settings(max_examples=300, deadline=None)
@given(near_flat())
def test_is_constant_matches_per_piece_loop(d):
    assert contract_is_constant(d) == reference_is_constant(d, FLAT_TOL)
