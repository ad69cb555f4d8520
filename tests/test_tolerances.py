"""One pin per tolerance of ``contracts.py`` that no other test holds.

Each test states the behaviour its constant buys and fails once the
constant is scaled 100-fold in the direction named in its docstring, so a
tolerance that can move without any test noticing is one without a pin.
The bounds are literals on purpose: a bound read from the constant would
move with it.  ``tests/test_source.py`` checks that every constant of
``contracts.py`` names its pinning test."""

import math

import numpy as np
import pytest

from srmarket.axioms import check_arb, replay_witness
from srmarket.contracts import (
    OutcomeSpace,
    Rows,
    combine,
    contract_bounds,
    contract_is_constant,
    finite_belief,
    finite_contract,
    piecewise_contract,
)
from srmarket.convex import invert_gradient, log_partition
from srmarket.costmarket import ShareSpace, binary_lmsr_rule
from srmarket.scoring import FiniteRule, ModeRule

TRIANGLE = log_partition([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_struct_tol():
    """Up: ``combine`` snaps to 0 only a sum within STRUCT_TOL of its
    terms' scale, cancellation residue; a real difference of 1e-11 of that
    scale survives."""
    a = piecewise_contract([0.0], [(1.0, 0.0, 0.0), (1.0, 2.0, 0.0)])
    b = piecewise_contract([0.0], [(1.0 - 1e-11, 0.0, 0.0), (1.0, 2.0, 0.0)])
    lo, hi = contract_bounds(combine([a, b], [1.0, -1.0]))
    assert (lo, hi) == (0.0, pytest.approx(1e-11, rel=1e-4))


def test_opt_tol():
    """Up: a gradient inversion by cycling bisection in two dimensions runs
    until its residual is within OPT_TOL, so a target it reaches is met
    within 1e-8."""
    for target in ([0.3, 0.4], [0.2, 0.7], [0.45, 0.45]):
        x = invert_gradient(TRIANGLE, target)
        assert float(np.max(np.abs(TRIANGLE.grad(x) - target))) <= 1e-8


def test_residual_accept():
    """Up: the inversion returns a point only within RESIDUAL_ACCEPT of its
    target, else None; near the triangle's long edge 40 cycles end up to
    1e-4 off, and none of those points may come back."""
    found = 0
    for s in (0.9, 0.93, 0.95, 0.97):
        for a in (0.1, 0.2, 0.3, 0.45):
            target = np.array([a, s - a])
            x = invert_gradient(TRIANGLE, target)
            if x is not None:
                found += 1
                assert float(np.max(np.abs(TRIANGLE.grad(x) - target))) <= 1e-6
    assert found >= 8


def test_tie_tol():
    """Up: a finite report whose expected score is 2e-11 below the best is
    no tie, neither for the property nor for the best response."""
    rule = ModeRule(3)
    p = finite_belief(rule.outcome_space, [0.5 - 1e-11, 0.5 + 1e-11, 0.0])
    assert rule.property_value(p) == (2,)
    assert rule.best_response(p) == 2


def test_search_xtol():
    """Up: a scalar gradient inversion bisects to a bracket SEARCH_XTOL
    wide, so the binary LMSR's share state for a belief is its log-odds
    within 1e-9."""
    rule = binary_lmsr_rule()
    for p in (0.1, 0.25, 0.3, 0.5, 0.9):
        q = rule.property_value(finite_belief(rule.outcome_space, [1 - p, p]))
        assert abs(q - math.log(p / (1 - p))) <= 1e-9


def test_member_tol():
    """Up: a bundle 1e-8 off the integer lattice is no lattice member."""
    lattice = ShareSpace.integer_lattice(1)
    assert lattice.contains([3.0]) and not lattice.contains([3.0 + 1e-8])


def test_flat_tol():
    """Up: a payoff that varies by 1e-8 is not cash, read from a contract
    or from a row of summed payoffs."""
    space = OutcomeSpace.finite((1, 2, 3))
    d = finite_contract(space, [1.0, 1.0 + 1e-8, 1.0])
    assert not contract_is_constant(d)[0]
    assert Rows(np.array([d.values])).cash()[0] == -math.inf


def test_verdict_tol():
    """Up: a replayed witness reproduces only within VERDICT_TOL, so a
    stored number moved by 1e-8 of its size is caught."""
    rule = FiniteRule(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0],
                                [0.0, 1.0, 0.0]]), OutcomeSpace.finite((1, 2, 3)))
    report = check_arb(rule)
    replay_witness(rule, report)
    pair = report.witness["pairs"][0]
    pair["inf"] += 1e-8 * max(1.0, abs(pair["inf"]))
    with pytest.raises(AssertionError):
        replay_witness(rule, report)
