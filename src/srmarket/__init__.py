"""Scoring rule markets: mechanisms, cost-function market makers, and
mechanized checking of the market axioms."""

__version__ = "0.1.0"

from .contracts import (  # noqa: F401
    Belief,
    Contract,
    OutcomeSpace,
    Piece,
    REAL_LINE,
    cdf_belief,
    combine,
    contract_bounds,
    expected_payoff,
    finite_belief,
    finite_contract,
    ones_contract,
    piecewise_contract,
    project_cashless,
    uniform_belief,
)
from .convex import (  # noqa: F401
    ConvexFn,
    binary_lmsr_cost,
    binary_negentropy,
    log_partition,
    quadratic,
    simplex_negentropy,
)
from .engine import MarketSession, open_session  # noqa: F401
from .reports import AxiomReport  # noqa: F401
from .scoring import (  # noqa: F401
    ExpectationRule,
    ExpectileRule,
    FiniteRule,
    ModeRule,
    QuantileRule,
    RatioRule,
)
from .costmarket import (  # noqa: F401
    CostMarket,
    CostRule,
    ShareSpace,
    binary_lmsr_rule,
    check_open,
    check_quasi_open,
    check_subgroup,
    discretized_lmsr_rule,
    exp_family_rule,
    extract_cost_market,
    price_bound_check,
)
from .axioms import (  # noqa: F401
    SearchConfig,
    check_arb,
    check_btb,
    check_ic,
    check_pn,
    check_tn,
    check_wcl,
    check_wn,
    replay_witness,
)
