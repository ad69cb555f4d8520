"""The config format of every srmarket command, declared once.

Each command's config is a table whose keys each map to a shape; a nested
block is a table of its own, picked by a tag or by the key it holds, and a
market, potential or share space block names the constructor it builds.
``validate`` checks a loaded config before anything is built and raises
``ConfigError``, one line that names the offending key.  It never changes
the config, whose hash the reports carry.  Shapes are JSON types and sizes:
value ranges that a constructor enforces stay in the constructor, and
``built`` reports the ValueError it raises as a config error.
"""
from __future__ import annotations

import sys
from typing import Callable, NamedTuple

from .axioms import AXIOMS
from .contracts import IDENTITY, SIGMOID, OutcomeSpace
from .convex import (
    binary_lmsr_cost,
    binary_negentropy,
    interval_negentropy,
    log_partition,
    quadratic,
    simplex_negentropy,
)
from .costmarket import CostRule, ShareSpace
from .reports import FAILS, HOLDS, HOLDS_AT_BUDGET
from .scoring import (
    ExpectationRule,
    ExpectileRule,
    FiniteRule,
    ModeRule,
    QuantileRule,
    RatioRule,
)


class ConfigError(Exception):
    """A config that cannot be run as written."""


class Shape(NamedTuple):
    """A leaf passes ``test``, and so does a list, whose entries each take
    the shape ``each``.  A table is an object with every key of ``keys``
    that is not optional, no other key, and each value of its key's shape.
    ``pick`` gives the shape that a value takes among variants, and
    ``make`` builds the object a value describes, from a table's values
    once they are built."""
    noun: str  # what a leaf must be, or a table's title
    test: Callable = lambda v: True
    each: Shape | None = None
    keys: dict | None = None
    pick: Callable | None = None
    optional: bool = False
    make: Callable | None = None


def opt(shape: Shape) -> Shape:
    """The shape, for a key that its table may leave out."""
    return shape._replace(optional=True)


def check(shape: Shape, value, where: str) -> None:
    """Raise ConfigError, naming where or the table's title, unless the
    value has the shape."""
    while shape.pick is not None:
        shape = shape.pick(value)
    if shape.keys is None:
        if not shape.test(value):
            raise ConfigError(f"{where} must be {shape.noun}, not {value!r}")
        for v in value if shape.each else ():
            check(shape.each, v, f"each entry of {where}")
    elif not isinstance(value, dict):
        raise ConfigError(f"{shape.noun} must be an object, not {value!r}")
    else:
        missing = [k for k, s in shape.keys.items()
                   if not s.optional and k not in value]
        unknown = sorted(set(value) - set(shape.keys))
        if missing or unknown:
            raise ConfigError(f"{shape.noun} has no {missing[0]!r} entry" if missing
                              else f"{shape.noun} has unknown keys {unknown}")
        for key, v in value.items():
            check(shape.keys[key], v, f"{key!r} in {shape.noun}")


def built(where: str, make: Callable, *args):
    """``make(*args)``, with a ValueError that a constructor's own value
    checks raise reported as a config error on where."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build(shape: Shape, value):
    """The object a value of the shape, once checked, describes: each
    table's values built, then made."""
    while shape.pick is not None:
        shape = shape.pick(value)
    if shape.keys is not None:
        value = {key: build(shape.keys[key], v) for key, v in value.items()}
    return value if shape.make is None else built(shape.noun, shape.make, value)


def tagged(tag: str, title: str, kind: str, variants: dict,
           prefix: str | None = None) -> Shape:
    """Tables picked by the value of their ``tag`` entry: variants maps
    each value to the table's keys and what it makes."""
    tables = {name: Shape(f"{prefix or kind} {name!r}", keys={tag: ANY, **keys},
                          make=make) for name, (keys, make) in variants.items()}

    def pick(value):
        if not isinstance(value, dict) or tag not in value:
            return Shape(title, keys={tag: ANY})
        if not (isinstance(value[tag], str) and value[tag] in tables):
            raise ConfigError(f"unknown {kind} {value[tag]!r}")
        return tables[value[tag]]
    return Shape(title, pick=pick)


def keyed(title: str, variants: dict) -> Shape:
    """Tables picked by the one key of ``variants`` that an object holds:
    variants maps each such key to the table's keys and what it makes."""
    tables = {name: Shape(title, keys=keys, make=make)
              for name, (keys, make) in variants.items()}
    union = Shape(title, keys={k: opt(s) for t in tables.values()
                               for k, s in t.keys.items()})

    def pick(value):
        named = [key for key in tables if key in value] \
            if isinstance(value, dict) else []
        if len(named) == 1:
            return tables[named[0]]
        check(union, value, title)
        raise ConfigError(f"{title} takes exactly one of {list(tables)}, "
                          f"not {value!r}")
    return Shape(title, pick=pick)


# ---------------------------------------------------------------------------
# leaves


def _number(v) -> bool:
    # the comparison also refuses nan, and ints too large for a float
    return isinstance(v, (int, float)) and not isinstance(v, bool) and \
        abs(v) <= sys.float_info.max


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _list(least: int = 0, size: int | None = None) -> Callable:
    return lambda v: isinstance(v, list) and len(v) >= least and \
        size in (None, len(v))


def count(least: int) -> Shape:
    return Shape(f"an integer of at least {least}", lambda v: _int(v) and v >= least)


ANY = Shape("any value")
TEXT = Shape("a string", lambda v: isinstance(v, str))
NUMBER = Shape("a finite number", _number)
INT = Shape("an integer", _int)
LABEL = Shape("a number or a string", lambda v: _number(v) or isinstance(v, str))
NUMBERS = Shape("a list", _list(), NUMBER)
NONEMPTY_NUMBERS = Shape("a nonempty list", _list(1), NUMBER)
PAIR = Shape("a list of 2 numbers", _list(2, 2), NUMBER)
ROWS = Shape("a nonempty list", _list(1), NONEMPTY_NUMBERS)
# outcome labels: all numbers, or all strings
LABELS = Shape("labels", pick=lambda v: Shape("a list", _list(), TEXT if isinstance(
    v, list) and v and isinstance(v[0], str) else NUMBER))
# a label of a finite report space, or a point of a box
REPORT = Shape("a report", pick=lambda v: NONEMPTY_NUMBERS if isinstance(v, list)
               else Shape("a number, a string or a list of numbers", LABEL.test))
# payoffs over the outcomes: one number each, or one row of numbers each
PHI = Shape("a payoff table", pick=lambda v: ROWS if isinstance(v, list) and v
            and isinstance(v[0], list) else NUMBERS)


# ---------------------------------------------------------------------------
# blocks

POTENTIAL = tagged("name", "a potential", "potential", {
    "quadratic": ({"dim": opt(INT), "lo": opt(NUMBERS), "hi": opt(NUMBERS)},
                  lambda s: quadratic(s.get("dim", 1), s.get("lo"), s.get("hi"))),
    "binary_negentropy": ({}, lambda s: binary_negentropy()),
    "interval_negentropy": ({"lo": NUMBER, "hi": NUMBER},
                            lambda s: interval_negentropy(s["lo"], s["hi"])),
    "simplex_negentropy": ({"k": INT}, lambda s: simplex_negentropy(s["k"])),
    "log_partition": ({"phi": PHI}, lambda s: log_partition(s["phi"])),
    "binary_lmsr": ({}, lambda s: binary_lmsr_cost()),
})

# a share space: "full", or a lattice named by its first key
SHARES = Shape("shares", pick=lambda v: SHARE_LATTICE if isinstance(v, dict) else
               Shape("'full' or an object", lambda v: v == "full",
                     make=lambda v: ShareSpace.full()))
SHARE_LATTICE = keyed("the share space", {
    "lattice_scale": ({"lattice_scale": NUMBER, "k": opt(INT)}, lambda s:
                      ShareSpace.integer_lattice(s.get("k", 1), s["lattice_scale"])),
    "basis": ({"basis": ROWS}, lambda s: ShareSpace.lattice(s["basis"])),
})
TRANSFORMS = {"identity": IDENTITY, "sigmoid": SIGMOID}
TRANSFORM = Shape(f"one of {list(TRANSFORMS)}",
                  lambda v: isinstance(v, str) and v in TRANSFORMS,
                  make=TRANSFORMS.get)
# mode's outcomes may be a count n, for the labels 1..n
MODE_OUTCOMES = Shape("outcomes", pick=lambda v: LABELS if isinstance(v, list)
                      else Shape("an integer or a list", _int))


def _space(s: dict):
    """The finite outcome space a market block's outcomes name, if any."""
    return OutcomeSpace.finite(s["outcomes"]) if "outcomes" in s else None


MARKET = tagged("family", "the market block", "family", prefix="market",
                variants={
    "mode": ({"outcomes": MODE_OUTCOMES}, lambda s: ModeRule(s["outcomes"])),
    "finite": ({"outcomes": LABELS, "matrix": ROWS, "reports": opt(LABELS)},
               lambda s: FiniteRule(s["matrix"], _space(s), s.get("reports"))),
    "weighted_mode": ({"outcomes": LABELS, "weights": NUMBERS},
                      lambda s: FiniteRule.weighted_mode(s["outcomes"], s["weights"])),
    "expectation": ({"potential": POTENTIAL, "phi": opt(PHI), "outcomes": opt(LABELS)},
                    lambda s: ExpectationRule(s["potential"], s.get("phi"), _space(s))),
    "quantile": ({"alpha": NUMBER, "transform": opt(TRANSFORM)},
                 lambda s: QuantileRule(s["alpha"], s.get("transform", IDENTITY))),
    "expectile": ({"tau": NUMBER, "g_coeffs": opt(Shape(
        "a list of 3 numbers", _list(3, 3), NUMBER))},
        lambda s: ExpectileRule(s["tau"], tuple(s.get("g_coeffs", (0.0, 0.0, 1.0))))),
    "ratio": ({"potential": POTENTIAL, "phi": PHI, "b": NUMBERS, "outcomes": opt(LABELS)},
              lambda s: RatioRule(s["potential"], s["phi"], s["b"], _space(s))),
    "cost": ({"cost": POTENTIAL, "phi": PHI, "outcomes": opt(LABELS),
              "shares": opt(SHARES), "conjugate_closure": opt(NUMBERS)},
             lambda s: CostRule(s["cost"], s["phi"], _space(s),
                                s.get("shares", ShareSpace.full()),
                                s.get("conjugate_closure"))),
})

BELIEF = keyed("a belief", {
    "pmf": ({"pmf": NUMBERS}, None),
    "cdf": ({"cdf": Shape("a cdf belief", keys={"x": NUMBERS, "F": NUMBERS})}, None),
    "uniform": ({"uniform": PAIR}, None),
})

# the fields of axioms.SearchConfig, and whether WN and TN take every
# scenario of a finite report space
SEARCH = Shape("the search block", keys={key: opt(shape) for key, shape in {
    "report_points": INT, "report_window": PAIR, "candidate_points": INT,
    "scenario_count": INT, "portfolio_count": INT, "portfolio_size": INT,
    "ic_beliefs": INT, "delta": NUMBER,
    "lattice_bound": INT, "seed": count(0),
    "exhaustive_scenarios": Shape("true or false", lambda v: isinstance(v, bool)),
}.items()})

# the keys an axiom reads beside the market: a check config takes each of
# them only when it runs an axiom that reads it
READS = {
    "WCL": {"r0": REPORT},
    "IC": {"ic_beliefs": opt(Shape("a nonempty list", _list(1), BELIEF))},
    "BTB": {"btb": Shape("the btb block", keys={
        "state": REPORT, "belief": BELIEF, "epsilons": opt(NONEMPTY_NUMBERS)})},
    "PRICE-BOUND": {"price_bound_trials": opt(count(1))},
}

AXIOM_LIST = Shape(f"a nonempty list of axioms from {sorted(AXIOMS)}",
                   lambda v: isinstance(v, list) and v != [] and
                   all(isinstance(a, str) and a in AXIOMS for a in v))

# each figure's keys beside "name" and "figure": key -> (shape, default)
FIGURES = {
    "mode_position": {
        "outcomes": (MODE_OUTCOMES, [1, 2, 3]), "r_left": (LABEL, 1),
        "r_center": (LABEL, 3),
        "trade": (Shape("a list of 2 labels", _list(2, 2), LABEL), [1, 2])},
    "mean_position": {
        "trade": (PAIR, [-1.0, 1.0]), "state": (NUMBER, 1.0),
        "contracts": (NUMBERS, [1.5, 2.5]), "window": (PAIR, [-3.0, 3.0]),
        "points": (count(2), 121)},
    "median_position": {
        "alpha": (NUMBER, 0.5), "trade": (PAIR, [-1.0, 1.0]),
        "scenario": (Shape("a list of 4 numbers", _list(4, 4), NUMBER),
                     [1.0, 2.0, 0.0, 0.5]),
        "window": (PAIR, [-4.0, 4.0]), "points": (count(2), 161)},
    "discretized_lmsr": {"bound": (count(0), 6)},
}

COMMANDS = {
    "session": Shape("the session config", keys={
        "market": MARKET, "r0": REPORT, "name": opt(TEXT),
        "outcome": opt(LABEL), "traders": opt(Shape("a list", _list(), Shape(
            "a trader", keys={"id": ANY, "belief": BELIEF})))}),
    "extract": Shape("the extract config", keys={
        "market": MARKET, "name": opt(TEXT), "expect_failure": opt(TEXT),
        "grid": opt(Shape("grid", pick=lambda v: Shape("the extract grid", keys={
            "lo": NUMBER, "hi": NUMBER, "num": count(2)}) if isinstance(v, dict)
            else Shape("a nonempty list of reports or the extract grid object",
                       _list(1), REPORT)))}),
    "figure": tagged("figure", "the figure config", "figure", {
        name: ({"name": opt(TEXT), **{k: opt(s) for k, (s, _) in keys.items()}}, None)
        for name, keys in FIGURES.items()}),
}


def validate(config: dict, command: str) -> None:
    """Check a loaded config against its command's schema; raises
    ConfigError naming the first offending key."""
    if command != "check":
        return check(COMMANDS[command], config, f"the {command} config")
    axioms = config.get("axioms", [])
    if "axioms" in config:
        check(AXIOM_LIST, axioms, "'axioms' in the check config")
    # a verdict expected of an axiom not run comes first, since the keys
    # only that axiom reads are unknown too
    expected = Shape("'expected' (the verdicts of the axioms run)", keys={
        a: opt(Shape(f"one of {[HOLDS, FAILS, HOLDS_AT_BUDGET]}",
                     lambda v: v in (HOLDS, FAILS, HOLDS_AT_BUDGET)))
        for a in axioms})
    check(expected, config.get("expected", {}), "'expected'")
    keys = {"market": MARKET, "axioms": AXIOM_LIST, "name": opt(TEXT),
            "seed": opt(count(0)), "r0": opt(REPORT), "search": opt(SEARCH),
            "expected": opt(expected)}
    for a in axioms:
        keys.update(READS.get(a, {}))
    check(Shape("the check config", keys=keys), config, "the check config")


def figure_values(config: dict) -> dict:
    """A figure config's values, each key it leaves out at its default."""
    return {key: config.get(key, default)
            for key, (_, default) in FIGURES[config["figure"]].items()}
