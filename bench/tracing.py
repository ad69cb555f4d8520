"""Per-layer tracing of srmarket, installed from the benchmark's side.

``Tracer.install`` replaces the public functions and methods of each
srmarket module, at run time, with wrappers that record one span per call:
(name, start, end, parent).  Nothing in the library changes on disk.  The
end-to-end metrics never come from a traced pass.

A layer is a package module, except that ``reports`` counts as part of the
``cli`` layer (both are L3).  A span's self time is its duration minus the
durations of its child spans; the layers' self times plus the benchmark's
own time (``bench.self_s``) add up to the traced pass time.

Scalar helpers that run inside the inner loops of the contract algebra are
left unwrapped, because a wrapper would cost more than the call; their time
counts as self time of the function that calls them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

MODULES = ("contracts", "convex", "reports", "scoring", "engine",
           "costmarket", "axioms", "cli")
LAYERS = ("contracts", "convex", "scoring", "engine", "axioms", "costmarket",
          "cli")
LAYER_OF = {m: ("cli" if m == "reports" else m) for m in MODULES}

UNWRAPPED = {
    "contracts.sigmoid", "contracts.softplus", "contracts.logit",
    "contracts.Transform", "contracts.SigmoidTransform",
    "contracts.PiecewiseLinearTransform",
    "contracts.Piece.poly", "contracts.Belief.cdf", "contracts.Belief.support",
    "contracts.Contract.breakpoints",
    "contracts.OutcomeSpace.index", "contracts.OutcomeSpace.contains",
    "scoring.FiniteReports.contains", "scoring.BoxReports.contains",
    "scoring.RealReports.contains",
}

# per-layer metric -> span names it sums; ".s" is inclusive time of the
# outermost such calls, ".calls" their count
GROUPS = {
    "contracts.combine": ("contracts.combine",),
    "contracts.bounds": ("contracts.contract_bounds",),
    "contracts.expected_payoff": ("contracts.expected_payoff",),
    "contracts.is_constant": ("contracts.contract_is_constant",),
    "contracts.contract_call": ("contracts.Contract.__call__",),
    "convex.value": ("convex.ConvexFn.value",),
    "convex.grad": ("convex.ConvexFn.grad",),
    "scoring.score_contract": "scoring.*.score_contract",
    "scoring.trade_contract": ("scoring.ScoringRule.trade_contract",),
    "scoring.validate": ("scoring.ScoringRule.validate_report",
                         "scoring.ScoringRule.validate_trade"),
    "scoring.best_response": ("scoring.ScoringRule.best_response",),
    "scoring.property_value": "scoring.*.property_value",
    "scoring.invert_share": "scoring.*.invert_share",
    "engine.execute_trade": ("engine.MarketSession.execute_trade",),
    "engine.worst_case_loss": ("engine.MarketSession.worst_case_loss",),
    "engine.settle": ("engine.MarketSession.settle",),
    "engine.path_independence": ("engine.MarketSession.verify_path_independence",),
    "engine.replay": ("engine.MarketSession.replay",),
    "axioms.check": "axioms.check_*",
    "axioms.replay_witness": ("axioms.replay_witness",),
    "costmarket.extract": ("costmarket.extract_cost_market",),
    "costmarket.structure": ("costmarket.check_open",
                             "costmarket.check_quasi_open",
                             "costmarket.check_subgroup",
                             "costmarket.price_bound_check"),
    "costmarket.invert_gradient": ("costmarket.invert_gradient",),
    "cli.main": ("cli.main",),
}

# the per-layer metrics the benchmark reports, with their units
PER_LAYER = [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("bench.self_s", "s"), ("trace.pass_s", "s"), ("trace.overhead_s", "s"),
] + [(f"{g}.{k}", unit) for g in (
    "contracts.combine", "contracts.bounds", "contracts.expected_payoff",
    "contracts.is_constant", "contracts.contract_call",
    "scoring.score_contract", "scoring.trade_contract", "scoring.validate",
    "scoring.best_response", "scoring.property_value")
    for k, unit in (("calls", "count"), ("s", "s"))] + [
    ("contracts.combine.operands", "count"),
    ("contracts.combine.pieces_out", "count"),
    ("convex.value.calls", "count"), ("convex.grad.calls", "count"),
    ("scoring.invert_share.calls", "count"),
    ("engine.execute_trade.calls", "count"),
    ("engine.worst_case_loss.s", "s"), ("engine.settle.s", "s"),
    ("engine.path_independence.s", "s"), ("engine.replay.s", "s"),
    ("axioms.check.calls", "count"), ("axioms.replay_witness.s", "s"),
    ("costmarket.extract.s", "s"), ("costmarket.structure.s", "s"),
    ("costmarket.invert_gradient.calls", "count"),
    ("cli.main.calls", "count"),
]


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of_name: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.operands = 0
        self.pieces_out = 0
        self.last_pass: list = []

    # -- installation ---------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function and method of the package's modules
        and rebind each name that other modules imported."""
        swaps = {}
        for mod_name in MODULES:
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            full_mod = mod.__name__
            for attr, obj in list(vars(mod).items()):
                qual = f"{mod_name}.{attr}"
                if attr.startswith("_") or qual in UNWRAPPED:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == full_mod:
                    swaps[obj] = self._wrap(obj, qual, mod_name)
                elif inspect.isclass(obj) and obj.__module__ == full_mod:
                    for m_name, m in list(vars(obj).items()):
                        m_qual = f"{qual}.{m_name}"
                        public = not m_name.startswith("_") or m_name == "__call__"
                        if not public or m_qual in UNWRAPPED:
                            continue
                        if inspect.isfunction(m):
                            setattr(obj, m_name, self._wrap(m, m_qual, mod_name))
                        elif isinstance(m, (classmethod, staticmethod)):
                            setattr(obj, m_name, type(m)(
                                self._wrap(m.__func__, m_qual, mod_name)))
        mods = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                            for m in MODULES]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in swaps:
                    setattr(mod, attr, swaps[obj])

    def _wrap(self, fn, qual: str, mod_name: str):
        sid = len(self.names)
        self.names.append(qual)
        self.layer_of_name.append(LAYER_OF[mod_name])
        spans, stack = self.spans, self.stack
        count = self._count_combine if qual == "contracts.combine" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (sid, t0, t1, parent)
            if count is not None:
                count(*args, out)
            return out
        return traced

    def _count_combine(self, contracts, weights, out) -> None:
        self.operands += len(contracts)
        if out.pieces is not None:
            self.pieces_out += len(out.pieces)

    # -- aggregation -------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.operands = 0
        self.pieces_out = 0

    def summarize(self, pass_s: float) -> dict:
        """Per-layer figures of a pass: the spans recorded since the last
        reset.  Call it before anything else calls into the library."""
        spans = self.last_pass = self.spans[:]
        child_time = _child_time(spans)
        top_time = sum(t1 - t0 for _, t0, t1, parent in spans if parent < 0)
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        calls = [0] * len(self.names)
        outer_s = [0.0] * len(self.names)
        for i, (sid, t0, t1, parent) in enumerate(spans):
            out[f"{self.layer_of_name[sid]}.self_s"] += (t1 - t0) - child_time[i]
            calls[sid] += 1
            p = parent
            while p >= 0 and spans[p][0] != sid:
                p = spans[p][3]
            if p < 0:
                outer_s[sid] += t1 - t0
        out["bench.self_s"] = pass_s - top_time
        out["trace.pass_s"] = pass_s
        for group, pattern in GROUPS.items():
            ids = [i for i, n in enumerate(self.names) if _match(n, pattern)]
            out[f"{group}.calls"] = sum(calls[i] for i in ids)
            out[f"{group}.s"] = sum(outer_s[i] for i in ids)
        out["contracts.combine.operands"] = self.operands
        out["contracts.combine.pieces_out"] = self.pieces_out
        return out

    def table(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds in the
        last summarized pass."""
        spans = self.last_pass
        child_time = _child_time(spans)
        rows = {}
        for i, (sid, t0, t1, parent) in enumerate(spans):
            row = rows.setdefault(self.names[sid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child_time[i]
        return {name: {"calls": c, "inclusive_s": inc, "self_s": slf}
                for name, (c, inc, slf) in sorted(rows.items(),
                                                  key=lambda kv: -kv[1][2])}


def _child_time(spans: list) -> list:
    """For each span, the summed duration of its direct children."""
    child_time = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    return child_time


def _match(name: str, pattern) -> bool:
    """Exact names, or one ``*`` standing for a single dotted component
    (``scoring.*.score_contract``) or a name suffix (``axioms.check_*``)."""
    if isinstance(pattern, tuple):
        return name in pattern
    head, _, tail = pattern.partition("*")
    if not (name.startswith(head) and name.endswith(tail)):
        return False
    middle = name[len(head):len(name) - len(tail)]
    return "." not in middle and len(name) >= len(head) + len(tail)
