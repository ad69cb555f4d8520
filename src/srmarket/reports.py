"""Verdict records produced by every axiom and structure check."""
from __future__ import annotations

import json
from dataclasses import dataclass, field

HOLDS = "holds"
FAILS = "fails"
HOLDS_AT_BUDGET = "holds-at-budget"


@dataclass
class AxiomReport:
    """Outcome of one check: verdict plus a replayable witness.

    A ``fails`` verdict always carries enough witness data to re-derive the
    violating inequality from the primitive operations alone.  Search-based
    checks over continuous spaces never report plain ``holds``; they report
    ``holds-at-budget`` unless a closed-form family argument upgrades them.
    """

    axiom: str
    verdict: str
    margin: float = 0.0
    witness: dict = field(default_factory=dict)
    budget: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict != FAILS

    def to_text(self) -> str:
        head = [
            f"axiom: {self.axiom}",
            f"verdict: {self.verdict}",
            f"margin: {self.margin!r}",
        ]
        if self.notes:
            head.append(f"notes: {self.notes}")
        body = json.dumps({"witness": self.witness, "budget": self.budget},
                          indent=2, sort_keys=True)
        return "\n".join(head) + "\nwitness-block:\n" + body + "\n"
