"""The paper's implication chain PN => TN => WN, as a test on recorded
verdicts."""

HELD = ("holds", "holds-at-budget")


def implication_chain_consistent(verdicts: dict) -> bool:
    """No instance may record (TN holds, WN fails) or (PN holds, TN fails)."""
    for strong, weak in (("TN", "WN"), ("PN", "TN")):
        if verdicts.get(strong) in HELD and verdicts.get(weak) == "fails":
            return False
    return True
