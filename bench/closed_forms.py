"""Closed forms that the benchmark checks srmarket's outputs against.

Nothing here imports srmarket.  Every value comes from the paper's score
formulas and from plain-float integrals of piecewise-linear CDFs, so a
fault in the library cannot hide inside its own reference.
"""
from __future__ import annotations

import math

HOLDS = "holds"
FAILS = "fails"

# The classification of Frongillo & Waggoner for the bundled check configs.
# "holds" also accepts the library's grid-limited "holds-at-budget".
VERDICTS = {
    "mode_market": {"WCL": HOLDS, "ARB": HOLDS, "IC": HOLDS, "WN": FAILS,
                    "TN": FAILS, "BTB": FAILS},
    "quantile_sigmoid": {"WCL": HOLDS, "ARB": HOLDS, "IC": HOLDS,
                         "WN": FAILS, "BTB": HOLDS},
    "expectation_entropy": {"WCL": HOLDS, "ARB": HOLDS, "IC": HOLDS,
                            "WN": HOLDS, "TN": HOLDS, "PN": HOLDS,
                            "BTB": HOLDS},
    "lmsr_open": {"OPEN": HOLDS, "TN": HOLDS, "PN": HOLDS,
                  "PRICE-BOUND": HOLDS, "WCL": HOLDS, "ARB": HOLDS},
    "mean_unbounded": {"WCL": FAILS, "ARB": HOLDS, "IC": HOLDS, "WN": HOLDS,
                       "TN": HOLDS, "PN": HOLDS},
    "expectile_market": {"ARB": HOLDS, "IC": HOLDS, "WN": HOLDS},
    "ratio_market": {"ARB": HOLDS, "IC": HOLDS, "WN": HOLDS, "TN": FAILS},
    "discretized_lmsr": {"QUASI-OPEN": HOLDS, "SUBGROUP": HOLDS, "TN": HOLDS,
                         "PN": HOLDS, "PRICE-BOUND": HOLDS, "WCL": HOLDS},
}


def verdict_matches(paper: str, got: str) -> bool:
    if paper == HOLDS:
        return got in (HOLDS, "holds-at-budget")
    return got == paper


# ---------------------------------------------------------------------------
# scalar maps


def sigmoid(y: float) -> float:
    if y >= 0:
        return 1.0 / (1.0 + math.exp(-y))
    e = math.exp(y)
    return e / (1.0 + e)


def softplus(q: float) -> float:
    """log(1 + e^q), the binary LMSR cost."""
    return max(q, 0.0) + math.log1p(math.exp(-abs(q)))


def logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def negentropy(z: float) -> float:
    return z * math.log(z) + (1.0 - z) * math.log(1.0 - z)


# ---------------------------------------------------------------------------
# scores S(r, y) of the families the workloads trade in


def quantile_score(alpha: float, g, r: float, y: float) -> float:
    """(alpha - 1{y <= r}) (g(r) - g(y))."""
    return (alpha - (1.0 if y <= r else 0.0)) * (g(r) - g(y))


def expectile_score(tau: float, r: float, y: float) -> float:
    """-|1{y <= r} - tau| (y - r)^2, the quadratic-kernel expectile score."""
    w = (1.0 - tau) if y <= r else tau
    return -w * (y - r) ** 2


def lmsr_score(q: float, y) -> float:
    """q 1{y = 1} - log(1 + e^q): one security paying on outcome 1."""
    return q * (1.0 if y == 1 else 0.0) - softplus(q)


def ratio_score(phi: dict, b: dict, lo: float, hi: float, r: float, y) -> float:
    """b(y) G(r) + G'(r) (phi(y) - r b(y)), G the negentropy on (lo, hi)."""
    span = hi - lo
    z = (r - lo) / span
    return b[y] * negentropy(z) + logit(z) / span * (phi[y] - r * b[y])


def entropy_expectation_score(r: float, y: float) -> float:
    """G(r) + G'(r) (y - r) for the binary negentropy G."""
    return negentropy(r) + logit(r) * (y - r)


def sigmoid_quantile_sup(alpha: float, r0: float, r1: float) -> float:
    """sup over y of S(r1, y) - S(r0, y) for the sigmoid quantile score.

    In t = sigmoid(y) the difference is continuous and piecewise linear with
    kinks at sigmoid(r0) and sigmoid(r1), so the sup is the largest of its
    values at the kinks and its limits at t = 0 and t = 1."""
    t0, t1 = sigmoid(r0), sigmoid(r1)

    def diff(t: float, below0: bool, below1: bool) -> float:
        return ((alpha - below1) * (t1 - t)) - ((alpha - below0) * (t0 - t))

    return max(diff(0.0, True, True), diff(1.0, False, False),
               diff(t0, True, t0 <= t1), diff(t1, t1 <= t0, True))


def expectile_sup(r0: float, r1: float) -> float:
    """sup over y of S(r1, y) - S(r0, y) for the expectile score.

    Both tails are linear in y with slopes 2 w (r1 - r0) of one sign, so the
    difference is unbounded above unless the ledger returned to r0."""
    return 0.0 if r1 == r0 else math.inf


# ---------------------------------------------------------------------------
# statistics of beliefs


def pmf_argmax(labels, pmf) -> object:
    """Mode of a pmf; the smallest label on ties."""
    best = max(pmf)
    return min(lbl for lbl, p in zip(labels, pmf) if p == best)


def pmf_ratio(pmf, phi, b) -> float:
    """E phi / E b."""
    return sum(p * v for p, v in zip(pmf, phi)) / sum(p * v for p, v in zip(pmf, b))


def cdf_mean(xs, fs) -> float:
    """Mean of a continuous piecewise-linear CDF: uniform mass on each cell."""
    return sum((f1 - f0) * 0.5 * (x0 + x1)
               for x0, x1, f0, f1 in zip(xs, xs[1:], fs, fs[1:]))


def cdf_quantile(xs, fs, alpha: float) -> float:
    """The x with F(x) = alpha, by inverse interpolation on its cell."""
    for x0, x1, f0, f1 in zip(xs, xs[1:], fs, fs[1:]):
        if f0 <= alpha <= f1:
            return x0 + (alpha - f0) / (f1 - f0) * (x1 - x0)
    raise ValueError("quantile level outside (0, 1)")


def _integral_of_cdf(xs, fs, x: float) -> float:
    """E (x - Y)_+ = integral of F from the support's left end to x."""
    total = 0.0
    for x0, x1, f0, f1 in zip(xs, xs[1:], fs, fs[1:]):
        if x <= x0:
            break
        b = min(x, x1)
        fb = f0 + (f1 - f0) * (b - x0) / (x1 - x0)
        total += 0.5 * (f0 + fb) * (b - x0)
    if x > xs[-1]:
        total += x - xs[-1]
    return total


def expectile_identification(xs, fs, tau: float, x: float) -> float:
    """(1 - tau) E (x - Y)_+ - tau E (Y - x)_+, increasing in x.

    Uses E (Y - x)_+ = E (x - Y)_+ - (x - E Y)."""
    below = _integral_of_cdf(xs, fs, x)
    above = below - (x - cdf_mean(xs, fs))
    return (1.0 - tau) * below - tau * above


def cdf_expectile(xs, fs, tau: float) -> float:
    """Root of the identification function, by bisection to adjacent floats."""
    a, b = float(xs[0]), float(xs[-1])
    while True:
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            return m
        if expectile_identification(xs, fs, tau, m) < 0.0:
            a = m
        else:
            b = m
