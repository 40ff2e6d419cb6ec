"""Asymptotic (delta, R) frontiers: product-code envelope, the optimized
rate of the ruled-surface family, and the dominance comparison.

All quantities are real-valued limits, and the closed forms are the
result: optimized_rate evaluates a0(b) and R_max(b) directly, once over an
array of b.  Each array expression keeps the operation order of the scalar
formula, so every float64 is the one a loop over the points would give;
x ** 2 is np.float_power, the libm pow of Python's float ** (x * x rounds
differently in about one case in a thousand).  The numerical maximization
of the rate over a that checks the closed forms is a test oracle
(tests/asymptotics_oracle.py), not part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# envelope coefficients as they appear in the reference plots for these
# two regimes, kept for the discrepancy check
FIGURE_ENVELOPE_COEFF = {(16, 3.0): 36 / 51, (49, 6.0): 49 / 60}


def check_frontier(family: str, delta: np.ndarray, rate: np.ndarray):
    """Raise for the first point, in order, whose delta or else whose rate
    lies outside [0, 1] (NaN included)."""
    def outside(v):
        return ~((-1e-12 <= v) & (v <= 1 + 1e-12))
    bad_delta = outside(delta)
    bad = bad_delta | outside(rate)
    if bad.any():
        i = int(bad.argmax())
        name, value = ("delta", delta[i]) if bad_delta[i] else ("rate", rate[i])
        raise ValueError(f"{family} point has {name} = {float(value):.6g} "
                         "outside [0, 1]")


def envelope_coefficient(q: int, A: float) -> float:
    """B = (1 - 1/A)(1 + 1/(q+1))."""
    if A <= 1:
        raise ValueError("A must exceed 1")
    return (1 - 1 / A) * (1 + 1 / (q + 1))


def envelope_product(q: int, A: float, samples: int):
    """(t, delta, rate) arrays of the product-code envelope points
    (B t^2, B (1 - t)^2) at t = i / (samples - 1)."""
    if samples < 2:
        raise ValueError("at least 2 samples required")
    B = envelope_coefficient(q, A)
    t = np.arange(samples) / (samples - 1)
    delta, rate = B * t * t, B * (1 - t) * (1 - t)
    check_frontier("product_envelope", delta, rate)
    return t, delta, rate


def figure_discrepancy(q: int, A: float):
    """(formula B, figure coefficient, mismatch flag) when a figure value
    is on record for (q, A)."""
    key = (q, float(A))
    if key not in FIGURE_ENVELOPE_COEFF:
        return None
    B = envelope_coefficient(q, A)
    fig = FIGURE_ENVELOPE_COEFF[key]
    return B, fig, abs(B - fig) > 1e-9


@dataclass(frozen=True)
class OptimizedRate:
    """a0(b) and R_max(b) over an array of b; valid marks a0 in [0, b].
    The ruled frontier point of b is (1 - b, R_max(b))."""
    a0: np.ndarray
    rate: np.ndarray
    valid: np.ndarray


def optimized_rate(q: int, A: float, b) -> OptimizedRate:
    """Closed-form maximizer of the ruled-family rate at each fixed b.

    a0 = 1 - sqrt((q+2) A (1-b) / ((q+1)(A(b+1) - 2))) and the maximal rate
    R_max = (sqrt((q+2)(A(b+1)-2) / (2A(q+1))) - sqrt((1-b)/2))^2, the form
    consistent with a0 and with the figures.  The rate is maximized over a
    in [0, b], so a result is valid only where a0 lies there.  Errors come
    in the order a loop over b would meet them: A <= 2 at the first b, a
    point (1 - b, R_max) outside [0, 1] before the first b outside (0, 1).
    """
    b = np.asarray(b, dtype=float)
    if A <= 2 and b.size:
        raise ValueError("A must exceed 2 for the optimized rate")
    inside = (0 < b) & (b < 1)
    stop = b.size if inside.all() else int(inside.argmin())
    c = b[:stop]
    # Python's int * float rounds the int to a float first, also beyond 2^63
    q1, q2 = float(q + 1), float(q + 2)
    # Python floats overflow to inf, and inf / inf is NaN, without a word;
    # the range check reports a NaN rate
    with np.errstate(over="ignore", invalid="ignore"):
        a0 = 1 - np.sqrt(q2 * A * (1 - c) / (q1 * (A * (c + 1) - 2)))
        r_max = np.float_power(np.sqrt(q2 * (A * (c + 1) - 2) / (2 * A * q1))
                               - np.sqrt((1 - c) / 2), 2)
    check_frontier("ruled_optimized", 1 - c, r_max)
    if stop < b.size:
        raise ValueError("b must lie in (0, 1)")
    return OptimizedRate(a0, r_max, (0 <= a0) & (a0 <= c))


def dominance_report(q: int, A: float, samples: int):
    """Table (delta, envelope rate, ruled rate) at delta = i B / samples,
    0 < i < samples, plus the interval where the ruled curve strictly
    exceeds the product envelope.

    Every delta lies in (0, B), the envelope's reach.  The ruled rate is
    NaN where it is undefined (b = 1 - delta outside (0, 1), or a0 > b), and
    is never compared there.
    """
    if A <= 2:
        raise ValueError("A must exceed 2")
    B = envelope_coefficient(q, A)
    delta = np.arange(1, samples) * B / samples
    t = np.sqrt(delta / B)
    r_prod = B * np.float_power(1 - t, 2)
    b = 1 - delta
    inside = (0 < b) & (b < 1)
    opt = optimized_rate(q, A, b[inside])
    r_ruled = np.full_like(delta, np.nan)
    r_ruled[inside] = np.where(opt.valid, opt.rate, np.nan)
    dominated = delta[r_ruled > r_prod + 1e-12]
    interval = ((float(dominated.min()), float(dominated.max()))
                if dominated.size else None)
    return (delta, r_prod, r_ruled), interval
