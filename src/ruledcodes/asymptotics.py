"""Asymptotic (delta, R) frontiers: product-code envelope, ruled-surface
limit parameters, the optimized rate, and the dominance comparison.

All quantities are real-valued limits, and the closed forms are the
result: optimized_rate evaluates a0(b) and R_max(b) directly.  The
numerical maximization of the rate over a that checks them is a test
oracle (tests/asymptotics_oracle.py), not part of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# envelope coefficients as they appear in the reference plots for these
# two regimes, kept for the discrepancy check
FIGURE_ENVELOPE_COEFF = {(16, 3.0): 36 / 51, (49, 6.0): 49 / 60}


@dataclass(frozen=True)
class FrontierPoint:
    delta: float
    rate: float
    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, value in (("delta", self.delta), ("rate", self.rate)):
            if not -1e-12 <= value <= 1 + 1e-12:
                raise ValueError(f"{self.family} point has {name} = {value:.6g} "
                                 "outside [0, 1]")


def envelope_coefficient(q: int, A: float) -> float:
    """B = (1 - 1/A)(1 + 1/(q+1))."""
    if A <= 1:
        raise ValueError("A must exceed 1")
    return (1 - 1 / A) * (1 + 1 / (q + 1))


def envelope_product(q: int, A: float, samples: int):
    """Points (B t^2, B (1 - t)^2) of the product-code envelope."""
    if samples < 2:
        raise ValueError("at least 2 samples required")
    B = envelope_coefficient(q, A)
    out = []
    for i in range(samples):
        t = i / (samples - 1)
        out.append(FrontierPoint(B * t * t, B * (1 - t) * (1 - t),
                                 "product_envelope", {"t": t}))
    return out


def envelope_rate_at(q: int, A: float, delta: float):
    """Rate of the envelope at a given delta, or None outside [0, B]."""
    B = envelope_coefficient(q, A)
    if delta < 0 or delta > B:
        return None
    t = math.sqrt(delta / B)
    return B * (1 - t) ** 2


def figure_discrepancy(q: int, A: float):
    """(formula B, figure coefficient, mismatch flag) when a figure value
    is on record for (q, A)."""
    key = (q, float(A))
    if key not in FIGURE_ENVELOPE_COEFF:
        return None
    B = envelope_coefficient(q, A)
    fig = FIGURE_ENVELOPE_COEFF[key]
    return B, fig, abs(B - fig) > 1e-9


def ruled_limit_params(q: int, A: float, a: float, b: float, d: float,
                       discrete_floor: bool = False) -> FrontierPoint:
    """Limit (delta, R) of the elm-surface family for relative parameters.

    delta = min{1-b, (1-m)(1-b+(q+1) m d)} with m = min{a, b/((q+1)d)}
    (the continuous limit of the floor; pass discrete_floor=True for
    m = min{a, floor(b/d)/(q+1)} when emulating a finite sequence), and
    R = (a + 1/(q+1)) (b - 1/A - (q+1) a d / 2).
    """
    if not (0 <= a <= 1 and 0 < b < 1 and d >= 0 and A > 1):
        raise ValueError("domain: 0 <= a <= 1, 0 < b < 1, d >= 0, A > 1")
    if d == 0:
        m = a
    elif discrete_floor:
        m = min(a, math.floor(b / d) / (q + 1))
    else:
        m = min(a, b / ((q + 1) * d))
    delta = min(1 - b, (1 - m) * (1 - b + (q + 1) * m * d))
    rate = (a + 1 / (q + 1)) * (b - 1 / A - (q + 1) * a * d / 2)
    return FrontierPoint(max(delta, 0.0), max(rate, 0.0), "ruled",
                         {"a": a, "b": b, "d": d, "m": m})


def balanced_d(q: int, a: float, b: float) -> float:
    """d = (1-b)/((q+1)(1-a)), equating the two delta branches at m = a."""
    return (1 - b) / ((q + 1) * (1 - a))


@dataclass
class OptimizedRate:
    a0: float
    rate: float
    point: FrontierPoint
    valid: bool
    reason: str = ""


def optimized_rate(q: int, A: float, b: float) -> OptimizedRate:
    """Closed-form maximizer of the ruled-family rate at fixed b.

    a0 = 1 - sqrt((q+2) A (1-b) / ((q+1)(A(b+1) - 2))) and the maximal rate
    R_max = (sqrt((q+2)(A(b+1)-2) / (2A(q+1))) - sqrt((1-b)/2))^2, the form
    consistent with a0 and with the figures.  The rate is maximized over a
    in [0, b], so the result is valid only when a0 lies there.
    """
    if A <= 2:
        raise ValueError("A must exceed 2 for the optimized rate")
    if not 0 < b < 1:
        raise ValueError("b must lie in (0, 1)")
    denom = (q + 1) * (A * (b + 1) - 2)
    a0 = 1 - math.sqrt((q + 2) * A * (1 - b) / denom)
    r_max = (math.sqrt((q + 2) * (A * (b + 1) - 2) / (2 * A * (q + 1)))
             - math.sqrt((1 - b) / 2)) ** 2
    point = FrontierPoint(1 - b, max(r_max, 0.0), "ruled_optimized",
                          {"a0": a0, "b": b})
    valid = 0 <= a0 <= b
    reason = "" if valid else f"a0 = {a0:.6f} falls outside [0, b = {b}]"
    return OptimizedRate(a0, r_max, point, valid, reason)


def dominance_report(q: int, A: float, samples: int):
    """Table of (delta, envelope rate, ruled rate) plus the interval where
    the ruled curve strictly exceeds the product envelope.

    Points where one side is undefined (delta beyond the envelope reach, or
    a0 > b) are reported with None entries and never compared.
    """
    if A <= 2:
        raise ValueError("A must exceed 2")
    B = envelope_coefficient(q, A)
    rows = []
    dominated = []
    for i in range(1, samples):
        delta = i * B / samples
        r_prod = envelope_rate_at(q, A, delta)
        b = 1 - delta
        r_ruled = None
        if 0 < b < 1:
            opt = optimized_rate(q, A, b)
            if opt.valid:
                r_ruled = opt.point.rate
        rows.append((delta, r_prod, r_ruled))
        if r_prod is not None and r_ruled is not None and r_ruled > r_prod + 1e-12:
            dominated.append(delta)
    interval = (min(dominated), max(dominated)) if dominated else None
    return rows, interval


def write_frontier_csv(points, path):
    """CSV with the header family,param,delta,rate (gnuplot-friendly)."""
    with open(path, "w") as fh:
        fh.write("family,param,delta,rate\n")
        for pt in points:
            param = pt.params.get("t", pt.params.get("b", ""))
            fh.write(f"{pt.family},{param},{pt.delta:.12g},{pt.rate:.12g}\n")
