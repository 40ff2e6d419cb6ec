"""Asymptotic (delta, R) frontiers: product-code envelope, ruled-surface
limit parameters, the optimized rate, and the dominance comparison.

All quantities are real-valued limits; closed forms are cross-validated
against an independent golden-section maximization, and the numeric optimum
is authoritative: a disagreement beyond tolerance is reported in the result,
never silently overridden.  optimized_rate takes a whole grid of b values
and runs one array search over it; each element takes the steps of a
scalar search, so the results do not depend on the grid around them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GOLDEN = (math.sqrt(5) - 1) / 2

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


def _rate_on_balanced_line(q: int, A: float, b: float, a: float) -> float:
    d = balanced_d(q, a, b)
    return (a + 1 / (q + 1)) * (b - 1 / A - (q + 1) * a * d / 2)


def _golden_section_max(fn, lo, hi, tol: float = 1e-12):
    """Golden-section maxima of fn on the intervals [lo[i], hi[i]], all at
    once.

    fn(x, idx) returns, for each j, the idx[j]-th objective at x[j].  Each
    element takes exactly the steps of a scalar golden-section loop: it
    stays in the working set while its hi - lo > tol, takes the branch
    fc >= fd on its own values, and costs one evaluation at its new probe
    per step, so an fn built from elementwise float arithmetic gives the
    scalar results bit for bit.  Returns the arrays (x, fn(x)).
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    idx = np.arange(lo.size)
    final_lo, final_hi = lo.copy(), hi.copy()
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = fn(c, idx), fn(d, idx)
    while True:
        live = hi - lo > tol
        if not live.all():
            final_lo[idx[~live]], final_hi[idx[~live]] = lo[~live], hi[~live]
            idx, lo, hi, c, d, fc, fd = (v[live] for v in
                                         (idx, lo, hi, c, d, fc, fd))
        if not idx.size:
            break
        left = fc >= fd
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        probe = np.where(left, hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo))
        fp = fn(probe, idx)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    x = (final_lo + final_hi) / 2
    return x, fn(x, np.arange(x.size))


@dataclass
class OptimizedRate:
    a0: float
    rate: float
    point: FrontierPoint
    numeric_a: float
    numeric_rate: float
    agrees: bool
    valid: bool
    reason: str = ""


def optimized_rate(q: int, A: float, b, tol: float = 1e-6):
    """Closed-form maximizer of the ruled-family rate at fixed b.

    a0 = 1 - sqrt((q+2) A (1-b) / ((q+1)(A(b+1) - 2))) and the maximal rate
    R_max = (sqrt((q+2)(A(b+1)-2) / (2A(q+1))) - sqrt((1-b)/2))^2, the form
    consistent with a0 and with the figures.  Both are checked against a
    golden-section maximization of the rate over a in [0, b]; the numeric
    optimum is authoritative and any disagreement beyond tol is reported.

    b is a float, giving one OptimizedRate, or a 1-D sequence, giving one
    OptimizedRate per b in order from a single array search over the whole
    grid; a bad b raises at the first offender, in b order.
    """
    if A <= 2:
        raise ValueError("A must exceed 2 for the optimized rate")
    scalar = np.ndim(b) == 0
    grid = [b] if scalar else list(b)
    closed = []
    for bi in grid:
        if not 0 < bi < 1:
            raise ValueError("b must lie in (0, 1)")
        denom = (q + 1) * (A * (bi + 1) - 2)
        a0 = 1 - math.sqrt((q + 2) * A * (1 - bi) / denom)
        r_max = (math.sqrt((q + 2) * (A * (bi + 1) - 2) / (2 * A * (q + 1)))
                 - math.sqrt((1 - bi) / 2)) ** 2
        point = FrontierPoint(1 - bi, max(r_max, 0.0), "ruled_optimized",
                              {"a0": a0, "b": bi})
        closed.append((a0, r_max, point))
    if not grid:
        return []
    bs = np.array(grid, dtype=float)
    num_a, num_rate = _golden_section_max(
        lambda a, i: _rate_on_balanced_line(q, A, bs[i], a),
        np.zeros(bs.size), np.minimum(bs, 1 - 1e-9))
    out = []
    for bi, (a0, r_max, point), na, nr in zip(grid, closed, num_a.tolist(),
                                             num_rate.tolist()):
        agrees = abs(na - a0) <= tol and abs(nr - r_max) <= tol
        valid = 0 <= a0 <= bi
        reason = "" if valid else f"a0 = {a0:.6f} falls outside [0, b = {bi}]"
        out.append(OptimizedRate(a0, r_max, point, na, nr, agrees, valid,
                                 reason))
    return out[0] if scalar else out


def dominance_report(q: int, A: float, samples: int):
    """Table of (delta, envelope rate, ruled rate) plus the interval where
    the ruled curve strictly exceeds the product envelope.

    Points where one side is undefined (delta beyond the envelope reach, or
    a0 > b) are reported with None entries and never compared.  The ruled
    rates of all samples come from one optimized_rate call.
    """
    if A <= 2:
        raise ValueError("A must exceed 2")
    B = envelope_coefficient(q, A)
    deltas = [i * B / samples for i in range(1, samples)]
    grid = [1 - delta for delta in deltas if 0 < 1 - delta < 1]
    opts = iter(optimized_rate(q, A, grid))
    rows = []
    dominated = []
    for delta in deltas:
        r_prod = envelope_rate_at(q, A, delta)
        b = 1 - delta
        r_ruled = None
        if 0 < b < 1:
            opt = next(opts)
            if opt.valid:
                r_ruled = max(opt.numeric_rate, 0.0)
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
