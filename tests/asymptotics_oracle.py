"""The scalar golden-section search that asymptotics' array search
replaced: one search per b, one Python loop step per probe.  It is the
reference the array search, optimized_rate and dominance_report are
compared against, value for value."""

import math

from ruledcodes.asymptotics import (GOLDEN, FrontierPoint, OptimizedRate,
                                    _rate_on_balanced_line,
                                    envelope_coefficient, envelope_rate_at)


def golden_section_max(fn, lo: float, hi: float, tol: float = 1e-12):
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = fn(c), fn(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN * (hi - lo)
            fd = fn(d)
    x = (lo + hi) / 2
    return x, fn(x)


def optimized_rate(q: int, A: float, b: float, tol: float = 1e-6) -> OptimizedRate:
    """asymptotics.optimized_rate at one b, with its own scalar search."""
    if A <= 2:
        raise ValueError("A must exceed 2 for the optimized rate")
    if not 0 < b < 1:
        raise ValueError("b must lie in (0, 1)")
    denom = (q + 1) * (A * (b + 1) - 2)
    a0 = 1 - math.sqrt((q + 2) * A * (1 - b) / denom)
    r_max = (math.sqrt((q + 2) * (A * (b + 1) - 2) / (2 * A * (q + 1)))
             - math.sqrt((1 - b) / 2)) ** 2
    num_a, num_rate = golden_section_max(
        lambda a: _rate_on_balanced_line(q, A, b, a), 0.0, min(b, 1 - 1e-9))
    agrees = abs(num_a - a0) <= tol and abs(num_rate - r_max) <= tol
    valid = 0 <= a0 <= b
    reason = "" if valid else f"a0 = {a0:.6f} falls outside [0, b = {b}]"
    point = FrontierPoint(1 - b, max(r_max, 0.0), "ruled_optimized",
                          {"a0": a0, "b": b})
    return OptimizedRate(a0, r_max, point, num_a, num_rate, agrees, valid, reason)


def dominance_report(q: int, A: float, samples: int):
    """asymptotics.dominance_report with one scalar search per sample."""
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
                r_ruled = max(opt.numeric_rate, 0.0)
        rows.append((delta, r_prod, r_ruled))
        if r_prod is not None and r_ruled is not None and r_ruled > r_prod + 1e-12:
            dominated.append(delta)
    interval = (min(dominated), max(dominated)) if dominated else None
    return rows, interval
