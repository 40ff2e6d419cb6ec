"""A numerical check of asymptotics' closed forms: a golden-section search
for the maximum of the ruled-family rate over a, on the balanced line
d = balanced_d(q, a, b), with one Python loop step per probe.  It returns
its own (a, rate) pair, which the tests compare with optimized_rate's
a0 and R_max, and its own dominance table, one scalar point at a time;
closed_form evaluates a0 and R_max at one b in Python floats.
ruled_limit_params gives the limit (delta, R) of the ruled family at any
(a, b, d), the formula the optimized rate maximizes."""

import math
from typing import NamedTuple

from ruledcodes.asymptotics import envelope_coefficient

GOLDEN = (math.sqrt(5) - 1) / 2


class LimitPoint(NamedTuple):
    delta: float
    rate: float
    m: float


def ruled_limit_params(q: int, A: float, a: float, b: float, d: float,
                       discrete_floor: bool = False) -> LimitPoint:
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
    return LimitPoint(max(delta, 0.0), max(rate, 0.0), m)


def envelope_rate_at(q: int, A: float, delta: float):
    """Rate of the envelope at a given delta, or None outside [0, B]."""
    B = envelope_coefficient(q, A)
    if delta < 0 or delta > B:
        return None
    t = math.sqrt(delta / B)
    return B * (1 - t) ** 2


def balanced_d(q: int, a: float, b: float) -> float:
    """d = (1-b)/((q+1)(1-a)), equating the two delta branches at m = a."""
    return (1 - b) / ((q + 1) * (1 - a))


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


def rate_on_balanced_line(q: int, A: float, b: float, a: float) -> float:
    d = balanced_d(q, a, b)
    return (a + 1 / (q + 1)) * (b - 1 / A - (q + 1) * a * d / 2)


def numeric_optimum(q: int, A: float, b: float):
    """(a, rate) of the searched maximum of the rate over a in [0, b]."""
    return golden_section_max(lambda a: rate_on_balanced_line(q, A, b, a),
                              0.0, min(b, 1 - 1e-9))


def closed_form(q: int, A: float, b: float):
    """(a0, R_max) at one b in Python floats: the scalar formulas that
    asymptotics.optimized_rate evaluates over an array of b."""
    denom = (q + 1) * (A * (b + 1) - 2)
    a0 = 1 - math.sqrt((q + 2) * A * (1 - b) / denom)
    r_max = (math.sqrt((q + 2) * (A * (b + 1) - 2) / (2 * A * (q + 1)))
             - math.sqrt((1 - b) / 2)) ** 2
    return a0, r_max


def a0_in_range(q: int, A: float, b: float) -> bool:
    """Whether the closed-form maximizer a0 lies in [0, b], the range the
    search covers; outside it the search stops at an end of the range."""
    return 0 <= closed_form(q, A, b)[0] <= b


def dominance_report(q: int, A: float, samples: int):
    """asymptotics.dominance_report as a list of (delta, envelope rate,
    ruled rate) rows, None for an undefined rate, with the searched rate
    per sample."""
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
        if 0 < b < 1 and a0_in_range(q, A, b):
            r_ruled = max(numeric_optimum(q, A, b)[1], 0.0)
        rows.append((delta, r_prod, r_ruled))
        if r_prod is not None and r_ruled is not None and r_ruled > r_prod + 1e-12:
            dominated.append(delta)
    interval = (min(dominated), max(dominated)) if dominated else None
    return rows, interval
