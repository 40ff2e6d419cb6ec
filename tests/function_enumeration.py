"""Bounded-degree function enumeration: the test oracle of the Segre bound.

surface.segre_lower_bound_elm asks one linear solve per effective divisor
of degree 2..dmax on a curve of genus >= 1 (degree 1 gives only the
constants there) and of degree 1..dmax on P^1.  This module builds every function of degree <= dmax instead, as the
constants plus the union of L(D) over the effective divisors D of degree
dmax, deduplicated through the canonical form.  It costs about
#Eff_dmax * q^(dmax+1) function constructions, so keep dmax <= 2.
"""

from ruledcodes.curve import CurveModel, DivisorOnCurve
from ruledcodes.rrspace import PoleError, effective_divisors, rr_basis

from rrspace_oracle import (CurveFunction, add, constant, evaluate, functions,
                            is_constant, order_at, scale)


def function_degree(f: CurveFunction, D: DivisorOnCurve) -> int:
    """Degree of f (= degree of its pole divisor), valid for f in L(D)."""
    if is_constant(f):
        return 0
    total = 0
    for pt in D.support():
        o = order_at(f, pt)
        if o < 0:
            total += (-o) * pt.degree
    return total


def functions_up_to_degree(curve: CurveModel, dmax: int):
    """All functions of degree <= dmax, as {canonical key: (f, degree)}."""
    spec = curve.spec
    result = {}
    for c in range(spec.order):
        f = constant(curve, c)
        result[f.key()] = (f, 0)
    if dmax < 1:
        return result
    for D in effective_divisors(curve, dmax):
        basis = functions(rr_basis(curve, D))
        if len(basis) <= 1:
            continue  # L(D) is just the constants
        k = len(basis)
        for mindex in range(1, spec.order ** k):
            digits = []
            mm = mindex
            for _ in range(k):
                digits.append(mm % spec.order)
                mm //= spec.order
            f = None
            for lam, b in zip(digits, basis):
                if lam:
                    term = scale(b, lam)
                    f = term if f is None else add(f, term)
            if f is None or is_constant(f):
                continue
            key = f.key()
            if key in result:
                continue
            result[key] = (f, function_degree(f, D))
    return result


def least_degree_by_value(funcs, center):
    """{f(center): least degree of such f} over the enumerated functions
    regular at the closed point center (encodings in its field)."""
    out = {}
    for f, deg in funcs.values():
        try:
            val = evaluate(f, center)
        except PoleError:
            continue  # the graph passes through (center, infinity)
        out[val] = min(deg, out.get(val, deg))
    return out


def segre_by_enumeration(e: int, fiber_coord: int, least, dmax: int):
    """(min{e, 2(d*+1) - e}, d*) from least_degree_by_value: d* + 1 is the
    least degree of a function of degree <= dmax through (center, fc)."""
    deg = least.get(fiber_coord)
    dstar = dmax if deg is None or deg > dmax else deg - 1
    return min(e, 2 * (dstar + 1) - e), dstar
