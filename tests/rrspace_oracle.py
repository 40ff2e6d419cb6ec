"""Function-field arithmetic on rrspace.CurveFunction, which the program
itself never needs: sums, products, scalar multiples, inverses and
constants, built through the canonical form of the constructor.  The tests
use them to make functions whose orders, Taylor coefficients and values
they can predict."""

from ruledcodes.curve import P1
from ruledcodes.poly import Poly
from ruledcodes.rrspace import CurveFunction


def _check(f, g):
    if f.curve != g.curve:
        raise ValueError("functions on different curves")


def _weierstrass(curve):
    """(x^3 + a2 x^2 + a4 x + a6, a1 x + a3) of an elliptic curve."""
    spec = curve.spec
    a1, a2, a3, a4, a6 = curve.a
    return Poly(spec, (a6, a4, a2, 1)), Poly(spec, (a3, a1))


def constant(curve, c: int) -> CurveFunction:
    spec = curve.spec
    return CurveFunction(curve, Poly.const(spec, c), Poly.zero(spec), Poly.one(spec))


def is_constant(f: CurveFunction) -> bool:
    return f.num_b.is_zero() and f.num_a.degree <= 0 and f.den.degree <= 0


def add(f: CurveFunction, g: CurveFunction) -> CurveFunction:
    _check(f, g)
    na = f.num_a * g.den + g.num_a * f.den
    nb = f.num_b * g.den + g.num_b * f.den
    return CurveFunction(f.curve, na, nb, f.den * g.den)


def scale(f: CurveFunction, c: int) -> CurveFunction:
    return CurveFunction(f.curve, f.num_a * c, f.num_b * c, f.den)


def mul(f: CurveFunction, g: CurveFunction) -> CurveFunction:
    _check(f, g)
    curve = f.curve
    if curve.kind == P1:
        return CurveFunction(curve, f.num_a * g.num_a, Poly.zero(curve.spec),
                             f.den * g.den)
    fx, lin = _weierstrass(curve)
    a = f.num_a * g.num_a + f.num_b * g.num_b * fx
    b = f.num_a * g.num_b + f.num_b * g.num_a - f.num_b * g.num_b * lin
    return CurveFunction(curve, a, b, f.den * g.den)


def inverse(f: CurveFunction) -> CurveFunction:
    curve = f.curve
    if f.is_zero():
        raise ZeroDivisionError("inverting the zero function")
    if curve.kind == P1:
        return CurveFunction(curve, f.den, Poly.zero(curve.spec), f.num_a)
    fx, lin = _weierstrass(curve)
    # (A + By)(A - B(a1 x + a3) - By) = A^2 - AB(a1x+a3) - B^2 f(x)
    norm = f.num_a * f.num_a - f.num_a * f.num_b * lin - f.num_b * f.num_b * fx
    return CurveFunction(curve, f.den * (f.num_a - f.num_b * lin),
                         f.den * -f.num_b, norm)
