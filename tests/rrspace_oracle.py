"""Functions one at a time: the reference for rrspace.RRSpace.

rrspace holds L(D) whole, as coefficient rows over one denominator, and
reads it whole (RRSpace.values, RRSpace.expansions).  This module splits a
space into CurveFunctions in canonical form (functions) and evaluates,
expands and takes valuations of each one on its own: evaluate reads
infinity from pole orders and affine points from the numerator and
denominator, taylor_coeffs expands through _laurent, which doubles the
precision until the quotient is known.  It also has the function-field
arithmetic the program never needs: sums, products, scalar multiples,
inverses and constants, built through the canonical form of the
constructor.  The tests use them to make functions whose orders, Taylor
coefficients and values they can predict."""

from __future__ import annotations

from ruledcodes.curve import CurveModel, ClosedPoint, P1, ELLIPTIC
from ruledcodes.poly import Poly
from ruledcodes.rrspace import LSeries, PoleError, RRSpace, _chart, _poly_on_series


class CurveFunction:
    """Element of the function field in canonical form."""

    __slots__ = ("curve", "num_a", "num_b", "den")

    def __init__(self, curve: CurveModel, num_a: Poly, num_b: Poly, den: Poly):
        self.curve = curve
        spec = curve.spec
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num_a.gcd(num_b).gcd(den) if not num_b.is_zero() else num_a.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num_a = num_a // g
            num_b = num_b // g
            den = den // g
        lead = den.coeffs[-1]
        if lead != 1:
            inv = spec.inv_i(lead)
            num_a = num_a * inv
            num_b = num_b * inv
            den = den * inv
        self.num_a = num_a
        self.num_b = num_b
        self.den = den

    # -- constructors

    @classmethod
    def on_p1(cls, curve, num: Poly, den: Poly):
        assert curve.kind == P1
        return cls(curve, num, Poly.zero(curve.spec), den)

    @classmethod
    def on_elliptic(cls, curve, a: Poly, b: Poly, q: Poly):
        assert curve.kind == ELLIPTIC
        return cls(curve, a, b, q)

    def is_zero(self):
        return self.num_a.is_zero() and self.num_b.is_zero()

    def key(self):
        return (self.num_a.coeffs, self.num_b.coeffs, self.den.coeffs)

    def __eq__(self, other):
        return (isinstance(other, CurveFunction) and self.curve == other.curve
                and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.curve.kind == P1:
            return f"Fn({self.num_a!r}/{self.den!r})"
        return f"Fn(({self.num_a!r} + ({self.num_b!r})*y)/{self.den!r})"


# ---------------------------------------------------------------------------
# valuations, evaluation, Taylor expansion

def _num_zero_bound(f: CurveFunction) -> int:
    """Upper bound for the zero order of the numerator A + B*y at any point."""
    if f.curve.kind == P1:
        return f.num_a.degree + 1
    da = 2 * f.num_a.degree if not f.num_a.is_zero() else -1
    db = 3 + 2 * f.num_b.degree if not f.num_b.is_zero() else -1
    return max(da, db) + 1


def _poles_at_infinity(f: CurveFunction) -> tuple[int, int]:
    """Pole orders at infinity of the numerator and the denominator of f:
    deg A and deg Q on P^1; at O, where x and y have poles of orders 2 and
    3, max(2 deg A, 2 deg B + 3) and 2 deg Q.  The two terms at O differ in
    parity, so they cannot cancel.  A zero numerator reads -1 or -2, below
    every denominator."""
    if f.curve.kind == P1:
        return f.num_a.degree, f.den.degree
    num = 2 * f.num_a.degree
    if not f.num_b.is_zero():
        num = max(num, 2 * f.num_b.degree + 3)
    return num, 2 * f.den.degree


def _numerator_series(f: CurveFunction, chart: _Chart, rel: int) -> LSeries:
    xs, ys = chart.xy(rel)
    ns = _poly_on_series(f.num_a, xs, chart.ext)
    if not f.num_b.is_zero():
        ns = ns + _poly_on_series(f.num_b, xs, chart.ext) * ys
    return ns


def order_at(f: CurveFunction, pt: ClosedPoint) -> int:
    """Valuation of f at the closed point (same at every orbit member)."""
    if f.is_zero():
        raise ValueError("the zero function has no valuation")
    if pt.is_infinity:
        num, den = _poles_at_infinity(f)
        return den - num
    return _laurent(f, pt, 0).valuation()


def taylor_coeffs(f: CurveFunction, pt: ClosedPoint, k: int):
    """First k coefficients of f in the local uniformizer at pt.

    Raises PoleError if f has a pole there.  Coefficients are encodings
    in F_{q^d}, d = deg(pt).
    """
    if k <= 0:
        return []
    ls = _laurent(f, pt, k)
    v = ls.valuation()
    if v is not None and v < 0:
        raise PoleError(f"{f!r} has a pole at {pt!r}")
    return [ls._coeff_raw(i) for i in range(k)]


def _laurent(f: CurveFunction, pt: ClosedPoint, abs_target: int) -> LSeries:
    """Expansion of f at pt with absolute precision >= abs_target."""
    chart = _chart(f.curve, pt)
    if f.is_zero():
        return LSeries(abs_target, Poly.zero(chart.ext), abs=abs_target)
    bound = _num_zero_bound(f) + 2 * f.den.degree + 2
    rel = max(8, abs_target + 4)
    while True:
        num = _numerator_series(f, chart, rel).normalized()
        den = _poly_on_series(f.den, chart.xy(rel)[0], chart.ext).normalized()
        if num.valuation() is not None and den.valuation() is not None:
            quot = num * den.inverse()
            if quot.abs >= abs_target:
                return quot
        elif rel > bound + abs_target + 8:
            raise AssertionError("series did not stabilize within bounds")
        rel *= 2


def evaluate(f: CurveFunction, pt: ClosedPoint) -> int:
    """Encoding of the value of f at the canonical representative, in F_{q^d}.

    At infinity the value is read from the pole orders: x = 1/t on P^1, and
    x and y lead with t^-2 and t^-3 at O in the uniformizer t = x/y.  When
    numerator and denominator have the same pole order it is even, so it
    comes from A, and the value is the ratio of the leading coefficients of
    A and Q."""
    curve = f.curve
    if pt.is_infinity:
        s = curve.spec
        num, den = _poles_at_infinity(f)
        if num > den:
            raise PoleError(f"{f!r} has a pole at {pt!r}")
        if num < den:
            return 0
        return s.mul_i(f.num_a.coeffs[-1], s.inv_i(f.den.coeffs[-1]))
    ext = pt.ext_spec
    dv = f.den.eval_i(pt.x, target=ext)
    if dv != 0:
        nv = f.num_a.eval_i(pt.x, target=ext)
        if curve.kind == ELLIPTIC and not f.num_b.is_zero():
            nv = ext.add_i(nv, ext.mul_i(f.num_b.eval_i(pt.x, target=ext), pt.y))
        return ext.mul_i(nv, ext.inv_i(dv))
    return taylor_coeffs(f, pt, 1)[0]


def functions(space: RRSpace) -> list[CurveFunction]:
    """The basis of a space as CurveFunctions, in the order of its rows."""
    top = max(i for i, _ in space.monomials)
    out = []
    for row in space.rows.tolist():
        parts = [[0] * (top + 1), [0] * (top + 1)]
        for c, (i, j) in zip(row, space.monomials):
            parts[j][i] = c
        out.append(CurveFunction(space.curve, Poly(space.curve.spec, parts[0]),
                                 Poly(space.curve.spec, parts[1]), space.den))
    return out


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
