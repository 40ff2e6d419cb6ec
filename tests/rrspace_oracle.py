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
coefficients and values they can predict.

Its series code is its own, so that it checks rrspace's expansions rather
than repeating them: LSeries, truncated Laurent series that track their
valuation and known precision, and charts at every closed point, O (t =
x/y) and infinity on P^1 (t = 1/x) included, cached here by value.  From
rrspace it takes only RRSpace and PoleError.  Its charts, and the tests,
tell 2-torsion points by two_torsion, from the Weierstrass coefficients,
not by curve.is_two_torsion, which reads the curve's equation as rrspace
does.

p1_basis is the closed form of L(D) on the projective line, forced * x^l / u
with forced and u the negative and positive parts of D away from infinity,
that rr_basis's pole-order method must reproduce there."""

from __future__ import annotations

import functools

from ruledcodes.curve import CurveModel, ClosedPoint, P1, ELLIPTIC
from ruledcodes.gf import FieldSpec
from ruledcodes.poly import Poly
from ruledcodes.rrspace import PoleError, RRSpace


# ---------------------------------------------------------------------------
# truncated Laurent series: t^v times a Poly in t

def _head(poly: Poly, n: int) -> Poly:
    """poly modulo t^n."""
    return poly if len(poly.coeffs) <= n else Poly(poly.spec, poly.coeffs[:max(n, 0)])


class LSeries:
    """t^v * poly, known modulo t^abs (abs=None: exact)."""

    __slots__ = ("v", "poly", "abs")

    def __init__(self, v, poly: Poly, *, abs):
        self.v = v
        # terms from t^abs on are unknown, so they are dropped
        self.poly = poly if abs is None else _head(poly, abs - v)
        self.abs = abs

    @property
    def spec(self) -> FieldSpec:
        return self.poly.spec

    @classmethod
    def const(cls, spec, c):
        return cls(0, Poly.const(spec, c), abs=None)

    def _coeff_raw(self, k):
        i = k - self.v
        cs = self.poly.coeffs
        return cs[i] if 0 <= i < len(cs) else 0

    def normalized(self) -> "LSeries":
        cs = self.poly.coeffs
        if not cs:      # zero to the full known precision
            return LSeries(self.abs or 0, self.poly, abs=self.abs)
        i = next(i for i, c in enumerate(cs) if c)
        return LSeries(self.v + i, Poly(self.spec, cs[i:]), abs=self.abs) if i else self

    def valuation(self):
        """Exact valuation, or None when zero to the known precision."""
        n = self.normalized()
        return n.v if n.poly.coeffs else None

    def __add__(self, other):
        v = min(self.v, other.v)
        return LSeries(v, self.poly.shift(self.v - v) + other.poly.shift(other.v - v),
                       abs=_min_abs(self.abs, other.abs))

    def __neg__(self):
        return LSeries(self.v, -self.poly, abs=self.abs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        v = self.v + other.v
        abs_out = _min_abs(None if self.abs is None else self.abs + other.v,
                           None if other.abs is None else other.abs + self.v)
        if abs_out is None:
            return LSeries(v, self.poly * other.poly, abs=None)
        n = abs_out - v
        return LSeries(v, _head(self.poly, n) * _head(other.poly, n), abs=abs_out)

    def inverse(self) -> "LSeries":
        n = self.normalized()
        cs = n.poly.coeffs
        if not cs:
            raise ZeroDivisionError("inverting a series that is zero to precision")
        s = self.spec
        if n.abs is None and len(cs) == 1:
            return LSeries(-n.v, Poly.const(s, s.inv_i(cs[0])), abs=None)
        assert n.abs is not None, "cannot invert an exact multi-term series"
        rel = n.abs - n.v
        a0inv = s.inv_i(cs[0])
        out = [a0inv] + [0] * (rel - 1)
        for k in range(1, rel):
            acc = 0
            for i in range(1, min(k, len(cs) - 1) + 1):
                if cs[i]:
                    acc = s.add_i(acc, s.mul_i(cs[i], out[k - i]))
            out[k] = s.neg_i(s.mul_i(a0inv, acc))
        return LSeries(-n.v, Poly(s, out), abs=-n.v + rel)

    def truncate(self, abs_prec) -> "LSeries":
        if self.abs is not None and self.abs <= abs_prec:
            return self
        return LSeries(self.v, self.poly, abs=abs_prec)

    def __repr__(self):
        return f"LSeries(v={self.v}, cs={self.poly.coeffs}, abs={self.abs})"


def _min_abs(a, b):
    """The precision of a sum: the smaller known one (None is exact)."""
    return b if a is None else a if b is None else min(a, b)


def _poly_on_series(f: Poly, xs: LSeries, ext: FieldSpec) -> LSeries:
    """Evaluate a polynomial (coeffs over f.spec) on a series over ext."""
    acc = LSeries.const(ext, 0)
    for c in reversed(f.coeffs):
        acc = acc * xs + LSeries.const(ext, ext.embed_i(f.spec, c))
    return acc


def _newton_root(cs, u0: int, prec: int) -> LSeries:
    """The root u = u0 + O(t) of sum cs[i] u^i, known modulo t^prec.

    cs are series known at least to t^prec.  Each step reads u, known
    modulo t^n, as exact and returns u - F(u)/F'(u) modulo t^(2n); F'(u) is
    a unit because the curve is nonsingular at the point."""
    ext = cs[0].spec
    u = LSeries(0, Poly.const(ext, u0), abs=1)
    n = 1
    while n < prec:
        n = min(2 * n, prec)
        un = LSeries(u.v, u.poly, abs=n)
        # Horner for F and F' together
        f, fp = cs[-1], LSeries.const(ext, 0)
        for c in reversed(cs[:-1]):
            fp = fp * un + f
            f = f * un + c
        u = un - f * fp.inverse()
    return u


# ---------------------------------------------------------------------------
# local charts: series for the coordinate functions in the uniformizer

def two_torsion(curve: CurveModel, x: int, y: int, ext: FieldSpec) -> bool:
    """Whether (x, y) over ext is a 2-torsion point, 2y + a1 x + a3 = 0, from
    curve.a rather than from curve.equation; never on P^1."""
    if curve.kind == P1:
        return False
    a1, a3 = _a1_a3(curve, ext)
    return ext.add_i(ext.mul_i(2 % ext.p, y), ext.add_i(ext.mul_i(a1, x), a3)) == 0


@functools.cache
def _a1_a3(curve: CurveModel, ext: FieldSpec):
    """a1 and a3 embedded in ext, cached here by the values of curve and ext."""
    return ext.embed_i(curve.spec, curve.a[0]), ext.embed_i(curve.spec, curve.a[2])


class _Chart:
    """Expansion of x and y at a closed point in its canonical uniformizer.

    Uniformizers: x - x0 at affine non-2-torsion, y - y0 at affine
    2-torsion, x/y at the origin of an elliptic curve, 1/x at infinity on
    the projective line.  On an elliptic curve one coordinate is known and
    the other is the Newton root of the curve equation (see _cubic).
    """

    def __init__(self, curve: CurveModel, pt: ClosedPoint):
        self.curve = curve
        self.pt = pt
        self.ext = curve.spec if pt.is_infinity else pt.ext_spec
        self._cache_rel, self._xs, self._ys = 0, None, None
        if curve.kind == P1:
            self.kind = "p1_inf" if pt.is_infinity else "p1_affine"
        elif pt.is_infinity:
            self.kind = "ell_O"
        else:
            tt = two_torsion(curve, pt.x, pt.y, self.ext)
            self.kind = "ell_2tors" if tt else "ell_affine"

    def xy(self, rel: int):
        if rel <= self._cache_rel:
            return self._xs, self._ys
        ext, kind, pt = self.ext, self.kind, self.pt
        if kind == "p1_inf":
            xs, ys = LSeries(-1, Poly.one(ext), abs=rel - 1), None
        elif kind == "ell_O":
            # s = 1/y = t^3 + ...: 1/s to t^(rel-3) needs s to t^(rel+3)
            t = LSeries(1, Poly.one(ext), abs=None)
            ys = _newton_root(self._cubic(t), 0, rel + 3).inverse()
            xs = t * ys
        elif kind == "ell_2tors":
            ys = LSeries(0, Poly(ext, (pt.y, 1)), abs=rel)
            xs = _newton_root(self._cubic(ys), pt.x, rel)
        else:
            xs = LSeries(0, Poly(ext, (pt.x, 1)), abs=rel)
            ys = None if kind == "p1_affine" else _newton_root(self._cubic(xs), pt.y, rel)
        self._xs, self._ys, self._cache_rel = xs, ys, rel
        return xs, ys

    def _cubic(self, known: LSeries):
        """y^2 + a1 xy + a3 y - x^3 - a2 x^2 - a4 x - a6 as a cubic in the
        coordinate the chart solves for, its coefficients polynomials in the
        known one: y in x at an affine point, x in y at a 2-torsion point,
        and (divided by y^3) s = 1/y in t = x/y at O."""
        spec = self.curve.spec
        a1, a2, a3, a4, a6 = self.curve.a
        n = spec.neg_i
        cs = {"ell_affine": [(n(a6), n(a4), n(a2), n(1)), (a3, a1), (1,)],
              "ell_2tors": [(n(a6), a3, 1), (n(a4), a1), (n(a2),), (n(1),)],
              "ell_O": [(0, 0, 0, n(1)), (1, a1, n(a2)), (a3, n(a4)), (n(a6),)]}
        return [_poly_on_series(Poly(spec, c), known, self.ext) for c in cs[self.kind]]


@functools.cache
def _chart(curve: CurveModel, pt: ClosedPoint) -> _Chart:
    """The chart at pt, cached here by the values of curve and pt."""
    return _Chart(curve, pt)


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


# ---------------------------------------------------------------------------
# L(D) on P^1 in closed form

def _min_poly(curve: CurveModel, pt: ClosedPoint) -> Poly:
    """Minimal polynomial over F_q of the x-coordinate of an affine point:
    the product of X - x over the orbit of x, read back from F_{q^d}."""
    spec, ext = curve.spec, pt.ext_spec
    prod = Poly.from_roots(ext, sorted({x for x, _ in pt.orbit()}))
    back = {ext.embed_i(spec, c): c for c in range(spec.order)}
    return Poly(spec, [back[c] for c in prod.coeffs])


def p1_basis(curve: CurveModel, D) -> RRSpace:
    """L(D) on P^1: the rows forced * x^l, l = 0..deg D, over u, where u and
    forced are the products of the minimal polynomials of the affine points
    of D with positive and negative multiplicity, each to that power."""
    spec = curve.spec
    if D.degree() < 0:
        return RRSpace(curve, [], [], Poly.one(spec), {})
    den = Poly.one(spec)
    forced = Poly.one(spec)
    zeros = {}
    n_inf = 0
    for pt, n in D.items():
        if pt.is_infinity:
            n_inf = n
            continue
        m = _min_poly(curve, pt)
        if n > 0:
            den = den * m ** n
            zeros[pt] = n
        else:
            forced = forced * m ** (-n)
    top = D.degree()
    rows = [[0] * l + list(forced.coeffs) + [0] * (top - l) for l in range(top + 1)]
    return RRSpace(curve, [(i, 0) for i in range(den.degree + n_inf + 1)], rows,
                   den, zeros)
