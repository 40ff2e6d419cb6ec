"""Riemann-Roch spaces L(D) with explicit bases.

rr_basis returns L(D) as an RRSpace: coefficient rows over the monomials
x^i y^j (y^2 reduced away through the curve equation; j = 0 on the
projective line), all divided by one monic polynomial u(x) whose zeros are
known.  The space is read whole, never one function at a time:
RRSpace.values at rational points evaluates the rows and u by Horner in x
at all points at once and inverts u's values as one array (at other
affine points it reads the expansion); RRSpace.expansions at an affine
closed point is the monomials' series times the rows, divided by u's
series, whose order there is known, so the precision needed is known in
advance.  On the projective line the basis is forced * x^l / u, forced
and u the negative and positive parts of D away from infinity.

The elliptic basis algorithm multiplies L(D) into a pole-at-infinity-only
space: an auxiliary function u, a product of minimal polynomials of the
x-coordinates of the positive support, has an explicitly known divisor, so
u * L(D) is the subspace of L(M'*O) cut out by vanishing conditions at known
affine closed points.  Vanishing to order n at a degree-d point contributes
n*d linear conditions over F_q: the n x M coefficient matrix of the
order-n truncated expansions of the M monomials (computed in F_{q^d} with a
local chart) goes through subfield_coords, the one map from F_{q^d} to
F_q-coordinates, in one call.  The monomials x^i y^j have the distinct pole
orders 2i + 3j at O, so D(O) is read into M' as D(infinity) is on P^1, and O
imposes no condition.  The resulting nullspace is echelonized against the
monomial order of L(M'*O), which makes bases reproducible.

Local expansions are LSeries, t^v times a Poly in the uniformizer t, so they
use Poly's arithmetic.  A chart fixes one coordinate (x0 + t, y0 + t, or
t = x/y at O) and finds the other as the Newton root of the curve equation.
Values at infinity need no expansion: x^i y^j has a pole of order 2i + 3j
at O (i at infinity on P^1), so the value of a function of L(D) there is
its coefficient of x^deg(u) (see RRSpace.values).

Each closed point P of the support needs only its own field F_{q^d},
d = deg(P): the x-fiber through P is read off P and -P (see _x_fiber), so a
divisor is supported exactly when q^d <= gf.DESK_CAP for every point in it.

effective_divisors lists the effective divisors of one degree; the
graph-avoidance bound in surface asks one linear solve of each L(D).

Nothing here is cached at module level: local charts are cached on their
CurveModel, and the inverse basis matrices of subfield_coords on the big
FieldSpec, so both are freed with their owner.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldSpec, field_create
from .poly import Poly
from .curve import (CurveModel, ClosedPoint, DivisorOnCurve, P1, ELLIPTIC,
                    divisor_class_sum)
from . import fqarray, linalg


class PoleError(ArithmeticError):
    """Evaluation or Taylor expansion requested at a pole."""


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
            tt = curve.is_two_torsion(pt.x, pt.y, self.ext)
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


def _chart(curve: CurveModel, pt: ClosedPoint) -> _Chart:
    key = (pt.degree, pt.x, pt.y)
    if key not in curve._charts:
        curve._charts[key] = _Chart(curve, pt)
    return curve._charts[key]


# ---------------------------------------------------------------------------
# minimal polynomial of an x-coordinate, and the fiber of the x-map over it

def _coerce_down(spec: FieldSpec, big: FieldSpec, poly_big: Poly) -> Poly:
    coords = subfield_coords(spec, big, [poly_big.coeffs])
    assert not any(map(any, coords[1:])), "coefficient not in the base field"
    return Poly(spec, coords[0])


def subfield_coords(small: FieldSpec, big: FieldSpec, values) -> list[list[int]]:
    """The F_q-linear rows of a k x M matrix of encodings in big = F_{q^d}
    over small = F_q: row t*k + r holds coordinate t of row r, with respect
    to the basis 1, z, ..., z^(d-1) of big over small (z the class of the
    absolute generator).  One F_p-linear map takes the digits of every value
    to its coordinates in the basis e_i z^j, e_i the basis of small over F_p;
    its matrix is cached on big, keyed like its embeddings.  When small is
    big the map is the identity and the rows come back as they are."""
    if not len(values):
        return []
    key = (small.p, small.deg, small.modulus)
    if key == (big.p, big.deg, big.modulus):
        return [list(row) for row in values]
    if key not in big._coords:
        big._coords[key] = _subfield_inverse(small, big)
    sol = fqarray.linear(big, big._coords[key], fqarray.digits(big, values))
    d, k, ncols = big.deg // small.deg, *sol.shape[1:]
    sol = sol.reshape(d, small.deg, k, ncols).swapaxes(0, 1)
    return fqarray.encode(small, sol).reshape(d * k, ncols).tolist()


def _subfield_inverse(small: FieldSpec, big: FieldSpec):
    """The inverse over F_p of the matrix whose column j*deg(small) + i holds
    the digits of e_i z^j in big."""
    n, p = big.deg, big.p
    z = p if n > 1 else 0   # encoding of the generator z of big
    cols = [big.decode(big.mul_i(big.embed_i(small, small.encode([0] * i + [1])),
                                 big.pow_i(z, j)))
            for j in range(n // small.deg) for i in range(small.deg)]
    # rref of [M | I] is [I | M^-1]
    aug = [[cols[c][r] for c in range(n)] + [1 if r == j else 0 for j in range(n)]
           for r in range(n)]
    red, pivots = linalg.rref(field_create(p, 1), aug)
    assert pivots == list(range(n)), "basis matrix is singular"
    return np.array([row[n:] for row in red], dtype=np.int64)


def x_min_poly(curve: CurveModel, pt: ClosedPoint) -> Poly:
    """Minimal polynomial over F_q of the x-coordinate of pt."""
    assert not pt.is_infinity
    ext = pt.ext_spec
    prod = Poly.from_roots(ext, [x for (x,) in ext.orbit((pt.x,))])
    return _coerce_down(curve.spec, ext, prod)


def _x_fiber(curve: CurveModel, pt: ClosedPoint):
    """(min poly m of x(pt), [(closed point Q over a root of m, e_Q)]) with
    div(m(x)) = sum e_Q * Q - 2*deg(m)*O on an elliptic curve.

    The geometric points above the conjugates of x(pt) are the conjugates of
    pt and of -pt, all defined over the field of pt.  So the fiber is pt with
    e = 2 when pt is 2-torsion, pt alone when -pt is a conjugate of pt
    (deg x(pt) = deg(pt) / 2), and pt and -pt otherwise.
    """
    m = x_min_poly(curve, pt)
    ext = pt.ext_spec
    if curve.is_two_torsion(pt.x, pt.y, ext):
        fiber = [(pt, 2)]
    else:
        neg = ClosedPoint(curve, pt.degree, *curve.ell_neg((pt.x, pt.y), ext))
        fiber = [(pt, 1)] if neg == pt else [(pt, 1), (neg, 1)]
    total = sum(e * cp.degree for cp, e in fiber)
    assert total == 2 * m.degree, f"x-fiber degree {total} != {2 * m.degree}"
    return m, fiber


# ---------------------------------------------------------------------------
# Riemann-Roch bases

class RRSpace:
    """L(D) as coefficient rows over one denominator: basis function r is
    sum_m rows[r, m] x^i y^j / den, (i, j) = monomials[m], with den a monic
    polynomial in x and zeros its orders at the affine closed points where
    it vanishes.  The monomials run over the ambient space and then over
    any x^i, i <= deg(den), that den needs beyond it (zero columns), so
    den's coefficients are one more row over the same columns."""

    __slots__ = ("curve", "monomials", "rows", "den", "zeros", "_coef")

    def __init__(self, curve: CurveModel, monomials, rows, den: Poly, zeros):
        monomials = monomials + [(i, 0) for i in range(den.degree + 1)
                                 if (i, 0) not in monomials]
        coef = np.zeros((len(rows) + 1, len(monomials)), dtype=np.int64)
        for r, row in enumerate(rows):
            coef[r, :len(row)] = row
        coef[-1, [monomials.index((i, 0)) for i in range(den.degree + 1)]] = den.coeffs
        self.curve, self.monomials, self.den, self.zeros = curve, monomials, den, zeros
        self.rows, self._coef = coef[:-1], coef

    def __len__(self):
        return len(self.rows)

    def values(self, points) -> np.ndarray:
        """The values of the basis at closed points, a len(self) x
        len(points) array of encodings (in F_{q^d} at a point of degree d).
        At rational points the rows and den's row, as polynomials in x with
        a part times y, go by Horner at all points at once and are divided
        by den's values.  At O (infinity on P^1), where x^i y^j has a pole
        of order 2i + 3j (i), a function's value is its coefficient of
        x^deg(den), whose pole order is den's; PoleError if a monomial of
        higher order has a nonzero one.  At a point of higher degree, and
        where den vanishes, the value is read from the expansion."""
        spec = self.curve.spec
        out = np.zeros((len(self), len(points)), dtype=np.int64)
        plain = [c for c, pt in enumerate(points)
                 if not pt.is_infinity and pt.degree == 1 and pt not in self.zeros]
        if plain:
            # coef[:, j, r, i]: row r's coefficient of x^i y^j, den's last
            coef = np.zeros((2, len(self) + 1, max(i for i, _ in self.monomials) + 1),
                            dtype=np.int64)
            for m, (i, j) in enumerate(self.monomials):
                coef[j, :, i] = self._coef[:, m]
            coef = fqarray.digits(spec, coef)
            x = fqarray.digits(spec, [points[c].x for c in plain])[:, None, None]
            acc = np.zeros(coef.shape[:3] + x.shape[-1:], dtype=np.int64)
            for i in reversed(range(coef.shape[-1])):
                acc = fqarray.add(spec, fqarray.mul(spec, acc, x), coef[..., i, None])
            num = acc[:, 0]
            if self.curve.kind == ELLIPTIC:
                y = fqarray.digits(spec, [points[c].y for c in plain])
                num = fqarray.add(spec, num, fqarray.mul(spec, acc[:, 1], y[:, None]))
            inv = fqarray.inv(spec, num[:, -1])
            out[:, plain] = fqarray.encode(spec, fqarray.mul(spec, num[:, :-1],
                                                             inv[:, None]))
        for c, pt in enumerate(points):
            if pt.is_infinity:
                order = np.array([2 * i + 3 * j for i, j in self.monomials])
                if self.rows[:, order > 2 * self.den.degree].any():
                    raise PoleError(f"L(D) has a pole at {pt!r}")
                out[:, c] = self.rows[:, self.monomials.index((self.den.degree, 0))]
            elif pt.degree > 1 or pt in self.zeros:
                out[:, c] = self.expansions(pt, 1)[:, 0]
        return out

    def expansions(self, pt: ClosedPoint, k: int) -> np.ndarray:
        """The first k Taylor coefficients of the basis at the affine closed
        point pt, in its chart's uniformizer t: a len(self) x k array of
        encodings in F_{q^d}, d = deg(pt).  With v the order of den at pt,
        the monomials' series below t^(k + v), times the rows and den's
        row, give the numerators and den's series t^v w; the numerators
        over t^v are divided by the unit w.  PoleError if a function has a
        pole at pt; ValueError at O (infinity on P^1)."""
        if pt.is_infinity:
            raise ValueError("expansions are taken at affine points only")
        if k <= 0:
            return np.zeros((len(self), 0), dtype=np.int64)
        v, ext = self.zeros.get(pt, 0), pt.ext_spec
        xs, ys = _chart(self.curve, pt).xy(k + v)
        table = [[s._coeff_raw(n) for n in range(k + v)]
                 for s in _monomial_series(self.monomials, xs, ys, k + v)]
        coef = self._coef.tolist()
        embed = {c: ext.embed_i(self.curve.spec, c) for c in set().union(*coef)}
        sums = linalg.mat_mul(ext, [[embed[c] for c in row] for row in coef], table)
        den = sums[-1].tolist()
        if sums[:-1, :v].any():
            raise PoleError(f"L(D) has a pole at {pt!r}")
        assert not any(den[:v]) and den[v], "den's order at pt is not v"
        inv = LSeries(0, Poly(ext, den[v:]), abs=k).inverse()
        # coefficient n of the quotient is sum_i numerator_(v+i) inv_(n-i)
        toeplitz = [[inv._coeff_raw(n - i) for n in range(k)] for i in range(k)]
        return linalg.mat_mul(ext, sums[:-1, v:], toeplitz)


def rr_basis(curve: CurveModel, D: DivisorOnCurve) -> RRSpace:
    """Echelonized basis of L(D) = {f : div(f) + D >= 0} over F_q."""
    if D.curve != curve:
        raise ValueError("divisor lives on a different curve")
    if curve.kind == P1:
        return _rr_basis_p1(curve, D)
    if curve.kind == ELLIPTIC:
        return _rr_basis_elliptic(curve, D)
    raise ValueError("unsupported genus")


def _rr_basis_p1(curve, D):
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
        m = x_min_poly(curve, pt)
        if n > 0:
            den = den * m ** n
            zeros[pt] = n
        else:
            forced = forced * m ** (-n)
    top = D.degree()
    rows = [[0] * l + list(forced.coeffs) + [0] * (top - l) for l in range(top + 1)]
    return RRSpace(curve, [(i, 0) for i in range(den.degree + n_inf + 1)], rows,
                   den, zeros)


def _rr_basis_elliptic(curve, D):
    spec = curve.spec
    deg_d = D.degree()
    # the degree-0 dichotomy is decided by the group law, not by rank
    if deg_d < 0 or (deg_d == 0 and divisor_class_sum(D) is not None):
        return RRSpace(curve, [], [], Poly.one(spec), {})
    u = Poly.one(spec)
    zdiv: dict[ClosedPoint, int] = {}
    m_pole = 0
    for pt, n in D.items():
        if n <= 0 or pt.is_infinity:
            continue
        m, fiber = _x_fiber(curve, pt)
        c = -(-n // fiber[0][1])        # pt's ramification, 2 at 2-torsion
        u = u * m ** c
        m_pole += 2 * c * m.degree
        for cp, e in fiber:
            zdiv[cp] = zdiv.get(cp, 0) + c * e
    # x^i y^j has a pole of order 2i + 3j at O and no other, so D(O) only
    # moves the bound of the ambient space, as on P^1
    m_amb = m_pole + D.multiplicity(ClosedPoint(curve, 1, None, None))

    monomials = [(i, j) for j in (0, 1) for i in range(m_amb + 1)
                 if 2 * i + 3 * j <= m_amb]
    monomials.sort(key=lambda ij: (2 * ij[0] + 3 * ij[1], ij[1]))

    # u f vanishes to order r_Q = div(u)(Q) - D(Q) at each affine point Q
    rows = []
    for qpt in sorted({*zdiv, *D.support()}, key=ClosedPoint.sort_key):
        r_q = zdiv.get(qpt, 0) - D.multiplicity(qpt)
        if r_q <= 0 or qpt.is_infinity:
            continue
        xs, ys = _chart(curve, qpt).xy(r_q + 4)
        series = _monomial_series(monomials, xs, ys, r_q)
        rows.extend(subfield_coords(spec, qpt.ext_spec,
                                    [[s._coeff_raw(k) for s in series]
                                     for k in range(r_q)]))

    space = RRSpace(curve, monomials, linalg.nullspace(spec, rows, len(monomials)),
                    u, zdiv)
    expected = deg_d if deg_d >= 1 else 1
    assert len(space) == expected, (
        f"dim L(D) = {len(space)}, Riemann-Roch predicts {expected}")
    return space


def _monomial_series(monomials, xs, ys, top):
    """The series of x^i y^j for (i, j) in monomials at an affine point,
    known below t^top."""
    xpow = [LSeries.const(xs.spec, 1)]
    for _ in range(max(i for i, _ in monomials)):
        xpow.append((xpow[-1] * xs).truncate(top))
    return [(xpow[i] * ys).truncate(top) if j else xpow[i] for i, j in monomials]


# ---------------------------------------------------------------------------
# effective divisors

def effective_divisors(curve: CurveModel, n: int):
    """All effective divisors of degree exactly n, deterministic order."""
    pools = {d: curve.closed_points(d) for d in range(1, n + 1)}
    out = []

    def rec(remaining, min_deg, min_idx, acc):
        if remaining == 0:
            out.append(DivisorOnCurve(curve, list(acc)))
            return
        for d in range(min_deg, remaining + 1):
            pts = pools[d]
            start = min_idx if d == min_deg else 0
            for idx in range(start, len(pts)):
                acc.append((pts[idx], 1))
                rec(remaining - d, d, idx, acc)
                acc.pop()

    rec(n, 1, 0, [])
    return out
