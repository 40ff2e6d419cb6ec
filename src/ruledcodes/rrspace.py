"""Riemann-Roch spaces L(D) with explicit bases.

rr_basis returns L(D) as an RRSpace: coefficient rows over the monomials
x^i y^j, j < a, all divided by one monic polynomial u(x) whose zeros are
known.  The space is read whole, never one function at a time:
RRSpace.values at rational points evaluates the rows and u by Horner in x
at all points at once and inverts u's values as one array (at other
affine points it reads the expansion); RRSpace.expansions at an affine
closed point is the monomials' series times the rows, divided by u's
series, whose order there is known, so the precision needed is known in
advance.

Nothing here asks which curve it works on.  A curve is its equation
F(x, y) = 0 (curve.equation; F = y on P^1) and the orders a and b of the
poles of x and y at infinity, their only pole (curve.pole_orders; a = 1 on
P^1, (a, b) = (2, 3) on an elliptic curve).  One algorithm builds every
basis: it multiplies L(D) into a pole-at-infinity-only space.  An auxiliary
function u, a product of minimal polynomials of the x-coordinates of the
positive support, has an explicitly known divisor (its zeros the x-fibers,
see _x_fiber), so u * L(D) is the subspace of L(M'*infinity) cut out by
vanishing conditions at known affine closed points.  Vanishing to order n
at a degree-d point contributes n*d linear conditions over F_q: the n x M
coefficient matrix of the order-n truncated expansions of the M monomials
(computed in F_{q^d} with a local chart) goes through subfield_coords, the
one map from F_{q^d} to F_q-coordinates, in one call.  The monomials
x^i y^j, j < a, have the distinct pole orders a i + b j, so D(infinity) is
read into M', and infinity imposes no condition.  The resulting nullspace
is echelonized against the monomial order of L(M'*infinity), which makes
bases reproducible, and its rank decides degree 0: l(D) is 1 for a
principal D and 0 otherwise.

Local expansions are taken at affine points only.  An expansion is a Poly
in the uniformizer t, read modulo t^n, and the caller passes n: every order
it meets there is known in advance, so nothing tracks a precision.  A chart
fixes one coordinate (x = x0 + t, or y = y0 + t where dF/dy vanishes) and
finds the other as the Newton root of F.  Nothing expands at infinity: the
value of a function of L(D) there is its coefficient of x^deg(u) (see
RRSpace.values).

Each closed point P of the support needs only its own field F_{q^d},
d = deg(P): the x-fiber through P is read off F(x(P), Y) (see _x_fiber),
and its conditions are taken in that field, so a divisor is supported
exactly when q^d <= gf.DESK_CAP for every point in it.

effective_divisors lists the effective divisors of one degree; the
graph-avoidance bound in surface asks one linear solve of each L(D).

Nothing here is cached at module level: local charts and the spaces
rr_basis returns are cached on their CurveModel (an RRSpace is never
changed once built, so every caller asking for one L(D) shares it), and
the inverse basis matrices of fqarray.coords on the big FieldSpec, so all
are freed with their owner.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldSpec
from .poly import Poly
from .curve import CurveModel, ClosedPoint, DivisorOnCurve
from . import fqarray, linalg


class PoleError(ArithmeticError):
    """Evaluation or Taylor expansion requested at a pole."""


# ---------------------------------------------------------------------------
# power series at an affine point: a Poly in the uniformizer t, read mod t^n

def _head(a: Poly, n: int) -> Poly:
    """a modulo t^n."""
    return a if len(a.coeffs) <= n else Poly(a.spec, a.coeffs[:n])


def _mul(a: Poly, b: Poly, n: int) -> Poly:
    """a b modulo t^n."""
    return _head(_head(a, n) * _head(b, n), n)


def _inverse(a: Poly, n: int) -> Poly:
    """1/a modulo t^n for a unit a."""
    s, cs = a.spec, a.coeffs
    a0inv = s.inv_i(cs[0])
    out = [a0inv]
    for k in range(1, n):
        acc = 0
        for i in range(1, min(k, len(cs) - 1) + 1):
            if cs[i]:
                acc = s.add_i(acc, s.mul_i(cs[i], out[k - i]))
        out.append(s.neg_i(s.mul_i(a0inv, acc)))
    return Poly(s, out)


def _newton_root(cs, u0: int, n: int) -> Poly:
    """The root u = u0 + O(t) of sum cs[i] u^i modulo t^n.  Each step reads
    u modulo t^m as exact and returns u - F(u)/F'(u) modulo t^(2m); F'(u)
    is a unit because the curve is nonsingular at the point."""
    ext = cs[0].spec
    u, m = Poly.const(ext, u0), 1
    while m < n:
        m = min(2 * m, n)
        # Horner for F and F' together
        f, fp = cs[-1], Poly.zero(ext)
        for c in reversed(cs[:-1]):
            fp = _mul(fp, u, m) + f
            f = _mul(f, u, m) + c
        u = u - _mul(f, _inverse(fp, m), m)
    return u


# ---------------------------------------------------------------------------
# local charts: series for the coordinate functions in the uniformizer

class _Chart:
    """Expansion of x and y at an affine closed point in its uniformizer t:
    one coordinate is known, x = x0 + t, or y = y0 + t where dF/dy vanishes
    and x - x0 is no uniformizer (curve.is_two_torsion), and the other is
    the Newton root of F with the known one substituted.  On the projective
    line F = y, so y is the zero series."""

    def __init__(self, curve: CurveModel, pt: ClosedPoint):
        self.curve, self.pt, self.ext = curve, pt, pt.ext_spec
        self.tors = curve.is_two_torsion(pt.x, pt.y, self.ext)
        self._n, self._xy = 0, None

    def xy(self, n: int):
        """x and y modulo t^n, or to a higher precision an earlier call
        asked for."""
        if n > self._n:
            pt, ext = self.pt, self.ext
            cs = self.curve.equation_in(ext)    # cs[j][i]: F's coefficient of x^i y^j
            if self.tors:                       # F's coefficients in x
                cs = [[c[i] if i < len(c) else 0 for c in cs]
                      for i in range(max(map(len, cs)))]
            known, root = (pt.y, pt.x) if self.tors else (pt.x, pt.y)
            known, coeffs = Poly(ext, (known, 1)), []
            for c in cs:
                acc = Poly.zero(ext)
                for ci in reversed(c):
                    acc = acc * known + Poly.const(ext, ci)
                coeffs.append(acc)
            xy = known, _newton_root(coeffs, root, n)
            self._n, self._xy = n, xy[::-1] if self.tors else xy
        return self._xy


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
    absolute generator), by fqarray.coords.  When small is big the map is
    the identity and the rows come back as they are."""
    if not len(values):
        return []
    if small.order == big.order:
        return [list(row) for row in values]
    return fqarray.coords(small, big, values).tolist()


def x_min_poly(curve: CurveModel, pt: ClosedPoint) -> Poly:
    """Minimal polynomial over F_q of the x-coordinate of pt."""
    assert not pt.is_infinity
    ext = pt.ext_spec
    prod = Poly.from_roots(ext, [x for (x,) in ext.orbit((pt.x,), curve.spec.order)])
    return _coerce_down(curve.spec, ext, prod)


def _x_fiber(curve: CurveModel, pt: ClosedPoint):
    """(min poly m of x(pt), [(closed point Q over a root of m, e_Q)]) with
    div(m(x)) = sum e_Q * Q - a*deg(m)*infinity, a the pole order of x.

    Over x0 = x(pt), the other points have as y the roots of F(x0, Y) /
    (Y - y(pt)), all in the field of pt: none on P^1 (F = y), and one, y1,
    on an elliptic curve, where (x0, y1) = -pt.  So the fiber is pt with
    e = 2 when y1 = y(pt), a double root; pt alone when (x0, y1) is a
    conjugate of pt (deg x(pt) = deg(pt) / 2); pt and (x0, y1) otherwise.
    The quotient is one synthetic-division pass, F being monic in Y.  As
    y(pt) + y1 = -c_1(x0), (x0, y1) generates the field of pt, so its orbit
    has size deg(pt), and its least member is a closed point.
    """
    m, ext, fiber = x_min_poly(curve, pt), pt.ext_spec, [(pt, 1)]
    fs = curve.equation_at(pt.x, ext).coeffs
    quot = [1]                          # descending: q_(j-1) = f_j + y(pt) q_j
    for f in reversed(fs[1:-1]):
        quot.append(ext.add_i(f, ext.mul_i(pt.y, quot[-1])))
    assert len(quot) <= 2, "x-fiber with more than two points over x(pt)"
    if len(quot) == 2:
        y1 = ext.neg_i(quot[1])
        if y1 == pt.y:
            fiber = [(pt, 2)]
        elif (least := min(ext.orbit((pt.x, y1), curve.spec.order))) != (pt.x, pt.y):
            fiber.append((ClosedPoint._known(curve, pt.degree, *least), 1))
    total, want = sum(e * cp.degree for cp, e in fiber), _pole_order(curve, m.degree, 0)
    assert total == want, f"x-fiber degree {total} != {want}"
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
        by den's values.  At infinity (O on an elliptic curve), where
        x^i y^j has a pole of the order the curve's pole_orders give, a
        function's value is its coefficient of x^deg(den), whose pole order
        is den's; PoleError if a monomial of higher order has a nonzero
        one.  At a point of higher degree, and where den vanishes, the
        value is read from the expansion."""
        spec = self.curve.spec
        out = np.zeros((len(self), len(points)), dtype=np.int64)
        plain = [c for c, pt in enumerate(points)
                 if not pt.is_infinity and pt.degree == 1 and pt not in self.zeros]
        if plain:
            # coef[j, r, i]: row r's coefficient of x^i y^j, den's last
            coef = np.zeros((2, len(self) + 1, max(i for i, _ in self.monomials) + 1),
                            dtype=np.int64)
            for m, (i, j) in enumerate(self.monomials):
                coef[j, :, i] = self._coef[:, m]
            x = np.array([points[c].x for c in plain])
            acc = coef[..., -1, None]
            for i in reversed(range(coef.shape[-1] - 1)):
                acc = fqarray.add(spec, fqarray.mul(spec, acc, x), coef[..., i, None])
            y = np.array([points[c].y for c in plain])
            num = fqarray.add_product(spec, acc[0], acc[1], y)
            out[:, plain] = fqarray.mul(spec, num[:-1], fqarray.inv(spec, num[-1]))
        for c, pt in enumerate(points):
            if pt.is_infinity:
                curve = self.curve
                order = np.array([_pole_order(curve, i, j) for i, j in self.monomials])
                if self.rows[:, order > _pole_order(curve, self.den.degree, 0)].any():
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
        table = _monomial_series(self.monomials, xs, ys, k + v)
        coef = self._coef.tolist()
        embed = {c: ext.embed_i(self.curve.spec, c) for c in set().union(*coef)}
        sums = linalg.mat_mul(ext, [[embed[c] for c in row] for row in coef], table)
        den = sums[-1].tolist()
        if sums[:-1, :v].any():
            raise PoleError(f"L(D) has a pole at {pt!r}")
        assert not any(den[:v]) and den[v], "den's order at pt is not v"
        inv = _inverse(Poly(ext, den[v:]), k).coeffs + (0,) * k
        # coefficient n of the quotient is sum_i numerator_(v+i) inv_(n-i)
        toeplitz = [[inv[n - i] if n >= i else 0 for n in range(k)] for i in range(k)]
        return linalg.mat_mul(ext, sums[:-1, v:], toeplitz)


def rr_basis(curve: CurveModel, D: DivisorOnCurve) -> RRSpace:
    """Echelonized basis of L(D) = {f : div(f) + D >= 0} over F_q by the one
    algorithm of the module docstring: monomials of bounded pole order at
    infinity, cut down by vanishing conditions at affine points.  Built
    once per divisor of the curve, keyed like _chart by the points'
    (degree, x, y), with their multiplicities."""
    if D.curve != curve:
        raise ValueError("divisor lives on a different curve")
    key = tuple((pt.degree, pt.x, pt.y, n) for pt, n in D.items())
    if key not in curve._spaces:
        curve._spaces[key] = _rr_space(curve, D)
    return curve._spaces[key]


def _rr_space(curve: CurveModel, D: DivisorOnCurve) -> RRSpace:
    spec = curve.spec
    deg_d = D.degree()
    if deg_d < 0:
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
        m_pole += _pole_order(curve, c * m.degree, 0)
        for cp, e in fiber:
            zdiv[cp] = zdiv.get(cp, 0) + c * e
    # x^i y^j has a pole at infinity and no other, so D(infinity) only moves
    # the bound of the ambient space
    m_amb = m_pole + D.multiplicity(ClosedPoint(curve, 1, None, None))

    monomials = [(i, j) for j in range(curve.pole_orders[0]) for i in range(m_amb + 1)
                 if _pole_order(curve, i, j) <= m_amb]
    monomials.sort(key=lambda ij: (_pole_order(curve, *ij), ij[1]))

    # u f vanishes to order r_Q = div(u)(Q) - D(Q) at each affine point Q
    rows = []
    for qpt in sorted({*zdiv, *D.support()}, key=ClosedPoint.sort_key):
        r_q = zdiv.get(qpt, 0) - D.multiplicity(qpt)
        if r_q <= 0 or qpt.is_infinity:
            continue
        xs, ys = _chart(curve, qpt).xy(r_q)
        table = _monomial_series(monomials, xs, ys, r_q)
        rows.extend(subfield_coords(spec, qpt.ext_spec, list(zip(*table))))

    # the rank decides degree 0 too: l(D) is 1 or 0 as D is principal or not
    space = RRSpace(curve, monomials, linalg.nullspace(spec, rows, len(monomials)),
                    u, zdiv)
    g = curve.genus
    assert (len(space) == deg_d + 1 - g if deg_d >= 2 * g - 1 else len(space) <= 1), (
        f"dim L(D) = {len(space)} at degree {deg_d}, genus {g}")
    return space


def _pole_order(curve: CurveModel, i: int, j: int) -> int:
    """The order of the pole of x^i y^j at infinity (j = 0 on P^1, which
    has no y)."""
    return sum(o * e for o, e in zip(curve.pole_orders, (i, j)))


def _monomial_series(monomials, xs, ys, n):
    """The first n Taylor coefficients of x^i y^j, (i, j) in monomials, at
    an affine point: one list of n encodings per monomial."""
    xpow = [Poly.one(xs.spec)]
    for _ in range(max(i for i, _ in monomials)):
        xpow.append(_mul(xpow[-1], xs, n))
    series = [_mul(xpow[i], ys, n) if j else xpow[i] for i, j in monomials]
    return [list(s.coeffs[:n]) + [0] * (n - len(s.coeffs)) for s in series]


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
