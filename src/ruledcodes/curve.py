"""Curve models over finite fields: the projective line and nonsingular
Weierstrass elliptic curves, each written once as its equation F(x, y) = 0
(CurveModel.equation), with closed-point enumeration, divisors, the
chord-tangent group law, and class numbers.

Geometric points are coordinate pairs encoded as integers in an extension
field; a closed point is a Frobenius orbit, stored through its canonical
representative (the orbit element with the least coordinate encoding).

Closed points are enumerated in fqarray steps on arrays of encodings, in
chunks of the field: the y-coordinates over every x come from one join of
per-x keys against a table of preimages over the field, and orbits from
the Frobenius x -> x^q applied to all points at once (one gather in a
field with exp/log tables).
Enumeration builds its ClosedPoints straight from these arrays, which hold
on-curve orbit minima, as rrspace's x-fibers do from a root of F (both by
ClosedPoint._known); the constructor validates a point from anywhere else.
The curve's field may be any FieldSpec, one built by extend included.

A CurveModel owns its caches: embedded coefficients, point counts, closed
points by degree, the local charts that rrspace expands functions in, and
the Riemann-Roch spaces rrspace builds.  They live and die with the curve.
curve_create returns one CurveModel per (kind, field, coefficients) among
the few curves a process used last, the way gf.field_create returns one
FieldSpec per field, so every job on a curve reads what an earlier job on
it computed, and a long process does not keep every curve it touched; the
constructor gives a fresh curve with empty caches.
"""

from __future__ import annotations

import numpy as np

from . import fqarray
from .gf import FieldSpec, extend
from .poly import Poly

P1 = "p1"
ELLIPTIC = "elliptic"

class CurveModel:
    """A projective line or a nonsingular long-Weierstrass elliptic curve,
    the zeros of F(x, y) = sum_j c_j(x) y^j, monic in y.  equation holds
    the coefficients of c_0, c_1, .. over spec, lowest first, and every
    evaluation of F reads it: F = y on P^1, whose points are the (x, 0), and
    y^2 + (a1 x + a3) y - (x^3 + a2 x^2 + a4 x + a6) on an elliptic curve.

    pole_orders holds the orders of the poles of x and y at infinity, their
    only pole: (1,) on P^1, which has no y, and (2, 3) on an elliptic curve.
    """

    __slots__ = ("kind", "spec", "a", "genus", "pole_orders", "equation",
                 "_coeff_cache", "_closed_cache", "_rational", "_charts", "_spaces")

    def __init__(self, kind: str, spec: FieldSpec, coefficients=None):
        if kind not in (P1, ELLIPTIC):
            raise ValueError(f"unknown curve kind {kind!r}")
        self.kind = kind
        self.spec = spec
        self._coeff_cache = {}
        self._closed_cache = {}
        self._rational = None
        self._charts = {}       # local charts by point, see rrspace._chart
        self._spaces = {}       # L(D) by divisor, see rrspace.rr_basis
        if kind == P1:
            self.a = ()
            self.genus = 0
            self.pole_orders = (1,)
            self.equation = ((0,), (1,))
        else:
            self.a = _encodings(spec, coefficients)
            self.genus = 1
            self.pole_orders = (2, 3)
            a1, a2, a3, a4, a6 = self.a
            self.equation = (tuple(map(spec.neg_i, (a6, a4, a2, 1))), (a3, a1), (1,))
            if self.discriminant() == 0:
                raise ValueError("singular Weierstrass equation (zero discriminant)")

    def discriminant(self) -> int:
        s = self.spec

        def terms(*ts):
            """sum of n * x * y * .. over ts = (n, x, y, ..), n an integer."""
            out = 0
            for n, *xs in ts:
                t = n % s.p             # the prime-field constant n
                for x in xs:
                    t = s.mul_i(t, x)
                out = s.add_i(out, t)
            return out

        a1, a2, a3, a4, a6 = self.a
        b2, b4 = terms((1, a1, a1), (4, a2)), terms((2, a4), (1, a1, a3))
        b6 = terms((1, a3, a3), (4, a6))
        b8 = terms((1, a1, a1, a6), (4, a2, a6), (-1, a1, a3, a4), (1, a2, a3, a3),
                   (-1, a4, a4))
        return terms((-1, b2, b2, b8), (-8, b4, b4, b4), (-27, b6, b6), (9, b2, b4, b6))

    # -- coefficients embedded in an extension, and the equation over it

    def coeffs_in(self, ext: FieldSpec):
        """a, embedded in ext."""
        return tuple(ext.embed_i(self.spec, c) for c in self.a)

    def equation_in(self, ext: FieldSpec):
        """equation, its coefficients embedded in ext."""
        if ext.deg not in self._coeff_cache:
            self._coeff_cache[ext.deg] = tuple(tuple(ext.embed_i(self.spec, c) for c in cs)
                                               for cs in self.equation)
        return self._coeff_cache[ext.deg]

    def equation_at(self, x: int, ext: FieldSpec) -> Poly:
        """F(x, Y) over ext, a polynomial in Y: each c_j(x) by Horner."""
        add, mul, out = ext.add_i, ext.mul_i, []
        for cs in self.equation_in(ext):
            acc = 0
            for c in reversed(cs):
                acc = add(mul(acc, x), c)
            out.append(acc)
        return Poly(ext, out)

    def is_on_curve(self, x: int, y: int, ext: FieldSpec) -> bool:
        """Whether F(x, y) = 0 over ext; a point of P^1 is (x, 0)."""
        return self.equation_at(x, ext).eval_i(y) == 0

    def is_two_torsion(self, x: int, y: int, ext: FieldSpec) -> bool:
        """Whether dF/dy is 0 at the point P = (x, y) of the curve, where x - x(P)
        is then no uniformizer: P = -P on an elliptic curve, never on P^1."""
        cs = self.equation_at(x, ext).coeffs
        dy = [ext.mul_i(j % ext.p, cs[j]) for j in range(1, len(cs))]
        return Poly(ext, dy).eval_i(y) == 0

    def _sides(self, ext: FieldSpec, x: np.ndarray):
        """(b, f) for the array x of encodings on an elliptic curve:
        b = c_1(x) and f = -c_0(x), so that (x, y) is on the curve iff
        y^2 + b y = f.  Horner starts at the leading term: f is monic."""
        c0, c1, _ = self.equation_in(ext)
        out = []
        for cs in (c1, [ext.neg_i(c) for c in c0]):
            acc = x if cs[-1] == 1 else fqarray.scale(ext, cs[-1], x)
            for c in reversed(cs[1:-1]):
                acc = fqarray.mul(ext, fqarray.add(ext, acc, c) if c else acc, x)
            out.append(fqarray.add(ext, acc, cs[0]) if cs[0] else acc)
        return out

    # -- point enumeration

    def affine_points(self, ext: FieldSpec):
        """All affine geometric points with coordinates in ext, sorted, as
        two int64 arrays: their x and their y encodings.

        The roots y of y^2 + b y = f over every x come from one join of the
        per-x keys against a table of a quadratic map over the field: for
        odd p, y' = y + b/2 has y'^2 = f + b^2/4; for p = 2 and a1 = 0,
        y^2 + a3 y = f; for p = 2 and a1 != 0, z = y/b has z^2 + z = f/b^2
        (fqarray.inv), and at the one x with b = 0, y = f^(order/2)."""
        order, p = ext.order, ext.p
        if self.kind == P1:
            return np.arange(order), np.zeros(order, dtype=np.int64)
        a1, _, a3, _, _ = self.coeffs_in(ext)
        # root[t]: one preimage of t under y -> y (y + shift), i.e. y'^2,
        # y^2 + a3 y or z^2 + z, or -1; the other one is -shift - root[t]
        shift = 0 if p != 2 else 1 if a1 else a3
        root = np.full(order, -1)
        for lo, hi in fqarray.chunks(order):
            y = np.arange(lo, hi)
            root[fqarray.mul(ext, y, fqarray.add(ext, y, shift))] = y
        xs, ys = [], []
        for lo, hi in fqarray.chunks(order):
            b, f = self._sides(ext, np.arange(lo, hi))
            if p != 2:
                half = fqarray.scale(ext, (p + 1) // 2, b)
                f = fqarray.add_product(ext, f, half, half)
            elif a1:
                joins = b != 0
                binv = fqarray.inv(ext, b[joins])
                f[joins] = fqarray.mul(ext, f[joins], fqarray.mul(ext, binv, binv))
            r = root[f]
            # r = -1 where f has no root: its pair is read but not kept
            pair = np.stack([r, fqarray.sub(ext, fqarray.neg(ext, r), shift)])
            if p != 2:
                pair = fqarray.sub(ext, pair, half)
            elif a1:
                pair = fqarray.mul(ext, pair, b)
            pair = np.stack([np.minimum(pair[0], pair[1]), np.maximum(pair[0], pair[1])], axis=1)
            found = np.stack([r >= 0, (r >= 0) & (pair[:, 0] != pair[:, 1])], axis=1)
            if p == 2 and a1:       # at b = 0, y^2 = f has the one root f^(order/2)
                for x in np.nonzero(~joins)[0]:
                    pair[x, 0] = ext.pow_i(int(f[x]), order // 2)
                    found[x] = True, False
            xs.append(np.repeat(np.arange(lo, hi), 2).reshape(-1, 2)[found])
            ys.append(pair[found])
        return np.concatenate(xs), np.concatenate(ys)

    def rational_points(self):
        """Degree-1 closed points, affine sorted by encoding, infinity last."""
        if self._rational is None:
            xs, ys = self.affine_points(self.spec)
            pts = [ClosedPoint._known(self, 1, x, y)
                   for x, y in zip(xs.tolist(), ys.tolist())]
            pts.append(ClosedPoint(self, 1, None, None))
            q, g, n = self.spec.order, self.genus, len(pts)
            assert (n - q - 1) ** 2 <= 4 * g * g * q, "Hasse-Weil bound violated"
            self._rational = pts
        return list(self._rational)

    def closed_points(self, d: int):
        """Closed points of exact degree d, canonical order."""
        if d in self._closed_cache:
            return list(self._closed_cache[d])
        if d == 1:
            out = self.rational_points()
        else:
            ext = extend(self.spec, d)
            xs, ys = self.affine_points(ext)
            keep = _orbit_minima(ext, self.spec.order, d, xs, ys)
            out = [ClosedPoint._known(self, d, x, y)
                   for x, y in zip(xs[keep].tolist(), ys[keep].tolist())]
        self._closed_cache[d] = out
        return list(out)

    def class_number(self) -> int:
        """h = #Pic^0: 1 for the line, #C(F_q) for an elliptic curve."""
        if self.kind == P1:
            return 1
        if self.genus == 1:
            return len(self.rational_points())
        raise ValueError("class number implemented for genus <= 1 only")

    # -- elliptic group law (points are (x, y) encoding pairs, None is O)

    def ell_neg(self, P, ext: FieldSpec):
        if P is None:
            return None
        a1, _, a3, _, _ = self.coeffs_in(ext)
        x, y = P
        return (x, ext.sub_i(ext.neg_i(y), ext.add_i(ext.mul_i(a1, x), a3)))

    def _check_group(self, points, ext: FieldSpec):
        """Raise unless the curve is elliptic and every point (None is O) is
        on it."""
        if self.kind != ELLIPTIC:
            raise ValueError("group law requires an elliptic curve")
        for T in points:
            if T is not None and not self.is_on_curve(T[0], T[1], ext):
                raise ValueError(f"point {T} is not on the curve")

    def ell_add(self, P, Q, ext: FieldSpec):
        self._check_group((P, Q), ext)
        return self._ell_add(P, Q, ext)

    def _ell_add(self, P, Q, ext: FieldSpec):
        """P + Q for points already known to be on the curve."""
        if P is None:
            return Q
        if Q is None:
            return P
        a1, a2, a3, a4, a6 = self.coeffs_in(ext)
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2 and y2 == self.ell_neg(P, ext)[1]:
            return None
        if x1 == x2 and y1 == y2:
            num = ext.sub_i(
                ext.add_i(ext.mul_i(3 % ext.p, ext.mul_i(x1, x1)),
                          ext.add_i(ext.mul_i(2 % ext.p, ext.mul_i(a2, x1)), a4)),
                ext.mul_i(a1, y1))
            den = ext.add_i(ext.mul_i(2 % ext.p, y1),
                            ext.add_i(ext.mul_i(a1, x1), a3))
        else:
            num, den = ext.sub_i(y2, y1), ext.sub_i(x2, x1)
        # the line y = lam x + nu through P (tangent there when P = Q)
        lam = ext.mul_i(num, ext.inv_i(den))
        nu = ext.sub_i(y1, ext.mul_i(lam, x1))
        x3 = ext.sub_i(ext.sub_i(ext.add_i(ext.mul_i(lam, lam), ext.mul_i(a1, lam)),
                                 a2),
                       ext.add_i(x1, x2))
        y3 = ext.sub_i(ext.neg_i(ext.add_i(ext.mul_i(ext.add_i(lam, a1), x3), nu)),
                       a3)
        return (x3, y3)

    def ell_mul(self, n: int, P, ext: FieldSpec):
        """n P by double-and-add; P is checked once, the points it makes
        from P are on the curve."""
        self._check_group((P,), ext)
        if n < 0:
            n, P = -n, self.ell_neg(P, ext)
        R = None
        Q = P
        while n:
            if n & 1:
                R = self._ell_add(R, Q, ext)
            Q = self._ell_add(Q, Q, ext)
            n >>= 1
        return R

    def __eq__(self, other):
        return (isinstance(other, CurveModel) and self.kind == other.kind
                and self.spec == other.spec and self.a == other.a)

    def __hash__(self):
        return hash((self.kind, self.spec.p, self.spec.deg, self.a))

    def __repr__(self):
        if self.kind == P1:
            return f"P1({self.spec!r})"
        return f"E{self.a}({self.spec!r})"


def _encodings(spec: FieldSpec, coefficients) -> tuple[int, ...]:
    """(a1, a2, a3, a4, a6) as a tuple of encodings over spec; ValueError
    unless there are five, each an integer in 0..order-1."""
    if coefficients is None or len(coefficients) != 5:
        raise ValueError("elliptic curve needs coefficients (a1,a2,a3,a4,a6)")
    for i, c in enumerate(coefficients):
        if not (isinstance(c, (int, np.integer)) and 0 <= c < spec.order):
            raise ValueError(f"coefficients[{i}] = {c!r} is not an encoding "
                             f"0..{spec.order - 1} of {spec!r}")
    return tuple(map(int, coefficients))


_CURVES: dict = {}          # by key, least recently used first
_CURVES_KEPT = 8            # curves curve_create keeps


def curve_create(kind: str, coefficients, spec: FieldSpec) -> CurveModel:
    """The one CurveModel of this kind over spec with these coefficients
    (ignored on P^1) among the _CURVES_KEPT most recently asked for in the
    process, built on first request; a curve asked for again after that
    many others is built afresh, with empty caches.  Raises ValueError as
    the constructor does: an unknown kind, a coefficient outside
    0..order-1, a singular equation."""
    key = (kind, spec.p, spec.deg,
           _encodings(spec, coefficients) if kind == ELLIPTIC else ())
    curve = _CURVES.pop(key, None) or CurveModel(kind, spec, coefficients)
    _CURVES[key] = curve
    while len(_CURVES) > _CURVES_KEPT:
        del _CURVES[next(iter(_CURVES))]
    return curve


def _orbit_minima(ext: FieldSpec, q: int, d: int, xs: np.ndarray,
                  ys: np.ndarray) -> np.ndarray:
    """Whether each point (xs[i], ys[i]) of ext = F_{q^d} has a key
    x * order + y below that of each of its images under the Frobenius
    x -> x^q of the curve's field F_q, and its powers x -> x^(q^2), ..,
    x^(q^(d-1)): that is, whether its orbit has size d and the point is the
    orbit's least member.  Each power is one fqarray.frobenius of the
    points still below all their images so far."""
    order, out = ext.order, np.zeros(len(xs), dtype=bool)
    for lo, hi in fqarray.chunks(len(xs)):
        at = np.arange(lo, hi)
        start = xs[at] * order + ys[at]
        pt = np.stack([xs[at], ys[at]])
        for _ in range(1, d):
            pt = fqarray.frobenius(ext, pt, q)
            below = start < pt[0] * order + pt[1]
            at, start, pt = at[below], start[below], pt[:, below]
        out[at] = True
    return out


class ClosedPoint:
    """A Galois orbit of geometric points, via its canonical representative.

    x is None for the point at infinity (degree 1).  Coordinates live in
    extend(curve.spec, degree), and the orbit is under x -> x^q, q the
    order of the curve's field.  The stored representative is the orbit
    element with the least (x, y) encoding pair.
    """

    __slots__ = ("curve", "degree", "x", "y")

    def __init__(self, curve: CurveModel, degree: int, x, y):
        self.curve = curve
        self.degree = degree
        if x is None:
            self.x = None
            self.y = None
            if degree != 1:
                raise ValueError("the point at infinity has degree 1")
            return
        ext = extend(curve.spec, degree)
        orbit = ext.orbit((x, y), curve.spec.order)
        if len(orbit) != degree:
            raise ValueError(f"orbit size {len(orbit)} != declared degree {degree}")
        if not curve.is_on_curve(x, y, ext):
            raise ValueError("coordinates do not satisfy the curve equation")
        self.x, self.y = min(orbit)

    @classmethod
    def _known(cls, curve: CurveModel, degree: int, x: int, y: int) -> "ClosedPoint":
        """The closed point with least member (x, y), a point of the curve
        whose orbit has size degree, as its caller has shown: the
        constructor's checks are not run again."""
        pt = cls.__new__(cls)
        pt.curve, pt.degree, pt.x, pt.y = curve, degree, x, y
        return pt

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    @property
    def ext_spec(self) -> FieldSpec:
        return extend(self.curve.spec, self.degree)

    def orbit(self):
        if self.is_infinity:
            return [(None, None)]
        return self.ext_spec.orbit((self.x, self.y), self.curve.spec.order)

    def sort_key(self):
        return (self.degree, 1 if self.is_infinity else 0,
                self.x if self.x is not None else -1,
                self.y if self.y is not None else -1)

    def __eq__(self, other):
        return (isinstance(other, ClosedPoint) and self.degree == other.degree
                and self.x == other.x and self.y == other.y
                and self.curve == other.curve)

    def __hash__(self):
        return hash((self.degree, self.x, self.y))

    def __repr__(self):
        if self.is_infinity:
            return "Pt(inf)"
        if self.curve.kind == P1:
            return f"Pt(d{self.degree},x={self.x})"
        return f"Pt(d{self.degree},{self.x},{self.y})"


class DivisorOnCurve:
    """Formal integer combination of closed points with finite support."""

    __slots__ = ("curve", "coeffs")

    def __init__(self, curve: CurveModel, items=None):
        self.curve = curve
        self.coeffs: dict[ClosedPoint, int] = {}
        if items:
            for pt, n in (items.items() if isinstance(items, dict) else items):
                if n:
                    self.coeffs[pt] = self.coeffs.get(pt, 0) + n
                    if self.coeffs[pt] == 0:
                        del self.coeffs[pt]

    def degree(self) -> int:
        return sum(n * pt.degree for pt, n in self.coeffs.items())

    def support(self):
        return sorted(self.coeffs, key=ClosedPoint.sort_key)

    def multiplicity(self, pt: ClosedPoint) -> int:
        return self.coeffs.get(pt, 0)

    def items(self):
        return [(pt, self.coeffs[pt]) for pt in self.support()]

    def is_effective(self) -> bool:
        return all(n > 0 for n in self.coeffs.values())

    def __add__(self, other):
        out = dict(self.coeffs)
        for p, n in other.coeffs.items():
            out[p] = out.get(p, 0) + n
        return DivisorOnCurve(self.curve, out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for p, n in other.coeffs.items():
            out[p] = out.get(p, 0) - n
        return DivisorOnCurve(self.curve, out)

    def __mul__(self, k: int):
        return DivisorOnCurve(self.curve, {p: k * n for p, n in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, DivisorOnCurve) and self.curve == other.curve
                and self.coeffs == other.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Div(0)"
        return "Div(" + " + ".join(f"{n}*{p!r}" for p, n in self.items()) + ")"


def divisor_class_sum(D: DivisorOnCurve):
    """Sum of a degree-0 divisor under the elliptic group law.

    Each closed point's orbit is summed in its own field F_{q^d}.  That sum
    is fixed by Frobenius, so it is an F_q point; it is read back to F_q and
    the points' sums are added there.  Returns the sum as an F_q point;
    None means the zero class, i.e. D is principal.
    """
    curve = D.curve
    if curve.kind != ELLIPTIC:
        raise ValueError("class sum needs an elliptic curve")
    if D.degree() != 0:
        raise ValueError("class sum is defined for degree-0 divisors")
    spec = curve.spec
    total = None
    for pt, n in D.items():
        if pt.is_infinity:
            continue  # O is the group identity
        sub = extend(spec, pt.degree)
        orbit_sum = None
        for P in pt.orbit():
            orbit_sum = curve._ell_add(orbit_sum, P, sub)
        if orbit_sum is not None and sub is not spec:
            back = {sub.embed_i(spec, c): c for c in range(spec.order)}
            orbit_sum = (back[orbit_sum[0]], back[orbit_sum[1]])
        total = curve._ell_add(total, curve.ell_mul(n, orbit_sum, spec), spec)
    return total
