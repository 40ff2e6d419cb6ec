"""Curve models over finite fields: the projective line and nonsingular
Weierstrass elliptic curves, with closed-point enumeration, divisors, the
chord-tangent group law, and class numbers.

Geometric points are coordinate pairs encoded as integers in an extension
field; a closed point is a Frobenius orbit, stored through its canonical
representative (the orbit element with the least coordinate encoding).

Closed points are enumerated in fqarray steps over chunks of the field:
the y-coordinates over every x come from one join of per-x keys against a
table of preimages over the field, and orbits from the F_p-linear map
x -> x^q as one matrix applied to the digits of all points at once.
Enumeration builds its ClosedPoints straight from these arrays, since they
already hold on-curve orbit minima; the ClosedPoint constructor validates
a point that comes from anywhere else.

A CurveModel owns its caches: embedded coefficients, point counts, closed
points by degree, and the local charts that rrspace expands functions in.
They live and die with the curve.
"""

from __future__ import annotations

import math

import numpy as np

from . import fqarray
from .gf import FieldSpec, extend

P1 = "p1"
ELLIPTIC = "elliptic"

class CurveModel:
    """A projective line or a nonsingular long-Weierstrass elliptic curve.

    Elliptic:  y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6  over spec.
    """

    __slots__ = ("kind", "spec", "a", "genus", "_coeff_cache",
                 "_closed_cache", "_rational", "_charts")

    def __init__(self, kind: str, spec: FieldSpec, coefficients=None):
        if kind not in (P1, ELLIPTIC):
            raise ValueError(f"unknown curve kind {kind!r}")
        if spec.base_card != spec.order:
            raise ValueError("curve base field must be a ground field "
                             "(build it with field_create, not extend)")
        self.kind = kind
        self.spec = spec
        self._coeff_cache = {}
        self._closed_cache = {}
        self._rational = None
        self._charts = {}       # local charts by point, see rrspace._chart
        if kind == P1:
            self.a = ()
            self.genus = 0
        else:
            if coefficients is None or len(coefficients) != 5:
                raise ValueError("elliptic curve needs coefficients (a1,a2,a3,a4,a6)")
            self.a = tuple(c % spec.order for c in coefficients)
            self.genus = 1
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

    # -- coefficients embedded in an extension

    def coeffs_in(self, ext: FieldSpec):
        key = (ext.deg, ext.base_card)
        if key not in self._coeff_cache:
            self._coeff_cache[key] = tuple(ext.embed_i(self.spec, c) for c in self.a)
        return self._coeff_cache[key]

    def is_on_curve(self, x: int, y: int, ext: FieldSpec) -> bool:
        """Whether (x, y) over ext lies on the curve; a point of P^1 is (x, 0)."""
        if self.kind == P1:
            return y == 0
        a1, a2, a3, a4, a6 = self.coeffs_in(ext)
        lhs = ext.add_i(ext.mul_i(y, y),
                        ext.add_i(ext.mul_i(a1, ext.mul_i(x, y)), ext.mul_i(a3, y)))
        x2 = ext.mul_i(x, x)
        rhs = ext.add_i(ext.mul_i(x2, x),
                        ext.add_i(ext.mul_i(a2, x2),
                                  ext.add_i(ext.mul_i(a4, x), a6)))
        return lhs == rhs

    def _sides(self, ext: FieldSpec, x: np.ndarray):
        """(b, f) in digit form for the digit array x of an elliptic curve:
        b = a1 x + a3 and f = x^3 + a2 x^2 + a4 x + a6, so that (x, y) is
        on the curve iff y^2 + b y = f."""
        a1, a2, a3, a4, a6 = self.coeffs_in(ext)
        const = fqarray.digits(ext, [a2, a3, a4, a6])[:, :, None]
        f = fqarray.mul(ext, fqarray.add(ext, x, const[:, 0]), x)
        f = fqarray.mul(ext, fqarray.add(ext, f, const[:, 2]), x)
        f = fqarray.add(ext, f, const[:, 3])
        return fqarray.add(ext, fqarray.scale(ext, a1, x), const[:, 1]), f

    # -- point enumeration

    def affine_points(self, ext: FieldSpec):
        """All affine geometric points with coordinates in ext, sorted.

        The roots y of y^2 + b y = f over every x come from one join of the
        per-x keys against a table of a quadratic map over the field: for
        odd p, y' = y + b/2 has y'^2 = f + b^2/4; for p = 2 and a1 = 0,
        y^2 + a3 y = f; for p = 2 and a1 != 0, z = y/b has z^2 + z = f/b^2
        (fqarray.inv), and at the one x with b = 0, y = f^(order/2)."""
        order, p = ext.order, ext.p
        if self.kind == P1:
            return [(x, 0) for x in range(order)]
        a1, _, a3, _, _ = self.coeffs_in(ext)
        # root[t]: one preimage of t under y -> y (y + shift), i.e. y'^2,
        # y^2 + a3 y or z^2 + z, or -1; the other one is -shift - root[t]
        shift = fqarray.digits(ext, [0 if p != 2 else 1 if a1 else a3])[:, :, None]
        root = np.full(order, -1)
        for lo, hi in fqarray.chunks(order):
            y = fqarray.digits(ext, np.arange(lo, hi))
            root[fqarray.encode(ext, fqarray.mul(ext, y, fqarray.add(ext, y, shift[:, 0])))] = \
                np.arange(lo, hi)
        xs, ys = [], []
        for lo, hi in fqarray.chunks(order):
            b, f = self._sides(ext, fqarray.digits(ext, np.arange(lo, hi)))
            if p != 2:
                half = fqarray.scale(ext, (p + 1) // 2, b)
                f = fqarray.add(ext, f, fqarray.mul(ext, half, half))
            elif a1:
                joins = fqarray.encode(ext, b) != 0
                binv = fqarray.inv(ext, b[:, joins])
                f[:, joins] = fqarray.mul(ext, f[:, joins], fqarray.mul(ext, binv, binv))
            key = fqarray.encode(ext, f)
            r = root[key]
            pair = fqarray.digits(ext, r)[:, None]
            pair = np.concatenate([pair, fqarray.add(ext, -pair, -shift)], axis=1)
            if p != 2:
                pair = fqarray.add(ext, pair, -half[:, None])
            elif a1:
                pair = fqarray.mul(ext, pair, b[:, None])
            pair = fqarray.encode(ext, pair)
            pair = np.stack([np.minimum(pair[0], pair[1]), np.maximum(pair[0], pair[1])], axis=1)
            found = np.stack([r >= 0, (r >= 0) & (pair[:, 0] != pair[:, 1])], axis=1)
            if p == 2 and a1:       # at b = 0, y^2 = f has the one root f^(order/2)
                for x in np.nonzero(~joins)[0]:
                    pair[x, 0] = ext.pow_i(int(key[x]), order // 2)
                    found[x] = True, False
            xs.append(np.repeat(np.arange(lo, hi), 2).reshape(-1, 2)[found])
            ys.append(pair[found])
        return list(zip(np.concatenate(xs).tolist(), np.concatenate(ys).tolist()))

    def rational_points(self):
        """Degree-1 closed points, affine sorted by encoding, infinity last."""
        if self._rational is None:
            pts = _enumerated(self, 1, self.affine_points(self.spec))
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
            xs, ys = np.array(self.affine_points(ext), dtype=np.int64).reshape(-1, 2).T
            keep = _orbit_minima(ext, d, xs, ys)
            out = _enumerated(self, d, zip(xs[keep].tolist(), ys[keep].tolist()))
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

    def is_two_torsion(self, x: int, y: int, ext: FieldSpec) -> bool:
        a1, _, a3, _, _ = self.coeffs_in(ext)
        return ext.add_i(ext.mul_i(2 % ext.p, y),
                         ext.add_i(ext.mul_i(a1, x), a3)) == 0

    def __eq__(self, other):
        return (isinstance(other, CurveModel) and self.kind == other.kind
                and self.spec == other.spec and self.a == other.a)

    def __hash__(self):
        return hash((self.kind, self.spec.p, self.spec.deg, self.a))

    def __repr__(self):
        if self.kind == P1:
            return f"P1({self.spec!r})"
        return f"E{self.a}({self.spec!r})"


def curve_create(kind: str, coefficients, spec: FieldSpec) -> CurveModel:
    return CurveModel(kind, spec, coefficients)


def _orbit_minima(ext: FieldSpec, d: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Whether each point (xs[i], ys[i]) of ext = F_{q^d} has a key
    x * order + y below that of each of its images under Frobenius
    x -> x^q, x^(q^2), .., x^(q^(d-1)): that is, whether its orbit has size
    d and the point is the orbit's least member.  Frobenius is F_p-linear:
    its matrix, with the digits of (z^i)^q as column i, is applied to the
    digits of the points still below all their images so far."""
    order, out = ext.order, np.zeros(len(xs), dtype=bool)
    frob = fqarray.digits(ext, [ext.frob_i(ext.p ** i) for i in range(ext.deg)])
    for lo, hi in fqarray.chunks(len(xs)):
        at = np.arange(lo, hi)
        start = xs[at] * order + ys[at]
        pt = fqarray.digits(ext, np.stack([xs[at], ys[at]]))
        for _ in range(1, d):
            pt = fqarray.linear(ext, frob, pt)
            image = fqarray.encode(ext, pt)
            below = start < image[0] * order + image[1]
            at, start, pt = at[below], start[below], pt.compress(below, axis=2)
        out[at] = True
    return out


def _enumerated(curve: CurveModel, degree: int, pairs):
    """ClosedPoints for (x, y) pairs that enumeration has already shown to
    lie on the curve and to be the least members of orbits of size degree,
    so ClosedPoint's checks are not run again."""
    out = []
    for x, y in pairs:
        pt = ClosedPoint.__new__(ClosedPoint)
        pt.curve, pt.degree, pt.x, pt.y = curve, degree, x, y
        out.append(pt)
    return out


class ClosedPoint:
    """A Galois orbit of geometric points, via its canonical representative.

    x is None for the point at infinity (degree 1).  Coordinates live in
    extend(curve.spec, degree).  The stored representative is normalized to
    the orbit element with the least (x, y) encoding pair.
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
        orbit = ext.orbit((x, y))
        if len(orbit) != degree:
            raise ValueError(f"orbit size {len(orbit)} != declared degree {degree}")
        if not curve.is_on_curve(x, y, ext):
            raise ValueError("coordinates do not satisfy the curve equation")
        self.x, self.y = min(orbit)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    @property
    def ext_spec(self) -> FieldSpec:
        return extend(self.curve.spec, self.degree)

    def orbit(self):
        if self.is_infinity:
            return [(None, None)]
        return self.ext_spec.orbit((self.x, self.y))

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

    Returns the sum as a point over the lcm extension; None means the zero
    class, i.e. D is principal.
    """
    curve = D.curve
    if curve.kind != ELLIPTIC:
        raise ValueError("class sum needs an elliptic curve")
    if D.degree() != 0:
        raise ValueError("class sum is defined for degree-0 divisors")
    L = math.lcm(*(pt.degree for pt in D.coeffs))
    ext = extend(curve.spec, L)
    total = None
    for pt, n in D.items():
        if pt.is_infinity:
            continue  # O is the group identity
        sub = extend(curve.spec, pt.degree)
        for gx, gy in pt.orbit():
            P = (ext.embed_i(sub, gx), ext.embed_i(sub, gy))
            total = curve.ell_add(total, curve.ell_mul(n, P, ext), ext)
    return total
