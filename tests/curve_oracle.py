"""The scalar closed-point enumeration that curve's array steps replaced:
one quadratic solve per x (complete the square and Tonelli-Shanks for odd
p, the trace and an Artin-Schreier root for p = 2) and one Frobenius orbit
per point.  It is the reference the array enumeration is compared against.
It also keeps the class sum that adds every orbit in one common field."""

import functools
import math

from ruledcodes.curve import P1, ClosedPoint
from ruledcodes.gf import extend


def sqrt_i(spec, a: int):
    """A square root of a, or None if a is not a square.  Odd p only."""
    if spec.p == 2:
        # squaring is bijective in characteristic 2
        return spec.pow_i(a, spec.order // 2)
    if a == 0:
        return 0
    if spec._exp is not None:
        l = spec._log[a]
        if l % 2:
            return None
        return spec._exp[l // 2]
    if spec.pow_i(a, (spec.order - 1) // 2) != 1:
        return None
    return _tonelli(spec, a)


@functools.cache
def nonresidue(spec) -> int:
    """The least quadratic non-residue in encoding order, cached per field."""
    return next(e for e in range(2, spec.order)
                if spec.pow_i(e, (spec.order - 1) // 2) != 1)


def _tonelli(spec, a: int) -> int:
    q, s = spec.order - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = nonresidue(spec)
    m, c, t, r = s, spec.pow_i(z, q), spec.pow_i(a, q), spec.pow_i(a, (q + 1) // 2)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = spec.mul_i(t2, t2)
            i += 1
        b = spec.pow_i(c, 1 << (m - i - 1))
        m, c = i, spec.mul_i(b, b)
        t, r = spec.mul_i(t, c), spec.mul_i(r, b)
    return r


def trace2_i(spec, a: int) -> int:
    """Absolute trace to F_2 (characteristic 2 only)."""
    t = 0
    x = a
    for _ in range(spec.deg):
        t = spec.add_i(t, x)
        x = spec.mul_i(x, x)
    return t


@functools.cache
def trace_one_element(spec) -> int:
    """The least element of absolute trace 1 (characteristic 2), cached."""
    return next(e for e in range(1, spec.order) if trace2_i(spec, e) == 1)


def solve_quadratic(spec, b: int, c: int) -> list[int]:
    """Encoded roots y of y^2 + b*y = c, without multiplicity, sorted."""
    if spec.p == 2:
        if b == 0:
            return [sqrt_i(spec, c)]
        binv2 = spec.inv_i(spec.mul_i(b, b))
        a = spec.mul_i(c, binv2)
        if trace2_i(spec, a) != 0:
            return []
        z0 = _artin_schreier_root(spec, a)
        r1 = spec.mul_i(b, z0)
        r2 = spec.add_i(r1, b)
        return sorted({r1, r2})
    # odd characteristic: complete the square
    inv2 = spec.inv_i(2 % spec.p)
    disc = spec.add_i(spec.mul_i(b, b), spec.mul_i(4 % spec.p, c))
    if disc == 0:
        return [spec.mul_i(spec.neg_i(b), inv2)]
    s = sqrt_i(spec, disc)
    if s is None:
        return []
    r1 = spec.mul_i(spec.add_i(spec.neg_i(b), s), inv2)
    r2 = spec.mul_i(spec.sub_i(spec.neg_i(b), s), inv2)
    return sorted({r1, r2})


def _artin_schreier_root(spec, a: int) -> int:
    """One root z of z^2 + z = a over F_{2^n}, assuming Tr(a) = 0."""
    n = spec.deg
    if n % 2 == 1:
        # half trace
        z = a
        acc = a
        for _ in range((n - 1) // 2):
            acc = spec.mul_i(acc, acc)
            acc = spec.mul_i(acc, acc)
            z = spec.add_i(z, acc)
        return z
    theta = trace_one_element(spec)
    # z = sum_{i=0}^{n-2} (sum_{j=0}^{i} a^{2^j}) * theta^{2^{i+1}}
    z = 0
    partial = a
    theta_pow = spec.mul_i(theta, theta)
    for i in range(n - 1):
        z = spec.add_i(z, spec.mul_i(partial, theta_pow))
        partial = spec.add_i(partial, spec.pow_i(a, 1 << (i + 1)))
        theta_pow = spec.mul_i(theta_pow, theta_pow)
    assert spec.add_i(spec.mul_i(z, z), z) == a, "Artin-Schreier solve failed"
    return z


def affine_points(curve, ext):
    """All affine geometric points with coordinates in ext, sorted."""
    pts = []
    if curve.kind == P1:
        for x in range(ext.order):
            pts.append((x, 0))
        return pts
    a1, a2, a3, a4, a6 = curve.coeffs_in(ext)
    for x in range(ext.order):
        b = ext.add_i(ext.mul_i(a1, x), a3)
        x2 = ext.mul_i(x, x)
        c = ext.add_i(ext.mul_i(x2, x),
                      ext.add_i(ext.mul_i(a2, x2),
                                ext.add_i(ext.mul_i(a4, x), a6)))
        for y in solve_quadratic(ext, b, c):
            pts.append((x, y))
    return pts


def closed_points(curve, d):
    """Closed points of exact degree d (d >= 2), canonical order, one
    Frobenius orbit and one ClosedPoint constructor call per point."""
    ext = extend(curve.spec, d)
    seen = set()
    out = []
    for x, y in affine_points(curve, ext):
        if (x, y) in seen:
            continue
        orbit = ext.orbit((x, y), curve.spec.order)
        seen.update(orbit)
        if len(orbit) == d:
            out.append(ClosedPoint(curve, d, x, y))
    return out


def point_count(curve, d: int) -> int:
    """#C(F_{q^d}): the affine points over the degree-d extension, plus the
    point at infinity."""
    return len(curve.affine_points(extend(curve.spec, d))[0]) + 1


def divisor_class_sum(D):
    """Sum of a degree-0 divisor under the elliptic group law, every point of
    every orbit embedded into F_{q^L}, L the lcm of the degrees in D, and
    added there.  Returns the sum as a point over F_{q^L}; None means the
    zero class, i.e. D is principal."""
    curve = D.curve
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
