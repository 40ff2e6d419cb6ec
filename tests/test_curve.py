import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import curve_oracle
from ruledcodes.gf import field_create, extend
from ruledcodes import curve as curve_module
from ruledcodes.curve import (curve_create, ClosedPoint, CurveModel,
                              DivisorOnCurve, divisor_class_sum, P1, ELLIPTIC)


F5 = field_create(5, 1)


@pytest.fixture(scope="module")
def e5():
    # y^2 = x^3 + 1 over F_5
    return curve_create(ELLIPTIC, (0, 0, 0, 0, 1), F5)


@pytest.fixture(scope="module")
def p1_5():
    return curve_create(P1, None, F5)


def test_p1_genus_and_count(p1_5):
    assert p1_5.genus == 0
    assert len(p1_5.rational_points()) == 6


def test_elliptic_nonsingular(e5):
    assert e5.genus == 1
    # disc of y^2 = x^3 + 1 is -432 = 3 mod 5
    assert e5.discriminant() == (-432) % 5


def test_singular_curve_rejected():
    with pytest.raises(ValueError):
        curve_create(ELLIPTIC, (0, 0, 0, 0, 0), F5)  # y^2 = x^3


def test_curve_create_returns_one_curve_per_kind_field_and_coefficients(monkeypatch):
    monkeypatch.setattr(curve_module, "_CURVES", {})
    f49 = field_create(7, 2)
    e = curve_create(ELLIPTIC, [0, 0, 0, 1, 0], f49)
    assert curve_create(ELLIPTIC, (0, 0, 0, 1, 0), f49) is e
    assert curve_create(ELLIPTIC, (0, 0, 0, 1, 0), extend(field_create(7, 1), 2)) is e
    line = curve_create(P1, None, f49)
    assert curve_create(P1, None, f49) is line
    others = [line, curve_create(ELLIPTIC, (0, 0, 0, 1, 1), f49),
              curve_create(ELLIPTIC, (0, 0, 0, 1, 0), field_create(7, 1)),
              curve_create(P1, None, field_create(7, 1))]
    assert len({id(c) for c in [e, *others]}) == 5
    # what one caller computes on the curve, the next one reads
    e.closed_points(2)
    assert 2 in curve_create(ELLIPTIC, (0, 0, 0, 1, 0), f49)._closed_cache
    # the constructor still gives a fresh curve, equal and with empty caches
    fresh = CurveModel(ELLIPTIC, f49, (0, 0, 0, 1, 0))
    assert fresh is not e and fresh == e and not fresh._closed_cache
    assert len(curve_module._CURVES) == 5


def test_curve_table_keeps_only_the_most_recently_used(monkeypatch):
    # 50 fresh curves, y^2 = x^3 + x + c over F_101 (4 + 27 c^2 != 0),
    # leave at most _CURVES_KEPT in the table: the last ones asked for
    monkeypatch.setattr(curve_module, "_CURVES", {})
    spec = field_create(101, 1)
    coeffs = [(0, 0, 0, 1, c) for c in range(1, 60) if (4 + 27 * c * c) % 101][:50]
    curves = [curve_create(ELLIPTIC, cs, spec) for cs in coeffs]
    kept = curve_module._CURVES_KEPT
    assert 2 <= kept < 50 and len(curve_module._CURVES) == kept
    assert all(curve_create(ELLIPTIC, cs, spec) is c
               for cs, c in zip(coeffs[-kept:], curves[-kept:]))
    # asking again refreshes a curve, and the least recently used goes
    assert curve_create(ELLIPTIC, coeffs[-kept], spec) is curves[-kept]
    again = curve_create(ELLIPTIC, coeffs[0], spec)
    assert again is not curves[0] and again == curves[0]
    assert curve_create(ELLIPTIC, coeffs[-kept], spec) is curves[-kept]
    assert curve_create(ELLIPTIC, coeffs[-kept + 1], spec) is not curves[-kept + 1]


@pytest.mark.parametrize("coefficients, i", [((0, 0, 0, -1, 0), 3),
                                             ((0, 0, 0, 1, 49), 4),
                                             ((0.0, 0, 0, 1, 0), 0)])
def test_coefficients_outside_the_encodings_refused(coefficients, i):
    # over F_49, -1 is the element 6, not the encoding 48 = 6z + 6 that
    # reducing mod 49 gave: y^2 = x^3 - x has 64 points, y^2 = x^3 + 48x 36
    f49 = field_create(7, 2)
    with pytest.raises(ValueError, match=rf"coefficients\[{i}\] = .* is not an "
                       r"encoding 0\.\.48 of GF\(7\^2\)"):
        curve_create(ELLIPTIC, coefficients, f49)
    with pytest.raises(ValueError, match=rf"coefficients\[{i}\]"):
        CurveModel(ELLIPTIC, f49, coefficients)
    assert len(curve_create(ELLIPTIC, (0, 0, 0, 6, 0), f49).rational_points()) == 64
    assert len(curve_create(ELLIPTIC, (0, 0, 0, 48, 0), f49).rational_points()) == 36


def test_curve_over_a_tower_is_the_curve_over_its_field():
    # F_16 reached as F_4 extended by 2 is the field field_create builds, so
    # a curve over it is that curve, with the same closed points
    tower = extend(field_create(2, 2), 2)
    assert tower is field_create(2, 4)
    for kind, coeffs in ((P1, None), (ELLIPTIC, (0, 0, 1, 0, 8))):
        over_tower = curve_create(kind, coeffs, tower)
        direct = curve_create(kind, coeffs, field_create(2, 4))
        assert over_tower == direct
        for d in (1, 2):
            assert over_tower.closed_points(d) == direct.closed_points(d)
        # orbits of x -> x^16, not of the x -> x^4 of the field below
        assert {len(pt.orbit()) for pt in over_tower.closed_points(2)} == {2}
    assert len(over_tower.rational_points()) == 25      # the F_16 max curve


def test_rational_points_x3_plus_1(e5):
    pts = e5.rational_points()
    assert len(pts) == 6
    affine = {(p.x, p.y) for p in pts if not p.is_infinity}
    assert affine == {(0, 1), (0, 4), (2, 2), (2, 3), (4, 0)}
    assert pts[-1].is_infinity


def test_rational_points_x3_plus_x():
    e = curve_create(ELLIPTIC, (0, 0, 0, 1, 0), F5)  # y^2 = x^3 + x
    assert len(e.rational_points()) == 4


def test_closed_points_p1_degree2(p1_5):
    assert len(p1_5.closed_points(2)) == (25 - 5) // 2


def test_closed_points_elliptic_degree2(e5):
    assert curve_oracle.point_count(e5, 2) == 36  # #E(F_25), by enumeration
    assert len(e5.closed_points(2)) == (36 - 6) // 2


def test_closed_points_degree1_equals_rational(e5):
    assert e5.closed_points(1) == e5.rational_points()


def test_degree_partition_identity(e5, p1_5):
    # sum over e | d of e * #(degree-e points) = #C(F_{q^d})
    for curve in (e5, p1_5):
        for d in (1, 2, 3):
            total = 0
            for e in range(1, d + 1):
                if d % e == 0:
                    total += e * len(curve.closed_points(e))
            assert total == curve_oracle.point_count(curve, d)


def test_group_law_identity_and_inverse(e5):
    pts = [(p.x, p.y) for p in e5.rational_points() if not p.is_infinity]
    for P in pts:
        assert e5.ell_add(P, None, F5) == P
        assert e5.ell_add(P, e5.ell_neg(P, F5), F5) is None


def test_group_law_doubling_on_curve(e5):
    R = e5.ell_add((0, 1), (0, 1), F5)
    assert R is not None
    assert e5.is_on_curve(R[0], R[1], F5)


def test_group_law_rejects_off_curve(e5):
    with pytest.raises(ValueError, match=r"point \(1, 1\) is not on the curve"):
        e5.ell_add((1, 1), (0, 1), F5)
    # ell_mul checks its point once on entry, for every n
    for n in (-2, 0, 3):
        with pytest.raises(ValueError, match=r"point \(1, 1\) is not on the curve"):
            e5.ell_mul(n, (1, 1), F5)


def test_ell_mul_is_repeated_addition(e5):
    for p in e5.rational_points():
        P = None if p.is_infinity else (p.x, p.y)
        total = None
        for n in range(8):
            assert e5.ell_mul(n, P, F5) == total
            assert e5.ell_mul(-n, P, F5) == e5.ell_neg(total, F5)
            total = e5.ell_add(total, P, F5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_group_law_associative(i, j, k):
    e = curve_create(ELLIPTIC, (0, 0, 0, 0, 1), F5)
    pts = [None] + [(p.x, p.y) for p in e.rational_points() if not p.is_infinity]
    P, Q, R = pts[i % len(pts)], pts[j % len(pts)], pts[k % len(pts)]
    lhs = e.ell_add(e.ell_add(P, Q, F5), R, F5)
    rhs = e.ell_add(P, e.ell_add(Q, R, F5), F5)
    assert lhs == rhs


def test_group_order_annihilates(e5):
    N = len(e5.rational_points())
    for p in e5.rational_points():
        if p.is_infinity:
            continue
        assert e5.ell_mul(N, (p.x, p.y), F5) is None


def _has_singular_point(spec, a):
    """Whether some (x, y) in F_q^2 has E = dE/dx = dE/dy = 0, for
    E = y^2 + a1 x y + a3 y - (x^3 + a2 x^2 + a4 x + a6)."""
    a1, a2, a3, a4, a6 = a
    add, mul, neg = spec.add_i, spec.mul_i, spec.neg_i
    three, two = 3 % spec.p, 2 % spec.p
    for x in range(spec.order):
        x2 = mul(x, x)
        for y in range(spec.order):
            e = add(add(mul(y, y), mul(a1, mul(x, y))), mul(a3, y))
            e = add(e, neg(add(add(mul(x2, x), mul(a2, x2)), add(mul(a4, x), a6))))
            ex = add(mul(a1, y), neg(add(add(mul(three, x2), mul(two, mul(a2, x))), a4)))
            ey = add(add(mul(two, y), mul(a1, x)), a3)
            if e == ex == ey == 0:
                return True
    return False


@pytest.mark.parametrize("pm", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_discriminant_vanishes_exactly_at_a_singular_point(pm):
    # a singular Weierstrass cubic has one singular point; Galois fixes it,
    # so it is rational and the scan over F_q^2 finds it
    spec = field_create(*pm)
    for a in itertools.product(range(spec.order), repeat=5):
        if _has_singular_point(spec, a):
            with pytest.raises(ValueError, match="zero discriminant"):
                curve_create(ELLIPTIC, a, spec)
        else:
            assert curve_create(ELLIPTIC, a, spec).discriminant() != 0


# y^2 + xy = x^3 + 1 over F_4 (a1 != 0), the max curves over F_16 and F_49
GROUP_CURVES = [((2, 2), (1, 0, 0, 0, 1)), ((2, 4), (0, 0, 1, 0, 8)),
                ((7, 2), (0, 0, 0, 1, 0))]


@pytest.mark.parametrize("pm, coeffs", GROUP_CURVES, ids=["F4-a1", "F16", "F49"])
def test_group_law_beyond_f5(pm, coeffs):
    spec = field_create(*pm)
    curve = curve_create(ELLIPTIC, coeffs, spec)
    rng = random.Random(spec.order)
    # over F_q and F_{q^2}: #E annihilates every point, and the law is associative
    for d in (1, 2):
        ext = extend(spec, d)
        pts = list(zip(*(c.tolist() for c in curve.affine_points(ext))))
        N = curve_oracle.point_count(curve, d)
        for P in rng.sample(pts, min(len(pts), 60)):
            assert curve.ell_mul(N, P, ext) is None
        for _ in range(60):
            P, Q, R = (rng.choice([None] + pts) for _ in range(3))
            assert (curve.ell_add(curve.ell_add(P, Q, ext), R, ext)
                    == curve.ell_add(P, curve.ell_add(Q, R, ext), ext))


def test_class_numbers(e5, p1_5):
    assert p1_5.class_number() == 1
    assert e5.class_number() == 6
    e2 = curve_create(ELLIPTIC, (0, 0, 0, 1, 0), F5)
    assert e2.class_number() == 4


def test_hasse_bound_all_small_curves():
    # every nonsingular Weierstrass curve over F_5 with a1=a3=0
    q = 5
    for a2 in range(5):
        for a4 in range(5):
            for a6 in range(5):
                try:
                    e = curve_create(ELLIPTIC, (0, a2, 0, a4, a6), F5)
                except ValueError:
                    continue
                n = len(e.rational_points())
                assert (n - q - 1) ** 2 <= 4 * q


def test_closed_point_canonical_representative(e5):
    for pt in e5.closed_points(2):
        orbit = pt.orbit()
        assert len(orbit) == 2
        assert (pt.x, pt.y) == min(orbit)


def test_closed_point_coordinates_on_curve(e5):
    ext = extend(F5, 3)
    for pt in e5.closed_points(3)[:5]:
        for gx, gy in pt.orbit():
            assert e5.is_on_curve(gx, gy, ext)


def test_divisor_degree_and_parts(e5):
    p1 = e5.closed_points(1)[0]
    p2 = e5.closed_points(2)[0]
    D = DivisorOnCurve(e5, [(p1, 2), (p2, -1)])
    assert D.degree() == 2 - 2
    assert (D + D).degree() == 0
    assert (3 * D).degree() == 0


def test_divisor_class_sum_principal(e5):
    # div(x - x0) for a rational point: (x0,y) + (x0,-y) - 2*O is principal
    pts = e5.rational_points()
    p = next(p for p in pts if not p.is_infinity and p.y != 0)
    minus = next(t for t in pts if t.x == p.x and t.y != p.y)
    O = next(t for t in pts if t.is_infinity)
    D = DivisorOnCurve(e5, [(p, 1), (minus, 1), (O, -2)])
    assert divisor_class_sum(D) is None


def test_divisor_class_sum_nonprincipal(e5):
    pts = [p for p in e5.rational_points() if not p.is_infinity]
    O = ClosedPoint(e5, 1, None, None)
    D = DivisorOnCurve(e5, [(pts[0], 1), (O, -1)])
    assert divisor_class_sum(D) is not None


# small fields where the lcm of degrees 1-3 keeps F_{q^lcm} small
CLASS_SUM_CURVES = [(3, 1, (0, 0, 0, 2, 1)), (2, 2, (1, 0, 0, 0, 1)),
                    (2, 2, (0, 0, 1, 0, 0)), (5, 1, (0, 0, 0, 0, 1)),
                    (7, 1, (0, 0, 0, 1, 3))]


def check_class_sum(pmc, rng):
    """divisor_class_sum, which adds each orbit in its own field, against the
    oracle's sum over the lcm extension, on a random degree-0 divisor from
    up to three points of degree 1-3 and a multiple of O.  Returns whether
    D is principal and whether its degrees have an lcm above the largest."""
    p, m, coeffs = pmc
    spec = field_create(p, m)
    curve = curve_create(ELLIPTIC, coeffs, spec)
    pool = [pt for d in (1, 2, 3) for pt in curve.closed_points(d)
            if not pt.is_infinity]
    D = DivisorOnCurve(curve, [(pt, rng.choice([-2, -1, 1, 2]))
                               for pt in rng.sample(pool, rng.randint(1, 3))])
    if D.degree():
        D = D + DivisorOnCurve(curve, [(ClosedPoint(curve, 1, None, None), -D.degree())])
    got, want = divisor_class_sum(D), curve_oracle.divisor_class_sum(D)
    degrees = [pt.degree for pt in D.support()]
    lcm = math.lcm(*degrees)
    if want is None:
        assert got is None, D
    else:
        ext = extend(spec, lcm)
        assert tuple(ext.embed_i(spec, c) for c in got) == want, D
    return want is None, lcm > max(degrees)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CLASS_SUM_CURVES), st.integers(0, 2 ** 32))
def test_class_sum_matches_the_lcm_sum(pmc, seed):
    check_class_sum(pmc, random.Random(seed))


def test_class_sum_checks_meet_principal_and_mixed_degrees():
    seen = {check_class_sum(pmc, random.Random(seed))
            for pmc in CLASS_SUM_CURVES for seed in range(8)}
    assert {principal for principal, _ in seen} == {False, True}
    assert any(mixed for _, mixed in seen)


# (p, m, coefficients): both a1 = 0 and a1 != 0 in characteristics 2 and 3
ORACLE_CURVES = [
    (2, 1, (1, 0, 0, 0, 1)), (2, 1, (0, 0, 1, 0, 0)),
    (3, 1, (0, 0, 0, 2, 1)), (3, 1, (1, 0, 0, 0, 1)),
    (2, 2, (1, 0, 0, 0, 1)), (2, 2, (0, 0, 1, 0, 0)),
    (5, 1, (0, 0, 0, 0, 1)), (7, 1, (0, 0, 0, 1, 3)),
    (2, 3, (1, 0, 0, 0, 1)), (2, 3, (0, 0, 1, 0, 0)),
    (3, 2, (0, 0, 0, 2, 1)), (3, 2, (1, 0, 0, 0, 1)),
    (2, 4, (0, 0, 1, 0, 8)), (2, 4, (1, 0, 0, 0, 1)),
    (7, 2, (0, 0, 0, 1, 3)),
]


@pytest.mark.parametrize("p, m, coeffs", ORACLE_CURVES,
                         ids=[f"F{p ** m}-{''.join(map(str, c))}"
                              for p, m, c in ORACLE_CURVES])
@pytest.mark.parametrize("kind", [ELLIPTIC, P1])
def test_points_match_the_scalar_oracle(p, m, coeffs, kind):
    spec = field_create(p, m)
    curve = curve_create(kind, coeffs if kind == ELLIPTIC else None, spec)
    for d in (1, 2, 3):
        if spec.order ** d > 4096:
            break
        ext = extend(spec, d)
        xs, ys = curve.affine_points(ext)
        assert list(zip(xs.tolist(), ys.tolist())) == curve_oracle.affine_points(curve, ext)
        oracle = curve_oracle.closed_points(curve, d)
        if d == 1:
            oracle.append(ClosedPoint(curve, 1, None, None))
        assert curve.closed_points(d) == oracle


# (p, m, coefficients, whether a 2-torsion point lies over F_q or F_q^2);
# coefficients None is P^1
PREDICATE_CURVES = [(5, 1, None, False), (2, 2, (1, 0, 0, 0, 1), True),
                    (5, 1, (0, 0, 0, 0, 1), True), (2, 4, (0, 0, 1, 0, 8), False),
                    (7, 2, (0, 0, 0, 1, 0), True)]


@pytest.mark.parametrize("p, m, coeffs, has_tors", PREDICATE_CURVES,
                         ids=["P1-F5", "F4-a1", "F5", "F16-max", "F49-max"])
def test_equation_predicates_match_the_weierstrass_form(p, m, coeffs, has_tors):
    """is_on_curve and is_two_torsion read curve.equation.  Over F_q,
    is_on_curve holds at exactly the points of the scalar enumerator, which
    writes the Weierstrass form itself.  At those points and at sampled
    points of degree 2, is_two_torsion holds exactly where the group law
    has P = -P, and never on P^1."""
    spec = field_create(p, m)
    curve = curve_create(P1 if coeffs is None else ELLIPTIC, coeffs, spec)
    points = curve_oracle.affine_points(curve, spec)
    assert [(x, y) for x in range(spec.order) for y in range(spec.order)
            if curve.is_on_curve(x, y, spec)] == points
    ext = extend(spec, 2)
    pool = curve.closed_points(2)
    sample = random.Random(p ** m).sample(pool, min(20, len(pool)))
    seen = set()
    for f, P in [(spec, P) for P in points] + [(ext, (pt.x, pt.y)) for pt in sample]:
        assert curve.is_on_curve(*P, f)
        tors = curve.is_two_torsion(*P, f)
        assert tors == (curve.kind == ELLIPTIC and curve.ell_neg(P, f) == P), P
        seen.add(tors)
    assert seen == ({False, True} if has_tors else {False})


def _mobius(n):
    out, f = 1, 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            out = -out
        f += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p, coeffs, d", [(5, (0, 0, 0, 0, 1), 7),
                                          (2, (1, 0, 0, 0, 1), 17)],
                         ids=["F5-d7", "F2-a1-d17"])
def test_counts_above_the_table_limit(p, coeffs, d):
    # #E(F_{q^d}) = q^d + 1 - s_d with s_d = s_1 s_{d-1} - q s_{d-2}, and
    # the closed points of degree d by Moebius inversion
    spec = field_create(p, 1)
    assert extend(spec, d)._exp is None
    curve = curve_create(ELLIPTIC, coeffs, spec)
    q = spec.order
    s = [2, q + 1 - len(curve.rational_points())]
    for _ in range(2, d + 1):
        s.append(s[1] * s[-1] - q * s[-2])
    count = {e: q ** e + 1 - s[e] for e in range(1, d + 1)}
    closed = curve.closed_points(d)
    assert curve_oracle.point_count(curve, d) == count[d]
    assert len(closed) * d == sum(_mobius(d // e) * count[e]
                                  for e in range(1, d + 1) if d % e == 0)
    assert all(pt.degree == d for pt in closed)


def test_closed_point_constructor_checks_its_input(e5):
    # enumeration skips these checks, so every point it returns must pass them
    pts = e5.closed_points(2)
    assert [ClosedPoint(e5, 2, pt.x, pt.y) for pt in pts] == pts
    ext = extend(F5, 2)
    off = next(y for y in range(ext.order) if not e5.is_on_curve(pts[0].x, y, ext)
               and len(ext.orbit((pts[0].x, y), 5)) == 2)
    with pytest.raises(ValueError, match="curve equation"):
        ClosedPoint(e5, 2, pts[0].x, off)
    rational = e5.rational_points()[0]             # a degree-1 orbit in F_25
    with pytest.raises(ValueError, match="orbit size 1 != declared degree 2"):
        ClosedPoint(e5, 2, rational.x, rational.y)
    # a non-least orbit member is normalized to the least one
    other = pts[3].orbit()[1]
    assert other != (pts[3].x, pts[3].y)
    assert ClosedPoint(e5, 2, *other) == pts[3]
    for x, y in ((-1, pts[0].y), (pts[0].x, ext.order)):
        with pytest.raises(ValueError, match="outside"):
            ClosedPoint(e5, 2, x, y)
