import math

import pytest
from hypothesis import given, settings, strategies as st

from ruledcodes.gf import field_create, extend
from ruledcodes.curve import (curve_create, ClosedPoint, CurveModel,
                              DivisorOnCurve, P1, ELLIPTIC)
from ruledcodes import surface as surface_module
from ruledcodes.rrspace import effective_divisors, rr_basis
from ruledcodes.surface import (NumClass, surface_decomposable,
                                surface_elm_product, surface_trivial,
                                intersect, canonical_class, euler_char,
                                surface_rational_points, elm_class_map,
                                segre_decomposable, segre_lower_bound_elm,
                                segre_upper_bounds, INFTY, SEGRE_SOLVE_CAP,
                                _segre_solve_count)

from function_enumeration import (functions_up_to_degree,
                                  least_degree_by_value, segre_by_enumeration)

F5 = field_create(5, 1)
E5 = curve_create(ELLIPTIC, (0, 0, 0, 0, 1), F5)


def decomposable_e2():
    d2 = E5.closed_points(2)[0]
    return surface_decomposable(E5, DivisorOnCurve(E5, [(d2, 1)]))


def elm_surface():
    d2 = E5.closed_points(2)[0]
    f25 = extend(F5, 2)
    embedded = {f25.embed_i(F5, v) for v in range(5)}
    fc = next(e for e in range(25) if e not in embedded)
    return surface_elm_product(E5, d2, fc)


def test_intersection_form_basics():
    s = decomposable_e2()
    f = NumClass(0, 1)
    sec = NumClass(1, 0)
    assert intersect(s, f, f) == 0
    assert intersect(s, sec, f) == 1
    assert intersect(s, sec, sec) == -2
    # e=2: (S+2f).(S+3f) = -2 + 3 + 2 = 3
    assert intersect(s, NumClass(1, 2), NumClass(1, 3)) == 3


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_intersection_bilinear_symmetric(a1, b1, a2, b2, a3, b3):
    s = decomposable_e2()
    c1, c2, c3 = NumClass(a1, b1), NumClass(a2, b2), NumClass(a3, b3)
    assert intersect(s, c1, c2) == intersect(s, c2, c1)
    assert intersect(s, c1 + c3, c2) == intersect(s, c1, c2) + intersect(s, c3, c2)
    assert intersect(s, 3 * c1, c2) == 3 * intersect(s, c1, c2)


def test_gram_determinant_is_minus_one():
    for s in (decomposable_e2(), surface_trivial(E5), elm_surface()):
        s2 = intersect(s, NumClass(1, 0), NumClass(1, 0))
        sf = intersect(s, NumClass(1, 0), NumClass(0, 1))
        ff = intersect(s, NumClass(0, 1), NumClass(0, 1))
        assert s2 * ff - sf * sf == -1


def test_canonical_class_exact():
    s = decomposable_e2()
    assert canonical_class(s) == NumClass(-2, -2)
    x = elm_surface()
    assert canonical_class(x) == NumClass(-2, -2)
    triv = surface_trivial(E5)
    assert canonical_class(triv) == NumClass(-2, 0)
    assert intersect(triv, canonical_class(triv), canonical_class(triv)) == 8 * (1 - 1)


def test_euler_char_formula_and_cross_check():
    x = elm_surface()      # d = 2, g = 1
    assert euler_char(x, NumClass(1, 3)) == 2 * 3 - 2 * 1
    s = decomposable_e2()  # e = 2, g = 1
    assert euler_char(s, NumClass(1, 3)) == 4
    assert euler_char(s, NumClass(0, 5)) == 5 + 1 - 1  # a=0 collapse


def test_euler_char_grid_two_path():
    # euler_char asserts the half-D(D-K) path internally; sweep a grid
    for surf in (decomposable_e2(), elm_surface(), surface_trivial(E5)):
        for a in range(10):
            for b in range(10):
                euler_char(surf, NumClass(a, b))


def test_surface_rational_points_count_and_order():
    s = decomposable_e2()
    pts = surface_rational_points(s)
    assert len(pts) == (5 + 1) * 6
    # base-major order, fiber ascending with infinity last
    first_fiber = [u for _, u in pts[:6]]
    assert first_fiber == [0, 1, 2, 3, 4, INFTY]
    x = elm_surface()
    assert len(surface_rational_points(x)) == 36
    p1 = curve_create(P1, None, field_create(2, 2))
    assert len(surface_rational_points(surface_trivial(p1))) == 25


def test_elm_class_map():
    cls, si = elm_class_map(1, 0, 0, 2)     # C0 itself, center off the curve
    assert (cls.a, cls.b, si) == (1, 2, 2)
    cls, si = elm_class_map(1, 0, 1, 2)     # a section through the center
    assert si == -2
    cls, si = elm_class_map(0, 3, 0, 2)     # fiber classes are untouched
    assert (cls.a, cls.b, si) == (0, 3, 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), st.integers(0, 12), st.integers(0, 8),
       st.integers(2, 5))
def test_elm_class_map_matches_lattice(ap, bp, m, d):
    if m > ap:
        m = ap
    cls, si = elm_class_map(ap, bp, m, d)
    # the self-intersection, recomputed in the elm lattice with S^2 = -d
    lattice_si = cls.a * cls.a * (-d) + 2 * cls.a * cls.b
    assert si == lattice_si
    assert si == 2 * ap * bp + ap * d * (ap - 2 * m)


def test_elm_inverse_restores_self_intersection():
    # elm_y inverts elm_x: the strict transform meets the image of the
    # contracted fiber with multiplicity a' - m, and transforming back
    # restores the original self-intersection
    d = 2
    for ap in range(4):
        for bp in range(4):
            for m in range(ap + 1):
                cls, si = elm_class_map(ap, bp, m, d)
                _, si_back = elm_class_map(cls.a, cls.b, ap - m, d,
                                           self_int_before=si)
                assert si_back == 2 * ap * bp


def test_segre_decomposable():
    assert segre_decomposable(decomposable_e2()) == (-2, -2)
    assert segre_decomposable(surface_trivial(E5)) == (0, 0)
    d3 = E5.closed_points(3)[0]
    s7 = surface_decomposable(
        E5, DivisorOnCurve(E5, [(E5.closed_points(2)[1], 2), (d3, 1)]))
    assert segre_decomposable(s7) == (-7, -7)


def test_segre_parity_congruence():
    s = decomposable_e2()
    sg, sa = segre_decomposable(s)
    assert (sa - s.deg_sheaf) % 2 == 0
    assert (sg - sa) % 2 == 0


def test_segre_lower_bound_elm():
    x = elm_surface()
    bound, dstar = segre_lower_bound_elm(x, 1)
    assert dstar == 1       # no function of degree <= 1 passes through x
    assert bound == 2       # min{2, 2(1+1) - 2}


# (field p, m, curve coefficients or None for P^1) of the Segre oracle grid
# (E/F_2 with coefficients (0, 0, 1, 1, 1) has one rational point, so the
# walk meets divisors through the center before any other of its degree)
SEGRE_GRID = [(2, 1, None), (2, 1, (0, 0, 1, 0, 0)), (2, 1, (1, 0, 0, 0, 1)),
              (2, 1, (0, 0, 1, 1, 1)),
              (3, 1, None), (3, 1, (0, 0, 0, 2, 1)),
              (2, 2, None), (2, 2, (1, 0, 0, 0, 1)),
              (5, 1, None), (5, 1, (0, 0, 0, 0, 1)),
              (7, 1, None), (7, 1, (0, 0, 0, 0, 3))]


def _curve(p, m, coeffs):
    spec = field_create(p, m)
    if coeffs is None:
        return curve_create(P1, None, spec)
    return curve_create(ELLIPTIC, coeffs, spec)


def test_segre_bound_matches_enumeration():
    # for each center, two fibers of each least degree 1, 2 and > 2 of a
    # function through them (as the enumerator finds it), at dmax 0, 1, 2.
    # On P^1 the functions of degree 1 suffice for centers of degree 2 and
    # 3: PGL_2(F_q) is transitive on the elements of degree 2 and of degree
    # 3, so they block every such center.  Over F_2 and F_3, degree-4
    # centers too (there the walk starts below the center's degree), which
    # on P^1 need the functions of degree 2.
    outcomes = set()
    for p, m, coeffs in SEGRE_GRID:
        curve = _curve(p, m, coeffs)
        spec = curve.spec
        degrees = (2, 3, 4) if spec.order < 4 else (2, 3)
        top = 2 if coeffs is not None or 4 in degrees else 1
        funcs = functions_up_to_degree(curve, top)
        for d in degrees:
            ext = extend(spec, d)
            rational = {ext.embed_i(spec, c) for c in range(spec.order)}
            for center in curve.closed_points(d)[:2]:
                least = least_degree_by_value(funcs, center)
                by_degree = {}
                for fc in range(ext.order):
                    if fc not in rational:
                        by_degree.setdefault(least.get(fc, 3), []).append(fc)
                for fc in (fc for group in by_degree.values() for fc in group[:2]):
                    surface = surface_elm_product(curve, center, fc)
                    for dmax in (0, 1, 2):
                        assert dmax <= top or fc in least
                        got = segre_lower_bound_elm(surface, dmax)
                        assert got == segre_by_enumeration(d, fc, least, dmax), (
                            curve, center, fc, dmax)
                        if dmax:
                            outcomes.add(got[1] < dmax)
    assert outcomes == {True, False}    # blocked and unblocked both occur


@pytest.mark.parametrize("p, m, coeffs", [
    (5, 1, (0, 0, 0, 0, 1)), (2, 2, (1, 0, 0, 0, 1)), (2, 1, (0, 0, 1, 0, 0)),
    (3, 1, None)])
def test_effective_divisor_closed_form(p, m, coeffs):
    curve = _curve(p, m, coeffs)
    q, g, h = curve.spec.order, curve.genus, curve.class_number()
    counts = [len(effective_divisors(curve, d)) for d in (1, 2, 3)]
    assert counts == [h * (q ** (d + 1 - g) - 1) // (q - 1) for d in (1, 2, 3)]
    # the walk asks no divisor of degree 1 on genus 1: l(D) = 1 there
    assert {len(rr_basis(curve, D)) for D in effective_divisors(curve, 1)} == {
        2 - g}
    if g:
        counts[0] = 0
    assert [_segre_solve_count(q, g, h, d) for d in (0, 1, 2, 3)] == [
        0, counts[0], counts[0] + counts[1], sum(counts)]


def _enumerator_accepts(q, g, h, dmax):
    """Whether a function enumeration to dmax fits a budget of 10^6
    functions, estimated as q^(dmax+1) per effective divisor of degree dmax
    (the budget the Segre bound kept before it asked linear solves)."""
    cap = 10 ** 6
    if dmax < 1:
        return True
    if dmax + 1 >= cap.bit_length() or q ** (dmax + 1) > cap:
        return False
    return h * (q ** (dmax + 1 - g) - 1) // (q - 1) * q ** (dmax + 1) <= cap


def test_segre_refusal_accepts_what_the_enumerator_accepted():
    prime_powers = [p ** k for p in range(2, 257)
                    if all(p % r for r in range(2, p)) for k in range(1, 9)
                    if p ** k <= 256]
    worst = 0
    for q in prime_powers:
        hasse = range(max(1, math.ceil(q + 1 - 2 * math.sqrt(q))),
                      math.floor(q + 1 + 2 * math.sqrt(q)) + 1)
        for g, h in [(0, 1)] + [(1, h) for h in hasse]:
            for dmax in range(0, 21):
                if _enumerator_accepts(q, g, h, dmax):
                    solves = _segre_solve_count(q, g, h, dmax)
                    assert solves <= SEGRE_SOLVE_CAP, (q, g, h, dmax)
                    worst = max(worst, solves)
    # E/F_2 with 5 points at dmax 8, sum of 5 (2^d - 1) over d = 2..8; the
    # cap stays near it
    assert worst == 2505 and SEGRE_SOLVE_CAP < 2 * worst


def _asked_degrees(monkeypatch, surface, dmax):
    """The degrees of the divisors whose L(D) the Segre walk builds."""
    asked = []

    def spy(curve, D):
        asked.append(D.degree())
        return rr_basis(curve, D)
    monkeypatch.setattr(surface_module, "rr_basis", spy)
    segre_lower_bound_elm(surface, dmax)
    monkeypatch.undo()
    return asked


def test_segre_walk_skips_degree_one_on_genus_one(monkeypatch):
    x = elm_surface()
    asked = _asked_degrees(monkeypatch, x, 3)
    assert asked and min(asked) == 2
    assert _asked_degrees(monkeypatch, x, 1) == []
    p1 = curve_create(P1, None, F5)
    center = p1.closed_points(2)[0]
    fc = next(e for e in range(25) if e not in
              {center.ext_spec.embed_i(F5, v) for v in range(5)})
    asked = _asked_degrees(monkeypatch, surface_elm_product(p1, center, fc), 1)
    assert asked and set(asked) == {1}


def test_segre_huge_dmax_refused_before_point_enumeration():
    curve = CurveModel(ELLIPTIC, F5, (0, 0, 0, 0, 1))     # no cached points
    d2 = E5.closed_points(2)[0]
    surface = surface_elm_product(curve, ClosedPoint(curve, 2, d2.x, d2.y),
                                  elm_surface().fiber_coord)
    with pytest.raises(ValueError, match=r"segre_dmax = 1000000000 needs at "
                       r"least \d+ linear solves .* above the cap 3000"):
        segre_lower_bound_elm(surface, 10 ** 9)
    assert all(d < 2 for d in curve._closed_cache)
    with pytest.raises(ValueError, match="segre_dmax = -1 must be >= 0"):
        segre_lower_bound_elm(surface, -1)


def test_segre_upper_bounds():
    assert segre_upper_bounds(1, 6, 5) == 2            # N <= q^2+1: plain 2g
    assert segre_upper_bounds(3, 6, 2) == 5            # only t = 0 qualifies
    assert segre_upper_bounds(1, 1, 5) == 2
    # q=2, N=30: t=4 is the largest with 30 > max{(t+1)*5, t*7}
    assert segre_upper_bounds(2, 30, 2) == 2 * (2 - 4) - 1


def test_segre_upper_bound_monotone_in_points():
    g, q = 2, 3
    prev = None
    for N in range(1, 60, 5):
        b = segre_upper_bounds(g, N, q)
        if prev is not None:
            assert b <= prev
        prev = b


def test_elm_center_invariants_enforced():
    d2 = E5.closed_points(2)[0]
    f25 = extend(F5, 2)
    rational_fc = f25.embed_i(F5, 3)
    with pytest.raises(ValueError):
        surface_elm_product(E5, d2, rational_fc)
    with pytest.raises(ValueError):
        rational_base = E5.rational_points()[0]
        surface_elm_product(E5, rational_base, 7)


def test_decomposable_allows_rational_delta_for_surface_study():
    # e = 1 surfaces need a rational point in supp(delta); only the code
    # builders insist the support avoids the evaluation set
    p = E5.rational_points()[0]
    s = surface_decomposable(E5, DivisorOnCurve(E5, [(p, 1)]))
    assert segre_decomposable(s) == (-1, -1)


def test_code_builder_rejects_rational_delta():
    from ruledcodes.codes import build_code_decomposable
    p = E5.rational_points()[0]
    s = surface_decomposable(E5, DivisorOnCurve(E5, [(p, 1)]))
    beta = DivisorOnCurve(E5, [(E5.closed_points(3)[0], 1)])
    with pytest.raises(ValueError):
        build_code_decomposable(s, 1, beta)
