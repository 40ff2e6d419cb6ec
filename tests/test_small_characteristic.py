"""End-to-end runs in characteristics 2 and 3, where the long Weierstrass
form, Artin-Schreier quadratic solving, and the 2-torsion charts all matter."""

import curve_oracle

from ruledcodes.gf import field_create, extend
from ruledcodes.curve import curve_create, DivisorOnCurve, P1, ELLIPTIC
from ruledcodes.rrspace import rr_basis
from ruledcodes.surface import (surface_decomposable, surface_elm_product,
                                surface_trivial, segre_lower_bound_elm,
                                euler_char, NumClass)
from ruledcodes.codes import (build_curve_code,
                              build_code_decomposable, build_code_elm)
from ruledcodes.analysis import exact_params, bound_decomposable_family, griesmer_check
from rrspace_oracle import functions, order_at
from product_oracle import build_product_code

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F4 = field_create(2, 2)


def test_char2_supersingular_curve():
    # y^2 + y = x^3 over F_2: nonsingular, N = 3
    e = curve_create(ELLIPTIC, (0, 0, 1, 0, 0), F2)
    assert e.discriminant() != 0
    assert len(e.rational_points()) == 3
    for d in (1, 2, 3, 4):
        total = sum(ee * len(e.closed_points(ee))
                    for ee in range(1, d + 1) if d % ee == 0)
        assert total == curve_oracle.point_count(e, d)


def test_char2_riemann_roch_and_orders():
    e = curve_create(ELLIPTIC, (0, 0, 1, 0, 0), F2)
    O = e.closed_points(1)[-1]
    assert O.is_infinity
    D = DivisorOnCurve(e, [(O, 5)])
    basis = functions(rr_basis(e, D))
    assert len(basis) == 5
    for f in basis:
        assert order_at(f, O) >= -5
    # membership at a degree-2 point
    Q = e.closed_points(2)[0]
    D2 = DivisorOnCurve(e, [(Q, 2)])
    basis2 = functions(rr_basis(e, D2))
    assert len(basis2) == 4
    for f in basis2:
        assert order_at(f, Q) >= -2


def test_char2_all_points_are_two_torsion():
    # with a1 = 0 every affine point has 2y + a1 x + a3 = a3 constant;
    # here a3 = 1 so no affine point is 2-torsion despite char 2
    e = curve_create(ELLIPTIC, (0, 0, 1, 0, 0), F2)
    for p in e.rational_points():
        if not p.is_infinity:
            assert not e.is_two_torsion(p.x, p.y, F2)
    # and with a1 = 1, a3 = 0, 2-torsion points satisfy a1 x + a3 = x = 0
    e2 = curve_create(ELLIPTIC, (1, 0, 0, 0, 1), F2)
    tors = [p for p in e2.rational_points()
            if not p.is_infinity and e2.is_two_torsion(p.x, p.y, F2)]
    assert tors and all(p.x == 0 for p in tors)


def test_char2_code_pipeline():
    e = curve_create(ELLIPTIC, (0, 0, 1, 0, 0), F2)  # q=2, N=3
    q, N, g = 2, 3, 1
    delta = DivisorOnCurve(e, [(e.closed_points(2)[0], 1)])
    beta = DivisorOnCurve(e, [(e.closed_points(2)[1], 1)])
    surf = surface_decomposable(e, delta)
    code = build_code_decomposable(surf, 1, beta)
    assert code.n == (q + 1) * N
    assert code.k == euler_char(surf, NumClass(1, 2))
    n, k, d = exact_params(code)
    rep = bound_decomposable_family(q, N, g, 2, 1, 2)
    assert rep.valid
    assert k >= rep.k_lower and d >= rep.d_lower
    assert griesmer_check(n, k, d, q)[0]


def test_f4_elliptic_pipeline():
    # y^2 + y = x^3 over F_4 is maximal (N = 9 = q + 1 + 2 sqrt(q)); then
    # #E(F_16) = 9 as well, so the curve has no degree-2 points at all and
    # the smallest non-rational divisors have degree 3
    e = curve_create(ELLIPTIC, (0, 0, 1, 0, 0), F4)
    assert len(e.rational_points()) == 9
    assert e.closed_points(2) == []
    assert len(e.closed_points(3)) == (81 - 9) // 3
    q, N, g = 4, 9, 1
    delta = DivisorOnCurve(e, [(e.closed_points(3)[0], 1)])
    beta = DivisorOnCurve(e, [(e.closed_points(3)[1], 1)])
    surf = surface_decomposable(e, delta)
    code = build_code_decomposable(surf, 1, beta)
    assert code.n == 45
    n, k, d = exact_params(code)
    rep = bound_decomposable_family(q, N, g, 3, 1, 3)
    assert rep.valid and k >= rep.k_lower and d >= rep.d_lower
    # elm surface with a degree-3 center over the same curve
    f64 = extend(F4, 3)
    emb = {f64.embed_i(F4, v) for v in range(4)}
    fc = next(x for x in range(64) if x not in emb)
    elm = surface_elm_product(e, e.closed_points(3)[0], fc)
    ecode = build_code_elm(elm, 1, beta)
    assert ecode.meta["condition_rank"] == 3
    _, ek, ed = exact_params(ecode)
    assert ek >= 3  # chi = 2(b+1-g) - d = 3
    lb, dstar = segre_lower_bound_elm(elm, 1)
    assert dstar == 1
    assert lb == min(3, 2 * (dstar + 1) - 3) == 1


def test_char3_pipeline():
    e = curve_create(ELLIPTIC, (0, 0, 0, 1, 0), F3)  # y^2 = x^3 + x over F_3
    assert e.discriminant() != 0
    N = len(e.rational_points())
    assert N == 4
    D = DivisorOnCurve(e, [(e.closed_points(2)[0], 1)])
    assert len(rr_basis(e, D)) == 2
    beta = DivisorOnCurve(e, [(e.closed_points(2)[0], 1)])
    cc = build_curve_code(e, beta)
    n, k, d = exact_params(cc)
    assert (n, k) == (4, 2)
    assert d >= N - 2


def test_p1_base_product_pipeline_f4():
    p1 = curve_create(P1, None, F4)
    beta = DivisorOnCurve(p1, [(p1.closed_points(2)[0], 1)])
    prod = build_product_code(p1, 1, beta)
    dec = build_code_decomposable(surface_trivial(p1), 1, beta)
    assert (prod.columns, prod.matrix) == (dec.columns, dec.matrix)
    n, k, d = exact_params(prod)
    assert (n, k) == (25, 2 * 3)
    assert d >= (4 + 1 - 1) * (5 - 2)


def test_p1_elm_segre_bound():
    # degree-2 center over P^1: only constants have degree 0, and the
    # graph-avoidance bound min{2, 2(0+1)-2} = 0 when dmax = 0
    p1 = curve_create(P1, None, F4)
    f16 = extend(F4, 2)
    emb = {f16.embed_i(F4, v) for v in range(4)}
    fc = next(x for x in range(16) if x not in emb)
    center = p1.closed_points(2)[0]
    elm = surface_elm_product(p1, center, fc)
    bound, dstar = segre_lower_bound_elm(elm, 0)
    assert bound <= 2
    assert bound == min(2, 2 * (dstar + 1) - 2)
