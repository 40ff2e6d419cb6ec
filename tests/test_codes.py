import itertools
from unittest import mock

import pytest

from ruledcodes import codes, linalg, rrspace
from ruledcodes.gf import field_create, extend
from ruledcodes.curve import curve_create, CurveModel, DivisorOnCurve, P1, ELLIPTIC
from ruledcodes.surface import (surface_decomposable, surface_elm_product,
                                surface_trivial)
from ruledcodes.codes import (build_prs, build_curve_code,
                              build_code_decomposable, build_code_elm,
                              build_unisecant, write_matrix, write_points,
                              read_matrix)
from ruledcodes.analysis import exact_params
from linalg_oracle import row_space_contains
from product_oracle import build_product_code
from rrspace_oracle import evaluate, functions

F5 = field_create(5, 1)
F4 = field_create(2, 2)
E5 = curve_create(ELLIPTIC, (0, 0, 0, 0, 1), F5)
L5 = curve_create(P1, None, F5)


def beta3():
    return DivisorOnCurve(E5, [(E5.closed_points(3)[0], 1)])


def delta2():
    return DivisorOnCurve(E5, [(E5.closed_points(2)[0], 1)])


def elm_surface():
    d2 = E5.closed_points(2)[0]
    f25 = extend(F5, 2)
    embedded = {f25.embed_i(F5, v) for v in range(5)}
    fc = next(e for e in range(25) if e not in embedded)
    return surface_elm_product(E5, d2, fc)


def brute_weights(code):
    """Independent weight oracle: enumerate messages directly."""
    spec = code.spec
    q = spec.order
    weights = []
    for msg in itertools.product(range(q), repeat=code.k):
        if not any(msg):
            continue
        word = [0] * code.n
        for m, row in zip(msg, code.matrix):
            if m:
                word = [spec.add_i(w, spec.mul_i(m, v)) for w, v in zip(word, row)]
        weights.append(sum(1 for w in word if w))
    return weights


# -- PRS ---------------------------------------------------------------------

def test_prs_parameters_q4():
    code = build_prs(F4, 2)
    assert (code.n, code.k) == (5, 3)
    assert min(brute_weights(code)) == 3  # [5, 3, 3]


def test_prs_repetition():
    code = build_prs(F5, 0)
    assert (code.n, code.k) == (6, 1)
    assert min(brute_weights(code)) == 6


def test_prs_mds_q5_a1():
    code = build_prs(F5, 1)
    n, k, d = exact_params(code)
    assert (n, k, d) == (6, 2, 5)


def test_prs_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_prs(F5, 6)


def test_prs_infinity_is_top_coefficient():
    code = build_prs(F5, 2)
    # row i is the monomial u^i: at infinity only the degree-a row is 1
    assert [row[-1] for row in code.matrix] == [0, 0, 1]


# -- curve codes --------------------------------------------------------------

def test_curve_code_p1_degree4():
    pt = L5.closed_points(2)[0]
    beta = DivisorOnCurve(L5, [(pt, 2)])
    code = build_curve_code(L5, beta)
    assert (code.n, code.k) == (6, 5)
    assert min(brute_weights(code)) >= 6 - 4


def test_curve_code_elliptic_degree3():
    code = build_curve_code(E5, beta3())
    assert (code.n, code.k) == (6, 3)
    assert min(brute_weights(code)) >= 3


def test_curve_code_repetition():
    code = build_curve_code(E5, DivisorOnCurve(E5))
    assert (code.n, code.k) == (6, 1)
    assert min(brute_weights(code)) == 6


def test_curve_code_rejects_rational_support():
    p = E5.rational_points()[0]
    with pytest.raises(ValueError):
        build_curve_code(E5, DivisorOnCurve(E5, [(p, 1)]))


def test_curve_code_rejects_large_degree():
    d3 = E5.closed_points(3)
    with pytest.raises(ValueError):
        build_curve_code(E5, DivisorOnCurve(E5, [(d3[0], 1), (d3[1], 1)]))


# -- decomposable family ------------------------------------------------------

def test_decomposable_demo_parameters():
    surf = surface_decomposable(E5, delta2())
    code = build_code_decomposable(surf, 1, beta3())
    assert (code.n, code.k) == (36, 4)
    assert code.meta["block_dims"] == [3, 1]  # dim L(beta) + dim L(beta - delta)
    assert code.meta["e"] == 2    # deg(delta)
    assert (code.meta["condition_rank"], code.meta["condition_count"]) == (0, 0)
    assert linalg.rank(code.spec, code.matrix) == code.k
    n, k, d = exact_params(code)
    assert (n, k) == (36, 4)
    assert d >= 15


def test_decomposable_a0_is_fiberwise_constant():
    surf = surface_decomposable(E5, delta2())
    code = build_code_decomposable(surf, 0, beta3())
    assert code.k == 3
    for row in code.matrix:
        for base_block in range(0, 36, 6):
            fiber_vals = row[base_block:base_block + 6]
            assert len(set(fiber_vals)) == 1


# (field, curve coefficients, a, beta as (degree, index, multiplicity) of
# one closed point); the F_16 and F_49 curves are the max curves of the
# regime builds, with codes [425, 48] and [3200, 168]
PRODUCT_CASES = [((5, 1), (0, 0, 0, 0, 1), 0, (2, 0, 1)),
                 ((5, 1), (0, 0, 0, 0, 1), 1, (2, 0, 1)),
                 ((5, 1), (0, 0, 0, 0, 1), 2, (3, 0, 1)),
                 ((2, 4), (0, 0, 1, 0, 8), 3, (2, 1, 6)),
                 ((7, 2), (0, 0, 0, 1, 0), 6, (2, 1, 12))]


@pytest.mark.parametrize("pm, coeffs, a, point", PRODUCT_CASES,
                         ids=["F5-a0b2", "F5-a1b2", "F5-a2b3", "F16-a3b12",
                              "F49-a6b24"])
def test_decomposable_e0_equals_product_oracle(pm, coeffs, a, point):
    # the same rows in the same order, over the same columns: a builder that
    # reorders either fails here
    curve = curve_create(ELLIPTIC, coeffs, field_create(*pm))
    degree, index, mult = point
    beta = DivisorOnCurve(curve, [(curve.closed_points(degree)[index], mult)])
    dec = build_code_decomposable(surface_trivial(curve), a, beta)
    prod = build_product_code(curve, a, beta)
    assert dec.columns == prod.columns
    assert dec.matrix == prod.matrix


@pytest.mark.parametrize("curve", [E5, L5], ids=["elliptic", "P1"])
def test_product_surface_build_computes_one_basis(curve):
    # delta = 0, so L(beta - i delta) is L(beta) for every i: one basis
    # computed on a fresh curve, and the rows of a + 1 separately computed
    # copies of it
    a = 2
    curve = CurveModel(curve.kind, curve.spec, curve.a)     # no cached spaces
    beta = DivisorOnCurve(curve, [(curve.closed_points(3)[0], 1)])
    calls, build = [], rrspace._rr_space
    with mock.patch.object(rrspace, "_rr_space", lambda c, d: (
            calls.append(d), build(c, d))[1]):
        code = build_code_decomposable(surface_trivial(curve), a, beta)
    assert calls == [beta]
    values = [[[evaluate(f, p) for p in curve.rational_points()]
               for f in functions(codes.rr_basis(curve, beta))] for _ in range(a + 1)]
    zero = [0] * len(curve.rational_points())
    coeffs = [[v for j, block in enumerate(values) for v in
               (block if j == i else [zero] * len(block))] for i in range(a + 1)]
    assert code.matrix == codes._section_rows(curve.spec, a, coeffs)


@pytest.mark.parametrize("build, surface, beta, evaluations", [
    (build_code_decomposable, surface_trivial(E5), beta3(), 1),
    (build_code_decomposable, surface_decomposable(E5, delta2()), beta3(), 3),
    (build_code_elm, elm_surface(), DivisorOnCurve(
        E5, [(E5.closed_points(3)[1], 1), (E5.closed_points(2)[1], 1)]), 1)],
    ids=["product", "decomposable", "elm"])
def test_each_distinct_space_is_evaluated_once(build, surface, beta, evaluations):
    # at a = 2 the product surface and elm repeat one space for all three
    # blocks, evaluated once; delta != 0 gives a + 1 = 3 distinct spaces
    calls, values = [], rrspace.RRSpace.values
    with mock.patch.object(rrspace.RRSpace, "values", lambda space, points: (
            calls.append(space), values(space, points))[1]):
        build(surface, 2, beta)
    assert len(calls) == len(set(map(id, calls))) == evaluations


def test_product_dimensions_multiply():
    code = build_product_code(E5, 1, beta3())
    assert (code.n, code.k) == (36, 2 * 3)


def test_decomposable_rejects_bad_supports():
    p = E5.rational_points()[0]
    surf = surface_decomposable(E5, delta2())
    with pytest.raises(ValueError):
        build_code_decomposable(surf, 1, DivisorOnCurve(E5, [(p, 1)]))


# -- elm family ---------------------------------------------------------------

def test_elm_demo_parameters():
    surf = elm_surface()
    code = build_code_elm(surf, 1, beta3())
    assert (code.n, code.k) == (36, 4)
    assert code.meta["condition_rank"] == 2
    assert code.meta["condition_count"] == 2
    assert code.meta["block_dims"] == [3, 3]  # L(beta) for g_0 and g_1
    assert code.meta["e"] == 2 and "d" not in code.meta    # deg of the center
    n, k, d = exact_params(code)
    assert d >= 18


def test_elm_a0_no_conditions():
    surf = elm_surface()
    code = build_code_elm(surf, 0, beta3())
    assert code.k == 3
    assert code.meta["condition_rank"] == 0


def test_elm_condition_rank_cap():
    # rank never exceeds d * a(a+1)/2, and the family records hold at a = 2
    surf = elm_surface()
    code = build_code_elm(surf, 2, DivisorOnCurve(E5, [(E5.closed_points(3)[1], 1),
                                                       (E5.closed_points(2)[1], 1)]))
    a, d = 2, 2
    assert code.meta["condition_rank"] <= d * a * (a + 1) // 2
    assert code.k >= (a + 1) * (5 + 1 - 1) - d * a * (a + 1) // 2
    from ruledcodes.analysis import bound_elm_family
    rep = bound_elm_family(5, 6, 1, 2, 2, 5)
    assert rep.valid
    n, k, dist = exact_params(code)
    assert k >= rep.k_lower and dist >= rep.d_lower


@pytest.mark.parametrize("pm, coeffs, mult", [((5, 1), (0, 0, 0, 0, 1), 2),
                                              ((2, 2), (1, 0, 0, 0, 1), 3),
                                              ((2, 4), (0, 0, 1, 0, 8), 2)],
                         ids=["F5", "F4", "F16"])
@pytest.mark.parametrize("a", [1, 2, 3])
def test_elm_rows_lie_in_the_product_code(pm, coeffs, mult, a):
    # every elm section is a section of a*C0 + pi^*(beta) on C x P^1, so the
    # elm code is a k-dimensional subcode of PRS(a) (x) C(beta)
    spec = field_create(*pm)
    curve = curve_create(ELLIPTIC, coeffs, spec)
    center, other = curve.closed_points(2)[:2]
    ext = extend(spec, 2)
    embedded = {ext.embed_i(spec, v) for v in range(spec.order)}
    fc = next(e for e in range(ext.order) if e not in embedded)
    beta = DivisorOnCurve(curve, [(other, mult)])
    elm = build_code_elm(surface_elm_product(curve, center, fc), a, beta)
    product = build_product_code(curve, a, beta)
    assert elm.k > 0 and linalg.rank(spec, elm.matrix) == elm.k
    assert row_space_contains(spec, product.matrix, elm.matrix)


def test_elm_rejects_center_in_support():
    surf = elm_surface()
    with pytest.raises(ValueError):
        build_code_elm(surf, 1, DivisorOnCurve(E5, [(surf.base_point, 1)]))


# -- refusals -----------------------------------------------------------------

def _divisor(*items):
    return DivisorOnCurve(E5, list(items))


RATIONAL = E5.rational_points()[0]           # Pt(d1,0,1)
CENTER, D2, D2B = E5.closed_points(2)[:3]    # elm_surface()'s center is CENTER
BETA6 = _divisor(*[(p, 1) for p in E5.closed_points(3)[:2]])   # deg 6 = N


def _rational_delta_surface():
    return surface_decomposable(E5, _divisor((RATIONAL, 1)))


# `build` prints each text after "config error: config.code: "; where two
# checks fail at once, the first-named one wins
REFUSALS = [
    pytest.param(lambda: build_code_decomposable(elm_surface(), -1, beta3()),
                 "decomposable builder on a non-decomposable surface",
                 id="decomposable-variant"),
    pytest.param(lambda: build_code_decomposable(_rational_delta_surface(), -1,
                                                 _divisor((RATIONAL, 1))),
                 "a must be >= 0", id="decomposable-a-before-supports"),
    pytest.param(lambda: build_code_decomposable(_rational_delta_surface(), 1,
                                                 _divisor((RATIONAL, 1))),
                 "supp(beta) meets the rational point Pt(d1,0,1)",
                 id="decomposable-beta-before-delta"),
    pytest.param(lambda: build_code_decomposable(_rational_delta_surface(), 1, BETA6),
                 "supp(delta) meets the rational point Pt(d1,0,1)",
                 id="decomposable-delta-before-degree"),
    pytest.param(lambda: build_code_decomposable(surface_decomposable(E5, delta2()),
                                                 1, BETA6),
                 "deg(beta) = 6 must satisfy 0 <= b < N = 6", id="decomposable-degree"),
    pytest.param(lambda: build_code_decomposable(surface_decomposable(E5, delta2()),
                                                 1, _divisor((D2, 1), (D2B, -1))),
                 "empty message space L(beta)", id="decomposable-empty"),
    pytest.param(lambda: build_code_elm(surface_decomposable(E5, delta2()), -1, beta3()),
                 "elm builder on a non-elm surface", id="elm-variant"),
    pytest.param(lambda: build_code_elm(elm_surface(), -1, _divisor((RATIONAL, 1))),
                 "a must be >= 0", id="elm-a-before-beta"),
    pytest.param(lambda: build_code_elm(elm_surface(), 1,
                                        _divisor((RATIONAL, 1), (CENTER, 1))),
                 "supp(beta) meets the rational point Pt(d1,0,1)",
                 id="elm-beta-before-center"),
    pytest.param(lambda: build_code_elm(elm_surface(), 1, BETA6 + _divisor((CENTER, 1))),
                 "supp(beta) must avoid the center of the transform",
                 id="elm-center-before-degree"),
    pytest.param(lambda: build_code_elm(elm_surface(), 1, BETA6),
                 "deg(beta) = 6 must satisfy 0 <= b < N = 6", id="elm-degree"),
    pytest.param(lambda: build_code_elm(elm_surface(), 1, _divisor((D2, 1), (D2B, -1))),
                 "empty message space L(beta)", id="elm-empty"),
    pytest.param(lambda: build_code_elm(elm_surface(), 1, _divisor()),
                 "empty message space after multiplicity conditions",
                 id="elm-empty-after-conditions"),
]


@pytest.mark.parametrize("build, text", REFUSALS)
def test_builder_refusal_texts(build, text):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == text


# -- fiber polynomial structure ----------------------------------------------

def test_codeword_fibers_are_polynomial_evaluations():
    surf = surface_decomposable(E5, delta2())
    code = build_code_decomposable(surf, 1, beta3())
    # on every fiber, every row restricts to (value of a deg<=1 poly in u,
    # then its leading coefficient at infinity)
    for row in code.matrix:
        for base_block in range(0, 36, 6):
            vals = row[base_block:base_block + 5]
            top = row[base_block + 5]
            # interpolate by brute force over all degree-<=1 polynomials
            ok = False
            for c0 in range(5):
                for c1 in range(5):
                    if all(F5.add_i(c0, F5.mul_i(c1, u)) == vals[u]
                           for u in range(5)) and top == c1:
                        ok = True
            assert ok


def test_weights_invariant_under_column_rescaling():
    import random
    rng = random.Random(9)
    surf = surface_decomposable(E5, delta2())
    code = build_code_decomposable(surf, 1, beta3())
    scale = [rng.randrange(1, 5) for _ in range(code.n)]
    rescaled = [[F5.mul_i(s, v) for s, v in zip(scale, row)] for row in code.matrix]
    from ruledcodes.codes import LinearCode
    other = LinearCode(F5, rescaled, code.columns, code.meta)
    assert sorted(brute_weights(code)) == sorted(brute_weights(other))


# -- unisecant ----------------------------------------------------------------

def test_unisecant_decomposable():
    surf = surface_decomposable(E5, delta2())
    code = build_unisecant(surf, 3)
    assert code.meta["k_lower_unisecant"] == -2 + 2 * 3
    assert code.meta["d_lower_unisecant"] == 5 * (6 - 0 - 3)
    n, k, d = exact_params(code)
    assert k >= code.meta["k_lower_unisecant"]
    assert d >= code.meta["d_lower_unisecant"]


def test_unisecant_product_surface():
    triv = surface_trivial(E5)
    code = build_unisecant(triv, 2)
    assert code.meta["k_lower_unisecant"] == 4
    assert code.meta["d_lower_unisecant"] == 20
    n, k, d = exact_params(code)
    assert k >= 4 and d >= 20


def test_unisecant_refuses_nonpositive_records():
    surf = surface_decomposable(E5, delta2())
    with pytest.raises(ValueError):
        build_unisecant(surf, 0)   # k record = -2 + 2(0+1-1)*... <= 0


def test_unisecant_elm_surface():
    # deg E = -2 and the certified s_a lower bound 2 give
    # d >= q(N - (-2 - 2)/2 - degL) = 5(6 + 2 - 3) = 25
    surf = elm_surface()
    code = build_unisecant(surf, 3)
    assert code.meta["s_a"] == 2
    assert code.meta["k_lower_unisecant"] == -2 + 2 * 3
    assert code.meta["d_lower_unisecant"] == 5 * (6 + 2 - 3)
    n, k, d = exact_params(code)
    assert k >= code.meta["k_lower_unisecant"]
    assert d >= code.meta["d_lower_unisecant"]


def test_unisecant_elm_surface_over_p1():
    # on P^1 the default walk depth is 0, not 2g - 1 = -1
    center = L5.closed_points(2)[0]
    f25 = extend(F5, 2)
    embedded = {f25.embed_i(F5, v) for v in range(5)}
    fc = next(e for e in range(25) if e not in embedded)
    code = build_unisecant(surface_elm_product(L5, center, fc), 2)
    assert code.meta["s_a"] == 0
    assert code.meta["k_lower_unisecant"] == 4
    assert code.meta["d_lower_unisecant"] == 25
    assert exact_params(code) == (36, 4, 25)


def test_hirzebruch_pipeline_genus_zero():
    # decomposable surface over P^1 (a rational ruled surface), e = 2
    delta = DivisorOnCurve(L5, [(L5.closed_points(2)[0], 1)])
    beta = DivisorOnCurve(L5, [(L5.closed_points(3)[0], 1)])
    surf = surface_decomposable(L5, delta)
    code = build_code_decomposable(surf, 1, beta)
    assert (code.n, code.k) == (36, 4 + 2)
    from ruledcodes.analysis import bound_decomposable_family
    rep = bound_decomposable_family(5, 6, 0, 2, 1, 3)
    assert rep.valid and rep.k_lower == 6
    n, k, d = exact_params(code)
    assert k == 6 and d >= rep.d_lower


# -- wire format ---------------------------------------------------------------

def test_matrix_roundtrip(tmp_path):
    surf = surface_decomposable(E5, delta2())
    code = build_code_decomposable(surf, 1, beta3())
    mpath = tmp_path / "gen.txt"
    ppath = tmp_path / "pts.txt"
    write_matrix(code, mpath)
    write_points(code, ppath)
    back = read_matrix(mpath)
    assert back.matrix == code.matrix
    assert back.spec is code.spec
    lines = ppath.read_text().strip().split("\n")
    assert len(lines) == 36
    assert lines[0].endswith("|0")
    assert lines[5].endswith("|inf")
