import ast
import gc
import hashlib
import math
import pathlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from ruledcodes import fqarray, linalg
from ruledcodes.gf import field_create, extend
from ruledcodes.curve import (curve_create, ClosedPoint, DivisorOnCurve,
                              CurveModel, P1, ELLIPTIC)
from ruledcodes.poly import Poly
from ruledcodes.rrspace import (rr_basis, effective_divisors, PoleError,
                                x_min_poly, subfield_coords, _Chart, _chart,
                                _coerce_down, _head, _mul)

import curve_oracle
import rrspace_oracle
from function_enumeration import functions_up_to_degree, function_degree
from rrspace_oracle import (CurveFunction, LSeries, add, constant, evaluate,
                            functions, inverse, is_constant, mul, order_at,
                            scale, taylor_coeffs)

F5 = field_create(5, 1)
E5 = curve_create(ELLIPTIC, (0, 0, 0, 0, 1), F5)   # y^2 = x^3 + 1
L5 = curve_create(P1, None, F5)
O5 = ClosedPoint(E5, 1, None, None)
INF5 = ClosedPoint(L5, 1, None, None)


def fn_x(curve):
    return CurveFunction(curve, Poly.x(curve.spec), Poly.zero(curve.spec),
                         Poly.one(curve.spec))


def fn_y(curve):
    return CurveFunction(curve, Poly.zero(curve.spec), Poly.one(curve.spec),
                         Poly.one(curve.spec))


def check_membership(curve, D, basis):
    """div(f) + D >= 0 verified point by point on supp(D) via valuations."""
    for f in basis:
        assert not f.is_zero()
        for pt in D.support():
            assert order_at(f, pt) + D.multiplicity(pt) >= 0


def random_divisor(curve, rng, min_deg=-3, max_deg=10):
    pts = (curve.closed_points(1) + curve.closed_points(2)
           + curve.closed_points(3))
    while True:
        support = rng.sample(pts, rng.randint(1, 4))
        items = [(p, rng.choice([-3, -2, -1, 1, 2, 3])) for p in support]
        D = DivisorOnCurve(curve, items)
        if min_deg <= D.degree() <= max_deg:
            return D


# -- basic valuations -------------------------------------------------------

def test_ord_x_y_at_origin():
    assert order_at(fn_x(E5), O5) == -2
    assert order_at(fn_y(E5), O5) == -3


def test_ord_uniformizer_at_affine_point():
    p = next(p for p in E5.rational_points() if not p.is_infinity and p.y != 0)
    f = add(fn_x(E5), constant(E5, F5.neg_i(p.x)))
    assert order_at(f, p) == 1
    two_tors = next(p for p in E5.rational_points()
                    if not p.is_infinity and p.y == 0)
    g = add(fn_x(E5), constant(E5, F5.neg_i(two_tors.x)))
    assert order_at(g, two_tors) == 2


def test_zero_function_has_no_order():
    with pytest.raises(ValueError):
        order_at(constant(E5, 0), O5)


# -- Taylor expansions ------------------------------------------------------

def test_taylor_constant():
    p = E5.rational_points()[0]
    cs = taylor_coeffs(constant(E5, 3), p, 4)
    assert cs == [3, 0, 0, 0]


def test_taylor_uniformizer():
    p = next(p for p in E5.rational_points() if not p.is_infinity and p.y != 0)
    f = add(fn_x(E5), constant(E5, F5.neg_i(p.x)))
    cs = taylor_coeffs(f, p, 3)
    assert cs == [0, 1, 0]


def test_taylor_pole_raises():
    with pytest.raises(PoleError):
        taylor_coeffs(fn_x(E5), O5, 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_taylor_products_multiply(seed_a, seed_b):
    # truncations of a product match the product of truncations
    rng_a = seed_a
    k = 5
    coeffs_a = [(rng_a >> (3 * i)) % 5 for i in range(3)]
    coeffs_b = [(seed_b >> (3 * i)) % 5 for i in range(3)]
    f = CurveFunction(E5, Poly(F5, coeffs_a[:2]), Poly(F5, coeffs_a[2:]),
                      Poly.one(F5))
    g = CurveFunction(E5, Poly(F5, coeffs_b[:2]), Poly(F5, coeffs_b[2:]),
                      Poly.one(F5))
    if f.is_zero() or g.is_zero():
        return
    p = next(p for p in E5.rational_points() if not p.is_infinity)
    tf = taylor_coeffs(f, p, k)
    tg = taylor_coeffs(g, p, k)
    tfg = taylor_coeffs(mul(f, g), p, k)
    spec = p.ext_spec
    conv = [0] * k
    for i in range(k):
        for j in range(k - i):
            conv[i + j] = spec.add_i(conv[i + j], spec.mul_i(tf[i], tg[j]))
    assert tfg == conv


def test_evaluate_on_rational_points():
    f = fn_x(E5)
    for p in E5.rational_points():
        if p.is_infinity:
            continue
        assert evaluate(f, p) == p.x


E4 = curve_create(ELLIPTIC, (1, 0, 0, 0, 1), field_create(2, 2))
E16 = curve_create(ELLIPTIC, (0, 0, 1, 0, 8), field_create(2, 4))


@pytest.mark.parametrize("curve", [L5, E5, E4, E16], ids=["P1-F5", "F5", "F4-a1", "F16"])
def test_value_at_infinity_matches_the_expansion(curve):
    # evaluate reads infinity from pole orders; the Laurent expansion is the oracle
    inf = ClosedPoint(curve, 1, None, None)
    affine = [p for p in curve.rational_points() if not p.is_infinity]
    quad = curve.closed_points(2)[0]
    checked = set()
    for n_inf in (-2, -1, 0, 1, 2, 3):
        for D in (DivisorOnCurve(curve, [(affine[0], 2), (inf, n_inf)]),
                  DivisorOnCurve(curve, [(quad, 1), (affine[-1], 1), (inf, n_inf)])):
            basis = functions(rr_basis(curve, D))
            for f in basis + [scale(f, 2) for f in basis] + [constant(curve, 0)]:
                try:
                    value = evaluate(f, inf)
                except PoleError:
                    with pytest.raises(PoleError):
                        taylor_coeffs(f, inf, 1)
                    checked.add("pole")
                    continue
                assert value == taylor_coeffs(f, inf, 1)[0], (D, f)
                checked.add({0: "zero", 1: "one"}.get(value, "other"))
    assert checked == {"pole", "zero", "one", "other"}


E49 = curve_create(ELLIPTIC, (0, 0, 0, 1, 0), field_create(7, 2))
E5_FULL = curve_create(ELLIPTIC, (1, 2, 3, 4, 1), F5)   # every a_i nonzero


# -- RRSpace.values and RRSpace.expansions against the one-function oracle --

# P^1, p = 2 with a1 != 0 and a1 = 0, F_49, and F_{5^7}, above the exp/log
# table limit, where only rational points are within the field-size cap
ORACLE_CURVES = {"P1-F5": (L5, 3), "F5": (E5, 3), "F4-a1": (E4, 3),
                 "F16-a3": (E16, 3), "F49": (E49, 2),
                 "F78125": (curve_create(ELLIPTIC, (0, 0, 0, 1, 1),
                                         field_create(5, 7)), 1)}


def oracle_draw(name, rng):
    """A divisor D on the curve of ORACLE_CURVES[name] of degree 1..7, from
    up to three points of degree 1..max plus a multiple of O (infinity on
    P^1), its space, the points where the oracle evaluates it (a few
    rational points, up to two of degree >= 2 from the pool, every point
    where the space's denominator vanishes, and O last), and the affine
    points where it expands it: some of the pool, and every point where
    the denominator vanishes, such as -P for P in supp(D)."""
    curve, dmax = ORACLE_CURVES[name]
    inf = ClosedPoint(curve, 1, None, None)
    rational = [p for p in curve.rational_points() if not p.is_infinity]
    pool = rng.sample(rational, 4)
    for d in range(2, dmax + 1):
        pool += rng.sample(curve.closed_points(d), 3)
    while True:
        items = [(p, rng.choice([-2, -1, 1, 2, 3]))
                 for p in rng.sample(pool, rng.randint(1, 3))]
        n_inf = rng.choice([-2, -1, 0, 0, 1, 2])
        D = DivisorOnCurve(curve, items + ([(inf, n_inf)] if n_inf else []))
        if 1 <= D.degree() <= 7:
            break
    space = rr_basis(curve, D)
    points = (rng.sample(rational, 3) + rng.sample(pool[4:], min(2, len(pool) - 4))
              + list(space.zeros))
    expand = rng.sample(pool, 3) + list(space.zeros)
    return D, space, points + [inf], expand


def oracle_or_pole(fn, *args):
    try:
        return fn(*args)
    except PoleError:
        return "pole"


def check_values(name, rng):
    """RRSpace.values against evaluate at the points where every function
    is regular, and PoleError at each other point alone; the cases it met."""
    D, space, points, _ = oracle_draw(name, rng)
    funcs = functions(space)
    want = {p: [oracle_or_pole(evaluate, f, p) for f in funcs] for p in points}
    regular = [p for p in points if "pole" not in want[p]]
    assert space.values(regular).T.tolist() == [want[p] for p in regular], (D, regular)
    for p in points:
        if p not in regular:
            with pytest.raises(PoleError):
                space.values([p])
    seen = {name} | {f"value at degree {p.degree}" for p in regular if p.degree > 1}
    if points[-1] not in regular and D.multiplicity(points[-1]) > 0:
        seen.add("pole at O")
    if any(p in space.zeros and D.multiplicity(p) == 0 for p in regular):
        seen.add("value where den vanishes off supp(D)")
    return seen


def check_expansions(name, rng):
    """RRSpace.expansions against taylor_coeffs, and refused at O; the
    cases it met."""
    D, space, points, expand = oracle_draw(name, rng)
    with pytest.raises(ValueError):
        space.expansions(points[-1], 1)
    seen = {name}
    for pt in expand:
        k = rng.randint(1, 4)
        want = [oracle_or_pole(taylor_coeffs, f, pt, k) for f in functions(space)]
        want = "pole" if "pole" in want else want
        got = oracle_or_pole(lambda: space.expansions(pt, k).tolist())
        assert got == want, (D, pt, k)
        seen.add(f"degree {pt.degree}")
        if pt in space.zeros and D.multiplicity(pt) == 0:
            seen.add("den vanishes off supp(D)")
    return seen


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ORACLE_CURVES)), st.integers(0, 2 ** 32))
def test_values_match_the_oracle(name, seed):
    check_values(name, random.Random(seed))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ORACLE_CURVES)), st.integers(0, 2 ** 32))
def test_expansions_match_the_oracle(name, seed):
    check_expansions(name, random.Random(seed))


def test_oracle_checks_meet_every_case():
    seen = set()
    for seed in range(4):
        for name in ORACLE_CURVES:
            seen |= check_values(name, random.Random(seed))
            seen |= check_expansions(name, random.Random(seed))
    assert seen == set(ORACLE_CURVES) | {
        "pole at O", "degree 1", "degree 2", "degree 3",
        "value at degree 2", "value at degree 3", "den vanishes off supp(D)",
        "value where den vanishes off supp(D)"}


def test_value_at_a_pole_of_o_raises():
    space = rr_basis(E5, DivisorOnCurve(E5, [(O5, 3)]))
    with pytest.raises(PoleError):
        space.values([O5])
    assert space.values(E5.rational_points()[:1]).shape == (3, 1)


def chart_points(curve):
    """O, a rational point that is not 2-torsion, a rational 2-torsion
    point where one exists, and a point of degree 2."""
    affine = [p for p in curve.rational_points() if not p.is_infinity]
    tors = [p for p in affine if rrspace_oracle.two_torsion(curve, p.x, p.y, p.ext_spec)]
    plain = [p for p in affine if p not in tors]
    return ([ClosedPoint(curve, 1, None, None), plain[0]] + tors[:1]
            + [curve.closed_points(2)[0]])


@pytest.mark.parametrize("curve, has_tors", [(E5, True), (E4, True), (E16, False),
                                             (E49, True), (E5_FULL, True)],
                         ids=["F5", "F4-a1", "F16", "F49", "F5-full"])
def test_charts_solve_the_curve_equation(curve, has_tors):
    curve = CurveModel(ELLIPTIC, curve.spec, curve.a)     # no cached charts
    kinds = set()
    for pt in chart_points(curve):
        rel = 9
        if pt.is_infinity:
            # no expansion at O in rrspace: the oracle's chart, t = x/y
            xs, ys = rrspace_oracle._Chart(curve, pt).xy(rel)
            a1, a2, a3, a4, a6 = (LSeries.const(curve.spec, a) for a in curve.a)
            residue = (ys * ys + a1 * xs * ys + a3 * ys
                       - xs * xs * xs - a2 * xs * xs - a4 * xs - a6)
            # x and y have poles of orders 2 and 3 at O
            assert residue.valuation() is None and residue.abs >= rel - 6, pt
            kinds.add("O")
            lead = [(s.valuation(), s.normalized().poly.coeffs[0]) for s in (xs, ys)]
            assert lead == [(-2, 1), (-3, 1)]
            assert (xs.abs, ys.abs) == (rel - 2, rel - 3)
            continue
        xs, ys = _chart(curve, pt).xy(rel)
        ext = pt.ext_spec
        a1, a2, a3, a4, a6 = curve.coeffs_in(ext)
        xx = _mul(xs, xs, rel)
        residue = (_mul(ys, ys, rel) + _mul(xs, ys, rel) * a1 + ys * a3
                   - _mul(xx, xs, rel) - xx * a2 - xs * a4 - Poly.const(ext, a6))
        assert _head(residue, rel).is_zero(), pt
        tors = rrspace_oracle.two_torsion(curve, pt.x, pt.y, ext)
        kinds.add((pt.degree, tors))
        known, other, other0 = (ys, xs, pt.x) if tors else (xs, ys, pt.y)
        assert known.coeffs == ((pt.y if tors else pt.x), 1)
        assert (other.coeffs + (0,))[0] == other0
        assert len(xs.coeffs) <= rel and len(ys.coeffs) <= rel
    assert kinds >= {"O", (1, False), (2, False)} | ({(1, True)} if has_tors else set())


def test_p1_charts_are_x0_plus_t_and_one_over_t():
    line = CurveModel(P1, F5)                                # no cached charts
    inf = ClosedPoint(line, 1, None, None)
    xs, ys = rrspace_oracle._Chart(line, inf).xy(6)          # t = 1/x
    assert ys is None and (xs.v, xs.poly.coeffs, xs.abs) == (-1, (1,), 5)
    for pt in line.closed_points(1)[:2] + line.closed_points(2)[:1]:
        xs, ys = _chart(line, pt).xy(6)
        assert ys.is_zero() and xs.coeffs == (pt.x, 1)


def padded(coeffs, n):
    return list(coeffs[:n]) + [0] * (n - len(coeffs))


def test_charts_match_the_oracle_coefficient_by_coefficient():
    """rrspace's charts, asked afresh for each precision 1..12, against the
    oracle's Laurent charts at affine points of degree 1-3: 2-torsion and
    not, p = 2 with a1 != 0 (F_4) and a1 = 0 (F_16), F_49, and P^1."""
    seen = set()
    # x^3 + x + 1 is irreducible over F_5: 2-torsion points of degree 3
    tors3 = curve_create(ELLIPTIC, (0, 0, 0, 1, 1), F5)
    for name, curve in [("P1-F5", L5), ("F5", E5), ("F5-full", E5_FULL),
                        ("F5-tors3", tors3), ("F4-a1", E4), ("F16-a3", E16),
                        ("F49", E49)]:
        for d in (1, 2, 3):
            affine = [p for p in curve.closed_points(d) if not p.is_infinity]
            tors = [p for p in affine
                    if rrspace_oracle.two_torsion(curve, p.x, p.y, p.ext_spec)]
            for pt in tors[:1] + [p for p in affine if p not in tors][:2]:
                want = rrspace_oracle._Chart(curve, pt).xy(12)
                for n in range(1, 13):
                    got = _Chart(curve, pt).xy(n)
                    for g, w in zip(got, want):
                        if w is None:
                            assert g.is_zero()
                            continue
                        assert w.v == 0 and w.abs == 12
                        assert padded(g.coeffs, n) == [w._coeff_raw(i) for i in range(n)], \
                            (name, pt, n)
                        assert len(g.coeffs) <= max(n, 2)
                seen.add((name, d, pt in tors))
    assert {(d, t) for _, d, t in seen} == {(d, t) for d in (1, 2, 3) for t in (False, True)}
    assert {name for name, _, _ in seen} == {"P1-F5", "F5", "F5-full", "F5-tors3",
                                             "F4-a1", "F16-a3", "F49"}


def test_the_oracle_imports_only_the_space_and_its_error_from_rrspace():
    """The oracle checks rrspace only if it shares none of its code."""
    source = pathlib.Path(rrspace_oracle.__file__).read_text()
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "ruledcodes.rrspace":
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "ruledcodes":
            assert "rrspace" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("ruledcodes.rrspace")
                           for alias in node.names)
    assert names == {"RRSpace", "PoleError"}


def test_rrspace_reads_the_curve_only_through_its_equation():
    """rrspace knows no curve kind: it takes the curve, its points and its
    divisors from curve, and reads neither the kind, the Weierstrass
    coefficients nor the group law."""
    import ruledcodes.rrspace as rrspace

    tree = ast.parse(pathlib.Path(rrspace.__file__).read_text())
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("curve", "ruledcodes.curve"):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    assert names == {"CurveModel", "ClosedPoint", "DivisorOnCurve"}
    assert not attrs & {"kind", "a", "coeffs_in", "ell_neg", "_ell_add"}


def test_a_field_is_its_modulus_in_every_src_module():
    """No src/ module reads a field's tower base (base_card) or a Frobenius
    fixed on the field (frob_i), and only gf builds a FieldSpec: every other
    module takes its fields from field_create and extend, one per order."""
    import ruledcodes

    builders = set()
    for path in sorted(pathlib.Path(ruledcodes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, ast.FunctionDef) else
                    node.arg if isinstance(node, ast.arg) else None)
            assert name not in ("base_card", "frob_i"), (path.name, name)
            if isinstance(node, ast.Call) and "FieldSpec" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                builders.add(path.name)
    assert builders == {"gf.py"}


def valuation_samples(curve, seed):
    """O and points of degree 1-3, and the nonconstant functions of the
    bases of random divisors supported on them."""
    rng = random.Random(seed)
    pts = [ClosedPoint(curve, 1, None, None)]
    for d in (1, 2, 3):
        affine = [p for p in curve.closed_points(d) if not p.is_infinity]
        pts += rng.sample(affine, min(3, len(affine)))
    funcs = []
    while len(funcs) < 8:
        D = DivisorOnCurve(curve, [(p, rng.choice([-2, -1, 1, 2, 3]))
                                   for p in rng.sample(pts, 3)])
        if 1 <= D.degree() <= 7:
            funcs += [f for f in functions(rr_basis(curve, D)) if not is_constant(f)]
    return pts, funcs


@pytest.mark.parametrize("curve", [L5, E5, E4, E16], ids=["P1-F5", "F5", "F4-a1", "F16"])
def test_order_is_a_valuation(curve):
    pts, funcs = valuation_samples(curve, 7)
    pairs = list(zip(funcs, funcs[1:] + funcs[:1]))
    signs = set()
    for pt in pts:
        for f, g in pairs:
            o = order_at(f, pt)
            assert order_at(mul(f, g), pt) == o + order_at(g, pt), (f, g, pt)
            assert order_at(inverse(f), pt) == -o, (f, pt)
            signs.add((o > 0) - (o < 0))
    assert signs == {-1, 0, 1}


def multiplicity(poly, m):
    """How often m divides poly, by repeated division."""
    count = 0
    while True:
        q, r = poly.divmod(m)
        if not r.is_zero():
            return count
        poly, count = q, count + 1


def test_p1_order_counts_the_factor():
    pts, funcs = valuation_samples(L5, 11)
    funcs += [mul(f, g) for f in funcs[:4] for g in funcs[:4]]
    seen = set()
    for pt in pts[1:]:
        m = x_min_poly(L5, pt)
        for f in funcs + [inverse(f) for f in funcs]:
            o = order_at(f, pt)
            assert o == multiplicity(f.num_a, m) - multiplicity(f.den, m), (f, pt)
            seen.add((o > 0) - (o < 0))
    assert seen == {-1, 0, 1}


@pytest.mark.parametrize("curve", [E4, E16], ids=["F4-a1", "F16"])
@pytest.mark.parametrize("m_o", [-1, -2, -3])
def test_rr_basis_with_zeros_at_the_origin(curve, m_o):
    origin = ClosedPoint(curve, 1, None, None)
    affine = [p for p in curve.rational_points() if not p.is_infinity]
    D = DivisorOnCurve(curve, [(curve.closed_points(2)[1], 2), (affine[0], 1),
                               (origin, m_o)])
    basis = functions(rr_basis(curve, D))
    assert len(basis) == D.degree() == 5 + m_o
    check_membership(curve, D, basis)
    # L(D - O) has codimension 1, so some f vanishes at O to order -m_o exactly
    assert min(order_at(f, origin) for f in basis) == -m_o


# -- Riemann-Roch bases -----------------------------------------------------

def test_p1_polynomial_space():
    D = DivisorOnCurve(L5, [(INF5, 3)])
    basis = functions(rr_basis(L5, D))
    assert len(basis) == 4
    assert sorted(f.num_a.degree for f in basis) == [0, 1, 2, 3]
    check_membership(L5, D, basis)


def test_elliptic_weierstrass_space():
    D = DivisorOnCurve(E5, [(O5, 3)])
    basis = functions(rr_basis(E5, D))
    assert len(basis) == 3
    keys = {f.key() for f in basis}
    assert constant(E5, 1).key() in keys
    assert fn_x(E5).key() in keys
    assert fn_y(E5).key() in keys


def test_elliptic_degree3_point():
    Q = E5.closed_points(3)[0]
    D = DivisorOnCurve(E5, [(Q, 1)])
    basis = functions(rr_basis(E5, D))
    assert len(basis) == 3  # deg D + 1 - g
    check_membership(E5, D, basis)


def test_negative_degree_empty():
    p = E5.rational_points()[0]
    D = DivisorOnCurve(E5, [(p, -1)])
    assert functions(rr_basis(E5, D)) == []


def test_p1_negative_degree_empty_without_powering():
    # deg D < 0 is decided before any point's polynomial is raised to |n|
    p, r = [pt for pt in L5.rational_points() if not pt.is_infinity][:2]
    start = time.perf_counter()
    assert functions(rr_basis(L5, DivisorOnCurve(L5, [(p, -10 ** 9)]))) == []
    assert functions(rr_basis(L5, DivisorOnCurve(L5, [(p, 10 ** 9), (r, -10 ** 9 - 1)]))) == []
    assert time.perf_counter() - start < 1


# name: (p, m, coefficients, point degrees): the degrees are those whose
# mixes curve_oracle.divisor_class_sum can add within the field-size cap
DEGREE_ZERO_CURVES = {"F3": (3, 1, (0, 1, 0, 0, 1), (1, 2, 3)),
                      "F4-a1": (2, 2, (1, 0, 0, 0, 1), (1, 2, 3)),
                      "F5": (5, 1, (0, 0, 0, 0, 1), (1, 2, 3)),
                      "F7": (7, 1, (0, 0, 0, 0, 3), (1, 2, 3)),
                      "F16": (2, 4, (0, 0, 1, 0, 8), (1, 2))}


def principal_degree_zero(curve, pts):
    """sum pts - R - (deg - 1) O, R the rational point that the orbits of
    pts add up to, found by the oracle's group law."""
    O = ClosedPoint(curve, 1, None, None)
    deg = sum(p.degree for p in pts)
    total = curve_oracle.divisor_class_sum(
        DivisorOnCurve(curve, [(p, 1) for p in pts] + [(O, -deg)]))
    R = O
    if total is not None:
        ext = extend(curve.spec, math.lcm(*(p.degree for p in pts)))
        R = next(r for r in curve.rational_points() if not r.is_infinity
                 and (ext.embed_i(curve.spec, r.x), ext.embed_i(curve.spec, r.y)) == total)
    return DivisorOnCurve(curve, [(p, 1) for p in pts] + [(R, -1), (O, 1 - deg)])


@pytest.mark.parametrize("name", sorted(DEGREE_ZERO_CURVES))
def test_degree_zero_principal_dichotomy(name):
    """The rank of the vanishing conditions decides degree 0 as the group
    law does: l(D) = 1 exactly when D is principal."""
    p, m, coeffs, degrees = DEGREE_ZERO_CURVES[name]
    curve = curve_create(ELLIPTIC, coeffs, field_create(p, m))
    O = ClosedPoint(curve, 1, None, None)
    rng = random.Random(f"degree zero {name}")
    pools = {d: [pt for pt in curve.closed_points(d) if not pt.is_infinity]
             for d in degrees}
    P, Q = rng.sample(pools[1], 2)
    minus = ClosedPoint(curve, 1, *curve.ell_neg((P.x, P.y), curve.spec))
    # div(x - x0), then P + Q - R - O with R = P + Q, then mixed degrees;
    # P - O is not principal
    divisors = [DivisorOnCurve(curve, [(P, 1), (minus, 1), (O, -2)]),
                principal_degree_zero(curve, [P, Q]),
                DivisorOnCurve(curve, [(P, 1), (O, -1)])]
    divisors += [principal_degree_zero(curve, [rng.choice(pools[d]) for d in ds])
                 for ds in ((2,), degrees[1:], degrees)]
    for _ in range(12):
        support = [rng.choice(pools[rng.choice(degrees)]) for _ in range(rng.randint(1, 3))]
        D = DivisorOnCurve(curve, [(pt, rng.choice([-2, -1, 1, 2])) for pt in support])
        divisors.append(D - DivisorOnCurve(curve, [(O, D.degree())]))
    kinds = set()
    for D in divisors:
        assert D.degree() == 0
        principal = curve_oracle.divisor_class_sum(D) is None
        space = rr_basis(curve, D)
        assert len(space) == principal, D
        check_membership(curve, D, functions(space))
        kinds.add(principal)
    assert kinds == {True, False}


P1_CURVES = {name: curve_create(P1, None, field_create(p, m))
             for name, (p, m) in {"F5": (5, 1), "F7": (7, 1), "F8": (2, 3),
                                  "F9": (3, 2)}.items()}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(P1_CURVES)), data=st.data())
def test_p1_spaces_match_the_closed_form(name, data):
    """On P^1 the pole-order method spans the closed form's space: the same
    rows when D has no negative affine part (no conditions, so the
    nullspace is the identity), else the same rref."""
    curve = P1_CURVES[name]
    pts = curve.closed_points(1) + curve.closed_points(2) + curve.closed_points(3)
    support = data.draw(st.lists(st.sampled_from(pts), min_size=1, max_size=4,
                                 unique_by=ClosedPoint.sort_key))
    mults = data.draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(support),
                               max_size=len(support)))
    D = DivisorOnCurve(curve, list(zip(support, mults)))
    space, closed = rr_basis(curve, D), rrspace_oracle.p1_basis(curve, D)
    assert len(space) == max(D.degree() + 1, 0)
    assert (space.monomials, space.den, space.zeros) == \
        (closed.monomials, closed.den, closed.zeros)
    rows, closed_rows = space.rows.tolist(), closed.rows.tolist()
    if all(n > 0 or pt.is_infinity for pt, n in D.items()):
        assert rows == closed_rows
    assert linalg.rref(curve.spec, rows) == linalg.rref(curve.spec, closed_rows)


def test_riemann_roch_dimensions_randomized():
    rng = random.Random(7)
    for curve in (E5, L5):
        g = curve.genus
        for _ in range(25):
            D = random_divisor(curve, rng)
            dim = len(rr_basis(curve, D))
            deg = D.degree()
            if deg >= 2 * g - 1:
                assert dim == deg + 1 - g, (curve.kind, D, deg)
            if deg < 0:
                assert dim == 0


def test_rr_membership_randomized():
    rng = random.Random(11)
    for curve in (E5, L5):
        for _ in range(8):
            D = random_divisor(curve, rng, min_deg=0, max_deg=7)
            basis = functions(rr_basis(curve, D))
            check_membership(curve, D, basis)


def test_rr_monotonicity():
    rng = random.Random(3)
    for _ in range(6):
        D = random_divisor(E5, rng, min_deg=0, max_deg=6)
        P = E5.closed_points(2)[rng.randrange(len(E5.closed_points(2)))]
        d1 = len(rr_basis(E5, D))
        d2 = len(rr_basis(E5, D + DivisorOnCurve(E5, [(P, 1)])))
        assert d1 <= d2 <= d1 + P.degree


def test_rr_products_land_in_sum_space():
    rng = random.Random(5)
    D1 = random_divisor(E5, rng, min_deg=1, max_deg=4)
    D2 = random_divisor(E5, rng, min_deg=1, max_deg=4)
    b1 = functions(rr_basis(E5, D1))
    b2 = functions(rr_basis(E5, D2))
    Dsum = D1 + D2
    for f in b1[:3]:
        for g in b2[:3]:
            prod = mul(f, g)
            if prod.is_zero():
                continue
            for pt in Dsum.support():
                assert order_at(prod, pt) + Dsum.multiplicity(pt) >= 0


def test_basis_linear_independence():
    # functions are echelonized against the ambient monomial order, so a
    # repeated canonical form would be a bug
    Q = E5.closed_points(2)[1]
    D = DivisorOnCurve(E5, [(Q, 2)])
    basis = functions(rr_basis(E5, D))
    assert len({f.key() for f in basis}) == len(basis)


def test_divisor_degree_sum_is_zero():
    # for f = m(x) (minimal polynomial of an x-coordinate) the full divisor
    # is known: zeros on the x-fiber, poles only at the origin; the weighted
    # valuations must cancel exactly
    from ruledcodes.rrspace import _x_fiber

    for pt in (E5.closed_points(2)[0], E5.closed_points(3)[1],
               E5.rational_points()[0]):
        m, fiber = _x_fiber(E5, pt)
        f = CurveFunction(E5, m, Poly.zero(F5), Poly.one(F5))
        total = 0
        for cp, e_exp in fiber:
            o = order_at(f, cp)
            assert o == e_exp
            total += o * cp.degree
        total += order_at(f, O5) * 1
        assert total == 0


def scan_x_fiber(curve, m):
    """Oracle for _x_fiber: every closed point of degree deg(m) or 2 deg(m)
    whose x-coordinate is a root of m."""
    fiber = []
    for dd in sorted({m.degree, 2 * m.degree}):
        ext = extend(curve.spec, dd)
        # m over ext, embedded once rather than at every point
        m_ext = Poly(ext, [ext.embed_i(curve.spec, c) for c in m.coeffs])
        for cp in curve.closed_points(dd):
            if not cp.is_infinity and m_ext.eval_i(cp.x) == 0:
                e = 2 if rrspace_oracle.two_torsion(curve, cp.x, cp.y, ext) else 1
                fiber.append((cp, e))
    return fiber


@pytest.mark.parametrize("pm, coeffs, dmax, shapes", [
    ((5, 1), (0, 0, 0, 0, 1), 3, {"2-torsion", "deg x = d/2", "P, -P"}),
    ((2, 2), (1, 0, 0, 0, 1), 3, {"2-torsion", "P, -P"}),
    ((2, 4), (0, 0, 1, 0, 0), 2, {"deg x = d/2", "P, -P"}),
    ((5, 1), None, 3, {"the point itself"}),
], ids=["F5", "F4-a1", "F16-a3", "P1-F5"])
def test_x_fiber_matches_scan(pm, coeffs, dmax, shapes):
    from ruledcodes.rrspace import _x_fiber

    curve = curve_create(P1 if coeffs is None else ELLIPTIC, coeffs, field_create(*pm))
    scans = {}                          # P and -P share m and its scan
    seen = set()
    for d in range(1, dmax + 1):
        for pt in curve.closed_points(d):
            if pt.is_infinity:
                continue
            m, fiber = _x_fiber(curve, pt)
            assert m == x_min_poly(curve, pt)
            if m.coeffs not in scans:
                scans[m.coeffs] = scan_x_fiber(curve, m)
            assert sorted(fiber, key=lambda ce: ce[0].sort_key()) == \
                scans[m.coeffs]
            if fiber[0][1] == 2:
                seen.add("2-torsion")
            elif len(fiber) == 2:
                seen.add("P, -P")
            else:
                seen.add("the point itself" if m.degree == d else "deg x = d/2")
    assert seen == shapes


@pytest.mark.parametrize("d", [2, 3])
def test_rr_basis_needs_only_the_points_field(d):
    curve = CurveModel(ELLIPTIC, field_create(5, 1), (0, 0, 0, 0, 1))
    P = curve.closed_points(d)[-1]
    assert len(rr_basis(curve, DivisorOnCurve(curve, [(P, 2)]))) == 2 * d
    assert 2 * d not in curve._closed_cache


def test_rr_basis_degree_four_point():
    curve = CurveModel(ELLIPTIC, field_create(5, 1), (0, 0, 0, 0, 1))
    P = curve.closed_points(4)[0]
    D = DivisorOnCurve(curve, [(P, 1)])
    basis = functions(rr_basis(curve, D))
    assert len(basis) == 4
    check_membership(curve, D, basis)
    assert 8 not in curve._closed_cache


def test_x_min_poly():
    Q = next(p for p in E5.closed_points(2)
             if len({gx for gx, _ in p.orbit()}) == 2)
    m = x_min_poly(E5, Q)
    assert m.degree == 2
    assert m.eval_i(Q.x, target=Q.ext_spec) == 0


@pytest.mark.parametrize("pm, d", [((5, 1), 2), ((2, 2), 3), ((7, 2), 2),
                                   ((2, 4), 1)])
def test_coerce_down_reads_the_subfield_back(pm, d):
    """A polynomial's coefficients are read back to the subfield for every
    element embedded from it, and a coefficient outside it is refused."""
    small = field_create(*pm)
    big = extend(small, d)
    embedded = [big.embed_i(small, c) for c in range(small.order)]
    assert _coerce_down(small, big, Poly(big, embedded)).coeffs == tuple(range(small.order))
    outside = [e for e in range(big.order) if e not in embedded]
    for e in outside[:5]:
        with pytest.raises(AssertionError, match="not in the base field"):
            _coerce_down(small, big, Poly(big, [1, e]))


@pytest.mark.parametrize("pm, d", [((5, 1), 2), ((5, 1), 3), ((2, 1), 4),
                                   ((2, 2), 2), ((2, 2), 3)])
def test_subfield_coords_round_trip(pm, d):
    small = field_create(*pm)
    big = extend(small, d)
    rows = subfield_coords(small, big, [list(range(big.order))])
    assert len(rows) == d
    z_pows = [big.pow_i(big.p, j) for j in range(d)]  # encoding p is z
    for enc, cs in enumerate(zip(*rows)):
        assert all(0 <= c < small.order for c in cs)
        total = 0
        for c, zj in zip(cs, z_pows):
            total = big.add_i(total, big.mul_i(big.embed_i(small, c), zj))
        assert total == enc


@pytest.mark.parametrize("pm, d", [((5, 1), 1), ((5, 1), 3), ((2, 2), 2)])
def test_subfield_coords_shape_contract(pm, d):
    """A k x M matrix gives d k rows of length M, coordinate t of row r in
    row t k + r; no rows give none."""
    small = field_create(*pm)
    big = extend(small, d)
    rng = random.Random(d)
    mat = [[rng.randrange(big.order) for _ in range(5)] for _ in range(3)]
    rows = subfield_coords(small, big, mat)
    assert len(rows) == 3 * d and all(len(row) == 5 for row in rows)
    for r in range(3):
        for c in range(5):
            single = subfield_coords(small, big, [[mat[r][c]]])
            assert [rows[t * 3 + r][c] for t in range(d)] == [s for s, in single]
    if d == 1:
        assert rows == mat
    assert subfield_coords(small, big, []) == []


@pytest.mark.parametrize("pm", [(2, 4), (7, 2)], ids=["F16", "F49"])
def test_subfield_coords_identity_shortcut(pm):
    # the rows a field returns over itself are those of the general
    # coordinate map, with the basis matrix of F over F
    spec = field_create(*pm)
    mat = [list(range(spec.order)), list(range(spec.order))[::-1]]
    general = fqarray.coords(spec, spec, mat)
    assert subfield_coords(spec, spec, mat) == general.tolist() == mat


# sha256 of the bases below, each with its zero or pole at O
RR_ZEROS_AT_O_DIGEST = "f0742c5a27523409e516e810f427aee43fa617df167ab97cc62e90609cc10a25"


def test_rr_bases_with_zeros_at_origin_are_pinned():
    """Bases of divisors with a zero (m_o < 0) or a pole at O, which
    enters only through the ambient bound M'."""
    lines = []
    for coeffs, pm in [((1, 0, 0, 0, 1), (2, 2)), ((0, 0, 1, 0, 8), (2, 4)),
                       ((0, 0, 0, 1, 0), (7, 2))]:
        curve = curve_create(ELLIPTIC, coeffs, field_create(*pm))
        O = ClosedPoint(curve, 1, None, None)
        affine = next(P for P in curve.rational_points() if not P.is_infinity)
        for m_o in (-1, -2, -3, 0, 2):
            D = DivisorOnCurve(curve, [(curve.closed_points(2)[1], 2),
                                       (curve.closed_points(3)[0], 1),
                                       (affine, 1), (O, m_o)])
            lines.append(repr([f.key() for f in functions(rr_basis(curve, D))]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == RR_ZEROS_AT_O_DIGEST


def test_equal_divisors_share_one_space():
    curve = CurveModel(ELLIPTIC, F5, (0, 0, 0, 0, 1))          # no cached spaces
    P, Q = curve.closed_points(2)[0], curve.closed_points(3)[0]
    O = ClosedPoint(curve, 1, None, None)
    D = DivisorOnCurve(curve, [(P, 2), (Q, -1), (O, 1)])
    space = rr_basis(curve, D)
    # built separately, in another order, from points found again
    again = DivisorOnCurve(curve, [(ClosedPoint(curve, 1, None, None), 1),
                                   (ClosedPoint(curve, 3, Q.x, Q.y), -1),
                                   (curve.closed_points(2)[0], 1)])
    assert rr_basis(curve, again + DivisorOnCurve(curve, [(P, 1)])) is space
    assert rr_basis(curve, D + DivisorOnCurve(curve, [(O, 1)])) is not space
    assert rr_basis(CurveModel(ELLIPTIC, F5, (0, 0, 0, 0, 1)), D) is not space
    assert len(curve._spaces) == 2


def test_rr_basis_does_not_keep_its_curve_alive():
    def live_curves():
        return sum(isinstance(o, CurveModel) for o in gc.get_objects())

    gc.collect()
    before = live_curves()
    curve = CurveModel(ELLIPTIC, field_create(5, 1), (0, 0, 0, 0, 1))
    P = curve.closed_points(3)[0]     # expansions at -P need a local chart
    assert len(rr_basis(curve, DivisorOnCurve(curve, [(P, 1)]))) == 3
    del curve, P
    gc.collect()
    assert live_curves() == before


# -- bounded-degree function enumeration (the Segre test oracle) ---------

def test_no_degree_one_functions_on_elliptic():
    funcs = functions_up_to_degree(E5, 1)
    assert len(funcs) == 5
    assert all(d == 0 for _, d in funcs.values())


def test_bounded_degree_function_count_bound():
    # F_{2g-1} <= q + h (q^g - q)(q^g - 1)/(q - 1);  g = 1 makes this q
    q, g, h = 5, 1, E5.class_number()
    funcs = functions_up_to_degree(E5, 2 * g - 1)
    bound = q + h * (q ** g - q) * (q ** g - 1) // (q - 1)
    assert len(funcs) <= bound


def test_p1_degree_one_functions_count():
    funcs = functions_up_to_degree(L5, 1)
    nonconstant = [f for f, d in funcs.values() if d == 1]
    assert len(nonconstant) == 5 ** 3 - 5  # #PGL_2(F_5)
    assert len(funcs) == 5 + len(nonconstant)


def test_effective_divisor_enumeration_counts():
    # degree-2 effective divisors on P^1: pairs of rational points or one
    # degree-2 point: C(6+1, 2) + 10
    divs = effective_divisors(L5, 2)
    assert len(divs) == 21 + 10


def test_function_degree_matches_pole_count():
    D = DivisorOnCurve(E5, [(E5.closed_points(2)[0], 1)])
    for f in functions(rr_basis(E5, D)):
        if is_constant(f):
            continue
        assert function_degree(f, D) == 2
