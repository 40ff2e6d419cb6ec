import itertools
import json
import os
import random
import re

import numpy as np
import pytest

from ruledcodes import fqarray, linalg
from ruledcodes.gf import field_create, extend
from ruledcodes.curve import curve_create, DivisorOnCurve, ELLIPTIC, P1
from ruledcodes.surface import (surface_decomposable, surface_elm_product,
                                surface_trivial, INFTY)
from ruledcodes.codes import (LinearCode, build_curve_code, build_prs,
                              build_code_decomposable, build_code_elm,
                              build_product_code)
from ruledcodes.locality import (fiber_ranks, restriction_section,
                                 recovery_sets, recover, _lagrange_weights)
from linalg_oracle import row_space_contains, row_space_equal
from locality_oracle import (recovery_sets_by_target, restriction_fiber,
                             section_restriction_contained)
from ruledcodes.cli import _build_code, _valid_fiber_coords, load_config, recovery_json

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "scripts", "configs")

F5 = field_create(5, 1)
E5 = curve_create(ELLIPTIC, (0, 0, 0, 0, 1), F5)


def demo_code():
    """e=2, a=1, b=4: the smallest decomposable demo whose fibers all have
    full restriction rank (b >= ae + 2 keeps every beta - i*delta - p
    nonspecial)."""
    surf = surface_decomposable(
        E5, DivisorOnCurve(E5, [(E5.closed_points(2)[0], 1)]))
    beta = DivisorOnCurve(E5, [(E5.closed_points(2)[1], 2)])
    return build_code_decomposable(surf, 1, beta)


def b3_code():
    """e=2, a=1, b=3: the decomposable family demo code; beta - delta is a degree-1
    class, hence equivalent to exactly one rational point, whose fiber
    restriction is rank-deficient."""
    surf = surface_decomposable(
        E5, DivisorOnCurve(E5, [(E5.closed_points(2)[0], 1)]))
    beta = DivisorOnCurve(E5, [(E5.closed_points(3)[0], 1)])
    return build_code_decomposable(surf, 1, beta)


def all_codewords(code):
    spec = code.spec
    for msg in itertools.product(range(spec.order), repeat=code.k):
        word = [0] * code.n
        for m, row in zip(msg, code.matrix):
            if m:
                word = [spec.add_i(w, spec.mul_i(m, v)) for w, v in zip(word, row)]
        yield word


def test_every_fiber_restriction_is_prs():
    code = demo_code()
    for p in E5.rational_points():
        sub = restriction_fiber(code, p)
        assert sub.n == 6
        assert sub.meta["rank"] == 2
        assert sub.meta["equals_prs"]


def test_a0_fiber_restriction_is_repetition():
    surf = surface_trivial(E5)
    beta = DivisorOnCurve(E5, [(E5.closed_points(3)[0], 1)])
    code = build_code_decomposable(surf, 0, beta)
    for p in E5.rational_points()[:2]:
        sub = restriction_fiber(code, p)
        assert sub.meta["rank"] == 1
        assert sub.meta["equals_prs"]  # PRS(0) is the repetition code


def test_small_beta_can_drop_fiber_rank():
    # b = ae + 1 is too small: one fiber drops below rank a+1, flagged not fatal
    code = b3_code()
    subs = [restriction_fiber(code, p) for p in E5.rational_points()]
    assert all(s.meta["rank"] <= 2 for s in subs)
    flagged = [s for s in subs if s.meta["rank"] < 2]
    assert flagged
    assert all(not s.meta["equals_prs"] for s in flagged)


def test_b3_code_has_exactly_one_rank_deficient_fiber():
    # deg(beta - delta) = 1, so beta - delta ~ p0 for exactly one rational
    # point p0 and the single function of L(beta - delta) vanishes there:
    # the fiber over p0 cannot reach rank a+1.  This is the obstruction to
    # fiberwise recovery at b = ae + 1.
    from ruledcodes.curve import divisor_class_sum

    code = b3_code()
    surf = code.meta["surface"]
    beta = code.meta["beta"]
    bad = [p for p in E5.rational_points()
           if restriction_fiber(code, p).meta["rank"] != 2]
    assert len(bad) == 1
    D = beta - surf.delta - DivisorOnCurve(E5, [(bad[0], 1)])
    assert divisor_class_sum(D) is None  # beta - delta ~ the bad point


def test_fiber_restriction_unknown_point():
    code = demo_code()
    with pytest.raises(ValueError):
        restriction_fiber(code, E5.closed_points(2)[0])


def test_section_restrictions_contained_in_curve_codes():
    code = demo_code()
    assert section_restriction_contained(code, "zero")
    assert section_restriction_contained(code, "infinity")


def test_section_restriction_a0_equals_curve_code():
    surf = surface_trivial(E5)
    beta = DivisorOnCurve(E5, [(E5.closed_points(3)[0], 1)])
    code = build_code_decomposable(surf, 0, beta)
    base = build_curve_code(E5, beta)
    for sel in ("zero", "infinity"):
        sub = restriction_section(code, sel)
        assert row_space_equal(F5, sub.matrix, base.matrix)


def test_section_restriction_explicit_graph():
    code = demo_code()
    fibers = [2] * 6
    sub = restriction_section(code, fibers)
    assert sub.n == 6


def test_constant_graph_sections_contained_in_beta_code():
    # on the trivial surface, the section {u = c} restricts every codeword
    # to evaluations of sum f_i c^i, a function of L(beta)
    surf = surface_trivial(E5)
    beta = DivisorOnCurve(E5, [(E5.closed_points(3)[0], 1)])
    code = build_code_decomposable(surf, 2, beta)
    outer = build_curve_code(E5, beta)
    for c in range(5):
        sub = restriction_section(code, [c] * 6)
        assert row_space_contains(F5, outer.matrix, sub.matrix)


def test_recovery_sets_counts_and_disjointness():
    code = demo_code()
    helpers, coefficients = recovery_sets(code)
    # 36 columns, floor(q/(a+1)) = 2 sets each, of a+1 = 2 helpers
    assert helpers.shape == coefficients.shape == (36, 5 // 2, 2)
    for target, rsets in enumerate(helpers.tolist()):
        assert len(rsets) == 5 // 2
        used = set()
        fiber = {i for i, col in enumerate(code.columns)
                 if col[0] == code.columns[target][0]}
        for hs in rsets:
            assert len(hs) == 2
            assert target not in hs
            assert set(hs) <= fiber
            assert not (set(hs) & used)
            used |= set(hs)


def _locality_code(pm, a, family):
    """A code whose fibers all have rank a+1: over P^1, delta (or the elm
    center) the degree-2 point of index 0 and beta a multiple of the one of
    index 1.  The decomposable a = 3 code needs 3 deg(delta) + 2 <= b < N,
    which P^1 over F_5 cannot offer; it takes an elliptic curve with N = 9
    and beta = 4 delta."""
    spec = field_create(*pm)
    if (pm, a, family) == ((5, 1), 3, "decomposable"):
        curve = curve_create(ELLIPTIC, (0, 0, 0, 1, 1), spec)
        point = curve.closed_points(2)[0]
        return build_code_decomposable(
            surface_decomposable(curve, DivisorOnCurve(curve, [(point, 1)])), a,
            DivisorOnCurve(curve, [(point, 4)]))
    curve = curve_create(P1, None, spec)
    center, point = curve.closed_points(2)[:2]
    mult = {"decomposable": max(a, 1), "elm": 1 + a // 3, "product": 1}[family]
    beta = DivisorOnCurve(curve, [(point, mult)])
    if family == "decomposable":
        surface = surface_decomposable(curve, DivisorOnCurve(curve, [(center, 1)]))
        return build_code_decomposable(surface, a, beta)
    if family == "elm":
        fc = _valid_fiber_coords(center.ext_spec, spec)[0]
        return build_code_elm(surface_elm_product(curve, center, fc), a, beta)
    return build_product_code(curve, a, beta)


# every field, a and family but the decomposable a = 3 code over F_4: it
# needs 8 <= b < N, P^1 over F_4 has N = 5, and no elliptic curve over F_4
# gives full-rank fibers with delta and beta / 4 degree-2 points
LOCALITY_CASES = [(pm, a, family)
                  for pm in [(2, 2), (5, 1), (7, 1), (3, 2)] for a in range(4)
                  for family in ("decomposable", "elm", "product")
                  if (pm, a, family) != ((2, 2), 3, "decomposable")]


@pytest.mark.parametrize("pm, a, family", LOCALITY_CASES)
def test_recovery_arrays_match_the_per_target_loop(pm, a, family):
    # a + 1 does not divide q for F_4 with a = 2, F_5 with a = 1, 2, 3, and
    # more; every fiber has a target at infinity
    code = _locality_code(pm, a, family)
    assert code.meta["a"] == a
    helpers, coefficients = recovery_sets(code)
    expected = recovery_sets_by_target(code)
    assert helpers.dtype == coefficients.dtype == np.int64
    assert helpers.shape == (code.n, code.spec.order // (a + 1), a + 1)
    assert helpers.tolist() == [[h for h, _ in expected[t]] for t in range(code.n)]
    assert coefficients.tolist() == [[c for _, c in expected[t]] for t in range(code.n)]


def test_punctured_fiber_refuses_recovery():
    # two columns of one fiber removed: its 4 points keep rank a + 1 = 2 but
    # cannot hold 2 disjoint pairs of helpers beside a target
    code = demo_code()
    keep = [i for i in range(code.n) if i not in (1, 2)]
    punctured = LinearCode(code.spec, [[row[i] for i in keep] for row in code.matrix],
                           [code.columns[i] for i in keep], code.meta)
    assert code.columns[1][0] == code.columns[2][0]
    assert fiber_ranks(punctured)[code.columns[1][0]] == 2
    with pytest.raises(ValueError, match=re.escape(
            f"fiber over {code.columns[1][0]!r} has 4 points")):
        recovery_sets(punctured)


def test_columns_off_the_fibers_refuse_recovery():
    # PRS(1) carries a but its columns are fiber coordinates, not surface points
    with pytest.raises(ValueError, match="not points of a fiber"):
        recovery_sets(build_prs(F5, 1))


def test_every_set_restores_a_codeword_at_n_3200():
    # the F_49 max-curve code a = 2, b = 8: all 3200 x 16 sets recover their
    # target of one seeded random codeword, in one array expression
    spec = field_create(7, 2)
    curve = curve_create(ELLIPTIC, (0, 0, 0, 1, 0), spec)
    delta, beta = curve.closed_points(2)[:2]
    code = build_code_decomposable(
        surface_decomposable(curve, DivisorOnCurve(curve, [(delta, 1)])), 2,
        DivisorOnCurve(curve, [(beta, 4)]))
    assert (code.k, code.n) == (18, 3200)
    helpers, coefficients = recovery_sets(code)
    assert helpers.shape == (3200, 16, 3)
    rng = random.Random(3200)
    word = linalg.mat_mul(spec, [[rng.randrange(49) for _ in range(code.k)]],
                          code.matrix)[0]
    terms = fqarray.mul(spec, fqarray.digits(spec, coefficients),
                        fqarray.digits(spec, word[helpers]))
    assert (fqarray.encode(spec, terms.sum(axis=-1) % spec.p) == word[:, None]).all()


def test_rank_deficient_fiber_refuses_recovery():
    with pytest.raises(ValueError):
        recovery_sets(b3_code())


def test_recover_roundtrip_sampled():
    code = demo_code()
    helpers, coefficients = recovery_sets(code)
    rng = random.Random(1)
    targets = rng.sample(range(36), 6)
    spec = code.spec
    for _ in range(400):
        msg = [rng.randrange(5) for _ in range(code.k)]
        word = [0] * code.n
        for m, row in zip(msg, code.matrix):
            if m:
                word = [spec.add_i(w, spec.mul_i(m, v)) for w, v in zip(word, row)]
        for t in targets:
            for hs, cs in zip(helpers[t], coefficients[t]):
                erased = list(word)
                erased[t] = None
                assert recover(erased, hs, cs, F5) == word[t]


def test_recover_roundtrip_elm_code():
    f25 = extend(F5, 2)
    embedded = {f25.embed_i(F5, v) for v in range(5)}
    fc = next(e for e in range(25) if e not in embedded)
    surf = surface_elm_product(E5, E5.closed_points(2)[0], fc)
    beta = DivisorOnCurve(E5, [(E5.closed_points(3)[0], 1)])
    code = build_code_elm(surf, 1, beta)
    helpers, coefficients = recovery_sets(code)
    word = code.matrix[2]
    for t in (0, 5, 17, 35):
        for hs, cs in zip(helpers[t], coefficients[t]):
            erased = list(word)
            erased[t] = None
            assert recover(erased, hs, cs, F5) == word[t]


def test_recover_target_at_infinity_is_leading_coefficient():
    code = demo_code()
    helpers, coefficients = recovery_sets(code)
    inf_cols = [i for i, col in enumerate(code.columns) if col[1] == INFTY]
    word = code.matrix[0]
    for t in inf_cols:
        for hs, cs in zip(helpers[t], coefficients[t]):
            erased = list(word)
            erased[t] = None
            assert recover(erased, hs, cs, F5) == word[t]


def test_recover_erased_helper_raises():
    code = demo_code()
    helpers, coefficients = recovery_sets(code)
    word = [0] * 36
    word[helpers[0, 0, 0]] = None
    with pytest.raises(ValueError):
        recover(word, helpers[0, 0], coefficients[0, 0], F5)


def test_recovery_export_shape():
    code = demo_code()
    sets = recovery_sets(code)
    records = json.loads(recovery_json(*sets))
    rec = records[3 * 2]        # column 3's first set
    assert set(rec) == {"target", "helpers", "coefficients"}
    assert rec["target"] == 3
    assert rec["helpers"] == sets.helpers[3, 0].tolist()
    assert rec["coefficients"] == sets.coefficients[3, 0].tolist()


@pytest.mark.parametrize("a", [0, 1, 2, 3])
@pytest.mark.parametrize("pm", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_lagrange_weights_match_solve(pm, a):
    # the helper chunks recovery_sets takes from P^1(F_q) minus the target in
    # canonical order, and again in reverse order so that infinity helps the
    # first chunk, against the linear solve on the PRS(a) columns
    spec = field_create(*pm)
    prs = build_prs(spec, a)
    column = {u: j for j, u in enumerate(prs.columns)}
    r = a + 1
    seen = set()
    for target in prs.columns:
        others = [u for u in prs.columns if u != target]
        for order in (others, others[::-1]):
            for s in range(spec.order // r):
                helpers = tuple(order[s * r:(s + 1) * r])
                system = [[prs.matrix[i][column[u]] for u in helpers]
                          for i in range(r)]
                rhs = [prs.matrix[i][column[target]] for i in range(r)]
                assert _lagrange_weights(spec, helpers, target) == \
                    tuple(linalg.solve(spec, system, rhs))
                seen.add((target == INFTY, INFTY in helpers))
    assert {(False, True), (True, False)} <= seen


@pytest.mark.parametrize("name", ["decomposable_demo", "elm_demo", "locality_demo"])
def test_fiber_ranks_match_the_fiber_restrictions(name):
    code = _build_code(load_config(os.path.join(CONFIGS, f"{name}.json")))
    ranks = fiber_ranks(code)
    assert list(ranks) == code.meta["curve"].rational_points()
    assert ranks == {p: restriction_fiber(code, p).meta["rank"] for p in ranks}
