import itertools
import os
import random

import pytest

from ruledcodes import linalg
from ruledcodes.gf import field_create, extend
from ruledcodes.curve import curve_create, DivisorOnCurve, ELLIPTIC
from ruledcodes.surface import (surface_decomposable, surface_elm_product,
                                surface_trivial, INFTY)
from ruledcodes.codes import (build_curve_code, build_prs,
                              build_code_decomposable, build_code_elm)
from ruledcodes.locality import (fiber_ranks, restriction_section,
                                 recovery_sets, recover, _lagrange_weights)
from locality_oracle import restriction_fiber, section_restriction_contained
from ruledcodes.cli import _build_code, load_config

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
        assert linalg.row_space_equal(F5, sub.matrix, base.matrix)


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
        assert linalg.row_space_contains(F5, outer.matrix, sub.matrix)


def test_recovery_sets_counts_and_disjointness():
    code = demo_code()
    sets = recovery_sets(code)
    assert len(sets) == 36
    for target, rsets in sets.items():
        assert len(rsets) == 5 // 2  # floor(q/(a+1)) = 2
        used = set()
        fiber = {i for i, col in enumerate(code.columns)
                 if col[0] == code.columns[target][0]}
        for rs in rsets:
            assert len(rs.helpers) == 2
            assert target not in rs.helpers
            assert set(rs.helpers) <= fiber
            assert not (set(rs.helpers) & used)
            used |= set(rs.helpers)


def test_rank_deficient_fiber_refuses_recovery():
    with pytest.raises(ValueError):
        recovery_sets(b3_code())


def test_recover_roundtrip_sampled():
    code = demo_code()
    sets = recovery_sets(code)
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
            for rs in sets[t]:
                erased = list(word)
                erased[t] = None
                assert recover(erased, t, rs, F5) == word[t]


def test_recover_roundtrip_elm_code():
    f25 = extend(F5, 2)
    embedded = {f25.embed_i(F5, v) for v in range(5)}
    fc = next(e for e in range(25) if e not in embedded)
    surf = surface_elm_product(E5, E5.closed_points(2)[0], fc)
    beta = DivisorOnCurve(E5, [(E5.closed_points(3)[0], 1)])
    code = build_code_elm(surf, 1, beta)
    sets = recovery_sets(code)
    word = code.matrix[2]
    for t in (0, 5, 17, 35):
        for rs in sets[t]:
            erased = list(word)
            erased[t] = None
            assert recover(erased, t, rs, F5) == word[t]


def test_recover_target_at_infinity_is_leading_coefficient():
    code = demo_code()
    sets = recovery_sets(code)
    inf_cols = [i for i, col in enumerate(code.columns) if col[1] == INFTY]
    word = code.matrix[0]
    for t in inf_cols:
        for rs in sets[t]:
            erased = list(word)
            erased[t] = None
            assert recover(erased, t, rs, F5) == word[t]


def test_recover_erased_helper_raises():
    code = demo_code()
    sets = recovery_sets(code)
    rs = sets[0][0]
    word = [0] * 36
    word[rs.helpers[0]] = None
    with pytest.raises(ValueError):
        recover(word, 0, rs, F5)


def test_recovery_export_shape():
    code = demo_code()
    sets = recovery_sets(code)
    rec = sets[3][0].as_dict()
    assert set(rec) == {"target", "helpers", "coefficients"}
    assert rec["target"] == 3


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
