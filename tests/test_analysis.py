import random
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from ruledcodes import linalg
from ruledcodes.gf import field_create
from ruledcodes.codes import LinearCode, build_prs
from ruledcodes.analysis import (bound_elm_family, bound_decomposable_family,
                                 bound_unisecant, section_count_profile,
                                 exact_params, griesmer_check, singleton_check,
                                 CapExceededError)

F5 = field_create(5, 1)
F4 = field_create(2, 2)
# F_2, F_3, F_4, F_5, F_7, F_8, F_9: prime fields, p = 2 and odd-p extensions
SMALL_FIELDS = [field_create(p, m) for p, m in
                ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]


def test_elm_demo():
    rep = bound_elm_family(5, 6, 1, 2, 1, 3)
    assert (rep.n, rep.k_lower, rep.d_lower) == (36, 4, 18)
    assert rep.valid
    assert rep.achieving["m"] == 1


def test_elm_family_a0_collapse():
    rep = bound_elm_family(5, 6, 1, 2, 0, 3)
    assert rep.k_lower == 3
    assert rep.d_lower == 6 * 3


def test_elm_family_invalid_b():
    rep = bound_elm_family(5, 6, 1, 2, 1, 6)
    assert not rep.valid
    assert not rep.flags["b_range"]


def test_decomposable_demo():
    rep = bound_decomposable_family(5, 6, 1, 2, 1, 3)
    assert (rep.n, rep.k_lower, rep.d_lower) == (36, 4, 15)
    assert rep.valid
    assert rep.achieving["case"] == "b>=ae"


def test_decomposable_family_a0():
    rep = bound_decomposable_family(5, 6, 1, 2, 0, 3)
    assert rep.d_lower == 6 * 3
    assert rep.achieving["case"] == "a=0"


def test_decomposable_family_b_less_than_ae():
    # the b < ae case, with the value consistent with the fiber-count
    # inequality: min{(q - floor(b/e))(N - b + floor(b/e) e), q(N - b)}
    rep = bound_decomposable_family(5, 6, 1, 3, 2, 4)
    assert rep.achieving["case"] == "b<ae"
    assert rep.d_lower == min((5 - 1) * (6 - 4 + 3), 5 * (6 - 4))
    assert rep.d_lower == 10


def test_decomposable_family_invalid_injectivity():
    rep = bound_decomposable_family(5, 6, 1, 4, 2, 3)
    assert not rep.valid


def test_unisecant_bounds():
    rep = bound_unisecant(5, 6, 1, -2, -2, 3)
    assert (rep.k_lower, rep.d_lower) == (4, 15)
    assert rep.valid
    rep2 = bound_unisecant(5, 6, 1, 0, 0, 2)
    assert (rep2.k_lower, rep2.d_lower) == (4, 20)


def test_unisecant_parity_error():
    with pytest.raises(ValueError):
        bound_unisecant(5, 6, 1, 1, 0, 2)


def test_profile_family1_demo():
    profile, best = section_count_profile(
        "elm_surface", {"q": 5, "N": 6, "g": 1, "d": 2, "a": 1, "b": 3})
    assert profile == [(0, 18), (1, 11)]
    assert best == 18
    assert 36 - best == bound_elm_family(5, 6, 1, 2, 1, 3).d_lower


def test_profile_family2_demo():
    profile, best = section_count_profile(
        "decomposable_surface", {"q": 5, "N": 6, "g": 1, "e": 2, "a": 1, "b": 3})
    assert [t for t, _ in profile] == [0, 1, 2, 3]
    assert best == 21
    assert 36 - best == 15


def test_profile_family2_a0_affine():
    profile, best = section_count_profile(
        "decomposable_surface", {"q": 5, "N": 6, "g": 1, "e": 2, "a": 0, "b": 3})
    assert best == (5 + 1) * 3


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 7), st.integers(1, 12), st.integers(0, 2),
       st.integers(1, 4), st.integers(0, 6), st.integers(0, 11))
def test_profile_consistency_randomized(q, N, g, e, a, b):
    if b >= N or a > q:
        return
    profile, best = section_count_profile(
        "decomposable_surface", {"q": q, "N": N, "g": g, "e": e, "a": a, "b": b})
    assert (q + 1) * N - best == bound_decomposable_family(q, N, g, e, a, b).d_lower
    profile, best = section_count_profile(
        "elm_surface", {"q": q, "N": N, "g": g, "d": e, "a": a, "b": b})
    assert (q + 1) * N - best == bound_elm_family(q, N, g, e, a, b).d_lower


def _weights(spec, rows, n):
    """Weight distribution of the row space, by building the span as a set."""
    span = {(0,) * n}
    for row in rows:
        mults = [[spec.mul_i(c, v) for v in row] for c in range(spec.order)]
        span = {tuple(spec.add_i(a, b) for a, b in zip(word, m))
                for word in span for m in mults}
    dist = [0] * (n + 1)
    for word in span:
        dist[sum(1 for v in word if v)] += 1
    return dist


def _params(spec, dist, n):
    """(n, k, d) from a weight distribution; d = 0 for the zero code."""
    k = 0
    while spec.order ** k < sum(dist):
        k += 1
    return n, k, next((i for i in range(1, n + 1) if dist[i]), 0)


def _code(spec, rows, n):
    return LinearCode(spec, rows, list(range(n)))


def test_exact_params_prs():
    assert exact_params(build_prs(F5, 1)) == (6, 2, 5)
    assert exact_params(build_prs(F4, 2)) == (5, 3, 3)


def test_exact_params_repetition():
    code = LinearCode(F5, [[1] * 36], list(range(36)))
    assert exact_params(code) == (36, 1, 36)


def test_exact_params_rank_deficient_rows():
    code = LinearCode(F5, [[1, 2, 3], [0, 1, 4]], list(range(3)))
    dup = LinearCode(F5, [[1, 2, 3], [0, 1, 4], [1, 3, 2]], list(range(3)))
    assert exact_params(code)[1] == 2
    assert exact_params(dup)[1] == 2  # third row is the sum of the others
    assert exact_params(code)[2] == exact_params(dup)[2]


def test_exact_params_cap():
    code = build_prs(F5, 3)  # rank 4, 5^4 codewords
    with pytest.raises(CapExceededError):
        exact_params(code, cap=100)


def test_exact_params_nonprime_field_path():
    # PRS over F_4 at every degree
    for a in range(5):
        n, k, d = exact_params(build_prs(F4, a))
        assert (n, k, d) == (5, a + 1, 5 - a)


def test_exact_params_repeat_calls_deterministic():
    rng = random.Random(5)
    for spec in (F5, F4):
        q = spec.order
        rows = [[rng.randrange(q) for _ in range(7)] for _ in range(4)]
        code = _code(spec, rows, 7)
        want = _params(spec, _weights(spec, rows, 7), 7)
        assert [exact_params(code) for _ in range(3)] == [want] * 3


def test_exact_params_against_python_oracle():
    rng = random.Random(17)
    for spec in (F5, F4):
        q = spec.order
        rows = [[rng.randrange(q) for _ in range(9)] for _ in range(3)]
        assert exact_params(_code(spec, rows, 9)) == _params(
            spec, _weights(spec, rows, 9), 9)


@st.composite
def _small_codes(draw):
    """Up to 4 rows over a field of order <= 9, some columns forced to zero,
    and now and then a last row that is a combination of two others."""
    spec = draw(st.sampled_from(SMALL_FIELDS))
    q = spec.order
    n = draw(st.integers(1, 8))
    zero = draw(st.sets(st.integers(0, n - 1), max_size=n))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                  max_size=n), min_size=1, max_size=4))
    rows = [[0 if j in zero else v for j, v in enumerate(r)] for r in rows]
    if len(rows) >= 3 and draw(st.booleans()):
        c = draw(st.integers(0, q - 1))
        rows[-1] = [spec.add_i(spec.mul_i(c, a), b)
                    for a, b in zip(rows[0], rows[1])]
    return spec, rows


@settings(max_examples=120, deadline=None)
@given(_small_codes())
@example((F5, [[0, 3, 1, 0]]))                              # a single row
@example((SMALL_FIELDS[6], [[4, 0, 7], [0, 0, 0], [8, 0, 5]]))  # zero column
@example((SMALL_FIELDS[5], [[1, 2, 3], [4, 5, 6], [5, 7, 5]]))  # rank 2
@example((F4, [[0, 0], [0, 0]]))                            # the zero code
def test_exact_params_matches_brute_force(case):
    spec, rows = case
    n = len(rows[0])
    assert exact_params(_code(spec, rows, n)) == _params(
        spec, _weights(spec, rows, n), n)


@pytest.mark.parametrize("n", [63, 64, 65, 129])
@pytest.mark.parametrize("spec", [s for s in SMALL_FIELDS if s.order != 7], ids=str)
def test_exact_params_word_boundary(spec, n):
    # the search packs 64 coordinates to a word, one bit plane per bit of
    # q - 1: one plane for q = 2, a sparse top plane for q = 5 and 9, and
    # lengths on either side of one and two words, with a zero column
    q = spec.order
    rng = random.Random(q * n)
    for k in (1, 2, 3):
        rows = [[rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(k)]
        for row in rows:
            row[n // 2] = 0
        assert exact_params(_code(spec, rows, n)) == _params(
            spec, _weights(spec, rows, n), n)


def _macwilliams(dual_dist, q, n):
    """Weight distribution of a code from that of its dual (MacWilliams)."""
    size = sum(dual_dist)
    out = []
    for i in range(n + 1):
        total = sum(b * sum((-1) ** s * (q - 1) ** (i - s) * comb(j, s)
                            * comb(n - j, i - s) for s in range(i + 1))
                    for j, b in enumerate(dual_dist))
        assert total % size == 0
        out.append(total // size)
    return out


@pytest.mark.parametrize("spec", SMALL_FIELDS[:4], ids=str)
def test_exact_params_macwilliams(spec):
    q = spec.order
    rng = random.Random(q)
    for n in range(2, 7):
        for _ in range(2):
            rows = [[rng.randrange(q) for _ in range(n)]
                    for _ in range(rng.randint(1, n - 1))]
            dual = linalg.nullspace(spec, rows, n)
            dist = _macwilliams(_weights(spec, dual, n), q, n)
            assert dist == _weights(spec, rows, n)
            assert exact_params(_code(spec, rows, n)) == _params(spec, dist, n)


def _two_row_distance(spec, rows):
    """d of a rank-2 code without enumerating it: a codeword vanishes on
    exactly the columns on one line through 0 of F_q^2, so d is n minus the
    zero columns minus the most nonzero columns on one line."""
    lines = {}
    zero = 0
    for a, b in zip(*rows):
        if a == b == 0:
            zero += 1
            continue
        key = (1, spec.mul_i(spec.inv_i(a), b)) if a else (0, 1)
        lines[key] = lines.get(key, 0) + 1
    return len(rows[0]) - zero - max(lines.values())


@pytest.mark.parametrize("spec", [field_create(257, 1), field_create(3, 6)],
                         ids=str)
def test_exact_params_above_uint8(spec):
    # 9 and 10 bit planes, more than one byte of an encoding, and at
    # n = 300, with 270 zero columns, five 64-bit words per plane
    q = spec.order
    rng = random.Random(q)
    lines = [(1, rng.randrange(q)) for _ in range(4)] + [(0, 1)]
    for n in (3, 8, 300):
        cols = [(0, 0)] * (n - 30 if n > 255 else n // 5)
        while len(cols) < n:
            a, b = rng.choice(lines[:2] if len(cols) % 2 else lines)
            c = rng.randrange(1, q)
            cols.append((spec.mul_i(c, a), spec.mul_i(c, b)))
        rows = [list(r) for r in zip(*cols)]
        assert exact_params(_code(spec, rows, n)) == (
            n, 2, _two_row_distance(spec, rows))
    assert exact_params(build_prs(spec, 1)) == (q + 1, 2, q)


def test_griesmer():
    assert griesmer_check(5, 3, 3, 4) == (True, 5)
    assert griesmer_check(36, 4, 18, 5) == (True, 24)
    ok, total = griesmer_check(6, 2, 6, 5)
    assert not ok and total == 8


def test_singleton():
    assert singleton_check(6, 2, 5)
    assert not singleton_check(6, 3, 5)
