import random
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ruledcodes import analysis, linalg
from ruledcodes.gf import field_create
from ruledcodes.codes import LinearCode, build_code_decomposable, build_prs
from ruledcodes.curve import curve_create, DivisorOnCurve, ELLIPTIC
from ruledcodes.surface import surface_trivial
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


@st.composite
def _codes_with_repeats(draw):
    """k <= 8 rows and 2k <= n <= 4k columns over a field of order <= 9,
    where a column may be zero or a multiple of an earlier one, so that
    later information sets can have partial rank."""
    spec = draw(st.sampled_from(SMALL_FIELDS))
    q = spec.order
    k = draw(st.integers(1, max(j for j in range(1, 9) if q ** j <= 10 ** 5)))
    cols = []
    for _ in range(draw(st.integers(2 * k, 4 * k))):
        kind = draw(st.sampled_from(("fresh",) * 4 + ("zero", "repeat")))
        if kind == "zero":
            cols.append([0] * k)
        elif kind == "repeat" and cols:
            c = draw(st.integers(1, q - 1))
            cols.append([spec.mul_i(c, v) for v in draw(st.sampled_from(cols))])
        else:
            cols.append(draw(st.lists(st.integers(0, q - 1), min_size=k,
                                      max_size=k)))
    return spec, [list(r) for r in zip(*cols)]


def _search(spec, rows):
    red, pivots = linalg.rref(spec, rows)
    return analysis._distance(spec, red, pivots, len(rows[0]))


@settings(max_examples=150, deadline=None)
@given(_codes_with_repeats())
@example((field_create(2, 1), [[0, 0, 0, 1, 1, 1], [0, 0, 1, 0, 0, 1]]))  # d = 2
@example((F5, [[2, 2, 0, 2, 0, 1, 3, 1, 0], [2, 2, 0, 2, 0, 0, 2, 0, 0],
               [4, 2, 0, 1, 0, 3, 2, 0, 0], [4, 2, 0, 3, 0, 2, 0, 2, 0]]))
# d = 2, and the second set has rank 2: counted as full rank, it would
# stop the search at 3
def test_certificate_matches_exhaustive(case):
    # the certificate under its budget (exact_params), and with a budget no
    # code reaches, against the meet-in-the-middle search run alone
    spec, rows = case
    n = len(rows[0])
    red, _ = linalg.rref(spec, rows)
    if not red:
        assert exact_params(_code(spec, rows, n)) == (n, 0, 0)
        return
    d = analysis._exhaustive(spec, red, n, n)
    assert exact_params(_code(spec, rows, n)) == (n, len(red), d)
    with mock.patch.object(analysis._Cost, "exhaustive", lambda self: 10 ** 30):
        search = _search(spec, rows)
    assert search.certified and search.d == d
    if spec.order ** len(red) * n <= 20000:
        assert d == _params(spec, _weights(spec, rows, n), n)[2]


def _product_codes(spec, coeffs, first):
    """The verify-exhaustive shapes: the product surface over the curve with
    these coefficients, a = 1, beta one degree-2 point (x of degree 2, from
    index first on) plus one degree-3 point."""
    curve = curve_create(ELLIPTIC, coeffs, spec)
    twos, threes = curve.closed_points(2), curve.closed_points(3)
    for i in range(first, len(twos)):
        beta = DivisorOnCurve(curve, [(twos[i], 1), (threes[7 * i % len(threes)], 1)])
        yield build_code_decomposable(surface_trivial(curve), 1, beta)


def test_search_counts_verify_exhaustive_shapes():
    # over F_5 (y^2 = x^3 + 1), d = 5 is settled at level 1: three sets,
    # 30 rows, bound 2 + 2 + 2; over F_4 (y^2 + xy = x^3 + 1) the certificate
    # would cost more than its budget, and the exhaustive search runs
    for code in _product_codes(F5, (0, 0, 0, 0, 1), 2):
        assert (code.n, code.k) == (36, 10)
        assert _search(F5, code.matrix) == (5, 3, 1, True)
    for code in _product_codes(F4, (1, 0, 0, 0, 1), 0):
        assert (code.n, code.k) == (40, 10)
        assert _search(F4, code.matrix) == (12, 1, 1, False)


def test_search_counts_random_high_rate_code():
    # [12, 10] over F_5, d = 2: a weight-2 row of the rref meets the bound 2
    rng = random.Random(6)
    rows = [[rng.randrange(5) for _ in range(12)] for _ in range(10)]
    assert _search(F5, rows) == (2, 1, 1, True)


def test_search_counts_prs_large_field():
    # [730, 2, 729]: a certificate needs 365 sets at level 1, 364 eliminations
    # where the exhaustive search compares 730 words, so it is not started
    spec = field_create(3, 6)
    search = _search(spec, build_prs(spec, 1).matrix)
    assert search.d == 729 and not search.certified and search.sets <= 2


@pytest.mark.parametrize("p, tails, search", [
    # [I | B] over F_5, k = 10, n = 21, d = 4: the second information set
    # has rank 7, so no further set is planned, and the levels the two sets
    # would need cost more than the budget
    (5, ["43411341330", "21411014140", "04403014013", "20330414433",
         "14221441343", "24320111221", "00142440200", "32314341301",
         "30343242021", "22411143144"], (4, 2, 1, False)),
    # [I | B] over F_7, k = 8, n = 17, d = 4: the second set has rank 4; the
    # certificate plans no third set and settles d at level 3 of the first
    (7, ["225326314", "232231534", "456324546", "363024341", "223630410",
         "000154003", "613013201", "210335565"], (4, 2, 3, True)),
])
def test_search_counts_after_a_partial_set(p, tails, search):
    spec, k = field_create(p, 1), len(tails)
    rows = [[int(i == j) for j in range(k)] + [int(c) for c in row]
            for i, row in enumerate(tails)]
    assert _search(spec, rows) == search
    assert analysis._exhaustive(spec, rows, len(rows[0]), len(rows[0])) == search[0]


@pytest.mark.parametrize("spec, k", [(F5, 6), (field_create(2, 1), 9),
                                     (field_create(2, 2), 5)])
def test_cost_counts_match_traced_searches(spec, k):
    # the counts _Cost charges are the words each search encodes and the
    # pairs it compares: exactly, but for the k heads that level 2 also
    # encodes
    q, n = spec.order, 3 * k
    rng = random.Random(k)
    red, _ = linalg.rref(spec, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
    assert len(red) == k
    words, pairs = [], []
    planes, distances = analysis._planes, analysis._distances
    with mock.patch.object(analysis, "_planes", lambda s, e: (
            words.append(len(e)), planes(s, e))[1]), \
         mock.patch.object(analysis, "_distances", lambda a, b: (
            pairs.append(a.shape[2] * b.shape[2]), distances(a, b))[1]):
        analysis._exhaustive(spec, red, n, n)
        assert sum(words) == sum(q ** a + q ** b for a, b in analysis._halves(k))
        assert sum(pairs) == sum(q ** (a + b) for a, b in analysis._halves(k))
        info = analysis._InfoSet(spec, red, k)
        info.visit(1, n)
        for w in range(2, k + 1):
            words.clear()
            pairs.clear()
            info.visit(w, n)
            built, compared = analysis._level_sizes(q, k, w)
            assert sum(words) == built + k * (w == 2)
            assert sum(pairs) == compared


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
