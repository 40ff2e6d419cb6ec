import random
import tracemalloc
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ruledcodes import analysis, linalg
from ruledcodes.gf import field_create
from ruledcodes.codes import LinearCode, build_code_decomposable, build_prs
from ruledcodes.curve import curve_create, DivisorOnCurve, ELLIPTIC
from ruledcodes.surface import surface_trivial
from ruledcodes.analysis import (bound_elm_family, bound_decomposable_family,
                                 bound_unisecant, exact_params, griesmer_check,
                                 singleton_check, CapExceededError)

from analysis_oracle import section_count_profile

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


def _refusal(q, k, cap):
    return (f"q^k = {q ** k} exceeds the exhaustive cap {cap}; rerun with a "
            "higher cap or fall back to a sampled probabilistic lower bound")


@st.composite
def _minor_cases(draw):
    """1 to 6 rows of 1 to 30 columns over a field of order <= 9, shaped to
    reach every outcome of the refusal's minor (its k + 8 evenly spaced
    columns): random rows, a zero row, a repeated row (times a scalar),
    n < k + 8 (the minor is the whole matrix), and full rank that the
    minor misses (its columns zeroed, an identity in the others)."""
    spec = draw(st.sampled_from(SMALL_FIELDS))
    q = spec.order
    k = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["random", "zero row", "repeated row",
                                  "short minor"]))
    n = draw(st.integers(2 * k + 8, 30) if shape == "short minor"
             else st.integers(1, 30))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    if shape == "zero row":
        rows[i] = [0] * n
    elif shape == "repeated row":
        c = draw(st.integers(1, q - 1))
        rows[i] = [spec.mul_i(c, v) for v in rows[j]]
    elif shape == "short minor":
        minor = {t * n // (k + 8) for t in range(k + 8)}
        rest = [c for c in range(n) if c not in minor]
        for r, row in enumerate(rows):
            for c in minor:
                row[c] = 0
            for t in range(k):
                row[rest[t]] = 1 if t == r else 0
    return spec, rows


@settings(max_examples=200, deadline=None)
@given(_minor_cases())
@example((F5, [[1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3]] * 2))
@example((F4, [[0] * 12]))
def test_refusal_from_a_minor_matches_the_full_rank(case):
    """Whatever path the refusal takes to k, exact_params refuses exactly
    when q^rank > cap, with the text that rank gives, and at q^rank
    returns what it returns when the cap admits every row."""
    spec, rows = case
    q, n = spec.order, len(rows[0])
    code = _code(spec, rows, n)
    k = linalg.rank(spec, rows)
    if k == 0:          # the zero code has nothing to search at any cap
        assert exact_params(code, cap=0) == exact_params(code, cap=1) == (n, 0, 0)
        return
    for cap in {1, q ** k - 1} - {0}:
        with pytest.raises(CapExceededError) as exc:
            exact_params(code, cap=cap)
        assert str(exc.value) == _refusal(q, k, cap)
    if k < len(rows):   # q^k is under the cap, q^(rows) over it
        assert exact_params(code, cap=q ** k) == exact_params(
            code, cap=q ** len(rows))
    else:
        assert exact_params(code, cap=q ** k)[:2] == (n, k)


def test_refusal_reads_only_the_minor():
    """A full-rank [200, 12] code over F_5 is refused after one rref, of
    its 12 + 8 evenly spaced columns; a minor that misses its rank falls
    back to the rref of all 200 columns."""
    rng = random.Random(3)
    rows = [[rng.randrange(5) for _ in range(200)] for _ in range(12)]
    with mock.patch.object(linalg, "rref", wraps=linalg.rref) as spy:
        with pytest.raises(CapExceededError, match="q\\^k = 244140625 "):
            exact_params(_code(F5, rows, 200), cap=1)
    assert [len(call.args[1][0]) for call in spy.call_args_list] == [20]
    minor = [t * 200 // 20 for t in range(20)]
    short = [[0 if c in minor else v for c, v in enumerate(row)] for row in rows]
    with mock.patch.object(linalg, "rref", wraps=linalg.rref) as spy:
        with pytest.raises(CapExceededError, match="q\\^k = 244140625 "):
            exact_params(_code(F5, short, 200), cap=1)
    assert [len(call.args[1][0]) for call in spy.call_args_list] == [20, 200]


@pytest.mark.parametrize("spec, k, n", [
    (field_create(2, 1), 20, 2000), (field_create(3, 1), 12, 2000),
    (F4, 10, 3000), (field_create(7, 2), 4, 1000), (field_create(2, 8), 2, 1000),
    (field_create(131, 1), 2, 3000)], ids=str)
def test_table_bytes_bound_the_search(spec, k, n):
    # tracemalloc sees numpy's allocations: the peak of an exhaustive search
    # of a random [n, k] code (5-21 MB) stays within its _table_bytes; the
    # search's own buffers, under 1 MB, are not counted there
    rng = random.Random(k)
    rows = [[rng.randrange(spec.order) for _ in range(n)] for _ in range(k)]
    red, _ = linalg.rref(spec, rows)
    tracemalloc.start()
    try:
        analysis._exhaustive(spec, red, n, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= analysis._table_bytes(spec, len(red), n)


def test_exhaustive_refused_over_its_table_budget():
    # the F_4 [40, 10] code goes to the exhaustive search, which runs at a
    # budget of exactly its _table_bytes and is refused one byte below
    code = next(_product_codes(F4, (1, 0, 0, 0, 1), 0))
    need = analysis._table_bytes(F4, 10, 40)
    with mock.patch.object(analysis, "_TABLE_BYTES", need):
        assert exact_params(code) == (40, 10, 12)
    with mock.patch.object(analysis, "_TABLE_BYTES", need - 1):
        with pytest.raises(CapExceededError) as exc:
            exact_params(code)
    assert str(exc.value) == (
        f"the exhaustive search needs about {need} bytes for its span tables "
        f"of length n = 40, over its budget of {need - 1}; fall back to a "
        "sampled probabilistic lower bound")


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


def _level1(spec, rows, sets):
    """(bound, lightest row) of level 1 on the first `sets` information
    sets, each chosen greedily, by rank, from the columns in the
    certificate's order that no earlier set holds."""
    red, pivots = linalg.rref(spec, rows)
    k, n = len(red), len(rows[0])
    order = list(range(n))
    random.Random(n).shuffle(order)
    cols = [c for c in order if c not in pivots and any(r[c] for r in red)]
    bound, best = 2, min(np.count_nonzero(red, axis=1))
    for _ in range(sets - 1):
        chosen = []
        for c in cols:
            if linalg.rank(spec, [[r[x] for x in chosen + [c]] for r in red]) > len(chosen):
                chosen.append(c)
        rest = sorted(set(range(n)).difference(cols))
        visited, _ = linalg.rref(spec, [[r[c] for c in cols + rest] for r in red])
        best = min(best, min(np.count_nonzero(visited, axis=1)))
        cols = [c for c in cols if c not in chosen]
        bound += max(0, 2 - (k - len(chosen)))
    return bound, best


@settings(max_examples=150, deadline=None)
@given(_codes_with_repeats())
@example((field_create(2, 1), [[0, 0, 0, 1, 1, 1], [0, 0, 1, 0, 0, 1]]))  # d = 2
@example((F5, [[2, 2, 0, 2, 0, 1, 3, 1, 0], [2, 2, 0, 2, 0, 0, 2, 0, 0],
               [4, 2, 0, 1, 0, 3, 2, 0, 0], [4, 2, 0, 3, 0, 2, 0, 2, 0]]))
# d = 2, and the second set has rank 2: counted as full rank, it would
# stop the search at 3
def test_certificate_matches_exhaustive(case):
    # the search under its cost rule (exact_params), and with pivots at no
    # cost, so that the certificate goes on while its sets can reach the
    # lightest row, against the meet-in-the-middle search run alone
    spec, rows = case
    n = len(rows[0])
    red, _ = linalg.rref(spec, rows)
    if not red:
        assert exact_params(_code(spec, rows, n)) == (n, 0, 0)
        return
    d = analysis._exhaustive(spec, red, n, n)
    assert exact_params(_code(spec, rows, n)) == (n, len(red), d)
    with mock.patch.object(analysis, "_PIVOT", 0):
        search = _search(spec, rows)
    assert search.d == d
    bound, best = _level1(spec, rows, search.sets)
    assert search.certified == (len(red) == 1 or bound >= best)
    assert not search.certified or best == d
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
    # over F_5 (y^2 = x^3 + 1), d = 5 is settled by three sets, 30 rows,
    # bound 2 + 2 + 2; over F_4 (y^2 + xy = x^3 + 1) the lightest row needs
    # more full sets than the 30 free columns hold, and the exhaustive
    # search runs
    for code in _product_codes(F5, (0, 0, 0, 0, 1), 2):
        assert (code.n, code.k) == (36, 10)
        assert _search(F5, code.matrix) == (5, 3, True)
    for code in _product_codes(F4, (1, 0, 0, 0, 1), 0):
        assert (code.n, code.k) == (40, 10)
        assert _search(F4, code.matrix) == (12, 1, False)


def test_search_counts_one_row():
    # k = 1: the row's multiples are every word, so its weight is d
    assert _search(F5, [[0, 3, 1, 0, 2, 4, 1]]) == (5, 1, True)


def test_search_counts_random_high_rate_code():
    # [12, 10] over F_5, d = 2: a weight-2 row of the rref meets the bound 2
    rng = random.Random(6)
    rows = [[rng.randrange(5) for _ in range(12)] for _ in range(10)]
    assert _search(F5, rows) == (2, 1, True)


def test_search_counts_prs_large_field():
    # [730, 2, 729]: 364 sets would reach the lightest row, and the 728 free
    # columns hold them, but their 728 pivots cost more than the 730 words
    # the exhaustive search compares, so no set is built
    code = build_prs(field_create(3, 6), 1)
    assert _search(code.spec, code.matrix) == (729, 1, False)


def test_search_counts_small_k_product_code():
    # [153, 2, 119], the a = 0 product code over the F_16 curve
    # y^2 + y = x^3 with beta one degree-2 point: the 151 free columns hold
    # the sets that would reach the lightest row, and only their cost keeps
    # the search exhaustive
    curve = curve_create(ELLIPTIC, (0, 0, 1, 0, 0), field_create(2, 4))
    beta = DivisorOnCurve(curve, [(curve.closed_points(2)[1], 1)])
    code = build_code_decomposable(surface_trivial(curve), 0, beta)
    assert (code.n, code.k) == (153, 2)
    assert _search(code.spec, code.matrix) == (119, 1, False)
    with mock.patch.object(analysis, "_PIVOT", 0):
        search = _search(code.spec, code.matrix)
    assert search.d == 119 and search.certified


@pytest.mark.parametrize("p, tails, search", [
    # [I | B] over F_5, k = 10, n = 21, d = 4, and [I | B] over F_7, k = 8,
    # n = 17, d = 4: floor(free / k) = 1 full set cannot reach the lightest
    # row, so no set is built
    (5, ["43411341330", "21411014140", "04403014013", "20330414433",
         "14221441343", "24320111221", "00142440200", "32314341301",
         "30343242021", "22411143144"], (4, 1, False)),
    (7, ["225326314", "232231534", "456324546", "363024341", "223630410",
         "000154003", "613013201", "210335565"], (4, 1, False)),
])
def test_search_counts_after_a_partial_set(p, tails, search):
    spec, k = field_create(p, 1), len(tails)
    rows = [[int(i == j) for j in range(k)] + [int(c) for c in row]
            for i, row in enumerate(tails)]
    assert _search(spec, rows) == search
    assert analysis._exhaustive(spec, rows, len(rows[0]), len(rows[0])) == search[0]


@pytest.mark.parametrize("tails, search", [
    # [I_3 | B]: the second set has rank 2 = k - 1, which adds 1, and the
    # bound 3 meets the lightest row
    (["1011", "1100", "0111"], (3, 2, True)),
    # [I_4 | B], B the six columns of weight 2 twice: the second set has
    # rank 3, which adds 1, and every word weighs 4 or more, so the bound 3
    # cannot settle d = 4; the 9 free columns left would hold two more sets,
    # but none follows a partial one, and the exhaustive search settles d
    (["111000111000", "100110100110", "010101010101", "001011001011"],
     (4, 2, False)),
])
def test_search_counts_partial_rank_set(tails, search):
    # [I | B] over F_2, with pivots at no cost
    spec = field_create(2, 1)
    rows = [[int(i == j) for j in range(len(tails))] + [int(c) for c in row]
            for i, row in enumerate(tails)]
    with mock.patch.object(analysis, "_PIVOT", 0):
        assert _search(spec, rows) == search


@pytest.mark.parametrize("spec, k", [(F5, 6), (field_create(2, 1), 9),
                                     (field_create(2, 2), 5)])
def test_cost_counts_match_traced_searches(spec, k):
    # the exhaustive search encodes its span tables once each and compares
    # (q^k - 1)/(q - 1) pairs of deg * bits(p - 1) planes of ceil(n / 64)
    # words, the count its cost is charged by
    q, n = spec.order, 3 * k
    rng = random.Random(k)
    red, _ = linalg.rref(spec, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
    assert len(red) == k
    words, pairs = [], []
    planes, distances = analysis._planes, analysis._distances
    with mock.patch.object(analysis, "_planes", lambda s, x: (
            words.append(x.shape[1]), planes(s, x))[1]), \
         mock.patch.object(analysis, "_distances", lambda a, b, scratch: (
            pairs.append(a.shape[2] * b.shape[2] * a.shape[0] * a.shape[1]),
            distances(a, b, scratch))[1]):
        analysis._exhaustive(spec, red, n, n)
    halves = [((k - 1 - j) // 2, k - 1 - j - (k - 1 - j) // 2) for j in range(k)]
    assert sum(words) == sum(q ** a + q ** b for a, b in halves)
    assert sum(pairs) == ((q ** k - 1) // (q - 1) * spec.deg
                          * (spec.p - 1).bit_length() * -(-n // 64))


@pytest.mark.parametrize("n", [40, 100, 300])
@pytest.mark.parametrize("spec", [field_create(2, 1), F4, field_create(3, 2),
                                  field_create(131, 1)], ids=str)
def test_distances_match_a_direct_count(spec, n):
    # 1, 2 and 5 uint64 words per plane (sums in uint8, then uint16), in
    # blocks of 5 lead words through one set of buffers, the last block of
    # 2; with a pair at distance 0 and one at distance n
    q = spec.order
    rng = np.random.default_rng(q * n)
    lead, other = rng.integers(0, q, (17, n)), rng.integers(0, q, (11, n))
    other[0], other[1] = lead[3], (lead[16] + 1) % q
    want = (lead[:, None] != other[None]).sum(axis=2)

    def planes(words):
        return analysis._planes(spec, analysis._multiples(spec, [1], words)[:, :, 0])
    a, b = planes(lead), planes(other)
    assert b.shape[1] == -(-n // 64)
    scratch = analysis._scratch(5 * b[0].size, b.shape[1])
    for lo in range(0, 17, 5):
        got = analysis._distances(a[:, :, lo:lo + 5], b, scratch)
        assert got.tolist() == want[lo:lo + 5].tolist()


def test_distances_above_65535_coordinates():
    # 1025 words per plane: a distance of 65600 or 65546 must not wrap round
    # to 64 or 10 in a 16-bit sum, in the kernel or in either search
    spec, n, m = field_create(2, 1), 65600, 65546
    rows = [[1] * n, [1] * m + [0] * (n - m)]
    planes = analysis._planes(spec, analysis._multiples(spec, [1], [[0] * n] + rows)[:, :, 0])
    lead, other = planes[:, :, 1:], planes[:, :, ::2]
    got = analysis._distances(lead, other, analysis._scratch(2 * other[0].size, 1025))
    assert got.tolist() == [[n, n - m], [m, 0]]
    assert analysis._exhaustive(spec, rows, n, n) == n - m
    assert exact_params(_code(spec, rows, n)) == (n, 2, n - m)
    with mock.patch.object(analysis, "_PIVOT", 0):
        assert _search(spec, rows) == (n - m, 27, True)


def _prime_field_words(p, rows):
    """Every word of a 3-row code over F_p whose first nonzero coefficient
    is 1, in integer arithmetic mod p: g_0 + c_1 g_1 + c_2 g_2 (c_1 major),
    g_1 + c g_2 and g_2."""
    g = np.array(rows)
    c = np.stack(np.meshgrid(np.arange(p), np.arange(p), indexing="ij"), -1).reshape(-1, 2)
    return [(g[0] + c @ g[1:]) % p, (g[1] + np.arange(p)[:, None] * g[2]) % p, g[2:]]


@pytest.mark.parametrize("p", [127, 131])
def test_exact_params_wide_prime_against_brute_force(p):
    # 2 (p - 1) fits uint8 for p = 127, and needs uint16 for p = 131: the
    # span table of the last two rows shifted by the first, and the search
    # under its cost rule, alone and with pivots at no cost, on [7, 3] codes
    # with a zero column, against every word
    spec = field_create(p, 1)
    rng = random.Random(p)
    for _ in range(3):
        rows = [[rng.randrange(p) for _ in range(7)] for _ in range(3)]
        rows[0][2] = rows[1][2] = rows[2][2] = 0
        red, _ = linalg.rref(spec, rows)
        assert len(red) == 3
        words = _prime_field_words(p, red)
        multiples = analysis._multiples(spec, np.arange(p), red)
        span = analysis._span(spec, multiples[:, 1:], multiples[:, 0, 1, None])
        assert span[0].tolist() == words[0].tolist()
        d = min(int(np.count_nonzero(w, axis=1).min()) for w in words)
        assert exact_params(_code(spec, rows, 7)) == (7, 3, d)
        assert analysis._exhaustive(spec, red, 7, 7) == d
        with mock.patch.object(analysis, "_PIVOT", 0):
            assert _search(spec, rows).d == d


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
