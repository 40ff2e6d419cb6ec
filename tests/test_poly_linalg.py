import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ruledcodes import linalg
from ruledcodes.gf import _TABLE_MAX, field_create, extend
from ruledcodes.poly import Poly

from linalg_oracle import rref as oracle_rref, row_space_contains, row_space_equal

F5 = field_create(5, 1)
F4 = field_create(2, 2)
F16 = field_create(2, 4)

# F_2..F_9, F_49 (adding through its table of sums), F_{3^6} and F_81
# (through Zech logarithms), F_{5^7} above the table limit, and the
# benchmark's F_16 and F_256
RREF_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (7, 2),
               (3, 6), (5, 7), (2, 4), (2, 8), (3, 4)]


def rand_poly(spec, rng, maxdeg=5):
    return Poly(spec, [rng.randrange(spec.order) for _ in range(rng.randint(0, maxdeg + 1))])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([(5, 1), (2, 2), (3, 2)]))
def test_poly_divmod_identity(seed, pm):
    spec = field_create(*pm)
    rng = random.Random(seed)
    a = rand_poly(spec, rng)
    b = rand_poly(spec, rng)
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_poly_gcd_divides_both(seed):
    rng = random.Random(seed)
    a, b = rand_poly(F5, rng), rand_poly(F5, rng)
    if a.is_zero() or b.is_zero():
        return
    g = a.gcd(b)
    assert (a % g).is_zero() and (b % g).is_zero()


def test_poly_from_roots_and_multiplicity():
    p = Poly.from_roots(F5, [2, 2, 3])
    x_minus_2, x_minus_3 = Poly(F5, (3, 1)), Poly(F5, (2, 1))
    assert p == x_minus_2 * x_minus_2 * x_minus_3
    assert p == Poly(F5, (3, 1, 3, 1))      # x^3 - 7x^2 + 16x - 12 over F_5
    assert p.eval_i(2) == 0 and p.eval_i(3) == 0


def test_poly_eval_in_extension():
    f25 = extend(F5, 2)
    p = Poly(F5, (1, 1))  # x + 1
    x = 7  # some element of F_25
    assert p.eval_i(x, target=f25) == f25.add_i(x, f25.embed_i(F5, 1))


def test_poly_shift_and_pow():
    x = Poly.x(F5)
    assert x.shift(2) == Poly(F5, (0, 0, 0, 1))
    assert (x + Poly.one(F5)) ** 2 == Poly(F5, (1, 2, 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([(5, 1), (2, 1), (2, 4), (7, 2)]))
def test_pow_with_modulus_is_repeated_multiply_and_reduce(seed, pm):
    spec = field_create(*pm)
    rng = random.Random(seed)
    g, f = rand_poly(spec, rng), rand_poly(spec, rng)
    if f.is_zero():
        return
    acc = Poly.one(spec) % f
    for e in range(40):
        assert pow(g, e, f) == acc
        acc = acc * g % f


def test_rref_and_rank():
    rows = [[1, 2, 3], [2, 4, 1], [0, 0, 1]]
    red, pivots = linalg.rref(F5, rows)
    assert pivots == [0, 2]
    assert linalg.rank(F5, rows) == 2


def test_nullspace_orthogonality():
    rng = random.Random(3)
    rows = [[rng.randrange(5) for _ in range(6)] for _ in range(3)]
    null = linalg.nullspace(F5, rows, 6)
    assert len(null) >= 3
    for vec in null:
        for row in rows:
            acc = 0
            for a, b in zip(row, vec):
                acc = F5.add_i(acc, F5.mul_i(a, b))
            assert acc == 0
    assert linalg.rank(F5, null) == len(null)


def test_nullspace_full_rank_matrix_is_trivial():
    rows = [[1, 0], [0, 1]]
    assert linalg.nullspace(F5, rows, 2) == []


def test_nullspace_of_no_rows_is_the_identity():
    assert linalg.nullspace(F5, [], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_solve_consistent_and_inconsistent():
    rows = [[1, 2], [3, 4]]
    sol = linalg.solve(F5, rows, [1, 0])
    acc0 = F5.add_i(F5.mul_i(1, sol[0]), F5.mul_i(2, sol[1]))
    acc1 = F5.add_i(F5.mul_i(3, sol[0]), F5.mul_i(4, sol[1]))
    assert (acc0, acc1) == (1, 0)
    sing = [[1, 2], [2, 4]]
    assert linalg.solve(F5, sing, [0, 1]) is None


def test_row_space_relations():
    a = [[1, 0, 1], [0, 1, 1]]
    b = [[1, 1, 2]]  # sum of the two rows
    assert row_space_contains(F5, a, b)
    assert not row_space_contains(F5, b, a)
    assert row_space_equal(F5, a, [[0, 1, 1], [1, 0, 1]])


def direct_product(spec, a, b):
    return [[functools.reduce(spec.add_i, (spec.mul_i(x, row[j]) for x, row in zip(arow, b)), 0)
             for j in range(len(b[0]))] for arow in a]


def test_mat_mul_against_direct():
    rng = random.Random(5)
    a = [[rng.randrange(4) for _ in range(3)] for _ in range(2)]
    b = [[rng.randrange(4) for _ in range(5)] for _ in range(3)]
    assert linalg.mat_mul(F4, a, b).tolist() == direct_product(F4, a, b)


def test_mat_mul_over_many_chunks():
    # 20 x 40 outputs put 20 inner columns in each chunk of the product:
    # 15 chunks, each skipping the rows of a that are zero on it
    rng = random.Random(6)
    a = [[rng.randrange(4) if rng.random() < 0.1 else 0 for _ in range(300)]
         for _ in range(20)]
    b = [[rng.randrange(4) for _ in range(40)] for _ in range(300)]
    assert linalg.mat_mul(F4, a, b).tolist() == direct_product(F4, a, b)


def test_mat_mul_skips_zero_blocks_exactly():
    # block-diagonal left factor and a zero row: each inner column is
    # nonzero on a few rows only, the rows the product visits
    rng = random.Random(7)
    a = [[rng.randrange(1, 16) if t == i % 3 else 0 for t in range(3)]
         for i in range(7)] + [[0, 0, 0]]
    b = [[rng.randrange(16) for _ in range(4)] for _ in range(3)]
    out = linalg.mat_mul(F16, a, b)
    assert out.tolist() == [[F16.mul_i(row[i % 3], b[i % 3][j]) if i < 7 else 0
                             for j in range(4)] for i, row in enumerate(a)]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_solve_quadratic_extension_fields(bb, cc):
    from curve_oracle import solve_quadratic
    for spec in (extend(F5, 2), extend(F4, 2)):
        b, c = bb % spec.order, cc % spec.order
        roots = solve_quadratic(spec, b, c)
        for y in roots:
            assert spec.add_i(spec.mul_i(y, y), spec.mul_i(b, y)) == c
        assert len(roots) == len(set(roots))
        # root count parity: 0, 1, or 2 solutions
        assert len(roots) <= 2


@st.composite
def field_matrices(draw):
    """A field of RREF_FIELDS and a k x n matrix over it, often sparse, with
    a zero row or a row dependent on two others inserted at random."""
    spec = field_create(*draw(st.sampled_from(RREF_FIELDS)))
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(1, spec.order - 1))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    extra = draw(st.sampled_from(["none", "zero", "dependent"]))
    at = draw(st.integers(0, k))
    if extra == "zero":
        rows.insert(at, [0] * n)
    elif extra == "dependent":
        c = draw(st.integers(0, spec.order - 1))
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        rows.insert(at, [spec.add_i(spec.mul_i(c, x), y)
                         for x, y in zip(rows[i], rows[j])])
    return spec, rows


@settings(max_examples=300, deadline=None)
@given(field_matrices())
def test_rref_matches_list_oracle(case):
    spec, rows = case
    assert linalg.rref(spec, rows) == oracle_rref(spec, rows)


@pytest.mark.parametrize("pm", RREF_FIELDS)
def test_rref_edge_shapes_match_list_oracle(pm):
    spec = field_create(*pm)
    rng = random.Random(pm[0] ** pm[1])
    shapes = [(1, 7), (7, 1), (1, 1), (3, 5)]
    for k, n in shapes:
        rows = [[rng.randrange(spec.order) for _ in range(n)] for _ in range(k)]
        assert linalg.rref(spec, rows) == oracle_rref(spec, rows)
        zero = [[0] * n for _ in range(k)]
        assert linalg.rref(spec, zero) == oracle_rref(spec, zero) == ([], [])
    assert (spec.order > _TABLE_MAX) == (spec._exp is None)
