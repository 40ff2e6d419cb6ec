import ast
import functools
import math
import pathlib
import random
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gf_oracle
from curve_oracle import nonresidue, solve_quadratic, sqrt_i
from ruledcodes import fqarray, gf
from ruledcodes.gf import (DESK_CAP, PRIME_CERT_BOUND, FieldSpec, field_create,
                           extend, is_prime, prime_power, within_desk_cap,
                           _is_irreducible, _least_irreducible, _TABLE_MAX)
from ruledcodes.poly import Poly


def all_monic_irreducible_by_trial_division(p, n):
    """Independent irreducibility oracle: trial division by every monic
    polynomial of degree 1..n//2 (polynomials as ascending coeff lists)."""
    def polys(deg):
        for enc in range(p ** deg):
            cs = []
            e = enc
            for _ in range(deg):
                cs.append(e % p)
                e //= p
            yield cs + [1]

    def pmod(a, f):
        a = a[:]
        while len(a) >= len(f):
            c = a[-1]
            if c:
                off = len(a) - len(f)
                for i, fi in enumerate(f):
                    a[off + i] = (a[off + i] - c * fi) % p
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        return a

    out = []
    for f in polys(n):
        if all(pmod(f, g) for d in range(1, n // 2 + 1) for g in polys(d)):
            out.append(f)
    return out


def test_field_create_prime_fields():
    f5 = field_create(5, 1)
    assert f5.order == 5
    assert f5.modulus == (0, 1)  # the z - 0 convention
    f2 = field_create(2, 1)
    assert f2.order == 2


def test_field_create_rejects_bad_inputs():
    with pytest.raises(ValueError):
        field_create(4, 1)
    with pytest.raises(ValueError):
        field_create(5, 0)


def test_f16_modulus_is_least_irreducible_quartic():
    f16 = field_create(2, 4)
    irreducibles = all_monic_irreducible_by_trial_division(2, 4)
    # least in ascending low-coefficient encoding order
    def enc(f):
        return sum(c * 2 ** i for i, c in enumerate(f[:-1]))
    least = min(irreducibles, key=enc)
    assert list(f16.modulus) == least
    assert gf_oracle.is_irreducible(list(f16.modulus), 2)
    assert _is_irreducible(Poly(field_create(2, 1), f16.modulus))


def test_inverse_in_f5():
    f5 = field_create(5, 1)
    assert f5.inv_i(2) == 3


def test_primitive_element_order_in_f16():
    f16 = field_create(2, 4)
    orders = set()
    for e in range(1, 16):
        k = 1
        x = e
        while x != 1:
            x = f16.mul_i(x, e)
            k += 1
        orders.add(k)
    assert 15 in orders
    assert all(15 % k == 0 for k in orders)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(5, 1), (2, 4), (3, 2), (7, 1)]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_field_axioms(pm, a, b, c):
    spec = field_create(*pm)
    add, mul = spec.add_i, spec.mul_i
    x, y, z = (v % spec.order for v in (a, b, c))
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert mul(x, y) == mul(y, x)
    if x != 0:
        assert mul(x, spec.inv_i(x)) == 1


def test_frobenius_fixed_field_size():
    f5 = field_create(5, 1)
    f25 = extend(f5, 2)
    fixed = [e for e in range(25) if f25.pow_i(e, 5) == e]
    assert len(fixed) == 5
    # the fixed field is exactly the embedded image
    image = sorted(f25.embed_i(f5, e) for e in range(5))
    assert sorted(fixed) == image


def test_frobenius_iterated_identity():
    f5 = field_create(5, 1)
    f125 = extend(f5, 3)
    for e in (1, 7, 44, 124):
        x = e
        for _ in range(3):
            x = f125.pow_i(x, 5)
        assert x == e


def test_embedding_is_ring_homomorphism():
    f4 = field_create(2, 2)
    f64 = extend(f4, 3)
    for a in range(4):
        for b in range(4):
            ea = f64.embed_i(f4, a)
            eb = f64.embed_i(f4, b)
            assert f64.add_i(ea, eb) == f64.embed_i(f4, f4.add_i(a, b))
            assert f64.mul_i(ea, eb) == f64.embed_i(f4, f4.mul_i(a, b))


def test_embedding_preserves_multiplicative_orders():
    f4 = field_create(2, 2)
    f64 = extend(f4, 3)

    def order_in(spec, e):
        k, x = 1, e
        while x != 1:
            x = spec.mul_i(x, e)
            k += 1
        return k

    for e in range(1, 4):
        assert order_in(f4, e) == order_in(f64, f64.embed_i(f4, e))


def test_embed_commutes_with_frobenius():
    f5 = field_create(5, 1)
    f25 = extend(f5, 2)
    for e in range(5):
        lhs = f25.pow_i(f25.embed_i(f5, e), 5)
        rhs = f25.embed_i(f5, f5.pow_i(e, 5))
        assert lhs == rhs


def test_frobenius_orbits():
    f5 = field_create(5, 1)
    f25 = extend(f5, 2)
    emb = f25.embed_i(f5, 3)
    assert len(f25.orbit((emb,), 5)) == 1
    nonsub = next(e for e in range(25)
                  if e not in {f25.embed_i(f5, v) for v in range(5)})
    assert len(f25.orbit((nonsub,), 5)) == 2
    f4 = field_create(2, 2)
    f64 = extend(f4, 3)
    gen = next(e for e in range(2, 64) if len(f64.orbit((e,), 4)) == 3)
    assert f64.orbit((gen,), 4)[0] == (gen,)
    # the tuple orbit is the joint orbit of all coordinates
    assert f64.orbit((1,), 4) == [(1,)]
    assert f64.orbit((gen, 1), 4) == [(v, 1) for (v,) in f64.orbit((gen,), 4)]


def test_orbit_refuses_encodings_outside_the_field():
    # Frobenius maps an out-of-range encoding into the field, so an orbit
    # loop that waits for it to come back never ends: the alarm turns such a
    # hang into a failure
    def hang(signum, frame):
        raise TimeoutError("FieldSpec.orbit did not return")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        f5 = field_create(5, 1)
        # tables (F_5, F_25, F_16) and the table-free F_{5^7}
        for spec, q in ((f5, 5), (extend(f5, 2), 5), (field_create(2, 4), 16),
                        (extend(f5, 7), 5)):
            for t in ((-1,), (spec.order,), (1, -1), (spec.order + 3, 0)):
                with pytest.raises(ValueError, match="outside"):
                    spec.orbit(t, q)
            assert spec.orbit((spec.order - 1,), q)[0] == (spec.order - 1,)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_extend_is_field_create(p):
    # one object per field, whichever tower reaches it, with a ring
    # homomorphism from the field it was extended from
    rng = random.Random(p)
    towers = [(m, d) for m in range(1, 13) for d in range(1, 13) if p ** (m * d) <= 4096]
    assert towers
    for m, d in towers:
        small = field_create(p, m)
        big = extend(small, d)
        assert big is field_create(p, m * d)
        emb = [big.embed_i(small, a) for a in range(small.order)]
        assert emb[0] == 0 and emb[1] == 1 and len(set(emb)) == small.order
        sample = range(small.order) if small.order <= 16 else rng.sample(range(small.order), 16)
        for a in sample:
            for b in sample:
                assert big.add_i(emb[a], emb[b]) == emb[small.add_i(a, b)]
                assert big.mul_i(emb[a], emb[b]) == emb[small.mul_i(a, b)]


@pytest.mark.parametrize("p, n", [(2, 6), (3, 4)])
def test_orbit_over_every_subfield(p, n):
    # F_64 and F_81: under x -> x^q of a subfield F_q, orbit sizes divide
    # [F : F_q] and the fixed points are the embedded image of F_q; a q that
    # is no subfield order is refused
    big = field_create(p, n)
    for k in (k for k in range(1, n + 1) if n % k == 0):
        q, sub = p ** k, field_create(p, k)
        sizes = {e: len(big.orbit((e,), q)) for e in range(big.order)}
        assert all((n // k) % size == 0 for size in sizes.values())
        fixed = {e for e, size in sizes.items() if size == 1}
        assert fixed == {big.embed_i(sub, c) for c in range(q)}
    refused = [0, 1, 6, big.order * p] + [p ** k for k in range(1, 2 * n) if n % k]
    for q in refused:
        with pytest.raises(ValueError, match="subfield"):
            big.orbit((1,), q)


def test_element_text_encoding_roundtrip():
    f9 = field_create(3, 2)
    for e in range(9):
        cs = f9.decode(e)
        assert sum(c * 3 ** i for i, c in enumerate(cs)) == e
        assert f9.encode(cs) == e


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(5, 1), (5, 2), (2, 2), (2, 3), (3, 2), (13, 1)]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_solve_quadratic_agrees_with_scan(pm, bb, cc):
    spec = field_create(*pm)
    b, c = bb % spec.order, cc % spec.order
    roots = solve_quadratic(spec, b, c)
    brute = [y for y in range(spec.order)
             if spec.add_i(spec.mul_i(y, y), spec.mul_i(b, y)) == c]
    assert roots == brute


def test_desk_scale_cap():
    f2 = field_create(2, 1)
    with pytest.raises(ValueError):
        extend(f2, 21)


def test_tower_of_extensions():
    f5 = field_create(5, 1)
    f25 = extend(f5, 2)
    f625 = extend(f25, 2)
    assert f625.order == 625
    # Frobenius of the second step is x -> x^25: its orbits have size 1 or 2
    assert {len(f625.orbit((e,), 25)) for e in range(625)} == {1, 2}
    # composed embeddings form a ring homomorphism F_5 -> F_625
    for a in range(5):
        for b in range(5):
            step = f625.embed_i(f25, f25.embed_i(f5, a))
            stepb = f625.embed_i(f25, f25.embed_i(f5, b))
            ab = f625.embed_i(f25, f25.embed_i(f5, f5.mul_i(a, b)))
            assert f625.mul_i(step, stepb) == ab
    # orbits under x -> x^25 divide the relative degree 2
    for e in (3, 77, 311):
        assert len(f625.orbit((e,), 25)) in (1, 2)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_prime_power_matches_a_scan():
    powers = {p ** m: (p, m) for p in range(2, 300) if is_prime(p)
              for m in range(1, 9) if p ** m < 300}
    for q in range(-3, 300):
        assert prime_power(q) == powers.get(q), q


def _trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == _trial_division_is_prime(n)
               for n in range(-3, 20000))


@pytest.mark.parametrize("n", [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051,
    # composite, a strong pseudoprime to every base up to 37
    318665857834031151167461])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_refuses_at_the_certified_bound():
    # the bound is the least strong pseudoprime to all 13 bases
    assert is_prime(2 ** 61 - 1) and not is_prime(PRIME_CERT_BOUND - 1)
    with pytest.raises(ValueError, match=str(PRIME_CERT_BOUND)):
        is_prime(PRIME_CERT_BOUND)


@pytest.mark.parametrize("q, expected", [
    (100000000000031, (100000000000031, 1)),
    (2 ** 61 - 1, (2 ** 61 - 1, 1)),
    (1000003 ** 2, (1000003, 2)),
    (2 ** 100, (2, 100)),
    (561, None),            # Carmichael, 3 * 11 * 17
    (3215031751, None),     # Carmichael, strong pseudoprime to 2, 3, 5, 7
    (1000003 * 1000033, None),
    (-8, None),
    (-(2 ** 61 - 1), None),
])
def test_prime_power_of_large_q(q, expected):
    t0 = time.perf_counter()
    assert prime_power(q) == expected
    assert time.perf_counter() - t0 < 0.01


def test_sqrt_without_tables_round_trips():
    # F_{5^7} has 78125 elements, above the table limit: Tonelli-Shanks path
    f = extend(field_create(5, 1), 7)
    assert f._exp is None
    half = (f.order - 1) // 2
    z = next(e for e in range(2, f.order) if f.pow_i(e, half) != 1)
    for x in range(1, f.order, 977):
        sq = f.mul_i(x, x)
        r = sqrt_i(f, sq)
        assert f.mul_i(r, r) == sq
        assert sqrt_i(f, f.mul_i(z, sq)) is None
    assert nonresidue(f) == z


def _sequential_tables(spec):
    """The exp/log build that doubling replaced: the least generator, then
    exp[i + 1] = exp[i] * gen one element at a time, multiplying the
    coefficient lists over F_p without any table."""
    def mul(a, b):
        return gf_oracle.mul_i(spec, a, b)

    def power(a, e):
        out = 1
        while e:
            if e & 1:
                out = mul(out, a)
            a = mul(a, a)
            e >>= 1
        return out

    n1 = spec.order - 1
    gen = next(c for c in range(1, spec.order)
               if all(power(c, n1 // ell) != 1 for ell in gf_oracle.prime_factors(n1)))
    exp, log = [0] * n1, [0] * spec.order
    x = 1
    for i in range(n1):
        exp[i], log[x] = x, i
        x = mul(x, gen)
    return exp, log


@pytest.mark.parametrize("pm", [(2, 1), (2, 4), (2, 8), (7, 2), (7, 4), (3, 6),
                                (257, 1), (2, 12)])
def test_tables_equal_the_sequential_build(pm):
    spec = field_create(*pm)
    assert (spec._exp, spec._log) == _sequential_tables(spec)


def test_tables_equal_the_candidate_search_up_to_4096():
    # every field of order <= 2^12: the generator from the prime-factor
    # test is the one the candidate-by-candidate doubling search finds
    fields = [prime_power(q) for q in range(2, 2 ** 12 + 1)]
    for p, m in filter(None, fields):
        spec = field_create(p, m)
        assert (spec._exp, spec._log) == gf_oracle.candidate_tables(spec), (p, m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (5, 1), (2, 4), (7, 2), (2, 8), (7, 4), (3, 7), (2, 16),
                        (5, 7), (2, 20)]),
       st.integers(0, 10 ** 9))
def test_fqarray_matches_scalar_arithmetic(pm, seed):
    # both sides of _TABLE_MAX: F_2 .. F_{2^16} compute on exp/log tables
    # (F_49 adds through its table of sums, F_2401 and F_{3^7} through Zech
    # logarithms; F_{2^16} is the largest field with tables); F_{5^7} in
    # digit form, F_{2^20} on bit strings
    spec = field_create(*pm)
    assert (spec.order > _TABLE_MAX) == (pm in ((5, 7), (2, 20)))
    rng = random.Random(seed)
    x = [rng.choice([0, rng.randrange(spec.order)]) for _ in range(12)]
    y = [rng.choice([0, rng.randrange(spec.order)]) for _ in range(12)]
    y[:3] = [spec.neg_i(a) for a in x[:3]]      # x = -y, the Zech sentinel
    x[3] = y[4] = 0
    c = rng.randrange(spec.order)
    ax, ay = np.array(x), np.array(y)
    assert fqarray.add(spec, ax, ay).tolist() == [spec.add_i(a, b) for a, b in zip(x, y)]
    assert fqarray.sub(spec, ax, ay).tolist() == [spec.sub_i(a, b) for a, b in zip(x, y)]
    assert fqarray.neg(spec, ax).tolist() == [spec.neg_i(a) for a in x]
    assert fqarray.mul(spec, ax, ay).tolist() == [spec.mul_i(a, b) for a, b in zip(x, y)]
    assert fqarray.scale(spec, c, ax).tolist() == [spec.mul_i(c, a) for a in x]
    assert fqarray.add_product(spec, ax, c, ay).tolist() == \
        [spec.add_i(a, spec.mul_i(c, b)) for a, b in zip(x, y)]
    assert fqarray.frobenius(spec, ax, spec.p).tolist() == [spec.pow_i(a, spec.p) for a in x]
    nonzero = [a for a in x + y if a]
    assert fqarray.inv(spec, np.array(nonzero)).tolist() == [spec.inv_i(a) for a in nonzero]
    # broadcast shapes: a column against a row, and a scalar
    for op, scalar in ((fqarray.add, spec.add_i), (fqarray.mul, spec.mul_i)):
        assert op(spec, ax[:, None], ay[None, :5]).tolist() == \
            [[scalar(a, b) for b in y[:5]] for a in x]
        assert op(spec, ax, c).tolist() == [scalar(a, c) for a in x]
    assert fqarray.add_product(spec, ax[:4, None], ax[None, :3], ay[:4, None]).tolist() == \
        [[spec.add_i(a, spec.mul_i(b, d)) for b in x[:3]] for a, d in zip(x[:4], y[:4])]
    assert fqarray.dot(spec, ax.reshape(3, 4), ay.reshape(4, 3)).tolist() == \
        [[functools.reduce(spec.add_i, map(spec.mul_i, x[4 * i:4 * i + 4], y[j::3]))
          for j in range(3)] for i in range(3)]


def test_only_fqarray_gf_and_analysis_read_the_digit_form():
    """The digit layout stays behind fqarray: apart from gf (its table
    build and its scalars above _TABLE_MAX) and analysis (the distance
    search's bit planes), no src/ module calls fqarray.digits,
    fqarray.encode or fqarray.linear, or imports them."""
    layout, readers = {"digits", "encode", "linear"}, set()
    for path in sorted(pathlib.Path(fqarray.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in layout
                    and isinstance(node.value, ast.Name) and node.value.id == "fqarray"):
                readers.add(path.stem)
            elif (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fqarray")
                  and layout & {alias.name for alias in node.names}):
                readers.add(path.stem)
    assert readers == {"gf", "analysis"}


def test_least_irreducible_matches_the_list_oracle():
    # every field of order <= DESK_CAP with p^2 <= DESK_CAP; above that only
    # n = 1 is left, whose modulus is x
    fields = [(p, n) for p in range(2, 1 << 10) if is_prime(p)
              for n in range(1, DESK_CAP.bit_length()) if p ** n <= DESK_CAP]
    assert len(fields) == 414
    for p, n in fields:
        assert _least_irreducible(p, n) == gf_oracle.least_irreducible(p, n), (p, n)


def test_known_fields_are_the_searched_ones():
    # every field p^m, m >= 2, up to the cap for p = 2, 3, 5, 7: the table's
    # modulus is the one Rabin's search finds, and its generator is the one
    # the tables of a spec built without it start from (0 without tables)
    assert sorted(gf._KNOWN) == [2, 3, 5, 7]
    for p, known in gf._KNOWN.items():
        known = [tuple(map(int, entry.split(":"))) for entry in known.split()]
        assert within_desk_cap(p, len(known) + 1)
        assert not within_desk_cap(p, len(known) + 2)
        for m, (low, gen) in enumerate(known, start=2):
            modulus = tuple(_least_irreducible(p, m))
            assert sum(c * p ** i for i, c in enumerate(modulus[:-1])) == low, (p, m)
            assert field_create(p, m).modulus == modulus
            if p ** m <= _TABLE_MAX:
                assert FieldSpec(p, m, modulus)._exp[1] == gen, (p, m)
            else:
                assert gen == 0 and field_create(p, m)._exp is None


def test_fields_outside_the_table_are_searched(monkeypatch):
    searched = []

    def spy(p, n):
        searched.append((p, n))
        return _least_irreducible(p, n)
    monkeypatch.setattr(gf, "_SPEC_CACHE", {})
    monkeypatch.setattr(gf, "_least_irreducible", spy)
    f121 = field_create(11, 2)
    assert f121.modulus == tuple(gf_oracle.least_irreducible(11, 2))
    assert (11, 2) in searched
    del searched[:]
    for p, m in ((2, 4), (7, 2), (3, 12), (2, 20)):
        assert field_create(p, m).modulus == tuple(_least_irreducible(p, m))
    assert all(n == 1 for _, n in searched)


@pytest.mark.parametrize("p, degrees", [(2, range(2, 9)), (3, range(2, 6)),
                                         (5, range(2, 4))])
def test_rabin_on_poly_matches_the_list_oracle(p, degrees):
    # every monic polynomial, also those with a root in F_p, which the
    # modulus search rejects before Rabin's test
    fp = field_create(p, 1)
    for n in degrees:
        for enc in range(p ** n):
            coeffs = [enc // p ** i % p for i in range(n)] + [1]
            assert _is_irreducible(Poly(fp, coeffs)) == \
                gf_oracle.is_irreducible(coeffs, p), coeffs


@pytest.mark.parametrize("pm", [(5, 7), (2, 17), (3, 11), (2, 20)])
def test_table_free_mul_matches_the_list_oracle(pm):
    spec = field_create(*pm)
    assert spec._exp is None
    rng = random.Random(spec.order)
    pairs = [(rng.randrange(spec.order), rng.randrange(spec.order)) for _ in range(100)]
    pairs += [(0, 5), (1, spec.order - 1), (spec.order - 1, spec.order - 1)]
    for a, b in pairs:
        assert spec.mul_i(a, b) == gf_oracle.mul_i(spec, a, b)


def _scalar_least_root(big, mod):
    """The scan the array root search replaced: the first encoding of big
    at which Horner's rule with big's scalar arithmetic gives 0."""
    for cand in range(big.order):
        acc = 0
        for c in reversed(mod):
            acc = big.add_i(big.mul_i(acc, cand), c)
        if acc == 0:
            return cand


def test_embedding_at_the_desk_cap():
    # F_16 into F_{2^20}: the least root of the modulus of F_16 is 265666,
    # which a scalar scan reached in about a minute
    def hang(signum, frame):
        raise TimeoutError("extend(F_16, 5) did not return")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        f16 = field_create(2, 4)
        big = extend(f16, 5)
        for a in range(16):
            for b in range(16):
                ea, eb = big.embed_i(f16, a), big.embed_i(f16, b)
                assert big.add_i(ea, eb) == big.embed_i(f16, f16.add_i(a, b))
                assert big.mul_i(ea, eb) == big.embed_i(f16, f16.mul_i(a, b))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_root_search_matches_the_scalar_scan():
    pairs = [(p, m, d) for p, m in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                    (5, 1), (5, 2), (7, 1), (7, 2), (2, 4))
             for d in range(2, 13) if p ** (m * d) <= 4096]
    assert len(pairs) == 38
    for p, m, d in pairs:
        small = field_create(p, m)
        big = extend(small, d)
        root = _scalar_least_root(big, small.modulus)
        assert big._least_root(small.modulus) == root, (p, m, d)
        assert big._embedding_powers(small)[1:2] == ([root] if m > 1 else [])
