import math
import random
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

import gf_oracle
from curve_oracle import nonresidue, solve_quadratic, sqrt_i
from ruledcodes import fqarray
from ruledcodes.gf import (DESK_CAP, PRIME_CERT_BOUND, field_create, extend,
                           is_prime, prime_power, _is_irreducible,
                           _least_irreducible)
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
    fixed = [e for e in range(25) if f25.frob_i(e) == e]
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
            x = f125.frob_i(x)
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
        lhs = f25.frob_i(f25.embed_i(f5, e))
        rhs = f25.embed_i(f5, f5.frob_i(e))
        assert lhs == rhs


def test_frobenius_orbits():
    f5 = field_create(5, 1)
    f25 = extend(f5, 2)
    emb = f25.embed_i(f5, 3)
    assert len(f25.orbit((emb,))) == 1
    nonsub = next(e for e in range(25)
                  if e not in {f25.embed_i(f5, v) for v in range(5)})
    assert len(f25.orbit((nonsub,))) == 2
    f4 = field_create(2, 2)
    f64 = extend(f4, 3)
    gen = next(e for e in range(2, 64) if len(f64.orbit((e,))) == 3)
    assert f64.orbit((gen,))[0] == (gen,)
    # the tuple orbit is the joint orbit of all coordinates
    assert f64.orbit((1,)) == [(1,)]
    assert f64.orbit((gen, 1)) == [(v, 1) for (v,) in f64.orbit((gen,))]


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
        for spec in (f5, extend(f5, 2), field_create(2, 4), extend(f5, 7)):
            for t in ((-1,), (spec.order,), (1, -1), (spec.order + 3, 0)):
                with pytest.raises(ValueError, match="outside"):
                    spec.orbit(t)
            assert spec.orbit((spec.order - 1,))[0] == (spec.order - 1,)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


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
    assert f625.base_card == 25  # Frobenius of the second step is x -> x^25
    # composed embeddings form a ring homomorphism F_5 -> F_625
    for a in range(5):
        for b in range(5):
            step = f625.embed_i(f25, f25.embed_i(f5, a))
            stepb = f625.embed_i(f25, f25.embed_i(f5, b))
            ab = f625.embed_i(f25, f25.embed_i(f5, f5.mul_i(a, b)))
            assert f625.mul_i(step, stepb) == ab
    # orbits under x -> x^25 divide the relative degree 2
    for e in (3, 77, 311):
        assert len(f625.orbit((e,))) in (1, 2)


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
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (7, 2), (2, 4), (3, 6), (5, 7),
                        (2, 16)]),
       st.integers(0, 10 ** 9))
def test_fqarray_matches_scalar_arithmetic(pm, seed):
    # F_{5^7} is above the table limit: the kernel reads no table anywhere;
    # F_{2^16} is the largest field with tables, at degree 16
    spec = field_create(*pm)
    rng = random.Random(seed)
    x = [rng.randrange(spec.order) for _ in range(12)]
    y = [rng.choice([0, rng.randrange(spec.order)]) for _ in range(12)]
    c = rng.randrange(spec.order)
    dx, dy = fqarray.digits(spec, x), fqarray.digits(spec, y)
    assert fqarray.encode(spec, dx).tolist() == x
    assert fqarray.encode(spec, fqarray.add(spec, dx, dy)).tolist() == \
        [spec.add_i(a, b) for a, b in zip(x, y)]
    assert fqarray.encode(spec, fqarray.mul(spec, dx, dy)).tolist() == \
        [spec.mul_i(a, b) for a, b in zip(x, y)]
    assert fqarray.encode(spec, fqarray.scale(spec, c, dx)).tolist() == \
        [spec.mul_i(c, a) for a in x]
    nonzero = [a for a in x + y if a]
    inverses = fqarray.inv(spec, fqarray.digits(spec, nonzero).reshape(spec.deg, -1))
    assert fqarray.encode(spec, inverses).tolist() == [spec.inv_i(a) for a in nonzero]


def test_least_irreducible_matches_the_list_oracle():
    # every field of order <= DESK_CAP with p^2 <= DESK_CAP; above that only
    # n = 1 is left, whose modulus is x
    fields = [(p, n) for p in range(2, 1 << 10) if is_prime(p)
              for n in range(1, DESK_CAP.bit_length()) if p ** n <= DESK_CAP]
    assert len(fields) == 414
    for p, n in fields:
        assert _least_irreducible(p, n) == gf_oracle.least_irreducible(p, n), (p, n)


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
