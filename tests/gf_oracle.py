"""The list-based polynomial arithmetic over F_p that gf's Poly and fqarray
paths replaced: coefficient lists in ascending order, one Python loop per
product and reduction.  It held the modulus search (Rabin's test), the
generator search and the table-free scalar product, and it is the
reference those are compared against."""


def pnorm(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return pnorm(out)


def pmod(a: list[int], f: list[int], p: int) -> list[int]:
    a = a[:]
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) - 1 >= df and a:
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fi) % p
        pnorm(a)
    return a


def pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        a, b = b, pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def ppowmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = pmod(base, f, p)
    while e:
        if e & 1:
            result = pmod(pmul(result, base, p), f, p)
        base = pmod(pmul(base, base, p), f, p)
        e >>= 1
    return result


def prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + ([n] if n > 1 else [])


def is_irreducible(f: list[int], p: int) -> bool:
    """Rabin test: f of degree n is irreducible over F_p iff x^(p^n) = x
    mod f and gcd(x^(p^(n/l)) - x, f) = 1 for every prime l dividing n."""
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    x = [0, 1]
    for ell in prime_factors(n):
        h = ppowmod(x, p ** (n // ell), f, p)
        h = pnorm([(h[i] if i < len(h) else 0) - (x[i] if i < len(x) else 0)
                   for i in range(max(len(h), len(x)))])
        h = [c % p for c in h]
        if len(pgcd(h, f, p)) != 1:
            return False
    return ppowmod(x, p ** n, f, p) == x


def least_irreducible(p: int, n: int) -> list[int]:
    """Monic degree-n polynomials scanned in ascending low-coefficient
    encoding; the first irreducible one."""
    for enc in range(p ** n):
        coeffs = []
        e = enc
        for _ in range(n):
            coeffs.append(e % p)
            e //= p
        f = coeffs + [1]
        if is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")


def mul_i(spec, a: int, b: int) -> int:
    """The product of two encodings of spec, by multiplying and reducing
    their coefficient lists without any table."""
    prod = pmod(pmul(list(spec.decode(a)), list(spec.decode(b)), spec.p),
                list(spec.modulus), spec.p)
    return spec.encode(prod + [0] * (spec.deg - len(prod)))


def candidate_tables(spec):
    """(exp, log) from the generator search that the prime-factor test
    replaced: each candidate's powers by doubling, exp[L:2L] = gen^L
    exp[0:L], until a power 0 < j < order - 1 equals 1 (the candidate is
    no generator) or all order - 1 powers are found."""
    import numpy as np
    from ruledcodes import fqarray

    n1 = spec.order - 1
    for gen in range(1 if spec.deg == 1 else spec.p, spec.order):
        exp, mat = fqarray.digits(spec, [1]), fqarray.matrix(spec, gen)
        while exp.shape[1] < n1:
            block = fqarray.linear(spec, mat, exp)[:, :n1 - exp.shape[1]]
            if (fqarray.encode(spec, block) == 1).any():
                break
            exp = np.concatenate([exp, block], axis=1)
            mat = mat @ mat % spec.p
        else:
            exp = fqarray.encode(spec, exp)
            log = np.zeros(spec.order, dtype=np.int64)
            log[exp] = np.arange(n1)
            return exp.tolist(), log.tolist()
    raise AssertionError("no generator found")  # unreachable
