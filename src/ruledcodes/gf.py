"""Exact arithmetic in finite fields F_{p^m} and their extensions.

Every field is represented absolutely, as F_p[z]/(f) for a deterministic
irreducible modulus f (the lexicographically least one in ascending
coefficient-encoding order), so serialized data is reproducible across runs.
Elements are encoded as integers in [0, p^deg) via sum(c_i * p^i) over the
coefficient vector.  This encoding is the one element representation: every
module computes on it, and it is the wire format of all exports.
The modulus is found by Rabin's test on Poly over F_p.  Up to _TABLE_MAX
elements, products go through exp/log tables; above it, through fqarray's
multiplication matrix of one factor applied to the digits of the other.

An extension F_{q^d} of a field F_q is just another absolute field of degree
deg(F_q) * d over F_p, together with a cached embedding computed once by
finding the least root of the small modulus inside the big field, one
fqarray Horner step per chunk of encodings.  The Frobenius of a field is
x -> x^q where q is the cardinality of the field it was extended from (for a
field built directly by field_create, its own cardinality, so Frobenius is
the identity there).
"""

from __future__ import annotations

import numpy as np

from . import fqarray
from .poly import Poly

DESK_CAP = 1 << 20          # largest field order we agree to construct
_TABLE_MAX = 1 << 16        # build exp/log tables up to this order


# Miller-Rabin to the 13 bases 2, 3, ..., 41 is exact below this bound
# (the least strong pseudoprime to all of them; Sorenson and Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CERT_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_CERT_BOUND.

    Raises ValueError for larger n, whose answer it could not certify.
    """
    if n < 2:
        return False
    if n >= PRIME_CERT_BOUND:
        raise ValueError(f"primality is certified only below {PRIME_CERT_BOUND}")
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, m: int) -> int:
    """floor(n^(1/m)) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // m)
    while True:
        y = ((m - 1) * x + n // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(f: Poly) -> bool:
    """Rabin's test for a monic f of degree n >= 2 over F_p: f is irreducible
    iff x^(p^n) = x mod f and gcd(x^(p^(n/l)) - x, f) = 1 for every prime l
    dividing n.  One chain of p-th powers gives every x^(p^k)."""
    n, p, x = f.degree, f.spec.p, Poly.x(f.spec)
    checks = {n // ell for ell in _prime_factors(n)}
    h = x
    for k in range(1, n + 1):
        h = pow(h, p, f)
        if k in checks and (h - x).gcd(f).degree > 0:
            return False
    return h == x


def _least_irreducible(p: int, n: int) -> list[int]:
    """The least monic irreducible polynomial of degree n over F_p in
    ascending low-coefficient encoding order, as a coefficient list."""
    if n == 1:
        return [0, 1]
    fp = field_create(p, 1)
    for enc in range(p ** n):
        f = Poly(fp, [enc // p ** i % p for i in range(n)] + [1])
        # a root in F_p is a linear factor; Rabin is not needed for that
        if all(f.eval_i(a) for a in range(p)) and _is_irreducible(f):
            return list(f.coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------

class FieldSpec:
    """An absolute finite field F_p[z]/(modulus) of a given degree over F_p.

    base_card is the cardinality q of the tower base: frobenius acts as
    x -> x^q.  Do not call the constructor directly; use field_create and
    extend, which cache specs so equal fields are identical objects.
    """

    __slots__ = ("p", "deg", "modulus", "base_card", "order", "_exp", "_log",
                 "_embeddings", "_coords", "_fq_maps")

    def __init__(self, p: int, deg: int, modulus: tuple[int, ...],
                 base_card: int):
        self.p = p
        self.deg = deg
        self.modulus = modulus          # full coefficient tuple, monic
        self.base_card = base_card
        self.order = p ** deg
        self._exp = None
        self._log = None
        self._embeddings = {}
        self._coords = {}               # inverse basis matrices, see rrspace
        self._fq_maps = None            # fqarray's digit powers and reduction maps
        if self.order <= _TABLE_MAX:
            self._build_tables()

    # -- representation helpers

    def __repr__(self):
        return f"GF({self.p}^{self.deg})"

    def encode(self, coeffs) -> int:
        enc = 0
        for c in reversed(list(coeffs)):
            enc = enc * self.p + (int(c) % self.p)
        return enc

    def decode(self, enc: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.deg):
            out.append(enc % self.p)
            enc //= self.p
        return tuple(out)

    # -- integer-encoded arithmetic (the inner-loop API)

    def add_i(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.deg == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg_i(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.deg == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        mult = 1
        while a:
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub_i(self, a: int, b: int) -> int:
        return self.add_i(a, self.neg_i(b))

    def mul_i(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        prod = fqarray.matrix(self, a) @ fqarray.digits(self, b) % self.p
        return int(fqarray.encode(self, prod))

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if self._exp is not None:
            return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]
        return self.pow_i(a, self.order - 2)

    def pow_i(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inversion of zero field element")
            return 1 if e == 0 else 0
        if e < 0:
            a = self.inv_i(a)
            e = -e
        e %= self.order - 1
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        # Square-and-multiply on a's matrix over F_p.
        result, mat = fqarray.digits(self, 1), fqarray.matrix(self, a)
        while e:
            if e & 1:
                result = mat @ result % self.p
            mat = mat @ mat % self.p
            e >>= 1
        return int(fqarray.encode(self, result))

    def frob_i(self, a: int) -> int:
        return self.pow_i(a, self.base_card)

    def orbit(self, t: tuple) -> list[tuple]:
        """Frobenius orbit of the coordinate tuple t, starting at t.

        Raises ValueError if an encoding in t is outside 0..order-1: Frobenius
        maps it into the field, so the orbit would never return to t.
        """
        if min(t) < 0 or max(t) >= self.order:
            raise ValueError(f"{t} holds an encoding outside 0..{self.order - 1} "
                             f"of {self!r}")
        frob = self.frob_i
        out = [t]
        nxt = tuple(map(frob, t))
        while nxt != t:
            out.append(nxt)
            nxt = tuple(map(frob, nxt))
        return out

    # -- tables

    def _build_tables(self):
        # The least g with g^((order - 1)/l) != 1 for every prime l dividing
        # order - 1 generates the multiplicative group; pow_i takes its
        # square-and-multiply path here, as the tables are not built yet.
        # Elements of F_p have orders dividing p - 1, so for deg > 1 no
        # generator is among them.
        n1 = self.order - 1
        gen = next(g for g in range(1 if self.deg == 1 else self.p, self.order)
                   if all(self.pow_i(g, n1 // ell) != 1
                          for ell in _prime_factors(n1)))
        exp = self._cyclic_powers(gen)
        log = np.zeros(self.order, dtype=np.int64)
        log[exp] = np.arange(n1)
        self._exp, self._log = exp.tolist(), log.tolist()

    def _cyclic_powers(self, gen: int):
        """The encodings of gen^0 .. gen^(order - 2).  The list doubles in
        length: exp[L:2L] is gen^L times exp[0:L], and squaring the matrix
        of gen^L gives that of gen^2L."""
        n1 = self.order - 1
        exp, mat = fqarray.digits(self, [1]), fqarray.matrix(self, gen)
        while exp.shape[1] < n1:
            block = fqarray.linear(self, mat, exp)[:, :n1 - exp.shape[1]]
            exp = np.concatenate([exp, block], axis=1)
            mat = mat @ mat % self.p
        return fqarray.encode(self, exp)

    # -- embeddings

    def _embedding_powers(self, small: "FieldSpec") -> list[int]:
        key = (small.p, small.deg, small.modulus)
        if key in self._embeddings:
            return self._embeddings[key]
        if small.p != self.p or self.deg % small.deg != 0:
            raise ValueError(f"{small} does not embed into {self}")
        if small.deg == self.deg:
            if small.modulus != self.modulus:
                raise ValueError("distinct specs of the same degree")
            pows = [self.encode((0,) * i + (1,) + (0,) * (self.deg - i - 1))
                    for i in range(small.deg)]
            self._embeddings[key] = pows
            return pows
        pows = [1]
        if small.deg > 1:
            root = self._least_root(small.modulus)
            for _ in range(small.deg - 1):
                pows.append(self.mul_i(pows[-1], root))
        self._embeddings[key] = pows
        return pows

    def _least_root(self, mod: tuple[int, ...]) -> int:
        """The least root in this field of a monic polynomial over F_p, by
        one Horner step in digit form per chunk of encodings."""
        for lo, hi in fqarray.chunks(self.order):
            x = fqarray.digits(self, np.arange(lo, hi))
            acc = x.copy()                  # the leading 1 times x
            for c in reversed(mod[1:-1]):
                acc[0] = (acc[0] + c) % self.p
                acc = fqarray.mul(self, acc, x)
            acc[0] = (acc[0] + mod[0]) % self.p
            hits = np.flatnonzero(~acc.any(axis=0))
            if hits.size:
                return lo + int(hits[0])
        raise AssertionError("modulus has no root in extension")

    def embed_i(self, small: "FieldSpec", enc: int) -> int:
        if small is self:
            return enc
        pows = self._embedding_powers(small)
        digits = small.decode(enc)
        out = 0
        for d, r in zip(digits, pows):
            if d:
                out = self.add_i(out, self.mul_i(d, r))
        return out

    def __eq__(self, other):
        return self is other or (isinstance(other, FieldSpec)
                                 and self.p == other.p
                                 and self.deg == other.deg
                                 and self.modulus == other.modulus
                                 and self.base_card == other.base_card)

    def __hash__(self):
        return hash((self.p, self.deg, self.modulus, self.base_card))


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, m) with q = p^m for a prime p, or None if q is no prime power.

    Tries the integer m-th roots of q, largest m first, so only a root at
    or above PRIME_CERT_BOUND (then is_prime's ValueError) is undecided.
    """
    if q < 2:
        return None
    for m in range(q.bit_length() - 1, 0, -1):
        p = _iroot(q, m)
        if p ** m == q and is_prime(p):
            return p, m
    return None


_SPEC_CACHE: dict = {}


def within_desk_cap(p: int, n: int) -> bool:
    """p^n <= DESK_CAP, decided without forming p^n for a huge n."""
    return n < DESK_CAP.bit_length() and p ** n <= DESK_CAP


def field_create(p: int, m: int) -> FieldSpec:
    """The field F_{p^m} with the deterministic least modulus.

    Raises ValueError if p is not prime or m < 1.
    """
    if m < 1:
        raise ValueError(f"extension degree m = {m} must be >= 1")
    # the cap comes first: trial division of a huge p would not end
    if not within_desk_cap(p, m):
        raise ValueError(f"field order {p}^{m} exceeds desk-scale cap {DESK_CAP}")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    key = ("create", p, m)
    if key not in _SPEC_CACHE:
        modulus = tuple(_least_irreducible(p, m))
        _SPEC_CACHE[key] = FieldSpec(p, m, modulus, p ** m)
    return _SPEC_CACHE[key]


def extend(spec: FieldSpec, d: int) -> FieldSpec:
    """The extension F_{q^d} of spec = F_q, with Frobenius x -> x^q.

    The declared Frobenius exponent is the cardinality of the field being
    extended, so orbits partition F_{q^d} into closed points over F_q.
    The embedding of spec is computed eagerly and cached; use embed_i.
    """
    if d < 1:
        raise ValueError("extension degree must be >= 1")
    if d == 1:
        return spec
    n = spec.deg * d
    if not within_desk_cap(spec.p, n):
        raise ValueError(f"field order {spec.p}^{n} exceeds desk-scale cap {DESK_CAP}")
    key = ("extend", spec.p, n, spec.order)
    if key not in _SPEC_CACHE:
        modulus = tuple(_least_irreducible(spec.p, n))
        _SPEC_CACHE[key] = FieldSpec(spec.p, n, modulus, spec.order)
    big = _SPEC_CACHE[key]
    big._embedding_powers(spec)  # force and cache the embedding now
    return big
