"""Exact arithmetic in finite fields F_{p^m} and their extensions.

Every field is represented absolutely, as F_p[z]/(f) for a deterministic
irreducible modulus f (the lexicographically least one in ascending
coefficient-encoding order), so serialized data is reproducible across runs.
Elements are encoded as integers in [0, p^deg) via sum(c_i * p^i) over the
coefficient vector.  This encoding is the one element representation: every
module computes on it, scalars here and arrays in fqarray, and it is the
wire format of all exports.
The modulus is found by Rabin's test on Poly over F_p, except for the
fields F_{p^m}, m >= 2, of characteristic 2, 3, 5 and 7 up to DESK_CAP,
whose moduli (and the generators their exp/log tables start from) are read
from _KNOWN.  Up to _TABLE_MAX elements, products of scalars and of arrays
go through exp/log tables (fqarray reads numpy copies of the lists the
scalar methods read); above it, through fqarray's multiplication matrix of
one factor applied to the digits of the other.

A field is its modulus: there is one FieldSpec per order p^m, whichever
tower reaches it.  The extension F_{q^d} of a field F_q is the absolute
field of degree deg(F_q) * d over F_p, together with a cached embedding
computed once by finding the least root of the small modulus inside the big
field, one fqarray Horner step per chunk of encodings.  A Frobenius orbit is
relative to a subfield F_q, and its caller names q: FieldSpec.orbit(t, q)
follows x -> x^q.
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


# For p = 2, 3, 5, 7 and m = 2, 3, .. up to DESK_CAP, "low:gen" per m: the
# least modulus of F_{p^m} as its low coefficients' encoding sum c_i p^i,
# and the generator the exp/log tables start from (0 above _TABLE_MAX,
# where none are built).  They are what _least_irreducible and
# FieldSpec._least_generator return, as test_gf checks; strings, because a
# literal of tuples costs every process ten times as much to compile.
_KNOWN = {
    2: "3:2 3:2 3:2 5:2 3:2 3:2 27:3 3:7 9:2 5:2 9:3 27:2 33:7 3:2 43:3 9:0 9:0 39:0 9:0",
    3: "1:4 7:3 5:3 7:3 5:3 11:5 11:38 64:3 19:34 11:0 11:0",
    5: "2:6 6:9 2:6 21:10 7:5 6:0 2:0",
    7: "1:9 2:22 8:12 10:9 2:0 43:0",
}


# ---------------------------------------------------------------------------

class FieldSpec:
    """An absolute finite field F_p[z]/(modulus) of a given degree over F_p.

    Do not call the constructor directly; use field_create and extend, which
    cache one spec per order, so equal fields are identical objects and
    equality is identity.  gen, when nonzero, is the generator
    _least_generator would find, and the exp/log tables start from it.
    """

    __slots__ = ("p", "deg", "modulus", "order", "_exp", "_log", "_arrays",
                 "_embeddings", "_coords", "_fq_maps", "_fq_tables")

    def __init__(self, p: int, deg: int, modulus: tuple[int, ...], gen: int = 0):
        self.p = p
        self.deg = deg
        self.modulus = modulus          # full coefficient tuple, monic
        self.order = p ** deg
        self._exp = None
        self._log = None
        self._arrays = None             # exp and log as numpy arrays
        self._embeddings = {}           # by the order of the embedded field
        self._coords = {}               # inverse basis matrices, see fqarray.coords
        self._fq_maps = None            # fqarray's digit powers and reduction maps
        self._fq_tables = None          # fqarray's tables, from _arrays
        if self.order <= _TABLE_MAX:
            self._build_tables(gen or self._least_generator())

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

    def orbit(self, t: tuple, q: int) -> list[tuple]:
        """Orbit of the coordinate tuple t under the Frobenius x -> x^q of
        the subfield F_q, starting at t.

        Raises ValueError if an encoding in t is outside 0..order-1, where
        the orbit would never return to t, or if q is not the order of a
        subfield, where x -> x^q is no Frobenius over F_q.
        """
        if min(t) < 0 or max(t) >= self.order:
            raise ValueError(f"{t} holds an encoding outside 0..{self.order - 1} "
                             f"of {self!r}")
        # q = p^k with k | deg iff q divides order and q - 1 divides order - 1
        if q < 2 or self.order % q or (self.order - 1) % (q - 1):
            raise ValueError(f"{q} is not the order of a subfield of {self!r}")
        pow_i, qs = self.pow_i, (q,) * len(t)
        out = [t]
        nxt = tuple(map(pow_i, t, qs))
        while nxt != t:
            out.append(nxt)
            nxt = tuple(map(pow_i, nxt, qs))
        return out

    # -- tables

    def _least_generator(self) -> int:
        """The least g with g^((order - 1)/l) != 1 for every prime l
        dividing order - 1, which generates the multiplicative group; pow_i
        takes its square-and-multiply path here, as the tables are not
        built yet.  Elements of F_p have orders dividing p - 1, so for
        deg > 1 no generator is among them."""
        n1 = self.order - 1
        return next(g for g in range(1 if self.deg == 1 else self.p, self.order)
                    if all(self.pow_i(g, n1 // ell) != 1
                           for ell in _prime_factors(n1)))

    def _build_tables(self, gen: int):
        n1 = self.order - 1
        exp = self._cyclic_powers(gen)
        log = np.zeros(self.order, dtype=np.int64)
        log[exp] = np.arange(n1)
        self._arrays = exp, log
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
        """The images here of small's basis 1, z, .., z^(deg(small) - 1):
        the powers of the least root of small's modulus, or of z itself when
        small is this field (the one spec of its order)."""
        if small.order not in self._embeddings:
            if small.p != self.p or self.deg % small.deg != 0:
                raise ValueError(f"{small} does not embed into {self}")
            pows = [1]
            if small.deg > 1:
                root = self.p if small.deg == self.deg else self._least_root(small.modulus)
                for _ in range(small.deg - 1):
                    pows.append(self.mul_i(pows[-1], root))
            self._embeddings[small.order] = pows
        return self._embeddings[small.order]

    def _least_root(self, mod: tuple[int, ...]) -> int:
        """The least root in this field of a monic polynomial over F_p, by
        one fqarray Horner step per chunk of encodings."""
        for lo, hi in fqarray.chunks(self.order):
            x = np.arange(lo, hi)
            acc = x                         # the leading 1 times x
            for c in reversed(mod[1:-1]):
                acc = fqarray.mul(self, fqarray.add(self, acc, c), x)
            hits = np.flatnonzero(fqarray.add(self, acc, mod[0]) == 0)
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
    key = (p, m)
    if key not in _SPEC_CACHE:
        known = _KNOWN.get(p, "").split()
        if 2 <= m < len(known) + 2:
            low, gen = map(int, known[m - 2].split(":"))
            modulus = tuple(low // p ** i % p for i in range(m)) + (1,)
        else:
            modulus, gen = tuple(_least_irreducible(p, m)), 0
        _SPEC_CACHE[key] = FieldSpec(p, m, modulus, gen)
    return _SPEC_CACHE[key]


def extend(spec: FieldSpec, d: int) -> FieldSpec:
    """The extension F_{q^d} of spec = F_q: the field field_create(p,
    deg(spec) * d), whichever tower reaches it, with the embedding of spec
    computed and cached (use embed_i).  Its orbits over F_q are
    orbit(t, spec.order).  field_create refuses d < 1 and the cap.
    """
    # the cache first: ClosedPoint.ext_spec calls this on every access
    n = spec.deg * d
    big = _SPEC_CACHE.get((spec.p, n)) or field_create(spec.p, n)
    big._embedding_powers(spec)  # force and cache the embedding now
    return big
