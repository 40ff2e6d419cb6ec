"""Exact arithmetic in finite fields F_{p^m} and their extensions.

Every field is represented absolutely, as F_p[z]/(f) for a deterministic
irreducible modulus f (the lexicographically least one in ascending
coefficient-encoding order), so serialized data is reproducible across runs.
Elements are encoded as integers in [0, p^deg) via sum(c_i * p^i) over the
coefficient vector; this encoding is the wire format used by all exports.

An extension F_{q^d} of a field F_q is just another absolute field of degree
deg(F_q) * d over F_p, together with a cached embedding computed once by
finding the least root of the small modulus inside the big field.  The
Frobenius of a field is x -> x^q where q is the cardinality of the field it
was extended from (for a field built directly by field_create, its own
cardinality, so Frobenius is the identity there).
"""

from __future__ import annotations

import numpy as np

from . import fqarray

DESK_CAP = 1 << 20          # largest field order we agree to construct
_TABLE_MAX = 1 << 16        # build exp/log tables up to this order


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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


# ---------------------------------------------------------------------------
# low-level polynomial arithmetic over F_p (coefficient lists, ascending)

def _pnorm(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pnorm(out)


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    a = a[:]
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) - 1 >= df and a:
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fi) % p
        _pnorm(a)
    return a


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _ppowmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(base, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        e >>= 1
    return result


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin test: f of degree n is irreducible over F_p iff x^(p^n) = x
    mod f and gcd(x^(p^(n/l)) - x, f) = 1 for every prime l dividing n."""
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    x = [0, 1]
    for ell in _prime_factors(n):
        h = _ppowmod(x, p ** (n // ell), f, p)
        h = _pnorm([(h[i] if i < len(h) else 0) - (x[i] if i < len(x) else 0)
                    for i in range(max(len(h), len(x)))])
        h = [c % p for c in h]
        if len(_pgcd(h, f, p)) != 1:
            return False
    top = _ppowmod(x, p ** n, f, p)
    return top == x


def _least_irreducible(p: int, n: int) -> list[int]:
    # monic degree-n polynomials scanned in ascending low-coefficient encoding
    for enc in range(p ** n):
        coeffs = []
        e = enc
        for _ in range(n):
            coeffs.append(e % p)
            e //= p
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return f
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
        self._coords = {}               # subfield coordinate maps, see rrspace
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
        prod = _pmul(list(self.decode(a)), list(self.decode(b)), self.p)
        prod = _pmod(prod, list(self.modulus), self.p)
        return self.encode(prod + [0] * (self.deg - len(prod)))

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
        result = 1
        while e:
            if e & 1:
                result = self.mul_i(result, a)
            a = self.mul_i(a, a)
            e >>= 1
        return result

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
        # mul_i and pow_i take their table-free branches while _exp is None.
        # exp doubles in length: exp[L:2L] is gen^L times exp[0:L].
        n1 = self.order - 1
        factors = _prime_factors(n1) if n1 > 1 else []
        gen = next(cand for cand in range(1, self.order)
                   if all(self.pow_i(cand, n1 // ell) != 1 for ell in factors))
        exp = fqarray.digits(self, [1])
        while exp.shape[1] < n1:
            step = self.mul_i(int(fqarray.encode(self, exp[:, -1])), gen)
            exp = np.concatenate([exp, fqarray.scale(self, step, exp)], axis=1)
        exp = fqarray.encode(self, exp[:, :n1])
        log = np.zeros(self.order, dtype=np.int64)
        log[exp] = np.arange(n1)
        self._exp, self._log = exp.tolist(), log.tolist()

    # -- element-level API

    def element(self, enc: int) -> "FieldElement":
        return FieldElement(self, enc % self.order)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self):
        for enc in range(self.order):
            yield FieldElement(self, enc)

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
        # least root of the small modulus inside this field; roots form one
        # p-power orbit, and an ascending scan finds the least one first
        mod = small.modulus
        root = None
        for cand in range(self.order):
            acc = 0
            for c in reversed(mod):
                acc = self.add_i(self.mul_i(acc, cand), c % self.p)
            if acc == 0:
                root = cand
                break
        if root is None:
            raise AssertionError("modulus has no root in extension")
        pows = [1]
        for _ in range(small.deg - 1):
            pows.append(self.mul_i(pows[-1], root))
        self._embeddings[key] = pows
        return pows

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


def _lift(fn):
    """fn(spec, a, b) on encodings as a FieldElement operator; the other
    operand is an element of the same field or an int, a prime-field
    constant."""
    def op(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, fn(self.spec, self.val, v))
    return op


class FieldElement:
    """An element of a FieldSpec, immutable, encoded as an integer."""

    __slots__ = ("spec", "val")

    def __init__(self, spec: FieldSpec, val: int):
        self.spec = spec
        self.val = val

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec.decode(self.val)

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise ValueError("mixed field specs")
            return other.val
        if isinstance(other, int):
            return other % self.spec.p
        return NotImplemented

    __add__ = __radd__ = _lift(FieldSpec.add_i)
    __sub__ = _lift(FieldSpec.sub_i)
    __rsub__ = _lift(lambda s, a, b: s.sub_i(b, a))
    __mul__ = __rmul__ = _lift(FieldSpec.mul_i)
    __truediv__ = _lift(lambda s, a, b: s.mul_i(a, s.inv_i(b)))
    __rtruediv__ = _lift(lambda s, a, b: s.mul_i(b, s.inv_i(a)))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg_i(self.val))

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow_i(self.val, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv_i(self.val))

    def frobenius(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.frob_i(self.val))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.val == other.val and self.spec == other.spec
        if isinstance(other, int):
            return self.val == other % self.spec.p
        return NotImplemented

    def __hash__(self):
        # an element equal to the int c, 0 <= c < p, hashes like c
        return hash(self.val)

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"{self.val}@{self.spec!r}"


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
    The embedding of spec is computed eagerly and cached; use embed().
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


def embed(x: FieldElement, target: FieldSpec) -> FieldElement:
    """Image of x under the cached embedding of its field into target."""
    return FieldElement(target, target.embed_i(x.spec, x.val))


def frobenius_orbit(x: FieldElement) -> list[FieldElement]:
    """Orbit of x under the tower Frobenius y -> y^q, starting at x."""
    return [FieldElement(x.spec, v) for (v,) in x.spec.orbit((x.val,))]
