"""Dense univariate polynomials over a FieldSpec (integer-encoded coeffs)."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .gf import FieldSpec


class Poly:
    """Polynomial with ascending coefficient tuple; immutable."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.spec = spec
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, spec):
        return cls(spec, ())

    @classmethod
    def one(cls, spec):
        return cls(spec, (1,))

    @classmethod
    def x(cls, spec):
        return cls(spec, (0, 1))

    @classmethod
    def const(cls, spec, c: int):
        return cls(spec, (c,))

    @classmethod
    def from_roots(cls, spec, roots):
        out = cls.one(spec)
        for r in roots:
            out = out * cls(spec, (spec.neg_i(r), 1))
        return out

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention here
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.spec == other.spec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.spec.p, self.spec.deg))

    def __add__(self, other):
        s = self.spec
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = s.add_i(out[i], c)
        return Poly(s, out)

    def __neg__(self):
        s = self.spec
        return Poly(s, [s.neg_i(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        s = self.spec
        if isinstance(other, int):
            return Poly(s, [s.mul_i(other, c) for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(s)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = s.add_i(out[i + j], s.mul_i(ai, bj))
        return Poly(s, out)

    __rmul__ = __mul__

    def __pow__(self, e: int, mod: "Poly | None" = None):
        """self^e; pow(self, e, mod) reduces mod `mod` after every product."""
        def reduce(f):
            return f if mod is None else f % mod
        out, base = Poly.one(self.spec), self
        while e:
            if e & 1:
                out = reduce(out * base)
            e >>= 1
            if e:
                base = reduce(base * base)
        return reduce(out)

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return Poly(self.spec, (0,) * k + self.coeffs)

    def divmod(self, other: "Poly"):
        s = self.spec
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(s), self
        quot = [0] * (dq + 1)
        inv_lead = s.inv_i(other.coeffs[-1])
        for i in range(dq, -1, -1):
            top = rem[i + other.degree]
            if top:
                quot[i] = c = s.mul_i(top, inv_lead)
                nc = s.neg_i(c)
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] = s.add_i(rem[i + j], s.mul_i(nc, oc))
        return Poly(s, quot), Poly(s, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = self.spec.inv_i(self.coeffs[-1])
        return Poly(self.spec, [self.spec.mul_i(inv, c) for c in self.coeffs])

    def eval_i(self, x: int, target: FieldSpec | None = None) -> int:
        """Horner evaluation; coefficients are embedded into target if it is
        another field."""
        s = target or self.spec
        cs = self.coeffs if s is self.spec else [s.embed_i(self.spec, c)
                                                 for c in self.coeffs]
        acc = 0
        for c in reversed(cs):
            acc = s.add_i(s.mul_i(acc, x), c)
        return acc

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + ")"
