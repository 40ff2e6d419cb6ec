"""Parameter bounds and exact brute-force verification.

The two family bounds return a BoundReport with validity flags instead of
raising, so parameter sweeps can tabulate invalid regions.  All arithmetic
is integer-only.

exact_params finds the minimum distance by a single-threaded projective
meet-in-the-middle search: it visits one word per line of the code, (q^k - 1)
/ (q - 1) in all, by comparing blocks of rows of one small span table with a
whole second one, both packed as bit planes of their encodings, by XOR and
popcount, the same way for every q.  The tables and the q scalar multiples of
each row they are summed from are fqarray operations on whole arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import fqarray, linalg

if TYPE_CHECKING:
    from .codes import LinearCode

EXACT_CAP_DEFAULT = 10 ** 7
_WORDS = 1 << 15        # word pairs times uint64 words per plane, per array step


class CapExceededError(ValueError):
    """The exact distance search was refused because q^k exceeds the cap."""


@dataclass
class BoundReport:
    family: str
    n: int
    k_lower: int
    d_lower: int
    valid: bool
    flags: dict = field(default_factory=dict)
    achieving: dict = field(default_factory=dict)

    def as_dict(self):
        return {"family": self.family, "n": self.n, "k_lower": self.k_lower,
                "d_lower": self.d_lower, "valid": self.valid,
                "flags": dict(self.flags), "achieving": dict(self.achieving)}


def bound_elm_family(q: int, N: int, g: int, d: int, a: int, b: int) -> BoundReport:
    """Length, dimension and distance records for the elm-surface family."""
    flags = {
        "b_range": 0 <= b < N,
        "degree_domain": d >= 2 and a >= 0,
        "injectivity": a * d < 2 * (b + 1 - g),
    }
    n = (q + 1) * N
    k_lower = (a + 1) * (b + 1 - g) - d * a * (a + 1) // 2
    m = min(a, b // d) if d >= 1 else a
    flags["m_range"] = 0 <= m < q + 1
    cand = {0: (q + 1) * (N - b), m: (q + 1 - m) * (N - b + d * m)}
    d_lower = min(cand.values())
    arg = min(cand, key=lambda t: cand[t])
    return BoundReport("elm_surface", n, k_lower, d_lower, all(flags.values()),
                       flags, {"m": m, "min_at": arg})


def bound_decomposable_family(q: int, N: int, g: int, e: int, a: int, b: int) -> BoundReport:
    """Records for the decomposable family with Segre invariant -e.

    The b < ae case uses the value derived from the section-point
    inequality, (q - floor(b/e)) (N - b + floor(b/e) e), which is the one
    consistent with the covering-curve count.
    """
    flags = {
        "a_range": 0 <= a <= q,
        "b_range": 0 <= b < N,
        "injectivity": a * e < 2 * (b + 1 - g),
        "degree_domain": e >= 0,
    }
    n = (q + 1) * N
    k_lower = (a + 1) * (b + 1 - g) - e * a * (a + 1) // 2
    if a == 0:
        d_lower = (q + 1) * (N - b)
        case = "a=0"
    elif e > 0 and b < a * e:
        j = b // e
        d_lower = min((q - j) * (N - b + j * e), q * (N - b))
        case = "b<ae"
    else:
        d_lower = min((q + 1 - a) * (N - b + (a - 1) * e), q * (N - b))
        case = "b>=ae"
    return BoundReport("decomposable_surface", n, k_lower, d_lower, all(flags.values()),
                       flags, {"case": case})


def bound_unisecant(q: int, N: int, g: int, degE: int, s_a: int,
                    degL: int) -> BoundReport:
    """Records for a = 1 codes: k >= degE + 2(degL+1-g) and
    d >= q(N - (degE - s_a)/2 - degL)."""
    if (degE - s_a) % 2 != 0:
        raise ValueError("parity violation: s_a = degE mod 2 must hold")
    n = (q + 1) * N
    k_lower = degE + 2 * (degL + 1 - g)
    d_lower = q * (N - (degE - s_a) // 2 - degL)
    valid = k_lower > 0 and d_lower > 0
    return BoundReport("unisecant", n, k_lower, d_lower, valid,
                       {"positive_rhs": valid}, {"degL": degL, "s_a": s_a})


def section_count_profile(family: str, params: dict):
    """Per-t (or per-n) bounds on rational points of a global section.

    family "elm_surface": #S(k) <= nN + (q+1-n)(b-dn) over 0 <= n <= m.
    family "decomposable_surface": the two-case fiber-count inequality over 0 <= t <= b.
    Returns (profile list, max); n_total - max equals the family d_lower.
    """
    q, N, g = params["q"], params["N"], params["g"]
    a, b = params["a"], params["b"]
    profile = []
    if family == "elm_surface":
        d = params["d"]
        m = min(a, b // d)
        for n in range(m + 1):
            profile.append((n, n * N + (q + 1 - n) * (b - d * n)))
    elif family == "decomposable_surface":
        e = params["e"]
        for t in range(b + 1):
            if a != 0 and t > b - a * e:
                val = q * t + N + ((b - t) // e) * (N - t)
            else:
                val = (q + 1 - a) * t + a * N
            profile.append((t, val))
    else:
        raise ValueError(f"unknown family {family!r}")
    best = max(v for _, v in profile)
    total = (q + 1) * N
    if family == "elm_surface":
        ref = bound_elm_family(q, N, g, params["d"], a, b)
    else:
        ref = bound_decomposable_family(q, N, g, params["e"], a, b)
    assert best + ref.d_lower == total, (
        "profile maximum is inconsistent with the distance record")
    return profile, best


def griesmer_check(n: int, k: int, d: int, q: int):
    """(n >= sum_{i<k} ceil(d/q^i), the sum)."""
    if k < 1:
        raise ValueError("Griesmer check needs k >= 1")
    total = 0
    for i in range(k):
        total += -(-d // q ** i)
    return n >= total, total


def singleton_check(n: int, k: int, d: int) -> bool:
    return k + d <= n + 1


# ---------------------------------------------------------------------------
# exact parameters by a projective meet-in-the-middle search

def _span(spec, multiples, n):
    """Every F_q-combination of some rows, one per table row, in digit form.

    multiples holds, per row, the digit form of its q scalar multiples.
    """
    table = np.zeros((spec.deg, 1, n), dtype=np.int64)
    for mult in multiples:
        table = fqarray.add(spec, table[:, :, None, :],
                            mult[:, None, :, :]).reshape(spec.deg, -1, n)
    return table


def _planes(spec, enc):
    """Bit t < b = (q - 1).bit_length() of an (m, n) array of encodings, as
    (b, ceil(n / 64), m) uint64 words of 64 coordinates, 0-padded."""
    m, n = enc.shape
    enc = enc.astype(np.uint32)  # q <= gf.DESK_CAP
    out = np.zeros(((spec.order - 1).bit_length(), m, -(-n // 64) * 8), dtype=np.uint8)
    for t, plane in enumerate(out):
        bits = (enc >> t).astype(np.uint8) & 1
        plane[:, :-(-n // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return np.ascontiguousarray(out.view(np.uint64).transpose(0, 2, 1))


def exact_params(code: LinearCode, cap: int = EXACT_CAP_DEFAULT):
    """(n, k, exact minimum distance) by a projective meet-in-the-middle search.

    k is the recomputed rank.  Raises CapExceededError when q^k > cap, before
    any table is built.  Every nonzero codeword is a scalar multiple of exactly
    one word g_j + sum_{i>j} m_i g_i of the rref rows g, so only those
    (q^k - 1)/(q - 1) words are visited.  For each j the rows after g_j are
    split in two halves whose spans are small tables; the span of the first
    half, shifted by g_j, is the smaller table.  Since the span S of the second
    half is closed under negation, min over s in S of wt(w + s) is the least
    distance from w to S: the popcount of the OR over bit planes of w XOR s,
    taken for a block of rows w and all of S in one array step.
    """
    spec = code.spec
    rows, _ = linalg.rref(spec, code.matrix)
    k = len(rows)
    n = code.n
    if k == 0:
        return n, 0, 0
    q = spec.order
    total = q ** k
    if total > cap:
        raise CapExceededError(
            f"q^k = {total} exceeds the exhaustive cap {cap}; rerun with a "
            "higher cap or fall back to a sampled probabilistic lower bound")
    gens = fqarray.digits(spec, rows)
    scalars = fqarray.digits(spec, np.arange(q))[:, :, None]
    multiples = [fqarray.mul(spec, scalars, gens[:, i, None, :])
                 for i in range(1, k)]
    best = n
    for j in range(k):
        rest = multiples[j:]
        half = len(rest) // 2
        lead = fqarray.add(spec, _span(spec, rest[:half], n), gens[:, j, None, :])
        lead = _planes(spec, fqarray.encode(spec, lead))
        other = _planes(spec, fqarray.encode(spec, _span(spec, rest[half:], n)))
        step = max(1, _WORDS // other[0].size)
        for lo in range(0, lead.shape[2], step):
            diff = lead[0, :, lo:lo + step, None] ^ other[0, :, None]
            for x, y in zip(lead[1:], other[1:]):
                diff |= x[:, lo:lo + step, None] ^ y[:, None]
            best = min(best, int(np.bitwise_count(diff).sum(axis=0, dtype=np.uint32).min()))
    return n, k, best
