"""Parameter bounds and exact brute-force verification.

The two family bounds return a BoundReport with validity flags instead of
raising, so parameter sweeps can tabulate invalid regions.  All arithmetic
is integer-only.

exact_params finds the minimum distance d after one rref, by level 1 of a
Zimmermann certificate (K.-H. Zimmermann 1996; M. Grassl, "Searching for
linear codes with large minimum distance", 2006) or, where that would not
pay, an exhaustive search.

The certificate works on information sets whose pivot columns are
disjoint.  Set 1 is the rref's own pivots.  Each further set takes one rref
of the rows with the columns that no set holds first, in the order
random.Random(n).shuffle(list(range(n))) leaves them, zero columns left
out, and the other columns after them in natural order; its pivots among
the first ones are the set, of rank r <= k.  The rows of each set are the
words visited.  A word that is no multiple of one of them has two or more
nonzero coefficients on every set, so it weighs at least
sum_j max(0, 2 - (k - r_j)), and the search returns once that bound reaches
the lightest row seen, or at once for k = 1.

Before each further set, from counts of the input alone, the certificate
goes on only while three things hold: the sets still needed,
ceil((best - bound) / 2), fit in the floor(free / k) full sets that the
columns no set holds leave; no set so far has partial rank (a set's rank is
that of the columns no earlier set holds, so every later set would be
partial too); and those sets' k pivots each, at _PIVOT compared plane words
a pivot, cost less than the exhaustive search, which compares exactly
(q^k - 1) / (q - 1) pairs of deg * bits(p - 1) planes of ceil(n / 64)
words.  Otherwise the exhaustive search runs from the lightest row seen.
Levels of message weight 2 and more are not searched: a level search,
tried on the benchmark's verify codes and on codes of the shapes the CLI
builds (a <= 2, q^k <= 10^6), never went past level 1.  On the benchmark's
F_5 [36, 10] code the certificate settles d = 5 with three sets; its F_4
[40, 10] code, and codes of small k and large d such as the product codes
over F_16 and F_49 with a <= 1, go to the exhaustive search.

The exhaustive search is a single-threaded projective meet-in-the-middle
search: it visits one word per line of the code, (q^k - 1) / (q - 1) in
all, by comparing blocks of rows of one small span table with a whole
second one, by XOR and popcount into buffers reused from block to block,
the same way for every q.  The q scalar multiples of the rows after the
first are one fqarray product; the tables are summed from them digit by
digit in the narrowest unsigned type that holds 2 (p - 1), and packed as
deg * bits(p - 1) bit planes of those digits: for some odd-p extension
fields more than the bits(q - 1) of an encoding (F_25 6 against 5, F_125 9
against 7).  A search whose tables would take more than _TABLE_BYTES is
refused with CapExceededError, like one whose q^k is over the cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import fqarray, linalg

if TYPE_CHECKING:
    from .codes import LinearCode

EXACT_CAP_DEFAULT = 10 ** 7
# the largest cap the CLI accepts: the exhaustive search's largest span
# table holds q^ceil((k - 1) / 2) <= sqrt(cap) words, 10^5 at 10^10, where
# 10^41 asked for tens of GiB on the [3200, 18] code over F_49; the table's
# bytes also grow with n, and _exhaustive checks them against _TABLE_BYTES
EXACT_CAP_MAX = 10 ** 10
# the most memory the exhaustive search may ask for its rows' multiples and
# its largest span table (_table_bytes); a code over it is refused with
# CapExceededError
_TABLE_BYTES = 1 << 30
_WORDS = 1 << 15        # word pairs times uint64 words per plane, per array step
# an information set's cost per pivot (its rref, with its rows reordered
# and weighed) in words of the exhaustive search's compared bit planes,
# median over median of 15 runs on one core (Python 3.11, numpy 2.4): 25,000
# to 36,000 on the F_5, F_7, F_9 and F_25 distance codes of
# scripts/bench_layers.py, 15,000 on its F_4 and F_49 ones
_PIVOT = 30000
# columns beyond the row count in the minor that proves a refused code's
# rank: k random independent rows have a short k x (k + 8) minor with
# probability about q^-8 / (q - 1), 1/256 at q = 2; a short minor costs one
# extra rref of the full matrix
_MINOR_SPARE = 8


class CapExceededError(ValueError):
    """The exact distance search was refused because q^k exceeds the cap,
    or its tables the memory budget _TABLE_BYTES."""


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
# exact parameters: a Zimmermann certificate, else a projective
# meet-in-the-middle search

def _add(spec, x, y):
    """x + y for two narrow digit arrays (see _multiples), reduced mod p in
    place: a sum
    s < 2p is min(s, s - p), since s - p wraps round above s when s < p
    (numpy's % is about 20 times slower on uint8)."""
    out = np.add(x, y)
    np.minimum(out, out - spec.p, out=out)
    return out


def _span(spec, multiples, start):
    """start plus every F_q-combination of some rows, one per table row, in
    narrow digit form; start is one word, (deg, 1, n).

    multiples holds the rows' q scalar multiples, (deg, rows, q, n).
    """
    table = start
    for i in range(multiples.shape[1]):
        table = _add(spec, table[:, :, None], multiples[:, i, None])
        table = table.reshape(spec.deg, -1, start.shape[2])
    return table


def _planes(spec, words):
    """Bit t < (p - 1).bit_length() of each digit of a (deg, m, n) digit
    array, as (deg * bits, ceil(n / 64), m) uint64 words of 64 coordinates,
    0-padded: two words differ on a coordinate iff some plane does."""
    deg, m, n = words.shape
    bits = 1 << np.arange((spec.p - 1).bit_length(), dtype=words.dtype)
    packed = np.packbits(words[:, None] & bits[:, None, None], axis=-1,
                         bitorder="little").reshape(-1, m, -(-n // 8))
    out = np.zeros(packed.shape[:2] + (-(-n // 64) * 8,), dtype=np.uint8)
    out[:, :, :packed.shape[2]] = packed
    return np.ascontiguousarray(out.view(np.uint64).transpose(0, 2, 1))


def _scratch(size, w):
    """Flat buffers for _distances of blocks of up to size word pairs times
    w uint64 words per plane, allocated once per table pair: numpy's
    temporaries of that size cost a fresh allocation on every array step."""
    return (np.empty(size, np.uint64), np.empty(size, np.uint64),
            np.empty(size, np.uint8), np.empty(size, np.min_scalar_type(64 * w)))


def _distances(lead, other, scratch):
    """(m1, m2) distances between the words of two bit-plane arrays: the
    popcount of the OR over planes of their XOR, its w words' counts added
    in the narrowest unsigned type that holds 64 w.  Written into scratch
    (from _scratch), and valid until its next use."""
    _, w, m1 = lead.shape
    size = w * m1 * other.shape[2]
    diff, xor, count, wide = (buf[:size].reshape(w, m1, -1) for buf in scratch)
    np.bitwise_xor(lead[0, :, :, None], other[0, :, None], out=diff)
    for x, y in zip(lead[1:], other[1:]):
        np.bitwise_xor(x[:, :, None], y[:, None], out=xor)
        diff |= xor
    np.bitwise_count(diff, out=count)
    total = count[0]
    if wide.dtype != count.dtype:
        total = wide[0]
        total[...] = count[0]
    for c in count[1:]:
        total += c
    return total


def _multiples(spec, scalars, rows):
    """Each scalar times each row, (deg, rows, scalars, n), in narrow digit
    form: the narrowest unsigned type that holds 2 (p - 1)."""
    prod = fqarray.mul(spec, np.asarray(scalars)[:, None], np.asarray(rows)[:, None])
    return fqarray.digits(spec, prod).astype(np.min_scalar_type(2 * (spec.p - 1)))


def _table_bytes(spec, k, n):
    """Bytes _exhaustive holds at once for k rows of length n, about: the q
    multiples of k - 1 rows, 3 deg int64 words a coordinate while
    fqarray.mul makes them, and its largest span table, q^ceil((k - 1) / 2)
    words of n narrow digits, twice while _add sums the last rows in and
    once more per bit plane while _planes packs it."""
    digit = np.min_scalar_type(2 * (spec.p - 1)).itemsize
    planes = (spec.p - 1).bit_length()
    return spec.deg * n * (24 * (k - 1) * spec.order
                           + digit * spec.order ** (k // 2) * (2 + planes))


def _exhaustive(spec, rows, n, best):
    """min(best, d) over the (q^k - 1)/(q - 1) words g_j + sum_{i>j} m_i g_i
    of rows in echelon form.  For each j the rows after g_j are split in two
    halves whose spans are small tables; the span of the first half, shifted
    by g_j, is the smaller table.  Since the span S of the second half is
    closed under negation, min over s in S of wt(w + s) is the least distance
    from w to S, taken for a block of words w and all of S in one array
    step.  Raises CapExceededError when the tables would take more than
    _TABLE_BYTES."""
    need = _table_bytes(spec, len(rows), n)
    if need > _TABLE_BYTES:
        raise CapExceededError(
            f"the exhaustive search needs about {need} bytes for its span "
            f"tables of length n = {n}, over its budget of {_TABLE_BYTES}; "
            "fall back to a sampled probabilistic lower bound")
    starts = _multiples(spec, [0, 1], rows)  # 0 g_j and g_j
    multiples = _multiples(spec, np.arange(spec.order), np.asarray(rows)[1:])
    for j in range(len(rows)):
        rest = multiples[:, j:]
        half = (len(rows) - 1 - j) // 2
        lead = _planes(spec, _span(spec, rest[:, :half], starts[:, j, 1, None]))
        other = _planes(spec, _span(spec, rest[:, half:], starts[:, j, 0, None]))
        step = max(1, _WORDS // other[0].size)
        scratch = _scratch(other[0].size * min(step, lead.shape[2]), other.shape[1])
        for lo in range(0, lead.shape[2], step):
            block = lead[:, :, lo:lo + step]
            best = min(best, int(_distances(block, other, scratch).min()))
    return best


class _Search(NamedTuple):
    d: int
    sets: int           # information sets built, the rref's own included
    certified: bool     # False: the meet-in-the-middle search gave d


def _distance(spec, rows, pivots, n) -> _Search:
    """d of the span of rows (in echelon form, pivots their pivot columns):
    level 1 of a Zimmermann certificate while its next sets can reach the
    lightest row and cost less than the meet-in-the-middle search, else
    that search from the lightest row seen."""
    k = len(rows)
    support = np.asarray(rows) != 0
    best = int(support.sum(axis=1).min())
    nonzero = support.any(axis=0)
    free, order, rank, bound, sets = int(nonzero.sum()) - k, None, k, 2, 1
    planes = spec.deg * (spec.p - 1).bit_length() * -(-n // 64)
    exhaustive = (spec.order ** k - 1) // (spec.order - 1) * planes
    while bound < best and k > 1:
        need = -(-(best - bound) // 2)
        if rank < k or need > free // k or need * k * _PIVOT >= exhaustive:
            return _Search(_exhaustive(spec, rows, n, best), sets, False)
        if order is None:
            nonzero[pivots] = False
            order = list(range(n))
            random.Random(n).shuffle(order)
            order = [c for c in order if nonzero[c]]
        rest = sorted(set(range(n)).difference(order))
        red, piv = linalg.rref(spec, [[row[c] for c in order + rest]
                                      for row in rows])
        fresh = {order[c] for c in piv if c < len(order)}
        order = [c for c in order if c not in fresh]
        free, rank, sets = free - len(fresh), len(fresh), sets + 1
        bound += max(0, 2 - (k - rank))
        best = min(best, int(np.count_nonzero(red, axis=1).min()))
    return _Search(best, sets, True)


def _minor_proves_rank(spec, matrix, n) -> bool:
    """Whether the minor of matrix on len(matrix) + _MINOR_SPARE evenly
    spaced columns has a pivot in every row, which proves the rows
    independent: a minor's rank is at most the matrix's, which is at most
    its row count.  False when that minor would hold every column."""
    width = len(matrix) + _MINOR_SPARE
    if width >= n:
        return False
    columns = itemgetter(*[i * n // width for i in range(width)])
    return linalg.rank(spec, [columns(row) for row in matrix]) == len(matrix)


def exact_params(code: LinearCode, cap: int = EXACT_CAP_DEFAULT):
    """(n, k, exact minimum distance).

    k is the recomputed rank.  Raises CapExceededError when q^k > cap, before
    any search.  When q to the row count is over the cap, a minor that
    proves the rows independent (_minor_proves_rank) gives k, and the full
    rref runs only if it does not; the search needs the rref's rows.
    d is settled by level 1 of a Zimmermann certificate, whose information
    sets are built while the full-rank sets still needed fit in the free
    columns and their pivots, at _PIVOT compared plane words each, cost less
    than the exhaustive search; else by that search from the lightest row
    seen (see the module docstring).
    """
    spec, n = code.spec, code.n
    k = len(code.matrix)
    if spec.order ** k <= cap or not _minor_proves_rank(spec, code.matrix, n):
        rows, pivots = linalg.rref(spec, code.matrix)
        k = len(rows)
    if k == 0:
        return n, 0, 0
    total = spec.order ** k
    if total > cap:
        raise CapExceededError(
            f"q^k = {total} exceeds the exhaustive cap {cap}; rerun with a "
            "higher cap or fall back to a sampled probabilistic lower bound")
    return n, k, _distance(spec, rows, pivots, n).d
