"""Parameter bounds and exact brute-force verification.

The two family bounds return a BoundReport with validity flags instead of
raising, so parameter sweeps can tabulate invalid regions.  All arithmetic
is integer-only.

exact_params finds the minimum distance d after one rref, by a Zimmermann
certificate (K.-H. Zimmermann 1996; M. Grassl, "Searching for linear codes
with large minimum distance", 2006) and, where that would cost too much, an
exhaustive search.

The certificate works on information sets whose pivot columns are
disjoint.  Set 1 is the rref's own pivots.  Each further set, built when
first needed, takes one rref of the rows with the columns that no set holds
first, in the order random.Random(n).shuffle(list(range(n))) leaves them,
zero columns left out, and the other columns after them in natural order;
its pivots among the first ones are the set, of rank r <= k.  Level w
visits the words of message weight w of one set's generator.  When levels
1..w_j are done on each set j, every word not visited weighs at least
sum_j max(0, w_j + 1 - (k - r_j)), so the search returns once that bound
reaches the lightest word seen, or once level k of set 1 has visited every
word.  Each step visits the next level of the set in use with the lowest
level (the lowest set first).

Before each step the certificate plans the rest of it in that order, and
it goes on only while the rest costs under a twelfth of the exhaustive
search, from counts of the input alone; past that, the exhaustive search
runs from the lightest word found.  The plan counts on the sets not built
yet at full rank, and on none once a set of partial rank has come: a set's
rank is the rank of the columns no earlier set holds, so every later set
has partial rank too, adds to the bound only from a higher level, and costs
an elimination.  Only that first set of partial rank can raise the plan,
so a certificate that gives up late has spent under a twelfth of the
exhaustive search's cost.  Costs count eliminations, words built and pairs
compared in one unit, one 64-coordinate bit-plane word of a compared pair.
On 19 codes with q <= 729 and k <= 20, the benchmark's two verify codes
among them, the exhaustive search took 0.3-1.0 ns per counted unit and the
certificate 0.5-2.5 ns, 2.6 on one whose certificate takes 0.05 ms (one
core, Python 3.11, numpy 2.4, two runs in fresh processes); there an array
step costs about 4,000 units and an rref pivot about 10,000 (4 + deg).  The
exhaustive search runs on codes of small k and large d, such as the
product codes over F_16 and F_49 with a <= 1, and on the benchmark's F_4
[40, 10] code; on its F_5 [36, 10] code the certificate settles d = 5 at
level 1 of three sets.

The exhaustive search is a single-threaded projective meet-in-the-middle
search: it visits one word per line of the code, (q^k - 1) / (q - 1) in
all, by comparing blocks of rows of one small span table with a whole
second one, by XOR and popcount into buffers reused from block to block,
the same way for every q.  The certificate's levels compare their tables
the same way.  The q scalar multiples of the rows after the first are one
fqarray product; the tables are summed from them digit by digit in the
narrowest unsigned type that holds 2 (p - 1), and packed as
deg * bits(p - 1) bit planes of those digits, which the costs count: for
some odd-p extension fields more than the bits(q - 1) of an encoding (F_25
6 against 5, F_125 9 against 7).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import fqarray, linalg

if TYPE_CHECKING:
    from .codes import LinearCode

EXACT_CAP_DEFAULT = 10 ** 7
_WORDS = 1 << 15        # word pairs times uint64 words per plane, per array step
# costs per digit of a built word, per digit product, per array step, and
# per rref pivot and field degree, in the unit of the module docstring
_WORD, _MUL, _STEP, _PIVOT = 5, 4, 4000, 10000
_SHARE = 12             # the certificate's budget: the exhaustive cost / _SHARE


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


def _halves(k):
    """Per lead row j of the exhaustive search, the numbers of rows after it
    whose spans are its two tables: the lead table's, then the other's."""
    return [((k - 1 - j) // 2, k - 1 - j - (k - 1 - j) // 2) for j in range(k)]


def _multiples(spec, scalars, rows):
    """Each scalar times each row, (deg, rows, scalars, n), in narrow digit
    form: the narrowest unsigned type that holds 2 (p - 1)."""
    prod = fqarray.mul(spec, fqarray.digits(spec, scalars)[:, None, :, None],
                       fqarray.digits(spec, rows)[:, :, None])
    return prod.astype(np.min_scalar_type(2 * (spec.p - 1)))


def _exhaustive(spec, rows, n, best):
    """min(best, d) over the (q^k - 1)/(q - 1) words g_j + sum_{i>j} m_i g_i
    of rows in echelon form.  For each j the rows after g_j are split in two
    halves whose spans are small tables; the span of the first half, shifted
    by g_j, is the smaller table.  Since the span S of the second half is
    closed under negation, min over s in S of wt(w + s) is the least distance
    from w to S, taken for a block of words w and all of S in one array
    step."""
    starts = _multiples(spec, [0, 1], rows)  # 0 g_j and g_j
    multiples = _multiples(spec, np.arange(spec.order), np.asarray(rows)[1:])
    for j, (half, _) in enumerate(_halves(len(rows))):
        rest = multiples[:, j:]
        lead = _planes(spec, _span(spec, rest[:, :half], starts[:, j, 1, None]))
        other = _planes(spec, _span(spec, rest[:, half:], starts[:, j, 0, None]))
        step = max(1, _WORDS // other[0].size)
        scratch = _scratch(other[0].size * min(step, lead.shape[2]), other.shape[1])
        for lo in range(0, lead.shape[2], step):
            block = lead[:, :, lo:lo + step]
            best = min(best, int(_distances(block, other, scratch).min()))
    return best


def _grow(spec, words, key, mults):
    """The words x + y, y in mults[:, l] and x a word with key < l, for each
    row l; keys are ascending, and the new words get key l."""
    k = mults.shape[1]
    count = np.searchsorted(key, np.arange(k))
    row = np.repeat(np.arange(k), count)
    x = np.arange(count.sum()) - np.repeat(count.cumsum() - count, count)
    out = _add(spec, words[:, x, None], mults[:, row])
    return out.reshape(spec.deg, -1, words.shape[2]), np.repeat(row, mults.shape[2])


class _InfoSet:
    """A generator of the code in echelon form whose first `rank` pivots lie
    on an information set that no other set touches, and its level tables.

    A word of message weight w >= 2 with coefficient 1 on its first row is
    one head of weight ceil(w/2) (t rows, coefficient 1 on the first, keyed
    by the last row) plus one tail of weight floor(w/2) (t rows, any nonzero
    coefficients, keyed by the first row counted from the last) whose rows
    all come after the head's.  Level w compares the heads that end on each
    row with the tails after that row, and never builds a table of weight
    above ceil(w/2).
    """

    def __init__(self, spec, rows, rank):
        self.spec, self.rank, self.level = spec, rank, 0
        self.rows = np.asarray(rows, dtype=np.int64)
        self.heads = self.tails = None

    def _table(self, tables, t, mults):
        """(planes, keys) of the table of weight t, grown as needed."""
        while len(tables) <= t:
            words, key, _ = tables[-1]
            tables.append(list(_grow(self.spec, words, key, mults)) + [None])
        if tables[t][2] is None:
            tables[t][2] = _planes(self.spec, tables[t][0])
        return tables[t][2], tables[t][1]

    def visit(self, w, best):
        """min(best, least weight of a word of message weight w)."""
        self.level = w
        if w == 1:
            return min(best, int(np.count_nonzero(self.rows, axis=1).min()))
        spec, (k, n) = self.spec, self.rows.shape
        if self.heads is None:
            self.mults = _multiples(spec, np.arange(1, spec.order), self.rows)
            self.heads = [None, [self.mults[:, :, 0], np.arange(k), None]]
            self.tails = [[np.zeros((spec.deg, 1, n), self.mults.dtype), np.array([-1]), None]]
        head, last = self._table(self.heads, (w + 1) // 2, self.mults)
        tail, first = self._table(self.tails, w // 2, self.mults[:, ::-1])
        ends = np.searchsorted(last, np.arange(k + 1))  # heads by last row
        scratch = _scratch(max(_WORDS, tail[0].size), tail.shape[1])
        for row in range(k):
            m = int(np.searchsorted(first, k - 1 - row))  # tails after row
            if not m:
                break
            step = max(1, _WORDS // tail[0, :, :m].size)
            for lo in range(ends[row], ends[row + 1], step):
                hi = min(lo + step, ends[row + 1])
                block = _distances(head[:, :, lo:hi], tail[:, :, :m], scratch)
                best = min(best, int(block.min()))
        return best


class _Search(NamedTuple):
    d: int
    sets: int           # information sets built, the rref's own included
    level: int          # last level finished on the first set
    certified: bool     # False: the meet-in-the-middle search gave d


def _level_sizes(q, k, w):
    """Level w >= 2 on a set of k rows: the words of the table it builds
    first (heads of weight ceil(w/2) for odd w, else tails of weight w/2)
    and the words of message weight w it compares."""
    t = (w + 1) // 2
    return comb(k, t) * (q - 1) ** (t - w % 2), comb(k, w) * (q - 1) ** (w - 1)


class _Cost:
    """The work of both searches in one unit, a 64-coordinate bit-plane word
    of a compared pair (see the module docstring)."""

    def __init__(self, spec, k, n):
        self.q, self.k, self.n, self.deg = spec.order, k, n, spec.deg
        planes = self.deg * (spec.p - 1).bit_length()
        self.pair = planes * -(-n // 64)
        self.word = _WORD * n * (self.deg + planes)
        self.mul = _MUL * n * self.deg ** 2
        self.compare = _STEP * (2 * planes + 4)

    def _pairs(self, pairs):
        return pairs * self.pair + self.compare * -(-pairs * self.pair // _WORDS)

    def exhaustive(self):
        """Its multiples, span tables (with the smaller spans they are
        summed from) and pairs."""
        q, k = self.q, self.k
        total = (k - 1) * (q * self.mul + _STEP * (self.deg + 3))
        for a, b in _halves(k):
            total += (q ** a + q ** b) * q // (q - 1) * self.word
            total += self._pairs(q ** (a + b)) + _STEP * (2 * (a + b) + 16)
        return total

    def info_set(self):
        """One elimination: k pivots, each a few array steps and a product
        of the pivot row with the distinct coefficients of its column."""
        return self.k * (_PIVOT * (4 + self.deg) + 5 * self.k * self.n * self.deg ** 2)

    def visit(self, w):
        """Level w on one set: the table it builds first, its pairs (about
        three times the exhaustive search's cost each, measured: smaller
        blocks, one run per head row) and the rows' multiples at level 2."""
        if w == 1:
            return 5 * _STEP
        words, pairs = _level_sizes(self.q, self.k, w)
        total = words * self.word + 3 * self._pairs(pairs) + _STEP * 36
        if w == 2:
            total += self.k * (self.q - 1) * self.mul + _STEP * (self.deg + 3)
        return total


def _bound(k, levels, ranks):
    """Zimmermann's lower bound on the weight of every word not visited yet."""
    return sum(max(0, v + 1 - (k - r)) for v, r in zip(levels, ranks))


def _plan(cost, k, levels, ranks, best, budget):
    """(cost, set) of the steps left until the bound reaches best, if the
    sets after the built ones (levels) have the ranks given, and the set
    that comes first; None when they cost more than budget.  A set of rank
    r < k adds to the bound from level k - r on, so it is left out when the
    sets of full rank alone reach best at a lower level.  Each step visits
    the next level of the lowest set in use, and builds it first if it is
    new."""
    full = ranks.count(k)
    use = [j for j, r in enumerate(ranks) if k - r < -(-best // full)]
    bound, total, built, first = _bound(k, levels, ranks), 0, len(levels), None
    levels = list(levels) + [0] * (len(ranks) - built)
    v = min(levels[j] for j in use)
    while True:
        for j in use:
            if bound >= best or levels[0] == k:
                return total, first
            if levels[j] > v:
                continue
            if j >= built:
                total += cost.info_set()
                bound += ranks[j] == k
            levels[j] = v + 1
            total += cost.visit(v + 1)
            bound += v + 2 > k - ranks[j]
            if total > budget:
                return None
            first = j if first is None else first
        v += 1


def _distance(spec, rows, pivots, n) -> _Search:
    """d of the span of rows (in echelon form, pivots their pivot columns):
    a Zimmermann certificate while the rest of it is planned to cost under
    a share of the meet-in-the-middle search, else that search from the
    lightest word seen, once the certificate's tables are freed."""
    k = len(rows)
    cost = _Cost(spec, k, n)
    budget = cost.exhaustive() // _SHARE
    sets = [_InfoSet(spec, rows, k)]
    best = sets[0].visit(1, n)
    nonzero = sets[0].rows.any(axis=0)
    free, order = int(nonzero.sum()) - k, None
    while (_bound(k, [s.level for s in sets], [s.rank for s in sets]) < best
           and sets[0].level < k):
        more = [k] * (free // k) + [free % k] * (free % k > 0)
        plan = _plan(cost, k, [s.level for s in sets], [s.rank for s in sets]
                     + more * (sets[-1].rank == k), best, budget)
        if plan is None:
            built, level = len(sets), sets[0].level
            del sets
            return _Search(_exhaustive(spec, rows, n, best), built, level, False)
        j = plan[1]
        if j == len(sets):
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
            free -= len(fresh)
            sets.append(_InfoSet(spec, red, len(fresh)))
        best = sets[j].visit(sets[j].level + 1, best)
    return _Search(best, len(sets), sets[0].level, True)


def exact_params(code: LinearCode, cap: int = EXACT_CAP_DEFAULT):
    """(n, k, exact minimum distance).

    k is the recomputed rank.  Raises CapExceededError when q^k > cap, before
    any search.  See the module docstring for the two searches.
    """
    spec = code.spec
    rows, pivots = linalg.rref(spec, code.matrix)
    k = len(rows)
    n = code.n
    if k == 0:
        return n, 0, 0
    total = spec.order ** k
    if total > cap:
        raise CapExceededError(
            f"q^k = {total} exceeds the exhaustive cap {cap}; rerun with a "
            "higher cap or fall back to a sampled probabilistic lower bound")
    return n, k, _distance(spec, rows, pivots, n).d
