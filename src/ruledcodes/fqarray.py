"""Vectorised F_q arithmetic on numpy arrays of encodings.

Every public function takes and returns int64 arrays of gf's integer
encodings, broadcasting like numpy: the one element representation, so
callers never convert.  How a field computes depends on its size.

Up to gf's _TABLE_MAX elements a field has exp/log tables (_tables), and
its arrays compute on them.  log 0 is a sentinel S = 4 (q - 1), beyond
every sum of two logs of nonzero elements, and exp reads 0 from 2 (q - 1)
on, so a product is exp[log x + log y] with no test for zero; an
inverse or a power is one gather.  A sum is XOR for p = 2 and (x + y) mod p
in a prime field.  An odd-characteristic extension field up to _PLUS_MAX
elements reads it from a table of every sum; above, it is the Zech
logarithm's x (1 + y / x): with Z(t) = log(1 + g^t), x + y =
exp[log x + Z[log y - log x]], one O(q) table whose entries outside
|t| < q - 1 make the cases x = 0, y = 0 and x = -y fall out of the same
gathers.  add_product forms x + c y the same way from log c + log y,
without the product.

Above _TABLE_MAX, characteristic 2 still computes on encodings, which
are bit strings: a sum is XOR, a product the carry-less product of the two
strings with its high bits folded back, and Frobenius an F_2-linear map,
each linear map one table per byte of its argument (_bit_tables).  Odd
characteristic computes there in base-p digit form: an int64 array of
shape (deg,) + shape whose slice [i] holds the coefficient of z^i of every
element, z the class of the variable in F_p[z]/(modulus), so that an
encoding is sum(digit_i * p^i).  Adding is digit-wise mod p, an F_p-linear
map (such as multiplying by a constant c, or Frobenius) is a deg x deg
matrix over F_p, and a product is the schoolbook product of the two digit
polynomials, whose coefficients of z^deg .. z^(2 deg - 2) one matrix folds
back.  Matrices are applied and products formed in the narrowest integer
type that holds their largest intermediate (below 2^41 for a field up to
DESK_CAP), so nothing wraps.  Prime fields of any size compute on
encodings mod p.

Besides the arithmetic, only three readers know the digit layout: gf
builds its exp/log tables and multiplies scalars above _TABLE_MAX in digit
form, coords reads F_q-coordinates through one digit map, and the distance
search in analysis packs digits into bit planes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_CHUNK = 1 << 14        # field elements per array step
# odd-characteristic extension fields up to this order add through a table
# of every sum, q (8 q - 7) entries, instead of the Zech logarithm: on the
# F_49 [3200, 126] rref of scripts/bench_layers.py, 136 ms against 270 ms
# (2-vCPU Xeon, Python 3.11, numpy 2.4), for 150 KB of tables at q = 49
_PLUS_MAX = 64


def chunks(n: int, width: int = 1):
    """(lo, hi) bounds of the chunks of range(n), each index standing for
    width elements."""
    step = max(1, _CHUNK // max(width, 1))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


# ---------------------------------------------------------------------------
# exp/log tables of a field up to _TABLE_MAX

class _Tables(NamedTuple):
    log: np.ndarray
    exp: np.ndarray
    inv: np.ndarray
    neg: np.ndarray | None      # odd p only
    zech: np.ndarray | None     # odd-p extension fields above _PLUS_MAX
    plus: np.ndarray | None     # odd-p extension fields up to _PLUS_MAX
    spread: np.ndarray | None   # odd-p extension fields


def _tables(spec) -> _Tables | None:
    """The tables of a field with gf's exp/log tables, or None above
    _TABLE_MAX; built once per FieldSpec from gf's arrays.  With n1 = q - 1
    and S = 4 n1: log[0] = S; exp holds exp over 0 .. 2 n1 - 1 and 0 from
    there to 2 S; inv and neg are gathers (inv[0] = 0).

    An odd-characteristic extension field adds x and the element of log l
    (l up to 2 S, the log of a product) in one of two ways.  Up to
    _PLUS_MAX, plus[x * (2 S + 1) + l] is the sum itself.  Above it, zech
    is indexed by t = l - log x, t < 0 read from its end: Z(t mod n1) while
    x != 0 and l < 2 n1 - 1 (3 n1 where 1 + g^t = 0, landing on exp's
    zeros), 0 where the product is 0 (so x is read back), and t itself where
    x = 0 (so exp reads the product); the sum is exp[log x + zech[t]].
    spread is exp with digit i moved to bits 63 // deg * i on, so that dot
    sums products digit by digit in one integer sum."""
    if spec._fq_tables is None and spec._arrays is not None:
        pexp, plog = spec._arrays
        p, n1 = spec.p, spec.order - 1
        big = 4 * n1
        log = plog.copy()
        log[0] = big
        exp = np.zeros(2 * big + 1, dtype=np.int64)
        exp[:n1] = exp[n1:2 * n1] = pexp
        inv = exp[n1 - plog % n1]
        inv[0] = 0
        neg = zech = spread = None
        if p != 2:
            neg = exp[log + n1 // 2]        # -1 = g^(n1 / 2)
        if p != 2 and spec.deg > 1:
            spread = np.zeros_like(exp)
            for i in range(spec.deg):
                spread |= exp // p ** i % p << 63 // spec.deg * i
            # 1 + g^t: add 1 to the constant digit of g^t
            one_plus = pexp + np.where(pexp % p == p - 1, 1 - p, 1)
            zech = np.zeros(3 * big + 1, dtype=np.int64)
            t = np.arange(-(n1 - 1), 2 * n1 - 1)
            zech[t] = np.where(one_plus[t % n1] == 0, 3 * n1, plog[one_plus[t % n1]])
            t = np.arange(-big, -2 * n1 - 1)
            zech[t] = t
        spec._fq_tables = _Tables(log, exp, inv, neg, zech, None, spread)
        if zech is not None and spec.order <= _PLUS_MAX:
            plus = _plus(spec._fq_tables, np.arange(spec.order)[:, None], np.arange(2 * big + 1))
            spec._fq_tables = spec._fq_tables._replace(zech=None, plus=plus.reshape(-1))
    return spec._fq_tables


# ---------------------------------------------------------------------------
# digit form: odd-characteristic fields above _TABLE_MAX, gf's table build,
# coords, and the distance search's bit planes

def _maps(spec):
    """(p^i for i < deg, Z, H, the working integer type, a cache): Z[j] is
    the deg x deg matrix over F_p of x -> z^j x, j < deg, and H[k] holds the
    digits of z^(deg + k), k < deg - 1; built once per FieldSpec from the
    companion matrix of its modulus.  The cache holds frobenius's maps by q
    and _clmul's fold tables."""
    if spec._fq_maps is None:
        deg, p = spec.deg, spec.p
        comp = np.eye(deg, k=-1, dtype=np.int64)
        comp[:, -1] = np.negative(spec.modulus[:-1]) % p
        mats = [np.eye(deg, dtype=np.int64)]
        for _ in range(deg - 1):
            mats.append(comp @ mats[-1] % p)
        work = np.min_scalar_type(-deg * (p - 1) ** 2 * ((deg - 1) * (p - 1) + 1) - 1)
        spec._fq_maps = (p ** np.arange(deg, dtype=np.int64), np.stack(mats),
                         mats[-1][:, 1:].T.astype(work), work, {})
    return spec._fq_maps


def digits(spec, enc) -> np.ndarray:
    """Digit form of an array (or nested list) of encodings."""
    enc = np.asarray(enc, dtype=np.int64)
    if spec.p == 2:
        out = enc >> np.arange(spec.deg).reshape((-1,) + (1,) * enc.ndim)
        out &= 1
        return out
    out = enc // _maps(spec)[0].reshape((-1,) + (1,) * enc.ndim)
    out %= spec.p
    return out


def encode(spec, x: np.ndarray) -> np.ndarray:
    """Encodings (int64) of an array in digit form."""
    return (_maps(spec)[0] @ x.reshape(spec.deg, -1)).reshape(x.shape[1:])


def linear(spec, mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """An F_p-linear map, given by its deg x deg matrix over F_p, applied to
    the digit axis of x as sum_j column_j x_j: numpy's integer matmul is
    several times slower than these broadcast steps."""
    work = _maps(spec)[3]
    cols = mat.T.astype(work).reshape(mat.shape[::-1] + (1,) * (x.ndim - 1))
    out = np.zeros(x.shape, dtype=work)
    for col, xj in zip(cols, x.astype(work, copy=False)):
        out += col * xj
    out %= spec.p
    return out.astype(np.int64)


def matrix(spec, c: int) -> np.ndarray:
    """The deg x deg matrix over F_p of x -> c x for one encoded constant c,
    sum_j c_j Z^j."""
    z = _maps(spec)[1]
    return (digits(spec, c) @ z.reshape(spec.deg, -1)).reshape(z.shape[1:]) % spec.p


def _digit_mul(spec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise (broadcast) product in digit form: sum_i x_i z^i y as a
    polynomial of degree 2 deg - 2 in z, whose coefficient of z^(deg + k)
    is folded back as that multiple of H[k]; O(deg^2) per element, in the
    narrowest integer type that holds its largest value,
    deg (p - 1)^2 ((deg - 1)(p - 1) + 1)."""
    deg, p = spec.deg, spec.p
    work = _maps(spec)[3]
    x, y = x.astype(work, copy=False), y.astype(work, copy=False)
    shape = np.broadcast(x[0], y[0]).shape
    prod = np.zeros((2 * deg - 1,) + shape, dtype=work)
    for i in range(deg):
        prod[i:i + deg] += x[i] * y
    out, high = prod[:deg], _maps(spec)[2]
    for k in range(deg - 1):
        out += high[k].reshape((deg,) + (1,) * len(shape)) * prod[deg + k]
    out %= p
    return out.astype(np.int64)


def _aligned(x, y):
    """x and y as int64 arrays of one number of axes, for digit forms that
    broadcast against each other."""
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    nd = max(x.ndim, y.ndim)
    return x.reshape((1,) * (nd - x.ndim) + x.shape), y.reshape((1,) * (nd - y.ndim) + y.shape)


# ---------------------------------------------------------------------------
# characteristic 2 above _TABLE_MAX: encodings are bit strings

def _bit_tables(images) -> list[np.ndarray]:
    """The F_2-linear map of bit strings that takes bit i to images[i], as
    one table per byte of its argument: table j maps byte j to its image."""
    tables = []
    for lo in range(0, len(images), 8):
        table = np.zeros(1, dtype=np.int64)
        for image in images[lo:lo + 8]:
            table = np.concatenate([table, table ^ image])
        tables.append(table)
    return tables


def _bit_map(tables, x) -> np.ndarray:
    """The map of _bit_tables applied to an array x: the XOR of its bytes'
    images."""
    out = tables[0][x & 0xFF]
    for j, table in enumerate(tables[1:], 1):
        out ^= table[(x >> 8 * j) & 0xFF]
    return out


def _clmul(spec, x, y) -> np.ndarray:
    """x y in characteristic 2 above _TABLE_MAX, on encodings, which are
    bit strings: the carry-less product of x and y, one shifted copy of x
    per bit of y, whose bits deg .. 2 deg - 2 are folded back by the bit
    tables of z^deg .. z^(2 deg - 2)."""
    deg, cache = spec.deg, _maps(spec)[4]
    if "fold" not in cache:
        images = [spec.encode(spec.modulus[:-1])]          # z^deg
        for _ in range(deg - 2):                            # times z
            z = images[-1] << 1
            images.append(z ^ images[0] ^ 1 << deg if z >> deg else z)
        cache["fold"] = _bit_tables(images)
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.int64)
    for i in range(deg):
        out ^= (x << i) * ((y >> i) & 1)
    return (out & (1 << deg) - 1) ^ _bit_map(cache["fold"], out >> deg)


# ---------------------------------------------------------------------------
# arithmetic on encodings

def add(spec, x, y) -> np.ndarray:
    """x + y, elementwise."""
    p = spec.p
    if p == 2:
        return np.bitwise_xor(x, y)
    if spec.deg == 1:
        return np.add(x, y) % p
    tables = _tables(spec)
    if tables is None:
        x, y = _aligned(x, y)
        return encode(spec, (digits(spec, x) + digits(spec, y)) % p)
    return _plus(tables, x, tables.log[y])


def _plus(tables, x, l):
    """x + (the element of log l), by the table of sums or the Zech
    logarithm (see _tables)."""
    if tables.plus is not None:
        return tables.plus[np.multiply(x, len(tables.exp)) + l]
    lx = tables.log[x]
    t = tables.zech[l - lx]
    t += lx
    return tables.exp[t]


def neg(spec, x) -> np.ndarray:
    """-x, elementwise."""
    p = spec.p
    if p == 2:
        return np.asarray(x, dtype=np.int64)
    if spec.deg == 1:
        return np.negative(x) % p
    tables = _tables(spec)
    if tables is None:
        return encode(spec, np.negative(digits(spec, x)) % p)
    return tables.neg[x]


def sub(spec, x, y) -> np.ndarray:
    """x - y, elementwise."""
    return add(spec, x, neg(spec, y))


def mul(spec, x, y) -> np.ndarray:
    """x y, elementwise."""
    if spec.deg == 1:
        return np.multiply(x, y) % spec.p
    tables = _tables(spec)
    if tables is not None:
        return tables.exp[tables.log[x] + tables.log[y]]
    if spec.p == 2:
        return _clmul(spec, x, y)
    x, y = _aligned(x, y)
    return encode(spec, _digit_mul(spec, digits(spec, x), digits(spec, y)))


def add_product(spec, x, c, y) -> np.ndarray:
    """x + c y, elementwise: in a field with tables, one product's log
    l = log c + log y goes to the sum without forming c y."""
    p = spec.p
    if spec.deg == 1:
        return (np.multiply(c, y) + x) % p
    tables = _tables(spec)
    if tables is None:
        return add(spec, x, mul(spec, c, y))
    l = tables.log[c] + tables.log[y]
    if p == 2:
        return np.bitwise_xor(x, tables.exp[l])
    return _plus(tables, x, l)


def dot(spec, a, b) -> np.ndarray:
    """The matrix product a @ b of two 2-D arrays.  The inner axis is taken
    in chunks of about _CHUNK products, and a chunk of rows of b meets only
    the rows of a nonzero in its columns.  The sums are an integer matmul
    in a prime field and XOR for p = 2, each reduced once at the end; for
    odd p they are digit sums, of the spread products (see _tables) while
    every digit's sum fits its bit field, else of products in digit form."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    p, deg, tables = spec.p, spec.deg, _tables(spec)
    width = 63 // deg
    spread = (deg > 1 and p != 2 and tables is not None
              and b.shape[0] * (p - 1) < 1 << width)
    planes = (deg,) if deg > 1 and p != 2 and not spread else ()
    acc = np.zeros(planes + (a.shape[0], b.shape[1]), dtype=np.int64)
    for lo, hi in chunks(b.shape[0], a.shape[0] * b.shape[1]):
        rows = np.flatnonzero(a[:, lo:hi].any(axis=1))
        x, y = a[rows, lo:hi], b[lo:hi]
        if deg == 1:
            acc[rows] += x @ y
        elif p == 2:
            acc[rows] ^= np.bitwise_xor.reduce(mul(spec, x[:, :, None], y), axis=1)
        elif spread:
            acc[rows] += tables.spread[tables.log[x][:, :, None] + tables.log[y]].sum(axis=1)
        else:
            acc[:, rows] += digits(spec, mul(spec, x[:, :, None], y)).sum(axis=2)
    if deg == 1:
        return acc % p
    if p == 2:
        return acc
    if spread:
        acc = np.stack([acc >> width * i & (1 << width) - 1 for i in range(deg)])
    return encode(spec, acc % p)


def scale(spec, c: int, x) -> np.ndarray:
    """c x for one encoded constant c; in digit form through c's matrix,
    about half the work of a product."""
    if spec.p != 2 and spec.deg > 1 and _tables(spec) is None:
        return encode(spec, linear(spec, matrix(spec, c), digits(spec, x)))
    return mul(spec, c, x)


def inv(spec, x) -> np.ndarray:
    """Elementwise inverse of an array of nonzero elements.  Above
    _TABLE_MAX, by a product tree over the flattened array: pairwise
    products up to one root, one scalar inversion, then each node's inverse
    times its sibling on the way down; about 3n products in 2 log2(n)
    array steps."""
    tables = _tables(spec)
    if tables is not None:
        return tables.inv[x]
    x = np.asarray(x, dtype=np.int64)
    shape, x, levels = x.shape, x.reshape(-1), []
    if not x.size:
        return x.reshape(shape)
    while x.size > 1:
        if x.size % 2:
            x = np.append(x, 1)
        levels.append(x.reshape(-1, 2))
        x = mul(spec, levels[-1][:, 0], levels[-1][:, 1])
    out = np.array([spec.inv_i(int(x[0]))])
    for pairs in reversed(levels):
        out = mul(spec, out[:pairs.shape[0], None], pairs[:, ::-1]).reshape(-1)
    return out[:np.prod(shape, dtype=int)].reshape(shape)


def frobenius(spec, x, q: int) -> np.ndarray:
    """x^q, elementwise, for q a power of p: one gather with tables, else
    the F_p-linear map that takes z^i to (z^i)^q, as byte tables for p = 2
    and as a matrix on digits for odd p (cached per q)."""
    tables = _tables(spec)
    x = np.asarray(x, dtype=np.int64)
    if tables is not None:
        return np.where(x == 0, 0, tables.exp[tables.log[x] * q % (spec.order - 1)])
    if spec.deg == 1:
        return x
    cache = _maps(spec)[4]
    if q not in cache:
        images = [spec.pow_i(spec.p ** i, q) for i in range(spec.deg)]
        cache[q] = _bit_tables(images) if spec.p == 2 else digits(spec, images)
    if spec.p == 2:
        return _bit_map(cache[q], x)
    return encode(spec, linear(spec, cache[q], digits(spec, x)))


# ---------------------------------------------------------------------------
# coordinates over a subfield

def coords(small, big, values) -> np.ndarray:
    """The F_q-linear rows of a k x M array of encodings in big = F_{q^d}
    over small = F_q, a (d k) x M array: row t*k + r holds coordinate t of
    row r, with respect to the basis 1, z, ..., z^(d-1) of big over small
    (z the class of the absolute generator).  One F_p-linear map takes the
    digits of every value to its coordinates in the basis e_i z^j, e_i the
    basis of small over F_p (_coords_map)."""
    values = np.asarray(values, dtype=np.int64)
    sol = linear(big, _coords_map(small, big), digits(big, values))
    d, k, ncols = big.deg // small.deg, *sol.shape[1:]
    sol = sol.reshape(d, small.deg, k, ncols).swapaxes(0, 1)
    return encode(small, sol).reshape(d * k, ncols)


def _coords_map(small, big):
    """The inverse over F_p of the matrix whose column j*deg(small) + i holds
    the digits of e_i z^j in big: digits to coordinates.  Cached on big,
    keyed like its embeddings."""
    if small.order not in big._coords:
        from . import linalg
        from .gf import field_create

        n, p = big.deg, big.p
        z = p if n > 1 else 0   # encoding of the generator z of big
        cols = [big.decode(big.mul_i(big.embed_i(small, small.encode([0] * i + [1])),
                                     big.pow_i(z, j)))
                for j in range(n // small.deg) for i in range(small.deg)]
        # rref of [M | I] is [I | M^-1]
        aug = [[cols[c][r] for c in range(n)] + [1 if r == j else 0 for j in range(n)]
               for r in range(n)]
        red, pivots = linalg.rref(field_create(p, 1), aug)
        assert pivots == list(range(n)), "basis matrix is singular"
        big._coords[small.order] = np.array([row[n:] for row in red], dtype=np.int64)
    return big._coords[small.order]
