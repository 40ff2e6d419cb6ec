"""Vectorised F_q arithmetic on numpy arrays, one path for every field.

An array of elements of a FieldSpec is held in base-p digit form: an int64
array of shape (deg,) + shape whose slice [i] holds the coefficient of z^i
of every element, z the class of the variable in F_p[z]/(modulus), so that
gf's encoding of an element is sum(digit_i * p^i).  Adding is digit-wise
mod p, an F_p-linear map (such as multiplying by a constant c, or
Frobenius) is a deg x deg matrix over F_p, and an elementwise product is the
schoolbook product of the two digit polynomials, whose coefficients of
z^deg .. z^(2 deg - 2) one matrix folds back.  inv inverts a whole array
with one scalar inversion.  No exp/log table is read, so fields above gf's
_TABLE_MAX take the same path.  FieldSpec builds its tables with it, finds
an embedding's root with it, and above _TABLE_MAX multiplies two scalars
as one factor's matrix times the other's digits.

Every result is int64 and reduced mod p.  Matrices are applied and products
formed in the narrowest integer type that holds their largest intermediate
(below 2^41 for a field up to DESK_CAP), so nothing wraps.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 14        # field elements per array step in digit form


def chunks(n: int, width: int = 1):
    """(lo, hi) bounds of the chunks of range(n), each index standing for
    width elements."""
    step = max(1, _CHUNK // max(width, 1))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _maps(spec):
    """(p^i for i < deg, Z, H, the working integer type): Z[j] is the
    deg x deg matrix over F_p of x -> z^j x, j < deg, and H[k] holds the
    digits of z^(deg + k), k < deg - 1; built once per FieldSpec from the
    companion matrix of its modulus."""
    if spec._fq_maps is None:
        deg, p = spec.deg, spec.p
        comp = np.eye(deg, k=-1, dtype=np.int64)
        comp[:, -1] = np.negative(spec.modulus[:-1]) % p
        mats = [np.eye(deg, dtype=np.int64)]
        for _ in range(deg - 1):
            mats.append(comp @ mats[-1] % p)
        work = np.min_scalar_type(-deg * (p - 1) ** 2 * ((deg - 1) * (p - 1) + 1) - 1)
        spec._fq_maps = (p ** np.arange(deg, dtype=np.int64), np.stack(mats),
                         mats[-1][:, 1:].T.astype(work), work)
    return spec._fq_maps


def digits(spec, enc) -> np.ndarray:
    """Digit form of an array (or nested list) of encodings."""
    enc = np.asarray(enc, dtype=np.int64)
    out = enc // _maps(spec)[0].reshape((-1,) + (1,) * enc.ndim)
    out %= spec.p
    return out


def encode(spec, x: np.ndarray) -> np.ndarray:
    """Encodings (int64) of an array in digit form."""
    return (_maps(spec)[0] @ x.reshape(spec.deg, -1)).reshape(x.shape[1:])


def add(spec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x + y) % spec.p


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


def scale(spec, c: int, x: np.ndarray) -> np.ndarray:
    """c * x for one encoded constant c, through c's matrix."""
    return linear(spec, matrix(spec, c), x)


def mul(spec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise (broadcast) product: sum_i x_i z^i y as a polynomial of
    degree 2 deg - 2 in z, whose coefficient of z^(deg + k) is folded back
    as that multiple of H[k]; O(deg^2) per element.  The work is done in
    the narrowest integer type that holds its largest value,
    deg (p - 1)^2 ((deg - 1)(p - 1) + 1)."""
    deg, p = spec.deg, spec.p
    if deg == 1:
        return x * y % p
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


def inv(spec, x: np.ndarray) -> np.ndarray:
    """Elementwise inverse of a 1-D array of nonzero elements (deg, n), by a
    product tree: pairwise products up to one root, one scalar inversion,
    then each node's inverse times its sibling on the way down; about 3n
    products in 2 log2(n) array steps."""
    n, levels = x.shape[1], []
    while x.shape[1] > 1:
        if x.shape[1] % 2:
            x = np.concatenate([x, digits(spec, [1])], axis=1)
        levels.append(x.reshape(spec.deg, -1, 2))
        x = mul(spec, levels[-1][:, :, 0], levels[-1][:, :, 1])
    if n == 0:
        return x
    out = digits(spec, [spec.inv_i(int(encode(spec, x)[0]))])
    for pairs in reversed(levels):
        out = mul(spec, out[:, :pairs.shape[1], None], pairs[:, :, ::-1]).reshape(spec.deg, -1)
    return out[:, :n]
