"""Vectorised F_q arithmetic on numpy arrays, one path for every field.

An array of elements of a FieldSpec is held in base-p digit form: an int64
array of shape (deg,) + shape whose slice [i] holds the coefficient of z^i
of every element, z the class of the variable in F_p[z]/(modulus), so that
gf's encoding of an element is sum(digit_i * p^i).  Adding is digit-wise
mod p, multiplying by a constant c is c's deg x deg matrix over F_p, and an
elementwise product x * y is sum_j x_j (z^j y).  No exp/log table is read,
so fields above gf's _TABLE_MAX take the same path, and FieldSpec builds
its tables with it.

Every result is reduced mod p, and no intermediate exceeds deg * p^2 <= 2^41
for a field up to DESK_CAP, so int64 never wraps.
"""

from __future__ import annotations

import numpy as np


def _maps(spec):
    """(p^i for i < deg, Z) where Z[j] is the deg x deg matrix over F_p of
    x -> z^j x, j < deg; built once per FieldSpec from the companion matrix
    of its modulus."""
    if spec._fq_maps is None:
        deg, p = spec.deg, spec.p
        comp = np.eye(deg, k=-1, dtype=np.int64)
        comp[:, -1] = np.negative(spec.modulus[:-1]) % p
        mats = [np.eye(deg, dtype=np.int64)]
        for _ in range(deg - 1):
            mats.append(comp @ mats[-1] % p)
        spec._fq_maps = (p ** np.arange(deg, dtype=np.int64), np.stack(mats))
    return spec._fq_maps


def _apply(spec, mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A matrix over F_p applied to the digit axis of x."""
    return (mat @ x.reshape(spec.deg, -1)).reshape(mat.shape[:-1] + x.shape[1:]) % spec.p


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


def scale(spec, c: int, x: np.ndarray) -> np.ndarray:
    """c * x for one encoded constant c, through c's matrix sum_j c_j Z^j."""
    z = _maps(spec)[1]
    mat = (digits(spec, c) @ z.reshape(spec.deg, -1)).reshape(z.shape[1:])
    return _apply(spec, mat % spec.p, x)


def mul(spec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise (broadcast) product sum_j x_j (z^j y); the z^j y are
    formed at y's shape, so pass the smaller operand as y."""
    z = _maps(spec)[1]
    zy = _apply(spec, z.reshape(-1, spec.deg), y).reshape(z.shape[:2] + y.shape[1:])
    out = x[0] * zy[0]
    for j in range(1, spec.deg):
        out += x[j] * zy[j]
    return out % spec.p
