"""Exact Gaussian elimination over a FieldSpec.

Matrices come in and go out as lists of rows of integer-encoded field
elements; rref works on one numpy array in fqarray's digit form, so every
field up to DESK_CAP takes the same path.  Everything here is deterministic:
pivots are always the first nonzero entry scanning left to right, rows are
processed top to bottom.
"""

from __future__ import annotations

import numpy as np

from . import fqarray
from .gf import FieldSpec


def rref(spec: FieldSpec, rows: list[list[int]]):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns).

    Each pivot takes one array step: every row i receives c_i times the
    pivot row, with c_i = -m_ic / pivot for i != r and c_r = 1 / pivot - 1,
    which clears column c and scales the pivot row to 1.  The multiples of
    the pivot row are formed once per distinct c_i.  Entries are reduced
    mod p when read; each step adds less than p to one.  A run of columns
    that are zero below the current row is skipped in windows that double.
    """
    if not rows:
        return [], []
    p = spec.p
    m = fqarray.digits(spec, rows)
    _, k, n = m.shape
    pivots = []
    r = c = 0
    while r < k and c < n:
        column = fqarray.encode(spec, m[:, :, c] % p).tolist()
        pivot = next((i for i in range(r, k) if column[i]), None)
        if pivot is None:
            # skip the run of columns zero below row r, in windows of 1, 2,
            # 4, ... columns, so a run costs about its own length in work
            c, w = c + 1, 1
            while c < n:
                nonzero = (m[:, r:, c:c + w] % p).any(axis=(0, 1))
                if nonzero.any():
                    c += int(nonzero.argmax())
                    break
                c, w = c + w, 2 * w
            continue
        if pivot != r:
            m[:, [r, pivot]] = m[:, [pivot, r]]
            column[r], column[pivot] = column[pivot], column[r]
        inv = spec.inv_i(column[r])
        coeffs = [spec.mul_i(spec.neg_i(v), inv) for v in column]
        coeffs[r] = spec.sub_i(inv, 1)
        slot = {v: j for j, v in enumerate(dict.fromkeys(coeffs))}
        multiples = fqarray.mul(spec, fqarray.digits(spec, list(slot))[:, :, None],
                                m[:, r, None, c:] % p)
        m[:, :, c:] += multiples[:, [slot[v] for v in coeffs]]
        pivots.append(c)
        r += 1
        c += 1
    return fqarray.encode(spec, m[:, :r] % p).tolist(), pivots


def rank(spec: FieldSpec, rows: list[list[int]]) -> int:
    return len(rref(spec, rows)[0])


def nullspace(spec: FieldSpec, rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Echelonized basis of {x in F_q^ncols : rows @ x = 0}, free variables
    in column order; no rows give the identity."""
    red, pivots = rref(spec, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, pc in zip(red, pivots):
            vec[pc] = spec.neg_i(r[f])
        basis.append(vec)
    return basis


def solve(spec: FieldSpec, rows: list[list[int]], rhs: list[int]):
    """One solution x of rows @ x = rhs, or None if inconsistent."""
    if not rows:
        return None
    aug = [r[:] + [v] for r, v in zip(rows, rhs)]
    red, pivots = rref(spec, aug)
    ncols = len(rows[0])
    x = [0] * ncols
    for r, pc in zip(red, pivots):
        if pc == ncols:
            return None
        x[pc] = r[-1]
    return x


def mat_mul(spec: FieldSpec, a, b) -> np.ndarray:
    """a @ b as an int64 array of encodings; row t of b meets only the rows
    of a nonzero in column t."""
    x = fqarray.digits(spec, a)
    y = fqarray.digits(spec, b)
    acc = np.zeros((spec.deg, x.shape[1], y.shape[2]), dtype=np.int64)
    for t in range(y.shape[1]):
        rows = np.flatnonzero(x[:, :, t].any(axis=0))
        acc[:, rows] += fqarray.mul(spec, x[:, rows, t, None], y[:, None, t])
    return fqarray.encode(spec, acc % spec.p)
