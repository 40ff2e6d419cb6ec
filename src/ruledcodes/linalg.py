"""Exact Gaussian elimination over a FieldSpec.

Matrices come in and go out as lists of rows of integer-encoded field
elements; rref works on one int64 array of encodings with fqarray's
arithmetic, so every field up to DESK_CAP takes the same path.  Everything
here is deterministic: pivots are always the first nonzero entry scanning
left to right, rows are processed top to bottom.
"""

from __future__ import annotations

import numpy as np

from . import fqarray
from .gf import FieldSpec


def rref(spec: FieldSpec, rows: list[list[int]]):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns).

    Each pivot takes one array step: every row i receives c_i times the
    pivot row, with c_i = -m_ic / pivot for i != r and c_r = 1 / pivot - 1,
    which clears column c and scales the pivot row to 1.  The c_i are one
    product of column c by -1 / pivot, and the step one
    fqarray.add_product per chunk of rows of about fqarray's chunk of
    entries, whose temporaries stay in cache (at 126 x 3200 over F_49,
    whole-matrix steps took 167-181 ms against 138-151 ms).  A run of columns that are zero below
    the current row is skipped in windows that double.
    """
    if not rows:
        return [], []
    m = np.array(rows, dtype=np.int64)
    k, n = m.shape
    pivots = []
    r = c = 0
    while r < k and c < n:
        below = np.flatnonzero(m[r:, c])
        if not below.size:
            # skip the run of columns zero below row r, in windows of 1, 2,
            # 4, ... columns, so a run costs about its own length in work
            c, w = c + 1, 1
            while c < n:
                nonzero = m[r:, c:c + w].any(axis=0)
                if nonzero.any():
                    c += int(nonzero.argmax())
                    break
                c, w = c + w, 2 * w
            continue
        if below[0]:
            m[[r, r + below[0]]] = m[[r + below[0], r]]
        inv = spec.inv_i(int(m[r, c]))
        coeffs = fqarray.scale(spec, spec.neg_i(inv), m[:, c])
        coeffs[r] = spec.sub_i(inv, 1)
        row = m[r, c:].copy()
        for lo, hi in fqarray.chunks(k, n - c):
            m[lo:hi, c:] = fqarray.add_product(spec, m[lo:hi, c:], coeffs[lo:hi, None], row)
        pivots.append(c)
        r += 1
        c += 1
    return m[:r].tolist(), pivots


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
    """a @ b as an int64 array of encodings (fqarray.dot)."""
    return fqarray.dot(spec, a, b)
