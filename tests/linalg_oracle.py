"""The list-based Gauss-Jordan elimination that linalg.rref replaced: one
row operation at a time through the FieldSpec's scalar arithmetic.  It is
the reference the numpy elimination is compared against.  The row-space
comparisons the tests make of codes go through linalg itself."""

from ruledcodes import linalg


def rref(spec, rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    m = [r[:] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = spec.inv_i(m[r][c])
        m[r] = [spec.mul_i(inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [spec.sub_i(a, spec.mul_i(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [row for row in m[:r]], pivots


def row_space_contains(spec, outer, inner) -> bool:
    """True iff every row of inner lies in the row space of outer."""
    if not inner:
        return True
    combined = [r[:] for r in outer] + [r[:] for r in inner]
    return linalg.rank(spec, outer) == linalg.rank(spec, combined)


def row_space_equal(spec, a, b) -> bool:
    return linalg.rref(spec, a)[0] == linalg.rref(spec, b)[0]
