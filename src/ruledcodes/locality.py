"""Fiber restrictions, projective Lagrange recovery, and repair sets.

Restricting a surface codeword to the q+1 points of a fiber gives a word of
(a subcode of) the projective Reed-Solomon code PRS(a); when the fiber
restriction has full rank a+1 it equals PRS(a), and each coordinate can be
recovered from any a+1 other coordinates of its fiber.  Helper sets of size
a+1 are chunked greedily from the fiber points in canonical order, giving
floor(q/(a+1)) pairwise disjoint recovery sets per coordinate.  (The
availability stated with a ceiling is not achievable with disjoint sets of
exact size a+1 when a+1 does not divide q; reports surface the floor.)

The recovery coefficients are closed-form projective Lagrange weights, which
depend only on the fiber coordinates of the target and its helpers, so each
is computed once and shared by every fiber; the columns are grouped by base
point once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .codes import LinearCode, build_prs, build_curve_code
from .curve import ClosedPoint
from .surface import INFTY


@dataclass(frozen=True)
class RecoverySet:
    """Coefficients recovering one column from a+1 helpers in its fiber."""
    target: int
    helpers: tuple
    coefficients: tuple

    def as_dict(self):
        return {"target": self.target, "helpers": list(self.helpers),
                "coefficients": list(self.coefficients)}


def _fibers(code: LinearCode):
    """{base point: its column indices}, base points in the order their
    first column appears."""
    fibers = {}
    for i, col in enumerate(code.columns):
        if isinstance(col, tuple):
            fibers.setdefault(col[0], []).append(i)
    return fibers


def fiber_ranks(code: LinearCode) -> dict:
    """{base point: rank of the code restricted to its fiber}, base points
    in the order their first column appears; the columns are grouped once."""
    return {p: linalg.rank(code.spec, [[row[i] for i in idx] for row in code.matrix])
            for p, idx in _fibers(code).items()}


def restriction_fiber(code: LinearCode, p: ClosedPoint) -> LinearCode:
    """The code restricted to the q+1 columns of the fiber over p.

    meta carries the rank and whether the restriction equals PRS(a) as row
    spaces (the computational surrogate for the cohomological surjectivity
    condition).
    """
    idx = _fibers(code).get(p)
    if not idx:
        raise ValueError(f"{p!r} is not a base point of the code's point index")
    rows = [[row[i] for i in idx] for row in code.matrix]
    a = code.meta.get("a")
    sub = LinearCode(code.spec, rows, [code.columns[i] for i in idx],
                     {"family": "fiber_restriction", "a": a, "base": p})
    rk = linalg.rank(code.spec, rows)
    sub.meta["rank"] = rk
    if a is not None:
        assert rk <= a + 1, "fiber restriction rank exceeds a + 1"
        prs = build_prs(code.spec, a)
        sub.meta["equals_prs"] = (rk == a + 1
                                  and linalg.row_space_equal(code.spec, rows,
                                                             prs.matrix))
    return sub


def restriction_section(code: LinearCode, section_spec) -> LinearCode:
    """Restriction to the image of a section, one column per base point.

    section_spec is "zero" (the section u = 0, restriction inside the code
    of beta), "infinity" (the section at infinity, restriction inside the
    code of beta - a*delta), or an explicit list of fiber values per base
    point in base-point order.
    meta["expected_divisor"] names the base-curve divisor of the containing
    code when it is known.
    """
    bases = list(_fibers(code))
    if section_spec == "zero":
        fibers = {p: 0 for p in bases}
    elif section_spec == "infinity":
        fibers = {p: INFTY for p in bases}
    elif isinstance(section_spec, (list, tuple)):
        if len(section_spec) != len(bases):
            raise ValueError("one fiber value per base point is required")
        fibers = dict(zip(bases, section_spec))
    else:
        raise ValueError(f"malformed section spec {section_spec!r}")
    col_of = {col: i for i, col in enumerate(code.columns)}
    idx = []
    for p in bases:
        key = (p, fibers[p])
        if key not in col_of:
            raise ValueError(f"section point {key!r} is not an evaluation point")
        idx.append(col_of[key])
    rows = [[row[i] for i in idx] for row in code.matrix]
    meta = {"family": "section_restriction", "section": section_spec}
    beta = code.meta.get("beta")
    surface = code.meta.get("surface")
    a = code.meta.get("a")
    if beta is not None and a is not None:
        if section_spec == "zero":
            meta["expected_divisor"] = beta
        elif section_spec == "infinity" and surface is not None \
                and surface.variant == "decomposable":
            meta["expected_divisor"] = beta - a * surface.delta
    return LinearCode(code.spec, rows, [code.columns[i] for i in idx], meta)


def section_restriction_contained(code: LinearCode, section_spec) -> bool:
    """Row-space containment of the section restriction in the stated
    base-curve code (raises if the expected divisor is unknown)."""
    sub = restriction_section(code, section_spec)
    expected = sub.meta.get("expected_divisor")
    if expected is None:
        raise ValueError("no expected base-curve divisor for this section")
    curve = code.meta["curve"]
    outer = build_curve_code(curve, expected)
    return linalg.row_space_contains(code.spec, outer.matrix, sub.matrix)


def recovery_sets(code: LinearCode):
    """floor(q/(a+1)) pairwise disjoint recovery sets for every column.

    Requires every fiber restriction to have rank a+1 (checked).  The
    coefficients are the projective Lagrange weights of _lagrange_weights,
    computed once per target coordinate and helper chunk and shared by every
    fiber.
    """
    a = code.meta.get("a")
    if a is None:
        raise ValueError("code has no fiber degree a in its metadata")
    spec = code.spec
    q = spec.order
    r = a + 1
    if r > q:
        raise ValueError("locality a + 1 exceeds the q remaining fiber points")

    def canonical(i):   # affine encodings ascending, infinity last
        u = code.columns[i][1]
        return (u == INFTY, 0 if u == INFTY else u)

    for p, rk in fiber_ranks(code).items():
        if rk != r:
            raise ValueError(f"fiber over {p!r} has rank {rk}, "
                             f"expected {r}; recovery sets unavailable")
    fibers = {p: sorted(idx, key=canonical) for p, idx in _fibers(code).items()}
    weights = {}
    out = {}
    for target_idx, (p, u_t) in enumerate(code.columns):
        others = [i for i in fibers[p] if i != target_idx]
        sets = []
        for s in range(q // r):
            chunk = tuple(others[s * r:(s + 1) * r])
            us = tuple(code.columns[i][1] for i in chunk)
            if (u_t, us) not in weights:
                weights[u_t, us] = _lagrange_weights(spec, us, u_t)
            sets.append(RecoverySet(target_idx, chunk, weights[u_t, us]))
        out[target_idx] = sets
    return out


def _lagrange_weights(spec, helper_us, target_u):
    """gamma with h(target) = sum gamma_j h(helper_j) for every form h of
    degree <= a = len(helper_us) - 1 on P^1, where h(infinity) is the
    degree-a coefficient.

    gamma_j = prod_{m != j} (u_t - u_m) / (u_j - u_m) over the finite helpers
    u_m.  A helper at infinity takes the leading coefficient of the remaining
    interpolation error, prod_m (u_t - u_m); when the target is at infinity
    it reads the leading coefficient of h, so gamma_j = 1 / prod_{m != j}
    (u_j - u_m).
    """
    finite = [u for u in helper_us if u != INFTY]
    out = []
    for u_j in helper_us:
        num = den = 1
        for u_m in finite:
            if u_m == u_j:
                continue
            if target_u != INFTY:
                num = spec.mul_i(num, spec.sub_i(target_u, u_m))
            if u_j != INFTY:
                den = spec.mul_i(den, spec.sub_i(u_j, u_m))
        out.append(spec.mul_i(num, spec.inv_i(den)))
    return tuple(out)


def recover(word, target: int, rset: RecoverySet, spec):
    """The erased coordinate from its helpers (word entries: int or None)."""
    if rset.target != target:
        raise ValueError("recovery set is for a different target")
    acc = 0
    for idx, c in zip(rset.helpers, rset.coefficients):
        v = word[idx]
        if v is None:
            raise ValueError(f"helper position {idx} is erased")
        acc = spec.add_i(acc, spec.mul_i(c, v))
    return acc
