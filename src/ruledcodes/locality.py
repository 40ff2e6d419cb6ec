"""Fiber restrictions, projective Lagrange recovery, and repair sets.

Restricting a surface codeword to the q+1 points of a fiber gives a word of
(a subcode of) the projective Reed-Solomon code PRS(a); when the fiber
restriction has full rank a+1 it equals PRS(a), and each coordinate can be
recovered from any a+1 other coordinates of its fiber.  Helper sets of size
a+1 are chunked greedily from the fiber points in canonical order, giving
floor(q/(a+1)) pairwise disjoint recovery sets per coordinate.  (The
availability stated with a ceiling is not achievable with disjoint sets of
exact size a+1 when a+1 does not divide q; reports surface the floor.)

The sets and their closed-form projective Lagrange weights depend only on
the fiber coordinates of a fiber, so they are built once per distinct
coordinate tuple, as positions within the fiber, and mapped onto every
fiber with that tuple by index arrays; a surface code has one such tuple.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg
from .codes import LinearCode
from .surface import INFTY


class RepairSets(NamedTuple):
    """The recovery sets of every column as two int64 arrays of shape
    (n, s, r), s = floor(q/(a+1)) sets of r = a+1 helpers: helpers[t, j]
    are the columns of column t's j-th set and coefficients[t, j] their
    weights."""
    helpers: np.ndarray
    coefficients: np.ndarray

    def values(self):
        """Column t's (s, r) helper array for each t, so that
        sum(len(v) for v in sets.values()) counts the sets, as perfbench's
        tracer does."""
        return self.helpers


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


def recovery_sets(code: LinearCode) -> RepairSets:
    """floor(q/(a+1)) pairwise disjoint recovery sets for every column.

    Requires every fiber restriction to have rank a+1 and every fiber to
    hold those sets (both checked).  Column t's helpers are the rest of its
    fiber in canonical order, chunked; the coefficients are the projective
    Lagrange weights of _lagrange_weights.
    """
    a = code.meta.get("a")
    if a is None:
        raise ValueError("code has no fiber degree a in its metadata")
    spec = code.spec
    q = spec.order
    r = a + 1
    if r > q:
        raise ValueError("locality a + 1 exceeds the q remaining fiber points")
    s = q // r

    def canonical(i):   # affine encodings ascending, infinity last
        u = code.columns[i][1]
        return (u == INFTY, 0 if u == INFTY else u)

    for p, rk in fiber_ranks(code).items():
        if rk != r:
            raise ValueError(f"fiber over {p!r} has rank {rk}, "
                             f"expected {r}; recovery sets unavailable")
    fibers = _fibers(code)
    if sum(map(len, fibers.values())) != code.n:
        raise ValueError("some columns are not points of a fiber")
    layouts = {}        # fiber coordinates in canonical order -> the fibers
    for p, idx in fibers.items():
        if len(idx) < s * r + 1:
            raise ValueError(f"fiber over {p!r} has {len(idx)} points; "
                             f"{s} disjoint sets of {r} helpers need {s * r + 1}")
        idx.sort(key=canonical)
        layouts.setdefault(tuple(code.columns[i][1] for i in idx), []).append(idx)
    helpers = np.empty((code.n, s, r), dtype=np.int64)
    coefficients = np.empty((code.n, s, r), dtype=np.int64)
    for us, same in layouts.items():
        pattern, weights = _fiber_pattern(spec, us, s, r)
        cols = np.array(same, dtype=np.int64)
        helpers[cols] = cols[:, pattern]
        coefficients[cols] = weights
    return RepairSets(helpers, coefficients)


def _fiber_pattern(spec, us, s, r):
    """(positions, weights), each of shape (len(us), s, r), for a fiber
    whose points have the fiber coordinates us in canonical order: target t
    takes the first s r of the other positions in order, in chunks of r."""
    others = np.arange(s * r)
    pattern = (others + (others >= np.arange(len(us))[:, None])).reshape(-1, s, r)
    weights = [[_lagrange_weights(spec, [us[i] for i in chunk], u_t)
                for chunk in sets] for u_t, sets in zip(us, pattern.tolist())]
    return pattern, np.array(weights, dtype=np.int64)


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


def recover(word, helpers, coefficients, spec):
    """The erased coordinate from one recovery set, the rows helpers[t, j]
    and coefficients[t, j] of recovery_sets (word entries: int or None)."""
    acc = 0
    for idx, c in zip(helpers.tolist(), coefficients.tolist()):
        v = word[idx]
        if v is None:
            raise ValueError(f"helper position {idx} is erased")
        acc = spec.add_i(acc, spec.mul_i(c, v))
    return acc
