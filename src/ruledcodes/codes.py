"""Generator-matrix construction for the evaluation-code families.

Families:
  * projective (doubly extended) Reed-Solomon PRS(a) on P^1(F_q);
  * AG codes on the base curve, L(beta) evaluated at rational points;
  * surface codes: sections sum_{i=0..a} g_i u^i, g_i in L(beta_i), of
    a*S + pi^*(beta), all built by one _section_code(surface, a, beta)
    that reads beta_i and the family's conditions from the surface.  On
    P(O (+) O(-delta)) beta_i = beta - i*delta and there are no
    conditions; the product PRS(a) (x) C_curve(beta) is that code on
    C x P^1 (delta = 0), with its Kunneth oracle in tests/product_oracle.py;
    elm takes beta_i = beta, with Hasse-derivative conditions for
    multiplicity a at the center.  Every family's message space is the
    null space of its conditions on the g_i's stacked coordinates (the
    identity where there are none);
  * unisecant codes (a = 1) with their dimension/distance records.

A section (f_0, ..., f_a) takes the value sum_i f_i(p) u^i at the surface
point (p, u) and the top coefficient f_a(p) at (p, infinity), matching the
projective Reed-Solomon convention on every fiber.  So the builder ends in
one evaluator, _section_rows: each row's values of (f_0, ..., f_a) at the
N rational base points times the generator of PRS(a).  Each distinct
Riemann-Roch space is evaluated once, whole, at the N points
(RRSpace.values), and all its blocks of the message space meet those
values in one product; the elm conditions read its Taylor coefficients
at the center (RRSpace.expansions).
"""

from __future__ import annotations

from math import comb

import numpy as np

from .gf import DESK_CAP, FieldSpec, extend, field_create, prime_power
from .curve import CurveModel, ClosedPoint, DivisorOnCurve
from .rrspace import rr_basis, subfield_coords
from .surface import (RuledSurfaceModel, DECOMPOSABLE, ELM, INFTY,
                      surface_rational_points, segre_decomposable,
                      segre_dmax_default, segre_lower_bound_elm)
from .analysis import bound_unisecant
from . import linalg


class LinearCode:
    """A generator matrix over F_q with its evaluation-point column index."""

    __slots__ = ("spec", "matrix", "columns", "meta")

    def __init__(self, spec: FieldSpec, matrix, columns, meta=None):
        self.spec = spec
        self.matrix = [list(r) for r in matrix]
        self.columns = list(columns)
        self.meta = dict(meta or {})
        for row in self.matrix:
            if len(row) != len(self.columns):
                raise ValueError("row length does not match the point index")

    @property
    def n(self) -> int:
        return len(self.columns)

    @property
    def k(self) -> int:
        return len(self.matrix)

    def column_labels(self):
        """One label per column: "base|u" for a surface point (base, u),
        with its base point formatted once per run of its fiber's columns,
        and _column_label of any other column."""
        out, base = [], None
        for col in self.columns:
            if isinstance(col, tuple) and len(col) == 2 and isinstance(col[0], ClosedPoint):
                if col[0] is not base:
                    base = col[0]
                    prefix = _column_label(base) + "|"
                out.append(prefix + str(col[1]))
            else:
                out.append(_column_label(col))
        return out

    def __repr__(self):
        fam = self.meta.get("family", "code")
        return f"LinearCode[{fam}](k={self.k}, n={self.n}, q={self.spec.order})"


def _column_label(col) -> str:
    """The label of a bare column: a base point or an integer."""
    if isinstance(col, ClosedPoint):
        return "inf" if col.is_infinity else f"{col.x}.{col.y}"
    return str(col)


# ---------------------------------------------------------------------------

def build_prs(spec: FieldSpec, a: int) -> LinearCode:
    """Projective Reed-Solomon code [q+1, a+1, q+1-a]: degree-a forms
    evaluated on P^1(F_q), with the degree-a coefficient at infinity."""
    q = spec.order
    if not 0 <= a <= q:
        raise ValueError(f"PRS degree a = {a} out of range 0..{q}")
    columns = list(range(q)) + [INFTY]
    matrix = []
    for i in range(a + 1):
        row = [spec.pow_i(u, i) for u in range(q)]
        row.append(1 if i == a else 0)
        matrix.append(row)
    return LinearCode(spec, matrix, columns,
                      {"family": "prs", "a": a, "q": q})


def build_curve_code(curve: CurveModel, beta: DivisorOnCurve) -> LinearCode:
    """Evaluation of L(beta) at the rational points of the curve."""
    pts = curve.rational_points()
    _check_disjoint(beta, pts, "beta")
    b = beta.degree()
    if not 0 <= b < len(pts):
        raise ValueError(f"deg(beta) = {b} must satisfy 0 <= b < N = {len(pts)}")
    space = rr_basis(curve, beta)
    if not space:
        raise ValueError("empty message space L(beta)")
    return LinearCode(curve.spec, space.values(pts).tolist(), pts,
                      {"family": "curve", "b": b, "N": len(pts),
                       "beta": beta, "curve": curve})


def build_code_decomposable(surface: RuledSurfaceModel, a: int,
                            beta: DivisorOnCurve) -> LinearCode:
    """Sections of a*S + pi^*(beta) on a decomposable surface, evaluated at
    all (q+1)N rational points; message space (+)_{i=0..a} L(beta - i*delta).
    On surface_trivial (delta = 0) this is PRS(a) (x) C_curve(beta)."""
    if surface.variant != DECOMPOSABLE:
        raise ValueError("decomposable builder on a non-decomposable surface")
    return _section_code(surface, a, beta)


def build_code_elm(surface: RuledSurfaceModel, a: int,
                   beta: DivisorOnCurve) -> LinearCode:
    """Sections of a(C0 - E) + pi^*(beta) on an elm surface: the sections
    sum_i g_i u^i, g_i in L(beta), cut by _hasse_conditions at the center."""
    if surface.variant != ELM:
        raise ValueError("elm builder on a non-elm surface")
    return _section_code(surface, a, beta)


def _hasse_conditions(surface: RuledSurfaceModel, a: int, space):
    """The F_q rows, on the g_i's coordinates in the L(beta) basis space
    (i = 0..a), saying that the local expansion sum_{j,kk} t^j w^kk of
    sum_i g_i u^i at the center vanishes for j + kk <= a - 1 (t the
    uniformizer at the base point, w = u - fiber coordinate).  The
    coefficient of t^j w^kk is sum_i C(i, kk) u0^(i - kk) T_j(g_i), T_j the
    j-th Taylor coefficient; each gives deg(center) F_q-linear conditions."""
    spec = surface.curve.spec
    center = surface.base_point
    ext = extend(spec, center.degree)
    u0 = surface.fiber_coord
    taylors = space.expansions(center, a).tolist()
    conditions = []
    for j in range(a):
        for kk in range(a - j):
            hasse = [ext.mul_i(comb(i, kk) % spec.p, ext.pow_i(u0, i - kk))
                     if i >= kk else 0 for i in range(a + 1)]
            conditions.append([ext.mul_i(h, t[j]) for h in hasse for t in taylors])
    return subfield_coords(spec, ext, conditions)


def _section_code(surface: RuledSurfaceModel, a: int,
                  beta: DivisorOnCurve) -> LinearCode:
    """The code of the sections sum_{i=0..a} g_i u^i of a*S + pi^*(beta) at
    surface_rational_points, g_i in L(beta_i): beta_i = beta - i*delta on a
    decomposable surface, beta on an elm one.  Refusals, in order: a < 0,
    supp(beta) meeting a rational base point, supp(delta) meeting one or
    supp(beta) meeting the elm center, deg(beta) outside 0..N-1, an empty
    message space.  The message space is the null space of the family's
    conditions on the g_i's stacked coordinates (elm's _hasse_conditions,
    none on a decomposable surface, whose null space is the identity)."""
    if a < 0:
        raise ValueError("a must be >= 0")
    curve, spec = surface.curve, surface.curve.spec
    rational = curve.rational_points()
    _check_disjoint(beta, rational, "beta")
    if surface.variant == DECOMPOSABLE:
        _check_disjoint(surface.delta, rational, "delta")
        betas = [beta - i * surface.delta for i in range(a + 1)]
    elif beta.multiplicity(surface.base_point):
        raise ValueError("supp(beta) must avoid the center of the transform")
    else:
        betas = [beta] * (a + 1)
    b = beta.degree()
    if not 0 <= b < len(rational):
        raise ValueError(f"deg(beta) = {b} must satisfy 0 <= b < N = "
                         f"{len(rational)}")
    spaces = [rr_basis(curve, d) for d in betas]
    if not any(spaces):
        raise ValueError("empty message space L(beta)")
    cond_rows = (_hasse_conditions(surface, a, spaces[0])
                 if surface.variant == ELM else [])
    dims = [len(space) for space in spaces]
    null = linalg.nullspace(spec, cond_rows, sum(dims))
    if not null:
        raise ValueError("empty message space after multiplicity conditions")
    meta = {"family": ("elm_surface" if surface.variant == ELM
                       else "decomposable_surface"), "e": surface.e,
            "a": a, "b": b, "N": len(rational), "g": curve.genus,
            "surface": surface, "beta": beta, "curve": curve,
            "block_dims": dims, "condition_rank": sum(dims) - len(null),
            "condition_count": len(cond_rows)}
    coeffs = _section_coeffs(spec, spaces, null, rational)
    return LinearCode(spec, _section_rows(spec, a, coeffs),
                      surface_rational_points(surface), meta)


def _section_coeffs(spec: FieldSpec, spaces, null, points):
    """The (a + 1) x k x N values of each row's g_i at the N points, null's
    rows holding the g_i's coordinates in the bases spaces[i] one block
    after another.  Each distinct space (delta = 0 and elm repeat one) is
    evaluated once, and all its blocks of all rows are one product."""
    null = np.array(null, dtype=np.int64)
    starts = np.cumsum([0] + [len(space) for space in spaces])
    coeffs = np.empty((len(spaces), len(null), len(points)), dtype=np.int64)
    for space in dict.fromkeys(spaces):
        blocks = [i for i, s in enumerate(spaces) if s is space]
        stacked = np.concatenate([null[:, starts[i]:starts[i + 1]] for i in blocks])
        live = stacked.any(axis=1)  # without conditions, only the block's own rows
        values = np.zeros((len(stacked), len(points)), dtype=np.int64)
        values[live] = linalg.mat_mul(spec, stacked[live], space.values(points))
        coeffs[blocks] = values.reshape(len(blocks), len(null), -1)
    return coeffs


def _section_rows(spec: FieldSpec, a: int, coeffs):
    """The rows of the sections sum_i g_i u^i, coeffs[i] holding each row's
    g_i at the N rational base points: the (k N) x (a + 1) values times
    PRS(a)'s generator, read base major and fiber minor like
    surface_rational_points."""
    values = np.asarray(coeffs, dtype=np.int64).transpose(1, 2, 0)
    table = linalg.mat_mul(spec, values.reshape(-1, a + 1), build_prs(spec, a).matrix)
    return table.reshape(len(values), -1).tolist()


def build_unisecant(surface: RuledSurfaceModel, degL: int,
                    beta: DivisorOnCurve | None = None,
                    s_a: int | None = None,
                    segre_dmax: int | None = None) -> LinearCode:
    """The a = 1 code for a divisor of fiber degree degL, with the unisecant
    parameter records of analysis.bound_unisecant:
    k >= deg E + 2(degL + 1 - g) and d >= q(N - (deg E - s_a)/2 - degL).

    For an elm surface s_a defaults to the certified graph-avoidance lower
    bound, which keeps the distance record valid.
    """
    curve = surface.curve
    if s_a is None:
        if surface.variant == DECOMPOSABLE:
            s_a = segre_decomposable(surface)[1]
        else:
            s_a, _ = segre_lower_bound_elm(
                surface, segre_dmax_default(curve.genus) if segre_dmax is None
                else segre_dmax)
    rep = bound_unisecant(surface.q, len(curve.rational_points()), curve.genus,
                          surface.deg_sheaf, s_a, degL)
    if not rep.valid:
        raise ValueError(f"unisecant records k >= {rep.k_lower} and "
                         f"d >= {rep.d_lower} must both be positive")
    if beta is None:
        beta = _divisor_of_degree(surface, degL)
    if beta.degree() != degL:
        raise ValueError("beta degree does not match degL")
    code = _section_code(surface, 1, beta)
    code.meta.update({"family": "unisecant", "degL": degL, "s_a": s_a,
                      "k_lower_unisecant": rep.k_lower,
                      "d_lower_unisecant": rep.d_lower})
    return code


def _divisor_of_degree(surface: RuledSurfaceModel, deg: int) -> DivisorOnCurve:
    """A deterministic effective divisor of the given degree avoiding the
    rational points, supp(delta), and the elm center."""
    curve = surface.curve
    if deg == 0:
        return DivisorOnCurve(curve)
    if deg == 1:
        raise ValueError("degree-1 divisors would meet a rational point")
    excluded = set()
    if surface.variant == DECOMPOSABLE:
        excluded = set(surface.delta.support())
    else:
        excluded = {surface.base_point}
    for d in range(deg, 1, -1):
        rem = deg - d
        if rem == 1:
            continue
        pool = [p for p in curve.closed_points(d) if p not in excluded]
        if not pool:
            continue
        first = pool[0]
        if rem == 0:
            return DivisorOnCurve(curve, [(first, 1)])
        rest = _divisor_of_degree(surface, rem)
        if rest.multiplicity(first) == 0:
            return rest + DivisorOnCurve(curve, [(first, 1)])
    raise ValueError(f"no divisor of degree {deg} available off the excluded set")


def _check_disjoint(divisor: DivisorOnCurve, rational_points, name: str):
    rat = set(rational_points)
    for pt in divisor.support():
        if pt in rat:
            raise ValueError(f"supp({name}) meets the rational point {pt!r}")


# ---------------------------------------------------------------------------
# generator matrix wire format: "k n q" header then k rows of n integers

def write_matrix(code: LinearCode, path):
    """The header "k n q", then one line per row, in one write; each
    distinct symbol is formatted once."""
    symbol = {v: str(v) for v in set().union(*code.matrix)}.__getitem__
    lines = [f"{code.k} {code.n} {code.spec.order}"]
    lines += [" ".join(map(symbol, row)) for row in code.matrix]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_points(code: LinearCode, path):
    with open(path, "w") as fh:
        fh.write("".join([label + "\n" for label in code.column_labels()]))


def read_matrix(path) -> LinearCode:
    """Parse the wire format.  A malformed file raises ValueError naming the
    file and the offending field."""
    with open(path) as fh:
        try:
            k, n, q = (int(t) for t in fh.readline().split())
        except ValueError:
            raise ValueError(f"{path}: header must be three integers 'k n q'")
        if k < 1 or n < 1:
            raise ValueError(f"{path}: header k = {k} and n = {n} must be >= 1")
        if not 2 <= q <= DESK_CAP:
            raise ValueError(f"{path}: header q = {q} is not a prime power "
                             f"in 2..{DESK_CAP}")
        pm = prime_power(q)
        if pm is None:
            raise ValueError(f"{path}: header q = {q} is not a prime power")
        spec = field_create(*pm)
        matrix = []
        for i in range(1, k + 1):
            try:
                row = [int(t) for t in fh.readline().split()]
            except ValueError:
                raise ValueError(f"{path}: row {i} has a non-integer entry")
            if len(row) != n:
                raise ValueError(f"{path}: row {i} has {len(row)} entries, "
                                 f"header n = {n}")
            if any(not 0 <= v < q for v in row):
                raise ValueError(f"{path}: row {i} has an entry outside 0..{q - 1}")
            matrix.append(row)
        if any(line.strip() for line in fh):
            raise ValueError(f"{path}: more rows than header k = {k}")
    return LinearCode(spec, matrix, list(range(n)), {"family": "imported"})
