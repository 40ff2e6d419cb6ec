"""Ruled-surface models and their numerical lattice Z*S + Z*f.

Two explicit families are supported:

* Decomposable -- the projective bundle of O_C (+) O_C(-delta) for an
  effective divisor delta whose support avoids rational points; the
  section class S has S^2 = deg E = -deg(delta).

* ElmOfProduct -- the elementary transform of C x P^1 centered at a point
  of degree d >= 2 whose fiber coordinate is non-rational; the lattice is
  generated by S = C0 - E (so S^2 = -d) and the fiber class.

Intersection numbers, canonical classes, Euler characteristics, rational
points, the class map of an elementary transform, and the Segre-invariant
values and bounds all live here.

The graph-avoidance bound of an elm surface asks one linear question per
effective divisor D: does some f in L(D) take the fiber value at the
center?  Evaluation at the center is F_q-linear into F_{q^d}, so that is
one linalg.solve over F_q; no function is enumerated.  On a curve of genus
>= 1 the divisors of degree 1 are not asked: their L(D) holds only the
constants, which never take the fiber value.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .gf import extend
from .curve import CurveModel, ClosedPoint, DivisorOnCurve
from .rrspace import effective_divisors, rr_basis, subfield_coords

DECOMPOSABLE = "decomposable"
ELM = "elm"

INFTY = "inf"   # fiber coordinate marker for the point at infinity of P^1

# most linear solves (one per effective divisor) a Segre bound may ask for;
# covers every (curve, dmax) with #Eff_dmax * q^(dmax+1) <= 10^6, a bound
# on the number of functions of degree <= dmax
SEGRE_SOLVE_CAP = 3000


@dataclass(frozen=True)
class NumClass:
    """a*S + b*f in the numerical lattice of a ruled surface."""
    a: int
    b: int

    def __add__(self, other):
        return NumClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return NumClass(self.a - other.a, self.b - other.b)

    def __rmul__(self, k: int):
        return NumClass(k * self.a, k * self.b)

    def __str__(self):
        return f"{self.a}S+{self.b}f"


class RuledSurfaceModel:
    __slots__ = ("variant", "curve", "delta", "base_point", "fiber_coord")

    def __init__(self, variant, curve: CurveModel, delta=None,
                 base_point=None, fiber_coord=None):
        self.variant = variant
        self.curve = curve
        self.delta = delta
        self.base_point = base_point
        self.fiber_coord = fiber_coord
        if variant == DECOMPOSABLE:
            if delta is None:
                raise ValueError("decomposable surface needs a divisor delta")
            if not (delta.is_effective() or delta.degree() == 0):
                raise ValueError("delta must be effective")
            # rational points in supp(delta) are fine for the surface itself;
            # the code builders re-check the support against the evaluation set
        elif variant == ELM:
            if base_point is None or fiber_coord is None:
                raise ValueError("elm surface needs a center (base point, fiber)")
            d = base_point.degree
            if base_point.is_infinity or d < 2:
                raise ValueError("the center must have degree >= 2")
            ext = extend(curve.spec, d)
            # every orbit size divides d: only an element of F_q is refused
            if len(ext.orbit((fiber_coord,), curve.spec.order)) < 2:
                raise ValueError("fiber coordinate of the center is rational; "
                                 "its image on P^1 must have degree >= 2")
        else:
            raise ValueError(f"unknown surface variant {variant!r}")

    # -- invariants of the lattice

    @property
    def e(self) -> int:
        """deg(delta) for decomposable surfaces, the center degree for elm."""
        if self.variant == DECOMPOSABLE:
            return self.delta.degree()
        return self.base_point.degree

    @property
    def deg_sheaf(self) -> int:
        return -self.e

    @property
    def s_squared(self) -> int:
        return self.deg_sheaf

    @property
    def genus(self) -> int:
        return self.curve.genus

    @property
    def q(self) -> int:
        return self.curve.spec.order

    def __repr__(self):
        if self.variant == DECOMPOSABLE:
            return f"Decomposable(e={self.e}, {self.curve!r})"
        return f"Elm(d={self.e}, {self.curve!r})"


def surface_decomposable(curve, delta: DivisorOnCurve) -> RuledSurfaceModel:
    return RuledSurfaceModel(DECOMPOSABLE, curve, delta=delta)


def surface_elm_product(curve, base_point: ClosedPoint,
                        fiber_coord: int) -> RuledSurfaceModel:
    return RuledSurfaceModel(ELM, curve, base_point=base_point,
                             fiber_coord=fiber_coord)


def surface_trivial(curve) -> RuledSurfaceModel:
    """C x P^1 as the decomposable surface with delta = 0."""
    return RuledSurfaceModel(DECOMPOSABLE, curve, delta=DivisorOnCurve(curve))


# ---------------------------------------------------------------------------

def intersect(surface: RuledSurfaceModel, c1: NumClass, c2: NumClass) -> int:
    """Intersection number with S^2 = deg E, f^2 = 0, S.f = 1."""
    return c1.a * c2.a * surface.s_squared + c1.a * c2.b + c2.a * c1.b


def canonical_class(surface: RuledSurfaceModel) -> NumClass:
    """K = -2S + (2g - 2 + deg E) f in the identified lattice."""
    return NumClass(-2, 2 * surface.genus - 2 + surface.deg_sheaf)


def euler_char(surface: RuledSurfaceModel, D: NumClass) -> int:
    """chi(O_X(D)) = (a+1)(b+1-g) - c*a(a+1)/2, c = e or d.

    Cross-checked against the Riemann-Roch path chi = D.(D-K)/2 + 1 - g.
    """
    a, b, g, c = D.a, D.b, surface.genus, surface.e
    chi = (a + 1) * (b + 1 - g) - c * a * (a + 1) // 2
    k = canonical_class(surface)
    dd = intersect(surface, D, D - k)
    assert dd % 2 == 0
    assert chi == dd // 2 + 1 - g, "Euler characteristic paths disagree"
    return chi


def surface_rational_points(surface: RuledSurfaceModel):
    """The (q+1)*N rational points as (rational base point, fiber coord).

    Fiber coordinates run over the encodings of F_q in ascending order with
    the point at infinity last.  For an elm surface these are the points of
    C x P^1 (the center has degree >= 2, so no rational point is touched).
    """
    q = surface.q
    fibers = list(range(q)) + [INFTY]
    out = []
    for p in surface.curve.rational_points():
        for u in fibers:
            out.append((p, u))
    return out


def elm_class_map(a_prime: int, b_prime: int, m: int, d: int,
                  self_int_before: int | None = None):
    """Class of the image of the strict transform of a'C0 + b'f under an
    elementary transform with a degree-d center of multiplicity m.

    Returns (NumClass on the transformed surface, its self-intersection
    there, equal to D^2 + a'd(a' - 2m)).  The source self-intersection D^2
    defaults to 2a'b', the value on the product surface; pass it explicitly
    when transforming away from a non-product source (e.g. for the inverse
    transform, whose center is the image of the contracted fiber).
    """
    if not 0 <= m <= a_prime:
        raise ValueError("multiplicity must satisfy 0 <= m <= a'")
    cls = NumClass(a_prime, b_prime + d * (a_prime - m))
    if self_int_before is None:
        self_int_before = 2 * a_prime * b_prime  # C0^2 = 0 on the product
    self_int = self_int_before + a_prime * d * (a_prime - 2 * m)
    return cls, self_int


def segre_decomposable(surface: RuledSurfaceModel):
    """Exact (s_g, s_a) of a decomposable surface: both equal -deg(delta)."""
    if surface.variant != DECOMPOSABLE:
        raise ValueError("exact Segre invariants require the decomposable variant")
    e = surface.e
    return (-e, -e) if e > 0 else (0, 0)


def _segre_first_degree(g: int) -> int:
    """The least divisor degree the graph-avoidance walk asks: 1 on P^1.
    On genus >= 1 a function of degree 1 would map the curve isomorphically
    onto P^1, so L(D) holds only the constants at deg D = 1, and they never
    take the fiber value."""
    return 1 if g == 0 else 2


def _segre_solve_count(q: int, g: int, h: int, dmax: int) -> int:
    """Most solves of a graph-avoidance walk to dmax: the number of
    effective divisors of degree 2..dmax on genus >= 1 (1..dmax on P^1),
    by the closed form #Eff_d = h (q^(d+1-g) - 1)/(q - 1), exact for
    d > 2g - 2.

    The sum stops once it passes SEGRE_SOLVE_CAP, so a huge dmax is cheap.
    """
    total = 0
    for d in range(_segre_first_degree(g), dmax + 1):
        total += h * (q ** (d + 1 - g) - 1) // (q - 1)
        if total > SEGRE_SOLVE_CAP:
            break
    return total


def segre_dmax_default(g: int) -> int:
    """The default depth of the graph-avoidance walk: 2g - 1, and 0 on P^1."""
    return max(2 * g - 1, 0)


def segre_lower_bound_elm(surface: RuledSurfaceModel, dmax: int):
    """Graph-avoidance lower bound for s_a of an elm surface.

    Finds the largest d* <= dmax such that no function of degree <= d* has
    its graph through the center (p, fc), and returns
    (min{e, 2(d*+1) - e}, d*).  Walking d = 1..dmax, it asks of each
    effective D of degree d off the center whether some f in L(D) has
    f(p) = fc; the first d that answers yes is d* + 1.  This is exact: a
    function of degree d0 regular at p lies in L(its pole divisor), which
    has degree d0 and avoids p, and one regular at p in L(D) also lies in
    L(D - n*p), n the multiplicity of p in D, visited earlier.  Constants
    never answer yes, because fc is not in F_q.  So on a curve of genus
    >= 1 the walk starts at d = 2: by Riemann-Roch l(D) = 1 when
    deg D = 1, and L(D) holds only the constants.  On P^1, l(D) = 2 there.
    """
    if surface.variant != ELM:
        raise ValueError("graph-avoidance bound requires the elm variant")
    if dmax < 0:
        raise ValueError(f"segre_dmax = {dmax} must be >= 0")
    curve = surface.curve
    spec = curve.spec
    # refuse before any closed point of degree >= 2 is enumerated
    solves = _segre_solve_count(spec.order, curve.genus, curve.class_number(), dmax)
    if solves > SEGRE_SOLVE_CAP:
        raise ValueError(f"segre_dmax = {dmax} needs at least {solves} linear "
                         f"solves (one per effective divisor), above the cap "
                         f"{SEGRE_SOLVE_CAP}")
    center = surface.base_point
    ext = center.ext_spec
    rhs = [r for r, in subfield_coords(spec, ext, [[surface.fiber_coord]])]
    dstar = dmax
    for d in range(_segre_first_degree(curve.genus), dmax + 1):
        if any(_takes_value(curve, D, center, spec, ext, rhs)
               for D in effective_divisors(curve, d)
               if D.multiplicity(center) == 0):
            dstar = d - 1
            break
    e = surface.e
    return min(e, 2 * (dstar + 1) - e), dstar


def _takes_value(curve, D, center, small, big, rhs) -> bool:
    """True iff some f in L(D) has f(center) in big = F_{q^d} with the
    coordinates rhs over small = F_q."""
    rows = subfield_coords(small, big, rr_basis(curve, D).expansions(center, 1).T)
    return linalg.solve(small, rows, rhs) is not None


def segre_upper_bounds(g: int, N: int, q: int) -> int:
    """min(2g, refinement): the 2g bound, refined by the rational-point count.

    If N > max{(t+1)(q^2+1), t(q^2+q+1)} for some t >= 0, then s_a < 2(g-t);
    as an integer bound, s_a <= 2(g-t) - 1 for the largest such t.
    """
    best_t = None
    t = 0
    while N > max((t + 1) * (q * q + 1), t * (q * q + q + 1)):
        best_t = t
        t += 1
    if best_t is None:
        return 2 * g
    return min(2 * g, 2 * (g - best_t) - 1)
