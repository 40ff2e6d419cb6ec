"""Evaluation codes on ruled surfaces over finite fields.

Construction, exact verification, locality analysis, and asymptotic
frontier computations for algebraic-geometry codes whose evaluation sets
are the rational points of a ruled surface over a curve.

Start-up: nothing in the package calls BLAS.  Field arithmetic is exact,
on int64 arrays, and integer ``@`` and elementwise float operations never
reach BLAS.  OpenBLAS still starts a thread pool when numpy loads, which
costs each process CPU time at import and a spinning helper thread after
it.  So when this package is the one that loads numpy, it loads it with
``OPENBLAS_NUM_THREADS=1`` and then puts ``os.environ`` back exactly as
it was.  It does nothing if numpy is already loaded or if any of
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS``
is set: a thread count the caller chose wins.
"""

__version__ = "0.1.0"


def _load_numpy_with_one_blas_thread() -> None:
    import os
    import sys

    if "numpy" in sys.modules or any(
            v in os.environ for v in ("OPENBLAS_NUM_THREADS",
                                      "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_load_numpy_with_one_blas_thread()

from .gf import field_create, extend, FieldSpec
from .curve import curve_create, CurveModel, ClosedPoint, DivisorOnCurve, P1, ELLIPTIC
from .rrspace import rr_basis, RRSpace, PoleError
from .surface import (RuledSurfaceModel, NumClass, surface_decomposable,
                      surface_elm_product, surface_trivial, intersect,
                      canonical_class, euler_char, surface_rational_points,
                      elm_class_map, segre_decomposable, segre_lower_bound_elm,
                      segre_upper_bounds)
from .codes import (LinearCode, build_prs, build_curve_code,
                    build_code_decomposable, build_code_elm, build_unisecant)
from .analysis import (BoundReport, bound_elm_family, bound_decomposable_family,
                       bound_unisecant, exact_params, griesmer_check,
                       singleton_check)
from .locality import RepairSets, restriction_section, recovery_sets, recover
from .asymptotics import envelope_product, optimized_rate, dominance_report
