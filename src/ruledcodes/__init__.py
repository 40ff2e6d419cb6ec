"""Evaluation codes on ruled surfaces over finite fields.

Construction, exact verification, locality analysis, and asymptotic
frontier computations for algebraic-geometry codes whose evaluation sets
are the rational points of a ruled surface over a curve.
"""

__version__ = "0.1.0"

from .gf import field_create, extend, FieldSpec
from .curve import curve_create, CurveModel, ClosedPoint, DivisorOnCurve, P1, ELLIPTIC
from .rrspace import rr_basis, order_at, taylor_coeffs, evaluate, CurveFunction
from .surface import (RuledSurfaceModel, NumClass, surface_decomposable,
                      surface_elm_product, surface_trivial, intersect,
                      canonical_class, euler_char, surface_rational_points,
                      elm_class_map, segre_decomposable, segre_lower_bound_elm,
                      segre_upper_bounds)
from .codes import (LinearCode, build_prs, build_curve_code,
                    build_code_decomposable, build_code_elm,
                    build_product_code, build_unisecant)
from .analysis import (BoundReport, bound_elm_family, bound_decomposable_family,
                       bound_unisecant, exact_params, griesmer_check,
                       singleton_check)
from .locality import RepairSets, restriction_section, recovery_sets, recover
from .asymptotics import envelope_product, optimized_rate, dominance_report
