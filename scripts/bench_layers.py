#!/usr/bin/env python3
"""Layer timings in the paper's regimes, which the end-to-end benchmark
(perfbench/) runs too briefly to gate.

    python3 scripts/bench_layers.py

prints one JSON object of wall-clock seconds, each from a single run:
  * table_build.F_{q}: the exp/log tables of F_256, F_2401 and F_{2^16};
  * rr_basis.F_{q}.a{a}b{b}: the a + 1 Riemann-Roch bases
    L(beta - i delta) of each of those codes, on a fresh curve whose local
    charts are not cached yet (its degree-2 points are enumerated first,
    untimed);
  * rref.F_{q}.{k}x{n}: linalg.rref on the generators of the decomposable
    codes below (built first, untimed);
  * section_rows.F_49.{k}x3200: the a = 6, b = 24 code's rows from its
    Riemann-Roch bases: codes._values at the rational base points, then
    codes._section_rows;
  * build_elm.F_49.{k}x3200: codes.build_code_elm for a = 6, b = 24, the
    center being the degree-2 point of index 0 with the first fiber
    coordinate that `build` offers (fiber_index 0);
  * recovery_sets.F_49.18x3200: locality.recovery_sets for a = 2, b = 8;
  * fiber_ranks.F_49.18x3200: locality.fiber_ranks on the same code, the
    work of `build` with analysis.locality;
  * recover_write.F_49.3200: writing that code's recovery.json (the sets
    are computed first, untimed);
  * closed_points.F_{q^d}.d{d}: CurveModel.closed_points(d) on fresh
    curves, both F_49 curves at d = 2 and the F_16 one at d = 4 and 5;
  * embedding.F_{q}.d{d}: the embedding of F_16 into a fresh F_{16^5}
    (the least root of F_16's modulus in F_{2^20});
  * asymptotics.q{q}.A{A}: one dominance_report(49, 6, 400) plus one
    optimized_rate call per b of the 120-point ruled grid b = 0.3..0.98,
    the work of `ruledcodes asymptotics` at the benchmark's settings;
  * distance.F_{q}.{k}x{n}: analysis.exact_params (rref and distance
    search) on the two product-surface codes of the verify-exhaustive
    workload, [36, 10] over F_5 and [40, 10] over F_4, and on codes where
    the Zimmermann certificate does not pay: PRS(4) over F_25
    ([26, 5, 22]), random [60, 4], [100, 16] and [200, 6] codes over F_49,
    F_2 and F_9 (one, two and four 64-coordinate words per bit plane), and
    the a = 1 code on the product surface over P^1 over F_7 with beta one
    degree-3 point ([64, 8, 35]), a code `build` serves that the exhaustive
    search settles.

Each code lives on an elliptic curve with beta = b/2 times the degree-2
point of index 1 and delta (or the elm center) the degree-2 point of
index 0.
"""

import json
import os
import random
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ruledcodes import analysis, cli, codes, linalg, locality  # noqa: E402
from ruledcodes.asymptotics import dominance_report, optimized_rate  # noqa: E402
from ruledcodes.curve import curve_create, DivisorOnCurve, ELLIPTIC, P1  # noqa: E402
from ruledcodes.gf import FieldSpec, extend, field_create  # noqa: E402
from ruledcodes.rrspace import rr_basis  # noqa: E402
from ruledcodes.surface import (surface_decomposable,  # noqa: E402
                                surface_elm_product, surface_trivial)

TABLE_FIELDS = [(2, 8), (7, 4), (2, 16)]

# (p, m, curve coefficients, a, b)
CODES = {
    "rref": [(7, 2, (0, 0, 0, 1, 3), 1, 4),     # [3000, 6], the construct job
             (2, 4, (0, 0, 1, 0, 8), 5, 16),    # [425, 66]
             (7, 2, (0, 0, 0, 1, 0), 6, 24)],   # [3200, 126]
    "section_rows": [(7, 2, (0, 0, 0, 1, 0), 6, 24)],
    "build_elm": [(7, 2, (0, 0, 0, 1, 0), 6, 24)],    # [3200, 126]
    "recovery_sets": [(7, 2, (0, 0, 0, 1, 0), 2, 8)],
    "fiber_ranks": [(7, 2, (0, 0, 0, 1, 0), 2, 8)],
    "recover_write": [(7, 2, (0, 0, 0, 1, 0), 2, 8)],
}

# (p, m, curve coefficients, degree d)
CLOSED_POINTS = [(7, 2, [(0, 0, 0, 1, 3), (0, 0, 0, 1, 0)], 2),
                 (2, 4, [(0, 0, 1, 0, 8)], 4),
                 (2, 4, [(0, 0, 1, 0, 8)], 5)]

# (p, m, d): F_{p^m} embedded into F_{p^(m d)}
EMBEDDINGS = [(2, 4, 5)]

# (p, m, curve coefficients, index of the degree-2 point, index of the
# degree-3 point): a = 1 codes on the product surface with beta the sum of
# the two points, the shapes of the verify-exhaustive workload
DISTANCE_PRODUCT = [(5, 1, (0, 0, 0, 0, 1), 2, 0),    # [36, 10, 5]
                    (2, 2, (1, 0, 0, 0, 1), 0, 0)]    # [40, 10, 12]
# (p, m, a): PRS(a); (p, m, k, n, seed): k random rows of length n, drawn
# row by row with random.Random(seed)
DISTANCE_PRS = [(5, 2, 4)]
DISTANCE_RANDOM = [(7, 2, 4, 60, 5), (2, 1, 16, 100, 5), (3, 2, 6, 200, 5)]
# (p, m, a, d, i): the code of degree a on the product surface over P^1,
# with beta the degree-d point of index i
DISTANCE_P1 = [(7, 1, 1, 3, 1)]

# (q, A, samples, (lo, hi, count)): the dominance table and the ruled grid
# of `asymptotics --samples 400 --b-range 0.3:0.98:120`
ASYMPTOTICS = [(49, 6.0, 400, (0.3, 0.98, 120))]


def _seconds(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def table_build_s(p, m):
    """Seconds to build the exp/log tables of F_{p^m} (a fresh FieldSpec;
    the modulus search is not timed)."""
    modulus = field_create(p, m).modulus
    return _seconds(FieldSpec, p, m, modulus, p ** m)


def closed_points_s(p, m, curves, d):
    """Seconds to enumerate the degree-d closed points of each curve over
    F_{p^m}, on fresh curve objects (the extension is built first)."""
    spec = field_create(p, m)
    extend(spec, d)
    fresh = [curve_create(ELLIPTIC, coeffs, spec) for coeffs in curves]
    return sum(_seconds(curve.closed_points, d) for curve in fresh)


def embedding_s(p, m, d):
    """Seconds to embed F_{p^m} into a fresh FieldSpec of F_{p^(m d)}, which
    the spec cache has not seen (the modulus search is not timed)."""
    small = field_create(p, m)
    modulus = extend(small, d).modulus
    big = FieldSpec(p, m * d, modulus, p ** m)
    return _seconds(big._embedding_powers, small)


def asymptotics_s(q, A, samples, b_range):
    """Seconds for dominance_report(q, A, samples) plus optimized_rate at
    each b of the ruled grid b_range = (lo, hi, count), as the CLI builds
    it."""
    lo, hi, count = b_range
    grid = [lo + (hi - lo) * i / max(count - 1, 1) for i in range(count)]

    def run():
        dominance_report(q, A, samples)
        for b in grid:
            optimized_rate(q, A, b)
    return _seconds(run)


def _code_divisors(p, m, coeffs, b):
    """A fresh curve, delta and beta of a code."""
    curve = curve_create(ELLIPTIC, coeffs, field_create(p, m))
    points = curve.closed_points(2)
    return (curve, DivisorOnCurve(curve, [(points[0], 1)]),
            DivisorOnCurve(curve, [(points[1], b // 2)]))


def decomposable_code(p, m, coeffs, a, b):
    curve, delta, beta = _code_divisors(p, m, coeffs, b)
    return codes.build_code_decomposable(surface_decomposable(curve, delta), a, beta)


def rr_basis_s(p, m, coeffs, a, b):
    """Seconds for the bases L(beta - i delta), i = 0..a, of a code."""
    curve, delta, beta = _code_divisors(p, m, coeffs, b)
    return _seconds(lambda: [rr_basis(curve, beta - i * delta) for i in range(a + 1)])


def rref_s(code):
    return _seconds(linalg.rref, code.spec, code.matrix)


def section_rows_s(code):
    """Seconds to evaluate a decomposable code's Riemann-Roch bases at the
    rational base points and form its rows, as build_code_decomposable does
    (the bases are built again first, untimed)."""
    surface, a, beta = code.meta["surface"], code.meta["a"], code.meta["beta"]
    curve = surface.curve
    functions = [f for i in range(a + 1)
                 for f in rr_basis(curve, beta - i * surface.delta)]
    rational = curve.rational_points()

    def run():
        values = codes._values(functions, rational)
        zero = [0] * len(rational)
        coeffs = [[v if bi == i else zero
                   for bi, v in zip(code.meta["block_index"], values)]
                  for i in range(a + 1)]
        return codes._section_rows(curve.spec, a, coeffs)
    return _seconds(run)


def build_elm_s(p, m, coeffs, a, b):
    """(seconds, code) of build_code_elm on a fresh curve (its degree-2
    points and the center's fiber coordinates are found first, untimed)."""
    curve, center, beta = _code_divisors(p, m, coeffs, b)
    (point, _), = center.items()
    fiber = cli._valid_fiber_coords(point.ext_spec, curve.spec)[0]
    surface = surface_elm_product(curve, point, fiber)
    t0 = time.perf_counter()
    code = codes.build_code_elm(surface, a, beta)
    return time.perf_counter() - t0, code


def recovery_sets_s(code):
    return _seconds(locality.recovery_sets, code)


def fiber_ranks_s(code):
    return _seconds(locality.fiber_ranks, code)


def recover_write_s(code):
    """Seconds to write recovery.json the way cmd_recover does."""
    sets = locality.recovery_sets(code)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "recovery.json")

        def write():
            with open(path, "w") as fh:
                fh.write(cli.recovery_json(*sets))
        return _seconds(write)


def product_code(p, m, coeffs, i2, i3):
    """The a = 1 code on the product surface over a fresh curve, with beta
    the degree-2 point of index i2 plus the degree-3 point of index i3."""
    curve = curve_create(ELLIPTIC, coeffs, field_create(p, m))
    beta = DivisorOnCurve(curve, [(curve.closed_points(2)[i2], 1),
                                  (curve.closed_points(3)[i3], 1)])
    return codes.build_code_decomposable(surface_trivial(curve), 1, beta)


def p1_product_code(p, m, a, d, i):
    curve = curve_create(P1, None, field_create(p, m))
    beta = DivisorOnCurve(curve, [(curve.closed_points(d)[i], 1)])
    return codes.build_code_decomposable(surface_trivial(curve), a, beta)


def random_code(p, m, k, n, seed):
    rng = random.Random(seed)
    q = p ** m
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
    return codes.LinearCode(field_create(p, m), rows, list(range(n)))


def distance_s(code):
    return _seconds(analysis.exact_params, code)


def main():
    out = {f"table_build.F_{p ** m}": table_build_s(p, m) for p, m in TABLE_FIELDS}
    for p, m, curves, d in CLOSED_POINTS:
        out[f"closed_points.F_{p ** (m * d)}.d{d}"] = closed_points_s(p, m, curves, d)
    for p, m, d in EMBEDDINGS:
        out[f"embedding.F_{p ** m}.d{d}"] = embedding_s(p, m, d)
    for q, A, samples, b_range in ASYMPTOTICS:
        out[f"asymptotics.q{q}.A{A:g}"] = asymptotics_s(q, A, samples, b_range)
    for p, m, coeffs, a, b in CODES["rref"]:
        out[f"rr_basis.F_{p ** m}.a{a}b{b}"] = rr_basis_s(p, m, coeffs, a, b)
    for layer, timer in (("rref", rref_s), ("section_rows", section_rows_s),
                         ("recovery_sets", recovery_sets_s),
                         ("fiber_ranks", fiber_ranks_s)):
        for config in CODES[layer]:
            code = decomposable_code(*config)
            out[f"{layer}.F_{code.spec.order}.{code.k}x{code.n}"] = timer(code)
    for config in CODES["build_elm"]:
        seconds, code = build_elm_s(*config)
        out[f"build_elm.F_{code.spec.order}.{code.k}x{code.n}"] = seconds
    for config in CODES["recover_write"]:
        code = decomposable_code(*config)
        out[f"recover_write.F_{code.spec.order}.{code.n}"] = recover_write_s(code)
    for code in ([product_code(*c) for c in DISTANCE_PRODUCT]
                 + [codes.build_prs(field_create(p, m), a) for p, m, a in DISTANCE_PRS]
                 + [random_code(*c) for c in DISTANCE_RANDOM]
                 + [p1_product_code(*c) for c in DISTANCE_P1]):
        out[f"distance.F_{code.spec.order}.{code.k}x{code.n}"] = distance_s(code)
    print(json.dumps({k: round(v, 4) for k, v in out.items()}, indent=1))


if __name__ == "__main__":
    main()
