#!/usr/bin/env python3
"""Layer timings in the paper's regimes, which the end-to-end benchmark
(perfbench/) runs too briefly to gate.

    python3 scripts/bench_layers.py [SECTION]

prints one JSON object of wall-clock seconds.  Each is the median over up
to REPEATS runs, each on fresh objects, stopping once the key's runs have
used BUDGET_S (so a key that takes a second or more is run once).  Each
section of keys (one kind of timer, a name of SECTIONS) runs in its own
fresh interpreter, so no key reads caches or a heap that another section
left; SECTION runs one section in this process.  A "fresh curve" is a
CurveModel built by its constructor, whose caches are empty (curve_create
would return the process's one curve, cached points and spaces included);
the in-process CLI keys start from an empty curve table.  The keys:
  * table_build.F_{q}: the exp/log tables of F_256, F_2401 and F_{2^16};
  * rr_basis.F_{q}.a{a}b{b}: the a + 1 Riemann-Roch bases
    L(beta - i delta) of each of those codes, on a fresh curve whose local
    charts are not cached yet (its degree-2 points are enumerated first,
    untimed);
  * rr_basis.F_{q}.deg0: two degree-0 spaces on the F_49 max curve,
    P2 - Q2 (principal: Q2 the first degree-2 point whose orbit adds up to
    the same point as P2's, the degree-2 point of index 0) and
    3 P2 - 2 P3 (not principal, P3 the degree-3 point of index 0), whose
    dimension the rank of the vanishing conditions decides (the points are
    found first, untimed);
  * rref.F_{q}.{k}x{n}: linalg.rref on the generators of the decomposable
    codes below (built first, untimed);
  * exact_params_refused.F_{q}.{k}x{n}: analysis.exact_params on the
    a = 6, b = 24 decomposable code, which it refuses (q^k is over the
    exhaustive cap) after the rank of a minor proves k;
  * build.F_49.{variant}.{k}x{n}: cli.main(["build", ...]) in process at
    exact_cap 1, for the a = 6, b = 24 decomposable and elm codes (the
    center with fiber_index 0), each on the fresh curve its config makes;
  * sequence.F_16.build_recover: cli.main(["build", ...]) and then
    cli.main(["recover", ...]) in process on one config, the construct
    workload's dec16 shape (the F_16 curve [0, 0, 1, 0, 0], a = 1, beta
    twice the degree-2 point of index 1, delta the one of index 0): recover
    reads the curve's points and spaces that build cached;
  * section_rows.F_49.{k}x3200: the a = 6, b = 24 code's rows from its
    Riemann-Roch spaces: codes._section_coeffs (RRSpace.values at the
    rational base points times the message space's blocks, one product per
    distinct space), then codes._section_rows;
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
  * segre.F_{q}.e{e}.dmax{dmax}: surface.segre_lower_bound_elm on a fresh
    curve (the center and its fiber coordinate are found first, untimed):
    the F_16 max curve with its degree-2 center of index 0 at dmax 2, and
    E/F_5 (coefficients [0, 0, 0, 0, 1]) with its first degree-4 center at
    dmax 3, each with the first fiber coordinate outside F_q (fiber_index 0);
  * asymptotics.q{q}.A{A}: one dominance_report(49, 6, 400) plus one
    optimized_rate call on the 120-point ruled grid b = 0.3..0.98, the
    work of `ruledcodes asymptotics` at the benchmark's settings;
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

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# ruledcodes before numpy: it loads numpy with one BLAS thread, so the
# layer timers run in the same process state as the CLI
from ruledcodes import analysis, cli, codes, linalg, locality  # noqa: E402
from ruledcodes import curve as curve_module  # noqa: E402
from ruledcodes.asymptotics import dominance_report, optimized_rate  # noqa: E402
from ruledcodes.curve import (CurveModel, divisor_class_sum,  # noqa: E402
                              DivisorOnCurve, ELLIPTIC, P1)
from ruledcodes.gf import FieldSpec, extend, field_create  # noqa: E402
from ruledcodes.rrspace import rr_basis  # noqa: E402
from ruledcodes.surface import (segre_lower_bound_elm,  # noqa: E402
                                surface_decomposable, surface_elm_product,
                                surface_trivial)

import numpy as np  # noqa: E402

TABLE_FIELDS = [(2, 8), (7, 4), (2, 16)]

# (p, m, curve coefficients, a, b)
CODES = {
    "rref": [(7, 2, (0, 0, 0, 1, 3), 1, 4),     # [3000, 6], the construct job
             (2, 4, (0, 0, 1, 0, 8), 5, 16),    # [425, 66]
             (7, 2, (0, 0, 0, 1, 0), 6, 24)],   # [3200, 126]
    "exact_params_refused": [(7, 2, (0, 0, 0, 1, 0), 6, 24)],
    "section_rows": [(7, 2, (0, 0, 0, 1, 0), 6, 24)],
    "build_elm": [(7, 2, (0, 0, 0, 1, 0), 6, 24)],    # [3200, 126]
    "recovery_sets": [(7, 2, (0, 0, 0, 1, 0), 2, 8)],
    "fiber_ranks": [(7, 2, (0, 0, 0, 1, 0), 2, 8)],
    "recover_write": [(7, 2, (0, 0, 0, 1, 0), 2, 8)],
}

# (p, m, curve coefficients, surface variant, a, b): whole builds
BUILDS = [(7, 2, (0, 0, 0, 1, 0), "decomposable", 6, 24),    # [3200, 126]
          (7, 2, (0, 0, 0, 1, 0), "elm", 6, 24)]             # [3200, 126]

# (p, m, curve coefficients, a, b): an in-process build, then recover
SEQUENCES = [(2, 4, (0, 0, 1, 0, 0), 1, 4)]       # [153, 6], construct's dec16

# (p, m, curve coefficients, degree d)
CLOSED_POINTS = [(7, 2, [(0, 0, 0, 1, 3), (0, 0, 0, 1, 0)], 2),
                 (2, 4, [(0, 0, 1, 0, 8)], 4),
                 (2, 4, [(0, 0, 1, 0, 8)], 5)]

# (p, m, curve coefficients): the curve of the degree-0 spaces
DEGREE_ZERO = [(7, 2, (0, 0, 0, 1, 0))]

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

# (p, m, curve coefficients, center degree e, dmax): the Segre walk at the
# first degree-e center with fiber_index 0
SEGRE = [(2, 4, (0, 0, 1, 0, 8), 2, 2),
         (5, 1, (0, 0, 0, 0, 1), 4, 3)]

# (q, A, samples, (lo, hi, count)): the dominance table and the ruled grid
# of `asymptotics --samples 400 --b-range 0.3:0.98:120`
ASYMPTOTICS = [(49, 6.0, 400, (0.3, 0.98, 120))]

REPEATS = 5         # timed runs per key at most,
BUDGET_S = 1.0      # stopping once a key's runs have taken this long


def _median(run, *done):
    """The median seconds of run() over up to REPEATS runs, stopping once
    they have taken BUDGET_S; done holds the seconds of runs already made."""
    times = list(done)
    while len(times) < REPEATS and sum(times) < BUDGET_S:
        times.append(run())
    return statistics.median(times)


def _seconds(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def fresh_curve(p, m, coeffs):
    """A new CurveModel over F_{p^m}, P^1 for coeffs None, with empty caches."""
    spec = field_create(p, m)
    return CurveModel(P1, spec) if coeffs is None else CurveModel(ELLIPTIC, spec, coeffs)


def table_build_s(p, m):
    """Seconds to build the exp/log tables of F_{p^m} (a fresh FieldSpec;
    the modulus search is not timed)."""
    modulus = field_create(p, m).modulus
    return _seconds(FieldSpec, p, m, modulus)


def closed_points_s(p, m, curves, d):
    """Seconds to enumerate the degree-d closed points of each curve over
    F_{p^m}, on fresh curve objects (the extension is built first)."""
    spec = field_create(p, m)
    extend(spec, d)
    fresh = [fresh_curve(p, m, coeffs) for coeffs in curves]
    return sum(_seconds(curve.closed_points, d) for curve in fresh)


def embedding_s(p, m, d):
    """Seconds to embed F_{p^m} into a fresh FieldSpec of F_{p^(m d)}, which
    the spec cache has not seen (the modulus search is not timed)."""
    small = field_create(p, m)
    modulus = extend(small, d).modulus
    big = FieldSpec(p, m * d, modulus)
    return _seconds(big._embedding_powers, small)


def segre_s(p, m, coeffs, e, dmax):
    """Seconds for segre_lower_bound_elm to dmax on a fresh curve (its
    degree-e points are enumerated first, untimed)."""
    curve = fresh_curve(p, m, coeffs)
    point = curve.closed_points(e)[0]
    fiber = cli._valid_fiber_coords(point.ext_spec, curve.spec)[0]
    return _seconds(segre_lower_bound_elm, surface_elm_product(curve, point, fiber),
                    dmax)


def asymptotics_s(q, A, samples, b_range):
    """Seconds for dominance_report(q, A, samples) plus optimized_rate on
    the ruled grid b_range = (lo, hi, count), as the CLI builds it."""
    lo, hi, count = b_range
    grid = lo + (hi - lo) * np.arange(count) / max(count - 1, 1)

    def run():
        dominance_report(q, A, samples)
        optimized_rate(q, A, grid)
    return _seconds(run)


def _code_divisors(p, m, coeffs, b):
    """A fresh curve, delta and beta of a code."""
    curve = fresh_curve(p, m, coeffs)
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


def degree_zero_timing(p, m, coeffs):
    """("rr_basis.F_{q}.deg0", seconds) for the principal P2 - Q2 and the
    non-principal 3 P2 - 2 P3 on a fresh curve."""
    curve = fresh_curve(p, m, coeffs)
    quads, P3 = curve.closed_points(2), curve.closed_points(3)[0]
    P2 = quads[0]
    Q2 = next(Q for Q in quads[1:] if divisor_class_sum(
        DivisorOnCurve(curve, [(P2, 1), (Q, -1)])) is None)
    divisors = [DivisorOnCurve(curve, [(P2, 1), (Q2, -1)]),
                DivisorOnCurve(curve, [(P2, 3), (P3, -2)])]
    t0 = time.perf_counter()
    dims = [len(rr_basis(curve, D)) for D in divisors]
    seconds = time.perf_counter() - t0
    assert dims == [1, 0], dims
    return f"rr_basis.F_{p ** m}.deg0", seconds


def exact_params_refused_timing(code):
    """("exact_params_refused.F_{q}.{k}x{n}", seconds) for the exact_params
    call that refuses code's search."""
    t0 = time.perf_counter()
    try:
        analysis.exact_params(code)
    except analysis.CapExceededError:
        seconds = time.perf_counter() - t0
    else:
        raise AssertionError("exact_params searched a code it should refuse")
    return f"exact_params_refused.F_{code.spec.order}.{code.k}x{code.n}", seconds


def build_config(p, m, coeffs, variant, a, b):
    """The `build` config of a code, at exact_cap 1."""
    surface = ({"variant": "elm", "center": {"degree": 2, "base_index": 0,
                                             "fiber_index": 0}}
               if variant == "elm" else
               {"variant": variant, "delta": [{"degree": 2, "index": 0}]})
    return {"field": {"p": p, "m": m},
            "curve": {"kind": "elliptic", "coefficients": list(coeffs)},
            "surface": surface,
            "code": {"a": a, "beta": [{"degree": 2, "index": 1,
                                       "multiplicity": b // 2}]},
            "analysis": {"exact_cap": 1}}


def _write_config(tmp, config):
    path = os.path.join(tmp, "cfg.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


def _cli_seconds(*argvs):
    """Seconds for cli.main on each argv in turn, in process, from an empty
    curve table (so the first job builds its curve, as in a fresh
    interpreter); stdout is discarded."""
    curve_module._CURVES.clear()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rcs = [cli.main(argv) for argv in argvs]
    seconds = time.perf_counter() - t0
    assert rcs == [0] * len(argvs), rcs
    return seconds


def build_timing(p, m, coeffs, variant, a, b):
    """("build.F_{q}.{variant}.{k}x{n}", seconds) for one in-process
    `build` of the code on a fresh curve."""
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(tmp, build_config(p, m, coeffs, variant, a, b))
        seconds = _cli_seconds(["build", "--config", path, "--out-dir", tmp])
        with open(os.path.join(tmp, "report.json")) as fh:
            report = json.load(fh)
    return f"build.F_{p ** m}.{variant}.{report['k']}x{report['n']}", seconds


def sequence_timing(p, m, coeffs, a, b):
    """("sequence.F_{q}.build_recover", seconds) for an in-process `build`
    and then `recover` of one decomposable config, the build on a fresh
    curve."""
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(tmp, build_config(p, m, coeffs, "decomposable", a, b))
        seconds = _cli_seconds(["build", "--config", path, "--out-dir", tmp],
                               ["recover", "--config", path,
                                "--out", os.path.join(tmp, "recovery.json")])
    return f"sequence.F_{p ** m}.build_recover", seconds


def rref_s(code):
    return _seconds(linalg.rref, code.spec, code.matrix)


def section_rows_s(code):
    """Seconds to form a decomposable code's rows from its Riemann-Roch
    spaces, as codes._section_code does: the product of the message space
    (the null space of no conditions, the identity) by each distinct
    space's values at the rational base points, then codes._section_rows
    (the spaces and the null space are built again first, untimed)."""
    surface, a, beta = code.meta["surface"], code.meta["a"], code.meta["beta"]
    curve = surface.curve
    spaces = [rr_basis(curve, beta - i * surface.delta) for i in range(a + 1)]
    null = linalg.nullspace(curve.spec, [], sum(map(len, spaces)))
    rational = curve.rational_points()

    def run():
        coeffs = codes._section_coeffs(curve.spec, spaces, null, rational)
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
    curve = fresh_curve(p, m, coeffs)
    beta = DivisorOnCurve(curve, [(curve.closed_points(2)[i2], 1),
                                  (curve.closed_points(3)[i3], 1)])
    return codes.build_code_decomposable(surface_trivial(curve), 1, beta)


def p1_product_code(p, m, a, d, i):
    curve = fresh_curve(p, m, None)
    beta = DivisorOnCurve(curve, [(curve.closed_points(d)[i], 1)])
    return codes.build_code_decomposable(surface_trivial(curve), a, beta)


def random_code(p, m, k, n, seed):
    rng = random.Random(seed)
    q = p ** m
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
    return codes.LinearCode(field_create(p, m), rows, list(range(n)))


def distance_s(code):
    return _seconds(analysis.exact_params, code)


def _table_build():
    for p, m in TABLE_FIELDS:
        yield f"table_build.F_{p ** m}", _median(lambda: table_build_s(p, m))


def _closed_points():
    for p, m, curves, d in CLOSED_POINTS:
        yield (f"closed_points.F_{p ** (m * d)}.d{d}",
               _median(lambda: closed_points_s(p, m, curves, d)))


def _embedding():
    for p, m, d in EMBEDDINGS:
        yield f"embedding.F_{p ** m}.d{d}", _median(lambda: embedding_s(p, m, d))


def _segre():
    for p, m, coeffs, e, dmax in SEGRE:
        yield (f"segre.F_{p ** m}.e{e}.dmax{dmax}",
               _median(lambda: segre_s(p, m, coeffs, e, dmax)))


def _asymptotics():
    for q, A, samples, b_range in ASYMPTOTICS:
        yield (f"asymptotics.q{q}.A{A:g}",
               _median(lambda: asymptotics_s(q, A, samples, b_range)))


def _rr_basis():
    for p, m, coeffs, a, b in CODES["rref"]:
        yield (f"rr_basis.F_{p ** m}.a{a}b{b}",
               _median(lambda: rr_basis_s(p, m, coeffs, a, b)))
    for config in DEGREE_ZERO:
        key, seconds = degree_zero_timing(*config)
        yield key, _median(lambda: degree_zero_timing(*config)[1], seconds)


def _layer(layer, timer):
    """The keys of a timer of built decomposable codes."""
    def section():
        for config in CODES[layer]:
            code = decomposable_code(*config)
            yield (f"{layer}.F_{code.spec.order}.{code.k}x{code.n}",
                   _median(lambda: timer(code)))
    return section


def _exact_params_refused():
    for config in CODES["exact_params_refused"]:
        code = decomposable_code(*config)
        key, seconds = exact_params_refused_timing(code)
        yield key, _median(lambda: exact_params_refused_timing(code)[1], seconds)


def _timed(timing, configs):
    """The keys of a timing function that returns (key, seconds)."""
    def section():
        for config in configs:
            key, seconds = timing(*config)
            yield key, _median(lambda: timing(*config)[1], seconds)
    return section


def _build_elm():
    for config in CODES["build_elm"]:
        seconds, code = build_elm_s(*config)
        yield (f"build_elm.F_{code.spec.order}.{code.k}x{code.n}",
               _median(lambda: build_elm_s(*config)[0], seconds))


def _recover_write():
    for config in CODES["recover_write"]:
        code = decomposable_code(*config)
        yield (f"recover_write.F_{code.spec.order}.{code.n}",
               _median(lambda: recover_write_s(code)))


def _distance():
    for code in ([product_code(*c) for c in DISTANCE_PRODUCT]
                 + [codes.build_prs(field_create(p, m), a) for p, m, a in DISTANCE_PRS]
                 + [random_code(*c) for c in DISTANCE_RANDOM]
                 + [p1_product_code(*c) for c in DISTANCE_P1]):
        yield (f"distance.F_{code.spec.order}.{code.k}x{code.n}",
               _median(lambda: distance_s(code)))


# each yields (key, median seconds); main runs each in a fresh interpreter
SECTIONS = {
    "table_build": _table_build,
    "closed_points": _closed_points,
    "embedding": _embedding,
    "segre": _segre,
    "asymptotics": _asymptotics,
    "rr_basis": _rr_basis,
    "rref": _layer("rref", rref_s),
    "section_rows": _layer("section_rows", section_rows_s),
    "recovery_sets": _layer("recovery_sets", recovery_sets_s),
    "fiber_ranks": _layer("fiber_ranks", fiber_ranks_s),
    "exact_params_refused": _exact_params_refused,
    "build": _timed(build_timing, BUILDS),
    "sequence": _timed(sequence_timing, SEQUENCES),
    "build_elm": _build_elm,
    "recover_write": _recover_write,
    "distance": _distance,
}


def main(argv):
    if argv:
        (name,) = argv
        print(json.dumps(dict(SECTIONS[name]())))
        return
    out = {}
    for name in SECTIONS:
        run = subprocess.run([sys.executable, __file__, name], stdout=subprocess.PIPE,
                             text=True, check=True)
        out.update(json.loads(run.stdout))
    print(json.dumps({k: round(v, 4) for k, v in out.items()}, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
