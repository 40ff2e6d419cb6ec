import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_layers.py")


def load_script():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_layers_on_its_smallest_inputs():
    bench = load_script()
    p, m = bench.TABLE_FIELDS[0]
    assert p ** m == 256 and bench.table_build_s(p, m) > 0
    code = bench.decomposable_code(*bench.CODES["rref"][0])
    assert (code.k, code.n, code.spec.order) == (6, 3000, 49)
    assert bench.rr_basis_s(*bench.CODES["rref"][0]) > 0
    for timer in (bench.rref_s, bench.section_rows_s, bench.recovery_sets_s,
                  bench.fiber_ranks_s, bench.recover_write_s):
        assert timer(code) > 0
    helpers, coefficients = bench.locality.recovery_sets(code)
    assert helpers.shape == coefficients.shape == (3000, 49 // 2, 2)
    seconds, elm = bench.build_elm_s(*bench.CODES["rref"][0])
    assert seconds > 0 and (elm.k, elm.n, elm.meta["family"]) == (6, 3000, "elm_surface")
    p, m, curves, d = bench.CLOSED_POINTS[0]
    assert (p ** (m * d), d) == (2401, 2) and bench.closed_points_s(p, m, curves, d) > 0
    assert bench.EMBEDDINGS == [(2, 4, 5)] and bench.embedding_s(2, 2, 3) > 0
    q, A, samples, b_range = bench.ASYMPTOTICS[0]
    assert (q, A, samples, b_range) == (49, 6.0, 400, (0.3, 0.98, 120))
    assert bench.asymptotics_s(16, 3.0, 20, (0.3, 0.98, 6)) > 0
    code = bench.product_code(*bench.DISTANCE_PRODUCT[1])
    assert (code.k, code.n, code.spec.order) == (10, 40, 4)
    assert bench.distance_s(code) > 0
    assert bench.DISTANCE_PRS == [(5, 2, 4)]
    code = bench.p1_product_code(*bench.DISTANCE_P1[0])
    assert (code.k, code.n, code.spec.order) == (8, 64, 7)
    shapes = [(c.spec.order, c.k, c.n)
              for c in (bench.random_code(*config) for config in bench.DISTANCE_RANDOM)]
    assert shapes == [(49, 4, 60), (2, 16, 100), (9, 6, 200)]
    small = bench.random_code(5, 1, 3, 8, 1)
    assert (small.k, small.n) == (3, 8) and bench.distance_s(small) > 0
