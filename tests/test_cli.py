import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from ruledcodes.cli import main


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "field": {"p": 5, "m": 1},
        "curve": {"kind": "elliptic", "coefficients": [0, 0, 0, 0, 1]},
        "surface": {"variant": "decomposable",
                    "delta": [{"degree": 2, "index": 0}]},
        "code": {"a": 1, "beta": [{"degree": 3, "index": 0}]},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def build(tmp_path, **overrides):
    cfg = write_config(tmp_path, **overrides)
    out = str(tmp_path / "out")
    rc = main(["build", "--config", cfg, "--out-dir", out])
    assert rc == 0
    return out


def test_build_decomposable_demo(tmp_path, capsys):
    out = build(tmp_path)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["family"] == "decomposable_surface"
    assert report["n"] == 36
    assert report["k_exact"] == 4
    assert report["d_exact"] == 15
    assert report["bound"]["d_lower"] == 15
    assert report["griesmer"]["holds"]
    gen = (tmp_path / "out" / "generator.txt").read_text().strip().split("\n")
    assert gen[0] == "4 36 5"
    pts = (tmp_path / "out" / "points.txt").read_text().strip().split("\n")
    assert len(pts) == 36
    table = capsys.readouterr().out
    assert "decomposable_surface" in table and "k_exact" in table


def test_build_elm_demo(tmp_path):
    surface = {"variant": "elm",
               "center": {"degree": 2, "base_index": 0, "fiber_index": 0}}
    out = build(tmp_path, surface=surface)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["family"] == "elm_surface"
    assert report["k_exact"] == 4
    assert report["bound"]["d_lower"] == 18
    assert report["d_exact"] >= 18


def test_build_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["build", "--config", cfg, "--out-dir", out1]) == 0
    assert main(["build", "--config", cfg, "--out-dir", out2]) == 0
    for name in ("generator.txt", "points.txt", "report.json", "table.csv"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b


def test_build_singular_curve_exit2(tmp_path, capsys):
    cfg = write_config(tmp_path, curve={"kind": "elliptic",
                                        "coefficients": [0, 0, 0, 0, 0]})
    rc = main(["build", "--config", cfg])
    assert rc == 2
    assert "discriminant" in capsys.readouterr().err


def test_build_malformed_config_field_message(tmp_path, capsys):
    cfg = write_config(tmp_path, field={"p": 5})
    rc = main(["build", "--config", cfg])
    assert rc == 2
    assert "config.field.m" in capsys.readouterr().err


def test_verify_pass(tmp_path, capsys):
    out = build(tmp_path)
    rc = main(["verify", os.path.join(out, "generator.txt"),
               "--report", os.path.join(out, "report.json")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_build_tensor_writes_the_product_code(tmp_path, capsys):
    out = build(tmp_path, code={"a": 1, "beta": [{"degree": 3, "index": 0}],
                                "tensor": True})
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["family"] == "product"
    assert (report["k_exact"], report["d_exact"]) == (6, 15)
    rc = main(["verify", os.path.join(out, "generator.txt"),
               "--report", os.path.join(out, "report.json")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def corrupt_one_entry(matrix_path):
    """Change one generator entry so a minimum-weight codeword drops below
    the recorded distance."""
    import itertools
    from ruledcodes.gf import field_create

    lines = open(matrix_path).read().strip().split("\n")
    k, n, q = (int(t) for t in lines[0].split())
    spec = field_create(q, 1) if q in (2, 3, 5, 7) else None
    rows = [[int(t) for t in line.split()] for line in lines[1:]]
    best = None
    for msg in itertools.product(range(q), repeat=k):
        if not any(msg):
            continue
        word = [0] * n
        for m, row in zip(msg, rows):
            if m:
                word = [spec.add_i(w, spec.mul_i(m, v)) for w, v in zip(word, row)]
        wt = sum(1 for w in word if w)
        if best is None or wt < best[0]:
            best = (wt, msg, word)
    _, msg, word = best
    j = next(i for i, v in enumerate(word) if v)
    i = next(i for i, m in enumerate(msg) if m)
    # shift G[i][j] so the chosen codeword becomes zero at column j
    delta = spec.mul_i(spec.neg_i(word[j]), spec.inv_i(msg[i]))
    rows[i][j] = spec.add_i(rows[i][j], delta)
    with open(matrix_path, "w") as fh:
        fh.write(lines[0] + "\n")
        for row in rows:
            fh.write(" ".join(str(v) for v in row) + "\n")


def test_verify_detects_corruption_exit1(tmp_path, capsys):
    out = build(tmp_path)
    corrupt_one_entry(os.path.join(out, "generator.txt"))
    rc = main(["verify", os.path.join(out, "generator.txt"),
               "--report", os.path.join(out, "report.json")])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_prs_mds(tmp_path, capsys):
    # PRS(2) over F_4 via a handwritten matrix file and report
    from ruledcodes.gf import field_create
    from ruledcodes.codes import build_prs, write_matrix
    code = build_prs(field_create(2, 2), 2)
    mpath = tmp_path / "prs.txt"
    write_matrix(code, mpath)
    report = {"family": "prs", "n": 5, "k_exact": 3, "d_exact": 3,
              "bound": {"valid": True, "k_lower": 3, "d_lower": 3}}
    rpath = tmp_path / "prs_report.json"
    rpath.write_text(json.dumps(report))
    assert main(["verify", str(mpath), "--report", str(rpath)]) == 0


def test_segre_certification(tmp_path, capsys):
    surface = {"variant": "elm",
               "center": {"degree": 2, "base_index": 0, "fiber_index": 0}}
    cfg = write_config(tmp_path, surface=surface)
    rc = main(["segre", "--config", cfg])
    assert rc == 0
    out = capsys.readouterr().out
    assert "s_a >= 2" in out and "s_a <= 2" in out
    assert "certified: s_a = 2" in out


@pytest.mark.parametrize("dmax, words", [(-7, "must be >= 0"),
                                         (10 ** 9, "above the cap 3000")])
def test_segre_dmax_refused_exit2(tmp_path, capsys, dmax, words):
    surface = {"variant": "elm",
               "center": {"degree": 2, "base_index": 0, "fiber_index": 0}}
    cfg = write_config(tmp_path, surface=surface,
                       analysis={"segre_dmax": dmax})
    assert main(["segre", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config.analysis.segre_dmax" in captured.err and words in captured.err


def test_segre_decomposable_exact(tmp_path, capsys):
    surface = {"variant": "decomposable",
               "delta": [{"degree": 3, "index": 0}]}
    cfg = write_config(tmp_path, surface=surface)
    rc = main(["segre", "--config", cfg])
    assert rc == 0
    assert "(-3, -3)" in capsys.readouterr().out


def test_segre_p1_hirzebruch_note(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       curve={"kind": "p1"},
                       surface={"variant": "decomposable",
                                "delta": [{"degree": 2, "index": 0}]})
    rc = main(["segre", "--config", cfg])
    assert rc == 0
    assert "Hirzebruch" in capsys.readouterr().out


def test_asymptotics_q16(tmp_path, capsys):
    out = str(tmp_path / "asym")
    rc = main(["asymptotics", "--q", "16", "--A", "3", "--samples", "80",
               "--out-dir", out])
    assert rc == 0
    assert (tmp_path / "asym" / "product_envelope.csv").exists()
    assert (tmp_path / "asym" / "ruled_optimized.csv").exists()
    assert (tmp_path / "asym" / "dominance.csv").exists()
    assert "exceeds the product envelope" in capsys.readouterr().out


def test_asymptotics_q49_discrepancy_note(tmp_path, capsys):
    out = str(tmp_path / "asym49")
    rc = main(["asymptotics", "--q", "49", "--A", "6", "--samples", "60",
               "--out-dir", out])
    assert rc == 0
    assert "figure" in capsys.readouterr().out


def test_asymptotics_A_too_small(tmp_path, capsys):
    # the error comes after the envelope is computed, but no file is written
    out = tmp_path / "asym"
    rc = main(["asymptotics", "--q", "16", "--A", "1.5", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and "A must exceed 2" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("q, A, flag", [
    ("-1", "3", "--q -1 must be a prime power"),
    ("0", "3", "--q 0 must be a prime power"),
    ("6", "3", "--q 6 must be a prime power"),
    ("16", "nan", "--A nan must be finite"),
    ("16", "inf", "--A inf must be finite"),
    ("16", "1e308", "--q 16 --A 1e+308: product_envelope point has rate"),
    ("3317044064679887385961981", "3",
     "--q 3317044064679887385961981 must be below 3317044064679887385961981"),
    (str(2 ** 100), "3", "must be below 3317044064679887385961981"),
])
def test_asymptotics_out_of_domain_exit2(tmp_path, capsys, q, A, flag):
    rc = main(["asymptotics", "--q", q, "--A", A, "--samples", "5",
               "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2 and flag in err and "Traceback" not in err


def test_asymptotics_accepts_a_large_prime_q(tmp_path, capsys):
    # a prime near 2^61: the prime-power check must not trial-divide it
    rc = main(["asymptotics", "--q", str(2 ** 61 - 1), "--A", "3",
               "--samples", "5", "--no-optimized", "--out-dir", str(tmp_path)])
    assert rc == 0


def test_recover_export(tmp_path):
    cfg = write_config(
        tmp_path,
        code={"a": 1, "beta": [{"degree": 2, "index": 1, "multiplicity": 2}]})
    out = str(tmp_path / "recovery.json")
    rc = main(["recover", "--config", cfg, "--out", out])
    assert rc == 0
    records = json.loads(open(out).read())
    assert len(records) == 36 * 2
    assert set(records[0]) == {"target", "helpers", "coefficients"}


def test_recovery_json_matches_the_json_encoder():
    from ruledcodes.cli import _build_code, load_config, recovery_json
    from ruledcodes.locality import recovery_sets
    demo = os.path.join(os.path.dirname(__file__), "..", "scripts", "configs",
                        "locality_demo.json")
    helpers, coefficients = recovery_sets(_build_code(load_config(demo)))
    n, s, _ = helpers.shape
    records = [{"target": t, "helpers": helpers[t, j].tolist(),
                "coefficients": coefficients[t, j].tolist()}
               for t in range(n) for j in range(s)]
    assert records
    for rows, sets, recs in ((n, s, records), (0, s, []), (1, 1, records[:1])):
        assert recovery_json(helpers[:rows, :sets], coefficients[:rows, :sets]) \
            == json.dumps(recs, indent=2) + "\n"


def test_parser_is_built_once_and_commands_are_looked_up_per_call(tmp_path, monkeypatch):
    # the cached parser binds no function: a cmd_* replaced after the first
    # build (as perfbench's tracer and its tests do) is the one main calls
    from ruledcodes import cli
    cfg = write_config(tmp_path)
    assert main(["segre", "--config", cfg]) == 0
    assert cli.make_parser() is cli.make_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_segre", lambda args: seen.append(args.config) or 7)
    assert main(["segre", "--config", cfg]) == 7
    assert seen == [cfg]


def test_recover_refuses_rank_deficient(tmp_path, capsys):
    cfg = write_config(tmp_path)  # b = 3: one rank-deficient fiber
    rc = main(["recover", "--config", cfg, "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "rank" in capsys.readouterr().err


def test_build_out_dir_flag_beats_config_output_dir(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, output={"dir": str(tmp_path / "from_cfg")})
    flag = tmp_path / "from_flag"
    assert main(["build", "--config", cfg, "--out-dir", str(flag)]) == 0
    assert (flag / "report.json").exists()
    assert not (tmp_path / "from_cfg").exists()
    # without the flag the config's output.dir applies, then "."
    assert main(["build", "--config", cfg]) == 0
    assert (tmp_path / "from_cfg" / "report.json").exists()
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--config", write_config(tmp_path, "plain.json")]) == 0
    assert (tmp_path / "report.json").exists()


# ---------------------------------------------------------------------------
# verify input boundary: a malformed matrix or report exits 2, never 1

GOOD_MATRIX = "1 3 5\n1 2 3\n"
GOOD_REPORT = {"n": 3, "bound": {"valid": True, "k_lower": 1, "d_lower": 3}}


@pytest.mark.parametrize("matrix, report, bad, field", [
    ("1 1 1\n0\n", GOOD_REPORT, "matrix", "header q"),
    ("1 3 6\n1 2 3\n", GOOD_REPORT, "matrix", "header q"),
    ("1 3\n1 2 3\n", GOOD_REPORT, "matrix", "header"),
    ("2 3 5\n1 2 3\n", GOOD_REPORT, "matrix", "row 2"),
    ("1 3 5\n1 2 3\n4 4 4\n", GOOD_REPORT, "matrix", "header k = 1"),
    ("1 3 5\n1 x 3\n", GOOD_REPORT, "matrix", "row 1"),
    ("1 3 5\n1 2 9\n", GOOD_REPORT, "matrix", "row 1"),
    ("1 3 5\n0 0 0\n", GOOD_REPORT, "matrix", "rank 0"),
    (GOOD_MATRIX, {"k_exact": 1}, "report", "report.n"),
    (GOOD_MATRIX, [1, 2], "report", "top level"),
    (GOOD_MATRIX, {"n": "3"}, "report", "report.n"),
    (GOOD_MATRIX, {"n": 3, "d_exact": "3"}, "report", "report.d_exact"),
    (GOOD_MATRIX, {"n": 3, "bound": 5}, "report", "report.bound"),
    (GOOD_MATRIX, {"n": 3, "bound": {"valid": True}}, "report",
     "report.bound.k_lower"),
    (GOOD_MATRIX, {"n": 3, "bound": {"valid": True, "k_lower": 1,
                                     "d_lower": 2.5}}, "report",
     "report.bound.d_lower"),
], ids=["q-1", "q-6", "short-header", "missing-row", "extra-row",
        "non-integer-entry", "entry-range", "rank-0", "no-n", "list-report",
        "string-n", "string-d-exact", "bound-not-object", "no-k-lower",
        "float-d-lower"])
def test_verify_malformed_input_exit2(tmp_path, capsys, matrix, report, bad,
                                      field):
    paths = {"matrix": tmp_path / "g.txt", "report": tmp_path / "r.json"}
    paths["matrix"].write_text(matrix)
    paths["report"].write_text(json.dumps(report))
    rc = main(["verify", str(paths["matrix"]), "--report", str(paths["report"])])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(paths[bad]) in err and field in err
    assert "Traceback" not in err


def test_verify_good_input_passes(tmp_path, capsys):
    mpath, rpath = tmp_path / "g.txt", tmp_path / "r.json"
    mpath.write_text(GOOD_MATRIX)
    rpath.write_text(json.dumps(GOOD_REPORT))
    assert main(["verify", str(mpath), "--report", str(rpath)]) == 0


def test_verify_ignores_trailing_blank_lines(tmp_path):
    mpath, rpath = tmp_path / "g.txt", tmp_path / "r.json"
    mpath.write_text(GOOD_MATRIX + "\n  \n")
    rpath.write_text(json.dumps(GOOD_REPORT))
    assert main(["verify", str(mpath), "--report", str(rpath)]) == 0


_small_int = st.integers(-2, 9)
_token = st.one_of(_small_int.map(str), st.sampled_from(["x", "", "1.5", "-"]))
_json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), _small_int, st.floats(0, 10),
              st.text(max_size=3)),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=6)


@st.composite
def _matrix_text(draw):
    q = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 9]))
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(st.integers(-1, q), min_size=n, max_size=n),
                         max_size=3))
    k = draw(st.sampled_from([len(rows), len(rows) + 1, 0]))
    header = [str(k), str(n), str(q)]
    if draw(st.booleans()):
        header = draw(st.lists(_token, max_size=4))
    lines = [" ".join(header)] + [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


@st.composite
def _report_text(draw):
    kind = draw(st.sampled_from(["object", "json", "text"]))
    if kind == "text":
        return draw(st.text(max_size=8))
    if kind == "json":
        return json.dumps(draw(_json_value))
    report = {}
    for key, value in (("n", _small_int), ("k_exact", _small_int),
                       ("d_exact", _small_int), ("family", st.text(max_size=3))):
        if draw(st.booleans()):
            report[key] = draw(st.one_of(value, _json_value))
    if draw(st.booleans()):
        bound = {"valid": draw(st.one_of(st.booleans(), _json_value))}
        for key in ("k_lower", "d_lower"):
            if draw(st.booleans()):
                bound[key] = draw(st.one_of(_small_int, _json_value))
        report["bound"] = draw(st.one_of(st.just(bound), _json_value))
    return json.dumps(report)


@settings(max_examples=150, deadline=None)
@given(matrix=_matrix_text(), report=_report_text())
def test_verify_fuzz_exit_contract(matrix, report):
    with tempfile.TemporaryDirectory() as tmp:
        mpath, rpath = os.path.join(tmp, "g.txt"), os.path.join(tmp, "r.json")
        with open(mpath, "w") as fh:
            fh.write(matrix)
        with open(rpath, "w") as fh:
            fh.write(report)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["verify", mpath, "--report", rpath])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert err.getvalue().strip()


# ---------------------------------------------------------------------------
# config input boundary of build, segre and recover

def test_build_f49_decomposable(tmp_path):
    # beta = 2P and delta of degree 2 over F_49: the x-fibers of P live in
    # F_{49^2}, so nothing needs the field F_{49^4} above the cap
    cfg = write_config(
        tmp_path,
        field={"p": 7, "m": 2},
        curve={"kind": "elliptic", "coefficients": [0, 0, 0, 1, 3]},
        surface={"variant": "decomposable",
                 "delta": [{"degree": 2, "index": 1}]},
        code={"a": 1, "beta": [{"degree": 2, "index": 0, "multiplicity": 2}]},
        analysis={"exact_cap": 1})
    out = tmp_path / "out"
    assert main(["build", "--config", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n"] == 3000
    assert report["k"] == report["bound"]["k_lower"] == 6


ELM_CENTER = {"variant": "elm", "center": {"degree": 2, "base_index": 0}}


@pytest.mark.parametrize("command", ["build", "segre"])
@pytest.mark.parametrize("fiber", [999, 25, -1, 0, 4, "3"])
def test_elm_center_fiber_invalid_exit2(tmp_path, capsys, command, fiber):
    # F_25 encodings are 0..24, and 0..4 are the rational ones (orbit size 1)
    surface = {**ELM_CENTER, "center": {**ELM_CENTER["center"], "fiber": fiber}}
    cfg = write_config(tmp_path, surface=surface)
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]
                if command == "build" else [command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config.surface.center.fiber" in err and "Traceback" not in err


def test_elm_center_fiber_in_range_builds(tmp_path):
    surface = {**ELM_CENTER, "center": {**ELM_CENTER["center"], "fiber": 5}}
    build(tmp_path, surface=surface, analysis={"exact_cap": 1})


@pytest.mark.parametrize("pm, d", [((5, 1), 2), ((5, 1), 3), ((2, 4), 2),
                                   ((2, 4), 4), ((7, 2), 2)])
def test_fiber_coords_are_the_orbit_scan(pm, d):
    # the coordinates whose Frobenius orbit size is >= 2 and divides d, as
    # the scan over all orbits listed them
    from ruledcodes.cli import _valid_fiber_coords
    from ruledcodes.gf import field_create, extend
    spec = field_create(*pm)
    ext = extend(spec, d)
    scan = [e for e in range(ext.order)
            if len(ext.orbit((e,))) >= 2 and d % len(ext.orbit((e,))) == 0]
    assert _valid_fiber_coords(ext, spec) == scan


@pytest.mark.parametrize("where, overrides", [
    ("config.code.beta[0]",
     {"code": {"a": 1, "beta": [{"degree": 9, "index": 0}]}}),
    ("config.surface.delta[0]",
     {"surface": {"variant": "decomposable",
                  "delta": [{"degree": 9, "x": 1}]}}),
    ("config.surface.center",
     {"surface": {"variant": "elm", "center": {"degree": 9}}}),
])
def test_cap_refusal_names_the_selector(tmp_path, capsys, where, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main(["build", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert (f"{where}: degree-9 points need F_{{5^9}}, above the desk-scale "
            "cap 1048576") in err


def test_boolean_multiplicity_exit2(tmp_path, capsys):
    code = {"a": 1, "beta": [{"degree": 3, "index": 0, "multiplicity": True}]}
    cfg = write_config(tmp_path, code=code)
    assert main(["build", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config.code.beta[0].multiplicity" in err and "Traceback" not in err


@pytest.mark.parametrize("where, overrides", [
    ("config.curve.coefficients",
     {"curve": {"kind": "elliptic", "coefficients": [False, False, False, False, True]}}),
    ("config.code.beta[0].infinity",
     {"code": {"a": 1, "beta": [{"infinity": "no", "degree": 3, "index": 0}]}}),
    ("config.code.tensor",
     {"code": {"a": 1, "beta": [{"degree": 3, "index": 0}], "tensor": 1}}),
    ("config.analysis.locality", {"analysis": {"locality": "yes"}}),
])
def test_non_boolean_flags_and_boolean_coefficients_exit2(tmp_path, capsys, where,
                                                          overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main(["build", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["build", "recover", "segre"])
def test_p1_point_off_the_line_exit2(tmp_path, capsys, command):
    # found by the config fuzz: y = 2 lies outside F_2, so the pair (0, 2)
    # has an orbit of size 2 although x = 0 is a rational point of P^1
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"field": {"p": 2, "m": 1}, "curve": {"kind": "p1"},
                   "surface": {"variant": "decomposable", "delta": []},
                   "code": {"a": 0, "beta": [{"degree": 2, "x": 0, "y": 2}]},
                   "analysis": {"exact_cap": 1}}, fh)
    argv = {"build": ["build", "--config", cfg, "--out-dir", str(tmp_path)],
            "recover": ["recover", "--config", cfg,
                        "--out", str(tmp_path / "r.json")],
            "segre": ["segre", "--config", cfg]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config.code.beta[0]" in err and "Traceback" not in err


def test_huge_field_prime_refused_at_the_cap(tmp_path, capsys):
    # trial division of this p would not end; the cap refuses it first
    cfg = write_config(tmp_path, field={"p": 2 ** 61 - 1, "m": 1})  # prime
    assert main(["build", "--config", cfg]) == 2
    assert "cap" in capsys.readouterr().err


def test_python_dash_m_entry_point():
    import subprocess
    import sys

    import ruledcodes

    src = os.path.dirname(os.path.dirname(ruledcodes.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "ruledcodes", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert "usage: ruledcodes" in proc.stdout
    assert proc.stderr == ""


_odd = st.sampled_from([None, "1", 1.5, [], {}, True, -1, 30, 10 ** 6, "cone"])


def _rarely(n):
    """True about once in n draws (hypothesis favours the first element)."""
    return st.sampled_from([False] * (n - 1) + [True])


@st.composite
def _mostly(draw, valid):
    """A value from valid, or now and then an ill-typed or out-of-range one,
    so that most configs get past the first check."""
    return draw(_odd) if draw(_rarely(12)) else draw(valid)


@st.composite
def _selector(draw, degrees):
    if draw(_rarely(12)):
        return {"infinity": True}
    sel = {"degree": draw(_mostly(st.sampled_from(degrees)))}
    if not draw(_rarely(6)):
        sel["index"] = draw(_mostly(st.integers(0, 1)))
    else:
        sel["x"] = draw(_mostly(st.integers(0, 30)))
        sel["y"] = draw(_mostly(st.integers(0, 30)))
    if draw(st.booleans()):
        sel["multiplicity"] = draw(_mostly(st.integers(1, 2)))
    return sel


# nonsingular Weierstrass curves over F_2, F_3, F_4 and F_5
_CURVES = {(2, 1): [[0, 0, 1, 0, 0], [1, 0, 0, 0, 1]],
           (3, 1): [[0, 0, 0, 2, 1], [0, 1, 0, 0, 1]],
           (2, 2): [[1, 0, 0, 0, 1], [0, 0, 1, 0, 0]],
           (5, 1): [[0, 0, 0, 0, 1], [0, 0, 0, 1, 1]]}


@st.composite
def _config(draw):
    p, m = draw(st.sampled_from(sorted(_CURVES)))
    cfg = {"field": {"p": draw(_mostly(st.just(p))), "m": m}}
    if draw(_rarely(4)):
        cfg["curve"] = {"kind": draw(_mostly(st.just("p1")))}
    else:
        coeffs = draw(st.sampled_from(_CURVES[p, m]))
        if draw(_rarely(8)):
            coeffs = draw(st.lists(_mostly(st.integers(0, 4)), min_size=4,
                                   max_size=6))
        cfg["curve"] = {"kind": "elliptic", "coefficients": coeffs}
    center = {"degree": draw(_mostly(st.sampled_from([2, 2, 3, 1])))}
    if draw(st.booleans()):
        center["base_index"] = draw(_mostly(st.integers(0, 1)))
    if draw(st.booleans()):
        center["fiber"] = draw(_mostly(st.sampled_from([2, 3, 7, 24, 0, 999])))
    elif draw(st.booleans()):
        center["fiber_index"] = draw(_mostly(st.integers(0, 3)))
    cfg["surface"] = draw(_mostly(st.sampled_from([
        {"variant": "decomposable",
         "delta": draw(st.lists(_selector([1, 2]), max_size=2))},
        {"variant": "elm", "center": center},
        {"variant": "product"}])))
    cfg["code"] = {"a": draw(_mostly(st.integers(0, 2))),
                   "beta": draw(st.lists(_selector([2, 3]), min_size=1,
                                         max_size=2))}
    if draw(_rarely(5)):
        cfg["code"]["tensor"] = True
    # exact_cap stays small: only tiny codes get their distance searched
    analysis = {"exact_cap": draw(_mostly(st.sampled_from([1, 625])))}
    for key, values in (("segre_dmax", st.integers(-2, 2)),
                        ("locality", st.booleans())):
        if draw(st.booleans()):
            analysis[key] = draw(_mostly(values))
    cfg["analysis"] = draw(_mostly(st.just(analysis)))
    if draw(_rarely(10)):
        del cfg[draw(st.sampled_from(sorted(cfg)))]
    return cfg


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["build", "segre", "recover"]), cfg=_config())
def test_config_fuzz_exit_contract(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        argv = {"build": ["build", "--config", path, "--out-dir", tmp],
                "segre": ["segre", "--config", path],
                "recover": ["recover", "--config", path,
                            "--out", os.path.join(tmp, "r.json")]}[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert err.getvalue().strip()
