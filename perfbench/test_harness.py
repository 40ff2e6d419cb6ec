"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import child  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import Job  # noqa: E402

import ruledcodes  # noqa: E402
import ruledcodes.cli  # noqa: E402
from ruledcodes.curve import curve_create, ELLIPTIC  # noqa: E402
from ruledcodes.gf import field_create  # noqa: E402
from ruledcodes.rrspace import x_min_poly  # noqa: E402

F5 = workloads.CURVES["F5"]


def test_self_time_on_synthetic_span_tree():
    #   root [0, 10] -> a [1, 4] -> a1 [2, 3]
    #                -> b [5, 9]
    start, end, parent = [0, 1, 2, 5], [10, 4, 3, 9], [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [3, 2, 1, 4]

    tr = Tracer()
    tr.names = ["root", "leaf"]
    for nid, s, e, p in ((0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 5.0, 9.0, 0)):
        tr.name_of.append(nid)
        tr.start.append(s)
        tr.end.append(e)
        tr.parent.append(p)
        tr.job.append(0)
    assert tr.aggregate() == {"root": [1, 3.0, 10.0], "leaf": [2, 7.0, 7.0]}


def _public_bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "ruledcodes" or name.startswith("ruledcodes."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[name, attr] = value
    for cls in (ruledcodes.poly.Poly, ruledcodes.curve.CurveModel):
        for attr, value in vars(cls).items():
            out[cls.__name__, attr] = value
    return out


def test_wrappers_only_in_traced_run_and_restored(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    seen = []
    original = ruledcodes.cli.cmd_asymptotics

    def spy(args):
        seen.append(hasattr(ruledcodes.cli.envelope_product, "__wrapped__")
                    and hasattr(ruledcodes.poly.Poly.divmod, "__wrapped__"))
        return original(args)

    monkeypatch.setattr(ruledcodes.cli, "cmd_asymptotics", spy)
    before = _public_bindings()
    job = Job("asymptotics", ["asymptotics", "--q", "16", "--A", "3",
                              "--samples", "20", "--out-dir", "asym"])
    [(rc, _, _, _)] = child.run_jobs([job])
    assert rc == 0 and seen == [False]

    tracer = Tracer()
    [(rc, _, _, _)] = child.run_jobs([job], tracer)
    assert rc == 0 and seen == [False, True]
    spans = tracer.aggregate()
    assert spans["cli.main"][0] == 1
    assert spans["asymptotics.optimized_rate"][0] > 0
    after = _public_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _run(job):
    rc, out, err, _ = child.run_job(job)
    return rc, out, err


def _small_jobs(tmp_path):
    cfg = {**F5, "surface": {"variant": "decomposable",
                             "delta": [{"degree": 2, "index": 0}]},
           "code": {"a": 1, "beta": [{"degree": 2, "index": 1,
                                      "multiplicity": 2}]},
           "analysis": {"locality": True}}
    (tmp_path / "dec5.json").write_text(json.dumps(cfg))
    elm = {**F5, "surface": {"variant": "elm", "center": {
        "degree": 2, "base_index": 2, "fiber_index": 0}},
        "code": {"a": 1, "beta": [{"degree": 3, "index": 0}]},
        "analysis": {"segre_dmax": 1}}
    (tmp_path / "elm5.json").write_text(json.dumps(elm))
    return {
        "build": Job("build", ["build", "--config", "dec5.json",
                               "--out-dir", "b"], {"n": 36, "k": 6}),
        "recover": Job("recover", ["recover", "--config", "dec5.json",
                                   "--out", "rec.json"],
                       {"generator": "b/generator.txt", "sets": 36 * 2}),
        "verify": Job("verify", ["verify", "b/generator.txt", "--report",
                                 "b/report.json"]),
        "segre": Job("segre", ["segre", "--config", "elm5.json"]),
        "asymptotics": Job("asymptotics", [
            "asymptotics", "--q", "16", "--A", "3", "--samples", "20",
            "--b-range", "0.3:0.98:12", "--out-dir", "asym"],
            {"csv_rows": {"product_envelope.csv": 21, "dominance.csv": 20,
                          "ruled_optimized.csv": 12}}),
    }


def _status(job, rc, out, err, digest=None):
    return check.check_job(job, rc, out, err, seed=3, digest=digest)[:2]


def test_tampered_output_is_flagged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    jobs = _small_jobs(tmp_path)
    runs = {name: _run(job) for name, job in jobs.items()}
    for name, job in jobs.items():
        assert _status(job, *runs[name]) == ("ok", []), name

    report = json.loads((tmp_path / "b" / "report.json").read_text())
    report["k"] += 1
    (tmp_path / "b" / "report.json").write_text(json.dumps(report))
    status, problems = _status(jobs["build"], *runs["build"])
    assert status == "failed" and "Riemann-Roch" in problems[0]

    records = json.loads((tmp_path / "rec.json").read_text())
    records[5]["coefficients"][0] = (records[5]["coefficients"][0] + 1) % 5
    (tmp_path / "rec.json").write_text(json.dumps(records))
    assert _status(jobs["recover"], *runs["recover"])[0] == "failed"

    rc, out, err = runs["segre"]
    lower = out.split("s_a >= ")[1].split()[0]
    tampered = out.replace(f"s_a >= {lower}", "s_a >= 99")
    assert _status(jobs["segre"], rc, tampered, err)[0] == "failed"

    assert _status(jobs["verify"], 0, "FAIL: distance", "")[0] == "failed"
    assert _status(jobs["verify"], None, "", "Traceback ...")[0] == "failed"

    job = jobs["asymptotics"]
    digest = check.output_digest(job, *runs["asymptotics"][:2])
    assert _status(job, *runs["asymptotics"], digest=digest) == ("ok", [])
    path = tmp_path / "asym" / "product_envelope.csv"
    path.write_text(path.read_text().replace("0.", "0.0", 1))
    status, problems = _status(job, *runs["asymptotics"], digest=digest)
    assert status == "failed" and "digest" in problems[0]
    path.write_text("".join(path.read_text().splitlines(True)[:-1]))
    assert _status(job, *runs["asymptotics"])[0] == "failed"


def test_refusal_counts_only_where_allowed():
    job = Job("build", ["build"], {"n": 1, "k": 1})
    err = "config error: field order 7^8 exceeds desk-scale cap 1048576\n"
    assert _status(job, 2, "", err)[0] == "failed"
    job.expect["may_refuse"] = True
    assert _status(job, 2, "", err)[0] == "refused"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    def inputs(seed):
        configs, jobs = workloads.make_inputs(workload, seed)
        return configs, [(j.id, j.argv, j.expect) for j in jobs]

    assert inputs(11) == inputs(11)
    # the seed moves the points but never n, k or q^k
    shapes = {json.dumps([j[2] for j in inputs(s)[1]]) for s in range(30)}
    assert len(shapes) == 1
    assert len({json.dumps(inputs(s)[0]) for s in range(30)}) > 1


@pytest.mark.parametrize("key", sorted(workloads.POINTS))
def test_point_table_matches_program(key):
    name, degree = key
    c = workloads.CURVES[name]
    curve = curve_create(ELLIPTIC, c["curve"]["coefficients"],
                         field_create(c["field"]["p"], c["field"]["m"]))
    pts = curve.closed_points(degree)
    low_x = {i for i, P in enumerate(pts)
             if x_min_poly(curve, P).degree < degree}
    assert workloads.POINTS[key] == (len(pts), low_x)
