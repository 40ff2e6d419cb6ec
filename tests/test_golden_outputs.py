"""Byte-level pins of the demo outputs.

The sha256 of every file `build` writes for the three configs in
scripts/configs, of the `verify` stdout on the decomposable demo build, of
the `segre` stdout on the elm demo, of `recovery.json` on the locality
demo (also when one process builds and recovers the demos in turn), of
the `asymptotics` stdout and CSVs for q = 16, A = 3 and
q = 49, A = 6 (the benchmark's frontier settings) and for two regimes where
a0 often leaves [0, b], of the `asymptotics` stderr for two refused regimes,
and of `generator.txt`, `report.json` and the refused `verify` stderr for
the six surface codes of the paper's regimes on the max curves over F_16
and F_49, and of every file `build` writes for two tensor product codes.
A refactor that changes any output byte fails here; a deliberate
output change must re-record the digest.
"""

import hashlib
import json
import os

import pytest

from ruledcodes import curve as curve_module
from ruledcodes.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "scripts", "configs")

GOLDEN = {
    "decomposable_demo/generator.txt": "163aad6f15783a461f8fae87d7db7608b6c19964efe9a89734771840d0818755",
    "decomposable_demo/points.txt": "aa23c706e87d5d0e0bff4da72d9dddc30696988f876330cfdffe91ca5e29fb31",
    "decomposable_demo/report.json": "9a12d6831264fa7ea074a3e384d1f6cb4092c61d6bd4bde9a6227273b7d70ace",
    "decomposable_demo/table.csv": "8ac98f6df69af7acbbef1296716990fc46e6091c0751eae9888008308852144c",
    "decomposable_demo/verify.stdout": "2ba78919b0229ad391f7453f0d90f8f36eba4797910ed1b2a10482a6a7977fb9",
    "elm_demo/generator.txt": "4e50993d260f88a5da678a204af1b8581cbf6f13704fbfdfd342b40aa4217f3c",
    "elm_demo/points.txt": "aa23c706e87d5d0e0bff4da72d9dddc30696988f876330cfdffe91ca5e29fb31",
    "elm_demo/report.json": "200d7426ecfe950e07d14c766402c44e43bc2225546957a408e74f37a5833a6d",
    "elm_demo/segre.stdout": "e87328370c78d8f4256316202d9d0d0db16c8cfb1ec380b7ddbf362ed9e9652f",
    "elm_demo/table.csv": "e6345e48923feddce6b9bded577fedd2efef4ffd3117d1c9b6628556217b4066",
    "locality_demo/generator.txt": "34c15d92b0c3bb45fb35f33c066add5606b10f367210d88b813431b0bb22a000",
    "locality_demo/points.txt": "aa23c706e87d5d0e0bff4da72d9dddc30696988f876330cfdffe91ca5e29fb31",
    "locality_demo/recovery.json": "cd31f7e83151966cec53266f06ff01d2dd2da893ae2c5ea02455572bde1e2578",
    "locality_demo/report.json": "6c9f14f4cbdf152ca992759480b5d85438b6177622bc608b7f7660ba9c8285c9",
    "locality_demo/table.csv": "b898fb82c03e1517a101447a1f980d20cd1180cfa7c316b36930b324d01256a3",
    "asymptotics_q16_A3/stdout": "9a159d37ee1cd025399fc6ce920b74a2376b22e5abf23f518ba10628f0a2ee12",
    "asymptotics_q16_A3/product_envelope.csv": "da30d59b74c292c0294be3d4f6ff01c68bf7c319d1116af366448da21832e113",
    "asymptotics_q16_A3/ruled_optimized.csv": "8e056e7f96614cf3284c6d3ee97ac592e9fa717f55aef6220d3909acc16c263d",
    "asymptotics_q16_A3/dominance.csv": "4f67458c4c3b71d5e490f2480d2f84a32e891b92623df7390d2886c1d5421b34",
    "asymptotics_q49_A6/stdout": "f38e899ae3a4099715a31103f7975dba3d4da90889d8b6c585006107163bd2ae",
    "asymptotics_q49_A6/product_envelope.csv": "a2a3b799f4cac2abfa0d763e0edc5cac98261b2902e697e457af0ce771ee14ba",
    "asymptotics_q49_A6/ruled_optimized.csv": "178ac42d48ebad6c2b5840d7fd4367275548d7e836d253f08d6159da19f792ae",
    "asymptotics_q49_A6/dominance.csv": "718b6ae01ac5ef3148e5ec94b1250ab6a58153d1eed9e61fd68be3797bc21097",
    "asymptotics_q4_A2.1/stdout": "f698ac2fbada305454fec1093f57912ca3537c22c77ee66ba766a01d5a8891ec",
    "asymptotics_q4_A2.1/product_envelope.csv": "0d3b3d40bb36e921203a1052f99a22478ac22863fb449a9c6c62ae3ca4ccab26",
    "asymptotics_q4_A2.1/ruled_optimized.csv": "25e12a07dc2d8c4ebe984611964e80761ec33cc7fcfe665c01a76f0519eb6fa1",
    "asymptotics_q4_A2.1/dominance.csv": "27f1bf661d00560e7392f1b353a095e929edd45dfe57706d18fb8fa7cea7b7e2",
    "asymptotics_q2_A3/stdout": "08bc03e884bf6bb1f05edd4766d3e61f0b0cf6f7d8ccb903f0f6d9ec8cd764ab",
    "asymptotics_q2_A3/product_envelope.csv": "ee667765a551faf8bcdc3aaa47f05817bba49120992778a9d1e7faa9e261700e",
    "asymptotics_q2_A3/ruled_optimized.csv": "bbcded3f3c112bfb6c3082e4a21376177045c3768e2b14a7180982b4548803d4",
    "asymptotics_q2_A3/dominance.csv": "3119e92f831882e3b8850d2ee0d49aec911a6c86b0eb43d98e0c4a80a4bd73ca",
    "asymptotics_q2_A10/stderr": "a1f77c6bd06700a3f200be148d6fa669e773af5dd22b91f0deea7e5b186d4dda",
    "asymptotics_q49_A1.5/stderr": "0ccd879bb8abb8b95e4009a8ac1b98f8114ff28be2b7c9bd44bf8d0dcd1c6de4",
}


BUILD_FILES = ("generator.txt", "points.txt", "report.json", "table.csv")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config(name):
    return os.path.join(CONFIGS, f"{name}.json")


@pytest.mark.parametrize("name", ["decomposable_demo", "elm_demo",
                                  "locality_demo"])
def test_build_outputs_match_golden(tmp_path, capsys, name):
    out = tmp_path / name
    assert main(["build", "--config", _config(name), "--out-dir", str(out)]) == 0
    written = sorted(os.listdir(out))
    assert written == list(BUILD_FILES)
    for fname in written:
        assert _sha((out / fname).read_bytes()) == GOLDEN[f"{name}/{fname}"], fname


def test_verify_stdout_matches_golden(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["build", "--config", _config("decomposable_demo"),
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out / "generator.txt"),
                 "--report", str(out / "report.json")]) == 0
    stdout = capsys.readouterr().out
    assert _sha(stdout.encode()) == GOLDEN["decomposable_demo/verify.stdout"]


def test_segre_stdout_matches_golden(capsys):
    assert main(["segre", "--config", _config("elm_demo")]) == 0
    out = capsys.readouterr().out
    assert _sha(out.encode()) == GOLDEN["elm_demo/segre.stdout"]


def test_recovery_json_matches_golden(tmp_path, capsys):
    rec = tmp_path / "recovery.json"
    assert main(["recover", "--config", _config("locality_demo"),
                 "--out", str(rec)]) == 0
    assert _sha(rec.read_bytes()) == GOLDEN["locality_demo/recovery.json"]


def test_one_curve_serves_a_job_sequence(tmp_path, monkeypatch, capsys):
    # dec, elm, recover and dec again in one process, from no curve: all
    # four jobs run on the demos' one E/F_5, each reading what the earlier
    # ones cached on it, and every file keeps its golden bytes
    monkeypatch.setattr(curve_module, "_CURVES", {})
    jobs = [("build", "decomposable_demo"), ("build", "elm_demo"),
            ("recover", "locality_demo"), ("build", "decomposable_demo")]
    for i, (command, name) in enumerate(jobs):
        out = tmp_path / str(i)
        if command == "build":
            assert main(["build", "--config", _config(name), "--out-dir", str(out)]) == 0
            files = BUILD_FILES
        else:
            out.mkdir()
            assert main(["recover", "--config", _config(name),
                         "--out", str(out / "recovery.json")]) == 0
            files = ("recovery.json",)
        for fname in files:
            assert _sha((out / fname).read_bytes()) == GOLDEN[f"{name}/{fname}"], (i, fname)
    (curve,) = curve_module._CURVES.values()
    assert curve._spaces and 2 in curve._closed_cache and 3 in curve._closed_cache


def _asymptotics(q, A):
    return main(["asymptotics", "--q", str(q), "--A", A, "--samples", "400",
                 "--b-range", "0.3:0.98:120", "--out-dir", "asym"])


# (4, 2.1) and (2, 3): a0 leaves [0, b] at 40 and 23 of the 120 grid
# points, and some dominance rows have no ruled rate
@pytest.mark.parametrize("q, A", [(16, "3"), (49, "6"), (4, "2.1"), (2, "3")])
def test_asymptotics_outputs_match_golden(tmp_path, monkeypatch, capsys, q, A):
    monkeypatch.chdir(tmp_path)
    assert _asymptotics(q, A) == 0
    stdout = capsys.readouterr().out
    name = f"asymptotics_q{q}_A{A}"
    assert _sha(stdout.encode()) == GOLDEN[f"{name}/stdout"]
    for fname in ("product_envelope.csv", "ruled_optimized.csv", "dominance.csv"):
        assert _sha((tmp_path / "asym" / fname).read_bytes()) == GOLDEN[f"{name}/{fname}"], fname


# (2, 10): the envelope's rate B = 1.2 exceeds 1; (49, 1.5): A <= 2
@pytest.mark.parametrize("q, A", [(2, "10"), (49, "1.5")])
def test_asymptotics_refusals_match_golden(tmp_path, monkeypatch, capsys, q, A):
    monkeypatch.chdir(tmp_path)
    assert _asymptotics(q, A) == 2
    out, err = capsys.readouterr()
    assert out == "" and not (tmp_path / "asym").exists()
    assert _sha(err.encode()) == GOLDEN[f"asymptotics_q{q}_A{A}/stderr"], err


# Paper-regime surface codes on the max curves: beta is b/2 times the
# degree-2 point of index 1; an elm center is the degree-2 point of index 0
# with fiber_index 0, and delta is that point for the decomposable code.
# Each build runs at exact_cap 1, so report.json carries the refusal, and
# `verify` at its default cap refuses the generator with the same text.
# (generator.txt, report.json, verify stderr) digests per config
REGIME_BUILDS = [
    ((2, 4), [0, 0, 1, 0, 8], "elm", 3, 12,
     ("89dcfab3cfbc558626984fdf02f17878a90dd5e0d6ad2bc98fbe730750a45ec7",
      "ccf079e60306de209b3825788ddeb7be5fe64d7be19a7e568adafe792d2ebeee",
      "a2f6584248ec13da1e3fe011b2fd4676f3edb74b2e7865b45859ea93c1d366ee")),
    ((2, 4), [0, 0, 1, 0, 8], "decomposable", 5, 16,
     ("6122ccd66902e6b0c7ec1ab2a0470fb6dcc07c35891e4e9c6bc6cd77622b8643",
      "451c64ae158070cc6dc01938cdedc80826ec6b969c05e0f557eee3cf313f9a37",
      "da45a0572c762e087896cdf5f97ffa6f10eabae8a42ac603b7077287449e4f99")),
    ((7, 2), [0, 0, 0, 1, 0], "elm", 3, 12,
     ("7ba525e61657d7370d0c13544462ef78b3b88b9a0508e2c0252d02a90bae8a70",
      "6fd455211bbf2449a4e6d2e45bd7287ed4faafb2b9c9a8cc7b51a6f020c2c9f5",
      "c48cf1af7394e8cd172cf1d6a65590744cd51481fde92ea0b056aa4b967545d6")),
    ((7, 2), [0, 0, 0, 1, 0], "decomposable", 2, 8,
     ("fcb35e68fad36ff139da12ec084d505cea9d4d09b1d91dc0588497e99fafd127",
      "c0a880bfdd947f6812c3c0d322af418a8e162b77be4771298e5c6b3d52e94331",
      "4ad9171391e9085e283dd5145b2cd2f1a842e90f21a40077ada37f8b1e83e435")),
    ((7, 2), [0, 0, 0, 1, 0], "decomposable", 6, 24,
     ("aa8c6d3f4e2e419c7fd17387ef41a3be77b314e6ed68e3d92ebfe34dd287c0da",
      "943c0fb77e08694beac09927d2c218e0a2b40c5c972526b85bbbbe401500454a",
      "ed73961e18a93c2bfbcc56eb90d4f0e8d73f845aab41d47f48bd96a6514b492b")),
    ((7, 2), [0, 0, 0, 1, 0], "elm", 6, 24,
     ("875cfe8d70b504387fa68e3a06984ffaa93c7f94807e379e8a05547798282c80",
      "3e718409571956e2cc6ba89e660736edde0dc9de5ddeac38721764b1d01ad37a",
      "ed73961e18a93c2bfbcc56eb90d4f0e8d73f845aab41d47f48bd96a6514b492b")),
]


@pytest.mark.parametrize("pm, coefficients, variant, a, b, digests",
                         REGIME_BUILDS,
                         ids=["F16-elm-a3b12", "F16-decomposable-a5b16",
                              "F49-elm-a3b12", "F49-decomposable-a2b8",
                              "F49-decomposable-a6b24", "F49-elm-a6b24"])
def test_regime_generator_matches_golden(tmp_path, capsys, pm, coefficients,
                                         variant, a, b, digests):
    point = {"degree": 2, "index": 0}
    surface = ({"variant": "elm", "center": {"degree": 2, "base_index": 0,
                                             "fiber_index": 0}}
               if variant == "elm" else
               {"variant": "decomposable", "delta": [point]})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "field": {"p": pm[0], "m": pm[1]},
        "curve": {"kind": "elliptic", "coefficients": coefficients},
        "surface": surface,
        "code": {"a": a, "beta": [{"degree": 2, "index": 1,
                                   "multiplicity": b // 2}]},
        "analysis": {"exact_cap": 1}}))
    out = tmp_path / "out"
    assert main(["build", "--config", str(cfg), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out / "generator.txt"),
                 "--report", str(out / "report.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (_sha((out / "generator.txt").read_bytes()),
            _sha((out / "report.json").read_bytes()),
            _sha(captured.err.encode())) == digests


# The tensor product code ("tensor": true on the product surface): E/F_5
# with beta the degree-3 point of index 0 at a = 1, and the F_49 max curve
# with beta 12 times the degree-2 point of index 1 at a = 6, exact_cap 1.
# report.json writes params.e = 0: the product surface is C x P^1, delta = 0.
TENSOR_BUILDS = [
    ((5, 1), [0, 0, 0, 0, 1], 1, {"degree": 3, "index": 0}, {}, {
        "generator.txt": "65bc60390f1811b5f7f2928e9d23738ee4f210dd3741b3b145b3f0e38a0af02f",
        "points.txt": "aa23c706e87d5d0e0bff4da72d9dddc30696988f876330cfdffe91ca5e29fb31",
        "report.json": "382013a6b5f0c515320dc4523cf1f5bca6f7b2cb04d53b4c541b086382d3b4d2",
        "table.csv": "0dbb5998d07a216dd00e3ff279a6af6ed9b8d625a02f89cec057b7be1514daf5"}),
    ((7, 2), [0, 0, 0, 1, 0], 6, {"degree": 2, "index": 1, "multiplicity": 12},
     {"exact_cap": 1}, {
        "generator.txt": "6e0cd1ce742c67fb1bd0d88d67b7aa83d391330608600b80a76a7e29c4151f09",
        "points.txt": "af127f3cd236a4f88b58ecd0a7177a9e57450286e5a8153b0daadce6afbf0d99",
        "report.json": "c2d6dd10bb92a28f9093cc7384d2f77d1ec7f3df6eceaee99463414e950c6d24",
        "table.csv": "b45ab393f79c371e8ceb381e6fcd668a58df972a7742da7824520ab60b336e7f"}),
]


@pytest.mark.parametrize("pm, coefficients, a, beta, analysis, digests",
                         TENSOR_BUILDS, ids=["F5-a1b3", "F49-a6b24"])
def test_tensor_build_matches_golden(tmp_path, capsys, pm, coefficients, a,
                                     beta, analysis, digests):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "field": {"p": pm[0], "m": pm[1]},
        "curve": {"kind": "elliptic", "coefficients": coefficients},
        "surface": {"variant": "product"},
        "code": {"a": a, "beta": [beta], "tensor": True},
        "analysis": analysis}))
    out = tmp_path / "out"
    assert main(["build", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert sorted(os.listdir(out)) == list(BUILD_FILES)
    for fname in BUILD_FILES:
        assert _sha((out / fname).read_bytes()) == digests[fname], fname
