"""Byte-level pins of the demo outputs.

The sha256 of every file `build` writes for the three configs in
scripts/configs, of the `verify` stdout on the decomposable demo build, of
the `segre` stdout on the elm demo, and of `recovery.json` on the locality
demo.  A refactor that changes any output
byte fails here; a deliberate output change must re-record the digest.
"""

import hashlib
import os

import pytest

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
