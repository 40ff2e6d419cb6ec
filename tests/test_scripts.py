"""The two end-to-end scripts run in a fresh interpreter and leave their
files behind."""

import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def run_script(name, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          capture_output=True, text=True, timeout=300)


def test_run_demos(tmp_path):
    proc = run_script("run_demos.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for demo in ("decomposable_demo", "elm_demo", "locality_demo"):
        for name in ("generator.txt", "points.txt", "report.json"):
            assert (tmp_path / demo / name).stat().st_size > 0
    assert (tmp_path / "recovery.json").stat().st_size > 0
    assert "certified: s_a" in proc.stdout
    assert proc.stdout.count("(exit 0)") == 8


def test_asymptotics_figures(tmp_path):
    proc = run_script("asymptotics_figures.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for regime in ("q16", "q49"):
        for name in ("dominance.csv", "product_envelope.csv", "ruled_optimized.csv"):
            assert (tmp_path / regime / name).stat().st_size > 0
