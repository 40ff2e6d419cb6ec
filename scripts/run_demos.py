#!/usr/bin/env python3
"""Build and exactly verify the two demo code families, then certify the
Segre invariant of the elm surface.  Everything runs through the CLI, so
this doubles as an end-to-end smoke test.

Usage: run_demos.py [OUT_DIR].  The outputs go to OUT_DIR if given, else to
a temporary directory that is removed at the end."""

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ruledcodes.cli import main  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def run(argv):
    print(f"$ ruledcodes {' '.join(argv)}")
    rc = main(argv)
    print(f"(exit {rc})\n")
    return rc


def demo(config_name, workdir):
    config = os.path.join(HERE, "configs", config_name)
    out = os.path.join(workdir, config_name.removesuffix(".json"))
    rc = run(["build", "--config", config, "--out-dir", out])
    rc |= run(["verify", os.path.join(out, "generator.txt"),
               "--report", os.path.join(out, "report.json")])
    return rc


def run_all(workdir):
    rc = demo("decomposable_demo.json", workdir)
    rc |= demo("elm_demo.json", workdir)
    rc |= demo("locality_demo.json", workdir)
    rc |= run(["segre", "--config",
               os.path.join(HERE, "configs", "elm_demo.json")])
    rc |= run(["recover", "--config",
               os.path.join(HERE, "configs", "locality_demo.json"),
               "--out", os.path.join(workdir, "recovery.json")])
    return rc


def main_script():
    if len(sys.argv) > 1:
        os.makedirs(sys.argv[1], exist_ok=True)
        return run_all(sys.argv[1])
    with tempfile.TemporaryDirectory() as workdir:
        return run_all(workdir)


if __name__ == "__main__":
    sys.exit(main_script())
