"""Seeded workload definitions: each workload is a fixed list of CLI jobs.

The seed only picks which closed points of a fixed degree pattern a config
uses.  The pattern includes the degree of the point's x-coordinate, because
the Riemann-Roch code scans the closed points of degree deg(x(P)) and
2 deg(x(P)); keeping it fixed keeps n, k, q^k and the amount of work the
same across seeds.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("construct-q16", "verify-exhaustive", "certify-elm")

CURVES = {
    "F16": {"field": {"p": 2, "m": 4},
            "curve": {"kind": "elliptic", "coefficients": [0, 0, 1, 0, 0]}},
    "F49": {"field": {"p": 7, "m": 2},
            "curve": {"kind": "elliptic", "coefficients": [0, 0, 0, 1, 3]}},
    "F5": {"field": {"p": 5, "m": 1},
           "curve": {"kind": "elliptic", "coefficients": [0, 0, 0, 0, 1]}},
    "F4": {"field": {"p": 2, "m": 2},
           "curve": {"kind": "elliptic", "coefficients": [1, 0, 0, 0, 1]}},
}

# (curve, degree) -> (number of closed points of that degree, indices in
# canonical order of the points whose x-coordinate has a smaller degree).
# test_harness.py recomputes this table with ruledcodes.
POINTS = {
    ("F16", 2): (108, frozenset({8, 9, 42, 43, 48, 49, 94, 95, 104, 105, 106,
                                 107})),
    ("F49", 2): (1170, frozenset({524, 525, 526, 749, 750, 917, 918, 919, 920,
                                  1035, 1036, 1037, 1038, 1109, 1110, 1149,
                                  1150, 1151})),
    ("F5", 2): (15, frozenset({0, 1})),
    ("F5", 3): (40, frozenset()),
    ("F4", 2): (4, frozenset()),
    ("F4", 3): (16, frozenset()),
}

# asymptotics settings of scripts/asymptotics_figures.py
ASYMPTOTICS = {"samples": 400, "b_range": "0.3:0.98:120"}
# lines per CSV file, header included, for the ASYMPTOTICS settings
CSV_ROWS = {
    16: {"product_envelope.csv": 401, "dominance.csv": 400,
         "ruled_optimized.csv": 111},
    49: {"product_envelope.csv": 401, "dominance.csv": 400,
         "ruled_optimized.csv": 121},
}


@dataclass
class Job:
    """One CLI invocation and what its output must satisfy.

    ``expect`` keys: ``n``/``k`` for builds, ``may_refuse`` for a build the
    program may refuse at a stated cap, ``generator`` (the build output a
    recover or verify job works on), ``csv_rows`` for asymptotics.
    """
    id: str
    argv: list
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


def _pick(rng, curve, degree, taken=()):
    count, low_x = POINTS[curve, degree]
    while True:
        i = rng.randrange(count)
        if i not in low_x and i not in taken:
            return i


def _config(curve, surface, a, beta, analysis):
    return {**CURVES[curve], "surface": surface,
            "code": {"a": a, "beta": beta}, "analysis": analysis}


def _build_verify(name, cfg_name, n, k):
    gen = f"build-{name}/generator.txt"
    return [
        Job(f"build-{name}", ["build", "--config", cfg_name,
                              "--out-dir", f"build-{name}"], {"n": n, "k": k}),
        Job(f"verify-{name}", ["verify", gen, "--report",
                               f"build-{name}/report.json"],
            {"generator": gen}),
    ]


def make_inputs(workload: str, seed: int):
    """(configs {file name: dict}, jobs) for one workload and seed."""
    rng = random.Random(seed)
    if workload == "construct-q16":
        # beta = 2P and delta of degree 2: b = 4, e = 2, k = l(4) + l(2) = 6.
        # exact_cap is low so no distance search runs.
        low_cap = {"exact_cap": 1}
        p = _pick(rng, "F16", 2)
        d = _pick(rng, "F16", 2, {p})
        c = _pick(rng, "F16", 2, {p})
        p49 = _pick(rng, "F49", 2)
        d49 = _pick(rng, "F49", 2, {p49})
        beta = [{"degree": 2, "index": p, "multiplicity": 2}]
        configs = {
            "dec16.json": _config(
                "F16", {"variant": "decomposable",
                        "delta": [{"degree": 2, "index": d}]},
                1, beta, low_cap),
            "elm16.json": _config(
                "F16", {"variant": "elm",
                        "center": {"degree": 2, "base_index": c,
                                   "fiber_index": rng.randrange(16 * 16 - 16)}},
                1, beta, low_cap),
            "dec49.json": _config(
                "F49", {"variant": "decomposable",
                        "delta": [{"degree": 2, "index": d49}]},
                1, [{"degree": 2, "index": p49, "multiplicity": 2}], low_cap),
        }
        jobs = [
            Job("build-dec16", ["build", "--config", "dec16.json",
                                "--out-dir", "build-dec16"],
                {"n": 153, "k": 6}),
            Job("recover-dec16", ["recover", "--config", "dec16.json",
                                  "--out", "recovery-dec16.json"],
                {"generator": "build-dec16/generator.txt", "sets": 153 * 8}),
            Job("build-elm16", ["build", "--config", "elm16.json",
                                "--out-dir", "build-elm16"],
                {"n": 153, "k": 6}),
            Job("build-dec49", ["build", "--config", "dec49.json",
                                "--out-dir", "build-dec49"],
                {"n": 3000, "k": 6, "may_refuse": True}),
        ]
    elif workload == "verify-exhaustive":
        # product surface, a = 1, beta = P2 + P3: k = 2 * 5 = 10, q^10 words
        # searched twice per code (by build and by verify).
        configs, jobs = {}, []
        for curve, n in (("F5", 36), ("F4", 40)):
            beta = [{"degree": 2, "index": _pick(rng, curve, 2)},
                    {"degree": 3, "index": _pick(rng, curve, 3)}]
            name = f"prod{curve[1:]}"
            configs[f"{name}.json"] = _config(curve, {"variant": "product"},
                                              1, beta, {})
            jobs += _build_verify(name, f"{name}.json", n, 10)
    elif workload == "certify-elm":
        center = {"degree": 2, "base_index": _pick(rng, "F5", 2),
                  "fiber_index": rng.randrange(5 * 5 - 5)}
        configs = {"elm5.json": _config(
            "F5", {"variant": "elm", "center": center}, 1,
            [{"degree": 3, "index": _pick(rng, "F5", 3)}],
            {"segre_dmax": 3})}
        jobs = [Job("segre-elm5", ["segre", "--config", "elm5.json"])]
        for q, A in ((16, 3.0), (49, 6.0)):
            jobs.append(Job(
                f"asymptotics-q{q}",
                ["asymptotics", "--q", str(q), "--A", str(A),
                 "--samples", str(ASYMPTOTICS["samples"]),
                 "--b-range", ASYMPTOTICS["b_range"],
                 "--out-dir", f"asymptotics-q{q}"],
                {"csv_rows": CSV_ROWS[q]}))
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return configs, jobs


def write_inputs(workdir: str, workload: str, seed: int):
    """Write the seeded configs into workdir and return the job list."""
    configs, jobs = make_inputs(workload, seed)
    for name, cfg in configs.items():
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
    return jobs
