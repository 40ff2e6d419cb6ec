#!/usr/bin/env python3
"""Benchmark of the ruledcodes CLI on three seeded workloads.

    python3 perfbench/run.py --workload construct-q16 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  Each iteration is a fresh interpreter
(perfbench/child.py) that runs the workload's job list back to back through
``ruledcodes.cli.main``: a closed loop with one client, RULEDCODES_THREADS
unset.  With ``--trace 0`` iterations repeat (at least MIN_ITERATIONS times)
until ``--seconds`` have passed and the end-to-end metrics are medians over
them; set-up is sampled at least SETUP_SAMPLES times.  With ``--trace 1`` one untraced and one traced
iteration give the per-layer metrics and the tracing overhead.  Metric names
and units come from BENCHMARK.json.  The last line of stdout is the result
JSON; the full record, with provenance, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
RESULTS = os.path.join(WORK, "results")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
MIN_ITERATIONS = 2
TIME_LIMIT_S = 170          # a run must end well inside 180 s
COMMANDS = ("build", "verify", "recover", "segre")

# per-layer metrics read from the traced run: calls and self time ...
CALLS_AND_SELF = (
    "poly.divmod", "poly.gcd", "poly.eval_i",
    "linalg.rref", "linalg.rank", "linalg.nullspace", "linalg.solve",
    "linalg.mat_mul", "curve.affine_points", "curve.closed_points",
    "rrspace.rr_basis", "rrspace.evaluate", "rrspace.order_at",
    "rrspace.taylor_coeffs", "rrspace.subfield_coords",
    "surface.segre_lower_bound_elm", "codes.build_code_decomposable",
    "codes.build_code_elm", "analysis.exact_params",
    "locality.restriction_fiber", "locality.recovery_sets",
    "asymptotics.optimized_rate")
# ... self time only ...
SELF_ONLY = (
    "rrspace.functions_up_to_degree", "codes.write_matrix", "codes.read_matrix",
    "asymptotics.envelope_product", "asymptotics.dominance_report",
    *(f"cli.cmd_{c}" for c in (*COMMANDS, "asymptotics")))
# ... and counters (tracer.ANNOTATE, tracer.CPU_SPANS)
COUNTERS = (
    "curve.affine_points.x_scanned", "rrspace.rr_basis.dim_total",
    "rrspace.evaluate.pole_errors", "rrspace.functions_up_to_degree.functions",
    "rrspace.functions_up_to_degree.combinations", "codes.generator.entries",
    "codes.write_matrix.bytes", "analysis.exact_params.cpu_s",
    "analysis.exact_params.words", "analysis.exact_params.refused",
    "locality.recovery_sets.sets")


class Runner:
    """Spawns child iterations for one workload and seed."""

    def __init__(self, workload, seed, run_dir, digests):
        self.workload, self.seed = workload, seed
        self.run_dir, self.digests = run_dir, digests
        self.count = 0
        self.env = {k: v for k, v in os.environ.items()
                    if k != "RULEDCODES_THREADS"}
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def spawn(self, mode="jobs", trace=0):
        self.count += 1
        tag = os.path.join(self.run_dir, f"it{self.count}")
        req = {"workload": self.workload, "seed": self.seed, "mode": mode,
               "trace": trace, "workdir": tag, "result": tag + ".json",
               "digests": self.digests,
               "spans": os.path.join(RESULTS, f"{self.workload}-seed{self.seed}"
                                              ".spans.tsv.gz")}
        with open(tag + ".request.json", "w") as fh:
            json.dump(req, fh)
        t0 = time.monotonic()
        subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                        tag + ".request.json"], stdout=sys.stderr, env=self.env,
                       timeout=max(1.0, self.deadline - t0), check=True)
        with open(req["result"]) as fh:
            res = json.load(fh)
        res["setup_s"] = res["t_setup"] - t0
        res["process_s"] = time.monotonic() - t0
        return res


def end_to_end(runner, seconds):
    iters = []
    begin = time.monotonic()
    while True:
        iters.append(runner.spawn())
        # at least MIN_ITERATIONS; another only if it should end near `seconds`
        elapsed = time.monotonic() - begin
        last = iters[-1]["process_s"]
        if elapsed + last > TIME_LIMIT_S - 20 or (
                len(iters) >= MIN_ITERATIONS and elapsed + last / 2 > seconds):
            break
    setups = [it["setup_s"] for it in iters]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn(mode="setup")["setup_s"])
    jobs = [j for it in iters for j in it["jobs"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median([it["wall_s"] for it in iters]),
        "cpu_s": statistics.median([it["cpu_s"] for it in iters]),
        "peak_rss_mb": statistics.median([it["peak_rss_mb"] for it in iters]),
        "completed_frac": sum(j["status"] == "ok" for j in jobs) / len(jobs),
    }
    return iters, metrics, {"setup_samples": setups}


def per_layer(runner):
    ref = runner.spawn()
    traced = runner.spawn(trace=1)
    spans, counters = traced["spans"], traced["counters"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    m = {"gf.setup_s": self_s("gf.field_create") + self_s("gf.extend"),
         "gf.extend.calls": calls("gf.extend"), **traced["probe"]}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = self_s(name)
    for name in COUNTERS:
        m[name] = counters.get(name, 0)
    combos = m["rrspace.functions_up_to_degree.combinations"]
    m["rrspace.functions_up_to_degree.useful_ratio"] = (
        m["rrspace.functions_up_to_degree.functions"] / combos if combos else 0.0)
    search_s = spans.get("analysis.exact_params", [0, 0.0, 0.0])[2]
    words = m["analysis.exact_params.words"]
    m["analysis.exact_params.words_per_s"] = words / search_s if words else 0.0
    for cmd in COMMANDS:
        m[f"{cmd}_s"] = sum(j["seconds"] for j in ref["jobs"]
                            if j["command"] == cmd)
    layer_self = sum(row[1] for name, row in spans.items()
                     if not name.startswith("cli."))
    m["trace.overhead_frac"] = traced["wall_s"] / ref["wall_s"] - 1
    m["trace.coverage_frac"] = layer_self / traced["wall_s"]
    m["trace.spans"] = traced["span_count"]
    return [ref, traced], m, {}


def provenance(iters, seed):
    git = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "ruledcodes", "*.py"))):
        with open(path, "rb") as fh:
            src.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {"git_commit": git, "source_sha256": src.hexdigest(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": iters[0]["numpy"], "seed": seed,
            "search_workers": iters[0]["search_workers"],
            "RULEDCODES_THREADS": None}


def run_workload(workload, seed, seconds, trace, spec):
    run_dir = os.path.join(WORK, "work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(RESULTS, exist_ok=True)
    digest_file = os.path.join(HERE, "digests.json")
    digests = {}
    if os.path.exists(digest_file):
        with open(digest_file) as fh:
            digests = json.load(fh).get(workload, {}).get(str(seed), {})
    runner = Runner(workload, seed, run_dir, digests)
    try:
        if trace:
            iters, values, extra = per_layer(runner)
        else:
            iters, values, extra = end_to_end(runner, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = 0
    first = {j["id"]: j["digest"] for j in iters[0]["jobs"]}
    for it in iters:
        for j in it["jobs"]:
            if j["digest"] != first[j["id"]]:
                j["status"] = "failed"
                j["problems"].append("output differs between iterations")
            failed += j["status"] == "failed"
    attempted = sum(len(it["jobs"]) for it in iters)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    record = {"workload": workload, "trace": trace,
              "provenance": provenance(iters, seed),
              "correct": failed == 0, "attempted": attempted, "failed": failed,
              "refused": sum(j["status"] == "refused"
                             for it in iters for j in it["jobs"]),
              "metrics": metrics, **extra,
              "iterations": [{k: v for k, v in it.items()
                              if k not in ("spans", "counters")}
                             for it in iters]}
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def _print_record(record):
    print(f"# {record['workload']} seed {record['provenance']['seed']}: "
          f"{record['attempted']} jobs attempted, {record['failed']} failed, "
          f"{record['refused']} refused "
          f"(failed_frac {(record['failed'] + record['refused']) / record['attempted']:.4g})")
    for it in record["iterations"]:
        for j in it["jobs"]:
            if j["status"] != "ok":
                print(f"#   {j['id']}: {j['status']}: {'; '.join(j['problems'])[:300]}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "ruledcodes", "cli.py")):
        print(f"error: no ruledcodes sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(w, args.seed, args.seconds, args.trace, spec)
               for w in names]
    for record in records:
        _print_record(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": m for r in records
                   for name, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
