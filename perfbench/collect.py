#!/usr/bin/env python3
"""Summarise the run records in .perfbench/results/.

    python3 perfbench/collect.py bench OUT.json   # medians and quartiles
    python3 perfbench/collect.py digests          # update perfbench/digests.json

``bench`` groups the records by workload and trace mode and gives, for every
metric, the values by seed, their median, quartiles and quartile spread as a
share of the median, with the provenance of the runs.  ``digests`` records
the output digest of every job that completed, per workload and seed, so
later runs on those seeds check byte-identical outputs.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(os.path.dirname(HERE), ".perfbench", "results")


def _records():
    for path in sorted(glob.glob(os.path.join(RESULTS, "*-trace[01].json"))):
        with open(path) as fh:
            yield json.load(fh)


def bench(out_path):
    groups = {}
    for rec in _records():
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    out = {}
    for (workload, trace), recs in sorted(groups.items()):
        recs.sort(key=lambda r: r["provenance"]["seed"])
        metrics = {}
        for name, m in recs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in recs]
            entry = {"unit": m["unit"], "median": statistics.median(values),
                     "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / entry["median"]
                             if entry["median"] else 0.0)
            metrics[name] = entry
        prov = {k: v for k, v in recs[0]["provenance"].items() if k != "seed"}
        out[f"{workload}/trace{trace}"] = {
            "provenance": prov,
            "seeds": [r["provenance"]["seed"] for r in recs],
            "attempted": sum(r["attempted"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "refused": sum(r["refused"] for r in recs),
            "metrics": metrics}
    with open(out_path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def digests():
    path = os.path.join(HERE, "digests.json")
    table = {}
    if os.path.exists(path):
        with open(path) as fh:
            table = json.load(fh)
    for rec in _records():
        if rec["trace"] or not rec["correct"]:
            continue
        jobs = {j["id"]: j["digest"] for j in rec["iterations"][0]["jobs"]
                if j["status"] == "ok"}
        table.setdefault(rec["workload"], {})[
            str(rec["provenance"]["seed"])] = jobs
    for seeds in table.values():
        for seed in list(seeds):
            seeds[seed] = dict(sorted(seeds[seed].items()))
    with open(path, "w") as fh:
        json.dump({w: dict(sorted(s.items(), key=lambda kv: int(kv[0])))
                   for w, s in sorted(table.items())}, fh, indent=1)
        fh.write("\n")


def main(argv):
    if argv[:1] == ["bench"] and len(argv) == 2:
        bench(argv[1])
    elif argv == ["digests"]:
        digests()
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
