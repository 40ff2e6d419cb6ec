"""One fresh-interpreter iteration of a workload.

Run by run.py as ``python3 perfbench/child.py REQUEST.json``.  It imports
ruledcodes from the checkout's src/, writes the seeded inputs, stamps the
end of set-up on the system-wide monotonic clock, runs the job list through
``ruledcodes.cli.main`` (traced if asked), then checks every job's output
and writes a result JSON.  Only the job list is timed; checks come after.
"""

import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ruledcodes  # noqa: E402,F401
import ruledcodes.cli  # noqa: E402

import workloads  # noqa: E402


def run_job(job):
    """(exit code or None on an exception, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = ruledcodes.cli.main(list(job.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def run_jobs(jobs, tracer=None):
    """Run the job list back to back; the tracer is installed only around
    the jobs and removed even if one raises."""
    runs = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.current_job = i
            runs.append(run_job(job))
    return runs


def gf_kernel_probe(batch=100, min_s=0.02, repeats=5):
    """Nanoseconds per mul_i/add_i/inv_i call on fields below and above the
    2^16 table limit: median of ``repeats`` passes, each looping over
    ``batch`` seeded nonzero operands until ``min_s`` seconds have passed."""
    import random
    from ruledcodes.gf import field_create
    out = {}
    for p, m in ((5, 1), (2, 4), (7, 2), (5, 7)):
        spec = field_create(p, m)
        rng = random.Random(p ** m)
        pairs = [(rng.randrange(1, spec.order), rng.randrange(1, spec.order))
                 for _ in range(batch)]
        for op in ("mul_i", "add_i", "inv_i"):
            fn = getattr(spec, op)
            call = ((lambda x, y: fn(x)) if op == "inv_i" else fn)
            per_call = []
            for _ in range(repeats):
                calls, t0 = 0, time.perf_counter()
                while time.perf_counter() - t0 < min_s:
                    for x, y in pairs:
                        call(x, y)
                    calls += batch
                per_call.append((time.perf_counter() - t0) / calls)
            out[f"gf.{op}.ns.q{spec.order}"] = statistics.median(per_call) * 1e9
    return out


def main(request_path):
    with open(request_path) as fh:
        req = json.load(fh)
    os.makedirs(req["workdir"], exist_ok=True)
    os.chdir(req["workdir"])
    jobs = workloads.write_inputs(".", req["workload"], req["seed"])
    t_setup = time.monotonic()
    result = {"t_start": T_START, "t_setup": t_setup}
    if req["mode"] == "setup":
        _write(req["result"], result)
        return 0

    tracer = None
    if req["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    t0 = time.perf_counter()
    runs = run_jobs(jobs, tracer)
    wall = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024)

    import check
    digests = req.get("digests") or {}
    result["jobs"] = []
    for job, (rc, stdout, stderr, secs) in zip(jobs, runs):
        status, problems, digest = check.check_job(
            job, rc, stdout, stderr, req["seed"], digests.get(job.id))
        result["jobs"].append({"id": job.id, "command": job.command,
                               "rc": rc, "seconds": secs, "status": status,
                               "problems": problems, "digest": digest})
    analysis = sys.modules["ruledcodes.analysis"]
    workers = getattr(analysis, "_worker_count", None)
    result["search_workers"] = workers() if workers else 1
    result["numpy"] = sys.modules["numpy"].__version__
    if tracer is not None:
        result["spans"] = tracer.aggregate()
        result["counters"] = dict(tracer.counters)
        result["span_count"] = len(tracer.name_of)
        tracer.write(req["spans"], [j.id for j in jobs])
        result["probe"] = gf_kernel_probe()
    _write(req["result"], result)
    return 0


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
