"""Output checks for one job of a workload.

A job ends ``ok``, ``refused`` (a build the program declines at a stated
cap, allowed only where the job says so) or ``failed``.  The checks read
the files the job wrote, relative to the iteration's working directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re


def _read_matrix(path):
    """(k, n, q, rows) of a generator file, checked against its header."""
    with open(path) as fh:
        k, n, q = (int(t) for t in fh.readline().split())
        rows = [[int(t) for t in line.split()] for line in fh if line.strip()]
    problems = []
    if len(rows) != k:
        problems.append(f"{path}: {len(rows)} rows under a header of k = {k}")
    if any(len(r) != n for r in rows):
        problems.append(f"{path}: a row does not have n = {n} entries")
    if any(not 0 <= v < q for r in rows for v in r):
        problems.append(f"{path}: an entry lies outside [0, {q})")
    return k, n, q, rows, problems


def _line_count(path):
    with open(path) as fh:
        return sum(1 for _ in fh)


def _check_build(job, stdout, seed):
    out = _output_path(job)
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    problems = []
    exp_n, exp_k = job.expect["n"], job.expect["k"]
    rr_k = report["bound"]["k_lower"]
    if report["n"] != exp_n:
        problems.append(f"n = {report['n']}, expected {exp_n}")
    if not report["k"] == rr_k == exp_k:
        problems.append(f"k = {report['k']} but the Riemann-Roch value is "
                        f"{rr_k} (expected {exp_k})")
    k, n, _, _, bad = _read_matrix(os.path.join(out, "generator.txt"))
    problems += bad
    if (k, n) != (report["k"], report["n"]):
        problems.append(f"generator header {k} x {n} disagrees with report")
    if _line_count(os.path.join(out, "points.txt")) != n:
        problems.append("points.txt does not have one line per column")
    if _line_count(os.path.join(out, "table.csv")) != 2:
        problems.append("table.csv is not a header and one row")
    if "d_exact" in report and not (report["griesmer"]["holds"]
                                    and report["singleton"]):
        problems.append("exact parameters break Griesmer or Singleton")
    return problems


def _check_verify(job, stdout, seed):
    if "PASS: all checks hold" not in stdout:
        return ["verify did not pass on the build output"]
    return []


def _check_recover(job, stdout, seed):
    """Every recovery set restores an erased symbol of a seeded codeword."""
    from ruledcodes.gf import field_create
    k, n, q, rows, problems = _read_matrix(job.expect["generator"])
    p = next(f for f in range(2, q + 1) if q % f == 0)
    m = 1
    while p ** m < q:
        m += 1
    spec = field_create(p, m)
    rng = random.Random(f"{seed}/{job.id}")
    msg = [rng.randrange(q) for _ in range(k)]
    word = []
    for j in range(n):
        acc = 0
        for i in range(k):
            acc = spec.add_i(acc, spec.mul_i(msg[i], rows[i][j]))
        word.append(acc)
    with open(_output_path(job)) as fh:
        records = json.load(fh)
    if len(records) != job.expect["sets"]:
        problems.append(f"{len(records)} recovery sets, expected "
                        f"{job.expect['sets']}")
    for rec in records:
        acc = 0
        for h, c in zip(rec["helpers"], rec["coefficients"]):
            if h == rec["target"]:
                problems.append(f"set for {h} uses the erased symbol")
            acc = spec.add_i(acc, spec.mul_i(c, word[h]))
        if acc != word[rec["target"]]:
            problems.append(f"a recovery set for column {rec['target']} "
                            "does not restore it")
            break
    return problems


def _check_segre(job, stdout, seed):
    lower = re.search(r"s_a >= (-?\d+)", stdout)
    upper = re.search(r"s_a <= (-?\d+)", stdout)
    if not (lower and upper):
        return ["segre printed no lower and upper bound"]
    if int(lower.group(1)) > int(upper.group(1)):
        return [f"Segre lower bound {lower.group(1)} exceeds the upper "
                f"bound {upper.group(1)}"]
    return []


def _check_asymptotics(job, stdout, seed):
    out = _output_path(job)
    problems = []
    for name, rows in job.expect["csv_rows"].items():
        got = _line_count(os.path.join(out, name))
        if got != rows:
            problems.append(f"{name} has {got} lines, expected {rows}")
    return problems


CHECKS = {"build": _check_build, "verify": _check_verify,
          "recover": _check_recover, "segre": _check_segre,
          "asymptotics": _check_asymptotics}


def check_job(job, rc, stdout, stderr, seed, digest=None):
    """(status, problems, output digest) for one finished job.

    ``rc`` is None when the job raised instead of returning an exit code.
    ``digest`` is the recorded output digest for this seed, if any.
    """
    got = output_digest(job, rc, stdout)
    if "Traceback" in stderr or rc is None:
        return "failed", ["job raised an exception"], got
    if rc == 2 and job.expect.get("may_refuse") and "cap" in stderr:
        return "refused", [stderr.strip()], got
    if rc != 0:
        return "failed", [f"exit code {rc}: {stderr.strip()[:200]}"], got
    try:
        problems = CHECKS[job.command](job, stdout, seed)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    if digest is not None and got != digest:
        problems.append(f"output digest {got[:12]} differs from the "
                        f"recorded {digest[:12]}")
    return ("failed" if problems else "ok"), problems, got


def _output_path(job):
    """The file or directory a job was told to write, or None."""
    for flag in ("--out-dir", "--out"):
        if flag in job.argv:
            return job.argv[job.argv.index(flag) + 1]
    return None


def output_digest(job, rc, stdout):
    """sha256 over the exit code, stdout and every file the job wrote."""
    h = hashlib.sha256(f"{rc}\n{stdout}".encode())
    out = _output_path(job)
    if out is not None and os.path.isdir(out):
        files = [os.path.join(out, name) for name in sorted(os.listdir(out))]
    else:
        files = [out] if out is not None and os.path.exists(out) else []
    for path in files:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
