"""In-memory span tracer for the ruledcodes modules.

``Tracer.install`` wraps the public functions of each module (plus a few
named methods) and rebinds each wrapper under every name that refers to the
original in any loaded ``ruledcodes`` module, so ``from .gf import extend``
call sites are traced too.  ``uninstall`` puts every original back.  Spans
(name, start, end, parent, job) live in compact arrays; only the thread that
installed the tracer records them, and calls from worker threads pass
straight through.
"""

from __future__ import annotations

import gzip
import inspect
import os
import sys
import threading
import time
from array import array
from collections import defaultdict

MODULES = ("gf", "poly", "linalg", "curve", "rrspace", "surface", "codes",
           "analysis", "locality", "asymptotics", "cli")

# methods traced like functions, named after their module
METHODS = {("poly", "Poly"): ("divmod", "gcd", "eval_i"),
           ("curve", "CurveModel"): ("affine_points", "closed_points")}

# spans whose process CPU time (all threads) is recorded as a counter
CPU_SPANS = {"analysis.exact_params"}


def _rr_basis(args, result, exc, parent):
    if exc is not None:
        return
    yield "rrspace.rr_basis.dim_total", len(result)
    if parent == "rrspace.functions_up_to_degree" and len(result) > 1:
        # functions_up_to_degree tries every nonzero combination of the basis
        q = args[0].spec.order
        yield "rrspace.functions_up_to_degree.combinations", q ** len(result) - 1


def _functions(args, result, exc, parent):
    if exc is None:
        yield ("rrspace.functions_up_to_degree.functions",
               len(result) - args[0].spec.order)


def _evaluate(args, result, exc, parent):
    if type(exc).__name__ == "PoleError":
        yield "rrspace.evaluate.pole_errors", 1


def _generator(args, result, exc, parent):
    if exc is None:
        yield "codes.generator.entries", result.k * result.n


def _exact_params(args, result, exc, parent):
    if type(exc).__name__ == "CapExceededError":
        yield "analysis.exact_params.refused", 1
    elif exc is None:
        yield "analysis.exact_params.words", args[0].spec.order ** result[1]


# counters derived from a call: fn(args, result, exception, parent name)
# yields (counter, increment)
ANNOTATE = {
    "curve.affine_points": lambda args, result, exc, parent: [
        ("curve.affine_points.x_scanned", args[1].order)],
    "rrspace.rr_basis": _rr_basis,
    "rrspace.functions_up_to_degree": _functions,
    "rrspace.evaluate": _evaluate,
    "codes.build_code_decomposable": _generator,
    "codes.build_code_elm": _generator,
    "codes.write_matrix": lambda args, result, exc, parent: [
        ("codes.write_matrix.bytes", os.path.getsize(args[1]))],
    "analysis.exact_params": _exact_params,
    "locality.recovery_sets": lambda args, result, exc, parent: [
        ("locality.recovery_sets.sets",
         sum(len(v) for v in (result or {}).values()))],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("H")
        self.current_job = 0
        self.counters: dict = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, start, end, parent, job = (self.name_of, self.start, self.end,
                                            self.parent, self.job)
        stack, counters, names = self._stack, self.counters, self.names
        note, cpu = ANNOTATE.get(name), name in CPU_SPANS
        owner, get_ident = threading.get_ident(), threading.get_ident
        perf_counter, process_time = time.perf_counter, time.process_time

        def traced(*args, **kwargs):
            if get_ident() != owner:
                return fn(*args, **kwargs)
            idx = len(name_of)
            up = stack[-1] if stack else -1
            name_of.append(nid)
            parent.append(up)
            job.append(self.current_job)
            end.append(0.0)
            stack.append(idx)
            result = exc = None
            c0 = process_time() if cpu else 0.0
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
                if cpu:
                    counters[name + ".cpu_s"] += process_time() - c0
                if note is not None:
                    pname = names[name_of[up]] if up >= 0 else None
                    for key, inc in note(args, result, exc, pname):
                        counters[key] += inc

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Wrap every public function of MODULES and the METHODS."""
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "ruledcodes" or name.startswith("ruledcodes.")}
        for short in MODULES:
            mod = pkg[f"ruledcodes.{short}"]
            for attr, fn in vars(mod).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self._wrap(f"{short}.{attr}", fn)
                for other in pkg.values():
                    for name, value in vars(other).copy().items():
                        if value is fn:
                            setattr(other, name, traced)
                            self._restore.append((other, name, fn))
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(pkg[f"ruledcodes.{short}"], cls_name)
            for attr in methods:
                fn = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(f"{short}.{attr}", fn))
                self._restore.append((cls, attr, fn))

    def uninstall(self):
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def aggregate(self):
        """{span name: [calls, self seconds, total seconds]}."""
        self_s = self_times(self.start, self.end, self.parent)
        out: dict = {}
        for i, nid in enumerate(self.name_of):
            row = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self_s[i]
            row[2] += self.end[i] - self.start[i]
        return out

    def write(self, path, job_ids):
        """Write every span as one gzipped TSV line: name, start, end (seconds
        from the first span), parent span index, job id."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_s\tend_s\tparent\tjob\n")
            for i, nid in enumerate(self.name_of):
                fh.write(f"{self.names[nid]}\t{self.start[i] - t0:.7f}\t"
                         f"{self.end[i] - t0:.7f}\t{self.parent[i]}\t"
                         f"{job_ids[self.job[i]]}\n")


def self_times(start, end, parent):
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children of a span are disjoint and lie
    inside it.
    """
    covered = [0.0] * len(start)
    for i, up in enumerate(parent):
        if up >= 0:
            covered[up] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]
