"""Command-line front end: build codes, verify bounds exactly, certify
Segre invariants, generate recovery sets, emit asymptotic frontiers.

Exit codes: 0 success, 1 verification failure, 2 input error.  Identical
configs produce byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from .gf import (DESK_CAP, PRIME_CERT_BOUND, field_create, extend, prime_power,
                 within_desk_cap)
from .curve import curve_create, DivisorOnCurve, ClosedPoint, P1, ELLIPTIC
from .surface import (NumClass, surface_decomposable, surface_elm_product,
                      surface_trivial, segre_decomposable,
                      segre_lower_bound_elm, segre_upper_bounds,
                      segre_dmax_default, DECOMPOSABLE, ELM)
from .codes import (build_code_decomposable, build_code_elm, write_matrix,
                    write_points, read_matrix)
from .analysis import (bound_elm_family, bound_decomposable_family, exact_params,
                       griesmer_check, singleton_check, CapExceededError,
                       EXACT_CAP_DEFAULT, EXACT_CAP_MAX)
from .locality import fiber_ranks, recovery_sets
from .asymptotics import (envelope_product, optimized_rate, dominance_report,
                          figure_discrepancy)


class ConfigError(ValueError):
    """Input error with a config-path-precise message (exit code 2)."""


def _need(block: dict, key: str, kind, path: str):
    if key not in block:
        raise ConfigError(f"{path}.{key}: missing")
    v = block[key]
    if kind is int and (not isinstance(v, int) or isinstance(v, bool)):
        raise ConfigError(f"{path}.{key}: expected an integer, got {v!r}")
    if kind is bool and not isinstance(v, bool):
        raise ConfigError(f"{path}.{key}: expected true or false, got {v!r}")
    if kind is dict and not isinstance(v, dict):
        raise ConfigError(f"{path}.{key}: expected an object")
    if kind is list and not isinstance(v, list):
        raise ConfigError(f"{path}.{key}: expected a list")
    if kind is str and not isinstance(v, str):
        raise ConfigError(f"{path}.{key}: expected a string")
    return v


def _opt(block: dict, key: str, kind, path: str, default):
    return _need(block, key, kind, path) if key in block else default


def _load_json_object(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}")
    except ValueError as exc:           # undecodable bytes
        raise ConfigError(f"{path}: {exc}")
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return obj


def load_config(path: str) -> dict:
    return _load_json_object(path, "config")


def _load_report(path: str) -> dict:
    """A build report, checked for every field that verify reads."""
    report = _load_json_object(path, "report")
    where = f"{path}: report"
    _need(report, "n", int, where)
    for key in ("k_exact", "d_exact"):
        if key in report:
            _need(report, key, int, where)
    if "bound" in report:
        bound = _need(report, "bound", dict, where)
        if bound.get("valid"):
            _need(bound, "k_lower", int, f"{where}.bound")
            _need(bound, "d_lower", int, f"{where}.bound")
    return report


def _build_curve(cfg: dict):
    fb = _need(cfg, "field", dict, "config")
    p = _need(fb, "p", int, "config.field")
    m = _need(fb, "m", int, "config.field")
    try:
        spec = field_create(p, m)
    except ValueError as exc:
        raise ConfigError(f"config.field: {exc}")
    cb = _need(cfg, "curve", dict, "config")
    kind = _need(cb, "kind", str, "config.curve")
    if kind == "p1":
        return curve_create(P1, None, spec)
    if kind == "elliptic":
        coeffs = _need(cb, "coefficients", list, "config.curve")
        if len(coeffs) != 5 or not all(type(c) is int for c in coeffs):
            raise ConfigError("config.curve.coefficients: expected 5 integers "
                              "(a1, a2, a3, a4, a6)")
        for i, c in enumerate(coeffs):
            if not 0 <= c < spec.order:
                raise ConfigError(f"config.curve.coefficients[{i}]: {c} is not an "
                                  f"encoding 0..{spec.order - 1} of F_{spec.order}")
        try:
            return curve_create(ELLIPTIC, coeffs, spec)
        except ValueError as exc:
            raise ConfigError(f"config.curve: {exc}")
    raise ConfigError(f"config.curve.kind: unknown kind {kind!r}")


def _resolve_point(curve, sel: dict, path: str, index="index") -> ClosedPoint:
    if _opt(sel, "infinity", bool, path, False):
        return ClosedPoint(curve, 1, None, None)
    d = _need(sel, "degree", int, path)
    if d < 1:
        raise ConfigError(f"{path}.degree: must be >= 1")
    spec = curve.spec
    if not within_desk_cap(spec.p, spec.deg * d):
        raise ConfigError(f"{path}: degree-{d} points need F_{{{spec.order}^{d}}}, "
                          f"above the desk-scale cap {DESK_CAP}")
    pts = curve.closed_points(d)
    if index in sel:
        idx = _need(sel, index, int, path)
        if not 0 <= idx < len(pts):
            raise ConfigError(f"{path}.{index}: only {len(pts)} points of "
                              f"degree {d} exist")
        return pts[idx]
    x = _need(sel, "x", int, path)
    y = _opt(sel, "y", int, path, 0)
    try:
        return ClosedPoint(curve, d, x, y)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def _resolve_divisor(curve, items: list, path: str) -> DivisorOnCurve:
    out = []
    for i, sel in enumerate(items):
        if not isinstance(sel, dict):
            raise ConfigError(f"{path}[{i}]: expected an object")
        mult = _opt(sel, "multiplicity", int, f"{path}[{i}]", 1)
        if mult == 0:
            raise ConfigError(f"{path}[{i}].multiplicity: nonzero integer required")
        out.append((_resolve_point(curve, sel, f"{path}[{i}]"), mult))
    return DivisorOnCurve(curve, out)


def _build_surface(cfg: dict, curve):
    sb = _need(cfg, "surface", dict, "config")
    variant = _need(sb, "variant", str, "config.surface")
    if variant == "decomposable":
        delta = _resolve_divisor(curve, _need(sb, "delta", list, "config.surface"),
                                 "config.surface.delta")
        try:
            return surface_decomposable(curve, delta)
        except ValueError as exc:
            raise ConfigError(f"config.surface: {exc}")
    if variant == "product":
        return surface_trivial(curve)
    if variant == "elm":
        center = _need(sb, "center", dict, "config.surface")
        d = _need(center, "degree", int, "config.surface.center")
        if d < 2:
            raise ConfigError("config.surface.center.degree: must be >= 2")
        base = _resolve_point(
            curve, {"degree": d, "base_index": center.get("base_index", 0)},
            "config.surface.center", index="base_index")
        ext = extend(curve.spec, d)
        if "fiber" in center:
            fc = _need(center, "fiber", int, "config.surface.center")
            if not (0 <= fc < ext.order and ext.pow_i(fc, curve.spec.order) != fc):
                raise ConfigError(
                    f"config.surface.center.fiber: {fc} must encode an element "
                    f"of F_{{{curve.spec.order}^{d}}} (0..{ext.order - 1}) "
                    f"outside F_{curve.spec.order}")
        else:
            fi = _opt(center, "fiber_index", int, "config.surface.center", 0)
            valid = _valid_fiber_coords(ext, curve.spec)
            if not 0 <= fi < len(valid):
                raise ConfigError("config.surface.center.fiber_index: only "
                                  f"{len(valid)} valid coordinates exist")
            fc = valid[fi]
        try:
            return surface_elm_product(curve, base, fc)
        except ValueError as exc:
            raise ConfigError(f"config.surface.center: {exc}")
    raise ConfigError(f"config.surface.variant: unknown variant {variant!r}")


def _valid_fiber_coords(ext, spec):
    """The encodings of ext = F_{q^d} outside its subfield spec = F_q, in
    ascending order.  Every Frobenius orbit of F_{q^d} over F_q has a size
    dividing d, so these are the coordinates whose orbit size is >= 2 and
    divides d."""
    sub = {ext.embed_i(spec, c) for c in range(spec.order)}
    return [e for e in range(ext.order) if e not in sub]


def _build_code(cfg: dict):
    curve = _build_curve(cfg)
    surface = _build_surface(cfg, curve)
    code_block = _need(cfg, "code", dict, "config")
    a = _need(code_block, "a", int, "config.code")
    q = curve.spec.order
    if not 0 <= a <= q:
        raise ConfigError(f"config.code.a: must be in 0..q = 0..{q}, where "
                          "u^0, ..., u^a stay independent on every fiber")
    beta = _resolve_divisor(curve, _need(code_block, "beta", list, "config.code"),
                            "config.code.beta")
    tensor = _opt(code_block, "tensor", bool, "config.code", False)
    if tensor and cfg["surface"]["variant"] != "product":
        raise ConfigError('config.code.tensor: needs config.surface.variant "product"')
    try:
        if surface.variant == ELM:
            code = build_code_elm(surface, a, beta)
        else:
            code = build_code_decomposable(surface, a, beta)
    except ValueError as exc:
        raise ConfigError(f"config.code: {exc}")
    if tensor:  # C x P^1's decomposable code is PRS(a) (x) C_curve(beta)
        code.meta["family"] = "product"
    return code


def _bound_for(code) -> dict:
    meta = code.meta
    family = (bound_elm_family if meta["family"] == "elm_surface"
              else bound_decomposable_family)
    return family(code.spec.order, meta["N"], meta["g"], meta["e"],
                  meta["a"], meta["b"]).as_dict()


_TABLE_FIELDS = ["family", "params", "n", "k_lb", "k_exact", "d_lb",
                 "d_exact", "griesmer"]


def _print_table(rows, out=None):
    out = out or sys.stdout
    widths = [max(len(str(r.get(f, ""))) for r in rows + [dict(zip(_TABLE_FIELDS, _TABLE_FIELDS))])
              for f in _TABLE_FIELDS]
    header = "  ".join(f.ljust(w) for f, w in zip(_TABLE_FIELDS, widths))
    print(header, file=out)
    for r in rows:
        print("  ".join(str(r.get(f, "")).ljust(w)
                        for f, w in zip(_TABLE_FIELDS, widths)), file=out)


def cmd_build(args) -> int:
    cfg = load_config(args.config)
    code = _build_code(cfg)
    out_dir = args.out_dir
    if out_dir is None:
        output = _opt(cfg, "output", dict, "config", {})
        out_dir = _opt(output, "dir", str, "config.output", ".")
    os.makedirs(out_dir, exist_ok=True)
    analysis_block = _opt(cfg, "analysis", dict, "config", {})
    cap = _opt(analysis_block, "exact_cap", int, "config.analysis",
               EXACT_CAP_DEFAULT)
    if not 1 <= cap <= EXACT_CAP_MAX:
        raise ConfigError(f"config.analysis.exact_cap: {_cap_range(cap)}")
    locality = _opt(analysis_block, "locality", bool, "config.analysis", False)
    bound = _bound_for(code)
    report = {
        "family": code.meta["family"],
        "q": code.spec.order,
        "params": {"a": code.meta["a"], "b": code.meta["b"],
                   "N": code.meta["N"], "g": code.meta["g"],
                   "e": code.meta["e"]},
        "n": code.n,
        "k": code.k,
        "bound": bound,
    }
    try:
        n, k, d = exact_params(code, cap=cap)
        report["k_exact"] = k
        report["d_exact"] = d
        ok_g, gsum = griesmer_check(n, k, d, code.spec.order)
        report["griesmer"] = {"holds": ok_g, "sum": gsum}
        report["singleton"] = singleton_check(n, k, d)
    except CapExceededError as exc:
        report["exact_skipped"] = str(exc)
    if locality:
        ranks = list(fiber_ranks(code).values())
        report["fiber_ranks"] = ranks
        report["fibers_full_rank"] = all(r == code.meta["a"] + 1 for r in ranks)
    report["class"] = str(NumClass(code.meta["a"], code.meta["b"]))
    write_matrix(code, os.path.join(out_dir, "generator.txt"))
    write_points(code, os.path.join(out_dir, "points.txt"))
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    row = {"family": report["family"],
           "params": report["class"],
           "n": code.n, "k_lb": bound["k_lower"],
           "k_exact": report.get("k_exact", "-"),
           "d_lb": bound["d_lower"] if bound["valid"] else f"({bound['d_lower']})",
           "d_exact": report.get("d_exact", "-"),
           "griesmer": report.get("griesmer", {}).get("holds", "-")}
    _print_table([row])
    with open(os.path.join(out_dir, "table.csv"), "w") as fh:
        fh.write(",".join(_TABLE_FIELDS) + "\n")
        fh.write(",".join(str(row[f]) for f in _TABLE_FIELDS) + "\n")
    print(f"wrote generator.txt, points.txt, report.json, table.csv to {out_dir}")
    return 0


def cmd_verify(args) -> int:
    code = read_matrix(args.matrix)
    report = _load_report(args.report)
    failures = []
    n, k, d = exact_params(code, cap=args.cap)
    if k == 0:
        raise ValueError(f"{args.matrix}: the generator matrix has rank 0")
    if n != report["n"]:
        failures.append(f"length {n} != recorded {report['n']}")
    if "k_exact" in report and k != report["k_exact"]:
        failures.append(f"rank {k} != recorded k_exact {report['k_exact']}")
    if "d_exact" in report and d != report["d_exact"]:
        failures.append(f"exact distance {d} != recorded d_exact {report['d_exact']}")
    bound = report.get("bound", {})
    if bound.get("valid"):
        if k < bound["k_lower"]:
            failures.append(f"rank {k} < dimension record {bound['k_lower']}")
        if d < bound["d_lower"]:
            failures.append(f"distance {d} < distance record {bound['d_lower']}")
    ok_g, gsum = griesmer_check(n, k, d, code.spec.order)
    if not ok_g:
        failures.append(f"Griesmer violated: n = {n} < {gsum}")
    if not singleton_check(n, k, d):
        failures.append(f"Singleton violated: k + d = {k + d} > n + 1")
    row = {"family": report.get("family", "?"), "params": "",
           "n": n, "k_lb": bound.get("k_lower", "-"), "k_exact": k,
           "d_lb": bound.get("d_lower", "-"), "d_exact": d,
           "griesmer": ok_g}
    _print_table([row])
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("PASS: all checks hold")
    return 0


def cmd_segre(args) -> int:
    cfg = load_config(args.config)
    curve = _build_curve(cfg)
    surface = _build_surface(cfg, curve)
    if "code" in cfg:
        # segre uses no code, but a config that build refuses must not pass
        code_block = _need(cfg, "code", dict, "config")
        _resolve_divisor(curve, _need(code_block, "beta", list, "config.code"),
                         "config.code.beta")
    q = curve.spec.order
    N = len(curve.rational_points())
    g = curve.genus
    if curve.kind == P1:
        print("base curve P^1: Hirzebruch regime, geometric = arithmetic")
    if surface.variant == DECOMPOSABLE:
        sg, sa = segre_decomposable(surface)
        print(f"decomposable surface, e = {surface.e}: exact (s_g, s_a) = "
              f"({sg}, {sa})")
        return 0
    analysis_block = _opt(cfg, "analysis", dict, "config", {})
    dmax = _opt(analysis_block, "segre_dmax", int, "config.analysis",
                segre_dmax_default(g))
    try:
        lower, dstar = segre_lower_bound_elm(surface, dmax)
    except ValueError as exc:
        raise ConfigError(f"config.analysis.segre_dmax: {exc}")
    upper = segre_upper_bounds(g, N, q)
    reason = "2g bound with point-count refinement"
    if (upper - surface.deg_sheaf) % 2:
        upper -= 1
        reason += ", lowered by one since s_a = deg E (mod 2)"
    print(f"elm surface, center degree {surface.e}:")
    print(f"  s_a >= {lower}   (graph avoidance, d* = {dstar}, "
          f"functions of degree <= {dmax} enumerated)")
    print(f"  s_a <= {upper}   ({reason})")
    if lower == upper:
        print(f"  certified: s_a = {lower}")
    return 0


def cmd_asymptotics(args) -> int:
    q, A = args.q, args.A
    if q >= PRIME_CERT_BOUND:
        raise ValueError(f"--q {q} must be below {PRIME_CERT_BOUND}, the "
                         "bound below which primality is certified")
    if prime_power(q) is None:
        raise ValueError(f"--q {q} must be a prime power >= 2")
    if not math.isfinite(A):
        raise ValueError(f"--A {A} must be finite")
    try:
        return _asymptotics(args, q, A)
    except ValueError as exc:
        raise ValueError(f"--q {q} --A {A:g}: {exc}")


def _asymptotics(args, q: int, A: float) -> int:
    # compute everything first, so that a run that exits 2 writes no file
    t, env_delta, env_rate = envelope_product(q, A, args.samples)
    disc = figure_discrepancy(q, A)
    lo, hi, count = args.b_range
    b = lo + (hi - lo) * np.arange(count) / max(count - 1, 1)
    opt = optimized_rate(q, A, b)
    b, rate = b[opt.valid], opt.rate[opt.valid]
    table, interval = dominance_report(q, A, args.samples)
    csvs = {"product_envelope": frontier_csv("product_envelope", t, env_delta,
                                             env_rate),
            "ruled_optimized": frontier_csv("ruled_optimized", b, 1 - b, rate),
            "dominance": dominance_csv(*table)}
    os.makedirs(args.out_dir, exist_ok=True)
    for name, text in csvs.items():
        with open(os.path.join(args.out_dir, f"{name}.csv"), "w") as fh:
            fh.write(text)
    if disc is not None:
        B, fig, mismatch = disc
        if mismatch:
            print(f"note: envelope coefficient from the formula is {B:.12g} "
                  f"but the figure for q={q} shows {fig:.12g}; emitting the "
                  "formula value")
    if interval:
        print(f"ruled curve exceeds the product envelope for delta in "
              f"[{interval[0]:.6g}, {interval[1]:.6g}]")
    else:
        print("no dominance interval found")
    print(f"wrote CSV files to {args.out_dir}")
    return 0


def frontier_csv(family: str, param, delta, rate) -> str:
    """The CSV family,param,delta,rate of a frontier's arrays, param as
    str(float) and the rest as %.12g: one row template, repeated and filled
    once."""
    fields = np.column_stack([param, delta, rate]).ravel().tolist()
    return ("family,param,delta,rate\n"
            + (f"{family},%s,%.12g,%.12g\n" * len(param)) % tuple(fields))


# dominance rows by which rates they have: neither, ruled, product, both
_DOMINANCE_ROWS = ("%.12g,,\n", "%.12g,,%.12g\n", "%.12g,%.12g,\n",
                   "%.12g,%.12g,%.12g\n")


def dominance_csv(delta, r_prod, r_ruled) -> str:
    """The CSV delta,rate_product,rate_ruled of dominance_report's table,
    an undefined (NaN) rate as an empty field: one template of the rows'
    kinds, filled once."""
    cells = np.column_stack([delta, r_prod, r_ruled])
    have = ~np.isnan(cells)
    kinds = (2 * have[:, 1] + have[:, 2]).tolist()
    template = "".join([_DOMINANCE_ROWS[k] for k in kinds])
    return ("delta,rate_product,rate_ruled\n"
            + template % tuple(cells[have].tolist()))


def recovery_json(helpers, coefficients) -> str:
    """json.dumps(records, indent=2) + newline for the {target, helpers,
    coefficients} records of recovery_sets' arrays, column t's sets in
    order: one record template with %d fields, repeated and filled once."""
    n, s, r = helpers.shape
    if n * s == 0:
        return "[]\n"
    ints = "[\n      " + ",\n      ".join(["%d"] * r) + "\n    ]"
    record = (f'  {{\n    "target": %d,\n    "helpers": {ints},'
              f'\n    "coefficients": {ints}\n  }}')
    fields = np.concatenate([np.repeat(np.arange(n), s)[:, None],
                             helpers.reshape(-1, r), coefficients.reshape(-1, r)],
                            axis=1)
    return "[\n" + (",\n".join([record] * (n * s)) % tuple(fields.ravel().tolist())) + "\n]\n"


def cmd_recover(args) -> int:
    cfg = load_config(args.config)
    code = _build_code(cfg)
    try:
        sets = recovery_sets(code)
    except ValueError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    n, per, _ = sets.helpers.shape
    out = args.out or "recovery.json"
    with open(out, "w") as fh:
        fh.write(recovery_json(*sets))
    print(f"wrote {n * per} recovery sets ({per} per column) to {out}")
    q, a = code.spec.order, code.meta["a"]
    if q % (a + 1) != 0:
        print(f"note: availability is floor(q/(a+1)) = {q // (a + 1)} with "
              f"disjoint size-{a + 1} sets; the ceiling "
              f"{-(-q // (a + 1))} is not achievable disjointly")
    return 0


def _cap_range(cap: int) -> str:
    return f"{cap} must be in 1..{EXACT_CAP_MAX}"


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"invalid float value: {text!r}") from None


def _parse_cap(text: str) -> int:
    cap = _int(text)
    if not 1 <= cap <= EXACT_CAP_MAX:
        raise ValueError(_cap_range(cap))
    return cap


GRID_MAX = 10 ** 6      # largest --samples, --b-range count; the figures use 400


def _parse_samples(text: str) -> int:
    samples = _int(text)
    if samples > GRID_MAX:
        raise ValueError(f"{samples} must be at most {GRID_MAX}")
    return samples


def _parse_b_range(text: str):
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ValueError("expected lo:hi:count") from None
    if not (0 < lo < 1 and 0 < hi < 1):
        raise ValueError(f"lo {lo:g} and hi {hi:g} must lie in (0, 1)")
    if count < 1:
        raise ValueError(f"count {count} must be at least 1")
    if count > GRID_MAX:
        raise ValueError(f"count {count} must be at most {GRID_MAX}")
    return lo, hi, count


_DESCRIPTION = ("evaluation codes on ruled surfaces: build, verify, certify, "
               "recover, and asymptotics")
REQUIRED = object()     # the default of an option that must be given

# command -> (help line, positionals, {option: (converter, default)}).  A
# converter turns the option's text into its value or raises ValueError with
# the reason; a default is REQUIRED, None (left unset), or a text that the
# converter reads as it would a given value.
COMMANDS = {
    "build": ("build a code from a JSON config", (),
              {"--config": (str, REQUIRED), "--out-dir": (str, None)}),
    "verify": ("exactly verify a generator matrix against its build report",
               ("matrix",),
               {"--report": (str, REQUIRED),
                "--cap": (_parse_cap, str(EXACT_CAP_DEFAULT))}),
    "segre": ("certify Segre invariant bounds", (),
              {"--config": (str, REQUIRED)}),
    "asymptotics": ("emit (delta, R) frontier CSVs", (),
                    {"--q": (_int, REQUIRED), "--A": (_float, REQUIRED),
                     "--samples": (_parse_samples, "200"),
                     "--b-range": (_parse_b_range, "0.3:0.95:66"),
                     "--out-dir": (str, ".")}),
    "recover": ("emit recovery sets for a built code", (),
                {"--config": (str, REQUIRED), "--out": (str, None)}),
}
_HELP = ("-h", "--help")


def _metavar(option: str) -> str:
    return option[2:].upper().replace("-", "_")


def _usage(command=None) -> str:
    if command is None:
        return f"usage: ruledcodes [-h] {{{','.join(COMMANDS)}}} ..."
    _, positionals, options = COMMANDS[command]
    words = [f"usage: ruledcodes {command} [-h]"]
    for option, (_, default) in options.items():
        given = f"{option} {_metavar(option)}"
        words.append(given if default is REQUIRED else f"[{given}]")
    return " ".join(words + list(positionals))


def _print_help(command=None):
    """Print the usage and the argument list of COMMANDS, or of one
    command, to stdout and exit 0."""
    if command is None:
        text = _DESCRIPTION
        rows = [(name, entry[0]) for name, entry in COMMANDS.items()]
        rows.append(("-h, --help", "show this help message and exit; "
                                   "COMMAND -h shows a command's options"))
    else:
        text, positionals, options = COMMANDS[command]
        rows = [(name, "") for name in positionals]
        rows.append(("-h, --help", "show this help message and exit"))
        for option, (_, default) in options.items():
            rows.append((f"{option} {_metavar(option)}",
                         "required" if default is REQUIRED else
                         "" if default is None else f"default: {default}"))
    width = max(len(left) for left, _ in rows) + 2
    print(f"{_usage(command)}\n\n{text}\n\narguments:")
    for left, right in rows:
        print(f"  {left.ljust(width)}{right}".rstrip())
    raise SystemExit(0)


def _fail(command, message: str):
    """Print the usage and the error to stderr and exit 2."""
    prog = "ruledcodes" if command is None else f"ruledcodes {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _is_option(token: str) -> bool:
    """Whether token names an option rather than gives a value: it starts
    with "-" and is not a number, so that "--q -1" gives --q the value -1."""
    if token[:1] != "-" or token == "-":
        return False
    try:
        float(token)
    except ValueError:
        return True
    return False


def parse_args(argv=None) -> SimpleNamespace:
    """The namespace of argv (default sys.argv[1:]) read against COMMANDS:
    a command, then its options as "--opt value" or "--opt=value" (exact
    names only) and its positionals anywhere among them.  -h or --help
    prints the help and exits 0; anything else wrong prints the usage and
    the error to stderr and exits 2."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        _fail(None, "the following arguments are required: command")
    command = argv[0]
    if command in _HELP:
        _print_help()
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {choices})")
    _, positionals, options = COMMANDS[command]
    given, values, extra = {}, [], []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            _print_help(command)
        if not _is_option(token):
            (values if len(values) < len(positionals) else extra).append(token)
            continue
        option, eq, text = token.partition("=")
        if option not in options:
            extra.append(token)
            continue
        if not eq:
            text = next(tokens, None)
            if text is None or _is_option(text):
                _fail(command, f"argument {option}: expected one argument")
        try:
            given[option] = options[option][0](text)
        except ValueError as exc:
            _fail(command, f"argument {option}: {exc}")
    missing = list(positionals[len(values):]) + [
        option for option, (_, default) in options.items()
        if default is REQUIRED and option not in given]
    if missing:
        _fail(command, "the following arguments are required: "
                       + ", ".join(missing))
    if extra:
        _fail(command, "unrecognized arguments: " + " ".join(extra))
    args = SimpleNamespace(command=command, **dict(zip(positionals, values)))
    for option, (convert, default) in options.items():
        if option in given:
            value = given[option]
        else:
            value = None if default is None else convert(default)
        setattr(args, option[2:].replace("-", "_"), value)
    return args


def main(argv=None) -> int:
    # cmd_<command> is looked up on every call, so a replaced module
    # attribute (a tracer's wrapper, a test's spy) is the one called
    args = parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
