"""Fiber and section restrictions checked by elimination: the code on one
fiber against PRS(a) as row spaces, and a section restriction against the
base-curve code it should lie in.  locality.fiber_ranks and the recovery
sets are compared against them, and the recovery arrays against the
per-target loop they replaced."""

from ruledcodes import linalg
from ruledcodes.codes import LinearCode, build_curve_code, build_prs
from ruledcodes.locality import _fibers, _lagrange_weights, restriction_section
from ruledcodes.surface import INFTY
from linalg_oracle import row_space_contains, row_space_equal


def restriction_fiber(code, p):
    """The code restricted to the q+1 columns of the fiber over p.

    meta carries the rank and whether the restriction equals PRS(a) as row
    spaces (the computational surrogate for the cohomological surjectivity
    condition).
    """
    idx = _fibers(code).get(p)
    if not idx:
        raise ValueError(f"{p!r} is not a base point of the code's point index")
    rows = [[row[i] for i in idx] for row in code.matrix]
    a = code.meta.get("a")
    sub = LinearCode(code.spec, rows, [code.columns[i] for i in idx],
                     {"family": "fiber_restriction", "a": a, "base": p})
    rk = linalg.rank(code.spec, rows)
    sub.meta["rank"] = rk
    if a is not None:
        assert rk <= a + 1, "fiber restriction rank exceeds a + 1"
        prs = build_prs(code.spec, a)
        sub.meta["equals_prs"] = (rk == a + 1
                                  and row_space_equal(code.spec, rows,
                                                             prs.matrix))
    return sub


def section_restriction_contained(code, section_spec) -> bool:
    """Row-space containment of the section restriction in the stated
    base-curve code (raises if the expected divisor is unknown)."""
    sub = restriction_section(code, section_spec)
    expected = sub.meta.get("expected_divisor")
    if expected is None:
        raise ValueError("no expected base-curve divisor for this section")
    outer = build_curve_code(code.meta["curve"], expected)
    return row_space_contains(code.spec, outer.matrix, sub.matrix)


def recovery_sets_by_target(code):
    """{column t: [(helpers, coefficients)] of its floor(q/(a+1)) sets}, one
    target at a time: the rest of t's fiber in canonical order (affine
    coordinates ascending, infinity last), chunked into a+1 helpers, with
    the Lagrange weights of each chunk."""
    spec, r = code.spec, code.meta["a"] + 1

    def canonical(i):
        u = code.columns[i][1]
        return (u == INFTY, 0 if u == INFTY else u)

    fibers = {p: sorted(idx, key=canonical) for p, idx in _fibers(code).items()}
    out = {}
    for t, (p, u_t) in enumerate(code.columns):
        others = [i for i in fibers[p] if i != t]
        chunks = [others[j * r:(j + 1) * r] for j in range(spec.order // r)]
        out[t] = [(chunk, list(_lagrange_weights(
            spec, [code.columns[i][1] for i in chunk], u_t))) for chunk in chunks]
    return out
