"""Fiber and section restrictions checked by elimination: the code on one
fiber against PRS(a) as row spaces, and a section restriction against the
base-curve code it should lie in.  locality.fiber_ranks and the recovery
sets are compared against them."""

from ruledcodes import linalg
from ruledcodes.codes import LinearCode, build_curve_code, build_prs
from ruledcodes.locality import _fibers, restriction_section


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
                                  and linalg.row_space_equal(code.spec, rows,
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
    return linalg.row_space_contains(code.spec, outer.matrix, sub.matrix)
