import re

import pytest
from hypothesis import given, settings, strategies as st

from ruledcodes.asymptotics import (envelope_coefficient, envelope_product,
                                    figure_discrepancy,
                                    ruled_limit_params, balanced_d,
                                    optimized_rate, dominance_report,
                                    write_frontier_csv, FrontierPoint)

import asymptotics_oracle as oracle


def test_envelope_coefficient_q16():
    assert abs(envelope_coefficient(16, 3) - 36 / 51) < 1e-12


def test_envelope_coefficient_q49_vs_figure():
    B = envelope_coefficient(49, 6)
    assert abs(B - 51 / 60) < 1e-12
    disc = figure_discrepancy(49, 6.0)
    assert disc is not None
    _, fig, mismatch = disc
    assert abs(fig - 49 / 60) < 1e-12
    assert mismatch
    # the q=16 figure matches the formula exactly
    _, _, mismatch16 = figure_discrepancy(16, 3.0)
    assert not mismatch16


def test_envelope_endpoints():
    pts = envelope_product(16, 3, 11)
    B = envelope_coefficient(16, 3)
    assert (pts[0].delta, pts[0].rate) == (0.0, B)
    assert abs(pts[-1].delta - B) < 1e-12 and pts[-1].rate == 0.0


def test_envelope_rejects_bad_A():
    with pytest.raises(ValueError):
        envelope_product(16, 1.0, 10)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1000))
def test_envelope_points_on_tangent_lines(i):
    # each envelope point lies on the line of the family it envelopes:
    # tau x + (c - tau) y = tau (c - tau)(1 - 1/A) with tau = (1 - t) c
    q, A = 16, 3
    t = i / 1000
    B = envelope_coefficient(q, A)
    x, y = B * t * t, B * (1 - t) ** 2
    c = 1 + 1 / (q + 1)
    tau = (1 - t) * c
    residual = tau * x + (c - tau) * y - tau * (c - tau) * (1 - 1 / A)
    assert abs(residual) < 1e-9


def test_envelope_range_invariants():
    for pt in envelope_product(49, 6, 101):
        assert 0 <= pt.delta <= 1 and 0 <= pt.rate <= 1


def test_ruled_limit_balanced_d_equalizes_branches():
    q, A, a, b = 16, 3, 0.4, 0.7
    d = balanced_d(q, a, b)
    fp = ruled_limit_params(q, A, a, b, d)
    assert abs(fp.delta - (1 - b)) < 1e-12
    m = fp.params["m"]
    assert abs(m - a) < 1e-12
    assert abs((1 - m) * (1 - b + (q + 1) * m * d) - (1 - b)) < 1e-12


def test_ruled_limit_a0_collapse():
    fp = ruled_limit_params(16, 3, 0.0, 0.7, 0.01)
    assert abs(fp.rate - (1 / 17) * (0.7 - 1 / 3)) < 1e-12
    assert abs(fp.delta - 0.3) < 1e-12


def test_ruled_limit_d_to_zero():
    # with a = 0 the limit delta is 1 - b
    for d in (1e-3, 1e-6, 0.0):
        fp = ruled_limit_params(16, 3, 0.0, 0.6, d)
        assert abs(fp.delta - 0.4) < 1e-9


def test_ruled_limit_discrete_floor_mode():
    fp_cont = ruled_limit_params(16, 3, 0.5, 0.7, 0.01)
    fp_disc = ruled_limit_params(16, 3, 0.5, 0.7, 0.01, discrete_floor=True)
    assert fp_disc.params["m"] <= fp_cont.params["m"] + 1e-12


def test_ruled_limit_domain_errors():
    with pytest.raises(ValueError):
        ruled_limit_params(16, 3, 1.5, 0.7, 0.01)
    with pytest.raises(ValueError):
        ruled_limit_params(16, 1.0, 0.5, 0.7, 0.01)


@pytest.mark.parametrize("q,A", [(16, 3), (49, 6)])
@pytest.mark.parametrize("b", [0.5, 0.6, 0.7, 0.8])
def test_optimized_rate_matches_golden_section(q, A, b):
    r = optimized_rate(q, A, b)
    a_num, rate_num = oracle.numeric_optimum(q, A, b)
    assert abs(r.a0 - a_num) <= 1e-6
    assert abs(r.rate - rate_num) <= 1e-6
    assert r.valid
    assert r.point.delta == 1 - b


def test_optimized_rate_reproduced_by_limit_params():
    q, A, b = 16, 3, 0.7
    r = optimized_rate(q, A, b)
    fp = ruled_limit_params(q, A, r.a0, b, balanced_d(q, r.a0, b))
    assert abs(fp.rate - r.rate) < 1e-9
    assert abs(fp.delta - (1 - b)) < 1e-12


def test_optimized_rate_requires_A_above_2():
    with pytest.raises(ValueError):
        optimized_rate(16, 1.5, 0.7)
    with pytest.raises(ValueError):
        optimized_rate(16, 2.0, 0.7)


def test_optimized_rate_b_near_one():
    r = optimized_rate(16, 3, 1 - 1e-9)
    assert abs(r.a0 - 1) < 1e-3


@pytest.mark.parametrize("q,A", [(16, 3), (49, 6)])
def test_dominance_interval_nonempty(q, A):
    rows, interval = dominance_report(q, A, 120)
    assert interval is not None
    lo, hi = interval
    assert lo < hi
    strict = [r for r in rows if r[1] is not None and r[2] is not None
              and r[2] > r[1] + 1e-12]
    assert strict


def test_dominance_handles_incomparable_points():
    rows, _ = dominance_report(16, 3, 120)
    assert all(len(r) == 3 for r in rows)


def test_frontier_point_range_validation():
    with pytest.raises(ValueError, match="delta = 1.5 outside"):
        FrontierPoint(1.5, 0.2, "bogus")
    with pytest.raises(ValueError, match="rate = nan outside"):
        FrontierPoint(0.5, float("nan"), "bogus")


def test_csv_output(tmp_path):
    pts = envelope_product(16, 3, 5)
    path = tmp_path / "frontier.csv"
    write_frontier_csv(pts, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "family,param,delta,rate"
    assert len(lines) == 6
    assert lines[1].startswith("product_envelope,")


def _grid(lo, hi, count):
    return [lo + (hi - lo) * i / max(count - 1, 1) for i in range(count)]


# q beyond 2^63 too, where (q + 1) and (q + 2) round to the same float
@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 4, 16, 49, 64, 10 ** 14 + 31, 2 ** 61 - 1,
                        10 ** 20 + 39]),
       st.floats(2.0, 1e6, exclude_min=True),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_closed_form_matches_oracle_search(q, A, b):
    try:
        r = optimized_rate(q, A, b)
    except ValueError as exc:
        # small q, large A, b near 1: the maximal rate exceeds 1, and the
        # search finds a rate above 1 as well
        assert re.search(r"ruled_optimized point has rate = \S+ outside", str(exc))
        assert oracle.numeric_optimum(q, A, b)[1] > 1
        return
    assert r.point.delta == 1 - b and r.point.rate == max(r.rate, 0.0)
    assert r.valid == oracle.a0_in_range(q, A, b)
    if not r.valid:
        assert r.reason.startswith(f"a0 = {r.a0:.6f} falls outside")
        return
    a_num, rate_num = oracle.numeric_optimum(q, A, b)
    assert abs(r.a0 - a_num) <= 1e-6
    assert abs(r.rate - rate_num) <= 1e-6


@pytest.mark.parametrize("q, A, samples", [(16, 3, 400), (49, 6, 400),
                                           (64, 7, 1000)])
def test_grids_equal_scalar_oracle(q, A, samples):
    # the ruled grid of the CLI and the dominance table agree with the
    # search to 1e-6 and 1e-9, and the dominance interval is the same
    for b in _grid(0.3, 0.98, 120):
        r = optimized_rate(q, A, b)
        assert r.valid == oracle.a0_in_range(q, A, b)
        if r.valid:
            assert abs(r.point.rate - oracle.numeric_optimum(q, A, b)[1]) <= 1e-6
    rows, interval = dominance_report(q, A, samples)
    expected_rows, expected_interval = oracle.dominance_report(q, A, samples)
    assert interval == expected_interval
    assert len(rows) == len(expected_rows)
    for (delta, r_prod, r_ruled), (e_delta, e_prod, e_ruled) in zip(rows, expected_rows):
        assert (delta, r_prod) == (e_delta, e_prod)
        assert (r_ruled is None) == (e_ruled is None)
        if r_ruled is not None:
            assert abs(r_ruled - e_ruled) <= 1e-9


def test_optimized_rate_domain_errors():
    for A in (1.5, 2.0):
        with pytest.raises(ValueError, match="A must exceed 2"):
            optimized_rate(16, A, 0.5)
    for bad in (0.0, 1.0, -0.2, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"b must lie in \(0, 1\)"):
            optimized_rate(16, 3, bad)
    # q = 2, A = 1e6: the maximal rate exceeds 1 for b near 1
    with pytest.raises(ValueError, match="rate = 1.16877"):
        optimized_rate(2, 1e6, 0.99)
    assert oracle.numeric_optimum(2, 1e6, 0.99)[1] > 1
