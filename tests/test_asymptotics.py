import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ruledcodes.asymptotics import (envelope_coefficient, envelope_product,
                                    figure_discrepancy, check_frontier,
                                    optimized_rate, dominance_report)
from ruledcodes.cli import dominance_csv, frontier_csv

import asymptotics_oracle as oracle
from asymptotics_oracle import ruled_limit_params


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
    t, delta, rate = envelope_product(16, 3, 11)
    B = envelope_coefficient(16, 3)
    assert (t[0], delta[0], rate[0]) == (0.0, 0.0, B)
    assert t[-1] == 1.0 and abs(delta[-1] - B) < 1e-12 and rate[-1] == 0.0


def test_envelope_equals_the_scalar_formula():
    # the array expression keeps the scalar operation order: same floats
    B = envelope_coefficient(49, 6)
    t, delta, rate = envelope_product(49, 6, 401)
    for i in range(401):
        ti = i / 400
        assert (t[i], delta[i], rate[i]) == (ti, B * ti * ti,
                                             B * (1 - ti) * (1 - ti))


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
    _, delta, rate = envelope_product(49, 6, 101)
    assert ((0 <= delta) & (delta <= 1) & (0 <= rate) & (rate <= 1)).all()


def test_ruled_limit_balanced_d_equalizes_branches():
    q, A, a, b = 16, 3, 0.4, 0.7
    d = oracle.balanced_d(q, a, b)
    fp = ruled_limit_params(q, A, a, b, d)
    assert abs(fp.delta - (1 - b)) < 1e-12
    m = fp.m
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
    assert fp_disc.m <= fp_cont.m + 1e-12


def test_ruled_limit_domain_errors():
    with pytest.raises(ValueError):
        ruled_limit_params(16, 3, 1.5, 0.7, 0.01)
    with pytest.raises(ValueError):
        ruled_limit_params(16, 1.0, 0.5, 0.7, 0.01)


@pytest.mark.parametrize("q,A", [(16, 3), (49, 6)])
@pytest.mark.parametrize("b", [0.5, 0.6, 0.7, 0.8])
def test_optimized_rate_matches_golden_section(q, A, b):
    r = optimized_rate(q, A, [b])
    a_num, rate_num = oracle.numeric_optimum(q, A, b)
    assert abs(r.a0[0] - a_num) <= 1e-6
    assert abs(r.rate[0] - rate_num) <= 1e-6
    assert r.valid.tolist() == [True]


def test_optimized_rate_reproduced_by_limit_params():
    q, A, b = 16, 3, 0.7
    r = optimized_rate(q, A, [b])
    a0 = float(r.a0[0])
    fp = ruled_limit_params(q, A, a0, b, oracle.balanced_d(q, a0, b))
    assert abs(fp.rate - r.rate[0]) < 1e-9
    assert abs(fp.delta - (1 - b)) < 1e-12


def test_optimized_rate_requires_A_above_2():
    with pytest.raises(ValueError):
        optimized_rate(16, 1.5, [0.7])
    with pytest.raises(ValueError):
        optimized_rate(16, 2.0, [0.7])
    # an empty grid asks nothing, as a loop over it would not
    assert optimized_rate(16, 1.5, []).rate.size == 0


def test_optimized_rate_b_near_one():
    r = optimized_rate(16, 3, [1 - 1e-9])
    assert abs(r.a0[0] - 1) < 1e-3


@pytest.mark.parametrize("q, A", [(16, 3), (2, 3), (4, 2.1), (10 ** 20 + 39, 7.5)])
def test_optimized_rate_equals_the_scalar_formulas(q, A):
    # same operation order, so the same floats as one b at a time
    b = 0.3 + 0.68 * np.arange(120) / 119
    grid = optimized_rate(q, A, b)
    for i, bi in enumerate(b.tolist()):
        a0, r_max = oracle.closed_form(q, A, bi)
        assert (grid.a0[i], grid.rate[i], grid.valid[i]) == (a0, r_max,
                                                             0 <= a0 <= bi)


def test_optimized_rate_errors_in_grid_order():
    # q = 2, A = 1e6: the rate at b = 0.99 exceeds 1, before b = 1.5 and
    # after b = 0.5; b = 1.5 comes first in the second grid
    with pytest.raises(ValueError, match="ruled_optimized point has rate = 1.16877"):
        optimized_rate(2, 1e6, [0.5, 0.99, 1.5])
    with pytest.raises(ValueError, match=r"b must lie in \(0, 1\)"):
        optimized_rate(2, 1e6, [0.5, 1.5, 0.99])


@pytest.mark.parametrize("q,A", [(16, 3), (49, 6)])
def test_dominance_interval_nonempty(q, A):
    (delta, r_prod, r_ruled), interval = dominance_report(q, A, 120)
    assert interval is not None
    lo, hi = interval
    assert lo < hi
    strict = r_ruled > r_prod + 1e-12
    assert strict.any()
    assert (lo, hi) == (delta[strict].min(), delta[strict].max())


def test_dominance_handles_incomparable_points():
    # a0 > b at the largest delta: those rows have no ruled rate and are
    # never compared
    for q, A, undefined in ((16, 3, 9), (4, 2.1, 29), (2, 3, 42)):
        table, interval = dominance_report(q, A, 120)
        delta, r_prod, r_ruled = table
        assert all(len(col) == 119 for col in table)
        assert not np.isnan(r_prod).any() and np.isnan(r_ruled).sum() == undefined
        assert interval[1] < delta[np.isnan(r_ruled)].min()


def test_frontier_point_range_validation():
    with pytest.raises(ValueError, match="bogus point has delta = 1.5 outside"):
        check_frontier("bogus", np.array([0.5, 1.5]), np.array([0.2, 0.2]))
    with pytest.raises(ValueError, match="rate = nan outside"):
        check_frontier("bogus", np.array([0.5]), np.array([float("nan")]))
    # the first offending point, and its delta before its rate
    with pytest.raises(ValueError, match="rate = 2 outside"):
        check_frontier("bogus", np.array([0.5, 1.5]), np.array([2.0, 0.2]))
    with pytest.raises(ValueError, match="delta = -0.5 outside"):
        check_frontier("bogus", np.array([0.5, -0.5]), np.array([0.5, 3.0]))
    check_frontier("bogus", np.array([0.0, 1 + 1e-13]), np.array([-1e-13, 1.0]))


def test_csv_output():
    t, delta, rate = envelope_product(16, 3, 5)
    lines = frontier_csv("product_envelope", t, delta, rate).strip().split("\n")
    assert lines[0] == "family,param,delta,rate"
    assert len(lines) == 6
    assert lines[1].startswith("product_envelope,")


def test_csv_templates_match_one_row_at_a_time():
    # the per-row f-strings of the scalar writers, on arrays with and
    # without undefined rates
    rng = np.random.default_rng(3)
    cols = rng.random((3, 50)) ** 7
    cols[1:, rng.random(50) < 0.3] = np.nan
    cols[2, rng.random(50) < 0.3] = np.nan
    param, delta, rate = cols[0], cols[0] / 3, np.nan_to_num(cols[1])
    expected = "family,param,delta,rate\n" + "".join(
        f"fam,{p},{d:.12g},{r:.12g}\n"
        for p, d, r in zip(param.tolist(), delta.tolist(), rate.tolist()))
    assert frontier_csv("fam", param, delta, rate) == expected

    def cell(v):
        return "" if np.isnan(v) else format(v, ".12g")
    expected = "delta,rate_product,rate_ruled\n" + "".join(
        f"{d:.12g},{cell(rp)},{cell(rr)}\n" for d, rp, rr in zip(*cols.tolist()))
    assert dominance_csv(*cols) == expected
    assert frontier_csv("fam", *np.empty((3, 0))) == "family,param,delta,rate\n"
    assert dominance_csv(*np.empty((3, 0))) == "delta,rate_product,rate_ruled\n"


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
        r = optimized_rate(q, A, [b])
    except ValueError as exc:
        # small q, large A, b near 1: the maximal rate exceeds 1, and the
        # search finds a rate above 1 as well
        assert re.search(r"ruled_optimized point has rate = \S+ outside", str(exc))
        assert oracle.numeric_optimum(q, A, b)[1] > 1
        return
    assert (r.a0[0], r.rate[0]) == oracle.closed_form(q, A, b)
    assert r.valid[0] == oracle.a0_in_range(q, A, b)
    if not r.valid[0]:
        assert not 0 <= r.a0[0] <= b
        return
    a_num, rate_num = oracle.numeric_optimum(q, A, b)
    assert abs(r.a0[0] - a_num) <= 1e-6
    assert abs(r.rate[0] - rate_num) <= 1e-6


@pytest.mark.parametrize("q, A, samples", [(16, 3, 400), (49, 6, 400),
                                           (64, 7, 1000)])
def test_grids_equal_scalar_oracle(q, A, samples):
    # the ruled grid of the CLI and the dominance table agree with the
    # search to 1e-6 and 1e-9, and the dominance interval is the same
    grid = _grid(0.3, 0.98, 120)
    r = optimized_rate(q, A, grid)
    for b, rate, valid in zip(grid, r.rate.tolist(), r.valid.tolist()):
        assert valid == oracle.a0_in_range(q, A, b)
        if valid:
            assert abs(rate - oracle.numeric_optimum(q, A, b)[1]) <= 1e-6
    (deltas, r_prods, r_ruleds), interval = dominance_report(q, A, samples)
    expected_rows, expected_interval = oracle.dominance_report(q, A, samples)
    assert interval == expected_interval
    assert len(deltas) == len(expected_rows)
    rows = zip(deltas.tolist(), r_prods.tolist(), r_ruleds.tolist())
    for (delta, r_prod, r_ruled), (e_delta, e_prod, e_ruled) in zip(rows, expected_rows):
        assert (delta, r_prod) == (e_delta, e_prod)
        assert np.isnan(r_ruled) == (e_ruled is None)
        if e_ruled is not None:
            assert abs(r_ruled - e_ruled) <= 1e-9


def test_optimized_rate_domain_errors():
    for A in (1.5, 2.0):
        with pytest.raises(ValueError, match="A must exceed 2"):
            optimized_rate(16, A, [0.5])
    for bad in (0.0, 1.0, -0.2, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"b must lie in \(0, 1\)"):
            optimized_rate(16, 3, [0.5, bad])
    # q = 2, A = 1e6: the maximal rate exceeds 1 for b near 1
    with pytest.raises(ValueError, match="rate = 1.16877"):
        optimized_rate(2, 1e6, [0.99])
    assert oracle.numeric_optimum(2, 1e6, 0.99)[1] > 1
