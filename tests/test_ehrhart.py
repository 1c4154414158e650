from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrpos import ehrhart
from ehrpos.codes import gs_lower_bound
from ehrpos.ehrhart import (
    PROVENANCES,
    CounterexampleReport,
    count_points_uniform,
    counterexample_inequality,
    counterexample_inequality_strong9,
    ehr_minimal,
    ehr_minimal_shifted,
    ehr_sparse,
    ehr_uniform,
    ehr_uniform_coeff,
    intermediate_bound_quad,
    lower_bound_quad,
    quad_coeff_minimal_shifted,
    rank2_poly,
    search_cells,
    search_counterexamples,
    upper_bound_quad_uniform,
    verify_rank2_inequalities,
)
from ehrpos.errors import BudgetExceededError
from ehrpos.matroid import circuit_hyperplane_bound
from ehrpos.ratpoly import Polynomial, binom_poly, binomial, poly_shift

# transition points of the harmonic inequality, found by stepping n upward
# and confirming it stays true just above each
INEQUALITY_THRESHOLDS = {3: 10439, 4: 182, 5: 62, 6: 40, 7: 32, 8: 29}


def brute_count_uniform(k: int, n: int, t: int) -> int:
    if n == 0:
        return 1
    total = 0
    for x in product(range(t + 1), repeat=n):
        if sum(x) == k * t:
            total += 1
    return total


def test_count_points_uniform_brute_force() -> None:
    for n in range(1, 6):
        for k in range(1, n):
            for t in range(4):
                assert count_points_uniform(k, n, t) == brute_count_uniform(k, n, t)


def _ref_count_points_uniform(k: int, n: int, t: int) -> int:
    # the unsymmetrised inclusion-exclusion at rank k, every binomial fresh
    total = 0
    for j in range(n + 1):
        arg = k * t - j * (t + 1) + n - 1
        if arg < n - 1:
            break
        total += (-1) ** j * binomial(n, j) * binomial(arg, n - 1)
    return total


def test_count_points_uniform_matches_unsymmetrised_series() -> None:
    for n in range(2, 31):
        for k in range(1, n):
            for t in range(n + 1):
                assert count_points_uniform(k, n, t) == _ref_count_points_uniform(k, n, t)


def test_count_points_uniform_values() -> None:
    assert count_points_uniform(2, 4, 1) == 6
    assert count_points_uniform(1, 3, 2) == 6
    assert count_points_uniform(3, 6, 0) == 1


def test_ehr_uniform_small() -> None:
    assert ehr_uniform(1, 3).coeffs == (1, Fraction(3, 2), Fraction(1, 2))
    assert ehr_uniform(1, 2).coeffs == (1, 1)
    # hypersimplex polynomials evaluate back onto the counts
    for n in range(2, 8):
        for k in range(1, n):
            p = ehr_uniform(k, n)
            assert p.degree == n - 1
            for t in range(n + 2):
                assert p(t) == count_points_uniform(k, n, t)


def test_ehr_uniform_degenerate_ranks() -> None:
    # a point polytope: interpolating n counts of 1 gives the constant 1
    for n in range(1, 31):
        assert ehr_uniform(0, n) == ehr_uniform(n, n) == Polynomial([1]), n
    with pytest.raises(ValueError):
        ehr_uniform(6, 5)
    with pytest.raises(ValueError):
        ehr_uniform(-1, 5)


def test_ehr_uniform_symmetry() -> None:
    # x -> 1 - x maps the (k, n) hypersimplex onto the (n-k, n) one
    for n in range(2, 15):
        for k in range(1, n // 2 + 1):
            assert ehr_uniform(k, n) == ehr_uniform(n - k, n)


def test_ehr_minimal_symmetry() -> None:
    # duality flips the rank of the minimal matroid the same way
    for n in range(3, 15):
        for k in range(1, n):
            assert ehr_minimal(k, n) == ehr_minimal(n - k, n)


def test_ehr_minimal_values() -> None:
    # rank 1: the minimal matroid is the uniform one
    for n in range(2, 8):
        assert ehr_minimal(1, n) == ehr_uniform(1, n)
    p = ehr_minimal(2, 3)
    assert p.coeffs == (1, Fraction(3, 2), Fraction(1, 2))


def minimal_series_reference(k: int, n: int) -> Polynomial:
    """Ferroni's formula summed term by term as Polynomials: the
    binom_poly(j, j) terms, times binom_poly(n-k, n-k), over C(n-1, k-1)."""
    series = Polynomial([])
    for j in range(k):
        series = series + binomial(n - k - 1 + j, j) * binom_poly(j, j)
    return binom_poly(n - k, n - k) * series * Fraction(1, binomial(n - 1, k - 1))


def test_ehr_minimal_matches_series_reference() -> None:
    for n in range(2, 25):
        for k in range(1, n):
            assert ehr_minimal(k, n) == minimal_series_reference(k, n)
    assert ehr_minimal(2, 150) == minimal_series_reference(2, 150)


def test_ehr_minimal_shifted_is_shift() -> None:
    for n, k in [(n, k) for n in range(2, 25) for k in range(1, n)] + [(150, 2)]:
        shifted = ehr_minimal_shifted(k, n)
        assert shifted == poly_shift(minimal_series_reference(k, n), -1)
        assert shifted.coeff(0) == 0 or (k, n) == (1, 2)
        assert all(c > 0 for c in shifted.coeffs[1:])


@pytest.mark.parametrize("k", [0, 5])
@pytest.mark.parametrize("build", [ehr_minimal, ehr_minimal_shifted])
def test_ehr_minimal_rank_out_of_range(build, k: int) -> None:
    with pytest.raises(ValueError, match=rf"^need 1 <= k <= n - 1, got \(k, n\) = \({k}, 5\)$"):
        build(k, 5)


def test_ehr_minimal_shifted_raises_on_a_negative_coefficient(monkeypatch) -> None:
    monkeypatch.setattr(ehrhart, "_minimal_at", lambda k, n, s: Polynomial([0, -1, 1]))
    ehr_minimal_shifted.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="negative coefficient"):
            ehr_minimal_shifted(2, 5)
    finally:
        ehr_minimal_shifted.cache_clear()


def test_ehr_sparse_basics() -> None:
    for n in range(2, 9):
        for k in range(1, n):
            for lam in range(min(3, circuit_hyperplane_bound(n, k)) + 1):
                p = ehr_sparse(n, k, lam)
                assert p(0) == 1
                assert p(1) == binomial(n, k) - lam
                assert p.coeffs[-1] > 0
                if p.degree >= 1:
                    assert p.coeffs[-2] > 0
                    assert p(-1) == 0


def test_ehr_sparse_telescopes() -> None:
    shifted = ehr_minimal_shifted(3, 7)
    for lam in range(1, circuit_hyperplane_bound(7, 3) + 1):
        assert ehr_sparse(7, 3, lam) == ehr_sparse(7, 3, lam - 1) - shifted
    # lambda = 0 runs the master formula too, with nothing subtracted
    for n in range(2, 21):
        for k in range(1, n):
            assert ehr_sparse(n, k, 0) == ehr_uniform(k, n), (n, k)


def test_ehr_sparse_duality() -> None:
    for n in range(2, 21):
        for k in range(1, n // 2 + 1):
            lam = min(circuit_hyperplane_bound(n, k), circuit_hyperplane_bound(n, n - k), 5)
            assert ehr_sparse(n, k, lam) == ehr_sparse(n, n - k, lam)


def test_ehr_sparse_lambda_monotonicity() -> None:
    for n in (6, 9, 12):
        k = n // 2
        prev = ehr_sparse(n, k, 0)
        for lam in range(1, min(8, circuit_hyperplane_bound(n, k)) + 1):
            cur = ehr_sparse(n, k, lam)
            assert all(
                cur.coeff(i) <= prev.coeff(i) for i in range(n)
            )
            prev = cur


def test_ehr_sparse_lambda_out_of_range() -> None:
    with pytest.raises(ValueError, match="circuit-hyperplane count is capped at 2"):
        ehr_sparse(4, 2, 3)
    with pytest.raises(ValueError):
        ehr_sparse(4, 2, -1)
    with pytest.raises(ValueError):
        ehr_sparse(4, 4, 0)


def test_top_and_linear_coefficients_stay_positive() -> None:
    # the third- and fourth-highest coefficients and the linear one stay
    # positive even on counterexamples
    p = ehr_sparse(20, 9, 8398)
    for i in (1, 16, 17, 18, 19):
        assert p.coeff(i) > 0
    assert p.coeff(2) < 0 and p.coeff(3) < 0
    # low dimension forces full positivity
    for n in range(2, 8):
        for k in range(1, n):
            for lam in range(min(3, circuit_hyperplane_bound(n, k)) + 1):
                q = ehr_sparse(n, k, lam)
                assert all(c >= 0 for c in q.coeffs)


def test_quad_coeff_closed_form_matches_polynomial() -> None:
    for n in range(4, 26):
        for k in range(2, n - 1):
            assert quad_coeff_minimal_shifted(k, n) == ehr_minimal_shifted(k, n).coeff(2)
    assert quad_coeff_minimal_shifted(2, 5) == ehr_minimal_shifted(2, 5).coeff(2)
    assert quad_coeff_minimal_shifted(9, 20) == ehr_minimal_shifted(9, 20).coeff(2)


def test_quad_bound_sandwich() -> None:
    for n in range(4, 26):
        for k in range(2, n - 1):
            assert lower_bound_quad(k, n) <= quad_coeff_minimal_shifted(k, n)
            u2 = ehr_uniform(k, n).coeff(2)
            mid = intermediate_bound_quad(k, n)
            assert u2 <= mid <= upper_bound_quad_uniform(k, n)


def test_quad_bound_preconditions() -> None:
    for fn in (lower_bound_quad, upper_bound_quad_uniform, intermediate_bound_quad,
               quad_coeff_minimal_shifted):
        with pytest.raises(ValueError):
            fn(1, 5)
        with pytest.raises(ValueError):
            fn(4, 5)


def test_single_coefficient_path() -> None:
    # Katzman's truncated products against the interpolated polynomial
    for n in range(2, 16):
        for k in range(1, n):
            p = ehr_uniform(k, n)
            for m in range(n):
                assert ehr_uniform_coeff(k, n, m) == p.coeff(m)
    for k, n in ((4, 21), (5, 40)):
        p = ehr_uniform(k, n)
        for m in (0, 1, 2, 3, n - 2, n - 1):
            assert ehr_uniform_coeff(k, n, m) == p.coeff(m)
    with pytest.raises(ValueError):
        ehr_uniform_coeff(2, 9, 9)
    with pytest.raises(ValueError):
        ehr_uniform_coeff(0, 9, 1)


def test_single_coefficient_large_n_spot() -> None:
    # degree-100 instance stays exact and fast
    p = ehr_uniform(3, 100)
    assert ehr_uniform_coeff(3, 100, 2) == p.coeff(2)


def test_counterexample_inequality_known_points() -> None:
    assert counterexample_inequality(3, 10439)
    assert not counterexample_inequality(3, 10438)
    assert not counterexample_inequality(3, 100)
    with pytest.raises(ValueError):
        counterexample_inequality(1, 10)
    with pytest.raises(ValueError):
        counterexample_inequality(9, 10)


def test_counterexample_inequality_thresholds() -> None:
    for k, n0 in INEQUALITY_THRESHOLDS.items():
        if k == 3:
            continue  # covered above, at n = 10438 and 10439
        assert not counterexample_inequality(k, n0 - 1)
        assert counterexample_inequality(k, n0)
        assert counterexample_inequality(k, n0 + 1)


def test_inequality_implies_negative_quadratic() -> None:
    # what the inequality is for: at each threshold the residue-class
    # construction has negative quadratic coefficient
    for k, n0 in INEQUALITY_THRESHOLDS.items():
        if k == 3:
            continue  # degree 10438; the n = 3589 case is covered elsewhere
        lam = gs_lower_bound(n0, k)
        c2 = ehr_uniform_coeff(k, n0, 2) - lam * quad_coeff_minimal_shifted(k, n0)
        assert c2 < 0


def test_strong9_variant() -> None:
    # the verdict turns at n = 55 and stays
    verdicts = {n: counterexample_inequality_strong9(n) for n in range(2, 601)}
    assert [n for n, v in verdicts.items() if not v] == list(range(2, 55))
    with pytest.raises(ValueError):
        counterexample_inequality_strong9(1)


def test_log_bounds_bracket_the_log() -> None:
    # the float log is off by half an ulp, and at n = 2 the bounds are tight
    for n in (2, 3, 55, 1024, 3589, 10**9 + 7):
        widths = []
        for terms in (1, 2, 4, 8, 16, 32, 64):
            lo, hi = ehrhart._log_bounds(n, terms)
            assert lo <= math.log(n) + 1e-12 and math.log(n) - 1e-12 <= hi, (n, terms)
            widths.append(hi - lo)
        assert all(a > b > 0 for a, b in zip(widths, widths[1:])), n


def test_rank2_poly_matches_master_formula() -> None:
    for n in range(3, 40):
        expected = ehr_uniform(2, n) - (n // 2) * ehr_minimal_shifted(2, n)
        assert rank2_poly(n) == expected
    with pytest.raises(ValueError):
        rank2_poly(2)


def test_rank2_poly_positive() -> None:
    for n in range(3, 61):
        assert all(c > 0 for c in rank2_poly(n).coeffs)


def test_verify_rank2_inequalities() -> None:
    assert verify_rank2_inequalities(150)
    with pytest.raises(BudgetExceededError, match=r"n_max = 2001 \(max 2000\)"):
        verify_rank2_inequalities(2001)


def test_report_build_and_flags() -> None:
    r = CounterexampleReport.build(20, 9, 8398, "gs-bound")
    assert r.negative_coefficient_indices == (2, 3)
    assert not r.is_ehrhart_positive
    assert r.ehrhart == ehr_sparse(20, 9, 8398)
    ok = CounterexampleReport.build(6, 3, 2, "user")
    assert ok.is_ehrhart_positive
    assert ok.negative_coefficient_indices == ()
    with pytest.raises(ValueError, match="provenance"):
        CounterexampleReport.build(6, 3, 2, "guesswork")
    assert set(PROVENANCES) == {"gs-bound", "external-table", "user"}


def test_report_dict_round_trip() -> None:
    r = CounterexampleReport.build(19, 9, 6726, "external-table")
    d = r.to_dict()
    assert d["lambda"] == 6726
    assert d["negative_indices"] == [2, 3]
    assert d["ehrhart_positive"] is False
    assert all(isinstance(c, str) and "/" in c for c in d["coefficients"])
    assert Polynomial(Fraction(c) for c in d["coefficients"]) == r.ehrhart


def test_coefficient_strings_keep_unit_denominator() -> None:
    r = CounterexampleReport.build(4, 2, 2, "user")
    assert r.ehrhart.coefficient_strings() == ["1/1", "2/1", "1/1"]
    assert r.to_dict()["coefficients"] == ["1/1", "2/1", "1/1"]


def test_coefficient_strings_match_fraction_strings() -> None:
    # the integer-form strings against the Fractions they replace, on every
    # search report of 3 <= n <= 30, at the packing cap, and on the shifted
    # minimal polynomials, whose zero constant prints as "0/1"
    reports = search_counterexamples(3, 30, 1, 30)
    reports += [
        CounterexampleReport.build(r.n, r.k, circuit_hyperplane_bound(r.n, r.k), "user")
        for r in reports
    ]
    polys = [r.ehrhart for r in reports]
    polys += [ehr_minimal_shifted(k, n) for n in range(2, 31) for k in range(1, n)]
    polys += [Polynomial([1]), Polynomial([])]
    seen = set()
    for p in polys:
        strings = p.coefficient_strings()
        assert strings == ehrhart.fraction_strings(p.coeffs)
        seen.update(strings)
    assert {"0/1", "1/1"} <= seen
    assert all(r.to_dict()["coefficients"] == r.ehrhart.coefficient_strings() for r in reports)


def test_search_covers_golden_pair() -> None:
    reports = search_counterexamples(19, 20, 9, 9)
    assert [(r.n, r.k) for r in reports] == [(19, 9), (20, 9)]
    assert reports[0].is_ehrhart_positive
    assert reports[1].negative_coefficient_indices == (2, 3)
    assert all(r.provenance == "gs-bound" for r in reports)
    assert all(r.lam == gs_lower_bound(r.n, r.k) for r in reports)


def test_search_clamps_rank_range() -> None:
    reports = search_counterexamples(4, 5, 0, 99)
    assert [(r.n, r.k) for r in reports] == [
        (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (5, 4),
    ]
    # no n below 2 has a rank, so a far lower bound costs no loop over it
    assert search_cells(-(10**12), 5, 2, 2) == [(3, 2), (4, 2), (5, 2)]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 16), st.data())
def test_sparse_evaluations_are_integers(n: int, data: st.DataObject) -> None:
    k = data.draw(st.integers(1, n - 1))
    lam = data.draw(st.integers(0, min(6, circuit_hyperplane_bound(n, k))))
    p = ehr_sparse(n, k, lam)
    for t in range(5):
        assert p(t) == int(p(t))
        assert p(t) >= 1
