"""Each output check accepts the program's real output and rejects a
corrupted copy of it.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import ehrpos  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
from checks import CheckFailed  # noqa: E402


def _record(n: int, k: int, lam: int) -> dict:
    return ehrpos.CounterexampleReport.build(n, k, lam, "user").to_dict()


def test_independent_counts_match_ehrpos():
    for n in range(3, 11):
        for k in range(1, n):
            lam = checks.gs_lambda(n, k)
            p = ehrpos.ehr_sparse(n, k, lam)
            assert [checks.sparse_count(n, k, lam, t) for t in range(n + 1)] == [p(t) for t in range(n + 1)]
            assert checks.residue_class_sizes(n, k) == ehrpos.gs_classes(n, k)


@pytest.mark.parametrize("m", [0, 2, 5, 11])
def test_polynomial_nudged_by_one_over_factorial_is_rejected(m):
    n, k = 12, 5
    lam = checks.gs_lambda(n, k)
    coeffs = list(ehrpos.ehr_sparse(n, k, lam).coeffs)
    checks.check_sparse_poly(n, k, lam, coeffs)
    coeffs[m] += Fraction(1, math.factorial(n - 1))
    with pytest.raises(CheckFailed):
        checks.check_sparse_poly(n, k, lam, coeffs)


def test_report_flags_must_follow_the_coefficients():
    n, k = 20, 9
    rec = _record(n, k, checks.PAPER_LAMBDA_20_9)
    checks.check_report_record(rec, n, k, checks.PAPER_LAMBDA_20_9, "user")
    checks.check_paper_fractions([Fraction(s) for s in rec["coefficients"]])
    for key, bad in (("negative_indices", []), ("ehrhart_positive", True), ("lambda", 8397)):
        with pytest.raises(CheckFailed):
            checks.check_report_record({**rec, key: bad}, n, k, checks.PAPER_LAMBDA_20_9, "user")


def test_paper_fractions_reject_a_nudged_cubic():
    coeffs = list(ehrpos.ehr_sparse(20, 9, checks.PAPER_LAMBDA_20_9).coeffs)
    coeffs[3] += Fraction(1, math.factorial(19))
    with pytest.raises(CheckFailed):
        checks.check_paper_fractions(coeffs)


def test_hstar_negative_entry_is_rejected():
    n = 20
    p = ehrpos.rank2_poly(n)
    values = checks.check_sparse_poly(n, 2, n // 2, list(p.coeffs))
    h = ehrpos.hstar(p, n - 1)
    checks.check_hstar(h, values, n - 1, ehrpos.is_real_rooted(h))
    i = next(i for i, v in enumerate(h) if v > 0 and i > 0)
    bad = list(h)
    bad[i] = -bad[i]
    with pytest.raises(CheckFailed, match="negative"):
        checks.check_hstar(bad, values, n - 1)
    shifted = list(h)
    shifted[i] += 1
    shifted[i + 1] -= 1  # same sum, still nonnegative: only the transform catches it
    with pytest.raises(CheckFailed, match="transform"):
        checks.check_hstar(shifted, values, n - 1)


def test_newton_rejects_a_polynomial_with_complex_roots():
    checks.check_newton([1, 3, 3, 1])
    with pytest.raises(CheckFailed):
        checks.check_newton([1, 1, 1])


def test_wrong_class_size_is_rejected():
    n, k = 12, 5
    sizes = ehrpos.gs_classes(n, k)
    code = ehrpos.gs_best_class(n, k)
    rec = {
        "n": n,
        "k": k,
        "class_sizes": sizes,
        "chosen_index": code.class_index,
        "lower_bound": ehrpos.gs_lower_bound(n, k),
        "upper_bound": ehrpos.circuit_hyperplane_bound(n, k),
    }
    assert checks.check_code_record(rec, n, k) == code.class_index
    bad = list(sizes)
    bad[0] += 1
    with pytest.raises(CheckFailed):
        checks.check_code_record({**rec, "class_sizes": bad}, n, k)


def test_johnson_neighbour_injected_into_a_code_is_rejected():
    n, k = 12, 5
    code = ehrpos.gs_best_class(n, k)
    text = ehrpos.matroid_to_text(code.to_matroid())
    assert checks.check_code_file(text, n, k, code.class_index) == len(code.words)
    words = set(code.words)
    w = code.words[0]
    low = w & -w
    free = next(1 << b for b in range(n) if not w >> b & 1 and (w ^ low | 1 << b) not in words)
    neighbour = w ^ low | free  # moves one element: Hamming distance 2
    assert (w ^ neighbour).bit_count() == 2
    with pytest.raises(CheckFailed, match="distance 2"):
        checks.check_distinct_shadows(list(code.words) + [neighbour], n)
    line = " ".join(str(e) for e in ehrpos.elements_of(neighbour))
    with pytest.raises(CheckFailed):
        checks.check_code_file(text + line + "\n", n, k, code.class_index)


def test_rank3_quadratic_coefficient():
    for n in (12, 31, 60):
        lam = ehrpos.gs_lower_bound(n, 3)
        got = ehrpos.ehr_uniform_coeff(3, n, 2) - lam * ehrpos.quad_coeff_minimal_shifted(3, n)
        assert got == checks.residue_quad(3, n)
        assert got + Fraction(1, math.factorial(n - 1)) != checks.residue_quad(3, n)


def test_oracle_counts_must_match_the_formula():
    m = next(ehrpos.enumerate_small_matroids(6, 3, 2))
    p = ehrpos.ehr_sparse(m.n, m.k, m.lam)
    counts = [ehrpos.oracle_count(m, t) for t in range(5)]
    interior = [ehrpos.oracle_interior_count(m, t) for t in range(1, 5)]
    at_pos = [p(t) for t in range(5)]
    at_neg = [p(-t) for t in range(1, 5)]
    checks.check_oracle_counts(m.n, m.k, m.lam, counts, at_pos)
    checks.check_oracle_interior(m.n, m.k, m.lam, interior, at_neg)
    with pytest.raises(CheckFailed):
        checks.check_oracle_counts(m.n, m.k, m.lam, counts[:-1] + [counts[-1] + 1], at_pos)
    with pytest.raises(CheckFailed):
        checks.check_oracle_interior(m.n, m.k, m.lam, interior[:-1] + [interior[-1] - 1], at_neg)
    with pytest.raises(CheckFailed):
        checks.check_oracle_interior(m.n, m.k, m.lam, interior, at_neg[:-1] + [at_neg[-1] + 1])


def test_tracer_records_spans_and_restores_the_program():
    from ehrpos import ehrhart

    original = ehrhart.ehr_uniform
    original.cache_clear()
    tracer = spans.Tracer(ehrpos)
    tracer.install()
    try:
        ehrpos.ehr_sparse(9, 4, 5)
    finally:
        tracer.uninstall()
    assert ehrhart.ehr_uniform is original and ehrpos.ehr_sparse is ehrhart.ehr_sparse
    self_s, calls = tracer.self_times()
    assert calls["ehrhart.ehr_sparse"] == 1 and calls["ehrhart.count_points_uniform"] == 9
    assert tracer.counts["ehrhart.ehr_uniform.cache_misses"] == 1
    total = sum(end - start for name, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(self_s.values()) == pytest.approx(total)
    assert not tracer.absent
