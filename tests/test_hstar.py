from __future__ import annotations

import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehrpos.ehrhart import ehr_sparse, ehr_uniform, rank2_poly
from ehrpos.hstar import hstar, is_real_rooted
from ehrpos.ratpoly import Polynomial, binom_poly

# the package exports the function hstar under the module's own name
hstar_module = importlib.import_module("ehrpos.hstar")


def test_unimodular_simplex() -> None:
    for d in range(1, 7):
        p = binom_poly(d, d)  # C(t + d, d)
        assert hstar(p, d) == [1] + [0] * d


def test_unit_square_and_cube() -> None:
    square = Polynomial([1, 2, 1])
    assert hstar(square, 2) == [1, 1, 0]
    cube = Polynomial([1, 3, 3, 1])
    assert hstar(cube, 3) == [1, 4, 1, 0]


def test_cross_polytope_round_trip() -> None:
    # build the octahedron count from its h*-vector, then invert
    h = [1, 3, 3, 1]
    p = Polynomial([0])
    for i, c in enumerate(h):
        p = p + c * binom_poly(3 - i, 3)
    assert p(1) == 7
    assert hstar(p, 3) == h
    # normalized volume is the h*-sum
    assert sum(h) == p.coeff(3) * 6


def test_hstar_dimension_mismatch() -> None:
    with pytest.raises(ValueError, match="dimension mismatch"):
        hstar(Polynomial([1, 2, 1]), 1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        hstar(Polynomial([1, 2, 1]), 3)


def test_hstar_of_hypersimplex() -> None:
    for n in range(2, 9):
        for k in range(1, n):
            h = hstar(ehr_uniform(k, n), n - 1)
            assert h[0] == 1
            assert all(v.denominator == 1 and v >= 0 for v in h)
            # palindromic only for k = n/2; nonnegativity always
            assert sum(h) != 0


def test_hstar_nonnegative_on_counterexample() -> None:
    p = ehr_sparse(20, 9, 8398)
    h = hstar(p, 19)
    assert h[0] == 1
    assert all(v.denominator == 1 and v >= 0 for v in h)
    # h*-sum is the normalized volume, dim! times the leading coefficient
    assert sum(h) == p.coeffs[-1] * math.factorial(19)


def test_is_real_rooted_basic() -> None:
    assert is_real_rooted([1, 2, 1])  # (z + 1)^2
    assert not is_real_rooted([1, 0, 1])  # z^2 + 1
    assert is_real_rooted([1, -3, 1])  # irrational real roots
    assert is_real_rooted([5])  # constants are vacuously real-rooted
    assert is_real_rooted([0, 1])
    assert is_real_rooted([1, 3, 3, 1])  # (z + 1)^3, repeated root
    assert not is_real_rooted([1, 1, 1])  # z^2 + z + 1
    assert not is_real_rooted([2, 0, 0, 1])  # one real, two complex


def test_is_real_rooted_rejects_zero() -> None:
    with pytest.raises(ValueError, match="zero polynomial"):
        is_real_rooted([0, 0])
    with pytest.raises(ValueError):
        is_real_rooted([])


def test_is_real_rooted_accepts_fraction_lists() -> None:
    assert is_real_rooted([Fraction(1, 2), Fraction(3, 2), Fraction(1)])
    assert is_real_rooted(hstar(Polynomial([1, 3, 3, 1]), 3))


def _ref_hstar(p: Polynomial, dim: int) -> list[Fraction]:
    # the closed form over Fractions, with p evaluated by Fraction Horner
    def value(x: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(p.coeffs):
            acc = acc * x + c
        return acc

    return [
        sum((-1) ** j * math.comb(dim + 1, j) * value(i - j) for j in range(i + 1))
        for i in range(dim + 1)
    ]


@given(
    st.lists(
        st.fractions(min_value=-100, max_value=100, max_denominator=30), min_size=1, max_size=8
    ).filter(lambda cs: cs[-1] != 0)
)
def test_hstar_matches_fraction_reference(coeffs: list[Fraction]) -> None:
    p = Polynomial(coeffs)
    assert hstar(p, len(coeffs) - 1) == _ref_hstar(p, len(coeffs) - 1)


def test_hstar_matches_fraction_reference_on_ehrhart_polynomials() -> None:
    for p in (ehr_sparse(20, 9, 8398), ehr_uniform(5, 13), rank2_poly(40)):
        assert hstar(p, int(p.degree)) == _ref_hstar(p, int(p.degree))


def test_squarefree_part_raises_when_gcd_does_not_divide(monkeypatch) -> None:
    # z^2 + 1 is not divisible by z + 1: the division check must fire
    monkeypatch.setattr(hstar_module, "_poly_gcd", lambda a, b: Polynomial([1, 1]))
    with pytest.raises(ArithmeticError, match="does not divide"):
        is_real_rooted([1, 0, 1])
