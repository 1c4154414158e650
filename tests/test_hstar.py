from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ehrpos.ehrhart import ehr_sparse, ehr_uniform, rank2_poly
from ehrpos.hstar import hstar, is_real_rooted
from ehrpos.ratpoly import Polynomial, RatLike, binom_poly, interpolate_at_naturals


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
    with pytest.raises(ValueError, match="dimension mismatch"):
        hstar(Polynomial([]), -1)  # the zero polynomial has degree -1 but is no Ehrhart polynomial


def test_hstar_of_hypersimplex() -> None:
    for n in range(2, 9):
        for k in range(1, n):
            h = hstar(ehr_uniform(k, n), n - 1)
            assert h[0] == 1
            assert all(type(v) is int and v >= 0 for v in h)
            # palindromic only for k = n/2; nonnegativity always
            assert sum(h) != 0


def test_hstar_nonnegative_on_counterexample() -> None:
    p = ehr_sparse(20, 9, 8398)
    h = hstar(p, 19)
    assert h[0] == 1
    assert all(type(v) is int and v >= 0 for v in h)
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


def test_is_real_rooted_rejects_fraction_entries() -> None:
    # an h*-vector is ints; a Fraction entry is refused, integral or not
    with pytest.raises(TypeError, match="int coefficients only"):
        is_real_rooted([Fraction(1, 2), Fraction(3, 2), Fraction(1)])
    with pytest.raises(TypeError, match="int coefficients only"):
        is_real_rooted([1, 3, Fraction(3), 1])
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
        st.fractions(min_value=-100, max_value=100, max_denominator=30), min_size=1, max_size=16
    ).filter(lambda cs: cs[-1] != 0)
)
@example([1, 2])  # integer-valued: both agree
@example([Fraction(1, 2), Fraction(1, 3)])  # not integer-valued: hstar raises
def test_hstar_matches_fraction_reference(coeffs: list[Fraction]) -> None:
    # a random rational polynomial is rarely integer-valued: then hstar
    # raises at the first reference entry that is not an integer
    p = Polynomial(coeffs)
    ref = _ref_hstar(p, len(coeffs) - 1)
    bad = [i for i, v in enumerate(ref) if v.denominator != 1]
    if bad:
        with pytest.raises(ArithmeticError, match=rf"^h\*_{bad[0]} is not an integer"):
            hstar(p, len(coeffs) - 1)
    else:
        assert hstar(p, len(coeffs) - 1) == ref


@given(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=16))
def test_hstar_matches_fraction_reference_on_integer_valued(values: list[int]) -> None:
    p = interpolate_at_naturals(values)
    if not p:  # all values 0: the zero polynomial has no h*-vector
        return
    h = hstar(p, int(p.degree))
    assert all(type(v) is int for v in h)
    assert h == _ref_hstar(p, int(p.degree))


@pytest.mark.parametrize(
    "p",
    [
        Polynomial([5]),
        Polynomial([-3, 2]),
        Polynomial([-3, Fraction(11, 2), Fraction(-1, 2)]),  # -3 + t(11 - t)/2
        rank2_poly(60),
        rank2_poly(61),
    ],
    ids=["degree-0", "degree-1", "degree-2", "rank2-60", "rank2-61"],
)
def test_hstar_matches_fraction_reference_at_both_parities(p: Polynomial) -> None:
    # odd and even degrees split h* into halves of different lengths
    assert hstar(p, int(p.degree)) == _ref_hstar(p, int(p.degree))


def test_hstar_matches_fraction_reference_on_ehrhart_polynomials() -> None:
    for p in (ehr_sparse(20, 9, 8398), ehr_uniform(5, 13), rank2_poly(40)):
        assert hstar(p, int(p.degree)) == _ref_hstar(p, int(p.degree))


def _ref_divmod(p: Polynomial, d: Polynomial) -> tuple[Polynomial, Polynomial]:
    # Fraction long division: p = q * d + r with deg r < deg d
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    nb = len(d.coeffs)
    rem = list(p.coeffs)
    if len(rem) < nb:
        return Polynomial([]), p
    quot = [Fraction(0)] * (len(rem) - nb + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + nb - 1] / d.coeffs[-1]
        quot[i] = c
        for j, b in enumerate(d.coeffs):
            rem[i + j] -= c * b
    return Polynomial(quot), Polynomial(rem)


def _ref_derivative(p: Polynomial) -> Polynomial:
    return Polynomial([m * c for m, c in enumerate(p.coeffs)][1:])


def _ref_is_real_rooted(coeffs) -> bool:
    # the two Fraction remainder sequences: q = p / gcd(p, p') by a monic
    # Euclidean gcd, then the Sturm chain of (q, q'), whose variation count
    # must equal deg q
    p = Polynomial(coeffs)
    if p.degree == 0:
        return True
    a, b = p, _ref_derivative(p)
    while b:
        r = _ref_divmod(a, b)[1]
        a, b = b, (r * Fraction(1, r.coeffs[-1]) if r else r)
    q, r = _ref_divmod(p, a)
    assert not r
    chain = [q, _ref_derivative(q)]
    while chain[-1]:
        r = _ref_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(r * Fraction(-1, abs(r.coeffs[-1])))
    chain = [c for c in chain if c]

    def variations(signs: list[int]) -> int:
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    at_pos = [1 if c.coeffs[-1] > 0 else -1 for c in chain]
    at_neg = [s * (-1) ** int(c.degree) for s, c in zip(at_pos, chain)]
    return variations(at_neg) - variations(at_pos) == q.degree


small_polys = st.lists(
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**3), max_size=8
).map(Polynomial)


@given(small_polys, small_polys)
def test_ref_divmod_reconstructs(p: Polynomial, d: Polynomial) -> None:
    if d.degree == -1:
        with pytest.raises(ZeroDivisionError):
            _ref_divmod(p, d)
        return
    q, r = _ref_divmod(p, d)
    assert q * d + r == p
    assert r.degree < d.degree


def _from_roots(roots: list[int], cofactor: list[RatLike]) -> Polynomial:
    p = Polynomial(cofactor)
    for r in roots:
        p = p * Polynomial([-r, 1])
    return p


@given(
    st.lists(st.integers(-3, 3), max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=5).filter(any),
    st.sampled_from([Fraction(1), Fraction(-3, 7), Fraction(5, 2)]),
)
@example([-1, -1], [1], Fraction(1))  # (t + 1)^2
@example([1, 1, 1], [1], Fraction(1))  # (t - 1)^3
@example([1, 1], [1, 0, 1], Fraction(1))  # (t - 1)^2 (t^2 + 1)
@example([], [1, 0, 2, 0, 1], Fraction(1))  # (t^2 + 1)^2
@example([1, -1], [1], Fraction(-3, 7))  # a negative lc with one nonzero elimination step
def test_is_real_rooted_matches_fraction_reference(
    roots: list[int], cofactor: list[int], scale: Fraction
) -> None:
    # degree <= 8: integer roots, repeated ones included, times a cofactor
    # of degree <= 4 that may carry non-real pairs
    p = _from_roots(roots, cofactor) * scale
    assert is_real_rooted(p.nums) == _ref_is_real_rooted(p.coeffs)


def test_is_real_rooted_with_nontrivial_gcd() -> None:
    # gcd(p, p') of positive degree: repeated real roots and repeated pairs
    assert is_real_rooted(_from_roots([-1] * 5 + [3, 3], [1, 2]).nums)
    assert is_real_rooted(_from_roots([0] * 4 + [1] * 3, [1]).nums)
    assert not is_real_rooted(_from_roots([-1], [1, 2, 3, 2, 1]).nums)  # (t^2+t+1)^2 (t+1)
    assert not is_real_rooted(_from_roots([], [1, 0, 3, 0, 3, 0, 1]).nums)  # (t^2+1)^3


def test_rank2_hstar_real_rooted_at_high_degree() -> None:
    # the degrees 69..78 that `hstar --check-real-rooted` meets in the
    # high-degree benchmark, where a wrong False would go unnoticed
    for n in range(70, 80):
        h = hstar(ehr_sparse(n, 2, n // 2), n - 1)
        assert is_real_rooted(h) is True
        assert _ref_is_real_rooted(h) is True
    # negative control: nonnegative entries with an internal zero
    h[len(h) // 2] = 0
    assert is_real_rooted(h) is False
    assert _ref_is_real_rooted(h) is False
