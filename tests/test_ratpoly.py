from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ehrpos.ratpoly import (
    Polynomial,
    binom_poly,
    binomial,
    harmonic,
    harmonic2,
    horner,
    interpolate_at_naturals,
    poly_shift,
    times_linear,
)

fractions = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**3)
small_polys = st.lists(fractions, max_size=8).map(Polynomial)


def test_zero_polynomial() -> None:
    z = Polynomial([])
    assert z.coeffs == ()
    assert z.degree == -1
    assert z(7) == 0
    assert Polynomial([0, 0]) == z


def test_trailing_zeros_stripped() -> None:
    p = Polynomial([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1


def test_float_coefficients_rejected() -> None:
    with pytest.raises(TypeError, match="floating point"):
        Polynomial([0.5])
    p = Polynomial([1, 1])
    # evaluation and the shift take ints only: a Fraction is refused too
    for x in (0.5, Fraction(1, 2), Fraction(2)):
        with pytest.raises(TypeError, match="at an int"):
            p(x)
        with pytest.raises(TypeError, match="an int"):
            poly_shift(p, x)
    with pytest.raises(TypeError):
        p * 0.5


def test_arithmetic_small() -> None:
    p = Polynomial([1, 2])
    q = Polynomial([0, 0, 3])
    assert (p + q).coeffs == (1, 2, 3)
    assert (p - p).coeffs == ()
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert (2 * p).coeffs == (2, 4)


@given(small_polys, small_polys)
def test_mul_evaluates_pointwise(p: Polynomial, q: Polynomial) -> None:
    for x in (-3, 2):
        assert (p * q)(x) == p(x) * q(x)
        assert (p + q)(x) == p(x) + q(x)


def test_binomial_matches_math_comb() -> None:
    for n in range(31):
        for k in range(-2, n + 3):
            expected = math.comb(n, k) if 0 <= k <= n else 0
            assert binomial(n, k) == expected
    assert binomial(-1, 0) == 0


def test_stirling_log_concavity_ratio() -> None:
    # consecutive-column ratio lower bound used by the rank-2 analysis:
    # [n over m+1] / [n over m] >= 2 (1/m - 1/n), on rows of unsigned
    # Stirling numbers of the first kind rolled by the recurrence
    # [n over m] = (n-1) [n-1 over m] + [n-1 over m-1]
    row = [1]
    for n in range(1, 61):
        row = [(n - 1) * a + b for a, b in zip(row + [0], [0] + row)]
        assert sum(row) == math.factorial(n)
        for m in range(1, n):
            assert row[m + 1] * m * n >= 2 * (n - m) * row[m]


def test_harmonic_values() -> None:
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(4) == Fraction(25, 12)
    assert harmonic2(0) == 0
    assert harmonic2(3) == Fraction(49, 36)
    assert harmonic(-3) == harmonic2(-1) == 0
    # second-order series is the square sum, first-order the plain sum
    assert harmonic(100) == sum(Fraction(1, i) for i in range(1, 101))
    assert harmonic2(60) == sum(Fraction(1, i * i) for i in range(1, 61))


def test_harmonic_matches_running_sums() -> None:
    # every n to 300 crosses each split boundary of the binary splitting
    h = h2 = Fraction(0)
    for n in range(301):
        assert (harmonic(n), harmonic2(n)) == (h, h2)
        h += Fraction(1, n + 1)
        h2 += Fraction(1, (n + 1) ** 2)


def test_harmonic_at_the_rank3_threshold() -> None:
    # criterion 8 reads H_10438, the largest index the program sums
    n = 10438
    assert harmonic(n) == sum(Fraction(1, j) for j in range(1, n + 1))
    assert harmonic2(n) == sum(Fraction(1, j * j) for j in range(1, n + 1))


def test_binom_poly_examples() -> None:
    # C(t + 2, 2) = (t + 2)(t + 1) / 2
    p = binom_poly(2, 2)
    assert p.coeffs == (Fraction(1), Fraction(3, 2), Fraction(1, 2))
    assert binom_poly(0, 0) == Polynomial([1])
    assert binom_poly(-1, 1) == Polynomial([-1, 1])
    for t in range(8):
        assert binom_poly(3, 5)(t) == math.comb(t + 3, 5)


@given(st.lists(fractions, max_size=6).map(Polynomial), st.integers(-9, 9))
def test_poly_shift_evaluates(p: Polynomial, c: int) -> None:
    q = poly_shift(p, c)
    for t in range(-3, 4):
        assert q(t) == p(t + c)


@given(st.lists(fractions, max_size=6).map(Polynomial))
def test_poly_shift_round_trip(p: Polynomial) -> None:
    assert poly_shift(poly_shift(p, 5), -5) == p


@given(st.lists(fractions, min_size=1, max_size=7))
def test_interpolate_left_inverse(coeffs: list[Fraction]) -> None:
    # den * p has the integer values horner(nums, x) at the nodes
    p = Polynomial(coeffs)
    values = [horner(p.nums, x) for x in range(len(coeffs))]
    assert interpolate_at_naturals(values) == p.den * p


def test_interpolate_at_naturals_rejects_empty_input() -> None:
    with pytest.raises(ValueError, match="degenerate interpolation input"):
        interpolate_at_naturals([])


def test_interpolate_at_naturals_rejects_floats() -> None:
    # floats and Fractions alike: the values are ints only
    for values in ([0.5, 1], [1, 2.0], [Fraction(1, 2), 1, 2], [Fraction(3), 1]):
        with pytest.raises(TypeError, match="int values only"):
            interpolate_at_naturals(values)


def test_interpolate_at_naturals_integer_inputs_only() -> None:
    # forward differences of integer data stay integral at every level
    p = interpolate_at_naturals([1, 3, 9, 31])
    assert p(0) == 1 and p(3) == 31
    assert p.degree == 3


# Plain Fraction references for the integer kernels: each is the textbook
# algorithm on Fraction coefficients, with no integer form involved.


def _ref_eval(coeffs: tuple[Fraction, ...], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _ref_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ref_shift(coeffs: tuple[Fraction, ...], c: int) -> list[Fraction]:
    out = [Fraction(0)] * len(coeffs)
    for m, pm in enumerate(coeffs):
        for i in range(m + 1):
            out[i] += pm * math.comb(m, i) * c ** (m - i)
    return out


def _ref_binom_poly(a: int, b: int) -> list[Fraction]:
    out = [Fraction(1)]
    for i in range(b):
        out = _ref_mul(out, [Fraction(a - i), Fraction(1)])
    return [c / math.factorial(b) for c in out]


def _ref_interpolate_at_naturals(values: list[Fraction]) -> list[Fraction]:
    # sum_j (j-th forward difference at 0) * C(t, j)
    out = [Fraction(0)] * len(values)
    basis = [Fraction(1)]
    arr = list(values)
    for j in range(len(values)):
        for m, b in enumerate(basis):
            out[m] += arr[0] * b
        arr = [y - x for x, y in zip(arr, arr[1:])]
        basis = [c / (j + 1) for c in _ref_mul(basis, [Fraction(-j), Fraction(1)])]
    return out


def _ref_times_linear(nums: list[int], c: int) -> list[int]:
    # a copying form: new[m] = c * old[m] + old[m - 1]
    return [c * x + y for x, y in zip([*nums, 0], [0, *nums])]


@given(st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=12), st.integers(-50, 50))
@example([3, -1, 2], 0)
@example([1, 0, -4], -7)
def test_times_linear_in_place_matches_copying_form(nums: list[int], c: int) -> None:
    acc = list(nums)
    assert times_linear(acc, c) is None
    assert acc == _ref_times_linear(nums, c)


def _assert_int_form(p: Polynomial) -> None:
    # the canonical stored form: den > 0, lowest terms, no trailing zero
    assert p.den > 0
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert p.coeffs == tuple(Fraction(x, p.den) for x in p.nums)


def test_int_form_is_canonical() -> None:
    half = Polynomial([Fraction(2, 4), 0])
    _assert_int_form(half)
    assert (half.nums, half.den) == ((1,), 2)
    for zero in (Polynomial([]), Polynomial([0, 0])):
        _assert_int_form(zero)
        assert (zero.nums, zero.den) == ((), 1)


points = st.integers(-50, 50)


@given(small_polys, points)
def test_call_matches_fraction_horner(p: Polynomial, x: int) -> None:
    assert p(x) == _ref_eval(p.coeffs, Fraction(x))
    assert p(-x) == _ref_eval(p.coeffs, Fraction(-x))


@given(small_polys, small_polys, fractions)
def test_mul_matches_fraction_convolution(p: Polynomial, q: Polynomial, c: Fraction) -> None:
    r = p * q
    assert r == Polynomial(_ref_mul(list(p.coeffs), list(q.coeffs)))
    _assert_int_form(r)
    _assert_int_form(p)


# an int scale takes the integer-only path of __mul__, a Fraction the other
@given(small_polys, small_polys, st.one_of(st.integers(-(10**9), 10**9), fractions))
def test_add_sub_scale_match_fraction_arithmetic(
    p: Polynomial, q: Polynomial, c: int | Fraction
) -> None:
    a, b = list(p.coeffs), list(q.coeffs)
    width = max(len(a), len(b))
    a += [Fraction(0)] * (width - len(a))
    b += [Fraction(0)] * (width - len(b))
    results = [
        (p + q, [x + y for x, y in zip(a, b)]),
        (p - q, [x - y for x, y in zip(a, b)]),
        (q - p, [y - x for x, y in zip(a, b)]),
        (p - p, []),
        (c * p, [c * x for x in a]),
        (p * c, [x * c for x in a]),
        (p - c * q, [x - c * y for x, y in zip(a, b)]),
    ]
    for r, ref in results:
        _assert_int_form(r)
        while ref and ref[-1] == 0:
            ref.pop()
        assert r.coeffs == tuple(ref)
    if isinstance(c, int):
        # the one-pass combine that ehr_sparse uses
        assert p._plus(q, -c) == p - c * q


@given(small_polys, points)
def test_poly_shift_matches_binomial_expansion(p: Polynomial, c: int) -> None:
    q = poly_shift(p, c)
    assert q == Polynomial(_ref_shift(p.coeffs, c))
    _assert_int_form(q)


def test_binom_poly_matches_fraction_product() -> None:
    for a in range(-6, 7):
        for b in range(9):
            p = binom_poly(a, b)
            assert p == Polynomial(_ref_binom_poly(a, b))
            _assert_int_form(p)


@given(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=9))
def test_interpolate_at_naturals_matches_fraction_differences(values: list[int]) -> None:
    p = interpolate_at_naturals(values)
    assert p == Polynomial(_ref_interpolate_at_naturals([Fraction(v) for v in values]))
    _assert_int_form(p)
    assert [p(t) for t in range(len(values))] == values
