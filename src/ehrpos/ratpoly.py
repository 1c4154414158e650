"""Exact rational arithmetic: dense polynomials and combinatorial numbers.

Every coefficient in this package is exact; nothing here touches
floating point.  A `Polynomial` stores one integer form: numerators
nums[m] of t**m over one common denominator den, in lowest terms and with
trailing zeros stripped, so that the zero polynomial has no numerators and
degree -1.

The arithmetic (sums, products, evaluation, the binomial polynomials, the
Taylor shift and interpolation at 0..d) works on that form: every step is
integer arithmetic.  A sum or difference is one pass over the numerators
scaled to the lcm of the two denominators, and scaling by an int
multiplies the numerators; neither builds a `Fraction`.  Evaluation, the
Taylor shift and interpolation take integers, the only inputs the
program passes, and raise TypeError on anything else: a polynomial is
evaluated at an int as `horner` of its numerators over den, shifted by
an int, and interpolated through int values.  The "p/q" strings of the
reports come from the same form with one gcd per coefficient, and a
`Fraction` is built only when a reader asks for `coeffs` or `coeff(m)`:
`coeffs` builds its tuple on each read and keeps no cache.

Besides polynomial arithmetic the module provides the combinatorial
numbers the Ehrhart formulas consume: binomial coefficients (as a total
function) and exact harmonic numbers.  A harmonic number is summed on
each call by binary splitting and reduced by one final gcd; nothing is
kept between calls.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

RatLike = Union[int, Fraction]


class Polynomial:
    """Dense univariate polynomial over the rationals, immutable by convention.

    The one stored form is integer: nums[m] / den is the coefficient of
    t**m, kept canonical (den > 0, gcd(den, *nums) == 1, no trailing zero
    numerator), so equal polynomials have equal forms and the zero
    polynomial is ((), 1).  `coeffs` gives the same coefficients as
    Fractions, built from that form on each read and kept nowhere, so
    intermediate results of the arithmetic never build one.
    """

    __slots__ = ("nums", "den")

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[RatLike]) -> None:
        cs = list(coeffs)
        # floats are rejected rather than converted: exactness is a hard invariant
        if any(isinstance(c, float) for c in cs):
            raise TypeError("floating point is not allowed in exact arithmetic")
        # ints and Fractions both carry .numerator and .denominator
        den = math.lcm(*(c.denominator for c in cs))
        self._set_canonical([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _from_int_form(cls, nums: Sequence[int], den: int) -> Polynomial:
        """The polynomial sum_m nums[m] t**m / den, for den > 0."""
        p = cls.__new__(cls)
        p._set_canonical(nums, den)
        return p

    def _set_canonical(self, nums: Sequence[int], den: int) -> None:
        """Store nums / den, den > 0, in the canonical form."""
        nums = list(nums)
        while nums and nums[-1] == 0:
            nums.pop()
        g = math.gcd(den, *nums)
        if g > 1:
            nums = [c // g for c in nums]
            den //= g
        self.nums = tuple(nums)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """coeffs[m] is the coefficient of t**m, as a Fraction, built on each read."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        """Highest nonzero index; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def coeff(self, m: int) -> Fraction:
        """Coefficient of t**m (zero beyond the degree)."""
        if 0 <= m < len(self.nums):
            return Fraction(self.nums[m], self.den)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __call__(self, x: int) -> Fraction:
        if not isinstance(x, int):
            raise TypeError(f"a polynomial is evaluated at an int, not {type(x).__name__}")
        return Fraction(horner(self.nums, x), self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def _plus(self, other: Polynomial, scale: int) -> Polynomial:
        # self + scale * other in one pass over the lcm of the denominators
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, scale * (den // other.den)
        xs, ys = self.nums, other.nums
        out = [x * a + y * b for x, y in zip(xs, ys)]
        m = len(out)  # at most one of the two tails below is nonempty
        out += [x * a for x in xs[m:]]
        out += [y * b for y in ys[m:]]
        return Polynomial._from_int_form(out, den)

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._plus(other, -1)

    def __mul__(self, other: Polynomial | RatLike) -> Polynomial:
        if isinstance(other, Polynomial):
            xs, ys = self.nums, other.nums
            out = [0] * (len(xs) + len(ys) - 1)
            for i, a in enumerate(xs):
                if a:
                    for j, b in enumerate(ys, i):
                        out[j] += a * b
            return Polynomial._from_int_form(out, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            # an int is its own numerator over 1: no Fraction is built
            nums = [x * other.numerator for x in self.nums]
            return Polynomial._from_int_form(nums, self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def coefficient_strings(self) -> list[str]:
        """Coefficients as exact "p/q" strings in lowest terms, index = degree,
        q kept even when it is 1; one gcd per coefficient, no Fraction."""
        den = self.den
        out = []
        for c in self.nums:
            g = math.gcd(c, den)
            out.append(f"{c // g}/{den // g}")
        return out

    def __repr__(self) -> str:
        return "Polynomial([" + ", ".join(str(c) for c in self.coeffs) + "])"


def horner(nums: Sequence[int], x: int) -> int:
    """sum_m nums[m] x**m for integer coefficients and an integer x."""
    acc = 0
    for c in reversed(nums):
        acc = acc * x + c
    return acc


def times_linear(acc: list[int], c: int) -> None:
    """Multiply the polynomial with integer coefficients acc by t + c, in place."""
    # new[m] = c * old[m] + old[m - 1], top down so old[m - 1] is still unread
    acc.append(0)
    for m in range(len(acc) - 1, 0, -1):
        acc[m] = acc[m - 1] + c * acc[m]
    acc[0] *= c


def binomial(n: int, k: int) -> int:
    """C(n, k) as a total function: 0 whenever k < 0, k > n, or n < 0."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def _power_sum(a: int, b: int, s: int) -> tuple[int, int]:
    """(p, q) with p/q = sum of 1/j**s for a <= j < b, a < b, by binary
    splitting: the two halves' sums p1/q1 + p2/q2 = (p1 q2 + p2 q1)/(q1 q2),
    so the operands of each product stay balanced and no gcd is taken."""
    if b - a == 1:
        return 1, a**s
    m = (a + b) // 2
    p1, q1 = _power_sum(a, m, s)
    p2, q2 = _power_sum(m, b, s)
    return p1 * q2 + p2 * q1, q1 * q2


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n exactly; H_0 = 0."""
    return Fraction(*_power_sum(1, n + 1, 1)) if n > 0 else Fraction(0)


def harmonic2(n: int) -> Fraction:
    """Second-order harmonic number H_n^(2) = sum of 1/i**2 for i <= n."""
    return Fraction(*_power_sum(1, n + 1, 2)) if n > 0 else Fraction(0)


def binom_poly(a: int, b: int) -> Polynomial:
    """The polynomial C(t + a, b) in t: degree b, leading coefficient 1/b!.

    The b integer linear factors t + a - i are multiplied out first and
    the product is divided by b! once.
    """
    if b < 0:
        raise ValueError("binom_poly needs b >= 0")
    nums = [1]
    for i in range(b):
        times_linear(nums, a - i)
    return Polynomial._from_int_form(nums, math.factorial(b))


def poly_shift(p: Polynomial, c: int) -> Polynomial:
    """Return q with q(t) = p(t + c) for an int c, by an integer Taylor
    shift of the numerators over the same denominator."""
    if not isinstance(c, int):
        raise TypeError(f"the shift is an int, not {type(c).__name__}")
    work = list(p.nums)
    d = len(work) - 1
    # after pass i, work[i] is final
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            work[j] += c * work[j + 1]
    return Polynomial._from_int_form(work, p.den)


def interpolate_at_naturals(values: Sequence[int]) -> Polynomial:
    """Interpolate the int values at the nodes t = 0, 1, ..., len(values) - 1.

    Forward differences in the binomial basis: p = sum_j b_j * C(t, j)
    with b_j the j-th forward difference at 0, an integer, and
    d! p = sum_j b_j (d!/j!) t(t-1)...(t-j+1) is summed in the
    falling-factorial basis by Horner's rule with integer coefficients.
    """
    if not values:
        raise ValueError("degenerate interpolation input")
    if not all(isinstance(v, int) for v in values):
        raise TypeError("interpolation takes int values only")
    diffs = list(values)
    d = len(diffs) - 1
    for j in range(1, d + 1):
        for i in range(d, j - 1, -1):
            diffs[i] -= diffs[i - 1]
    # diffs[j] is now b_j; Horner: acc <- acc * (t - j) + b_j d!/j!
    acc = [diffs[d]]
    scale = 1
    for j in range(d - 1, -1, -1):
        scale *= j + 1
        times_linear(acc, -j)
        acc[0] += diffs[j] * scale
    return Polynomial._from_int_form(acc, math.factorial(d))
