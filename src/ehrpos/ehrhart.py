"""Ehrhart polynomials of sparse paving matroid polytopes.

The basis polytope of the uniform matroid U_{k,n} is the hypersimplex,
whose Ehrhart polynomial is recovered here by exact interpolation of a
bounded-composition count.  The minimal matroid T_{k,n} (the connected
rank-k matroid on n elements with the fewest bases) has Ferroni's closed
product formula, which is built here at t and directly at t - 1 as one
integer Horner nest of linear factors over (n-1)!, with no Taylor shift.
Relaxing one circuit-hyperplane adds one copy of the shifted
minimal-matroid polynomial, and the relaxations telescope down to the
uniform matroid, giving the master formula for a sparse paving matroid
with lambda circuit-hyperplanes:

    ehr(M, t) = ehr(U_{k,n}, t) - lambda * ehr(T_{k,n}, t - 1).

Around that formula the module provides quadratic-coefficient bounds, the
harmonic-number inequality certifying negative quadratic coefficients for
large ground sets, a single-coefficient path from Katzman's hypersimplex
formula that skips building the full polynomial, the rank-2 positivity
suite, and the report type used by the counterexample search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .codes import gs_lower_bound
from .errors import BudgetExceededError
from .matroid import circuit_hyperplane_bound
from .ratpoly import (
    Polynomial,
    binomial,
    harmonic,
    harmonic2,
    interpolate_at_naturals,
    times_linear,
)

PROVENANCES = ("gs-bound", "external-table", "user")
# verify_rank2_inequalities rolls one row of up to n_max + 1 big ints per n
RANK2_INEQUALITY_MAX_N = 2000
# the most atanh terms counterexample_inequality_strong9 sums before it
# gives up; 8 decide every n from 2 to 3000
LOG_SERIES_MAX_TERMS = 1 << 10


def count_points_uniform(k: int, n: int, t: int) -> int:
    """Number of integer vectors with 0 <= x_i <= t and x_1 + ... + x_n = k*t.

    x -> t - x maps these vectors onto those of sum (n-k)t, so the count
    is taken at the smaller rank k' = min(k, n - k).  Inclusion-exclusion
    over coordinates pushed above t gives
    sum_j (-1)^j C(n, j) C(k't - j(t+1) + n - 1, n - 1), where a term is
    nonzero only while j(t+1) <= k't: at most min(k, n - k) + 1 terms.
    C(n, j) is carried from term to term.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got (k, n) = ({k}, {n})")
    if t < 0:
        raise ValueError("dilation must be nonnegative")
    if n == 0:
        return 1
    k = min(k, n - k)
    total = 0
    c = 1  # C(n, j)
    arg = k * t + n - 1
    for j in range(k + 1):
        if arg < n - 1:
            break
        term = c * math.comb(arg, n - 1)
        total += -term if j & 1 else term
        c = c * (n - j) // (j + 1)
        arg -= t + 1
    return total


@lru_cache(maxsize=None)
def ehr_uniform(k: int, n: int) -> Polynomial:
    """Ehrhart polynomial of the hypersimplex, by exact interpolation.

    Degree n - 1, constant term 1, and symmetric in k and n - k.  For
    k in {0, n} the polytope is a single point: every count is 1, and the
    interpolation gives the constant polynomial 1.
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n with n >= 1, got (k, n) = ({k}, {n})")
    return interpolate_at_naturals([count_points_uniform(k, n, t) for t in range(n)])


def _minimal_at(k: int, n: int, s: int) -> Polynomial:
    """ehr(T_{k,n}, t + s), built in one integer pass.

    C(t+s+j, j) j! is the rising product (t+s+1)...(t+s+j), so over the
    common denominator (k-1)! the series sum_{j<k} C(n-k-1+j, j) C(t+s+j, j)
    is the Horner nest b_0 + (t+s+1)(b_1 + (t+s+2)(b_2 + ...)) with integer
    weights b_j = C(n-k-1+j, j) (k-1)!/j!.  The prefactor C(t+s+n-k, n-k)
    multiplies in the n - k factors t + s + i over (n-k)!, and
    C(n-1, k-1) (n-k)! (k-1)! = (n-1)! is the one denominator.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n - 1, got (k, n) = ({k}, {n})")
    acc = [binomial(n - 2, k - 1)]  # b_{k-1}
    ratio = 1
    for j in range(k - 1, 0, -1):
        ratio *= j  # (k-1)!/(j-1)!
        times_linear(acc, s + j)
        acc[0] += binomial(n - k - 2 + j, j - 1) * ratio
    for i in range(1, n - k + 1):
        times_linear(acc, s + i)
    return Polynomial._from_int_form(acc, math.factorial(n - 1))


def ehr_minimal(k: int, n: int) -> Polynomial:
    """Ehrhart polynomial of the minimal matroid T_{k,n}:

        (1 / C(n-1, k-1)) C(t+n-k, n-k) sum_{j=0}^{k-1} C(n-k-1+j, j) C(t+j, j).

    Degree n - 1, constant term 1.  Built as one integer Horner nest of
    linear factors and normalised once; ehr_minimal_shifted builds the same
    formula at t - 1 on its own, so neither calls the other.
    """
    return _minimal_at(k, n, 0)


@lru_cache(maxsize=None)
def ehr_minimal_shifted(k: int, n: int) -> Polynomial:
    """ehr_minimal(k, n) with t replaced by t - 1: the relaxation increment.

    Built directly at t - 1, from the same formula with every factor
    t + j lowered to t + j - 1, so no Taylor shift runs.  All coefficients
    of degree >= 1 are strictly positive.  The constant term is zero: it
    equals ehr(T_{k,n}, -1), which by reciprocity counts interior lattice
    points of the undilated polytope, and there are none.  Both facts are
    checked, and an ArithmeticError raised if either fails, because the
    monotonicity and positivity arguments downstream lean on them.
    """
    p = _minimal_at(k, n, -1)
    # p.den > 0, so each numerator has the sign of its coefficient
    if not (all(c > 0 for c in p.nums[1:]) and p.nums[0] >= 0):
        raise ArithmeticError(
            f"shifted minimal polynomial at (k, n) = ({k}, {n}) has a negative coefficient"
        )
    return p


def ehr_sparse(n: int, k: int, lam: int) -> Polynomial:
    """Master formula: ehr(U_{k,n}, t) - lam * ehr(T_{k,n}, t - 1).

    The Ehrhart polynomial of any sparse paving matroid of rank k on n
    elements with lam circuit-hyperplanes; p(0) = 1, p(1) = C(n,k) - lam,
    p(-1) = 0.
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got (n, k) = ({n}, {k})")
    bound = circuit_hyperplane_bound(n, k)
    if not 0 <= lam <= bound:
        raise ValueError(
            f"no sparse paving matroid with lambda = {lam} exists for "
            f"(n, k) = ({n}, {k}): the circuit-hyperplane count is capped at {bound}"
        )
    return ehr_uniform(k, n)._plus(ehr_minimal_shifted(k, n), -lam)


def ehr_uniform_coeff(k: int, n: int, m: int) -> Fraction:
    """Single coefficient [t^m] ehr_uniform(k, n) without the full polynomial.

    Katzman's formula (Comm. Algebra 2005) writes the hypersimplex
    polynomial as sum_{j<k} (-1)^j C(n, j) C((k-j)t - j + n - 1, n - 1),
    and (n-1)! times each binomial is the product of the n - 1 integer
    linear factors (k-j)t - j + n - 1 - i, i = 0..n-2.  Each product is
    carried only up to degree m, so the work is O(k n m) integer
    operations, and the sum is divided by (n-1)! once.
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got (k, n) = ({k}, {n})")
    if not 0 <= m <= n - 1:
        raise ValueError(f"coefficient index {m} outside 0..{n - 1}")
    total = 0
    for j in range(k):
        slope = k - j
        prod = [1] + [0] * m
        for i in range(n - 1):
            const = n - 1 - j - i
            # times (slope t + const), dropping degrees above m
            for e in range(m, 0, -1):
                prod[e] = prod[e] * const + prod[e - 1] * slope
            prod[0] *= const
        term = binomial(n, j) * prod[m]
        total += -term if j % 2 else term
    return Fraction(total, math.factorial(n - 1))


def _check_quad_range(k: int, n: int) -> None:
    if not 2 <= k <= n - 2:
        raise ValueError(f"need 2 <= k <= n - 2, got (k, n) = ({k}, {n})")


def quad_coeff_minimal_shifted(k: int, n: int) -> Fraction:
    """[t^2] ehr_minimal_shifted(k, n) in closed form:

        (1/C(n-1,k-1)) ([n-k over 2]/(n-k)!
                        + (1/(n-k)) sum_{j=1}^{k-1} (1/j) C(n-k-1+j, j)).

    The Stirling term is [m over 2] = (m-1)! H_{m-1}, so it reduces to
    H_{m-1}/m; the triangular Stirling table would be cubic in n here.
    """
    _check_quad_range(k, n)
    inner = harmonic(n - k - 1) / (n - k)
    acc = Fraction(0)
    for j in range(1, k):
        acc += Fraction(binomial(n - k - 1 + j, j), j)
    inner += acc / (n - k)
    return inner / binomial(n - 1, k - 1)


def lower_bound_quad(k: int, n: int) -> Fraction:
    """Lower bound 1/(k(n-1)) on [t^2] ehr_minimal_shifted(k, n)."""
    _check_quad_range(k, n)
    return Fraction(1, k * (n - 1))


def upper_bound_quad_uniform(k: int, n: int) -> Fraction:
    """Upper bound C(k+1, 2) H_{n-1}^2 on [t^2] ehr_uniform(k, n)."""
    _check_quad_range(k, n)
    return binomial(k + 1, 2) * harmonic(n - 1) ** 2


def intermediate_bound_quad(k: int, n: int) -> Fraction:
    """The bound (C(k+1,2) + C(k,2)) [n over 3] / (n-1)! sitting between
    [t^2] ehr_uniform(k, n) and upper_bound_quad_uniform(k, n).

    [n over 3] = (n-1)! (H_{n-1}^2 - H^(2)_{n-1}) / 2 keeps this free of
    the triangular Stirling table.
    """
    _check_quad_range(k, n)
    w = binomial(k + 1, 2) + binomial(k, 2)
    return w * (harmonic(n - 1) ** 2 - harmonic2(n - 1)) / 2


def counterexample_inequality(k: int, n: int) -> bool:
    """Exact test of C(k+1,2) H_{n-1}^2 < C(n,k) / (n k (n-1)).

    Comparing the uniform-part upper bound against the relaxation-part
    lower bound scaled by C(n,k)/n: once this holds, a sparse paving
    matroid with the largest residue-class lambda at (n, k) has negative
    quadratic Ehrhart coefficient.
    """
    return upper_bound_quad_uniform(k, n) < Fraction(binomial(n, k), n) * lower_bound_quad(k, n)


def _log_bounds(n: int, terms: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= log(n) <= hi from `terms` terms of the atanh series.

    With n = 2^m r and 1 <= r < 2, log(n) = 2m atanh(1/3) + 2 atanh(x)
    for x = (n - 2^m)/(n + 2^m), and both arguments are at most 1/3.  The
    partial sum of x^(2i+1)/(2i+1) over i < terms bounds atanh(x) below;
    every later term is at most x^2 times the one before, so adding
    x^(2 terms+1)/((2 terms+1)(1 - x^2)) bounds it above.
    """
    m = n.bit_length() - 1
    lo = hi = Fraction(0)
    for x, weight in ((Fraction(1, 3), 2 * m), (Fraction(n - (1 << m), n + (1 << m)), 2)):
        partial = Fraction(0)
        power = x  # x^(2i+1)
        for i in range(terms):
            partial += power / (2 * i + 1)
            power *= x * x
        tail = power / ((2 * terms + 1) * (1 - x * x))
        lo += weight * partial
        hi += weight * (partial + tail)
    return lo, hi


def counterexample_inequality_strong9(n: int) -> bool:
    """Strengthened rank >= 9 variant of counterexample_inequality:

        C(n+1, 2) (log(n) + 1)^2 < C(n, 9) / (n^2 (n-1)),

    using H_m <= log(m) + 1 and k(n-1) <= n(n-1) so a single inequality
    covers every rank from 9 up to n/2.  Decided exactly by sandwiching
    log(n) between partial sums of atanh series, doubling the number of
    terms until one side decides.  log(n) is irrational for n >= 2, so the
    loop always terminates.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rhs = Fraction(binomial(n, 9), n * n * (n - 1))
    half = binomial(n + 1, 2)
    terms = 8
    while terms <= LOG_SERIES_MAX_TERMS:
        lo, hi = _log_bounds(n, terms)
        if half * (hi + 1) ** 2 < rhs:
            return True
        if half * (lo + 1) ** 2 >= rhs:
            return False
        terms *= 2
    raise RuntimeError("log precision cap reached without a decision")


def fraction_strings(values: Iterable[Fraction]) -> list[str]:
    """Fractions as exact "p/q" strings, q kept even when it is 1, for
    lists of Fractions such as an h*-vector; a Polynomial prints its own
    with `coefficient_strings`, from the integer form."""
    return [f"{c.numerator}/{c.denominator}" for c in values]


@dataclass(frozen=True)
class CounterexampleReport:
    """Outcome of one Ehrhart-positivity check, ready for serialization."""

    n: int
    k: int
    lam: int
    provenance: str
    ehrhart: Polynomial
    negative_coefficient_indices: tuple[int, ...]

    # the keys of to_dict, in order: the csv header even of an empty grid
    COLUMNS = (
        "n", "k", "lambda", "provenance", "coefficients", "negative_indices", "ehrhart_positive"
    )

    @property
    def is_ehrhart_positive(self) -> bool:
        return not self.negative_coefficient_indices

    @classmethod
    def build(cls, n: int, k: int, lam: int, provenance: str) -> CounterexampleReport:
        if provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}")
        p = ehr_sparse(n, k, lam)
        # p.den > 0, so each numerator has the sign of its coefficient
        return cls(n, k, lam, provenance, p, tuple(m for m, c in enumerate(p.nums) if c < 0))

    def to_dict(self) -> dict:
        values = (
            self.n,
            self.k,
            self.lam,
            self.provenance,
            self.ehrhart.coefficient_strings(),
            list(self.negative_coefficient_indices),
            self.is_ehrhart_positive,
        )
        return dict(zip(self.COLUMNS, values))


def search_counterexamples(
    n_min: int, n_max: int, k_min: int, k_max: int
) -> list[CounterexampleReport]:
    """Check Ehrhart positivity at lambda = gs_lower_bound on each cell of
    search_cells(n_min, n_max, k_min, k_max), in that order."""
    return [
        CounterexampleReport.build(n, k, gs_lower_bound(n, k), "gs-bound")
        for n, k in search_cells(n_min, n_max, k_min, k_max)
    ]


def search_cells(n_min: int, n_max: int, k_min: int, k_max: int) -> list[tuple[int, int]]:
    """The (n, k) cells of a search grid, in increasing (n, k) order: each n
    in [n_min, n_max] with each rank k in [max(k_min, 1), min(k_max, n - 1)]."""
    return [
        (n, k)
        for n in range(max(n_min, 2), n_max + 1)
        for k in range(max(k_min, 1), min(k_max, n - 1) + 1)
    ]


def rank2_poly(n: int) -> Polynomial:
    """ehr_sparse(n, 2, floor(n/2)): the Ehrhart polynomial of the rank-2
    sparse paving matroid with the most circuit-hyperplanes ({1,2}, {3,4},
    ... is such a family)."""
    if n < 3:
        raise ValueError("need n >= 3")
    return ehr_sparse(n, 2, n // 2)


def verify_rank2_inequalities(n_max: int) -> bool:
    """Exact check of the Stirling inequalities behind rank-2 positivity,
    each over the range where it genuinely holds.

    (target)    [n over m+1] (2^m - m - 1) + (n-1) [n-1 over m+1]
                    >= (n/2) ([n-2 over m] + (n-2) [n-2 over m-1])
                for 4 <= n and 2 <= m <= n - 1.  The m = 2 instance fails
                at n = 3, where floor(n/2) = 1 is strictly below the n/2
                used here while P_3 = t + 1 itself stays positive, so
                n = 3 is not an applicable case.
    (reduced)   [n over m-1] <= [n over m+1] (2^m - m - 2)
                for 3 <= m <= 12 and n >= 13; small ground sets genuinely
                violate it (the largest failure is n = 11 at m = 10).
    (ratio)     m^2 (m+1)(m-1) <= 4 (2^m - m - 2) for 13 <= m <= n_max,
                which settles (reduced) for every m >= 13 through the
                log-concavity bound [n over m+1]/[n over m] >= 2(1/m - 1/n).
    (reduced12) [n over 11] <= 4082 [n over 13] for 13 <= n <= n_max.

    All comparisons are integer arithmetic (the n/2 factors are cleared).
    Rows are rolled three at a time instead of memoizing the triangular
    table, which would be cubic in n_max.
    """
    if n_max > RANK2_INEQUALITY_MAX_N:
        raise BudgetExceededError(
            f"rank-2 inequality check too large: n_max = {n_max} (max {RANK2_INEQUALITY_MAX_N})"
        )
    for m in range(13, n_max + 1):
        if m * m * (m + 1) * (m - 1) > 4 * (2**m - m - 2):
            return False

    def get(row: list[int], i: int) -> int:
        return row[i] if 0 <= i < len(row) else 0

    row_n2, row_n1, row = [1], [0, 1], [0, 1, 1]
    for n in range(3, n_max + 1):
        nxt = [0] * (n + 1)
        for i in range(1, n + 1):
            nxt[i] = (n - 1) * get(row, i) + row[i - 1]
        row_n2, row_n1, row = row_n1, row, nxt
        if n < 4:
            continue
        for m in range(2, n):
            lhs = row[m + 1] * (2**m - m - 1) + (n - 1) * get(row_n1, m + 1)
            rhs = get(row_n2, m) + (n - 2) * get(row_n2, m - 1)
            if 2 * lhs < n * rhs:
                return False
        if n >= 13:
            for m in range(3, 13):
                if row[m - 1] > row[m + 1] * (2**m - m - 2):
                    return False
            if row[11] > 4082 * get(row, 13):
                return False
    return True
