"""Output checks that do not go through ehrpos.

Every value a workload produces is compared with an integer computation
made here from math.comb alone, or with a property the method must have.
Nothing is compared with a stored copy of an earlier run's output; the
only stored numbers are the paper's headline fractions at (20, 9, 8398).

Each check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

# The paper's counterexample: coefficients of ehr(M; t) for the sparse
# paving matroid with n = 20, k = 9 and lambda = 8398.
PAPER_QUAD_20_9 = Fraction(-142179543511, 15437822400)
PAPER_CUBIC_20_9 = Fraction(-4816883312963, 51459408000)
PAPER_LAMBDA_20_9 = 8398


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def comb(a: int, b: int) -> int:
    """C(a, b) for a >= 0, and 0 whenever b < 0 or b > a."""
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


# --- lattice-point counts -------------------------------------------------


def hypersimplex_count(k: int, n: int, t: int) -> int:
    """Lattice points of t * Delta(k, n), t >= 0, by Katzman's formula
    sum_{j<k} (-1)^j C(n, j) C((k-j) t - j + n - 1, n - 1)."""
    return sum((-1) ** j * comb(n, j) * comb((k - j) * t - j + n - 1, n - 1) for j in range(k))


def minimal_count(k: int, n: int, t: int) -> int:
    """Lattice points of t * P(T_{k,n}) for the minimal matroid, t >= 0:
    C(t+n-k, n-k) sum_{j<k} C(n-k-1+j, j) C(t+j, j) / C(n-1, k-1)."""
    num = comb(t + n - k, n - k) * sum(comb(n - k - 1 + j, j) * comb(t + j, j) for j in range(k))
    q, r = divmod(num, comb(n - 1, k - 1))
    require(r == 0, f"minimal-matroid count at (k, n, t) = ({k}, {n}, {t}) is not integral")
    return q


def sparse_count(n: int, k: int, lam: int, t: int) -> int:
    """ehr(M; t) for t >= 0 of a sparse paving matroid with lam
    circuit-hyperplanes: the hypersimplex count minus lam times the
    minimal-matroid count at t - 1 (which is 0 at t = 0)."""
    shifted = minimal_count(k, n, t - 1) if t >= 1 else 0
    return hypersimplex_count(k, n, t) - lam * shifted


def gs_lambda(n: int, k: int) -> int:
    """floor(C(n, k) / n): the size the largest residue class reaches."""
    return comb(n, k) // n


def packing_cap(n: int, k: int) -> int:
    """floor(C(n, k) / max(k + 1, n - k + 1)): the packing bound on lambda."""
    return comb(n, k) // max(k + 1, n - k + 1)


# --- polynomials ------------------------------------------------------------


def _scaled(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer coefficients a and a denominator D with p = a / D."""
    den = 1
    for c in coeffs:
        den = math.lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _horner(a: Sequence[int], t: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * t + c
    return acc


def check_sparse_poly(
    n: int,
    k: int,
    lam: int,
    coeffs: Sequence[Fraction],
    negative_indices: Sequence[int] | None = None,
    positive: bool | None = None,
) -> list[int]:
    """Check an Ehrhart polynomial of a sparse paving matroid against the
    integer counts at t = 0..n, plus p(0) = 1, p(1) = C(n, k) - lam and
    p(-1) = 0; then the reported negative indices and positivity flag.
    Returns the counts at t = 0..n for further checks."""
    # degree n - 1, or less where a circuit-hyperplane disconnects the
    # matroid; n + 1 values pin down a polynomial of degree below n
    require(0 < len(coeffs) <= n and coeffs[-1] != 0, f"({n}, {k}, {lam}): degree {len(coeffs) - 1} above {n - 1}")
    a, den = _scaled(coeffs)
    values = [sparse_count(n, k, lam, t) for t in range(n + 1)]
    for t, v in enumerate(values):
        require(_horner(a, t) == den * v, f"({n}, {k}, {lam}): p({t}) differs from the lattice count {v}")
    require(_horner(a, 0) == den, f"({n}, {k}, {lam}): p(0) != 1")
    require(_horner(a, 1) == den * (comb(n, k) - lam), f"({n}, {k}, {lam}): p(1) != C(n,k) - lambda")
    require(_horner(a, -1) == 0, f"({n}, {k}, {lam}): p(-1) != 0")
    neg = [m for m, c in enumerate(coeffs) if c < 0]
    if negative_indices is not None:
        require(list(negative_indices) == neg, f"({n}, {k}, {lam}): negative indices {list(negative_indices)}, coefficients give {neg}")
    if positive is not None:
        require(positive == (not neg), f"({n}, {k}, {lam}): positivity flag disagrees with the coefficients")
    return values


def check_report_record(rec: dict, n: int, k: int, lam: int, provenance: str) -> None:
    """A CLI positivity record (search or sparse, JSON format)."""
    require(
        (rec["n"], rec["k"], rec["lambda"], rec["provenance"]) == (n, k, lam, provenance),
        f"record header {(rec['n'], rec['k'], rec['lambda'], rec['provenance'])}, expected {(n, k, lam, provenance)}",
    )
    coeffs = [Fraction(s) for s in rec["coefficients"]]
    check_sparse_poly(n, k, lam, coeffs, rec["negative_indices"], rec["ehrhart_positive"])


def check_paper_fractions(coeffs: Sequence[Fraction]) -> None:
    require(coeffs[2] == PAPER_QUAD_20_9, f"[t^2] at (20, 9, 8398) is {coeffs[2]}")
    require(coeffs[3] == PAPER_CUBIC_20_9, f"[t^3] at (20, 9, 8398) is {coeffs[3]}")


def forward_lead(values: Sequence[int], d: int) -> int:
    """d-th forward difference at 0 of a degree-d polynomial: d! times its
    leading coefficient, which is also the sum of its h*-vector."""
    return sum((-1) ** (d - j) * comb(d, j) * values[j] for j in range(d + 1))


def hstar_from_counts(values: Sequence[int], d: int) -> list[int]:
    """h*_i = sum_{j<=i} (-1)^j C(d+1, j) ehr(i - j)."""
    return [sum((-1) ** j * comb(d + 1, j) * values[i - j] for j in range(i + 1)) for i in range(d + 1)]


def check_hstar(h: Sequence[Fraction], values: Sequence[int], d: int, real_rooted: bool | None = None) -> None:
    """h* of a degree-d Ehrhart polynomial whose counts at t = 0..d are
    `values`: nonnegative integers, h*_0 = 1, sum = d! * lead, equal to the
    transform of the counts; Newton's inequalities where real-rootedness is
    claimed."""
    require(len(h) == d + 1, f"h* has {len(h)} entries, expected {d + 1}")
    require(all(Fraction(v).denominator == 1 and v >= 0 for v in h), "h* has a negative or non-integer entry")
    hi = [int(v) for v in h]
    require(hi[0] == 1, f"h*_0 = {hi[0]}")
    require(sum(hi) == forward_lead(values, d), "sum of h* != (n-1)! * leading coefficient")
    require(hi == hstar_from_counts(values, d), "h* differs from the transform of the lattice counts")
    if real_rooted:
        check_newton(hi)


def check_newton(a: Sequence[int]) -> None:
    """Newton's inequalities a_i^2 >= a_{i-1} a_{i+1} (1 + 1/i)(1 + 1/(d-i)),
    which every real-rooted polynomial with nonnegative coefficients meets."""
    d = max(i for i, c in enumerate(a) if c)
    for i in range(1, d):
        require(
            a[i] * a[i] * i * (d - i) >= a[i - 1] * a[i + 1] * (i + 1) * (d - i + 1),
            f"Newton's inequality fails at i = {i} for a polynomial called real-rooted",
        )


# --- single coefficients ------------------------------------------------------


def _trunc_mul(a: list, b: list, m: int) -> list:
    out = [0] * (m + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(m + 1 - i):
                out[i + j] += x * b[j]
    return out


def _binom_poly_trunc(c: int, b: int, m: int) -> list[Fraction]:
    """C(t + c, b) as a polynomial in t, truncated at degree m."""
    p = [1] + [0] * m
    for i in range(b):
        p = _trunc_mul(p, [c - i, 1] + [0] * (m - 1), m)
    return [Fraction(x, math.factorial(b)) for x in p]


def hypersimplex_coeff(k: int, n: int, m: int) -> Fraction:
    """[t^m] of Katzman's formula, each binomial a truncated product of
    linear factors."""
    total = 0
    for j in range(k):
        p = [1] + [0] * m
        for i in range(n - 1):
            p = _trunc_mul(p, [n - 1 - j - i, k - j] + [0] * (m - 1), m)
        total += (-1) ** j * comb(n, j) * p[m]
    return Fraction(total, math.factorial(n - 1))


def minimal_shifted_coeff(k: int, n: int, m: int) -> Fraction:
    """[t^m] of ehr(T_{k,n}; t - 1) from the minimal-matroid product."""
    series = [Fraction(0)] * (m + 1)
    for j in range(k):
        term = _binom_poly_trunc(j - 1, j, m)
        series = [s + comb(n - k - 1 + j, j) * c for s, c in zip(series, term)]
    prod = _trunc_mul(_binom_poly_trunc(n - k - 1, n - k, m), series, m)
    return prod[m] / comb(n - 1, k - 1)


def residue_quad(k: int, n: int) -> Fraction:
    """[t^2] of the sparse paving matroid with floor(C(n, k)/n)
    circuit-hyperplanes."""
    return hypersimplex_coeff(k, n, 2) - gs_lambda(n, k) * minimal_shifted_coeff(k, n, 2)


# --- residue classes and codes ---------------------------------------------


def residue_class_sizes(n: int, k: int) -> list[int]:
    """Number of k-subsets of Z_n with each sum mod n, by a DP over the
    elements."""
    ways = [[0] * n for _ in range(k + 1)]
    ways[0][0] = 1
    for e in range(n):
        for size in range(min(e + 1, k), 0, -1):
            row, prev = ways[size], ways[size - 1]
            for r in range(n):
                if prev[r]:
                    row[(r + e) % n] += prev[r]
    return ways[k]


def check_code_record(rec: dict, n: int, k: int) -> int:
    """The `code` JSON record; returns the chosen class index."""
    sizes = residue_class_sizes(n, k)
    require(rec["class_sizes"] == sizes, f"class sizes at ({n}, {k}) differ from the subset count")
    best = max(range(n), key=lambda r: (sizes[r], -r))
    require(rec["chosen_index"] == best, f"chosen class {rec['chosen_index']}, largest is {best}")
    require(rec["lower_bound"] == gs_lambda(n, k), "lower_bound != floor(C(n,k)/n)")
    require(rec["upper_bound"] == packing_cap(n, k), "upper_bound != packing bound")
    return best


def parse_matroid_text(text: str) -> tuple[int, int, list[int]]:
    """Header 'n k', then one sorted circuit-hyperplane per line; masks use
    bit i - 1 for element i."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    require(bool(lines) and len(lines[0]) == 2, "matroid file has no 'n k' header")
    n, k = int(lines[0][0]), int(lines[0][1])
    masks = []
    for parts in lines[1:]:
        elems = [int(x) for x in parts]
        require(len(elems) == k and elems == sorted(set(elems)), f"line {parts} is not a sorted {k}-set")
        require(1 <= elems[0] and elems[-1] <= n, f"line {parts} leaves the ground set")
        masks.append(sum(1 << (e - 1) for e in elems))
    return n, k, masks


def check_distinct_shadows(masks: Sequence[int], n: int) -> None:
    """Two k-sets are at Hamming distance 2 exactly when they share a
    (k-1)-subset, so a family has minimum distance >= 4 exactly when all
    its (k-1)-shadows are distinct.  A bitmap over all subsets of the
    ground set keeps this check from setting the run's peak memory."""
    seen = bytearray(1 << n)
    for w in masks:
        for b in range(n):
            if w >> b & 1:
                s = w ^ (1 << b)
                require(not seen[s], f"two words share the shadow {bin(s)}: distance 2")
                seen[s] = 1


def check_code_file(text: str, n: int, k: int, index: int) -> int:
    """The matroid file written by `code`: exactly the residue class
    `index`, pairwise at distance >= 4.  Returns lambda."""
    fn, fk, masks = parse_matroid_text(text)
    require((fn, fk) == (n, k), f"matroid file header ({fn}, {fk}), expected ({n}, {k})")
    require(len(set(masks)) == len(masks), "repeated circuit-hyperplane")
    for w in masks:
        r = sum(b for b in range(n) if w >> b & 1) % n
        require(r == index, f"word {bin(w)} has residue {r}, not {index}")
    require(len(masks) == residue_class_sizes(n, k)[index], "matroid file misses words of its class")
    check_distinct_shadows(masks, n)
    return len(masks)


# --- brute-force oracle -----------------------------------------------------


def _interpolate_at(values: Sequence[int], x: int) -> Fraction:
    """Value at x of the polynomial through (t, values[t]), t = 0..len - 1."""
    total = Fraction(0)
    pts = range(len(values))
    for i in pts:
        num, den = 1, 1
        for j in pts:
            if j != i:
                num *= x - j
                den *= i - j
        total += Fraction(values[i] * num, den)
    return total


def _degree(values: Sequence[int]) -> int:
    """Degree of the polynomial through (t, values[t]), t = 0..len - 1."""
    diffs = list(values)
    deg = -1
    for d in range(len(values)):
        if diffs[0]:
            deg = d
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return deg


def check_oracle_counts(n: int, k: int, lam: int, counts: Sequence[int], formula: Sequence[Fraction]) -> None:
    """Oracle counts at t = 0, 1, ... equal the lattice formula, and so do
    the ehrpos polynomial's values there."""
    expected = [sparse_count(n, k, lam, t) for t in range(len(counts))]
    require(list(counts) == expected, f"oracle counts {list(counts)} at ({n}, {k}, {lam}); formula {expected}")
    require(list(formula) == expected, f"ehr_sparse({n}, {k}, {lam}) at t = 0.. is {list(formula)}; formula {expected}")


def check_oracle_interior(n: int, k: int, lam: int, interior: Sequence[int], formula: Sequence[Fraction]) -> None:
    """Interior counts at t = 1, 2, ... obey reciprocity, (-1)^(n-1) p(-t),
    or vanish when the polytope is not full-dimensional; the ehrpos
    polynomial at -t equals the formula's."""
    values = [sparse_count(n, k, lam, t) for t in range(n)]
    at_neg = [_interpolate_at(values, -t) for t in range(1, len(interior) + 1)]
    full_dim = _degree(values) == n - 1
    expected = [(-1) ** (n - 1) * v if full_dim else 0 for v in at_neg]
    require(list(interior) == expected, f"interior counts {list(interior)} at ({n}, {k}, {lam}); reciprocity gives {expected}")
    require(list(formula) == at_neg, f"ehr_sparse({n}, {k}, {lam}) at t = -1.. is {list(formula)}")


def is_sparse_paving_family(masks: Sequence[int]) -> bool:
    return all((a ^ b).bit_count() >= 4 for i, a in enumerate(masks) for b in masks[i + 1 :])
