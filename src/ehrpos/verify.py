"""Self-verification suite: recompute the headline results exactly.

Every check recomputes a result from scratch through the public API and
compares it against frozen golden values (exact fractions and integer
counts).  `run_check` runs one entry of `CHECKS`, an exception counting
as a fail; the command line front end runs the entries in order and
prints a pass/fail table, and the acceptance tests run each the same way.

The rank-3 threshold check reads a single coefficient of a degree-3588
polynomial from Katzman's formula (about 0.02 s) instead of building it.
"""

from __future__ import annotations

import traceback
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator

from .codes import gs_lower_bound, gs_partition
from .ehrhart import (
    counterexample_inequality,
    counterexample_inequality_strong9,
    ehr_sparse,
    ehr_uniform,
    ehr_uniform_coeff,
    quad_coeff_minimal_shifted,
    rank2_poly,
    upper_bound_quad_uniform,
    verify_rank2_inequalities,
)
from .hstar import hstar, is_real_rooted
from .matroid import circuit_hyperplane_bound, rank_of
from .oracle import atom_structure, enumerate_small_matroids, oracle_count, oracle_interior_count
from .ratpoly import Polynomial

# Golden values: coefficients of ehr_sparse(20, 9, 8398) and its basis count.
GOLDEN_QUAD_20_9 = Fraction(-142179543511, 15437822400)
GOLDEN_CUBIC_20_9 = Fraction(-4816883312963, 51459408000)
GOLDEN_BASES_20_9 = 159562
LAMBDA_20_9 = 8398
CLASS_SIZE_20_9 = 8398
# Known stable-set sizes from published constant-weight-code tables.
LAMBDA_19_9_TABLE = 6726
LAMBDA_18_9_HYPOTHETICAL = 4240
LAMBDA_18_9_TABLE = 3540
# Thresholds certified by the harmonic-number inequalities.
RANK3_INEQUALITY_N = 10439
STRONG9_THRESHOLD_N = 55
RANK3_CONSTRUCTION_N = 3589
# sha256 of the exact [t^2] coefficient at (3, 3589, 2145026), written
# "p/q": a negative Fraction of 4,681 characters.
RANK3_QUAD_3589_SHA256 = "81ea71a3e9c69d9ad22220b8ab04fad124608a11da758752d5ffef65be488d34"
# C(4, 2) H_9^2: criterion 8 reads it through ehrhart's harmonic binding,
# the one its thresholds read, so a wrong harmonic number fails the criterion.
UPPER_BOUND_QUAD_3_10 = Fraction(50822641, 1058400)
# Criterion 5 takes the capped (k, n) with 1 <= k <= n for n in the first
# range, criterion 6 the rank-2 polynomials for n in the second, and
# criterion 11 the h*-vectors of both.
CAPPED_N_RANGE = range(1, 18)
RANK2_N_RANGE = range(3, 151)


def _capped_poly(k: int, n: int) -> Polynomial:
    """The master formula at the packing bound, the largest conceivable
    lambda; at k = n the polytope is a point."""
    if k == n:
        return ehr_uniform(n, n)
    return ehr_sparse(n, k, circuit_hyperplane_bound(n, k))


def _emitted_polynomials() -> Iterator[tuple[str, Polynomial]]:
    """Every polynomial the explicit checks below emit, with labels."""
    yield "sparse(20,9,8398)", ehr_sparse(20, 9, LAMBDA_20_9)
    yield "sparse(19,9,6726)", ehr_sparse(19, 9, LAMBDA_19_9_TABLE)
    yield "sparse(18,9,4240)", ehr_sparse(18, 9, LAMBDA_18_9_HYPOTHETICAL)
    yield "sparse(18,9,3540)", ehr_sparse(18, 9, LAMBDA_18_9_TABLE)
    for n in CAPPED_N_RANGE:
        for k in range(1, n + 1):
            yield f"capped({k},{n})", _capped_poly(k, n)
    for n in RANK2_N_RANGE:
        yield f"rank2({n})", rank2_poly(n)
    lam22 = gs_lower_bound(22, 7)
    yield f"sparse(22,7,{lam22})", ehr_sparse(22, 7, lam22)


def check_golden_counterexample() -> tuple[bool, str]:
    p = ehr_sparse(20, 9, LAMBDA_20_9)
    checks = [
        p.coeff(2) == GOLDEN_QUAD_20_9,
        p.coeff(3) == GOLDEN_CUBIC_20_9,
        p(1) == GOLDEN_BASES_20_9,
        p(0) == 1,
        p(-1) == 0,
    ]
    detail = (
        f"[t^2] = {p.coeff(2)}, [t^3] = {p.coeff(3)}, "
        f"p(1) = {p(1)}, p(0) = {p(0)}, p(-1) = {p(-1)}"
    )
    return all(checks), detail


def check_residue_classes_20_9() -> tuple[bool, str]:
    sizes, code = gs_partition(20, 9)
    equal = sizes == [CLASS_SIZE_20_9] * 20
    # full distance-4 validation: the lambda * k = 75,582 shadows are distinct
    matroid = code.to_matroid()
    bound = gs_lower_bound(20, 9)
    ok = (
        equal
        and bound == CLASS_SIZE_20_9
        and matroid.lam == LAMBDA_20_9
        and (matroid.n, matroid.k) == (20, 9)
    )
    return ok, (
        f"class sizes = {sorted(set(sizes))}, gs_lower_bound(20, 9) = {bound}, "
        f"chosen class validated with lambda = {matroid.lam}"
    )


def check_counterexample_19() -> tuple[bool, str]:
    p = ehr_sparse(19, 9, LAMBDA_19_9_TABLE)
    # p.den > 0, so signs are read from the numerators here and below
    neg = [m for m, c in enumerate(p.nums) if c < 0]
    return bool(neg), f"negative coefficient indices: {neg}"


def check_remark_18() -> tuple[bool, str]:
    p_hyp = ehr_sparse(18, 9, LAMBDA_18_9_HYPOTHETICAL)
    cubic_negative = p_hyp.coeff(3) < 0
    p_known = ehr_sparse(18, 9, LAMBDA_18_9_TABLE)
    neg_known = [m for m, c in enumerate(p_known.nums) if c < 0]
    detail = (
        f"lambda=4240: [t^3] = {p_hyp.coeff(3)} (negative: {cubic_negative}); "
        f"lambda=3540: negative indices {neg_known} (recorded, no claim checked)"
    )
    return cubic_negative, detail


def check_rank_bound_positivity_17() -> tuple[bool, str]:
    pairs = [(k, n) for n in CAPPED_N_RANGE for k in range(1, n + 1)]
    bad = [(k, n) for k, n in pairs if any(c <= 0 for c in _capped_poly(k, n).nums)]
    if not bad:
        return True, f"all {len(pairs)} capped polynomials positive (violations: [])"
    return False, (
        f"{len(pairs) - len(bad)} of {len(pairs)} capped polynomials positive; "
        f"violations: {bad}"
    )


def check_rank2_positivity() -> tuple[bool, str]:
    top = RANK2_N_RANGE[-1]
    bad = [n for n in RANK2_N_RANGE if any(c <= 0 for c in rank2_poly(n).nums)]
    inequalities = verify_rank2_inequalities(top)
    ok = not bad and inequalities
    return ok, f"positivity violations: {bad}; stirling inequalities up to {top}: {inequalities}"


def check_cubic_only_22_7() -> tuple[bool, str]:
    lam = gs_lower_bound(22, 7)
    p = ehr_sparse(22, 7, lam)
    neg = [m for m, c in enumerate(p.nums) if c < 0]
    return neg == [3], f"lambda = {lam}, negative coefficient indices: {neg}"


def check_inequality_thresholds() -> tuple[bool, str]:
    at_threshold = counterexample_inequality(3, RANK3_INEQUALITY_N)
    below = counterexample_inequality(3, RANK3_INEQUALITY_N - 1)
    strong = counterexample_inequality_strong9(STRONG9_THRESHOLD_N)
    bound = upper_bound_quad_uniform(3, 10)
    detail = (
        f"harmonic inequality at (3, {RANK3_INEQUALITY_N}): {at_threshold}; "
        f"at (3, {RANK3_INEQUALITY_N - 1}): {below} (recorded, no claim checked); "
        f"strong variant at n = {STRONG9_THRESHOLD_N}: {strong}; "
        f"upper_bound_quad_uniform(3, 10) = {bound}"
    )
    return at_threshold and strong and bound == UPPER_BOUND_QUAD_3_10, detail


def check_oracle_certification() -> tuple[bool, str]:
    """Criterion 9: on every sparse paving matroid with n <= 6, the
    oracle's closed counts at t = 0..4 equal the master formula, its
    interior counts at t = 1..4 satisfy Ehrhart reciprocity, and at
    t = 1, 2 the slice points that the rank function accepts number
    exactly the oracle's count.

    Each value is built once, at the level it depends on: the slices per
    (n, k), the formula's values per (n, k, lambda), the rank vector and
    the atom structure per matroid, and the oracle counts per (n, k, atom
    structure).  The oracle reads nothing of a matroid but its atom
    structure, so matroids that share one share its counts; the key is
    that exact input, not lambda, which would assume the formula under
    test.  Every matroid is still compared with the formula on its own.
    """
    matroids = 0
    structures = 0
    degenerate = 0
    for n in range(2, 7):
        for k in range(1, n):
            slices = [_Slice(n, k, t) for t in (1, 2)]
            # lambda -> (p(t) for t = 0..4, interior values for t = 1..4, full_dim)
            expected: dict[int, tuple[list, list, bool]] = {}
            # atom structure -> (closed counts at t = 0..4, interior counts at t = 1..4)
            counted: dict[tuple, tuple[list[int], list[int]]] = {}
            for m in enumerate_small_matroids(n, k, circuit_hyperplane_bound(n, k)):
                matroids += 1
                if m.lam not in expected:
                    p = ehr_sparse(n, k, m.lam)
                    # reciprocity against the strict inequalities needs a
                    # full-dimensional polytope; disconnected matroids (for
                    # example two complementary circuit-hyperplanes at n = 2k)
                    # drop degree, and their strict system must then be empty
                    full_dim = p.degree == n - 1
                    closed = [p(t) for t in range(5)]
                    inner = [(-1) ** (n - 1) * p(-t) if full_dim else 0 for t in range(1, 5)]
                    expected[m.lam] = closed, inner, full_dim
                closed, inner, full_dim = expected[m.lam]
                atoms = atom_structure(m)
                if atoms not in counted:
                    counted[atoms] = (
                        [oracle_count(m, t) for t in range(5)],
                        [oracle_interior_count(m, t) for t in range(1, 5)],
                    )
                counts, interior = counted[atoms]
                for t in range(5):
                    if counts[t] != closed[t]:
                        return False, f"count mismatch at {m}, t = {t}"
                if not full_dim:
                    degenerate += 1
                for t in range(1, 5):
                    if interior[t - 1] != inner[t - 1]:
                        return False, f"reciprocity mismatch at {m}, t = {t}"
                ranks = _rank_vector(m)
                for sl in slices:
                    if len(sl.points) - sl.rejected_by_rank(ranks).bit_count() != counts[sl.t]:
                        return False, f"rank/oracle count mismatch at {m}, t = {sl.t}"
            structures += len(counted)
    detail = (
        f"{matroids} matroids certified over {structures} atom structures "
        f"(counts, reciprocity, rank/oracle agreement at t = 1, 2); "
        f"{degenerate} degenerate polytopes handled by the zero-interior clause"
    )
    return True, detail


def _rank_vector(m) -> list[int]:
    """ranks[a] = rank_of(m, a) for every mask a, each checked to lie in 0..k."""
    ranks = [rank_of(m, a) for a in range(1 << m.n)]
    for a, r in enumerate(ranks):
        if not 0 <= r <= m.k:
            raise ArithmeticError(f"rank {r} of mask {a} outside 0..{m.k}")
    return ranks


class _Slice:
    """The points {x in [0, t]^n : sum x = k t} of one (n, k, t), shared by
    every rank-k matroid on n elements.  `rejected_by_rank(ranks)` is the
    bitset (bit p for points[p]) of the points that break the rank
    description sum_{i in A} x_i <= t ranks[A] of P(M); the points it
    leaves are the lattice points of the t-th dilate.  The table behind it
    comes from `_subset_sums`: per mask a and rank r, the points with
    sum_{i in a} x_i > t r.
    """

    def __init__(self, n: int, k: int, t: int) -> None:
        self.t = t
        self.points = [x for x in product(range(t + 1), repeat=n) if sum(x) == k * t]
        self.over = [[0] * (k + 1) for _ in range(1 << n)]
        for p, x in enumerate(self.points):
            bit = 1 << p
            for row, s in zip(self.over, _subset_sums(x)):
                # s > t * r exactly for r < ceil(s / t), which is at most k
                for r in range(-(-s // t)):
                    row[r] |= bit

    def rejected_by_rank(self, ranks: list[int]) -> int:
        """Points with sum_{i in A} x_i > t * ranks[A] for some mask A;
        every rank must lie in 0..k, as `_rank_vector` checks."""
        out = 0
        for row, r in zip(self.over, ranks):
            out |= row[r]
        return out


def _subset_sums(x: tuple[int, ...]) -> list[int]:
    """sums[a] = sum of x_i over the bits i of the mask a, for every a.

    Subset-sum DP over masks: the masks with highest bit i are those below
    2^i with bit i added, so each doubling step costs one addition per mask."""
    sums = [0]
    for xi in x:
        sums += [s + xi for s in sums]
    return sums


def check_rank3_threshold() -> tuple[bool, str]:
    import hashlib  # here, not at the top: it loads OpenSSL, 3.7 MiB that nothing else needs

    n = RANK3_CONSTRUCTION_N
    lam = gs_lower_bound(n, 3)
    quad = ehr_uniform_coeff(3, n, 2) - lam * quad_coeff_minimal_shifted(3, n)
    sign = "negative" if quad < 0 else "nonnegative"
    digest = hashlib.sha256(f"{quad.numerator}/{quad.denominator}".encode()).hexdigest()
    pinned = digest == RANK3_QUAD_3589_SHA256
    return quad < 0 and pinned, (
        f"ehr_uniform_coeff(3, {n}, 2) - {lam} * quad_coeff_minimal_shifted(3, {n}) is {sign}; "
        f"its exact value matches the pinned sha256: {pinned}"
    )


def check_hstar_sanity() -> tuple[bool, str]:
    for count, (label, p) in enumerate(_emitted_polynomials(), 1):
        h = hstar(p, p.degree)
        if h[0] != 1 or any(v < 0 for v in h):
            return False, f"h* not a nonnegative integer vector with h*_0 = 1 at {label}"
    rooted = is_real_rooted(hstar(ehr_sparse(20, 9, LAMBDA_20_9), 19))
    # controls with known verdicts: t^2 + 1 has no real root, and
    # (t - 1)^2 (t + 2) = t^3 - 3t + 2 is real-rooted with a repeated root
    complex_control = is_real_rooted([1, 0, 1])
    repeated_control = is_real_rooted([2, -3, 0, 1])
    return rooted and not complex_control and repeated_control, (
        f"{count} h*-vectors checked; h*(sparse(20,9,8398)) real-rooted: {rooted}; "
        f"controls real-rooted: t^2 + 1: {complex_control}, (t - 1)^2 (t + 2): {repeated_control}"
    )


CHECKS: tuple[tuple[int, str, Callable[[], tuple[bool, str]]], ...] = (
    (1, "golden counterexample at (20, 9, 8398)", check_golden_counterexample),
    (2, "residue classes and distance validation at (20, 9)", check_residue_classes_20_9),
    (3, "negative coefficient at (19, 9, 6726)", check_counterexample_19),
    (4, "negative cubic at (18, 9, 4240); (18, 9, 3540) recorded", check_remark_18),
    (
        5,
        f"positivity at the packing bound for n <= {CAPPED_N_RANGE[-1]}",
        check_rank_bound_positivity_17,
    ),
    (
        6,
        f"rank-2 positivity and stirling inequalities to {RANK2_N_RANGE[-1]}",
        check_rank2_positivity,
    ),
    (7, "only the cubic negative at (22, 7, gs bound)", check_cubic_only_22_7),
    (8, "harmonic inequality thresholds", check_inequality_thresholds),
    (
        9,
        "oracle certification over every sparse paving matroid with n <= 6",
        check_oracle_certification,
    ),
    (10, "rank-3 threshold n = 3589", check_rank3_threshold),
    (11, "h* integrality, nonnegativity, real-rootedness", check_hstar_sanity),
)


def run_check(fn: Callable[[], tuple[bool, str]]) -> tuple[bool, str]:
    """fn's (ok, detail); an exception is a fail whose detail is its traceback."""
    try:
        return fn()
    except Exception:
        return False, traceback.format_exc(limit=3).strip()
