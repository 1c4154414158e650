"""Lattice-point oracle for desk-scale certification.

Counts integer points of dilated basis polytopes exactly.  It reads
`m.circuit_hyperplanes` in one place, `atom_structure`, and writes the
box, sum and cap constraints out itself.  The count reads only that
structure, so criterion 9 counts each structure once per (n, k); it ties
the constraints to the rank-function definition of P(M) by counting, at
t = 1 and 2, the points that `matroid.rank_of` accepts.  The interior
count is the closed count of a shrunk box.  The count is a dynamic
program over the atoms of the matroid (classes of coordinates that lie
in the same circuit-hyperplanes), placed one circuit-hyperplane at a
time.  Its states are the circuit-hyperplane slacks, and each state's
value packs the counts of every remaining sum into the digits of one
int.  It uses no formula of `ehrpos.ehrhart` and builds no polynomial:
the test suite and `verify` compare its counts with the formula's
values, one dilation at a time.  Budgets keep instances small: this
module is a certifier, not a production counter.
"""

from __future__ import annotations

from typing import Iterator

from .codes import weight_k_masks
from .errors import BudgetExceededError
from .matroid import SparsePavingMatroid, circuit_hyperplane_bound

# Count time grows with the number of circuit-hyperplanes, which these
# budgets do not bound.  At n = ORACLE_MAX_N, t = ORACLE_MAX_T, on a
# 2-core machine with Python 3.11 (best of 3), the closed count takes
# about 2.6 s for the 26 of gs_best_class(10, 5) and about 5.2 s for a
# (10, 5) family of 36, the most any valid input at n = 10 has
# (A(10, 4, 5) = 36; the blocks of the Steiner system S(4, 5, 11) that
# miss one point); the interior count takes about 0.011 and 0.016 s, and
# `ehrpos oracle --t-max 6` on the family of 36 about 7.8 s in all.
ORACLE_MAX_N = 10
ORACLE_MAX_T = 6
# enumerate_small_matroids lists labelled matroids, with no symmetry
# reduction: 11,672 at n = 7 with 0 < k < 7 and no lambda cap
ENUMERATION_MAX_N = 7

# sorted pairs (indices of the circuit-hyperplanes holding an atom, its
# number of coordinates); see atom_structure
AtomStructure = tuple[tuple[tuple[int, ...], int], ...]


def _compositions(g: int, hi: int) -> list[int]:
    """ways[s] for s in 0..g*hi: the number of (y_1..y_g) in [0, hi]^g
    with sum s.

    One packed power: the digits of (sum_{i <= hi} 2**(i*w))**g in base
    2**w count the tuples of [0, hi]^g by their sum.  A digit is at most
    (hi + 1)**g < 2**(w - 1), so no digit carries.
    """
    w = ((hi + 1) ** g).bit_length() + 1
    packed = sum(1 << (i * w) for i in range(hi + 1)) ** g
    mask = (1 << w) - 1
    return [packed >> (s * w) & mask for s in range(g * hi + 1)]


def atom_structure(m: SparsePavingMatroid) -> AtomStructure:
    """The atoms of m, the classes of coordinates that lie in the same
    circuit-hyperplanes, as sorted pairs (indices of the circuit-hyperplanes
    that hold the atom, its number of coordinates).  Every coordinate lies
    in one atom, so the counts sum to n; the free atom, if any, has key ().

    It is all that `_count_points` reads of m, so matroids with the same
    structure have the same counts.
    """
    covers: list[list[int]] = [[] for _ in range(m.n)]  # coordinate -> indices of its H
    for j, h in enumerate(m.circuit_hyperplanes):
        while h:
            low = h & -h
            covers[low.bit_length() - 1].append(j)
            h ^= low
    sizes: dict[tuple[int, ...], int] = {}
    for key in map(tuple, covers):
        sizes[key] = sizes.get(key, 0) + 1
    return tuple(sorted(sizes.items()))


def _count_points(atoms: AtomStructure, hi: int, total: int, cap: int) -> int:
    """The number of integer y in [0, hi]^n with sum y_i = total and
    y(H) <= cap for every circuit-hyperplane H, for hi, total >= 0, where
    `atoms` is an `atom_structure` of n coordinates.

    A dynamic program over the atoms: the classes of coordinates that
    lie in the same circuit-hyperplanes.  Coordinates of one atom are
    interchangeable, so an atom of g coordinates places one sum s in
    [0, g*hi], in ways[s] = _compositions(g, hi)[s] ways; one table serves
    every atom of that size.

    Atoms are placed in sorted order of their hyperplane-index tuples: the
    free atom first, then every atom of H_0, then the rest of H_1's atoms,
    and so on.  A slack tells states apart only while its hyperplane is
    open, from its first atom placed to its last.  In this order every
    atom of H_j comes in the run of H_j or of an earlier H, so H_j is
    closed by the end of its own run; few hyperplanes are open at once,
    and fewer distinct states survive than in coordinate order.

    A layer maps a state to a packed value.  The state is, for each
    circuit-hyperplane H, its slack: cap minus the sum placed over H.  A
    slack above hi times the number of H's coordinates still to come can
    never bind, so it is stored as that product; it drops to 0 once H's
    last atom is placed, and prefixes that no later atom can tell apart
    merge into one state.  The value is one int whose digit r, B = width
    = ((hi + 1)**n).bit_length() + 1 bits wide, counts the prefixes in
    that state whose remaining sum is r (total at the start).  Placing s
    shifts the value down by s digits and scales it by ways[s]; digits of
    a negative remaining sum fall off the bottom, and a zero shift ends the
    loop over s.  The last atom reads its sums straight from the digits.

    No digit ever carries: a digit of any value built here counts distinct
    assignments of the coordinates placed so far (different s, or states
    merged by a clamp, never yield the same assignment twice), so it is at
    most (hi + 1)**n < 2**(B - 1).  Callers guarantee n >= 1, so there is
    a last atom.
    """
    n = 0
    ceiling: list[int] = []  # hi * coordinates of H still to place
    tables: dict[int, list[int]] = {}
    for cover, g in atoms:
        n += g
        if g not in tables:
            tables[g] = _compositions(g, hi)
        for j in cover:
            if j >= len(ceiling):  # (0, 2) sorts before (1,): grow to any index
                ceiling += [0] * (j + 1 - len(ceiling))
            ceiling[j] += hi * g
    width = ((hi + 1) ** n).bit_length() + 1
    layer = {tuple(min(cap, c) for c in ceiling): 1 << (total * width)}
    for cover, g in atoms[:-1]:
        ways = tables[g]
        for j in cover:
            ceiling[j] -= hi * g
        nxt: dict[tuple[int, ...], int] = {}
        for state, vec in layer.items():
            top = g * hi
            for j in cover:
                if state[j] < top:  # sum over H <= cap, i.e. s <= its slack
                    top = state[j]
            for s in range(top + 1):
                part = vec >> (s * width)
                if not part:
                    break
                new = list(state)
                for j in cover:
                    slack = state[j] - s
                    new[j] = slack if slack < ceiling[j] else ceiling[j]
                key = tuple(new)
                nxt[key] = nxt.get(key, 0) + part * ways[s]
        layer = nxt
    cover, g = atoms[-1]
    ways = tables[g]
    mask = (1 << width) - 1
    count = 0
    for state, vec in layer.items():
        top = g * hi
        for j in cover:
            if state[j] < top:
                top = state[j]
        for s in range(top + 1):
            count += ways[s] * (vec >> (s * width) & mask)
    return count


def check_oracle_instance(m: SparsePavingMatroid, t: int) -> None:
    """Raise unless the oracle counts m at dilation t: ValueError for a
    point or a negative t, BudgetExceededError above its budgets."""
    if not 0 < m.k < m.n:
        raise ValueError("degenerate polytope (a point)")
    if m.n > ORACLE_MAX_N or t > ORACLE_MAX_T:
        raise BudgetExceededError(
            f"oracle instance too large: n = {m.n} (max {ORACLE_MAX_N}), "
            f"t = {t} (max {ORACLE_MAX_T})"
        )
    if t < 0:
        raise ValueError("dilation must be nonnegative")


def oracle_count(m: SparsePavingMatroid, t: int) -> int:
    """#(t P(M) cap Z^n): integer x with 0 <= x_i <= t, sum x_i = k t, and
    sum over each circuit-hyperplane <= (k-1) t."""
    check_oracle_instance(m, t)
    return _count_points(atom_structure(m), t, m.k * t, (m.k - 1) * t)


def oracle_interior_count(m: SparsePavingMatroid, t: int) -> int:
    """Relative-interior count: all facet inequalities strict, the
    hyperplane sum x_i = k t kept as an equality.

    The strict box 0 < x_i < t holds the integer x = y + 1 with y in
    [0, t - 2]^n, so this is the closed count of a shrunk box: sum y_i =
    k t - n, and each circuit-hyperplane, holding k coordinates, sums to
    at most (k - 1) t - 1 - k over y.
    """
    check_oracle_instance(m, t)
    n, k = m.n, m.k
    hi, total = t - 2, k * t - n
    if hi < 0 or total < 0:
        return 0
    return _count_points(atom_structure(m), hi, total, (k - 1) * t - 1 - k)


def enumerate_small_matroids(n: int, k: int, lambda_max: int) -> Iterator[SparsePavingMatroid]:
    """Every sparse paving matroid on {1..n} of rank k with at most
    lambda_max circuit-hyperplanes, in depth-first lexicographic order of
    the sorted mask tuples (the uniform matroid comes first).  No symmetry
    reduction is applied.  A refused input raises here, at the call, not
    at the first `next()`: only the inner walk is a generator.
    """
    if n > ENUMERATION_MAX_N:
        raise BudgetExceededError(f"enumeration too large: n = {n} (max {ENUMERATION_MAX_N})")
    if not 0 <= k <= n or n < 1:
        raise ValueError(f"need 0 <= k <= n with n >= 1, got (n, k) = ({n}, {k})")
    if lambda_max < 0:
        raise ValueError(f"need lambda_max >= 0, got {lambda_max}")
    masks = list(weight_k_masks(n, k))
    depth_cap = min(lambda_max, circuit_hyperplane_bound(n, k))

    def rec(start: int, chosen: list[int]) -> Iterator[SparsePavingMatroid]:
        yield SparsePavingMatroid(n, k, tuple(chosen))
        if len(chosen) == depth_cap:
            return
        for i in range(start, len(masks)):
            w = masks[i]
            if all((w ^ c).bit_count() >= 4 for c in chosen):
                chosen.append(w)
                yield from rec(i + 1, chosen)
                chosen.pop()

    return rec(0, [])
