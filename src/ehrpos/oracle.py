"""Lattice-point oracle for desk-scale certification.

Counts integer points of dilated basis polytopes exactly, from the facet
description alone, by a dynamic program over the coordinates that merges
prefixes with the same remaining sum and the same circuit-hyperplane
slacks.  The last two coordinates are counted in closed form: their
completions of a prefix form one interval.  It uses no formula of
`ehrpos.ehrhart` and builds no polynomial:
the test suite and `verify` compare its counts with the formula's values,
one dilation at a time.  Budgets keep instances small: this module is a
certifier, not a production counter.
"""

from __future__ import annotations

from typing import Iterator

from .codes import weight_k_masks
from .errors import BudgetExceededError
from .matroid import SparsePavingMatroid, circuit_hyperplane_bound

ORACLE_MAX_N = 10
ORACLE_MAX_T = 6


def _count_points(m: SparsePavingMatroid, t: int, *, interior: bool) -> int:
    """Exact count by a dynamic program over the coordinates x_0..x_{n-3},
    closed by a count of the last two, x_p and x_q (p = n-2, q = n-1).

    A layer maps a state to the number of prefixes x_0..x_{i-1} that reach
    it.  The state is the remaining sum and, for each circuit-hyperplane
    H, its slack: cap minus the sum of the placed x over H.  A slack above
    hi times the number of H's coordinates still to come can never bind,
    so it is stored as that product; it drops to 0 once H's last
    coordinate is placed, and prefixes that no later coordinate can tell
    apart merge into one state.

    A state (rem, slacks) at p has the completions (a, rem - a) with a in
    one interval: lo <= a, rem - a <= hi; a <= s_H for each H holding p
    but not q; rem - a <= s_H for each H holding q but not p; and none at
    all if rem > s_H for an H holding both.  The stored slacks are exact
    there, because each clamp only caps a bound that hi already imposes.
    Callers guarantee n >= 2.
    """
    n, k = m.n, m.k
    lo, hi = (1, t - 1) if interior else (0, t)
    cap = (k - 1) * t - (1 if interior else 0)
    if hi < lo:
        return 0
    chs = m.circuit_hyperplanes
    layer = {(k * t,) + tuple(min(cap, hi * h.bit_count()) for h in chs): 1}
    for i in range(n - 2):
        left = n - i - 1
        # (state position, slack ceiling after x_i) of each H containing i
        cover = [(j + 1, hi * (h >> (i + 1)).bit_count()) for j, h in enumerate(chs) if h >> i & 1]
        nxt: dict[tuple[int, ...], int] = {}
        for state, ways in layer.items():
            rem = state[0]
            top = min(hi, rem - lo * left)
            for j, _ in cover:
                if state[j] < top:  # sum over H <= cap, i.e. x_i <= its slack
                    top = state[j]
            for x in range(max(lo, rem - hi * left), top + 1):
                new = list(state)
                new[0] = rem - x
                for j, ceiling in cover:
                    slack = new[j] - x
                    new[j] = slack if slack < ceiling else ceiling
                key = tuple(new)
                nxt[key] = nxt.get(key, 0) + ways
        layer = nxt
    # state positions of the H holding only p (bits q p = 01), only q (10), and both (11)
    p_only, q_only, both = (
        [j + 1 for j, h in enumerate(chs) if h >> (n - 2) == bits] for bits in (1, 2, 3)
    )
    total = 0
    for state, ways in layer.items():
        rem = state[0]
        low = rem - hi if rem - hi > lo else lo  # builtin max and min cost more here
        high = rem - lo if rem - lo < hi else hi
        for j in p_only:
            if state[j] < high:
                high = state[j]
        for j in q_only:
            if rem - state[j] > low:
                low = rem - state[j]
        if low <= high:
            for j in both:
                if state[j] < rem:
                    break
            else:
                total += ways * (high - low + 1)
    return total


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
    return _count_points(m, t, interior=False)


def oracle_interior_count(m: SparsePavingMatroid, t: int) -> int:
    """Relative-interior count: all facet inequalities strict, the
    hyperplane sum x_i = k t kept as an equality."""
    check_oracle_instance(m, t)
    return _count_points(m, t, interior=True)


def enumerate_small_matroids(n: int, k: int, lambda_max: int) -> Iterator[SparsePavingMatroid]:
    """Every sparse paving matroid on {1..n} of rank k with at most
    lambda_max circuit-hyperplanes, in depth-first lexicographic order of
    the sorted mask tuples (the uniform matroid comes first).  No symmetry
    reduction is applied.
    """
    if n > 7:
        raise BudgetExceededError(f"enumeration too large: n = {n} (max 7)")
    if not 0 <= k <= n or n < 1:
        raise ValueError(f"need 0 <= k <= n with n >= 1, got (n, k) = ({n}, {k})")
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

    yield from rec(0, [])
