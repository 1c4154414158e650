"""Constant-weight codes and the residue-partition construction.

Weight-k words of length n (equivalently k-subsets of {1..n}) are split
into n classes by the residue T(a) = sum of (i - 1) over the set bits i,
taken mod n.  Any two words of equal weight at Hamming distance 2 differ
by moving a single set bit, which changes T; hence each class is a code
of minimum distance >= 4 and so a valid circuit-hyperplane family, which
`to_matroid` checks again like any other.  By pigeonhole the largest class
has at least binomial(n, k) / n words.

The partition meets in the middle: it tabulates the masks of the low
half of the positions and of the high half by (weight, residue), counts
each class from the products of matching table sizes, and joins only the
chosen class's words.  It refuses (n, k) with more than `WORD_BUDGET`
words, and then n above `MAX_GROUND_SET`, before it builds any table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import BudgetExceededError
from .matroid import MAX_GROUND_SET, SparsePavingMatroid, validate
from .ratpoly import binomial

WORD_BUDGET = 2_000_000

# table[j][r]: the masks of weight j whose position sum is r mod n
_Table = dict[int, dict[int, list[int]]]


@dataclass(frozen=True)
class ConstantWeightCode:
    """A set of weight-k words of length n with pairwise distance >= 4.

    class_index records which residue class the code came from, when it
    was produced by the residue partition; an external code passes None.
    """

    n: int
    k: int
    words: tuple[int, ...]
    class_index: int | None

    def to_matroid(self) -> SparsePavingMatroid:
        """The sparse paving matroid whose circuit-hyperplanes are the words."""
        return validate(self.n, self.k, self.words)


def weight_k_masks(n: int, k: int) -> Iterator[int]:
    """All weight-k masks of width n in ascending numeric order."""
    if k < 0 or k > n:
        return
    if k == 0:
        yield 0
        return
    v = (1 << k) - 1
    top = 1 << n
    while v < top:
        yield v
        low = v & -v
        ripple = v + low
        v = (((ripple ^ v) >> 2) // low) | ripple


def _half_table(positions: range, weights: range, n: int) -> _Table:
    """The masks on `positions` with a weight in `weights`, as a _Table."""
    table: _Table = {}
    bits = [1 << p for p in positions]
    for j in weights:
        by_residue = table[j] = {}
        # c holds offsets into `positions`: each position sum is sum(c) + j * start
        for c in combinations(range(len(bits)), j):
            mask = sum(map(bits.__getitem__, c))
            by_residue.setdefault((sum(c) + j * positions.start) % n, []).append(mask)
    return table


def _half_tables(n: int, k: int) -> tuple[_Table, _Table, list[int]]:
    """The low half's table (positions 0..h-1, h = n // 2), the high
    half's, and the n class sizes.  Each half keeps only the weights the
    other half can complement to k, so neither holds more than
    binomial(n, k) masks."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got (n, k) = ({n}, {k})")
    if n < 1:
        raise ValueError("need n >= 1")
    total = binomial(n, k)
    if total > WORD_BUDGET:
        raise BudgetExceededError(
            f"class enumeration too large: binomial({n},{k}) = {total} > {WORD_BUDGET}"
        )
    if n > MAX_GROUND_SET:
        raise ValueError(f"ground set size n={n} outside 1..{MAX_GROUND_SET}")
    h = n // 2
    low = _half_table(range(h), range(max(0, k - (n - h)), min(k, h) + 1), n)
    high = _half_table(range(h, n), range(max(0, k - h), min(k, n - h) + 1), n)
    sizes = [0] * n
    for j, by_r1 in high.items():
        for r1, highs in by_r1.items():
            for r2, lows in low[k - j].items():
                sizes[(r1 + r2) % n] += len(highs) * len(lows)
    return low, high, sizes


def _join(low: _Table, high: _Table, n: int, k: int, r: int) -> tuple[int, ...]:
    """The weight-k words of residue r, ascending: each high part joined
    with every low part that complements it to weight k and residue r."""
    highs = ((m, j, r1) for j, by_r1 in high.items() for r1, ms in by_r1.items() for m in ms)
    return tuple(sorted(m | w for m, j, r1 in highs for w in low[k - j].get((r - r1) % n, ())))


def gs_classes(n: int, k: int) -> list[int]:
    """Sizes of the n residue classes, index = residue.

    The sizes sum to binomial(n, k) and the largest is at least
    ceil(binomial(n, k) / n).
    """
    return _half_tables(n, k)[2]


def gs_partition(n: int, k: int) -> tuple[list[int], ConstantWeightCode]:
    """Class sizes (as gs_classes) and a class of maximum size, ties broken
    by smallest residue.  Only that class's words are built."""
    low, high, sizes = _half_tables(n, k)
    best = max(range(n), key=lambda r: (sizes[r], -r))
    words = _join(low, high, n, k, best)
    if len(words) != sizes[best]:
        raise ArithmeticError(f"class {best} joined {len(words)} words, its size is {sizes[best]}")
    return sizes, ConstantWeightCode(n=n, k=k, words=words, class_index=best)


def gs_best_class(n: int, k: int) -> ConstantWeightCode:
    """A residue class of maximum size; ties broken by smallest residue."""
    return gs_partition(n, k)[1]


def gs_lower_bound(n: int, k: int) -> int:
    """floor(binomial(n, k) / n): a class of at least this size always
    exists.  0 outside 0 < k < n: ranks 0 and n have no circuit-hyperplane."""
    if not 0 < k < n:
        return 0
    return binomial(n, k) // n

