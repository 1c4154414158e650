"""Constant-weight codes and the residue-partition construction.

Weight-k words of length n (equivalently k-subsets of {1..n}) are split
into n classes by the residue T(a) = sum of (i - 1) over the set bits i,
taken mod n.  Any two words of equal weight at Hamming distance 2 differ
by moving a single set bit, which changes T; hence each class is a code
of minimum distance >= 4 and so a valid circuit-hyperplane family, which
`to_matroid` checks again like any other.  By pigeonhole the largest class
has at least binomial(n, k) / n words.

The partition lists every word, so it refuses (n, k) with more than
`WORD_BUDGET` words before enumerating any.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import BudgetExceededError
from .matroid import SparsePavingMatroid, elements_of, validate
from .ratpoly import binomial

WORD_BUDGET = 2_000_000


@dataclass(frozen=True)
class ConstantWeightCode:
    """A set of weight-k words of length n with pairwise distance >= 4.

    class_index records which residue class the code came from, when it
    was produced by the residue partition; None for externally built codes.
    """

    n: int
    k: int
    words: tuple[int, ...]
    class_index: int | None = None

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


# _BYTE_SUMS[b] = sum of the bit positions of the byte b
_BYTE_SUMS = tuple(sum(i for i in range(8) if b >> i & 1) for b in range(256))


def gs_residue(word: int, n: int) -> int:
    """Residue of a word: sum of (i - 1) over its elements i, mod n."""
    if word >> n:
        raise ValueError(f"word has elements outside {{1..{n}}}")
    return (sum(elements_of(word)) - word.bit_count()) % n


def _residue_classes(n: int, k: int) -> list[list[int]]:
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got (n, k) = ({n}, {k})")
    if n < 1:
        raise ValueError("need n >= 1")
    total = binomial(n, k)
    if total > WORD_BUDGET:
        raise BudgetExceededError(
            f"class enumeration too large: binomial({n},{k}) = {total} > {WORD_BUDGET}"
        )
    classes: list[list[int]] = [[] for _ in range(n)]
    # ascending words come in runs that share everything above the low
    # byte: the residue of that part is computed once per run, and the low
    # byte's position sum is looked up
    high = -1
    base = 0
    for w in weight_k_masks(n, k):
        if w >> 8 != high:
            high = w >> 8
            base = gs_residue(high << 8, n)
        classes[(base + _BYTE_SUMS[w & 255]) % n].append(w)
    return classes


def gs_classes(n: int, k: int) -> list[int]:
    """Sizes of the n residue classes, index = residue.

    The sizes sum to binomial(n, k) and the largest is at least
    ceil(binomial(n, k) / n).
    """
    return [len(c) for c in _residue_classes(n, k)]


def gs_partition(n: int, k: int) -> tuple[list[int], ConstantWeightCode]:
    """Class sizes (as gs_classes) and a class of maximum size, ties broken
    by smallest residue, from one pass over the words."""
    classes = _residue_classes(n, k)
    best = max(range(n), key=lambda i: (len(classes[i]), -i))
    code = ConstantWeightCode(n=n, k=k, words=tuple(classes[best]), class_index=best)
    return [len(c) for c in classes], code


def gs_best_class(n: int, k: int) -> ConstantWeightCode:
    """A residue class of maximum size; ties broken by smallest residue."""
    return gs_partition(n, k)[1]


def gs_lower_bound(n: int, k: int) -> int:
    """floor(binomial(n, k) / n): a class of at least this size always exists."""
    if n <= 0:
        return 0
    return binomial(n, k) // n

