"""Sparse paving matroids represented by their circuit-hyperplane sets.

A sparse paving matroid of rank k on ground set {1, ..., n} is determined
by the family Lambda of its circuit-hyperplanes: every k-subset is either
a basis or a member of Lambda.  Such a family is exactly a collection of
k-subsets that pairwise intersect in at most k - 2 elements, i.e. a
constant-weight binary code of minimum Hamming distance 4, i.e. a stable
set in the Johnson graph J(n, k).

Subsets are stored as bit masks in Python ints (bit i - 1 represents
element i).  Ints have no fixed width, so MAX_GROUND_SET is not a limit of
the representation but an input guard: it rejects matroid files and codes
far beyond the sizes at which enumeration and the oracle are feasible.
Two distinct k-subsets are at Hamming distance 2 exactly when they share a
(k-1)-subset, so the distance-4 condition is checked on the lambda * k
shadows of the family, collected by one set comprehension that removes
each element in turn from every word holding it.

In the matroid text format, a line after the header whose tokens are k
distinct elements written as plain decimals becomes a mask in one step, as
the sum of their bits looked up in a table from token to bit; every other
line takes the per-element route, which accepts it or names its fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .ratpoly import binomial

MAX_GROUND_SET = 64


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    """Bit mask for a subset given as 1-based element indices."""
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside ground set {{1..{n}}}")
        bit = 1 << (e - 1)
        if mask & bit:
            raise ValueError(f"repeated element {e}")
        mask |= bit
    return mask


def elements_of(mask: int) -> list[int]:
    """Sorted 1-based element indices of a subset mask."""
    if mask < 0:
        raise ValueError(f"subset mask must be nonnegative, got {mask}")
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def circuit_hyperplane_bound(n: int, k: int) -> int:
    """Packing bound: a rank-k sparse paving matroid on n elements has at
    most binomial(n, k) * min(1/(k+1), 1/(n-k+1)) circuit-hyperplanes."""
    if n < 0 or k < 0 or k > n:
        return 0
    return binomial(n, k) // max(k + 1, n - k + 1)


@dataclass(frozen=True)
class SparsePavingMatroid:
    """Rank-k sparse paving matroid on {1..n} with the given circuit-hyperplanes.

    Instances are built through `validate`, which sorts and dedups the
    masks and enforces the distance-4 condition; the constructor itself
    checks nothing and keeps the order it is given.
    """

    n: int
    k: int
    circuit_hyperplanes: tuple[int, ...]

    @cached_property
    def ch_set(self) -> frozenset[int]:
        return frozenset(self.circuit_hyperplanes)

    @property
    def lam(self) -> int:
        """Number of circuit-hyperplanes (the lambda of the Ehrhart formula)."""
        return len(self.circuit_hyperplanes)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


def _check_size(n: int, k: int) -> None:
    if not 1 <= n <= MAX_GROUND_SET:
        raise ValueError(f"ground set size n={n} outside 1..{MAX_GROUND_SET}")
    if not 0 <= k <= n:
        raise ValueError(f"rank k={k} outside 0..{n}")


def validate(n: int, k: int, chs: Iterable[int]) -> SparsePavingMatroid:
    """Build a SparsePavingMatroid after checking the sparse paving axioms.

    Checks, in order: ground-set size, popcounts, the packing bound on
    |Lambda|, and the pairwise Hamming distance >= 4 condition, as
    distinctness of the lambda * k shadows (each word with one element
    removed).
    """
    _check_size(n, k)
    masks = sorted(set(chs))
    full = (1 << n) - 1
    for h in masks:
        if h & ~full:
            raise ValueError(f"subset {bin(h)} has elements outside {{1..{n}}}")
        if h.bit_count() != k:
            raise ValueError(f"{set(elements_of(h))} is not a k-subset (k={k})")
    if len(masks) > circuit_hyperplane_bound(n, k):
        raise ValueError(
            f"{len(masks)} circuit-hyperplanes exceeds circuit-hyperplane bound "
            f"{circuit_hyperplane_bound(n, k)} for (n, k) = ({n}, {k})"
        )
    if not _shadows_distinct(masks, n, k):
        hi, hj = _first_adjacent_pair(masks, full)
        raise ValueError(
            f"{set(elements_of(hi))} and {set(elements_of(hj))} are "
            f"adjacent in Johnson graph J({n},{k})"
        )
    return SparsePavingMatroid(n, k, tuple(masks))


def _shadows_distinct(masks: list[int], n: int, k: int) -> bool:
    """True when no (k-1)-subset lies under two of the distinct k-sets:
    the k shadows of each word, built in one pass per element, are all
    distinct."""
    bits = [1 << i for i in range(n)]
    return len({h ^ b for b in bits for h in masks if h & b}) == len(masks) * k


def _first_adjacent_pair(masks: list[int], full: int) -> tuple[int, int]:
    """The first pair (hi, hj), hi < hj in sorted order, at Hamming distance
    2: the pair a scan over all pairs would name.  Each word is compared
    with its k(n - k) Johnson neighbours only."""
    members = set(masks)
    for hi in masks:
        inside = [1 << (e - 1) for e in elements_of(hi)]
        outside = [1 << (e - 1) for e in elements_of(full ^ hi)]
        later = [g for g in (hi ^ a ^ b for a in inside for b in outside) if g > hi and g in members]
        if later:
            return hi, min(later)
    raise ArithmeticError("two words share a shadow but no two are Johnson neighbours")


def rank_of(m: SparsePavingMatroid, a: int) -> int:
    """Rank of the subset a (as a mask).

    Closed form for sparse paving matroids: |A| if |A| < k, k - 1 if A is
    a circuit-hyperplane, k otherwise.  For |A| > k the value is always k
    because two distinct k-subsets of a (k+1)-set meet in k - 1 elements,
    so at most one of them can be a circuit-hyperplane and A contains a
    basis.
    """
    if a & ~m.full_mask:
        raise ValueError("subset outside ground set")
    size = a.bit_count()
    if size < m.k:
        return size
    if size == m.k and a in m.ch_set:
        return m.k - 1
    return m.k


def matroid_to_text(m: SparsePavingMatroid) -> str:
    """Serialize in the matroid text format.

    First line "n k", then one circuit-hyperplane per line as sorted
    1-based element indices separated by spaces.
    """
    # (shift, table): table[b] is the elements of a mask whose bits
    # shift..shift+7 read b, each followed by a space
    tables = []
    for q in range(0, m.n, 8):
        names = [f"{e} " for e in range(q + 1, min(q + 8, m.n) + 1)]
        table = ["".join(s for p, s in enumerate(names) if b >> p & 1) for b in range(1 << len(names))]
        tables.append((q, table))
    lines = [f"{m.n} {m.k}"]
    for h in m.circuit_hyperplanes:
        lines.append("".join([table[h >> q & 255] for q, table in tables])[:-1])
    return "\n".join(lines) + "\n"


def _ints(toks: list[str], lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in toks]
    except ValueError as exc:
        raise ValueError(f"line {lineno}: non-integer token ({exc})") from None


def matroid_from_text(text: str) -> SparsePavingMatroid:
    """Parse the matroid text format; errors carry 1-based line numbers."""
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        toks = raw.split()
        if toks:
            break
    else:
        raise ValueError("line 1: missing header 'n k'")
    parts = _ints(toks, lineno)
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: expected header 'n k'")
    n, k = parts
    try:
        _check_size(n, k)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    bit_of = {str(e): 1 << (e - 1) for e in range(1, n + 1)}.__getitem__
    masks: list[int] = []
    for lineno, raw in lines:
        toks = raw.split()
        if not toks:
            continue
        try:
            mask = sum(map(bit_of, toks))
        except KeyError:  # not a plain decimal element; toks is not empty
            mask = 0
        # a sum of k powers of two has k bits set exactly when they are distinct
        if len(toks) == k and mask.bit_count() == k:
            masks.append(mask)
            continue
        parts = _ints(toks, lineno)
        if len(parts) != k:
            raise ValueError(f"line {lineno}: expected {k} elements, got {len(parts)}")
        try:
            masks.append(mask_from_elements(parts, n))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    try:
        return validate(n, k, masks)
    except ValueError as exc:
        raise ValueError(f"invalid matroid: {exc}") from None
