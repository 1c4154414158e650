"""Sparse paving matroids represented by their circuit-hyperplane sets.

A sparse paving matroid of rank k on ground set {1, ..., n} is determined
by the family Lambda of its circuit-hyperplanes: every k-subset is either
a basis or a member of Lambda.  Such a family is exactly a collection of
k-subsets that pairwise intersect in at most k - 2 elements, i.e. a
constant-weight binary code of minimum Hamming distance 4, i.e. a stable
set in the Johnson graph J(n, k).

Subsets are stored as bit masks over machine words (bit i - 1 represents
element i), which caps the ground set at n = 64.  Two distinct k-subsets
are at Hamming distance 2 exactly when they share a (k-1)-subset, so the
distance-4 condition is checked on the lambda * k shadows of the family.
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

    Instances are built through `validate`, which enforces the distance-4
    condition; the constructor itself only canonicalizes the mask order.
    """

    n: int
    k: int
    circuit_hyperplanes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "circuit_hyperplanes", tuple(sorted(set(self.circuit_hyperplanes)))
        )

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


def validate(
    n: int, k: int, chs: Iterable[int], *, check_pairwise: bool = True
) -> SparsePavingMatroid:
    """Build a SparsePavingMatroid after checking the sparse paving axioms.

    Checks, in order: ground-set size, popcounts, the packing bound on
    |Lambda|, and (unless check_pairwise is False, for trusted bulk input)
    the pairwise Hamming distance >= 4 condition, as distinctness of the
    lambda * k shadows (each word with one element removed).
    """
    if not 1 <= n <= MAX_GROUND_SET:
        raise ValueError(f"ground set size n={n} outside 1..{MAX_GROUND_SET}")
    if not 0 <= k <= n:
        raise ValueError(f"rank k={k} outside 0..{n}")
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
    if check_pairwise and not _shadows_distinct(masks):
        hi, hj = _first_adjacent_pair(masks, full)
        raise ValueError(
            f"{set(elements_of(hi))} and {set(elements_of(hj))} are "
            f"adjacent in Johnson graph J({n},{k})"
        )
    return SparsePavingMatroid(n, k, tuple(masks))


def _shadows_distinct(masks: list[int]) -> bool:
    """True when no (k-1)-subset lies under two of the distinct k-sets."""
    seen: set[int] = set()
    for h in masks:
        rest = h
        while rest:
            low = rest & -rest
            shadow = h ^ low
            if shadow in seen:
                return False
            seen.add(shadow)
            rest ^= low
    return True


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


def dual(m: SparsePavingMatroid) -> SparsePavingMatroid:
    """Dual matroid: rank n - k, circuit-hyperplanes the complements of Lambda.

    Complementation preserves pairwise xor, hence validity; involutive.
    """
    full = m.full_mask
    return SparsePavingMatroid(m.n, m.n - m.k, tuple(full ^ h for h in m.circuit_hyperplanes))


def relax(m: SparsePavingMatroid, h: int) -> SparsePavingMatroid:
    """Relax the circuit-hyperplane h: declare it a basis and drop it from Lambda."""
    if h not in m.ch_set:
        raise ValueError("cannot relax a basis")
    return SparsePavingMatroid(m.n, m.k, tuple(x for x in m.circuit_hyperplanes if x != h))


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


def bases_count(m: SparsePavingMatroid) -> int:
    """Number of bases: every k-subset not in Lambda is a basis."""
    return binomial(m.n, m.k) - m.lam


@dataclass(frozen=True)
class LinearConstraint:
    """One constraint of the basis polytope at dilation t.

    The left-hand side is sum of x_i over the elements of `mask`; the
    right-hand side is rhs_coeff * t.  rel is "eq", "le" or "ge".
    """

    mask: int
    rel: str
    rhs_coeff: int

    def holds(self, x: tuple[int, ...], t: int) -> bool:
        lhs = 0
        mask = self.mask
        i = 0
        while mask:
            if mask & 1:
                lhs += x[i]
            mask >>= 1
            i += 1
        rhs = self.rhs_coeff * t
        if self.rel == "eq":
            return lhs == rhs
        if self.rel == "le":
            return lhs <= rhs
        return lhs >= rhs

    def holds_strict(self, x: tuple[int, ...], t: int) -> bool:
        """Strict version for interior tests; the equality stays an equality."""
        lhs = 0
        mask = self.mask
        i = 0
        while mask:
            if mask & 1:
                lhs += x[i]
            mask >>= 1
            i += 1
        rhs = self.rhs_coeff * t
        if self.rel == "eq":
            return lhs == rhs
        if self.rel == "le":
            return lhs < rhs
        return lhs > rhs


def facet_description(m: SparsePavingMatroid) -> list[LinearConstraint]:
    """Constraint system of the basis polytope, scaled to dilation t.

    sum x_i = k t; 0 <= x_i <= t per coordinate; sum over H of x_i <= (k-1) t
    per circuit-hyperplane H.  Exactly 2n + 1 + lambda constraints.
    """
    if m.k in (0, m.n):
        raise ValueError("degenerate polytope (a point)")
    out = [LinearConstraint(m.full_mask, "eq", m.k)]
    for i in range(m.n):
        out.append(LinearConstraint(1 << i, "ge", 0))
    for i in range(m.n):
        out.append(LinearConstraint(1 << i, "le", 1))
    for h in m.circuit_hyperplanes:
        out.append(LinearConstraint(h, "le", m.k - 1))
    return out


def matroid_to_text(m: SparsePavingMatroid) -> str:
    """Serialize in the matroid text format.

    First line "n k", then one circuit-hyperplane per line as sorted
    1-based element indices separated by spaces.
    """
    lines = [f"{m.n} {m.k}"]
    for h in m.circuit_hyperplanes:
        lines.append(" ".join(str(e) for e in elements_of(h)))
    return "\n".join(lines) + "\n"


def matroid_from_text(text: str, *, check_pairwise: bool = True) -> SparsePavingMatroid:
    """Parse the matroid text format; errors carry 1-based line numbers."""
    header: tuple[int, int] | None = None
    masks: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            parts = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer token ({exc})") from None
        if header is None:
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected header 'n k'")
            header = (parts[0], parts[1])
            continue
        n, k = header
        if len(parts) != k:
            raise ValueError(
                f"line {lineno}: expected {k} elements, got {len(parts)}"
            )
        try:
            masks.append(mask_from_elements(parts, n))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if header is None:
        raise ValueError("line 1: missing header 'n k'")
    try:
        return validate(header[0], header[1], masks, check_pairwise=check_pairwise)
    except ValueError as exc:
        raise ValueError(f"invalid matroid: {exc}") from None
