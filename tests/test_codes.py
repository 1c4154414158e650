from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrpos import codes
from ehrpos.codes import (
    ConstantWeightCode,
    _half_tables,
    _join,
    gs_best_class,
    gs_classes,
    gs_lower_bound,
    gs_partition,
    weight_k_masks,
)
from ehrpos.errors import BudgetExceededError
from ehrpos.matroid import circuit_hyperplane_bound, mask_from_elements
from ehrpos.ratpoly import binomial


def test_weight_k_masks_enumeration() -> None:
    masks = list(weight_k_masks(5, 2))
    assert len(masks) == 10
    assert masks == sorted(masks)
    assert all(m.bit_count() == 2 for m in masks)
    assert list(weight_k_masks(4, 0)) == [0]
    assert list(weight_k_masks(3, 3)) == [0b111]
    assert list(weight_k_masks(3, 4)) == []


def _ref_residue(word: int, n: int) -> int:
    """Reference: test every bit position below the word's length."""
    return sum(i for i in range(word.bit_length()) if word >> i & 1) % n


def _ref_classes(n: int, k: int) -> list[list[int]]:
    """Reference partition: every weight-k mask below 2^n, ascending, filed
    under its bit-walk residue."""
    classes: list[list[int]] = [[] for _ in range(n)]
    for w in range(1 << n):
        if w.bit_count() == k:
            classes[_ref_residue(w, n)].append(w)
    return classes


# every (n, k) up to n = 14, and the paper's cells
REFERENCE_CELLS = [(n, k) for n in range(1, 15) for k in range(n + 1)] + [
    (18, 9), (19, 8), (19, 11), (20, 9),
]


def test_residue_classes_match_reference_partition() -> None:
    for n, k in REFERENCE_CELLS:
        ref = _ref_classes(n, k)
        low, high, sizes = _half_tables(n, k)
        assert sizes == [len(c) for c in ref], (n, k)
        assert [list(_join(low, high, n, k, r)) for r in range(n)] == ref, (n, k)
        sizes, code = gs_partition(n, k)
        best = max(range(n), key=lambda r: (len(ref[r]), -r))
        assert code.class_index == best, (n, k)
        assert list(code.words) == ref[best], (n, k)


def test_partition_refuses_a_join_short_of_the_class_size(monkeypatch) -> None:
    join = codes._join
    monkeypatch.setattr(codes, "_join", lambda *args: join(*args)[1:])
    with pytest.raises(ArithmeticError, match="class 1 joined 1 words, its size is 2"):
        gs_partition(4, 2)


def test_gs_classes_4_2() -> None:
    assert gs_classes(4, 2) == [1, 2, 1, 2]


def test_gs_classes_partition() -> None:
    for n in range(2, 13):
        for k in range(n + 1):
            sizes = gs_classes(n, k)
            assert len(sizes) == n
            assert sum(sizes) == binomial(n, k)


def test_gs_best_class_4_2() -> None:
    code = gs_best_class(4, 2)
    assert code.class_index == 1
    assert set(code.words) == {0b0011, 0b1100}
    assert len(code.words) == 2


def test_gs_best_class_ties_prefer_smallest_residue() -> None:
    sizes = gs_classes(9, 3)
    code = gs_best_class(9, 3)
    best = max(sizes)
    assert sizes[code.class_index] == best
    assert all(s < best for s in sizes[: code.class_index])


def test_gs_classes_have_distance_four() -> None:
    for n in range(4, 11):
        for k in range(2, n - 1):
            by_residue: dict[int, list[int]] = {r: [] for r in range(n)}
            for w in weight_k_masks(n, k):
                by_residue[_ref_residue(w, n)].append(w)
            for words in by_residue.values():
                for i, a in enumerate(words):
                    for b in words[i + 1 :]:
                        assert (a ^ b).bit_count() >= 4


def test_gs_best_class_builds_valid_matroid() -> None:
    for n in range(4, 12):
        for k in range(2, n - 1):
            code = gs_best_class(n, k)
            m = code.to_matroid()
            assert m.n == n and m.k == k
            assert m.lam == len(code.words)


def test_bound_sandwich() -> None:
    # pigeonhole puts the best class at or above ceil(C(n,k)/n), and the
    # packing bound caps every code
    for n in range(4, 14):
        for k in range(2, n - 1):
            total = binomial(n, k)
            best = max(gs_classes(n, k))
            assert best >= gs_lower_bound(n, k)
            assert best >= -(-total // n)
            assert best <= circuit_hyperplane_bound(n, k)


def test_rank2_class_meets_packing_bound() -> None:
    # weight-2 classes are matchings; the best one is always maximum
    for n in range(4, 17):
        assert circuit_hyperplane_bound(n, 2) == n // 2
        code = gs_best_class(n, 2)
        assert len(code.words) == n // 2


def test_bounds_scalar_values() -> None:
    assert gs_lower_bound(20, 9) == binomial(20, 9) // 20
    assert gs_lower_bound(18, 9) == 2701
    assert circuit_hyperplane_bound(18, 9) == 4862
    assert gs_lower_bound(0, 1) == 0
    assert gs_lower_bound(5, 7) == 0
    # ranks 0 and n have no circuit-hyperplane, n = 1 included
    assert gs_lower_bound(1, 0) == 0
    assert gs_lower_bound(1, 1) == 0
    for n in range(61):
        for k in range(n + 1):
            assert gs_lower_bound(n, k) <= circuit_hyperplane_bound(n, k), (n, k)


def test_budget_error(monkeypatch) -> None:
    with pytest.raises(BudgetExceededError, match="class enumeration too large"):
        gs_partition(40, 20)
    with pytest.raises(BudgetExceededError):
        gs_best_class(64, 32)
    # the budget is read at call time and admits exactly binomial(n, k) words
    monkeypatch.setattr(codes, "WORD_BUDGET", binomial(16, 8))
    assert sum(gs_partition(16, 8)[0]) == binomial(16, 8)
    monkeypatch.setattr(codes, "WORD_BUDGET", binomial(16, 8) - 1)
    with pytest.raises(BudgetExceededError, match="12870 > 12869"):
        gs_partition(16, 8)


def test_code_determinism() -> None:
    a = gs_best_class(12, 5)
    b = gs_best_class(12, 5)
    assert a == b
    assert a.words == tuple(sorted(a.words))


def test_constant_weight_code_rejects_bad_words() -> None:
    with pytest.raises(ValueError, match="not a k-subset"):
        ConstantWeightCode(6, 3, (0b000011,), class_index=None).to_matroid()
    bad = ConstantWeightCode(6, 3, (0b000111, 0b001011), class_index=None)
    with pytest.raises(ValueError, match="adjacent in Johnson graph"):
        bad.to_matroid()


@settings(max_examples=40)
@given(st.data())
def test_residue_is_class_invariant(data: st.DataObject) -> None:
    n = data.draw(st.integers(4, 12))
    k = data.draw(st.integers(2, n - 2))
    code = gs_best_class(n, k)
    w = data.draw(st.sampled_from(code.words))
    assert _ref_residue(w, n) == code.class_index


def test_mask_convention_matches_one_based_elements() -> None:
    # element i contributes weight i - 1
    w = mask_from_elements([1, 4, 5], 6)
    assert _ref_residue(w, 6) == (0 + 3 + 4) % 6
