from __future__ import annotations

import ast
import re
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrpos.matroid import (
    SparsePavingMatroid,
    bases_count,
    circuit_hyperplane_bound,
    dual,
    elements_of,
    facet_description,
    mask_from_elements,
    matroid_from_text,
    matroid_to_text,
    rank_of,
    relax,
    validate,
)
from ehrpos.oracle import enumerate_small_matroids
from ehrpos.ratpoly import binomial


def mask(*elements: int, n: int = 6) -> int:
    return mask_from_elements(elements, n)


def all_bases(m: SparsePavingMatroid) -> list[int]:
    out = []
    for combo in combinations(range(m.n), m.k):
        b = sum(1 << i for i in combo)
        if b not in m.ch_set:
            out.append(b)
    return out


def test_mask_round_trip() -> None:
    assert mask_from_elements([1, 3, 4], 5) == 0b01101
    assert elements_of(0b01101) == [1, 3, 4]
    assert mask_from_elements([], 3) == 0
    with pytest.raises(ValueError):
        mask_from_elements([0], 3)
    with pytest.raises(ValueError):
        mask_from_elements([4], 3)
    with pytest.raises(ValueError):
        mask_from_elements([2, 2], 5)


def test_circuit_hyperplane_bound_values() -> None:
    assert circuit_hyperplane_bound(4, 2) == 2
    assert circuit_hyperplane_bound(6, 3) == 5
    assert circuit_hyperplane_bound(20, 9) == binomial(20, 9) // 12
    # degenerate ranks admit no circuit-hyperplanes
    assert circuit_hyperplane_bound(5, 0) == 0
    assert circuit_hyperplane_bound(5, 5) == 0


def test_validate_accepts_and_canonicalizes() -> None:
    m = validate(6, 3, [mask(4, 5, 6), mask(1, 2, 3)])
    assert m.circuit_hyperplanes == (mask(1, 2, 3), mask(4, 5, 6))
    assert m.lam == 2
    assert validate(4, 2, []).lam == 0


def test_validate_error_messages() -> None:
    with pytest.raises(ValueError, match="not a k-subset"):
        validate(6, 3, [mask(1, 2)])
    with pytest.raises(ValueError, match=r"adjacent in Johnson graph J\(6,3\)"):
        validate(6, 3, [mask(1, 2, 3), mask(1, 2, 4)])
    with pytest.raises(ValueError, match="exceeds circuit-hyperplane bound"):
        validate(4, 2, [mask(1, 2, n=4), mask(1, 3, n=4), mask(1, 4, n=4)])
    with pytest.raises(ValueError, match="outside"):
        validate(0, 0, [])
    with pytest.raises(ValueError, match="outside"):
        validate(4, 5, [])
    with pytest.raises(ValueError, match="outside"):
        validate(3, 2, [0b1100])
    # duplicates collapse instead of tripping the distance check
    assert validate(6, 3, [mask(1, 2, 3), mask(1, 2, 3)]).lam == 1


def first_close_pair(masks: list[int]) -> tuple[int, int] | None:
    """Reference: the first pair, in sorted order, at distance below 4."""
    ms = sorted(set(masks))
    for i, a in enumerate(ms):
        for b in ms[i + 1 :]:
            if (a ^ b).bit_count() < 4:
                return a, b
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_shadow_check_against_pairwise(data: st.DataObject) -> None:
    n = data.draw(st.integers(2, 10))
    k = data.draw(st.sampled_from([1, n - 1]) | st.integers(1, n - 1))
    drawn = data.draw(
        st.lists(st.frozensets(st.integers(1, n), min_size=k, max_size=k), max_size=15)
    )
    words = [mask_from_elements(s, n) for s in drawn]
    if data.draw(st.booleans()):  # thin to a valid code, so accepts are common
        code: list[int] = []
        for w in words:
            if all((w ^ c).bit_count() >= 4 for c in code):
                code.append(w)
        words = code
    if words and data.draw(st.booleans()):  # duplicate a word
        words.append(data.draw(st.sampled_from(words)))
    if words and data.draw(st.booleans()):  # inject a Johnson neighbour
        w = data.draw(st.sampled_from(words))
        inside = data.draw(st.sampled_from(elements_of(w)))
        outside = data.draw(st.sampled_from(sorted(set(range(1, n + 1)) - set(elements_of(w)))))
        words.append(w ^ 1 << (inside - 1) ^ 1 << (outside - 1))
    close = first_close_pair(words)
    if close is None:
        assert validate(n, k, words).circuit_hyperplanes == tuple(sorted(set(words)))
        return
    with pytest.raises(ValueError) as info:
        validate(n, k, words)
    message = str(info.value)
    if "exceeds circuit-hyperplane bound" in message:
        return
    assert message.endswith(f"are adjacent in Johnson graph J({n},{k})")
    a, b = (mask_from_elements(ast.literal_eval(s), n) for s in re.findall(r"\{[\d, ]+\}", message))
    assert (a ^ b).bit_count() == 2
    assert (a, b) == close


def test_validate_pairwise_opt_out() -> None:
    bad = [mask(1, 2, 3), mask(1, 2, 4)]
    m = validate(6, 3, bad, check_pairwise=False)
    assert m.lam == 2


def test_dual_involution() -> None:
    for n in range(2, 7):
        for k in range(1, n):
            for m in enumerate_small_matroids(n, k, 2):
                d = dual(m)
                assert d.n == m.n and d.k == m.n - m.k
                assert d.lam == m.lam
                assert dual(d) == m
                assert bases_count(d) == bases_count(m)


def test_relax_telescopes_to_uniform() -> None:
    m = validate(6, 3, [mask(1, 2, 3), mask(1, 4, 5), mask(2, 4, 6)])
    seen = [m.lam]
    while m.lam:
        m = relax(m, m.circuit_hyperplanes[0])
        seen.append(m.lam)
    assert seen == [3, 2, 1, 0]
    assert m.circuit_hyperplanes == ()
    with pytest.raises(ValueError, match="cannot relax a basis"):
        relax(m, mask(1, 2, 3))


def test_relax_increases_bases_by_one() -> None:
    m = validate(6, 3, [mask(1, 2, 3), mask(4, 5, 6)])
    r = relax(m, mask(4, 5, 6))
    assert bases_count(r) == bases_count(m) + 1
    assert r.ch_set == {mask(1, 2, 3)}


def test_rank_of_against_basis_intersections() -> None:
    # matroid rank is the largest intersection with a basis
    for n in range(2, 8):
        for k in range(1, n):
            for m in enumerate_small_matroids(n, k, 2):
                bases = all_bases(m)
                for a in range(1 << n):
                    brute = max((a & b).bit_count() for b in bases)
                    assert rank_of(m, a) == brute, (m, bin(a))


def test_rank_of_rejects_foreign_elements() -> None:
    m = validate(4, 2, [])
    with pytest.raises(ValueError, match="outside ground set"):
        rank_of(m, 1 << 5)


def test_facet_description_shape() -> None:
    m = validate(6, 3, [mask(1, 2, 3), mask(4, 5, 6)])
    constraints = facet_description(m)
    assert len(constraints) == 2 * 6 + 1 + 2
    eqs = [c for c in constraints if c.rel == "eq"]
    assert len(eqs) == 1 and eqs[0].mask == m.full_mask and eqs[0].rhs_coeff == 3
    with pytest.raises(ValueError, match=r"degenerate polytope \(a point\)"):
        facet_description(validate(4, 0, []))
    with pytest.raises(ValueError, match=r"degenerate polytope \(a point\)"):
        facet_description(validate(4, 4, []))


def test_facet_points_at_t1_are_bases() -> None:
    # the only integer points of the undilated polytope are its vertices
    for n in range(2, 8):
        for k in range(1, n):
            for m in enumerate_small_matroids(n, k, 2):
                constraints = facet_description(m)
                hits = [
                    x
                    for x in product((0, 1), repeat=n)
                    if all(c.holds(x, 1) for c in constraints)
                ]
                expected = sorted(
                    tuple((b >> i) & 1 for i in range(n)) for b in all_bases(m)
                )
                assert sorted(hits) == expected


def test_linear_constraint_strictness() -> None:
    c_le = next(c for c in facet_description(validate(4, 2, [])) if c.rel == "le")
    x = (1, 0, 1, 0)
    assert c_le.holds(x, 1)
    assert not c_le.holds_strict(x, 1)
    c_eq = facet_description(validate(4, 2, []))[0]
    assert c_eq.holds(x, 1) and c_eq.holds_strict(x, 1)


def test_text_round_trip() -> None:
    m = validate(6, 3, [mask(1, 2, 3), mask(1, 4, 5)])
    text = matroid_to_text(m)
    assert text == "6 3\n1 2 3\n1 4 5\n"
    assert matroid_from_text(text) == m
    assert matroid_from_text("4 2\n") == validate(4, 2, [])


@settings(max_examples=50)
@given(st.data())
def test_text_round_trip_random(data: st.DataObject) -> None:
    n = data.draw(st.integers(2, 7))
    k = data.draw(st.integers(1, n - 1))
    pool = list(enumerate_small_matroids(n, k, 2))
    m = data.draw(st.sampled_from(pool))
    assert matroid_from_text(matroid_to_text(m)) == m


def test_text_parse_errors_carry_line_numbers() -> None:
    with pytest.raises(ValueError, match="line 1: expected header 'n k'"):
        matroid_from_text("6\n")
    with pytest.raises(ValueError, match="line 1: non-integer token"):
        matroid_from_text("six 3\n")
    with pytest.raises(ValueError, match="line 2: non-integer token"):
        matroid_from_text("6 3\n1 2 x\n")
    with pytest.raises(ValueError, match="line 3: expected 3 elements"):
        matroid_from_text("6 3\n1 2 3\n4 5\n")
    with pytest.raises(ValueError, match="missing header"):
        matroid_from_text("")
    with pytest.raises(ValueError, match="invalid matroid"):
        matroid_from_text("6 3\n1 2 3\n1 2 4\n")


def test_blank_lines_ignored() -> None:
    text = "\n6 3\n1 2 3\n\n4 5 6\n\n"
    m = matroid_from_text(text)
    assert m.lam == 2
