from __future__ import annotations

import operator
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrpos import oracle
from ehrpos.codes import gs_best_class
from ehrpos.ehrhart import count_points_uniform, ehr_sparse
from ehrpos.errors import BudgetExceededError
from ehrpos.matroid import (
    SparsePavingMatroid,
    circuit_hyperplane_bound,
    mask_from_elements,
    validate,
)
from ehrpos.oracle import (
    ORACLE_MAX_N,
    ORACLE_MAX_T,
    enumerate_small_matroids,
    oracle_count,
    oracle_interior_count,
)


def uniform(k: int, n: int) -> SparsePavingMatroid:
    return validate(n, k, [])


def dfs_count(m: SparsePavingMatroid, t: int, *, interior: bool) -> int:
    """Reference route: depth-first search over the coordinates, one leaf
    per lattice point, with the same bounds and hyperplane checks."""
    n, k = m.n, m.k
    lo, hi = (1, t - 1) if interior else (0, t)
    cap = (k - 1) * t - (1 if interior else 0)
    if hi < lo:
        return 0
    chs = m.circuit_hyperplanes
    per_coord = [[j for j, h in enumerate(chs) if h >> i & 1] for i in range(n)]
    sums = [0] * len(chs)

    def rec(i: int, rem: int) -> int:
        if i == n:
            return 1 if rem == 0 else 0
        left = n - i - 1
        total = 0
        for x in range(max(lo, rem - hi * left), min(hi, rem - lo * left) + 1):
            if any(sums[j] + x > cap for j in per_coord[i]):
                break  # prefix sums grow with x, so larger x stay blocked
            for j in per_coord[i]:
                sums[j] += x
            total += rec(i + 1, rem - x)
            for j in per_coord[i]:
                sums[j] -= x
        return total

    return rec(0, k * t)


def point_in_dilate(
    m: SparsePavingMatroid, x: tuple[int, ...], t: int, *, interior: bool = False
) -> bool:
    """Membership of x in t * P(M), or in its relative interior, from the
    definition: 0 <= x_i <= t, sum x = k t and x(H) <= (k - 1) t per
    circuit-hyperplane H.  The interior makes each inequality strict and
    keeps the sum."""
    if len(x) != m.n:
        raise ValueError("point has wrong dimension")
    below = operator.lt if interior else operator.le
    return (
        all(below(0, xi) and below(xi, t) for xi in x)
        and sum(x) == m.k * t
        and all(
            below(sum(xi for i, xi in enumerate(x) if h >> i & 1), (m.k - 1) * t)
            for h in m.circuit_hyperplanes
        )
    )


def box_count(m: SparsePavingMatroid, t: int, *, interior: bool) -> int:
    """Reference route: every point of the box [0, t]^n, kept when the
    definition admits it."""
    return sum(
        point_in_dilate(m, x, t, interior=interior) for x in product(range(t + 1), repeat=m.n)
    )


def assert_counts_match_references(m: SparsePavingMatroid, t: int) -> None:
    closed = oracle_count(m, t)
    assert closed == dfs_count(m, t, interior=False) == box_count(m, t, interior=False), (m, t)
    inner = oracle_interior_count(m, t)
    assert inner == dfs_count(m, t, interior=True) == box_count(m, t, interior=True), (m, t)


def test_oracle_count_examples() -> None:
    assert oracle_count(uniform(2, 3), 1) == 3
    m = validate(4, 2, [0b0011, 0b1100])
    assert oracle_count(m, 1) == 4
    for any_m in (uniform(2, 5), m, validate(6, 3, [0b000111])):
        assert oracle_count(any_m, 0) == 1


def test_enumeration_budget() -> None:
    # refused at the call, before any matroid is asked for
    with pytest.raises(BudgetExceededError, match=r"enumeration too large: n = 8 \(max 7\)"):
        enumerate_small_matroids(8, 4, 0)


def test_oracle_interior_examples() -> None:
    assert oracle_interior_count(uniform(2, 3), 1) == 0
    p = ehr_sparse(3, 2, 0)
    assert oracle_interior_count(uniform(2, 3), 3) == (-1) ** 2 * p(-3)
    for any_m in (uniform(2, 4), validate(5, 2, [0b00011])):
        assert oracle_interior_count(any_m, 1) == 0


def test_oracle_against_brute_force_box() -> None:
    m = validate(4, 2, [0b0011])
    for t in range(4):
        pts = [
            x
            for x in product(range(t + 1), repeat=4)
            if sum(x) == 2 * t and x[0] + x[1] <= t
        ]
        assert oracle_count(m, t) == len(pts)


def test_oracle_uniform_cross_check() -> None:
    for n in range(2, 8):
        for k in range(1, n):
            for t in range(5):
                assert oracle_count(uniform(k, n), t) == count_points_uniform(k, n, t)


def test_oracle_uniform_cross_check_n8() -> None:
    for k in (1, 4):
        for t in (3, 5):
            assert oracle_count(uniform(k, 8), t) == count_points_uniform(k, 8, t)


def test_oracle_matches_formula_on_sparse_families() -> None:
    cases = [
        validate(6, 3, [0b000111, 0b111000]),
        validate(5, 2, [0b00011, 0b01100]),
        validate(6, 2, [0b000011, 0b001100, 0b110000]),
        validate(7, 3, [mask_from_elements([1, 2, 3], 7)]),
        gs_best_class(10, 5).to_matroid(),  # 26 circuit-hyperplanes
    ]
    for m in cases:
        p = ehr_sparse(m.n, m.k, m.lam)
        for t in range(4):
            assert oracle_count(m, t) == p(t)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_counts_match_dfs_and_box(data: st.DataObject) -> None:
    n = data.draw(st.integers(2, 7))
    k = data.draw(st.integers(1, n - 1))
    m = data.draw(st.sampled_from(list(enumerate_small_matroids(n, k, 3))))
    t = data.draw(st.integers(0, 4))
    assert_counts_match_references(m, t)


def test_counts_match_dfs_on_every_small_matroid() -> None:
    for n in range(2, 7):
        for k in range(1, n):
            for m in enumerate_small_matroids(n, k, 3):
                for t in range(5):
                    assert oracle_count(m, t) == dfs_count(m, t, interior=False), (m, t)
                    assert oracle_interior_count(m, t) == dfs_count(m, t, interior=True), (m, t)


# p = n - 2 and q = n - 1 in the ids.  Each case has at most two atoms, H's
# coordinates and the free ones, and the last atom is read from the packed
# digits.  The free atom's key () sorts first, so every case with an H
# places the free atom first and reads H's atom last, wherever H lies;
# n2-uniform is one atom, read from the digits at once.
@pytest.mark.parametrize(
    ("n", "chs", "closed", "interior"),
    [
        (4, [0b0101], [1, 5, 14, 30, 55], [0, 0, 0, 1, 5]),
        (4, [0b1001], [1, 5, 14, 30, 55], [0, 0, 0, 1, 5]),
        (4, [0b1100], [1, 5, 14, 30, 55], [0, 0, 0, 1, 5]),
        (2, [], [1, 2, 3, 4, 5], [0, 0, 1, 2, 3]),
        (2, [0b01], [1, 1, 1, 1, 1], [0, 0, 0, 0, 0]),
        (2, [0b10], [1, 1, 1, 1, 1], [0, 0, 0, 0, 0]),
    ],
    ids=["H-holds-only-p", "H-holds-only-q", "H-holds-both", "n2-uniform", "n2-H-is-p", "n2-H-is-q"],
)
def test_tail_rules(n: int, chs: list[int], closed: list[int], interior: list[int]) -> None:
    m = validate(n, n // 2, chs)
    assert [oracle_count(m, t) for t in range(5)] == closed
    assert [oracle_interior_count(m, t) for t in range(5)] == interior
    for t in range(5):
        assert_counts_match_references(m, t)


def _ref_compositions(g: int, hi: int) -> list[int]:
    """Reference route: add one part at a time, every value of it."""
    ways = [1]
    for _ in range(g):
        nxt = [0] * (len(ways) + hi)
        for s, w in enumerate(ways):
            for x in range(s, s + hi + 1):
                nxt[x] += w
        ways = nxt
    return ways


def test_compositions_match_product() -> None:
    # every atom size an instance within the budgets can have, at every
    # box bound: hi = t for the closed count, t - 2 for the interior; the
    # brute-force product stays affordable up to g = 4
    for g in range(1, ORACLE_MAX_N + 1):
        for hi in range(ORACLE_MAX_T + 1):
            expected = _ref_compositions(g, hi)
            if g <= 4:
                brute = [0] * (g * hi + 1)
                for ys in product(range(hi + 1), repeat=g):
                    brute[sum(ys)] += 1
                assert brute == expected, (g, hi)
            assert oracle._compositions(g, hi) == expected, (g, hi)


@pytest.mark.parametrize(
    ("chs", "atoms"),
    [
        ([], 1),
        ([0b000111, 0b111000], 2),  # complementary: a degenerate polytope
        ([0b000111, 0b011100, 0b110001], 6),  # a triangle: each pair meets once
    ],
    ids=["lambda0-one-atom", "two-atoms-cover-all", "triangle-six-atoms"],
)
def test_atom_shapes_match_dfs(chs: list[int], atoms: int) -> None:
    m = validate(6, 3, chs)
    assert len({tuple(h >> i & 1 for h in chs) for i in range(6)}) == atoms
    structure = oracle.atom_structure(m)
    assert len(structure) == atoms
    assert sum(g for _, g in structure) == 6
    for t in range(ORACLE_MAX_T + 1):
        assert oracle_count(m, t) == dfs_count(m, t, interior=False), t
        assert oracle_interior_count(m, t) == dfs_count(m, t, interior=True), t


@pytest.mark.parametrize(
    ("chs", "sizes"),
    [
        ([0b000111, 0b011100, 0b110001], [1]),  # the triangle: six atoms of one coordinate
        ([0b000111, 0b011100], [1, 2]),  # {1, 2}, {3}, {4, 5}, {6}
    ],
    ids=["triangle-one-size", "two-sizes"],
)
def test_one_compositions_table_per_atom_size(
    chs: list[int], sizes: list[int], monkeypatch
) -> None:
    m = validate(6, 3, chs)
    real = oracle._compositions
    calls: list[int] = []

    def counted(g: int, hi: int) -> list[int]:
        calls.append(g)
        return real(g, hi)

    monkeypatch.setattr(oracle, "_compositions", counted)
    for t in range(2, ORACLE_MAX_T + 1):  # from t = 2 the interior count places atoms too
        for interior, count in ((False, oracle_count), (True, oracle_interior_count)):
            calls.clear()
            assert count(m, t) == dfs_count(m, t, interior=interior)
            assert sorted(calls) == sizes, (interior, t)


def reversed_labels(m: SparsePavingMatroid) -> SparsePavingMatroid:
    """m with element i + 1 relabelled n - i, validated again."""
    n = m.n
    flip = [sum(1 << (n - 1 - i) for i in range(n) if h >> i & 1) for h in m.circuit_hyperplanes]
    return validate(n, m.k, flip)


def test_counts_ignore_element_labels() -> None:
    # reversing the ground set reorders the masks, hence the hyperplane
    # indices and the order in which the atoms are placed
    for n in range(2, 7):
        for k in range(1, n):
            for m in enumerate_small_matroids(n, k, 3):
                r = reversed_labels(m)
                for t in range(5):
                    assert oracle_count(r, t) == oracle_count(m, t), (m, t)
                    assert oracle_interior_count(r, t) == oracle_interior_count(m, t), (m, t)
    m = reversed_labels(gs_best_class(10, 5).to_matroid())
    assert m.lam == 26
    assert oracle_count(m, 3) == ehr_sparse(10, 5, 26)(3)


def test_wide_digits_many_atoms() -> None:
    # eight single-coordinate atoms at t = 6: 24-bit digits, k t + 1 = 25 of them
    m = gs_best_class(8, 4).to_matroid()
    assert m.lam == 10
    p = ehr_sparse(8, 4, 10)
    assert p.degree == 7
    assert oracle_count(m, ORACLE_MAX_T) == p(ORACLE_MAX_T)
    assert oracle_interior_count(m, ORACLE_MAX_T) == -p(-ORACLE_MAX_T)


def test_interior_is_empty_at_t_1() -> None:
    # 0 < x_i < 1 admits no integer
    for n in range(2, 7):
        for k in range(1, n):
            assert all(oracle_interior_count(m, 1) == 0 for m in enumerate_small_matroids(n, k, 3))


# at t = 3 the closed count's box is [0, 3]^n and the interior count's [0, 1]^n
@pytest.mark.parametrize("side_hi", [3, 1], ids=["closed", "interior"])
def test_reference_check_catches_an_off_by_one(side_hi: int, monkeypatch) -> None:
    m = validate(5, 2, [0b00011, 0b01100])
    assert_counts_match_references(m, 3)
    real = oracle._count_points
    monkeypatch.setattr(
        oracle,
        "_count_points",
        lambda atoms, hi, total, cap: real(atoms, hi, total, cap) + (hi == side_hi),
    )
    with pytest.raises(AssertionError):
        assert_counts_match_references(m, 3)


def test_budget_corner() -> None:
    # n = ORACLE_MAX_N at t = ORACLE_MAX_T
    for k in (1, 5, 9):
        m = uniform(k, ORACLE_MAX_N)
        assert oracle_count(m, ORACLE_MAX_T) == count_points_uniform(k, ORACLE_MAX_N, ORACLE_MAX_T)
    m = validate(ORACLE_MAX_N, 5, [0b0000011111, 0b0001100111])
    assert oracle_count(m, ORACLE_MAX_T) == ehr_sparse(ORACLE_MAX_N, 5, 2)(ORACLE_MAX_T)


def test_oracle_budgets() -> None:
    with pytest.raises(BudgetExceededError, match="oracle instance too large"):
        oracle_count(uniform(2, 3), ORACLE_MAX_T + 1)
    with pytest.raises(BudgetExceededError, match="oracle instance too large"):
        oracle_count(uniform(5, ORACLE_MAX_N + 1), 1)
    with pytest.raises(ValueError):
        oracle_count(uniform(2, 3), -1)
    with pytest.raises(ValueError, match="degenerate"):
        oracle_count(validate(4, 0, []), 2)


def test_point_in_dilate() -> None:
    m = uniform(2, 4)
    assert point_in_dilate(m, (1, 1, 0, 0), 1)
    assert not point_in_dilate(m, (1, 1, 0, 0), 1, interior=True)
    assert point_in_dilate(m, (1, 1, 1, 1), 2)
    assert point_in_dilate(m, (1, 1, 1, 1), 2, interior=True)
    assert not point_in_dilate(m, (2, 0, 0, 0), 1)
    with pytest.raises(ValueError, match="wrong dimension"):
        point_in_dilate(m, (1, 1, 0), 1)


def test_point_in_dilate_respects_circuit_hyperplanes() -> None:
    m = validate(4, 2, [0b0011])
    # x1 + x2 = 2 > t * (k - 1) = 1 excludes the relaxed vertex
    assert not point_in_dilate(m, (1, 1, 0, 0), 1)
    assert point_in_dilate(m, (1, 0, 1, 0), 1)


def test_enumerate_4_2_contents() -> None:
    ms = list(enumerate_small_matroids(4, 2, 2))
    assert len(ms) == 10
    lams = sorted(m.lam for m in ms)
    assert lams == [0] + [1] * 6 + [2] * 3
    # the three two-element families pair complementary subsets
    for m in ms:
        if m.lam == 2:
            a, b = m.circuit_hyperplanes
            assert a ^ b == 0b1111


def test_enumerate_5_2_disjoint_pairs() -> None:
    ms = list(enumerate_small_matroids(5, 2, 2))
    assert len(ms) == 1 + 10 + 15
    for m in ms:
        if m.lam == 2:
            a, b = m.circuit_hyperplanes
            assert a & b == 0


def test_enumerate_respects_bound_and_order() -> None:
    ms = list(enumerate_small_matroids(6, 3, 99))
    assert all(m.lam <= circuit_hyperplane_bound(6, 3) for m in ms)
    chs = [m.circuit_hyperplanes for m in ms]
    assert chs == sorted(chs)
    assert chs[0] == ()
    with pytest.raises(BudgetExceededError, match="enumeration too large"):
        enumerate_small_matroids(8, 4, 1)
    # a negative cap is refused, not read as no cap
    for n, k in ((4, 2), (6, 3)):
        with pytest.raises(ValueError, match="lambda_max >= 0"):
            enumerate_small_matroids(n, k, -1)


def test_enumerate_all_validate() -> None:
    for m in enumerate_small_matroids(6, 3, 2):
        assert validate(m.n, m.k, m.circuit_hyperplanes) == m


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_count_monotone_in_relaxation(data: st.DataObject) -> None:
    # dropping a circuit-hyperplane can only add points
    n = data.draw(st.integers(4, 6))
    k = data.draw(st.integers(2, n - 2))
    pool = [m for m in enumerate_small_matroids(n, k, 2) if m.lam]
    m = data.draw(st.sampled_from(pool))
    relaxed = SparsePavingMatroid(n, k, m.circuit_hyperplanes[1:])
    t = data.draw(st.integers(0, 3))
    assert oracle_count(relaxed, t) >= oracle_count(m, t)


def test_oracle_runtime_smoke() -> None:
    t0 = time.perf_counter()
    oracle_count(uniform(5, 10), 3)
    assert time.perf_counter() - t0 < 30
