from __future__ import annotations

from itertools import product

import pytest

from ehrpos import verify
from ehrpos.matroid import facet_description, rank_of
from ehrpos.oracle import enumerate_small_matroids, oracle_count
from ehrpos.ratpoly import Polynomial


def small_matroids():
    """The 502 matroids that criterion 9 certifies."""
    for n in range(2, 7):
        for k in range(1, n):
            yield from enumerate_small_matroids(n, k, 3)


def _by_nk() -> dict[tuple[int, int], list]:
    """The same matroids, grouped by (n, k)."""
    out: dict[tuple[int, int], list] = {}
    for m in small_matroids():
        out.setdefault((m.n, m.k), []).append(m)
    return out


def per_subset_agree(m, t: int) -> bool:
    """Reference route: sum x again over every subset mask at every point."""
    constraints = facet_description(m)
    subsets = list(range(1, 1 << m.n))
    for x in product(range(t + 1), repeat=m.n):
        if sum(x) != m.k * t:
            continue
        by_facets = all(c.holds(x, t) for c in constraints)
        by_rank = all(
            sum(x[i] for i in range(m.n) if a >> i & 1) <= t * rank_of(m, a)
            for a in subsets
        )
        if by_facets != by_rank:
            return False
    return True


def test_subset_sums_against_brute_force() -> None:
    for n in range(5):
        for x in product(range(3), repeat=n):
            sums = verify._subset_sums(x)
            assert len(sums) == 1 << n
            for a, s in enumerate(sums):
                assert s == sum(x[i] for i in range(n) if a >> i & 1), (x, a)


def test_facet_rank_fast_path_matches_per_subset_route() -> None:
    # one slice per (n, k, t), shared by the matroids as in criterion 9
    by_nk = _by_nk()
    assert sum(map(len, by_nk.values())) == 502
    for (n, k), matroids in by_nk.items():
        for t in (1, 2):
            sl = verify._Slice(n, k, t)
            for m in matroids:
                assert sl.agree(m) == per_subset_agree(m, t), (m, t)


def test_facet_rank_check_catches_a_wrong_rank(monkeypatch) -> None:
    # a circuit-hyperplane H has rank k - 1; calling it a basis lets the
    # rank side accept the vertex 1_H, which the facet H <= (k - 1) t cuts off
    m = next(m for m in enumerate_small_matroids(6, 3, 1) if m.lam == 1)
    h = m.circuit_hyperplanes[0]
    assert verify._Slice(6, 3, 1).agree(m)
    monkeypatch.setattr(verify, "rank_of", lambda mm, a: mm.k if a == h else rank_of(mm, a))
    assert verify._Slice(6, 3, 1).agree(m) is False
    assert verify._Slice(6, 3, 2).agree(m) is False


def test_facet_rank_check_catches_a_missing_facet(monkeypatch) -> None:
    # without its circuit-hyperplane constraint the facet side accepts the
    # vertex 1_H, which the rank bound rank(H) = k - 1 still cuts off
    m = next(m for m in enumerate_small_matroids(6, 3, 1) if m.lam == 1)
    assert verify._Slice(6, 3, 1).agree(m)
    monkeypatch.setattr(
        verify, "facet_description", lambda mm: facet_description(mm)[: -1 if mm.lam else None]
    )
    assert verify._Slice(6, 3, 1).agree(m) is False
    ok, detail = verify.check_oracle_certification()
    assert ok is False
    assert detail.startswith("facet/rank description mismatch at ")


def test_facet_side_accepts_exactly_the_oracle_count() -> None:
    # ties the shared tables to the lattice-point oracle: the slice points
    # that no facet rejects are the lattice points of the t-th dilate
    for (n, k), matroids in _by_nk().items():
        for t in (1, 2):
            sl = verify._Slice(n, k, t)
            for m in matroids:
                accepted = len(sl.points) - sl.rejected_by_facets(m).bit_count()
                assert accepted == oracle_count(m, t), (m, t)


@pytest.mark.parametrize("wrong", [-1, 4])
def test_out_of_range_rank_raises(monkeypatch, wrong: int) -> None:
    m = next(enumerate_small_matroids(6, 3, 0))
    monkeypatch.setattr(verify, "rank_of", lambda mm, a: wrong if a == 0b111 else rank_of(mm, a))
    with pytest.raises(ArithmeticError, match="outside 0..3"):
        verify._Slice(6, 3, 1).agree(m)


def test_criterion_5_detail_counts_violations(monkeypatch) -> None:
    real = verify._capped_poly
    monkeypatch.setattr(
        verify,
        "_capped_poly",
        lambda k, n: Polynomial([1, -1, 1]) if (k, n) == (2, 5) else real(k, n),
    )
    ok, detail = verify.check_rank_bound_positivity_17()
    assert not ok
    assert "all" not in detail
    assert detail == "152 of 153 capped polynomials positive; violations: [(2, 5)]"
