from __future__ import annotations

from itertools import product

from ehrpos import verify
from ehrpos.matroid import facet_description, rank_of
from ehrpos.oracle import enumerate_small_matroids
from ehrpos.ratpoly import Polynomial


def small_matroids():
    """The 502 matroids that criterion 9 certifies."""
    for n in range(2, 7):
        for k in range(1, n):
            yield from enumerate_small_matroids(n, k, 3)


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
    matroids = list(small_matroids())
    assert len(matroids) == 502
    for m in matroids:
        for t in (1, 2):
            assert verify._facet_rank_descriptions_agree(m, t) == per_subset_agree(m, t), (m, t)


def test_facet_rank_check_catches_a_wrong_rank(monkeypatch) -> None:
    # a circuit-hyperplane H has rank k - 1; calling it a basis lets the
    # rank side accept the vertex 1_H, which the facet H <= (k - 1) t cuts off
    m = next(m for m in enumerate_small_matroids(6, 3, 1) if m.lam == 1)
    h = m.circuit_hyperplanes[0]
    assert verify._facet_rank_descriptions_agree(m, 1)
    monkeypatch.setattr(verify, "rank_of", lambda mm, a: mm.k if a == h else rank_of(mm, a))
    assert verify._facet_rank_descriptions_agree(m, 1) is False
    assert verify._facet_rank_descriptions_agree(m, 2) is False


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
