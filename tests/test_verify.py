from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from ehrpos import ehrhart, verify
from ehrpos.matroid import circuit_hyperplane_bound, rank_of
from ehrpos.oracle import (
    atom_structure,
    enumerate_small_matroids,
    oracle_count,
    oracle_interior_count,
)
from ehrpos.ratpoly import Polynomial


def small_matroids():
    """The 532 matroids that criterion 9 certifies: every one with n <= 6."""
    for n in range(2, 7):
        for k in range(1, n):
            yield from enumerate_small_matroids(n, k, circuit_hyperplane_bound(n, k))


def _by_nk() -> dict[tuple[int, int], list]:
    """The same matroids, grouped by (n, k)."""
    out: dict[tuple[int, int], list] = {}
    for m in small_matroids():
        out.setdefault((m.n, m.k), []).append(m)
    return out


def rank_accepted(sl: verify._Slice, m) -> int:
    """Fast path: the slice points that the rank table does not reject."""
    return len(sl.points) - sl.rejected_by_rank(verify._rank_vector(m)).bit_count()


def test_subset_sums_against_brute_force() -> None:
    for n in range(5):
        for x in product(range(3), repeat=n):
            sums = verify._subset_sums(x)
            assert len(sums) == 1 << n
            for a, s in enumerate(sums):
                assert s == sum(x[i] for i in range(n) if a >> i & 1), (x, a)


def test_facet_rank_fast_path_matches_per_subset_route() -> None:
    # one slice per (n, k, t), shared by the matroids as in criterion 9; the
    # reference sums x again over every mask at every point
    by_nk = _by_nk()
    assert sum(map(len, by_nk.values())) == 532
    for (n, k), matroids in by_nk.items():
        for t in (1, 2):
            sl = verify._Slice(n, k, t)
            masks = range(1, 1 << n)
            sums = [[sum(x[i] for i in range(n) if a >> i & 1) for a in masks] for x in sl.points]
            for m in matroids:
                caps = [t * rank_of(m, a) for a in masks]
                reference = sum(all(s <= c for s, c in zip(row, caps)) for row in sums)
                assert rank_accepted(sl, m) == reference, (m, sl.t)


def test_facet_side_accepts_exactly_the_oracle_count() -> None:
    # ties the rank table to the lattice-point oracle: the slice points that
    # the rank side accepts, and those that pass each circuit-hyperplane
    # facet x(H) <= (k - 1) t, are the lattice points of the t-th dilate
    for (n, k), matroids in _by_nk().items():
        for t in (1, 2):
            sl = verify._Slice(n, k, t)
            for m in matroids:
                cap = (k - 1) * t
                by_facets = sum(
                    all(sum(x[i] for i in range(n) if h >> i & 1) <= cap for h in m.circuit_hyperplanes)
                    for x in sl.points
                )
                assert rank_accepted(sl, m) == by_facets == oracle_count(m, t), (m, t)


def test_facet_rank_check_catches_a_wrong_rank(monkeypatch) -> None:
    # a circuit-hyperplane H has rank k - 1; calling it a basis lets the
    # rank side accept the vertex 1_H at t = 1, which the oracle's cap cuts off
    m = next(m for m in enumerate_small_matroids(6, 3, 1) if m.lam == 1)
    h = m.circuit_hyperplanes[0]
    sl = verify._Slice(6, 3, 1)
    before = sl.rejected_by_rank(verify._rank_vector(m))
    monkeypatch.setattr(verify, "rank_of", lambda mm, a: mm.k if a == h else rank_of(mm, a))
    after = sl.rejected_by_rank(verify._rank_vector(m))
    gained = [x for p, x in enumerate(sl.points) if (before & ~after) >> p & 1]
    assert gained == [tuple(h >> i & 1 for i in range(6))]
    for t in (1, 2):
        assert rank_accepted(verify._Slice(6, 3, t), m) > oracle_count(m, t)


@pytest.mark.parametrize("wrong", [-1, 4])
def test_out_of_range_rank_raises(monkeypatch, wrong: int) -> None:
    m = next(enumerate_small_matroids(6, 3, 0))
    monkeypatch.setattr(verify, "rank_of", lambda mm, a: wrong if a == 0b111 else rank_of(mm, a))
    with pytest.raises(ArithmeticError, match="outside 0..3"):
        verify._rank_vector(m)


def test_criterion_9_builds_each_value_once(monkeypatch) -> None:
    # per matroid one atom structure and one rank vector (2^n masks), per
    # (n, k, lambda) one polynomial, and per (n, k, atom structure) one
    # oracle count per t, which the rank clause at t = 1, 2 reuses
    calls: Counter[str] = Counter()
    names = ("rank_of", "ehr_sparse", "oracle_count", "oracle_interior_count", "atom_structure")
    for name in names:

        def counted(*args, _real=getattr(verify, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(verify, name, counted)
    assert verify.check_oracle_certification()[0]
    ms = list(small_matroids())
    assert len(ms) == 532
    assert sum(2**m.n for m in ms) == 30412
    assert len({(m.n, m.k, m.lam) for m in ms}) == 40
    assert len({(m.n, m.k, atom_structure(m)) for m in ms}) == 41
    assert calls == {
        "rank_of": 30412,
        "ehr_sparse": 40,
        "oracle_count": 41 * 5,
        "oracle_interior_count": 41 * 4,
        "atom_structure": 532,
    }


def test_criterion_9_shared_counts_match_direct_counts(monkeypatch) -> None:
    # fast path against the slow path it replaces: the counts that criterion
    # 9 takes for each (n, k, atom structure) from its first matroid are
    # those that the oracle gives every matroid of that structure
    shared: dict[tuple, list[int]] = {}
    real = {name: getattr(verify, name) for name in ("oracle_count", "oracle_interior_count")}
    for name, fn in real.items():

        def recorded(m, t, _fn=fn, _name=name):
            out = _fn(m, t)
            shared.setdefault((m.n, m.k, atom_structure(m), _name), []).append(out)
            return out

        monkeypatch.setattr(verify, name, recorded)
    assert verify.check_oracle_certification()[0]
    for m in small_matroids():
        key = m.n, m.k, atom_structure(m)
        assert shared[(*key, "oracle_count")] == [oracle_count(m, t) for t in range(5)], m
        inner = [oracle_interior_count(m, t) for t in range(1, 5)]
        assert shared[(*key, "oracle_interior_count")] == inner, m


# the last (6, 3) matroid with lambda = 3, so that the values of its
# lambda were built for an earlier matroid and are shared
LAST_6_3 = [m for m in enumerate_small_matroids(6, 3, 3) if m.lam == 3][-1]
FIRST_6_3_LAMBDA_2 = next(m for m in enumerate_small_matroids(6, 3, 3) if m.lam == 2)
# the first (6, 3) matroid with LAST_6_3's atom structure, well before it:
# criterion 9 counts the structure there, and LAST_6_3 reads the shared counts
FIRST_LIKE_LAST_6_3 = next(
    m for m in enumerate_small_matroids(6, 3, 4) if atom_structure(m) == atom_structure(LAST_6_3)
)


def _corrupt_closed_count(monkeypatch) -> str:
    real = verify.oracle_count
    monkeypatch.setattr(
        verify, "oracle_count", lambda m, t: real(m, t) + (m == FIRST_LIKE_LAST_6_3 and t == 3)
    )
    return f"count mismatch at {FIRST_LIKE_LAST_6_3}, t = 3"


def _corrupt_interior_count(monkeypatch) -> str:
    real = verify.oracle_interior_count
    monkeypatch.setattr(
        verify,
        "oracle_interior_count",
        lambda m, t: real(m, t) + (m == FIRST_LIKE_LAST_6_3 and t == 2),
    )
    return f"reciprocity mismatch at {FIRST_LIKE_LAST_6_3}, t = 2"


def _corrupt_one_structure(monkeypatch) -> str:
    # LAST_6_3 (lambda = 3) read as the structure of an earlier lambda = 2
    # matroid takes that matroid's shared counts: 18 bases at t = 1, not 17
    real = verify.atom_structure
    wrong = real(FIRST_6_3_LAMBDA_2)
    monkeypatch.setattr(verify, "atom_structure", lambda m: wrong if m == LAST_6_3 else real(m))
    return f"count mismatch at {LAST_6_3}, t = 1"


def _corrupt_one_lambda(monkeypatch) -> str:
    # + t^2 leaves p(0) alone, so the first lambda = 2 matroid fails at t = 1
    real = verify.ehr_sparse
    nudge = Polynomial([0, 0, 1])
    monkeypatch.setattr(
        verify,
        "ehr_sparse",
        lambda n, k, lam: real(n, k, lam) + nudge if (n, k, lam) == (6, 3, 2) else real(n, k, lam),
    )
    return f"count mismatch at {FIRST_6_3_LAMBDA_2}, t = 1"


def _corrupt_one_rank(monkeypatch) -> str:
    # rank k on a circuit-hyperplane H lets the rank side accept 1_H at t = 1
    h = LAST_6_3.circuit_hyperplanes[-1]
    monkeypatch.setattr(
        verify, "rank_of", lambda m, a: m.k if m == LAST_6_3 and a == h else rank_of(m, a)
    )
    return f"rank/oracle count mismatch at {LAST_6_3}, t = 1"


def _corrupt_oracle_at_t1(monkeypatch) -> str:
    # the rank clause compares with the same count, but the closed-count
    # clause runs first and names the fault
    real = verify.oracle_count
    monkeypatch.setattr(
        verify, "oracle_count", lambda m, t: real(m, t) + (m == FIRST_6_3_LAMBDA_2 and t == 1)
    )
    return f"count mismatch at {FIRST_6_3_LAMBDA_2}, t = 1"


@pytest.mark.parametrize(
    "corrupt",
    [
        _corrupt_closed_count,
        _corrupt_interior_count,
        _corrupt_one_lambda,
        _corrupt_one_rank,
        _corrupt_oracle_at_t1,
        _corrupt_one_structure,
    ],
    ids=[
        "closed-count", "interior-count", "one-lambda", "one-rank", "oracle-at-t1", "one-structure"
    ],
)
def test_criterion_9_catches_a_fault_at_one_matroid(corrupt, monkeypatch) -> None:
    detail = corrupt(monkeypatch)
    assert verify.check_oracle_certification() == (False, detail)


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


@pytest.mark.parametrize(
    "module, kernel, corrupt, criterion",
    [
        (verify, "is_real_rooted", lambda real: lambda coeffs: True, 11),
        (verify, "gs_lower_bound", lambda real: lambda n, k: real(n, k) - 1, 2),
        # too small to move a threshold; the thresholds read ehrhart's binding
        (ehrhart, "harmonic", lambda real: lambda n: real(n) + Fraction(1, 10**12), 8),
        # neither moves the sign of criterion 10's [t^2]; its pinned digest catches both
        (
            verify,
            "ehr_uniform_coeff",
            lambda real: lambda k, n, m: real(k, n, m) + Fraction(1, 10**9),
            10,
        ),
        (
            verify,
            "quad_coeff_minimal_shifted",
            lambda real: lambda k, n: real(k, n) * (1 + Fraction(1, 10**6)),
            10,
        ),
        # the strong variant's margin at n = 55 is about 0.02
        (
            ehrhart,
            "_log_bounds",
            lambda real: lambda n, terms: tuple(b + Fraction(1, 10) for b in real(n, terms)),
            8,
        ),
    ],
    ids=[
        "is_real_rooted-always-true",
        "gs_lower_bound-minus-one",
        "harmonic-plus-1e-12",
        "ehr_uniform_coeff-plus-1e-9",
        "quad_coeff_minimal_shifted-times-1-plus-1e-6",
        "log_bounds-plus-1-10th",
    ],
)
def test_corrupted_kernel_fails_its_criterion(
    module, kernel, corrupt, criterion, monkeypatch
) -> None:
    monkeypatch.setattr(module, kernel, corrupt(getattr(module, kernel)))
    _, _, fn = next(c for c in verify.CHECKS if c[0] == criterion)
    ok, _ = verify.run_check(fn)
    assert not ok
