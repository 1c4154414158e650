"""The three workloads: each builds, from a seed, a fixed list of operations.

An operation calls ehrpos only through its stable entry points: the CLI
(`ehrpos.cli.main` with stdout captured), the `verify` criteria, and names
in `ehrpos.__all__`.  Its output is checked by `checks`, outside the timed
call.  Every operation starts with the lru caches of ehr_uniform,
ehr_minimal and ehr_minimal_shifted cleared, as a fresh `ehrpos` call would.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import checks
from checks import require

CACHED = ("ehr_uniform", "ehr_minimal", "ehr_minimal_shifted")


class OpFailed(Exception):
    """The program did not finish an operation (nonzero exit status)."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Context:
    """What operations share: the package, a directory for files
    the CLI writes, and the byte count of captured CLI output."""

    ehrpos: object
    workdir: str
    stdout_bytes: int = 0

    def __post_init__(self) -> None:
        ehrhart = self.ehrpos.ehrhart
        # Originals, captured before any tracing wrapper replaces them.
        self._cached = [f for f in (getattr(ehrhart, n, None) for n in CACHED) if hasattr(f, "cache_clear")]

    def clear_caches(self) -> None:
        for f in self._cached:
            f.cache_clear()

    def cli(self, *argv: object) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = self.ehrpos.cli.main([str(a) for a in argv])
        out = buf.getvalue()
        self.stdout_bytes += len(out.encode())
        if status != 0:
            raise OpFailed(f"ehrpos {' '.join(map(str, argv))} exited {status}")
        return out


# --- search-grid ------------------------------------------------------------

SEARCH_N = range(18, 31)


def search_grid(seed: int, ctx: Context) -> list[Op]:
    """One operation per (n, k) cell of `search --n-range 18:30`: the cell's
    report at lambda = gs_lower_bound, built cold, then the report at the
    packing cap, which reuses the cached uniform and shifted-minimal
    polynomials as `scripts/positivity_sweep.py --cap` does."""
    cells = [(n, k) for n in SEARCH_N for k in range(1, n)]
    random.Random(seed).shuffle(cells)

    def op(n: int, k: int) -> Op:
        cap = checks.packing_cap(n, k)

        def run():
            gs = ctx.cli("search", "--n-range", f"{n}:{n}", "--k-range", f"{k}:{k}", "--format", "json")
            capped = ctx.cli("sparse", "--n", n, "--k", k, "--lambda", cap, "--format", "json")
            return gs, capped

        def check(out):
            recs = json.loads(out[0])
            require(len(recs) == 1, f"search {n}:{n} {k}:{k} gave {len(recs)} records")
            checks.check_report_record(recs[0], n, k, checks.gs_lambda(n, k), "gs-bound")
            checks.check_report_record(json.loads(out[1]), n, k, cap, "user")

        return Op("cell", run, check)

    return [op(n, k) for n, k in cells]


# --- high-degree ------------------------------------------------------------

RANK2_N = range(76, 131, 2)  # each bucket {b, b + 1}; the seed picks one
REAL_ROOTED_N = (70, 74, 78)  # buckets {b, b + 1}
RANK3_N = range(200, 440, 10)  # buckets {b, ..., b + 9}


def high_degree(seed: int, ctx: Context) -> list[Op]:
    """The rank-2 family with its h*-vectors at degrees 75..130, the
    real-rootedness check at the low end of that range, and [t^2] of the
    rank-3 residue construction at n in 200..449 by the single-coefficient
    route of `scripts/rank3_threshold.py`."""
    rng = random.Random(seed)
    e = ctx.ehrpos
    ops: list[Op] = []

    def rank2(n: int) -> Op:
        def run():
            p = e.rank2_poly(n)
            return p.coeffs, e.hstar(p, n - 1)

        def check(out):
            coeffs, h = out
            values = checks.check_sparse_poly(n, 2, n // 2, coeffs)
            require(all(c > 0 for c in coeffs), f"rank2_poly({n}) has a coefficient <= 0")
            checks.check_hstar(h, values, n - 1)

        return Op("rank2", run, check)

    def real_rooted(n: int) -> Op:
        def run():
            return ctx.cli("hstar", "--n", n, "--k", 2, "--lambda", n // 2, "--check-real-rooted", "--format", "json")

        def check(out):
            rec = json.loads(out)
            require((rec["n"], rec["k"], rec["lambda"]) == (n, 2, n // 2), "hstar record header")
            require(isinstance(rec["real_rooted"], bool), "hstar --check-real-rooted gave no verdict")
            values = [checks.sparse_count(n, 2, n // 2, t) for t in range(n)]
            checks.check_hstar([Fraction(s) for s in rec["hstar"]], values, n - 1, rec["real_rooted"])

        return Op("real-rooted", run, check)

    def rank3(n: int) -> Op:
        def run():
            lam = e.gs_lower_bound(n, 3)
            return e.ehr_uniform_coeff(3, n, 2) - lam * e.quad_coeff_minimal_shifted(3, n)

        def check(out):
            require(out == checks.residue_quad(3, n), f"[t^2] of the rank-3 construction at n = {n} is {out}")

        return Op("rank3", run, check)

    ops += [rank2(b + rng.randrange(2)) for b in RANK2_N]
    ops += [real_rooted(b + rng.randrange(2)) for b in REAL_ROOTED_N]
    ops += [rank3(b + rng.randrange(10)) for b in RANK3_N]
    rng.shuffle(ops)
    return ops


# --- code-certify -----------------------------------------------------------

# (n, k) with C(n, k) from 4.9e4 to 1.7e5; the seed picks k or n - k where
# they differ, except at the paper's (20, 9).
CODE_SIZES = ((18, 9), (19, 8), (20, 9))
ORACLE_N = range(2, 7)
ORACLE_LAMBDA = 3
ORACLE_T = range(5)


def small_matroids(e) -> list:
    return [m for n in ORACLE_N for k in range(1, n) for m in e.enumerate_small_matroids(n, k, ORACLE_LAMBDA)]


def code_certify(seed: int, ctx: Context) -> list[Op]:
    """`code` then `sparse --matroid-file` at three paper-sized (n, k), the
    oracle check on each sparse paving matroid with n <= 6 and lambda <= 3
    (one operation for the counts at t = 0..4, one for the interior counts
    at t = 1..4 and reciprocity), and verify criterion 9 once."""
    rng = random.Random(seed)
    e = ctx.ehrpos
    units: list[list[Op]] = []

    def code(n: int, k: int) -> list[Op]:
        path = os.path.join(ctx.workdir, f"code-{n}-{k}.txt")

        def run_code():
            return ctx.cli("code", "--n", n, "--k", k, "--output", path, "--format", "json")

        def check_code(out):
            rec = json.loads(out)
            require((rec["n"], rec["k"]) == (n, k), "code record header")
            index = checks.check_code_record(rec, n, k)
            with open(path, encoding="ascii") as fh:
                checks.check_code_file(fh.read(), n, k, index)
            if (n, k) == (20, 9):
                require(rec["class_sizes"] == [checks.PAPER_LAMBDA_20_9] * 20, "classes at (20, 9) are not all 8398")

        def run_sparse():
            return ctx.cli("sparse", "--matroid-file", path, "--format", "json")

        def check_sparse(out):
            with open(path, encoding="ascii") as fh:
                lam = len(checks.parse_matroid_text(fh.read())[2])
            rec = json.loads(out)
            checks.check_report_record(rec, n, k, lam, "user")
            if (n, k) == (20, 9):
                checks.check_paper_fractions([Fraction(s) for s in rec["coefficients"]])

        return [Op("code", run_code, check_code), Op("sparse-file", run_sparse, check_sparse)]

    def oracle(m) -> list[Op]:
        def run_counts():
            counts = [e.oracle_count(m, t) for t in ORACLE_T]
            p = e.ehr_sparse(m.n, m.k, m.lam)
            return counts, [p(t) for t in ORACLE_T]

        def run_interior():
            interior = [e.oracle_interior_count(m, t) for t in ORACLE_T[1:]]
            p = e.ehr_sparse(m.n, m.k, m.lam)
            return interior, [p(-t) for t in ORACLE_T[1:]]

        return [
            Op("oracle-count", run_counts, lambda out: checks.check_oracle_counts(m.n, m.k, m.lam, *out)),
            Op("oracle-interior", run_interior, lambda out: checks.check_oracle_interior(m.n, m.k, m.lam, *out)),
        ]

    matroids = small_matroids(e)

    def criterion9() -> Op:
        def check(out):
            ok, detail = out
            require(ok is True, f"criterion 9 failed: {detail}")
            check_small_matroids(matroids)

        return Op("criterion9", lambda: e.verify.check_oracle_certification(), check)

    for n, k in CODE_SIZES:
        if (n, k) != (20, 9) and rng.randrange(2):
            k = n - k
        units.append(code(n, k))
    units += [[op] for m in matroids for op in oracle(m)]
    units.append([criterion9()])
    rng.shuffle(units)
    return [op for unit in units for op in unit]


def check_small_matroids(ms: list) -> None:
    """The oracle inputs, which criterion 9 also walks, are every family of
    at most 3 pairwise distance-4 k-sets, counted here without ehrpos."""
    expected = 0
    for n in ORACLE_N:
        for k in range(1, n):
            words = [sum(1 << i for i in c) for c in combinations(range(n), k)]
            cap = min(ORACLE_LAMBDA, checks.packing_cap(n, k))
            expected += sum(
                1
                for size in range(cap + 1)
                for fam in combinations(words, size)
                if checks.is_sparse_paving_family(list(fam))
            )
    require(len(ms) == expected, f"{len(ms)} small matroids, expected {expected}")
    require(all(checks.is_sparse_paving_family(list(m.circuit_hyperplanes)) for m in ms), "an input matroid is not sparse paving")


WORKLOADS: dict[str, Callable[[int, Context], list[Op]]] = {
    "search-grid": search_grid,
    "high-degree": high_degree,
    "code-certify": code_certify,
}
