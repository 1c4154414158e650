#!/usr/bin/env python3
"""Certify negative quadratic coefficients for rank-3 (and nearby) matroids
at large n without building the full polynomial.

The quadratic coefficient of the residue construction is
ehr_uniform_coeff(k, n, 2) - lambda * quad_coeff_minimal_shifted(k, n),
computed from Katzman's hypersimplex formula: each binomial is a product of
n - 1 integer linear factors truncated at degree 2, so the work is O(k n)
integer operations.
"""

from __future__ import annotations

import argparse
import time

from ehrpos.codes import gs_lower_bound
from ehrpos.ehrhart import (
    counterexample_inequality,
    ehr_uniform_coeff,
    quad_coeff_minimal_shifted,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=3589)
    parser.add_argument("--k", type=int, default=3)
    args = parser.parse_args()
    n, k = args.n, args.k

    start = time.perf_counter()
    lam = gs_lower_bound(n, k)
    sufficient = counterexample_inequality(k, n)
    c2 = ehr_uniform_coeff(k, n, 2) - lam * quad_coeff_minimal_shifted(k, n)
    elapsed = time.perf_counter() - start

    print(f"n = {n}, k = {k}, lambda = {lam} (floor C(n,k)/n)")
    print(f"harmonic sufficiency inequality holds: {sufficient}")
    print(f"[t^2] = {c2}")
    print(f"negative: {c2 < 0}    ({elapsed:.1f}s)")
    return 0 if c2 < 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
