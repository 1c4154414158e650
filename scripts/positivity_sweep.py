#!/usr/bin/env python3
"""Sweep ground-set sizes and ranks, setting lambda to the residue-class
lower bound, and tabulate which (n, k) give Ehrhart-positive polynomials.

With --cap the sweep instead uses the packing upper bound on lambda, which
answers a different question: could any sparse paving matroid at (n, k)
break positivity.
"""

from __future__ import annotations

import argparse

from ehrpos.ehrhart import CounterexampleReport, search_counterexamples
from ehrpos.matroid import circuit_hyperplane_bound


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=22)
    parser.add_argument("--n-min", type=int, default=4)
    parser.add_argument("--cap", action="store_true", help="use the packing bound for lambda")
    args = parser.parse_args()

    failures = []
    for n in range(args.n_min, args.n_max + 1):
        if args.cap:
            reports = []
            for k in range(1, n):
                lam = circuit_hyperplane_bound(n, k)
                reports.append(CounterexampleReport.build(n, k, lam, "user"))
        else:
            reports = search_counterexamples(n, n, 1, n - 1)
        bad = [r for r in reports if not r.is_ehrhart_positive]
        failures.extend(bad)
        marks = "".join("." if r.is_ehrhart_positive else "X" for r in reports)
        print(f"n = {n:3d}  k = 1..{n - 1}  {marks}")

    if failures:
        print()
        print("negative coefficients found:")
        for r in failures:
            negs = ", ".join(str(i) for i in r.negative_coefficient_indices)
            print(f"  (n, k, lambda) = ({r.n}, {r.k}, {r.lam})  indices {negs}")
    else:
        print("no positivity failures in range")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
