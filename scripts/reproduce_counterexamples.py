#!/usr/bin/env python3
"""Recompute the headline Ehrhart-positivity counterexamples from scratch.

For each case the script rebuilds lambda (from the residue construction,
whose class is validated as a circuit-hyperplane family, or an external
table value), recomputes the polynomial exactly, and prints the negative
coefficients with their exact fractions.
"""

from __future__ import annotations

import argparse

from ehrpos.codes import gs_best_class
from ehrpos.ehrhart import CounterexampleReport

CASES = [
    # (n, k, lambda source, provenance)
    (20, 9, "gs", "gs-bound"),
    (19, 9, 6726, "external-table"),
    (18, 9, 4240, "external-table"),
    (22, 7, "gs", "gs-bound"),
]


def main() -> int:
    # no options: parsed so that --help works and unknown arguments are refused
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    for n, k, source, provenance in CASES:
        # to_matroid raises unless the class is a valid family
        lam = gs_best_class(n, k).to_matroid().lam if source == "gs" else source
        report = CounterexampleReport.build(n, k, lam, provenance)
        verdict = "positive" if report.is_ehrhart_positive else "NOT positive"
        print(f"(n, k, lambda) = ({n}, {k}, {lam})  [{provenance}]: {verdict}")
        for i in report.negative_coefficient_indices:
            print(f"    [t^{i}] = {report.ehrhart.coeff(i)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
