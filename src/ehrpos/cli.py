"""Command line front end.

Subcommands expose the computation (uniform / minimal / sparse), the code
construction (code / bounds), the search and certification drivers
(search / verify-paper / oracle), and the h* transform (hstar), with
exact-fraction text, JSON, and CSV output.

Exit status: 0 on success, 1 on argument errors, 2 on exceeded budgets,
3 on verification failures.  All iteration orders are deterministic, so
identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from typing import Callable, Iterator, Sequence, TextIO

from .codes import gs_lower_bound, gs_partition
from .ehrhart import (
    PROVENANCES,
    CounterexampleReport,
    ehr_minimal,
    ehr_minimal_shifted,
    ehr_sparse,
    ehr_uniform,
    intermediate_bound_quad,
    lower_bound_quad,
    search_cells,
    search_counterexamples,
    upper_bound_quad_uniform,
)
from .errors import BudgetExceededError
from .hstar import hstar, is_real_rooted
from .matroid import circuit_hyperplane_bound, matroid_from_text, matroid_to_text
from .oracle import check_oracle_instance, oracle_count
from .verify import CHECKS, run_check

# `hstar --check-real-rooted` refuses n when n - 1, the largest degree the
# h*-polynomial can have, is above this.  The degree does not bound the
# coefficient size, so it does not bound the time.  As whole processes on
# a 2-core machine, (80, 40) at degree 79 takes about 6.4 s, and
# (101, 50) at degree 100, the most the budget admits, about 30 s.
REAL_ROOTED_MAX_DEGREE = 100
# `uniform`, `minimal`, `sparse --lambda`, `hstar` and `search` (at the top
# of --n-range) refuse larger n.  The cost grows about as n^3.4; at n = 400
# the worst k, about n / 2, takes 4-6 s per polynomial on a 2-core machine.
POLY_MAX_N = 400
# `search` refuses a grid whose cells (n, k) sum to more work units, one per
# n^3 min(k, n - k): a cell's time grows so, at about 2e9 units per second.
# The largest grid from n = 3 with the default --k-range is --n-range 3:122
# (5,669 cells, 9.7e10 units), which takes about 55 s on a 2-core machine.
SEARCH_MAX_WORK = 10**11
# `bounds` refuses larger n.  The numerator and denominator of
# C(k+1, 2) H_{n-1}^2 have about 0.87 n decimal digits, and by default
# Python refuses to print an int of more than 4,300 digits (the largest n
# that prints is 4,967).  At n = 4,000 the three bounds take about 0.02 s
# and the whole command about 0.1 s (5 runs on a 2-core machine).
BOUNDS_MAX_N = 4000

# a subcommand's handler, bound to its parser: returns the exit status
Handler = Callable[[argparse.Namespace], int]


class _Parser(argparse.ArgumentParser):
    # bad arguments must exit 1; argparse defaults to 2, which we reserve
    # for exceeded budgets
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _range_arg(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        bounds = (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None
    if bounds[0] > bounds[1]:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return bounds


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once, on the first call; each parse_args returns a fresh Namespace
    parser = _Parser(prog="ehrpos", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(
        name: str, help_text: str, handler: Handler, *, fmt: bool = True, nk: bool = True
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if fmt:
            p.add_argument("--format", default="text", choices=("text", "json", "csv"))
        if nk:
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--k", type=int, required=True)
        return p

    add("uniform", "Ehrhart polynomial of the uniform matroid U_{k,n}", _cmd_polynomial)

    p = add("minimal", "Ehrhart polynomial of the minimal matroid T_{k,n}", _cmd_polynomial)
    p.add_argument("--shifted", action="store_true", help="evaluate at t - 1")

    p = add(
        "sparse",
        "Ehrhart polynomial and positivity report of a sparse paving matroid",
        _cmd_sparse,
        nk=False,
    )
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--lambda", dest="lam", type=int)
    p.add_argument("--provenance", choices=PROVENANCES, default="user")
    p.add_argument("--matroid-file")

    p = add("code", "residue-class constant-weight code and its matroid", _cmd_code)
    p.add_argument("--output", help="write the matroid text format here instead of stdout")

    add("bounds", "circuit-hyperplane and quadratic-coefficient bounds", _cmd_bounds)

    p = add(
        "search", "Ehrhart positivity search at lambda = gs_lower_bound", _cmd_search, nk=False
    )
    p.add_argument("--n-range", type=_range_arg, required=True, metavar="LO:HI")
    p.add_argument("--k-range", type=_range_arg, default=(1, 63), metavar="LO:HI")

    add(
        "verify-paper",
        "run the acceptance suite and print pass/fail per item",
        _cmd_verify_paper,
        fmt=False,
        nk=False,
    )

    p = add(
        "oracle",
        "compare oracle lattice point counts with the formula",
        _cmd_oracle,
        fmt=False,
        nk=False,
    )
    p.add_argument("--matroid-file", required=True)
    p.add_argument("--t-max", type=int, default=4)

    p = add("hstar", "h*-vector of a sparse paving matroid polytope", _cmd_hstar)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--check-real-rooted", action="store_true")

    return parser


def _cell(value: object) -> str:
    """A csv or text cell: lists joined by ";", booleans as true/false, None empty."""
    if isinstance(value, list):
        return ";".join(map(str, value))
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _emit(
    fmt: str,
    records: dict | list[dict],
    text_lines: list[str],
    columns: Sequence[str] | None = None,
) -> None:
    """Print a record, or a list of records, in the requested format.

    json dumps records as given; csv writes the keys as the header
    (`columns` for an empty list) and one row per record; text prints the
    lines the command formatted.
    """
    if fmt == "json":
        print(json.dumps(records, indent=2))
    elif fmt == "csv":
        rows = [records] if isinstance(records, dict) else records
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(list(rows[0]) if rows else columns)
        writer.writerows([_cell(v) for v in row.values()] for row in rows)
    else:
        for line in text_lines:
            print(line)


def _text_lines(record: dict) -> list[str]:
    """Text form of a record: `key = value` per scalar, `key: a, b` per
    list (`(none)` when empty); None values are left out."""
    lines = []
    for key, value in record.items():
        if isinstance(value, list):
            lines.append(f"{key}: {', '.join(map(str, value)) or '(none)'}")
        elif value is not None:
            lines.append(f"{key} = {_cell(value)}")
    return lines


def _check_poly_n(n: int) -> None:
    if n > POLY_MAX_N:
        raise BudgetExceededError(f"polynomial too large: n = {n} (max {POLY_MAX_N})")


def _cmd_polynomial(args: argparse.Namespace) -> int:
    _check_poly_n(args.n)
    record: dict = {"n": args.n, "k": args.k}
    if args.subcommand == "uniform":
        p = ehr_uniform(args.k, args.n)
    else:
        record["shifted"] = args.shifted
        p = ehr_minimal_shifted(args.k, args.n) if args.shifted else ehr_minimal(args.k, args.n)
    record["coefficients"] = p.coefficient_strings()
    _emit(args.format, record, [", ".join(record["coefficients"])])
    return 0


def _cmd_sparse(args: argparse.Namespace) -> int:
    if (args.matroid_file is None) == (args.lam is None):
        raise ValueError("provide exactly one of --lambda or --matroid-file")
    if args.matroid_file is not None:
        with open(args.matroid_file, encoding="ascii") as fh:
            m = matroid_from_text(fh.read())
        for flag, given, actual in (("n", args.n, m.n), ("k", args.k, m.k)):
            if given is not None and given != actual:
                raise ValueError(
                    f"--{flag} {given} disagrees with matroid file ({flag} = {actual})"
                )
        report = CounterexampleReport.build(m.n, m.k, m.lam, args.provenance)
    else:
        if args.n is None or args.k is None:
            raise ValueError("--n and --k are required with --lambda")
        _check_poly_n(args.n)
        report = CounterexampleReport.build(args.n, args.k, args.lam, args.provenance)
    record = report.to_dict()
    lines = _text_lines({key: v for key, v in record.items() if key != "ehrhart_positive"})
    lines.append(f"ehrhart positive: {_cell(report.is_ehrhart_positive)}")
    _emit(args.format, record, lines)
    return 0


@contextlib.contextmanager
def _replaced_on_success(path: str) -> Iterator[TextIO]:
    """Write to a sibling temporary file and rename it onto `path` once
    written, so that a failed run leaves `path` as it was.  The file is
    opened on entry, so an unwritable directory fails before any work."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="ascii")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_code(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    # k = 0 or n admits no circuit-hyperplane, and k outside 0..n no word:
    # refused before the enumeration, and before an output file is opened
    if not 1 <= k <= n - 1:
        raise ValueError(
            f"need 1 <= k <= n - 1 for a circuit-hyperplane code, got (n, k) = ({n}, {k})"
        )
    # entered before the enumeration, so an unwritable path fails with empty stdout
    out = args.output
    with contextlib.nullcontext() if out is None else _replaced_on_success(out) as fh:
        sizes, code = gs_partition(n, k)
        matroid_text = matroid_to_text(code.to_matroid())
        if fh is not None:
            fh.write(matroid_text)
    record = {
        "n": n,
        "k": k,
        "class_sizes": sizes,
        "chosen_index": code.class_index,
        "lower_bound": gs_lower_bound(n, k),
        "upper_bound": circuit_hyperplane_bound(n, k),
    }
    if args.format != "json":  # csv and text list the class sizes last
        record["class_sizes"] = record.pop("class_sizes")
    _emit(args.format, record, _text_lines(record))
    if fh is None and args.format == "text":
        print(matroid_text, end="")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    if not (n >= 1 and 0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n with n >= 1, got (n, k) = ({n}, {k})")
    if n > BOUNDS_MAX_N:
        raise BudgetExceededError(f"bounds too large: n = {n} (max {BOUNDS_MAX_N})")
    quad_ok = 2 <= k <= n - 2
    record = {
        "n": n,
        "k": k,
        "gs_lower_bound": gs_lower_bound(n, k),
        "max_ch_upper_bound": circuit_hyperplane_bound(n, k),
        "quad_lower_bound": str(lower_bound_quad(k, n)) if quad_ok else None,
        "quad_upper_bound_uniform": str(upper_bound_quad_uniform(k, n)) if quad_ok else None,
        "quad_intermediate_bound": str(intermediate_bound_quad(k, n)) if quad_ok else None,
    }
    _emit(args.format, record, _text_lines(record))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    _check_poly_n(args.n_range[1])
    cells = search_cells(*args.n_range, *args.k_range)
    work = sum(n**3 * min(k, n - k) for n, k in cells)
    if work > SEARCH_MAX_WORK:
        raise BudgetExceededError(
            f"search grid too large: {len(cells)} cells, {work} work units (max {SEARCH_MAX_WORK})"
        )
    records = [r.to_dict() for r in search_counterexamples(*args.n_range, *args.k_range)]
    lines = [
        f"n={r['n']} k={r['k']} lambda={r['lambda']} provenance={r['provenance']} "
        f"negative_indices={','.join(map(str, r['negative_indices'])) or '-'} "
        f"positive={_cell(r['ehrhart_positive'])}"
        for r in records
    ]
    _emit(args.format, records, lines, columns=CounterexampleReport.COLUMNS)
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    failures = 0
    for criterion, name, fn in CHECKS:
        ok, detail = run_check(fn)
        print(f"{'PASS' if ok else 'FAIL'} criterion {criterion:2d}: {name} :: {detail}")
        if not ok:
            failures += 1
    print(f"{failures} criterion(s) failed" if failures else "all criteria passed")
    return 3 if failures else 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    with open(args.matroid_file, encoding="ascii") as fh:
        m = matroid_from_text(fh.read())
    # refused before the first line is printed, so a refusal leaves stdout empty
    check_oracle_instance(m, args.t_max)
    formula = ehr_sparse(m.n, m.k, m.lam)
    mismatches = 0
    for t in range(args.t_max + 1):
        counted = oracle_count(m, t)
        predicted = formula(t)
        status = "ok" if counted == predicted else "MISMATCH"
        if counted != predicted:
            mismatches += 1
        print(f"t={t} oracle={counted} formula={predicted} {status}")
    return 3 if mismatches else 0


def _cmd_hstar(args: argparse.Namespace) -> int:
    _check_poly_n(args.n)
    # refused from the input alone, before the build: the degree is at most n - 1
    if args.check_real_rooted and args.n - 1 > REAL_ROOTED_MAX_DEGREE:
        raise BudgetExceededError(
            f"real-rootedness check too large: n = {args.n}, degree up to {args.n - 1} "
            f"(max {REAL_ROOTED_MAX_DEGREE})"
        )
    p = ehr_sparse(args.n, args.k, args.lam)
    h = hstar(p, p.degree)
    rooted = is_real_rooted(h) if args.check_real_rooted else None
    record = {
        "n": args.n,
        "k": args.k,
        "lambda": args.lam,
        "hstar": [f"{v}/1" for v in h],  # ints, in the "p/q" form of every record
        "real_rooted": rooted,
    }
    lines = ["h*: " + ", ".join(str(v) for v in h)]
    if rooted is not None:
        lines.append(f"real-rooted: {_cell(rooted)}")
    _emit(args.format, record, lines)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
