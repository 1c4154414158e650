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
import csv
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .codes import (
    DEFAULT_WORD_BUDGET,
    gs_lower_bound,
    gs_partition,
    max_ch_upper_bound,
)
from .ehrhart import (
    PROVENANCES,
    CounterexampleReport,
    ehr_minimal,
    ehr_minimal_shifted,
    ehr_sparse,
    ehr_uniform,
    intermediate_bound_quad,
    lower_bound_quad,
    search_counterexamples,
    upper_bound_quad_uniform,
)
from .errors import BudgetExceededError
from .hstar import hstar, is_real_rooted
from .matroid import matroid_from_text, matroid_to_text
from .oracle import oracle_count
from .ratpoly import Polynomial
from .verify import iter_results


@dataclass
class RunConfig:
    """Parsed and validated invocation; exactly one subcommand."""

    subcommand: str
    n: int | None = None
    k: int | None = None
    lam: int | None = None
    lambda_provenance: str = "user"
    n_range: tuple[int, int] | None = None
    k_range: tuple[int, int] | None = None
    output_format: str = "text"
    matroid_file: str | None = None
    output_file: str | None = None
    shifted: bool = False
    t_max: int = 4
    heavy: bool = False
    check_real_rooted: bool = False
    max_words: int = DEFAULT_WORD_BUDGET


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ehrpos", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_text: str, *, fmt: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if fmt:
            p.add_argument("--format", default="text", choices=("text", "json", "csv"))
        return p

    p = add("uniform", "Ehrhart polynomial of the uniform matroid U_{k,n}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("minimal", "Ehrhart polynomial of the minimal matroid T_{k,n}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--shifted", action="store_true", help="evaluate at t - 1")

    p = add("sparse", "Ehrhart polynomial and positivity report of a sparse paving matroid")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--lambda", dest="lam", type=int)
    p.add_argument("--provenance", choices=PROVENANCES, default="user")
    p.add_argument("--matroid-file")

    p = add("code", "residue-class constant-weight code and its matroid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--output", help="write the matroid text format here instead of stdout")
    p.add_argument("--max-words", type=int, default=DEFAULT_WORD_BUDGET)

    p = add("bounds", "circuit-hyperplane and quadratic-coefficient bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("search", "Ehrhart positivity search at lambda = gs_lower_bound")
    p.add_argument("--n-range", type=_range_arg, required=True, metavar="LO:HI")
    p.add_argument("--k-range", type=_range_arg, default=(1, 63), metavar="LO:HI")

    p = add("verify-paper", "run the acceptance suite and print pass/fail per item", fmt=False)
    p.add_argument("--heavy", action="store_true", help="include the rank-3 n=3589 check")

    p = add("oracle", "compare oracle lattice point counts with the formula", fmt=False)
    p.add_argument("--matroid-file", required=True)
    p.add_argument("--t-max", type=int, default=4)

    p = add("hstar", "h*-vector of a sparse paving matroid polytope")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--check-real-rooted", action="store_true")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    for name in (
        "n",
        "k",
        "lam",
        "n_range",
        "k_range",
        "matroid_file",
        "shifted",
        "t_max",
        "heavy",
        "check_real_rooted",
        "max_words",
    ):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if hasattr(args, "format"):
        cfg.output_format = args.format
    if hasattr(args, "provenance"):
        cfg.lambda_provenance = args.provenance
    if hasattr(args, "output"):
        cfg.output_file = args.output
    return cfg


def _frac_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def _poly_strings(p: Polynomial) -> list[str]:
    return [_frac_str(c) for c in p.coeffs]


def _emit_table(fmt: str, meta: dict, joined: dict[str, list[str]]) -> None:
    """Emit one record: meta holds scalar cells, joined holds list cells.

    text prints "key = value" lines with lists comma-joined; json prints
    the record with lists kept as arrays; csv joins list cells with
    semicolons inside one quoted cell.
    """
    if fmt == "json":
        print(json.dumps({**meta, **joined}, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(list(meta) + list(joined))
        writer.writerow(
            [_csv_cell(v) for v in meta.values()] + [";".join(v) for v in joined.values()]
        )
    else:
        for key, value in meta.items():
            print(f"{key} = {_csv_cell(value)}")
        for key, value in joined.items():
            print(f"{key}: {', '.join(value)}")


def _csv_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _cmd_uniform(cfg: RunConfig) -> int:
    p = ehr_uniform(cfg.k, cfg.n)
    if cfg.output_format == "text":
        print(", ".join(_poly_strings(p)))
    else:
        _emit_table(cfg.output_format, {"n": cfg.n, "k": cfg.k}, {"coefficients": _poly_strings(p)})
    return 0


def _cmd_minimal(cfg: RunConfig) -> int:
    p = ehr_minimal_shifted(cfg.k, cfg.n) if cfg.shifted else ehr_minimal(cfg.k, cfg.n)
    if cfg.output_format == "text":
        print(", ".join(_poly_strings(p)))
    else:
        _emit_table(
            cfg.output_format,
            {"n": cfg.n, "k": cfg.k, "shifted": cfg.shifted},
            {"coefficients": _poly_strings(p)},
        )
    return 0


def _report_record(report: CounterexampleReport) -> tuple[dict, dict[str, list[str]]]:
    meta = {
        "n": report.n,
        "k": report.k,
        "lambda": report.lam,
        "provenance": report.provenance,
    }
    joined = {
        "coefficients": report.coefficient_strings(),
        "negative_indices": [str(i) for i in report.negative_coefficient_indices],
    }
    return meta, joined


def _emit_report(fmt: str, report: CounterexampleReport) -> None:
    if fmt == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return
    meta, joined = _report_record(report)
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(list(meta) + list(joined) + ["ehrhart_positive"])
        writer.writerow(
            [_csv_cell(v) for v in meta.values()]
            + [";".join(v) for v in joined.values()]
            + [_csv_cell(report.is_ehrhart_positive)]
        )
        return
    for key, value in meta.items():
        print(f"{key} = {value}")
    for key, value in joined.items():
        print(f"{key}: {', '.join(value) if value else '(none)'}")
    print(f"ehrhart positive: {_csv_cell(report.is_ehrhart_positive)}")


def _cmd_sparse(cfg: RunConfig) -> int:
    if (cfg.matroid_file is None) == (cfg.lam is None):
        raise ValueError("provide exactly one of --lambda or --matroid-file")
    if cfg.matroid_file is not None:
        with open(cfg.matroid_file, encoding="ascii") as fh:
            m = matroid_from_text(fh.read())
        if cfg.n is not None and cfg.n != m.n:
            raise ValueError(f"--n {cfg.n} disagrees with matroid file (n = {m.n})")
        if cfg.k is not None and cfg.k != m.k:
            raise ValueError(f"--k {cfg.k} disagrees with matroid file (k = {m.k})")
        report = CounterexampleReport.build(m.n, m.k, m.lam, "user")
    else:
        if cfg.n is None or cfg.k is None:
            raise ValueError("--n and --k are required with --lambda")
        report = CounterexampleReport.build(cfg.n, cfg.k, cfg.lam, cfg.lambda_provenance)
    _emit_report(cfg.output_format, report)
    return 0


def _cmd_code(cfg: RunConfig) -> int:
    sizes, code = gs_partition(cfg.n, cfg.k, max_words=cfg.max_words)
    matroid_text = matroid_to_text(code.to_matroid(check_pairwise=False))
    meta = {
        "n": cfg.n,
        "k": cfg.k,
        "chosen_index": code.class_index,
        "lower_bound": gs_lower_bound(cfg.n, cfg.k),
        "upper_bound": max_ch_upper_bound(cfg.n, cfg.k),
    }
    record_meta = {"n": meta["n"], "k": meta["k"]}
    joined = {"class_sizes": [str(s) for s in sizes]}
    tail = {
        "chosen_index": meta["chosen_index"],
        "lower_bound": meta["lower_bound"],
        "upper_bound": meta["upper_bound"],
    }
    if cfg.output_format == "json":
        print(json.dumps({**record_meta, "class_sizes": sizes, **tail}, indent=2))
    else:
        _emit_table(cfg.output_format, {**record_meta, **tail}, joined)
    if cfg.output_file is not None:
        with open(cfg.output_file, "w", encoding="ascii") as fh:
            fh.write(matroid_text)
    elif cfg.output_format == "text":
        print(matroid_text, end="")
    return 0


def _cmd_bounds(cfg: RunConfig) -> int:
    n, k = cfg.n, cfg.k
    quad_ok = 2 <= k <= n - 2
    meta = {
        "n": n,
        "k": k,
        "gs_lower_bound": gs_lower_bound(n, k),
        "max_ch_upper_bound": max_ch_upper_bound(n, k),
        "quad_lower_bound": str(lower_bound_quad(k, n)) if quad_ok else None,
        "quad_upper_bound_uniform": str(upper_bound_quad_uniform(k, n)) if quad_ok else None,
        "quad_intermediate_bound": str(intermediate_bound_quad(k, n)) if quad_ok else None,
    }
    if cfg.output_format == "json":
        print(json.dumps(meta, indent=2))
    elif cfg.output_format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(meta)
        writer.writerow([_csv_cell(v) if v is not None else "" for v in meta.values()])
    else:
        for key, value in meta.items():
            if value is not None:
                print(f"{key} = {value}")
    return 0


def _cmd_search(cfg: RunConfig) -> int:
    n_lo, n_hi = cfg.n_range
    k_lo, k_hi = cfg.k_range
    reports = search_counterexamples(n_lo, n_hi, k_lo, k_hi)
    if cfg.output_format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    elif cfg.output_format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(
            ["n", "k", "lambda", "provenance", "coefficients", "negative_indices", "ehrhart_positive"]
        )
        for r in reports:
            meta, joined = _report_record(r)
            writer.writerow(
                [_csv_cell(v) for v in meta.values()]
                + [";".join(v) for v in joined.values()]
                + [_csv_cell(r.is_ehrhart_positive)]
            )
    else:
        for r in reports:
            negs = ",".join(str(i) for i in r.negative_coefficient_indices) or "-"
            print(
                f"n={r.n} k={r.k} lambda={r.lam} provenance={r.provenance} "
                f"negative_indices={negs} positive={_csv_cell(r.is_ehrhart_positive)}"
            )
    return 0


def _cmd_verify_paper(cfg: RunConfig) -> int:
    failures = 0
    for res in iter_results(heavy=cfg.heavy):
        print(f"{res.status.upper():4s} criterion {res.criterion:2d}: {res.name} :: {res.detail}")
        if res.status == "fail":
            failures += 1
    print(f"{failures} criterion(s) failed" if failures else "all criteria passed")
    return 3 if failures else 0


def _cmd_oracle(cfg: RunConfig) -> int:
    with open(cfg.matroid_file, encoding="ascii") as fh:
        m = matroid_from_text(fh.read())
    formula = ehr_sparse(m.n, m.k, m.lam)
    mismatches = 0
    for t in range(cfg.t_max + 1):
        counted = oracle_count(m, t)
        predicted = formula(t)
        status = "ok" if counted == predicted else "MISMATCH"
        if counted != predicted:
            mismatches += 1
        print(f"t={t} oracle={counted} formula={predicted} {status}")
    return 3 if mismatches else 0


def _cmd_hstar(cfg: RunConfig) -> int:
    p = ehr_sparse(cfg.n, cfg.k, cfg.lam)
    h = hstar(p, int(p.degree))
    rooted = is_real_rooted(h) if cfg.check_real_rooted else None
    if cfg.output_format == "json":
        record = {
            "n": cfg.n,
            "k": cfg.k,
            "lambda": cfg.lam,
            "hstar": [_frac_str(v) for v in h],
            "real_rooted": rooted,
        }
        print(json.dumps(record, indent=2))
    elif cfg.output_format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "k", "lambda", "hstar", "real_rooted"])
        writer.writerow(
            [cfg.n, cfg.k, cfg.lam, ";".join(_frac_str(v) for v in h),
             "" if rooted is None else _csv_cell(rooted)]
        )
    else:
        print("h*: " + ", ".join(str(v) for v in h))
        if rooted is not None:
            print(f"real-rooted: {_csv_cell(rooted)}")
    return 0


_HANDLERS = {
    "uniform": _cmd_uniform,
    "minimal": _cmd_minimal,
    "sparse": _cmd_sparse,
    "code": _cmd_code,
    "bounds": _cmd_bounds,
    "search": _cmd_search,
    "verify-paper": _cmd_verify_paper,
    "oracle": _cmd_oracle,
    "hstar": _cmd_hstar,
}


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit status."""
    return _HANDLERS[cfg.subcommand](cfg)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = config_from_args(args)
    try:
        return run(cfg)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
