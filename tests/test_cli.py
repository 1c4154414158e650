from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ehrpos import cli, codes, ehrhart, oracle
from ehrpos.ehrhart import CounterexampleReport, ehr_minimal_shifted, ehr_uniform
from ehrpos.ratpoly import Polynomial


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_uniform_text(capsys) -> None:
    code, out = run_cli(capsys, "uniform", "--n", "3", "--k", "1")
    assert code == 0
    assert out == "1/1, 3/2, 1/2\n"


def test_uniform_json(capsys) -> None:
    code, out = run_cli(capsys, "uniform", "--n", "4", "--k", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record == {"n": 4, "k": 2, "coefficients": ["1/1", "7/3", "2/1", "2/3"]}


def test_uniform_csv(capsys) -> None:
    code, out = run_cli(capsys, "uniform", "--n", "4", "--k", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,k,coefficients", "4,2,1/1;7/3;2/1;2/3"]


def test_minimal_shifted(capsys) -> None:
    code, plain = run_cli(capsys, "minimal", "--n", "3", "--k", "2")
    assert code == 0 and plain == "1/1, 3/2, 1/2\n"
    code, shifted = run_cli(capsys, "minimal", "--n", "3", "--k", "2", "--shifted")
    assert code == 0 and shifted == "0/1, 1/2, 1/2\n"


@pytest.mark.parametrize("shifted", [[], ["--shifted"]], ids=["plain", "shifted"])
def test_minimal_rank_out_of_range_is_exit_1(shifted: list[str], capsys) -> None:
    code = cli.main(["minimal", "--n", "5", "--k", "5", *shifted])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: need 1 <= k <= n - 1, got (k, n) = (5, 5)\n"


def test_sparse_golden_report(capsys) -> None:
    code, out = run_cli(
        capsys, "sparse", "--n", "20", "--k", "9", "--lambda", "8398",
        "--provenance", "gs-bound",
    )
    assert code == 0
    assert "negative_indices: 2, 3" in out
    assert "ehrhart positive: false" in out
    assert "-142179543511/15437822400" in out
    assert "-4816883312963/51459408000" in out


def test_sparse_json_round_trips(capsys) -> None:
    code, out = run_cli(
        capsys, "sparse", "--n", "6", "--k", "3", "--lambda", "4", "--format", "json"
    )
    assert code == 0
    d = json.loads(out)
    assert d == CounterexampleReport.build(6, 3, 4, "user").to_dict()
    assert d["provenance"] == "user"
    assert d["ehrhart_positive"] is True


def test_sparse_csv_columns(capsys) -> None:
    code, out = run_cli(
        capsys, "sparse", "--n", "4", "--k", "2", "--lambda", "2", "--format", "csv"
    )
    assert code == 0
    header, row = out.splitlines()
    assert header == "n,k,lambda,provenance,coefficients,negative_indices,ehrhart_positive"
    assert row == "4,2,2,user,1/1;2/1;1/1,,true"


def test_sparse_requires_exactly_one_source(capsys) -> None:
    code = cli.main(["sparse", "--n", "4", "--k", "2"])
    assert code == 1
    assert "exactly one of" in capsys.readouterr().err


def test_sparse_lambda_out_of_range_is_exit_1(capsys) -> None:
    code = cli.main(["sparse", "--n", "4", "--k", "2", "--lambda", "99"])
    assert code == 1
    assert "capped at 2" in capsys.readouterr().err


def test_sparse_matroid_file(tmp_path, capsys) -> None:
    f = tmp_path / "m.txt"
    f.write_text("6 3\n1 2 3\n4 5 6\n", encoding="ascii")
    code, out = run_cli(capsys, "sparse", "--matroid-file", str(f), "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert (d["n"], d["k"], d["lambda"], d["provenance"]) == (6, 3, 2, "user")
    # an explicit provenance is recorded, as it is with --lambda
    code, out = run_cli(capsys, "sparse", "--matroid-file", str(f), "--provenance", "gs-bound")
    assert code == 0
    assert "provenance = gs-bound" in out.splitlines()


def test_sparse_matroid_file_line_errors(tmp_path, capsys) -> None:
    f = tmp_path / "bad.txt"
    f.write_text("6 3\n1 2 3\n4 5\n", encoding="ascii")
    code = cli.main(["sparse", "--matroid-file", str(f)])
    assert code == 1
    assert "line 3" in capsys.readouterr().err


def test_sparse_matroid_file_dimension_disagreement(tmp_path, capsys) -> None:
    f = tmp_path / "m.txt"
    f.write_text("6 3\n1 2 3\n", encoding="ascii")
    code = cli.main(["sparse", "--n", "7", "--matroid-file", str(f)])
    assert code == 1
    assert "disagrees" in capsys.readouterr().err


def test_missing_file_is_exit_1(capsys) -> None:
    code = cli.main(["sparse", "--matroid-file", "/nonexistent/m.txt"])
    assert code == 1


def test_code_emits_loadable_matroid(tmp_path, capsys) -> None:
    f = tmp_path / "code.txt"
    f.write_text("keep me")
    code, out = run_cli(capsys, "code", "--n", "10", "--k", "3", "--output", str(f))
    assert code == 0
    assert "lower_bound = 12" in out
    assert [p.name for p in tmp_path.iterdir()] == ["code.txt"]  # replaced, nothing left over
    code2, out2 = run_cli(capsys, "sparse", "--matroid-file", str(f), "--format", "json")
    assert code2 == 0
    assert json.loads(out2)["n"] == 10


def test_code_json_schema(capsys) -> None:
    code, out = run_cli(capsys, "code", "--n", "6", "--k", "3", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"n", "k", "class_sizes", "chosen_index", "lower_bound", "upper_bound"}
    assert len(d["class_sizes"]) == 6
    assert d["lower_bound"] <= d["class_sizes"][d["chosen_index"]] <= d["upper_bound"]


def test_code_budget_is_exit_2(capsys) -> None:
    # C(40, 20) is about 1.4e11 words, past codes.WORD_BUDGET
    code = cli.main(["code", "--n", "40", "--k", "20"])
    assert code == 2
    assert "class enumeration too large" in capsys.readouterr().err


def test_code_budget_leaves_the_output_file_as_it_was(tmp_path, capsys) -> None:
    f = tmp_path / "code.txt"
    f.write_text("keep me")
    code = cli.main(["code", "--n", "40", "--k", "20", "--output", str(f)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "class enumeration too large" in captured.err
    assert f.read_text() == "keep me"
    assert [p.name for p in tmp_path.iterdir()] == ["code.txt"]


def test_code_unwritable_output_fails_fast(tmp_path, capsys) -> None:
    # the path is opened before the words are enumerated: nothing on stdout
    path = tmp_path / "missing" / "x.txt"
    code = cli.main(["code", "--n", "10", "--k", "4", "--output", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "No such file or directory" in captured.err


def test_code_rejects_a_class_that_is_not_distance_4(tmp_path, capsys, monkeypatch) -> None:
    # {1,2,3} and {1,2,4} are at Hamming distance 2: no sparse paving matroid
    bad = codes.ConstantWeightCode(6, 3, (0b000111, 0b001011), class_index=0)
    monkeypatch.setattr(cli, "gs_partition", lambda n, k: ([2, 0, 0, 0, 0, 0], bad))
    f = tmp_path / "code.txt"
    f.write_text("keep me")
    code = cli.main(["code", "--n", "6", "--k", "3", "--output", str(f)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.rstrip("\n").endswith("adjacent in Johnson graph J(6,3)")
    assert f.read_text() == "keep me"
    assert [p.name for p in tmp_path.iterdir()] == ["code.txt"]


def test_bounds_output(capsys) -> None:
    code, out = run_cli(capsys, "bounds", "--n", "18", "--k", "9")
    assert code == 0
    assert "max_ch_upper_bound = 4862" in out
    assert "gs_lower_bound = 2701" in out
    # rank outside 2..n-2 drops the quadratic rows instead of failing
    code, out = run_cli(capsys, "bounds", "--n", "6", "--k", "1")
    assert code == 0
    assert "quad_lower_bound" not in out
    # rank 0 has no circuit-hyperplane: the class bound stays under the packing bound
    code, out = run_cli(capsys, "bounds", "--n", "1", "--k", "0")
    assert code == 0
    assert "gs_lower_bound = 0" in out


def test_bounds_budget_is_exit_2(capsys, monkeypatch) -> None:
    n = cli.BOUNDS_MAX_N
    code, out = run_cli(capsys, "bounds", "--n", str(n), "--k", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["quad_upper_bound_uniform"] is not None

    # one past the budget is refused before any bound is computed
    def refuse(k: int, n: int) -> None:
        raise AssertionError("bound computed past the budget")

    monkeypatch.setattr(cli, "upper_bound_quad_uniform", refuse)
    n += 1
    code = cli.main(["bounds", "--n", str(n), "--k", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: bounds too large: n = {n} (max {cli.BOUNDS_MAX_N})\n"


@pytest.mark.parametrize("n, k", [(5, 9), (-3, 1), (0, 0)])
def test_bounds_impossible_nk_is_exit_1(n: int, k: int, capsys) -> None:
    code = cli.main(["bounds", "--n", str(n), "--k", str(k)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: need 0 <= k <= n with n >= 1, got (n, k) = ({n}, {k})\n"


def test_search_text_and_csv(capsys) -> None:
    code, out = run_cli(capsys, "search", "--n-range", "4:5", "--k-range", "2:2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n=4 k=2 lambda=1")
    assert "positive=true" in lines[0]
    code, out = run_cli(
        capsys, "search", "--n-range", "4:5", "--k-range", "2:2", "--format", "csv"
    )
    header = out.splitlines()[0]
    assert header == "n,k,lambda,provenance,coefficients,negative_indices,ehrhart_positive"
    # a grid with no feasible rank still prints the header
    code, out = run_cli(
        capsys, "search", "--n-range", "3:3", "--k-range", "5:9", "--format", "csv"
    )
    assert code == 0 and out == header + "\n"


def test_search_json_stream(capsys) -> None:
    code, out = run_cli(
        capsys, "search", "--n-range", "4:6", "--k-range", "1:9", "--format", "json"
    )
    assert code == 0
    reports = json.loads(out)
    assert [(r["n"], r["k"]) for r in reports] == [
        (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (5, 4),
        (6, 1), (6, 2), (6, 3), (6, 4), (6, 5),
    ]


def test_search_bad_range_is_exit_1(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--n-range", "5:4"])
    assert exc.value.code == 1


def test_hstar_text(capsys) -> None:
    code, out = run_cli(
        capsys, "hstar", "--n", "6", "--k", "3", "--lambda", "3", "--check-real-rooted"
    )
    assert code == 0
    assert out.splitlines() == ["h*: 1, 11, 24, 11, 1, 0", "real-rooted: true"]


def test_hstar_json(capsys) -> None:
    code, out = run_cli(
        capsys, "hstar", "--n", "4", "--k", "2", "--lambda", "0", "--format", "json"
    )
    assert code == 0
    d = json.loads(out)
    assert d["hstar"] == ["1/1", "2/1", "1/1", "0/1"]
    assert d["real_rooted"] is None


def test_hstar_real_rooted_degree_budget_is_exit_2(capsys) -> None:
    n = cli.REAL_ROOTED_MAX_DEGREE + 2  # degree n - 1, one above the budget
    code = cli.main(["hstar", "--n", str(n), "--k", "2", "--lambda", "0", "--check-real-rooted"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: real-rootedness check too large")
    # without the check the same h*-vector is printed
    code, out = run_cli(capsys, "hstar", "--n", str(n), "--k", "2", "--lambda", "0")
    assert code == 0
    assert out.startswith("h*: 1, ")


def test_hstar_degree_budget_is_checked_before_the_hstar_vector(monkeypatch, capsys) -> None:
    def refuse(*args):
        raise AssertionError("hstar must not run past the degree budget")

    monkeypatch.setattr(cli, "hstar", refuse)
    code = cli.main(["hstar", "--n", "150", "--k", "2", "--lambda", "75", "--check-real-rooted"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: real-rootedness check too large: n = 150, degree up to 149 "
        f"(max {cli.REAL_ROOTED_MAX_DEGREE})\n"
    )


def test_hstar_refuses_a_full_degree_before_the_build(monkeypatch, capsys) -> None:
    def refuse(*args):
        raise AssertionError("ehr_sparse must not run past the degree budget")

    monkeypatch.setattr(cli, "ehr_sparse", refuse)
    code = cli.main(["hstar", "--n", "300", "--k", "150", "--lambda", "0", "--check-real-rooted"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: real-rootedness check too large: n = 300, degree up to 299 "
        f"(max {cli.REAL_ROOTED_MAX_DEGREE})\n"
    )


@pytest.mark.parametrize("k", [1, 102])
def test_hstar_refuses_a_degree_drop_before_the_build(monkeypatch, k: int, capsys) -> None:
    # one circuit-hyperplane at rank 1 (a loop) or n - 1 (a coloop) drops the
    # degree to n - 2; the budget reads n alone, so nothing is built to see it
    def refuse(*args):
        raise AssertionError("nothing may be computed past the degree budget")

    for name in ("ehr_sparse", "hstar", "is_real_rooted"):
        monkeypatch.setattr(cli, name, refuse)
    code = cli.main(["hstar", "--n", "103", "--k", str(k), "--lambda", "1", "--check-real-rooted"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: real-rootedness check too large: n = 103, degree up to 102 "
        f"(max {cli.REAL_ROOTED_MAX_DEGREE})\n"
    )


def test_hstar_real_rooted_runs_at_the_degree_budget(capsys) -> None:
    n = cli.REAL_ROOTED_MAX_DEGREE + 1  # degree n - 1, exactly the budget
    code, out = run_cli(
        capsys, "hstar", "--n", str(n), "--k", "2", "--lambda", "0", "--check-real-rooted"
    )
    assert code == 0
    assert out.startswith("h*: 1, ")
    assert out.endswith("\nreal-rooted: true\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["uniform", "--n", "100000", "--k", "2"],
        ["minimal", "--n", "{big}", "--k", "2"],
        ["minimal", "--n", "{big}", "--k", "2", "--shifted"],
        ["sparse", "--n", "{big}", "--k", "2", "--lambda", "0"],
        ["hstar", "--n", "{big}", "--k", "2", "--lambda", "0"],
        ["search", "--n-range", "18:{big}"],
    ],
    ids=["uniform", "minimal", "minimal-shifted", "sparse", "hstar", "search"],
)
def test_polynomial_n_budget_is_exit_2(argv: list[str], capsys) -> None:
    big = str(cli.POLY_MAX_N + 1)
    code = cli.main([a.replace("{big}", big) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    n = argv[2] if argv[0] == "uniform" else big
    assert captured.err == f"error: polynomial too large: n = {n} (max {cli.POLY_MAX_N})\n"


def test_polynomial_n_budget_admits_the_cap(capsys) -> None:
    n = str(cli.POLY_MAX_N)
    code, out = run_cli(capsys, "uniform", "--n", n, "--k", "1")
    assert code == 0
    assert len(out.split(", ")) == cli.POLY_MAX_N  # a simplex of dimension n - 1


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    actions = cli.build_parser()._actions
    (subparsers,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


_BIG_N = str(cli.POLY_MAX_N + 1)

# One oversized input per subcommand, with the kernels it must refuse
# before; a subcommand without a budget has a string saying why.
BUDGET_CASES: dict[str, tuple[list[str], list[tuple[object, str]]] | str] = {
    "uniform": (["uniform", "--n", _BIG_N, "--k", "2"], [(cli, "ehr_uniform")]),
    "minimal": (
        ["minimal", "--n", _BIG_N, "--k", "2", "--shifted"],
        [(cli, "ehr_minimal"), (cli, "ehr_minimal_shifted")],
    ),
    "sparse": (["sparse", "--n", _BIG_N, "--k", "2", "--lambda", "0"], [(ehrhart, "ehr_sparse")]),
    "code": (["code", "--n", "40", "--k", "20"], [(codes, "_half_table")]),
    "bounds": (
        ["bounds", "--n", str(cli.BOUNDS_MAX_N + 1), "--k", "2"],
        [(cli, "lower_bound_quad"), (cli, "upper_bound_quad_uniform")],
    ),
    "search": (["search", "--n-range", "3:123"], [(cli, "search_counterexamples")]),
    "oracle": (
        ["oracle", "--matroid-file", "{matroid_file}", "--t-max", str(oracle.ORACLE_MAX_T + 1)],
        [(cli, "oracle_count"), (cli, "ehr_sparse")],
    ),
    "hstar": (
        ["hstar", "--n", _BIG_N, "--k", "2", "--lambda", "0"],
        [(cli, "ehr_sparse"), (cli, "hstar")],
    ),
    "verify-paper": "takes no sized input: it runs the fixed list of criteria",
}


def test_budget_table_names_every_subcommand() -> None:
    assert set(BUDGET_CASES) == set(_subcommands())


@pytest.mark.parametrize("name", sorted(k for k, v in BUDGET_CASES.items() if isinstance(v, tuple)))
def test_oversized_input_is_exit_2_before_the_kernel(
    name: str, tmp_path, monkeypatch, capsys
) -> None:
    argv, kernels = BUDGET_CASES[name]

    def refuse(*args):
        raise AssertionError(f"{name}: kernel ran past the budget")

    for module, attr in kernels:
        monkeypatch.setattr(module, attr, refuse)
    matroid_file = tmp_path / "m.txt"
    matroid_file.write_text("5 2\n1 2\n3 4\n", encoding="ascii")
    code = cli.main([str(matroid_file) if a == "{matroid_file}" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "too large" in captured.err


def test_search_work_budget_edge(monkeypatch, capsys) -> None:
    # 3:122 is the largest grid from n = 3 with the default ranks; the cells
    # are not built here
    monkeypatch.setattr(cli, "search_counterexamples", lambda *args: [])
    assert run_cli(capsys, "search", "--n-range", "3:122") == (0, "")
    code = cli.main(["search", "--n-range", "3:123"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: search grid too large: 5732 cells, 100319166797 work units "
        f"(max {cli.SEARCH_MAX_WORK})\n"
    )


def test_oracle_subcommand(tmp_path, capsys) -> None:
    f = tmp_path / "m.txt"
    f.write_text("5 2\n1 2\n3 4\n", encoding="ascii")
    code, out = run_cli(capsys, "oracle", "--matroid-file", str(f), "--t-max", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.endswith("ok") for line in lines)
    assert lines[1].startswith("t=1 oracle=8 formula=8")


def test_oracle_mismatch_is_exit_3(tmp_path, capsys, monkeypatch) -> None:
    f = tmp_path / "m.txt"
    f.write_text("4 2\n1 2\n", encoding="ascii")
    monkeypatch.setattr(cli, "oracle_count", lambda m, t: 0)
    code, out = run_cli(capsys, "oracle", "--matroid-file", str(f), "--t-max", "1")
    assert code == 3
    assert "MISMATCH" in out


@pytest.mark.parametrize(
    "t_max, status, err",
    [
        (oracle.ORACLE_MAX_T + 2, 2, "error: oracle instance too large: "),
        (-1, 1, "error: dilation must be nonnegative"),
    ],
    ids=["over-budget", "negative"],
)
def test_oracle_refuses_before_printing(
    t_max: int, status: int, err: str, tmp_path, capsys
) -> None:
    f = tmp_path / "m.txt"
    f.write_text("5 2\n1 2\n3 4\n", encoding="ascii")
    code = cli.main(["oracle", "--matroid-file", str(f), "--t-max", str(t_max)])
    captured = capsys.readouterr()
    assert code == status
    assert captured.out == ""
    assert captured.err.startswith(err)


def test_verify_paper_failure_is_exit_3(capsys, monkeypatch) -> None:
    checks = [
        (1, "stub pass", lambda: (True, "ok")),
        (2, "stub fail", lambda: (False, "boom")),
    ]
    monkeypatch.setattr(cli, "CHECKS", checks)
    code, out = run_cli(capsys, "verify-paper")
    assert code == 3
    lines = out.splitlines()
    assert lines[0].startswith("PASS criterion  1")
    assert lines[1].startswith("FAIL criterion  2")
    assert lines[-1] == "1 criterion(s) failed"


def test_unknown_flag_is_exit_1(capsys) -> None:
    # includes the removed options `verify-paper --heavy` and `code --max-words`
    for argv in (
        ["uniform", "--n", "3", "--k", "1", "--frobnicate"],
        ["verify-paper", "--heavy"],
        ["code", "--n", "6", "--k", "3", "--max-words", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "unrecognized arguments" in captured.err, argv


def test_missing_subcommand_is_exit_1() -> None:
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1


def test_entry_point_determinism() -> None:
    args = [
        "-m", "ehrpos.cli", "search",
        "--n-range", "10:12", "--k-range", "2:4", "--format", "csv",
    ]
    # the package under test comes first, installed or not
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # two runs that differ in hash seed, optimisation and warning settings:
    # -O strips asserts, and -X dev -W error turns every warning into an error
    runs = [(["-O"], "0"), (["-X", "dev", "-W", "error"], "12345")]
    first, second = (
        subprocess.run(
            [sys.executable, *flags, *args],
            capture_output=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        )
        for flags, seed in runs
    )
    assert first.stdout == second.stdout
    assert first.stdout.count(b"\n") == 10


def test_parser_defaults() -> None:
    parser = cli.build_parser()
    args = parser.parse_args(["uniform", "--n", "5", "--k", "2"])
    assert args.subcommand == "uniform"
    assert args.n == 5 and args.k == 2
    assert args.format == "text"
    args = parser.parse_args(["sparse", "--n", "6", "--k", "3", "--lambda", "2"])
    assert args.lam == 2 and args.provenance == "user"


def test_every_subcommand_binds_a_handler() -> None:
    # a subcommand added without its handler would fail only at run time
    subcommands = _subcommands()
    assert len(subcommands) == 9
    unbound = [name for name, p in subcommands.items() if not callable(p.get_default("handler"))]
    assert unbound == []


def test_main_does_not_leak_arguments(tmp_path, capsys, monkeypatch) -> None:
    # the parser is built once per process; each call must still parse afresh
    assert cli.build_parser() is cli.build_parser()
    seen = []
    parser = cli.build_parser()
    parse_args = parser.parse_args

    def recording(argv):
        seen.append(parse_args(argv))
        return seen[-1]

    monkeypatch.setattr(parser, "parse_args", recording)
    f = tmp_path / "m.txt"
    f.write_text("6 3\n1 2 3\n4 5 6\n", encoding="ascii")
    first = ["sparse", "--n", "6", "--k", "3", "--lambda", "2", "--provenance", "gs-bound"]
    assert cli.main(first) == 0
    assert cli.main(["sparse", "--matroid-file", str(f)]) == 0
    capsys.readouterr()
    assert (seen[0].lam, seen[0].provenance) == (2, "gs-bound")
    assert seen[1].lam is None and seen[1].n is None and seen[1].k is None
    assert seen[1].provenance == "user"


def test_code_enumerates_each_word_once(capsys, monkeypatch) -> None:
    tabulated: list[int] = []
    joined: list[tuple[int, ...]] = []
    half_table, join = codes._half_table, codes._join

    def counting_table(*args):
        table = half_table(*args)
        tabulated.extend(m for by_r in table.values() for ms in by_r.values() for m in ms)
        return table

    def counting_join(*args):
        joined.append(join(*args))
        return joined[-1]

    monkeypatch.setattr(codes, "_half_table", counting_table)
    monkeypatch.setattr(codes, "_join", counting_join)
    code, out = run_cli(capsys, "code", "--n", "10", "--k", "3", "--format", "json")
    assert code == 0
    # each half-mask once: weights 0..3 on elements 1..5, and on 6..10
    half = [m for m in range(32) if m.bit_count() <= 3]
    assert sorted(tabulated) == sorted(half + [m << 5 for m in half])
    d = json.loads(out)
    assert sum(d["class_sizes"]) == 120  # C(10, 3)
    assert d["class_sizes"][d["chosen_index"]] == max(d["class_sizes"])
    # only the chosen class is joined, each of its words once
    assert len(joined) == 1
    assert len(set(joined[0])) == len(joined[0]) == d["class_sizes"][d["chosen_index"]]


@pytest.mark.parametrize("n", [65, 20000])
def test_code_refuses_ground_set_before_any_table(n: int, capsys, monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("a half table was built")

    monkeypatch.setattr(codes, "_half_table", refuse)
    code = cli.main(["code", "--n", str(n), "--k", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: ground set size n={n} outside 1..64\n"


@pytest.mark.parametrize("n, k", [(5, 0), (3, 3), (1, 1)])
def test_code_refuses_a_degenerate_rank(n: int, k: int, tmp_path, capsys, monkeypatch) -> None:
    # at k = 0 or n no nonempty circuit-hyperplane family exists
    def refuse(*args):
        raise AssertionError("the words were enumerated")

    monkeypatch.setattr(cli, "gs_partition", refuse)
    code = cli.main(["code", "--n", str(n), "--k", str(k), "--output", str(tmp_path / "c.txt")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        f"error: need 1 <= k <= n - 1 for a circuit-hyperplane code, got (n, k) = ({n}, {k})\n"
    )
    assert list(tmp_path.iterdir()) == []


# sha256 of stdout, each recorded before a change that had to keep it
# byte-identical: the entries up to "bounds" before the polynomial kernels
# moved to integer arithmetic or the oracle became a dynamic program, the
# ones after it before the record writers of `cli` were merged into one
GOLDEN_STDOUT = {
    "uniform": (
        ["uniform", "--n", "12", "--k", "5"],
        "25d8180838fb51993f48912870690c155a3b6c1c98bcaccf088aa9487068b985",
    ),
    "minimal-shifted": (
        ["minimal", "--n", "14", "--k", "4", "--shifted"],
        "4eb467e6911d8a01cadc03231012e02428d8d45bbf1df006a6179447c7ea1241",
    ),
    "sparse-text": (
        ["sparse", "--n", "20", "--k", "9", "--lambda", "8398", "--provenance", "gs-bound"],
        "590676e0a7af0f9971e5d0772b3745305941d359424778ca5a5a11f266712f57",
    ),
    "sparse-json": (
        ["sparse", "--n", "20", "--k", "9", "--lambda", "8398", "--format", "json"],
        "de4757899eff28c096c04c6e5d39e37db7427363b4e9d948fc1687392c8b3215",
    ),
    "search-csv": (
        ["search", "--n-range", "18:22", "--k-range", "7:11", "--format", "csv"],
        "f4410f5f70c0511ec933ed0ba492b95eb07f86573bf417341b8c92f8264c7d08",
    ),
    "hstar-20-9": (
        ["hstar", "--n", "20", "--k", "9", "--lambda", "8398", "--check-real-rooted"],
        "186f796886c59f9234a6b881fae9b2712b8f22b6c7fc39ac458042b189bb3fb8",
    ),
    "hstar-60-2": (
        ["hstar", "--n", "60", "--k", "2", "--lambda", "30", "--check-real-rooted"],
        "fa502373d682780f914ab84f8590e28888c4d3f591a8e160d190a5e93c867ff4",
    ),
    # re-pinned when criterion 2 began to check gs_lower_bound(20, 9),
    # criterion 11 its two real-rootedness controls, criterion 10's detail
    # began to name the two coefficients it computes, and criterion 9 named
    # its lambda cap and began to check the rank function against the oracle,
    # and criterion 8 began to print and check upper_bound_quad_uniform(3, 10),
    # and criterion 10 began to check its exact [t^2] against a pinned sha256,
    # and criterion 9 dropped its lambda cap and began to name its atom structures
    "verify-paper": (
        ["verify-paper"],
        "c1ce63de1c5d039a0ce95f6ad2aedd12bc56c41240ed3ac38464de251e90d720",
    ),
    "oracle": (
        ["oracle", "--matroid-file", "{matroid_file}", "--t-max", "4"],
        "5835e273043e5f10875a3f04f735a1973802ecbc42b1152964441387ebd8c9d9",
    ),
    "code": (
        ["code", "--n", "10", "--k", "4"],
        "a7a8ccd98bf0696fe5c988d1dcf0f422ad150a935aa4b8650026190495ec4eef",
    ),
    # recorded before the partition met in the middle: the whole class
    "code-19-11": (
        ["code", "--n", "19", "--k", "11"],
        "89915743574be0cb9053d4568d5adb55f0d10931e2e9e152f08230a076e0505d",
    ),
    "bounds": (
        ["bounds", "--n", "20", "--k", "9"],
        "a11c217b788fb58a92594d9ce13637a72e2586c87b5338d5d1462a9d2452240b",
    ),
    "uniform-json": (
        ["uniform", "--n", "12", "--k", "5", "--format", "json"],
        "fd2377f676e30506efb2b550b49d92e712a9ef4188598593a9a4ec88d032089b",
    ),
    "uniform-csv": (
        ["uniform", "--n", "12", "--k", "5", "--format", "csv"],
        "7628213d2696e1bbd200307aeb5c295086069bb13be1e2000a49df6965fc8350",
    ),
    "minimal-json": (
        ["minimal", "--n", "14", "--k", "4", "--format", "json"],
        "4f2bb45f934a45152941c81aeac3796ed7b22488f88a83d5a6970151fd45d9dd",
    ),
    "minimal-csv": (
        ["minimal", "--n", "14", "--k", "4", "--format", "csv"],
        "7ec0c9b69b9806efb193f74ae59db0eb6439a1d99fc7db7b2f9f474cc9474efe",
    ),
    "minimal-shifted-json": (
        ["minimal", "--n", "14", "--k", "4", "--shifted", "--format", "json"],
        "02264d8c06d55f0a98f9522da66e02c8fda99f6cf01100b97647c781e96eb47a",
    ),
    "minimal-shifted-csv": (
        ["minimal", "--n", "14", "--k", "4", "--shifted", "--format", "csv"],
        "546dbf291e1d276b6e692a03c6ed303b548df2f30eb2efbe7681fa28898b9a9c",
    ),
    "sparse-csv": (
        [
            "sparse", "--n", "20", "--k", "9", "--lambda", "8398", "--provenance", "gs-bound",
            "--format", "csv",
        ],
        "617133e243f0b70fa3df8c6a175a549816a397f5540e1d3020fe168b7e6cb7a2",
    ),
    "sparse-file-json": (
        ["sparse", "--matroid-file", "{matroid_file}", "--format", "json"],
        "402a4c2f25ae957057a8d0d7a7afe3d027531d067d9a46b0f0af17adf1012ac9",
    ),
    "sparse-file-csv": (
        ["sparse", "--matroid-file", "{matroid_file}", "--format", "csv"],
        "c93de707336329d3a9415d8d876913cc374d2791778d1c293481b775c4f1d5c9",
    ),
    "code-json": (
        ["code", "--n", "10", "--k", "4", "--format", "json"],
        "2eeb0126bca8e94c4bc822d956a8c62c131bae774e8161d0f547aaac45b9e649",
    ),
    "code-csv": (
        ["code", "--n", "10", "--k", "4", "--format", "csv"],
        "7d9177ccb3adeefab28be372928f69e65cbb21ccd99246ca9a1fd08f0e66f1b2",
    ),
    "code-output": (
        ["code", "--n", "10", "--k", "4", "--output", "{output_file}"],
        "5012a8c1d783c2a3a11631b848cc507d0afa7274a3b3d74795ba19916328a2d2",
    ),
    "code-output-json": (
        ["code", "--n", "10", "--k", "4", "--output", "{output_file}", "--format", "json"],
        "2eeb0126bca8e94c4bc822d956a8c62c131bae774e8161d0f547aaac45b9e649",
    ),
    "code-output-csv": (
        ["code", "--n", "10", "--k", "4", "--output", "{output_file}", "--format", "csv"],
        "7d9177ccb3adeefab28be372928f69e65cbb21ccd99246ca9a1fd08f0e66f1b2",
    ),
    "bounds-json": (
        ["bounds", "--n", "20", "--k", "9", "--format", "json"],
        "122e59be2864cc3f5f937bff4ba2329a78e744abf5ac5e1868769ae160e03e58",
    ),
    "bounds-csv": (
        ["bounds", "--n", "20", "--k", "9", "--format", "csv"],
        "48e21819228bf38d44881516024d19adf3872bf8af4b48a6ad6f320bc40b9976",
    ),
    "bounds-k1": (
        ["bounds", "--n", "6", "--k", "1"],
        "22aa88bbef0c0508712e1552913f352f235ec283915b4c75455b38e146c9cd9f",
    ),
    "bounds-k1-json": (
        ["bounds", "--n", "6", "--k", "1", "--format", "json"],
        "136a089f08ff2a03dca1e77ad425b6c4f924e2c2a800ec220801aa615b8b1654",
    ),
    "bounds-k1-csv": (
        ["bounds", "--n", "6", "--k", "1", "--format", "csv"],
        "c92cca497e3d953c0f246a18bf6b2395c107b2488258524bac3de35965b7358a",
    ),
    # rank 5 at n = 40, where [t^2] first goes negative: gs_lower_bound = 16450
    "bounds-40-5": (
        ["bounds", "--n", "40", "--k", "5"],
        "6e82bbdbf1589499ac24455d08560a84ce8dd2474f1e13356e6514a8c3b56720",
    ),
    "search-json": (
        ["search", "--n-range", "18:22", "--k-range", "7:11", "--format", "json"],
        "1bf952aca937d018ce87628d2080e0f91c286086bc57fd37e1cb2a0f81cf5e76",
    ),
    "search-text": (
        ["search", "--n-range", "18:22", "--k-range", "7:11"],
        "7309d02fd472e218d7d70b3b34d27a151d8640a222b9e5fde0c2de5e95da591e",
    ),
    "hstar-json": (
        ["hstar", "--n", "20", "--k", "9", "--lambda", "8398", "--format", "json"],
        "039640db60706e2e49ff262021c45bcd7964792dc879f6ced362bfb712b7ff87",
    ),
    "hstar-csv": (
        ["hstar", "--n", "20", "--k", "9", "--lambda", "8398", "--format", "csv"],
        "1ec50e63e541ae672f63c9b88aef7608ebbe9ccd38563201ec20f28f76cc185d",
    ),
    "hstar-rooted-json": (
        [
            "hstar", "--n", "20", "--k", "9", "--lambda", "8398", "--check-real-rooted",
            "--format", "json",
        ],
        "1d51285e10f96a49e764eae9453116a637c581cad1fb620379d5d2394630bb22",
    ),
    "hstar-rooted-csv": (
        [
            "hstar", "--n", "20", "--k", "9", "--lambda", "8398", "--check-real-rooted",
            "--format", "csv",
        ],
        "6275f02c7d9e7bbeb86d8788dead5f1610c8d076a470ea0a6bfea6ac570426ad",
    ),
}

# the file behind "{matroid_file}": rank 3 on 7 elements, lambda = 2
GOLDEN_MATROID = "7 3\n1 2 3\n4 5 6\n"

# sha256 of the file that `code --n 10 --k 4 --output {output_file}` writes
GOLDEN_CODE_FILE = "c12a7980efdaf242957c02dd0eee50d85377ba8ccc65b5a12d59e1704346339d"


# sha256 of the file that `code --n 20 --k 9 --output FILE` writes, recorded
# before the partition met in the middle and the file went through byte tables
GOLDEN_CODE_FILE_20_9 = "a06cd4fb0f798bc50e14d7d01d614788ccb0ea082b0a1200741bb686c3f5d48e"

# sha256 of the stdout of `sparse --matroid-file FILE` on that file, by
# format, recorded before matroid files were parsed through a token table
GOLDEN_SPARSE_FILE_20_9 = {
    "json": "de4757899eff28c096c04c6e5d39e37db7427363b4e9d948fc1687392c8b3215",
    "text": "efd66c61762bb15a2c6497e5ef972d9e43ca8c27d712cb64944a183bfcfd16a0",
}


def test_code_file_20_9(tmp_path, capsys) -> None:
    path = tmp_path / "m.txt"
    code, _ = run_cli(capsys, "code", "--n", "20", "--k", "9", "--output", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CODE_FILE_20_9
    for fmt, digest in GOLDEN_SPARSE_FILE_20_9.items():
        code, out = run_cli(capsys, "sparse", "--matroid-file", str(path), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_golden_stdout(name: str, tmp_path, capsys) -> None:
    argv, digest = GOLDEN_STDOUT[name]
    matroid_file = tmp_path / "m.txt"
    matroid_file.write_text(GOLDEN_MATROID, encoding="ascii")
    output_file = tmp_path / "out.txt"
    paths = {"{matroid_file}": str(matroid_file), "{output_file}": str(output_file)}
    code, out = run_cli(capsys, *(paths.get(a, a) for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if "{output_file}" in argv:
        assert hashlib.sha256(output_file.read_bytes()).hexdigest() == GOLDEN_CODE_FILE


# the cases of the search path: build, sign test and "p/q" strings
INTEGER_PATH_CASES = [
    "search-json", "search-csv", "search-text", "sparse-text", "sparse-json", "sparse-csv",
    "uniform", "uniform-json", "uniform-csv",
    "minimal-shifted", "minimal-shifted-json", "minimal-shifted-csv",
]


@pytest.mark.parametrize("name", INTEGER_PATH_CASES)
def test_integer_path_reads_no_fraction_coefficients(name: str, monkeypatch, capsys) -> None:
    def refuse(self: Polynomial) -> None:
        raise RuntimeError("Polynomial.coeffs read")

    monkeypatch.setattr(Polynomial, "coeffs", property(refuse))
    with pytest.raises(RuntimeError, match="coeffs read"):
        Polynomial([1]).coeffs
    # cold caches, so the builds run under the patch as well
    ehr_uniform.cache_clear()
    ehr_minimal_shifted.cache_clear()
    argv, digest = GOLDEN_STDOUT[name]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
