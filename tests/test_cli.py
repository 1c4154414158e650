from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from ehrpos import cli, codes
from ehrpos.ehrhart import CounterexampleReport
from ehrpos.verify import CheckResult


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
    assert CounterexampleReport.from_dict(d).to_dict() == d
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
    code, out = run_cli(capsys, "code", "--n", "10", "--k", "3", "--output", str(f))
    assert code == 0
    assert "lower_bound = 12" in out
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
    code = cli.main(["code", "--n", "40", "--k", "20", "--max-words", "100"])
    assert code == 2
    assert "class enumeration too large" in capsys.readouterr().err


def test_bounds_output(capsys) -> None:
    code, out = run_cli(capsys, "bounds", "--n", "18", "--k", "9")
    assert code == 0
    assert "max_ch_upper_bound = 4862" in out
    assert "gs_lower_bound = 2701" in out
    # rank outside 2..n-2 drops the quadratic rows instead of failing
    code, out = run_cli(capsys, "bounds", "--n", "6", "--k", "1")
    assert code == 0
    assert "quad_lower_bound" not in out


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


def test_verify_paper_failure_is_exit_3(capsys, monkeypatch) -> None:
    results = [
        CheckResult(1, "stub pass", "pass", "ok"),
        CheckResult(2, "stub fail", "fail", "boom"),
    ]
    monkeypatch.setattr(cli, "iter_results", lambda heavy: iter(results))
    code, out = run_cli(capsys, "verify-paper")
    assert code == 3
    lines = out.splitlines()
    assert lines[0].startswith("PASS criterion  1")
    assert lines[1].startswith("FAIL criterion  2")
    assert lines[-1] == "1 criterion(s) failed"


def test_unknown_flag_is_exit_1() -> None:
    with pytest.raises(SystemExit) as exc:
        cli.main(["uniform", "--n", "3", "--k", "1", "--frobnicate"])
    assert exc.value.code == 1


def test_missing_subcommand_is_exit_1() -> None:
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1


def test_entry_point_determinism() -> None:
    argv = [
        sys.executable, "-m", "ehrpos.cli", "search",
        "--n-range", "10:12", "--k-range", "2:4", "--format", "csv",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.count(b"\n") == 10


def test_config_from_args_defaults() -> None:
    parser = cli.build_parser()
    cfg = cli.config_from_args(parser.parse_args(["uniform", "--n", "5", "--k", "2"]))
    assert cfg.subcommand == "uniform"
    assert cfg.n == 5 and cfg.k == 2
    assert cfg.output_format == "text"
    cfg = cli.config_from_args(
        parser.parse_args(["sparse", "--n", "6", "--k", "3", "--lambda", "2"])
    )
    assert cfg.lam == 2 and cfg.lambda_provenance == "user"


def test_code_enumerates_each_word_once(capsys, monkeypatch) -> None:
    seen = []
    masks = codes.weight_k_masks

    def counting(n: int, k: int):
        for w in masks(n, k):
            seen.append(w)
            yield w

    monkeypatch.setattr(codes, "weight_k_masks", counting)
    code, out = run_cli(capsys, "code", "--n", "10", "--k", "3", "--format", "json")
    assert code == 0
    assert len(seen) == 120  # C(10, 3)
    d = json.loads(out)
    assert d["class_sizes"][d["chosen_index"]] == max(d["class_sizes"])


# sha256 of stdout, recorded before the polynomial kernels moved to integer
# arithmetic; the output must stay byte-identical
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
    "verify-paper": (
        ["verify-paper"],
        "4cdc4f0bc65d55d7a36210a4d223d2f1f9de707c84dabee650801dab6cbea1c0",
    ),
    "oracle": (
        ["oracle", "--matroid-file", "{matroid_file}", "--t-max", "4"],
        "5835e273043e5f10875a3f04f735a1973802ecbc42b1152964441387ebd8c9d9",
    ),
    "code": (
        ["code", "--n", "10", "--k", "4"],
        "a7a8ccd98bf0696fe5c988d1dcf0f422ad150a935aa4b8650026190495ec4eef",
    ),
    "bounds": (
        ["bounds", "--n", "20", "--k", "9"],
        "a11c217b788fb58a92594d9ce13637a72e2586c87b5338d5d1462a9d2452240b",
    ),
}

# the file behind "{matroid_file}": rank 3 on 7 elements, lambda = 2
GOLDEN_MATROID = "7 3\n1 2 3\n4 5 6\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_golden_stdout(name: str, tmp_path, capsys) -> None:
    argv, digest = GOLDEN_STDOUT[name]
    matroid_file = tmp_path / "m.txt"
    matroid_file.write_text(GOLDEN_MATROID, encoding="ascii")
    argv = [str(matroid_file) if a == "{matroid_file}" else a for a in argv]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
