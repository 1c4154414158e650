"""Checks on the package source itself."""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ehrpos"
# the package modules: the CLI is the one program entry point
PROGRAM_FILES = sorted(SRC.glob("*.py"))


def test_src_has_no_assert_statements() -> None:
    # python -O strips assert statements, so invariants must raise explicitly
    # a program file outside the package has to change this check first
    assert {path.parent for path in PROGRAM_FILES} == {SRC}
    assert not (ROOT / "scripts").exists()
    found = [
        f"{path.name}:{node.lineno}"
        for path in PROGRAM_FILES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads."""
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_src_modules_use_every_import() -> None:
    # no linter runs here, so an import left behind by a deletion is caught here
    found = {
        path.name: unused
        for path in PROGRAM_FILES
        if path.name != "__init__.py"
        and (unused := _unused_imports(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}


def test_unused_import_check_catches_a_leftover() -> None:
    tree = ast.parse("from .ratpoly import Polynomial, binomial\n\nx = binomial(3, 1)\n")
    assert _unused_imports(tree) == ["Polynomial (line 1)"]


def _package_imports(tree: ast.Module) -> set[str]:
    """The ehrpos modules a module imports from, in relative or absolute form."""
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "ehrpos." * (node.level > 0) + (node.module or "")
            dotted += [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
    return {d.split(".")[1] for d in dotted if d.startswith("ehrpos.")}


# the oracle certifies the formulas, so it may not compute with them
FORMULA_MODULES = {"ehrhart", "ratpoly", "hstar", "verify", "cli"}


def test_oracle_imports_no_formula_module() -> None:
    path = SRC / "oracle.py"
    found = _package_imports(ast.parse(path.read_text(), filename=str(path)))
    assert "matroid" in found  # the check sees the oracle's own imports
    assert found & FORMULA_MODULES == set()


def test_formula_import_check_catches_an_import() -> None:
    snippet = (
        "from .matroid import validate\n"
        "from . import hstar\n"
        "import ehrpos.cli\n"
        "\n"
        "def f():\n"
        "    from ehrpos.ratpoly import binomial\n"
    )
    found = _package_imports(ast.parse(snippet))
    assert found == {"matroid", "hstar", "cli", "ratpoly"}
    assert found & FORMULA_MODULES == {"hstar", "cli", "ratpoly"}


def _coeffs_reads(tree: ast.Module) -> list[int]:
    """Lines that read an attribute named `coeffs`."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "coeffs"
    )


def test_only_ratpoly_reads_fraction_coefficients() -> None:
    # outside ratpoly the integer form (nums, den) is read, which builds no
    # Fraction; `.coeff(m)` for a single detail value stays allowed
    found = {
        path.name: lines
        for path in PROGRAM_FILES
        if path.name != "ratpoly.py"
        and (lines := _coeffs_reads(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}
    ratpoly = SRC / "ratpoly.py"
    assert _coeffs_reads(ast.parse(ratpoly.read_text()))  # the check sees real reads


def test_coeffs_read_check_catches_a_read() -> None:
    snippet = (
        "neg = [m for m, c in enumerate(p.coeffs) if c < 0]\n"
        "quad = p.coeff(2)\n"
        "signs = [c < 0 for c in p.nums]\n"
        "strings = fraction_strings(report.ehrhart.coeffs)\n"
    )
    assert _coeffs_reads(ast.parse(snippet)) == [1, 4]


def test_every_exported_name_is_bound() -> None:
    import ehrpos

    assert [name for name in ehrpos.__all__ if not hasattr(ehrpos, name)] == []


# every option string of each subcommand: a new option has to change this pin
CLI_OPTIONS = {
    "uniform": ["--format", "--n", "--k"],
    "minimal": ["--format", "--n", "--k", "--shifted"],
    "sparse": ["--format", "--n", "--k", "--lambda", "--provenance", "--matroid-file"],
    "code": ["--format", "--n", "--k", "--output"],
    "bounds": ["--format", "--n", "--k"],
    "search": ["--format", "--n-range", "--k-range"],
    "verify-paper": [],
    "oracle": ["--matroid-file", "--t-max"],
    "hstar": ["--format", "--n", "--k", "--lambda", "--check-real-rooted"],
}


def test_cli_options_are_pinned() -> None:
    from ehrpos.cli import build_parser

    actions = build_parser()._actions
    (subparsers,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: [o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")]
        for name, p in subparsers.choices.items()
    }
    assert found == CLI_OPTIONS
    assert sum(map(len, found.values())) == 30


def _defaulted_parameters(tree: ast.Module) -> int:
    """Parameters with a default value, positional or keyword-only, over
    every function and lambda."""
    return sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    )


def _float_values(tree: ast.Module) -> list[int]:
    """Lines that hold a float literal or call `float`."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        or isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    )


def test_program_files_hold_no_float() -> None:
    # the arithmetic is exact: a float value anywhere is a way to lose that
    found = {
        path.name: lines
        for path in PROGRAM_FILES
        if (lines := _float_values(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}


def test_float_check_catches_a_float() -> None:
    snippet = (
        "NEG = float('-inf')\n"
        "if isinstance(x, float):\n"
        "    scale = 2.5\n"
        "big = 10**11\n"
        "small = 1e-9\n"
    )
    assert _float_values(ast.parse(snippet)) == [1, 3, 5]


def test_defaulted_parameter_count_is_pinned() -> None:
    # each default is a setting some caller can change: a new one has to
    # change this pin
    found = sum(_defaulted_parameters(ast.parse(p.read_text())) for p in PROGRAM_FILES)
    assert found == 4


def test_defaulted_parameter_count_sees_every_kind() -> None:
    snippet = "def f(a, b=1, *, c, d=2): pass\nasync def g(e=3): pass\nh = lambda i=4: i\n"
    assert _defaulted_parameters(ast.parse(snippet)) == 4
