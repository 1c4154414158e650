"""Checks on the package source itself."""

from __future__ import annotations

import argparse
import ast
from pathlib import Path
from typing import Iterator

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


# the modules that compute with Fraction: the others, h*-vectors and the
# Sturm chain included, work in ints
FRACTION_MODULES = {"ratpoly", "ehrhart", "verify"}


def _imports_fractions(tree: ast.Module) -> bool:
    """Whether a module imports `fractions` or a name from it, anywhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "fractions":
            return True
    return False


def test_fraction_imports_are_pinned() -> None:
    found = {
        path.stem
        for path in PROGRAM_FILES
        if _imports_fractions(ast.parse(path.read_text(), filename=str(path)))
    }
    assert found == FRACTION_MODULES


def test_fraction_import_check_catches_every_form() -> None:
    for snippet in (
        "from fractions import Fraction\n",
        "import math, fractions\n",
        "def f():\n    from fractions import Fraction as F\n",
    ):
        assert _imports_fractions(ast.parse(snippet))
    clean = "from .ratpoly import Polynomial\nimport math\nname = 'fractions'\n"
    assert not _imports_fractions(ast.parse(clean))


def _attribute_readers(tree: ast.Module, attr: str) -> list[str]:
    """Where an attribute named `attr` is read: the innermost function
    around each read, by dotted name, or `<module>` outside every function."""
    spans = [(node.lineno, node.end_lineno, name) for name, node in _functions(tree)]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == attr:
            around = [(lo, name) for lo, hi, name in spans if lo <= node.lineno <= hi]
            found.add(max(around)[1] if around else "<module>")
    return sorted(found)


def test_oracle_reads_circuit_hyperplanes_only_in_atom_structure() -> None:
    # the count then reads nothing of a matroid but its atom structure, the
    # key under which criterion 9 shares the counts of matroids
    path = SRC / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _attribute_readers(tree, "circuit_hyperplanes") == ["atom_structure"]


def test_attribute_reader_check_catches_a_read() -> None:
    snippet = (
        "def atom_structure(m):\n"
        "    return m.circuit_hyperplanes\n"
        "def _count_points(m, hi):\n"
        "    def inner():\n"
        "        return len(m.circuit_hyperplanes)\n"
        "    return inner() + m.n\n"
        "LAM = M.circuit_hyperplanes\n"
    )
    found = _attribute_readers(ast.parse(snippet), "circuit_hyperplanes")
    assert found == ["<module>", "_count_points.inner", "atom_structure"]


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def _defaulted_parameters(tree: ast.Module) -> int:
    """Parameters with a default value, positional or keyword-only, over
    every function and lambda, and fields with a default value of every
    `@dataclass` class."""
    return sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ) + sum(
        isinstance(stmt, ast.AnnAssign) and stmt.value is not None
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for stmt in node.body
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
    snippet = (
        "def f(a, b=1, *, c, d=2): pass\n"
        "async def g(e=3): pass\n"
        "h = lambda i=4: i\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    x: int\n"
        "    y: int | None = None\n"
        "    TABLE = (1, 2)\n"
        "class Plain:\n"
        "    z: int = 0\n"
    )
    assert _defaulted_parameters(ast.parse(snippet)) == 5


def _functions(node: ast.AST, prefix: str = "") -> Iterator[tuple[str, ast.FunctionDef]]:
    """Every function and method under `node`, with its dotted name:
    `Class.method`, `function.inner`."""
    for child in ast.iter_child_nodes(node):
        scope = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            scope = f"{prefix}{child.name}."
        elif isinstance(child, ast.ClassDef):
            scope = f"{prefix}{child.name}."
        yield from _functions(child, scope)


def _uncalled(trees: list[ast.Module]) -> list[str]:
    """Functions and methods, dunders aside, whose name none of the modules
    reads, as a name or as an attribute."""
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return sorted(
        qualname
        for tree in trees
        for qualname, node in _functions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__")) and node.name not in read
    )


# every function the package defines and never reads, with the reason it
# stays; an entry goes once its function is read or deleted
UNCALLED = {
    "_Parser.error": "argparse calls it on a bad argument",
    "poly_shift": "spanned by perfbench/spans.py until ROADMAP item 1",
    "binom_poly": "spanned by perfbench/spans.py until ROADMAP item 1",
    "gs_classes": "spanned by perfbench/spans.py until ROADMAP item 1",
    "gs_best_class": "spanned by perfbench/spans.py until ROADMAP item 1",
}


def test_every_src_function_is_read() -> None:
    # a helper that only its own tests use is code to delete; __init__.py
    # only re-exports, so its names do not count as reads
    trees = [
        ast.parse(path.read_text(), filename=str(path))
        for path in PROGRAM_FILES
        if path.name != "__init__.py"
    ]
    assert _uncalled(trees) == sorted(UNCALLED)


def test_uncalled_check_catches_a_helper() -> None:
    snippet = (
        "class P:\n"
        "    def __eq__(self, other): return self.used() == other\n"
        "    def used(self): return _helper\n"
        "    def spare(self): pass\n"
        "def _helper(x):\n"
        "    def inner(): pass\n"
        "    return x\n"
    )
    assert _uncalled([ast.parse(snippet)]) == ["P.spare", "_helper.inner"]


# the caches that outlive a call: each decorator of functools.cache,
# lru_cache or cached_property in the package.  With the module-state
# check below, which rules out a mutable module binding, these are every
# memory that outlives a call; a new cache has to change this pin
CACHED = {
    "ehrhart.ehr_uniform",
    "ehrhart.ehr_minimal_shifted",
    "cli.build_parser",
    "matroid.SparsePavingMatroid.ch_set",
}
CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def _cached(tree: ast.Module, module: str) -> set[str]:
    """Functions and methods decorated with a `functools` cache, by name or
    as an attribute, with or without a call."""
    found = set()
    for qualname, node in _functions(tree):
        for d in node.decorator_list:
            d = d.func if isinstance(d, ast.Call) else d
            name = d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)
            if name in CACHE_DECORATORS:
                found.add(f"{module}.{qualname}")
    return found


def test_cross_call_caches_are_pinned() -> None:
    found = set().union(
        *(_cached(ast.parse(p.read_text(), filename=str(p)), p.stem) for p in PROGRAM_FILES)
    )
    assert found == CACHED


def test_cache_check_catches_every_form() -> None:
    snippet = (
        "@functools.cache\n"
        "def a(): pass\n"
        "@lru_cache(maxsize=None)\n"
        "def b(): pass\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def c(): pass\n"
        "@cache\n"
        "def d(): pass\n"
        "class E:\n"
        "    @cached_property\n"
        "    def f(self): pass\n"
        "    @property\n"
        "    def g(self): pass\n"
        "@staticmethod\n"
        "def h(): pass\n"
    )
    assert _cached(ast.parse(snippet), "m") == {"m.a", "m.b", "m.c", "m.d", "m.E.f"}


# what a module binding must not be: a mutable container, a generator or a lock
STATE_VALUES = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp, ast.GeneratorExp
)
STATE_CALLS = {"list", "dict", "set", "Lock", "RLock"}


def _module_state(tree: ast.Module) -> list[str]:
    """Top-level names, `__all__` aside, bound to a list, dict or set
    display, a comprehension or a generator, or a call of list, dict, set,
    threading.Lock or threading.RLock."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        func = value.func if isinstance(value, ast.Call) else None
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if isinstance(value, STATE_VALUES) or called in STATE_CALLS:
            found += [
                f"{node.id} (line {stmt.lineno})"
                for target in targets
                for node in ast.walk(target)
                if isinstance(node, ast.Name) and node.id != "__all__"
            ]
    return found


def test_src_holds_no_module_state() -> None:
    # a mutable module binding keeps memory from one call to the next, out
    # of every cache pin; constants are ints, Fractions, tuples and ranges
    found = {
        path.name: state
        for path in PROGRAM_FILES
        if (state := _module_state(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}


def test_module_state_check_catches_every_form() -> None:
    snippet = (
        "__all__ = ['f']\n"
        "A = [1]\n"
        "B: dict[str, int] = {}\n"
        "C = {1, 2}\n"
        "D = [x for x in range(3)]\n"
        "E = {x: x for x in range(3)}\n"
        "F = {x for x in range(3)}\n"
        "G = (x for x in range(3))\n"
        "H = list(range(3))\n"
        "I = J = dict()\n"
        "K = set()\n"
        "L = threading.Lock()\n"
        "M = threading.RLock()\n"
        "N = (1, 2)\n"
        "O = frozenset({1})\n"
        "P = dict[int, list[int]]\n"
        "Q: list[int]\n"
        "def f():\n"
        "    local = []\n"
    )
    assert _module_state(ast.parse(snippet)) == [
        "A (line 2)", "B (line 3)", "C (line 4)", "D (line 5)", "E (line 6)",
        "F (line 7)", "G (line 8)", "H (line 9)", "I (line 10)", "J (line 10)",
        "K (line 11)", "L (line 12)", "M (line 13)",
    ]


def _unnamed_budgets(tree: ast.Module) -> list[int]:
    """Lines that raise BudgetExceededError outside every `if` whose test
    reads an UPPER_CASE name the module assigns at its top level."""
    constants = {
        target.id
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    found = []

    def visit(node: ast.AST, guarded: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and not guarded:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "BudgetExceededError":
                    found.append(child.lineno)
            reads = (
                {n.id for n in ast.walk(child.test) if isinstance(n, ast.Name)}
                if isinstance(child, ast.If)
                else set()
            )
            visit(child, guarded or bool(reads & constants))

    visit(tree, False)
    return found


def test_every_budget_is_a_named_constant() -> None:
    # a budget that a raise compares against a bare literal cannot be found,
    # reported or re-sized in one place
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PROGRAM_FILES}
    assert {name: lines for name, tree in trees.items() if (lines := _unnamed_budgets(tree))} == {}
    # the check sees every budget: four in cli, one each in codes and
    # ehrhart, two in oracle
    assert sum(p.read_text().count("raise BudgetExceededError(") for p in PROGRAM_FILES) == 8


def test_budget_check_catches_a_literal() -> None:
    snippet = (
        "MAX_N = 7\n"
        "def f(n, limit):\n"
        "    LOCAL_MAX = 3\n"
        "    if n > MAX_N:\n"
        "        raise BudgetExceededError(f'n = {n} (max {MAX_N})')\n"
        "    if n > 7:\n"
        "        raise BudgetExceededError('n too large (max 7)')\n"
        "    if n > limit:\n"
        "        raise BudgetExceededError\n"
        "    if n > LOCAL_MAX:\n"
        "        raise BudgetExceededError('local')\n"
        "    if n < 0:\n"
        "        raise ValueError('negative')\n"
        "    raise BudgetExceededError('always')\n"
    )
    assert _unnamed_budgets(ast.parse(snippet)) == [7, 9, 11, 14]
