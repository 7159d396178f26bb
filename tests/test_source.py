"""Every name a pairvar module imports at top level is used in it, none
imports another's underscore name off a short list, no module writes to
stderr but through logging, none imports scipy when it is itself imported,
and the scipy imports inside functions are a short list without
scipy.linalg."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pairvar"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

# bench/tracing.py wraps these names where their callers look them up, so
# each module keeps its import although it never calls the name itself
KEPT_FOR_TRACING = {
    "cli": {"pvalue_naive", "pvalue_conservative", "pvalue_berger_boos"},
    "pvalues": {"ci_mu_exact"},
}


def _unused_imports(module: str) -> set:
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    # an allow-listed name that is used, or no longer imported, is stale
    assert _unused_imports(module) == KEPT_FOR_TRACING.get(module, set())


def test_allow_list_names_modules_that_exist():
    assert set(KEPT_FOR_TRACING) <= set(MODULES)


# underscore names one pairvar module may import from another; any other
# stays private to its module, and a name no module imports is stale
SHARED_PRIVATE = {"_h_at_bounds", "_positive_h", "_MIN_STEP", "_ROUNDING"}


def _private_imports(path) -> set:
    """Each underscore name, dunders aside, path imports from a pairvar
    module."""
    return {a.name for node in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("pairvar"))
            for a in node.names
            if a.name.startswith("_") and not a.name.startswith("__")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_underscore_names_stay_private(path):
    assert _private_imports(path) <= SHARED_PRIVATE


def test_shared_private_list_is_not_stale():
    assert set().union(*map(_private_imports, SRC.glob("*.py"))) == (
        SHARED_PRIVATE)


def _stderr_channels(path) -> list:
    """Each print call, sys.stderr reference and warnings import in path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):  # from sys import stderr
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value,
                                                            ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names = [f"{node.func.id}()"]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name in ("print()", "sys.stderr")
                  or name.partition(".")[0] == "warnings"]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_stderr_only_through_logging(path):
    # main gives the pairvar logger its one handler, format and level
    assert _stderr_channels(path) == []


def _scipy_imports(path) -> list:
    """(function, name) for each scipy import in path: the innermost
    function whose body holds it (None if the import runs when the module
    is imported) and the dotted name it imports, so that `from
    scipy.optimize import nnls` gives scipy.optimize.nnls."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [f"{child.module}.{a.name}" for a in child.names]
            else:
                names = []
            found.extend((function, name) for name in names
                         if name.partition(".")[0] == "scipy")
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_scipy_import_at_module_level(path):
    # scipy.special alone took over half of every command's start-up
    assert [name for function, name in _scipy_imports(path)
            if function is None] == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_scipy_linalg_import(path):
    # the pi solve factors with numpy: LAPACK's threaded Cholesky left
    # OpenBLAS workers spinning and moved a fit's last bits with the
    # thread count
    assert [name for _, name in _scipy_imports(path)
            if name.partition(".")[2].startswith("linalg")] == []


# The pi solve's NNLS is the one scipy routine a fit runs. minimize is kept
# only as a name bench/tracing.py wraps; nothing calls it. A sys.modules
# check could not show this: importing scipy.optimize loads scipy.linalg.
SCIPY_IMPORTS = {("mixture_em", "_solve_pi", "scipy.optimize.nnls"),
                 ("mixture_em", "minimize", "scipy.optimize")}


def test_scipy_imports_are_the_listed_ones():
    assert {(path.stem, function, name) for path in SRC.glob("*.py")
            for function, name in _scipy_imports(path)} == SCIPY_IMPORTS
