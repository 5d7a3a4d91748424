"""The routes that check each other share no code: a module's imports from
the package are read off its source, so a new import that links two routes
fails here and not only in review."""

import ast
from pathlib import Path

import pytest

import flcubes

PACKAGE = Path(flcubes.__file__).parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def _package_imports(module: str) -> set[str]:
    """The package modules ``module`` imports, relatively or by full name."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        # module is None only in a relative `from . import name`
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("flcubes")):
            found.update((node.module or "").split("."), (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            found.update(part for a in node.names for part in a.name.split(".")[1:]
                         if a.name.startswith("flcubes."))
    return found & MODULES


@pytest.mark.parametrize("module", ["formulas", "genfun"])
def test_formula_routes_import_only_polynomials(module):
    # the recurrence, closed-form and series routes are checked against the
    # census, so they may not read it, the posets or the lattices it counts
    assert _package_imports(module) <= {"polynomials"}


def test_lattice_imports_nothing_from_the_census():
    # the census counts the lattice's diagram, so the diagram must not be
    # built from census code
    assert "census" not in _package_imports("lattice")


def test_the_import_reader_sees_every_form_of_package_import():
    # census.py imports .errors, .lattice, .polynomials and .poset relatively;
    # verify.py adds `from . import tables`
    assert _package_imports("census") == {"errors", "lattice", "polynomials", "poset"}
    assert "tables" in _package_imports("verify")


def _setattr_callers(module: str) -> set[str]:
    """The innermost functions of ``module`` that call ``object.__setattr__``,
    by name; a call outside every function is ``<module>``."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), "<module>")
    return found


@pytest.mark.parametrize("module", sorted(MODULES))
def test_frozen_objects_are_written_only_while_they_are_built(module):
    # a frozen object set up in __init__ or __post_init__ keeps no hidden
    # state that a later query writes
    assert _setattr_callers(module) <= {"__init__", "__post_init__"}


def test_the_setattr_reader_sees_the_constructors():
    assert _setattr_callers("poset") == {"__post_init__"}
    assert _setattr_callers("polynomials") == {"__init__"}
    assert _setattr_callers("genfun") == _setattr_callers("lattice") == {"__post_init__"}
