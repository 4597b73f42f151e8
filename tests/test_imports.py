"""Static import hygiene for the package, with the standard library's
ast only: every module-level import is used by its module, and no
function body imports anything (no import cycle needs it)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twistsep"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _bindings(node):
    """The names a module-level import statement binds."""
    for alias in node.names:
        if alias.asname:
            yield alias.asname
        else:
            yield alias.name.split(".")[0]


# the package's own imports are its exports
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = _tree(path)
    imported = {name for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bindings(node)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    found = []
    for fn in ast.walk(_tree(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{fn.name} (line {node.lineno})")
    assert found == []
