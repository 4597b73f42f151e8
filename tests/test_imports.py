"""Static hygiene for the package, with the standard library's ast only:
every module-level import is used by its module, no function body
imports anything (no import cycle needs it), and every function, class
and method is referenced somewhere in src/, tests/ or bench/ outside its
own definition (a string names it only in bench/), or overrides a method
of a base class from outside the package, which that base class may
call. A stricter rule keeps out names that only their own unit tests
and re-exports use: outside a named exempt set, every definition is
referenced from the package's modules, the benchmark or the acceptance
tests."""

import ast
from collections import Counter
import importlib
from pathlib import Path
import types

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twistsep"
MODULES = sorted(PACKAGE.glob("*.py"))
WITHOUT_INIT = [p for p in MODULES if p.name != "__init__.py"]


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
@pytest.mark.parametrize("path", WITHOUT_INIT, ids=lambda p: p.name)
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


ROOT = PACKAGE.parent.parent
SOURCES = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]


def _references(node, strings=False):
    """(name, kind) for every name node reads: a loaded or deleted Name, an
    attribute, an imported name, and, with strings, a string constant (the
    benchmark tracer names what it wraps as "Class.method" or "function";
    elsewhere a string equal to a name, a JSON key say, is no use of it)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            yield n.id, "name"
        elif isinstance(n, ast.Attribute):
            yield n.attr, "attr"
        elif isinstance(n, ast.alias):
            yield n.name.split(".")[-1], "name"
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value, "string"


def _definitions(tree):
    """(qualified name, node, is a method) for every function and class."""
    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield prefix + child.name, child, in_class
                yield from walk(child, prefix + child.name + ".",
                                isinstance(child, ast.ClassDef))
            else:
                yield from walk(child, prefix, in_class)
    yield from walk(tree, "", False)


def _overrides_foreign_base(module, qualname):
    """Whether qualname names a method that overrides an attribute of a base
    class from outside the package, which that base class may call."""
    owner_name, _, name = qualname.rpartition(".")
    owner = module
    for part in owner_name.split("."):
        owner = getattr(owner, part, None)
    return isinstance(owner, type) and any(
        name in vars(base) for base in owner.__mro__[1:]
        if base.__module__.split(".")[0] != PACKAGE.name)


def _unreferenced(module, tree, everywhere):
    """The qualified names defined in tree that no reference in everywhere
    reaches from outside their own definition."""
    dead = []
    for qualname, node, method in _definitions(tree):
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if method and _overrides_foreign_base(module, qualname):
            continue
        # a method is reached through an attribute or its qualified
        # name; any other definition also through its bare name
        wanted = {(name, "attr"), (qualname, "string")}
        if not method:
            wanted |= {(name, "name"), (name, "string")}
        outside = everywhere - Counter(_references(node))
        if not wanted & outside.keys():
            dead.append(qualname)
    return dead


def _all_references(trees):
    """The references of every tree, strings only from the benchmark's."""
    bench = ROOT / "bench"
    return Counter(ref for path, tree in trees.items()
                   for ref in _references(tree, strings=bench in path.parents))


def test_every_definition_is_referenced():
    trees = {path: _tree(path) for path in SOURCES}
    everywhere = _all_references(trees)
    dead = []
    for path in MODULES:
        module = importlib.import_module(
            PACKAGE.name if path.stem == "__init__" else f"{PACKAGE.name}.{path.stem}")
        dead += [f"{path.name}: {qualname}"
                 for qualname in _unreferenced(module, trees[path], everywhere)]
    assert dead == []


# the uses that count for the stricter rule: the package's modules without
# their re-exports in __init__.py, the benchmark and the acceptance tests
USERS = (WITHOUT_INIT + sorted((ROOT / "bench").rglob("*.py"))
         + [ROOT / "tests" / "test_acceptance.py"])

# what only unit tests and outside callers use, and why it stays
UNIT_TESTED_ONLY = {
    "lattice.py: invariant_factors": "the reference that isolator_index is tested against",
    "malcev.py: commutator": "a length-checked entry point for outside input",
    "malcev.py: inverse": "a length-checked entry point for outside input",
    "malcev.py: multiply": "a length-checked entry point for outside input",
    "serialize.py: hom_to_dict": "the write half of the JSON format",
    "serialize.py: presentation_to_dict": "the write half of the JSON format; CI writes ut4.json",
}


def test_every_definition_has_a_user_beyond_its_unit_tests():
    trees = {path: _tree(path) for path in USERS}
    everywhere = _all_references(trees)
    dead = []
    for path in WITHOUT_INIT:
        module = importlib.import_module(f"{PACKAGE.name}.{path.stem}")
        dead += [f"{path.name}: {qualname}"
                 for qualname in _unreferenced(module, trees[path], everywhere)]
    assert sorted(dead) == sorted(UNIT_TESTED_ONLY)


OVERRIDE_SAMPLE = """
import argparse


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SystemExit(1)

    def unused(self):
        return 1


parse = Parser().parse_args
"""


def test_only_foreign_overrides_are_exempt():
    # argparse calls Parser.error, so it counts as referenced; nothing
    # calls Parser.unused
    module = types.ModuleType("sample")
    exec(compile(OVERRIDE_SAMPLE, "sample", "exec"), module.__dict__)
    tree = ast.parse(OVERRIDE_SAMPLE)
    assert _unreferenced(module, tree, Counter(_references(tree))) == ["Parser.unused"]
