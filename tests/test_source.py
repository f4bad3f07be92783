"""Checks on the package's source text."""

import ast
from pathlib import Path

import endok

from mutants import MUTANTS, ROOT

MODULES = sorted(p for p in Path(endok.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def imported_names(tree):
    """The names bound by the module-level imports of a parsed module."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def test_every_module_level_import_is_read():
    # in the package and in its tests
    assert MODULES and TESTS
    dead = []
    for path in MODULES + TESTS:
        tree = ast.parse(path.read_text())
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        dead += [f"{path.name}: {name}" for name in imported_names(tree) if name not in read]
    assert not dead


# Exports that nothing in the package reads, each kept for a reader outside it.
DOCUMENTED_API = {
    "compare_splittings": "the README's n = 1 consistency check",
    "principal_maximal_key": "the README's key of (q) for an irreducible q of the caller's",
    "quotient_is_field": "the README's field test on a caller's ideal; class_from_json "
    "calls its body, _is_field, with the regular tuple it has built",
    "random_commuting_tuple": "perfbench/gen.py imports it from endok",
}


def test_every_export_has_a_caller():
    init = ast.parse((Path(endok.__file__).parent / "__init__.py").read_text())
    exported = imported_names(init)
    assert set(DOCUMENTED_API) <= set(exported)
    read = set()
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            # a definition reading its own name (recursion, classmethods) is no caller
            own = getattr(node, "name", None)
            read |= {
                sub.id
                for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id != own
            }
    unread = [name for name in exported if name not in read and name not in DOCUMENTED_API]
    assert not unread


def test_every_private_function_has_a_caller():
    # the twin of the export check for the package's module-level helpers:
    # each _function is read, by name or as a module attribute, somewhere
    # in the package outside its own definition
    defined, read = [], set()
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            if isinstance(node, ast.FunctionDef) and own.startswith("_"):
                defined.append(own)
            names = {
                sub.id if isinstance(sub, ast.Name) else sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                or isinstance(sub, ast.Attribute)
            }
            read |= names - {own}
    assert len(defined) > 50
    assert [name for name in defined if name not in read] == []


def test_every_mutant_patch_applies():
    # each patch of the catalogue finds its old text exactly once, and
    # names tests in files that exist
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name
        assert all((ROOT / test.partition("::")[0]).is_file() for test in m.tests), m.name
