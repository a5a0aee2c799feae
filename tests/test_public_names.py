"""Every name the package declares public resolves to an object, and every
name the shared float/array rules read from an operations table resolves in
both tables."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import adskg
from adskg import specfun

MODULES = [info.name for info in pkgutil.iter_modules(adskg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"adskg.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    # each name adskg/__init__ imports from a submodule is that submodule's object
    tree = ast.parse(pathlib.Path(adskg.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"adskg.{node.module}")
        for alias in node.names:
            assert getattr(adskg, alias.asname or alias.name) is getattr(module, alias.name)


def test_ops_tables_match_their_readers():
    # a rule runs on floats and on arrays alike, so each name it reads as ops.<name> is in
    # both _FLOAT and _ARRAY; and an entry of either table is read somewhere, through ops.
    # or that table's own name, or it is dead
    read = {"ops": set(), "_FLOAT": set(), "_ARRAY": set()}
    for path in pathlib.Path(adskg.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.get(node.value.id, set()).add(node.attr)
    tables = {name: set(vars(getattr(specfun, name))) for name in ("_FLOAT", "_ARRAY")}
    assert read["ops"] and read["ops"] <= tables["_FLOAT"] & tables["_ARRAY"]
    assert {name: entries - read["ops"] - read[name] for name, entries in tables.items()} == {
        "_FLOAT": set(),
        "_ARRAY": set(),
    }
