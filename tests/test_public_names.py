"""Every name the package declares public resolves to an object, and every
name the shared float/array rules read from an operations table resolves in
both tables."""

import ast
import importlib
import pathlib
import pkgutil
import re

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


def _names_read(tree):
    """The names a module's code reads: names, attributes, and the words of its string
    constants other than docstrings (setattr, tracing targets and __all__ name functions
    by strings)."""
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and type(node.value) is str and id(node) not in docstrings:
            yield from re.findall(r"\w+", node.value)


def test_every_function_is_referenced():
    # a function or method of the package that no code names is dead; dunder methods are
    # called by Python and @invariant rules through the registry
    root = pathlib.Path(adskg.__file__).parents[2]
    read = set()
    for top in ("src", "tests", "demos", "perfbench"):
        for path in (root / top).rglob("*.py"):
            read.update(_names_read(ast.parse(path.read_text())))
    unread = []
    for path in pathlib.Path(adskg.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            rule = any(
                isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "invariant"
                for dec in node.decorator_list
            )
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if node.name not in read and not (rule or dunder):
                unread.append(f"{path.name}: {node.name}")
    assert unread == []
