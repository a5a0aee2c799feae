"""Every name the package declares public resolves to an object."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import adskg

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
