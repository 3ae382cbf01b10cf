"""The public surface resolves: every ``__all__`` entry of every module, every
name the package re-exports and every name it loads lazily from
``dynamap.lindblad``. A name left behind when its definition goes fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dynamap

MODULES = sorted(m.name for m in pkgutil.iter_modules(dynamap.__path__) if m.name != "__main__")


def reexports():
    """(module, name) for every ``from .module import name`` of the package."""
    tree = ast.parse(Path(dynamap.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"dynamap.{name}")
    assert [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)] == []


def test_package_reexports_resolve():
    assert reexports()
    for module_name, name in reexports():
        module = importlib.import_module(f"dynamap.{module_name}")
        assert getattr(dynamap, name) is getattr(module, name)
        # a re-exported name is public where it is defined
        assert name in getattr(module, "__all__", [name])


def test_lazy_lindblad_names_resolve():
    from dynamap import lindblad

    for name in dynamap._LINDBLAD_NAMES:
        assert name in lindblad.__all__
        assert getattr(dynamap, name) is getattr(lindblad, name)
