"""Every public name of an hjbkit module resolves.

``perfbench/tracing.py`` wraps each name in a layer module's ``__all__``,
so a stale entry breaks a traced benchmark run; ``hjbkit/__init__.py``
re-exports names that each module declares public.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import hjbkit

MODULES = [name for _, name, _ in pkgutil.iter_modules(hjbkit.__path__)
           if not name.startswith("_")]


def _reexported():
    """``{module: names}`` of the relative imports in ``hjbkit/__init__.py``."""
    tree = ast.parse(pathlib.Path(hjbkit.__file__).read_text())
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, []).extend(a.name for a in node.names)
    return out


def test_every_reexporting_module_is_found():
    assert set(_reexported()) <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    mod = importlib.import_module(f"hjbkit.{name}")
    public = getattr(mod, "__all__", None)
    assert [n for n in public or () if not hasattr(mod, n)] == []
    for n in _reexported().get(name, ()):
        assert hasattr(hjbkit, n)
        assert n in public if public is not None else not n.startswith("_")
