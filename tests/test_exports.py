"""Every name a module exports through ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import bayesminimax

MODULES = sorted(m.name for m in pkgutil.iter_modules(bayesminimax.__path__,
                                                      prefix="bayesminimax."))


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
