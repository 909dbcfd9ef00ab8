"""Every name a module exports through ``__all__`` exists in that module and
is used: it appears as a loaded name or attribute in the package, the
benchmark or the acceptance suite."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bayesminimax

MODULES = sorted(m.name for m in pkgutil.iter_modules(bayesminimax.__path__,
                                                      prefix="bayesminimax."))
ROOT = Path(__file__).resolve().parent.parent

# Exported although nothing above uses them:
# normal_radial and mixture_radial are the reference radial densities that the
# route-agreement tests compare the pipeline's routes against;
# bayes_estimate is the paper's Bayes rule evaluated at one point.
UNUSED_ALLOWED = {"normal_radial", "mixture_radial", "bayes_estimate"}


@pytest.fixture(scope="module")
def used_names():
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_used(name, used_names):
    module = importlib.import_module(name)
    unused = [n for n in getattr(module, "__all__", [])
              if n not in used_names and n not in UNUSED_ALLOWED]
    assert not unused, f"{name}.__all__ names used nowhere: {unused}"
