"""Design guards:

1. the adaptive quadrature engine is reached through its batched entry
   points only;
2. the marginal routes integrate in log space;
3. the marginal routes share one series evaluator;
4. Monte Carlo batches run on one worker pool;
5. they read the marginal through one SURE formula, on two draws of m
   values per batch;
6. no construction steps an ODE;
7. the constructions halve their panels through the engine's bisection;
8. one round cap bounds every refinement;
9. ``cli.py`` names no family and no construction type: ``families`` makes
   every decision that depends on either;
10. below the marginal a ScalarFn hands over ratios (log f, f'/f, f''/f),
    and neither the checkers nor the marginals call a linear ``triple``;
11. the series evaluator groups u once, by piece, without sorting: in
    ``marginals.py`` only ``_moment_sums`` calls ``np.bincount``, and nothing
    calls ``np.unique``.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from bayesminimax.families import FAMILIES
from bayesminimax.transforms import QuadSpec, ScalarFn

SRC = Path(__file__).resolve().parent.parent / "src" / "bayesminimax"

# Internal to _quad: the scalar and log-space refinement front-ends, the
# panel evaluators and the signed sqrt endpoint map.  Other modules integrate
# through integrate_rows, integrate_rows_log, integrate_finite or
# adaptive_batch.
QUAD_INTERNAL = {"adaptive", "adaptive_batch_log", "_make_panel", "_make_panel_log",
                 "_sqrt_map"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "_quad.py"),
                         ids=lambda p: p.name)
def test_quad_internals_stay_in_quad(path):
    named = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    assert not named & QUAD_INTERNAL, f"{path.name} names {sorted(named & QUAD_INTERNAL)}"


# The linear-space engine and its front-ends.  A marginal route takes l(u)
# from positive rows in log space, where l itself may be below the double
# range (k = 1500) and a linear row's absolute floor would end its
# refinement early.
LINEAR_QUAD = {"integrate_rows", "integrate_finite", "adaptive_batch", "adaptive"}


def test_marginal_routes_integrate_in_log_space():
    path = SRC / "marginals.py"
    named = {node.attr for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute)}
    assert not named & LINEAR_QUAD, f"marginals.py names {sorted(named & LINEAR_QUAD)}"


def test_one_moment_series_evaluator():
    """Both series routes only build tables for ``_series_profile``, so
    ``_moment_sums`` has one caller and a new series route reuses it rather
    than growing its own evaluator."""
    path = SRC / "marginals.py"
    callers = {getattr(top, "name", "<module>")
               for top in ast.parse(path.read_text(), str(path)).body
               for node in ast.walk(top)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_moment_sums"}
    assert callers == {"_series_profile"}


def test_one_monte_carlo_pool():
    """``estimators.py`` builds one ``ThreadPoolExecutor`` and names
    ``_mc_batch`` in one function only, the one that submits every batch of
    a curve, so no second per-point pool or serial batch loop grows beside
    it."""
    path = SRC / "estimators.py"
    tree = ast.parse(path.read_text(), str(path))
    pools = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "ThreadPoolExecutor"]
    assert len(pools) == 1
    submitters = {top.name for top in tree.body if isinstance(top, ast.FunctionDef)
                  for node in ast.walk(top)
                  if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "submit"
                  and any(getattr(arg, "id", None) == "_mc_batch" for arg in node.args)}
    namers = {top.name for top in tree.body if isinstance(top, ast.FunctionDef)
              for node in ast.walk(top)
              if isinstance(node, ast.Name) and node.id == "_mc_batch"}
    assert submitters == namers == {"_run_points"}


def test_one_sure_formula_and_one_pass_over_the_draw():
    """In ``estimators.py`` only ``_shrink_terms`` calls ``.ratios``, so rho,
    SURE and the Bayes rule share one formula.  ``_mc_batch`` draws each
    sample as its two sufficient statistics: one ``standard_normal`` and one
    ``standard_gamma`` call, each of m values, and nothing else draws.  It
    names no ``norm``: the radius comes from |Z|^2, Z.theta and |theta|^2,
    and no (m, k) draw exists to take a second pass over."""
    path = SRC / "estimators.py"
    tree = ast.parse(path.read_text(), str(path))
    callers = {getattr(top, "name", "<module>") for top in tree.body
               for node in ast.walk(top)
               if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "ratios"}
    assert callers == {"_shrink_terms"}
    draws = [(top.name, node.func.attr, getattr(node.args[-1], "id", None))
             for top in tree.body for node in ast.walk(top)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", "").startswith("standard_")]
    assert sorted(draws) == [("_mc_batch", "standard_gamma", "m"),
                             ("_mc_batch", "standard_normal", "m")]
    batch, = [top for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == "_mc_batch"]
    assert "norm" not in {getattr(node, "attr", getattr(node, "id", None))
                          for node in ast.walk(batch)}


def test_no_ode_stepping():
    """No module imports ``scipy.integrate`` or names one of its ODE
    steppers: both constructions integrate on Chebyshev panels
    (``priors._CumulativeIntegral`` and ``priors._frobenius_pair``), so no
    scalar ODE path grows back beside them."""
    steppers = {"solve_ivp", "odeint", "ode", "RK45", "DOP853", "LSODA"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "scipy.integrate" not in modules, path.name
        assert not named & steppers, f"{path.name} names {sorted(named & steppers)}"


def test_constructions_bisect_through_quad():
    """``priors.py`` defines no bisection or panel budget of its own and inserts
    no edges: both constructions halve their panels with ``_quad.bisect``."""
    path = SRC / "priors.py"
    tree = ast.parse(path.read_text(), str(path))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    inserts = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "insert"]
    assert not {name for name in defined if "bisect" in name}
    assert "_MAX_PANELS" not in named and not inserts
    assert sum(isinstance(node, ast.Attribute) and node.attr == "bisect"
               for node in ast.walk(tree)) == 2


def test_one_round_cap_bounds_every_refinement():
    """Beside the panel budget and the few-ulps stop, one module constant,
    ``_quad._MAX_ROUNDS``, bounds a refinement: no function in ``src/``
    takes a ``max_depth``, ``QuadSpec`` holds the tolerances and the tail
    cut only, and ``_refine`` keeps no per-panel depth."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                assert "max_depth" not in {a.arg for a in args}, path.name
    assert [f.name for f in dataclasses.fields(QuadSpec)] == ["rel_tol", "abs_tol", "tail_cut"]
    refine, = [node for node in ast.parse((SRC / "_quad.py").read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name == "_refine"]
    named = {node.id for node in ast.walk(refine) if isinstance(node, ast.Name)}
    assert "_MAX_ROUNDS" in named and not {name for name in named if "depth" in name}


def test_cli_names_no_family():
    """No string in ``cli.py`` is a family name or one of the transform
    command's non-prior inputs, and ``cli.py`` neither imports ``priors`` or
    ``marginals`` nor names ``ConstructionSolution``: a new family or
    construction route edits ``families`` alone."""
    path = SRC / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not strings & (set(FAMILIES) | {"gaussian_bessel", "zero"})
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "ConstructionSolution" not in named
    imported = {alias.name.split(".")[-1] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    imported |= {node.module.split(".")[-1] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert not imported & {"priors", "marginals"}


@pytest.mark.parametrize("name", ["conditions.py", "marginals.py"])
def test_consumers_read_ratios(name):
    """``ScalarFn`` carries ``ratios`` and no ``triple`` field, and the
    checkers and marginals never call ``.triple``: they read the ratios
    directly, so no consumer divides a linear triple back by f.  Only the
    table writers in ``families`` derive the linear view."""
    fields = {f.name for f in dataclasses.fields(ScalarFn)}
    assert "ratios" in fields and "triple" not in fields
    path = SRC / name
    calls = [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "triple"]
    assert not calls, f"{name} calls .triple on lines {calls}"


def test_u_is_grouped_once():
    """In ``marginals.py`` only ``_moment_sums`` calls ``np.bincount``, and
    nothing calls ``np.unique``: the one flat piece table finds each u's piece
    and its level's c by one lookup, one count lists the pieces in use
    without sorting u, so ``triple`` computes no per-u ladder level and
    groups nothing by level."""
    path = SRC / "marginals.py"
    callers = {}
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                callers.setdefault(node.func.attr, set()).add(getattr(top, "name", "<module>"))
    assert callers.get("bincount") == {"_moment_sums"}
    assert "unique" not in callers
