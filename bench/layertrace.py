"""Outside-in layer trace of the bayesminimax package.

The tracer replaces public module attributes with timing wrappers
(``setattr`` on ``bayesminimax._quad``, ``specfun`` and the other modules, and
on ``MarginalProfile.triple``) and puts the originals back on exit.  No source
file changes.  This sees nested calls because every cross-module call in the
package, and every call between the wrapped functions of one module, looks
the function up on its module at call time.

Each wrapped call records a span: name, start, end, the span open when it
began (its parent), a point count and, for quadrature calls, the panels it
evaluated.  Spans stay in memory; ``layer_metrics`` reduces them to the
``<module>.<function>.<quantity>`` metrics the benchmark reports.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

import numpy as np

from bayesminimax import _quad, cli, conditions, estimators, marginals, priors, specfun, transforms

# span record fields
_NAME, _START, _END, _PARENT, _POINTS, _PANELS, _INIT = range(7)

# MarginalProfile routes with per-route triple metrics
ROUTES = ("strawderman_closed_form", "mixture_closed_form", "mixture_quadrature",
          "radial_quadrature")
CHECKERS = ("check_monomial_mixture", "check_laplace_mixture_bound",
            "check_sqrt_superharmonic", "check_strawderman_sqrt",
            "check_spherical_minimax_bound", "check_gen_beta_mixture")
_QUAD_CALLS = ("_quad.adaptive_batch", "_quad.adaptive_batch_log")


def _arg(fn, name):
    """Reader for argument ``name`` of ``fn`` (positional or keyword)."""
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index(name)
    default = params[pos].default

    def read(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(name, default)
    return read


def _size(read):
    return lambda args, kwargs: int(np.size(read(args, kwargs)))


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._open_quad = []
        self._undo = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        for mod, attr, kw in self._targets():
            self._patch(mod, attr, self._span(getattr(mod, attr), **kw))
        for attr in ("_make_panel", "_make_panel_log"):
            self._patch(_quad, attr, self._panel_counter(getattr(_quad, attr)))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _targets(self):
        q = _quad
        yield specfun, "kummer_1f1", {"name": "specfun.kummer_1f1",
                                      "points": _size(_arg(specfun.kummer_1f1, "z"))}
        yield specfun, "log_kummer_1f1", {"name": "specfun.log_kummer_1f1",
                                          "points": _size(_arg(specfun.log_kummer_1f1, "z"))}
        yield specfun, "log_bessel_i_scaled", {
            "name": "specfun.log_bessel_i_scaled",
            "points": _size(_arg(specfun.log_bessel_i_scaled, "x"))}
        for attr in ("adaptive_batch", "adaptive_batch_log"):
            yield q, attr, {"name": f"_quad.{attr}", "quad_init": _arg(getattr(q, attr),
                                                                        "initial_panels")}
        for attr in ("adaptive", "integrate_finite", "scan_log_peak"):
            yield q, attr, {"name": f"_quad.{attr}"}
        yield marginals.MarginalProfile, "triple", {
            "name": lambda args: f"marginals.triple.{args[0].route}",
            "points": _size(_arg(marginals.MarginalProfile.triple, "u"))}
        yield estimators, "mc_risk", {"name": "estimators.mc_risk",
                                      "points": _arg(estimators.mc_risk, "n")}
        read_n = _arg(estimators.risk_curve, "n")
        read_norms = _arg(estimators.risk_curve, "theta_norms")
        yield estimators, "risk_curve", {
            "name": "estimators.risk_curve",
            "points": lambda a, k: int(read_n(a, k)) * len(read_norms(a, k))}
        yield priors, "construct_G_mixture", {"name": "priors.construct_G_mixture",
                                              "post": self._wrap_G}
        for attr in ("construct_spherical", "strawderman_radial", "gen_beta_mixing"):
            yield priors, attr, {"name": f"priors.{attr}"}
        # the mixture construction's cached cumulative integral: its self time
        # is the knot search, which would otherwise count as quadrature time
        yield priors._CumulativeIntegral, "__call__", {"name": "priors.cumulative_integral"}
        for attr in CHECKERS:
            fn = getattr(conditions, attr)
            yield conditions, attr, {"name": f"conditions.{attr}",
                                     "points": _size(_arg(fn, "grid"))}
        # i_transform_consistency is not wrapped: the only consistency run in the
        # workloads (Whittaker) stops at its divergent transform table first
        yield transforms, "i_transform", {"name": "transforms.i_transform"}
        yield cli, "main", {"name": "cli.main"}

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, points=None, quad_init=None, post=None):
        spans, open_, open_quad = self.spans, self._open, self._open_quad
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name(args) if callable(name) else name, 0.0, 0.0,
                   open_[-1] if open_ else -1,
                   points(args, kwargs) if points else 0, 0,
                   quad_init(args, kwargs) if quad_init else 0]
            idx = len(spans)
            spans.append(rec)
            open_.append(idx)
            if quad_init:
                open_quad.append(idx)
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                open_.pop()
                if quad_init:
                    open_quad.pop()
            return post(result) if post else result
        return wrapper

    def _panel_counter(self, fn):
        spans, open_quad = self.spans, self._open_quad

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_quad:
                spans[open_quad[-1]][_PANELS] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap_G(self, G):
        """Time the returned transform's eval/deriv1/deriv2 as priors.G.eval."""
        for attr in ("eval", "deriv1", "deriv2"):
            setattr(G, attr, self._span(getattr(G, attr), name="priors.G.eval"))
        return G

    @contextlib.contextmanager
    def phase(self, name):
        """Record a top-level span for one of the benchmark's own phases."""
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, 0, 0, 0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[_START] = time.perf_counter()
        try:
            yield
        finally:
            rec[_END] = time.perf_counter()
            self._open.pop()


def layer_metrics(spans) -> dict:
    """Reduce spans to named per-layer metrics (counts and seconds).

    Metric names start with a letter, so the ``_quad`` module's read ``quad.``.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[_PARENT] >= 0:
            child_time[rec[_PARENT]] += rec[_END] - rec[_START]

    agg = {}
    panels_max = 0
    nested_batch = 0
    per_triple = {}   # (route, callee) -> direct calls
    for i, rec in enumerate(spans):
        name = rec[_NAME]
        dur = rec[_END] - rec[_START]
        a = agg.setdefault(name, {"calls": 0, "points": 0, "s": 0.0, "self_s": 0.0,
                                  "panels": 0})
        a["calls"] += 1
        a["points"] += rec[_POINTS]
        a["s"] += dur
        a["self_s"] += dur - child_time[i]
        a["panels"] += rec[_PANELS]
        parent = spans[rec[_PARENT]][_NAME] if rec[_PARENT] >= 0 else ""
        if name in _QUAD_CALLS:
            # panels evaluated = initial + 2 * splits; partition size = initial + splits
            panels_max = max(panels_max, (rec[_PANELS] + rec[_INIT]) // 2)
            if name == "_quad.adaptive_batch" and parent in _QUAD_CALLS:
                nested_batch += 1
        if parent.startswith("marginals.triple."):
            route = parent[len("marginals.triple."):]
            per_triple[(route, name)] = per_triple.get((route, name), 0) + 1

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def ratio(route, callees):
        triples = get(f"marginals.triple.{route}", "calls")
        direct = sum(per_triple.get((route, c), 0) for c in callees)
        return direct / triples if triples else 0

    m = {}
    for fn in ("kummer_1f1", "log_bessel_i_scaled"):
        for key in ("calls", "points", "self_s"):
            m[f"specfun.{fn}.{key}"] = get(f"specfun.{fn}", key)
    for key in ("calls", "self_s"):
        m[f"specfun.log_kummer_1f1.{key}"] = get("specfun.log_kummer_1f1", key)
    for fn in ("adaptive_batch", "adaptive_batch_log"):
        for key in ("calls", "panels", "self_s"):
            m[f"quad.{fn}.{key}"] = get(f"_quad.{fn}", key)
    m["quad.adaptive_batch.nested_calls"] = nested_batch
    for fn in ("scan_log_peak", "adaptive"):
        for key in ("calls", "self_s"):
            m[f"quad.{fn}.{key}"] = get(f"_quad.{fn}", key)
    m["quad.integrate_finite.calls"] = get("_quad.integrate_finite", "calls")
    m["quad.panels_max"] = panels_max
    for route in ROUTES:
        for key in ("calls", "points", "s", "self_s"):
            m[f"marginals.triple.{route}.{key}"] = get(f"marginals.triple.{route}", key)
    m["marginals.mixture_quadrature.quad_calls_per_triple"] = ratio(
        "mixture_quadrature", _QUAD_CALLS)
    m["marginals.radial_quadrature.quad_calls_per_triple"] = ratio(
        "radial_quadrature", _QUAD_CALLS)
    m["marginals.radial_quadrature.scans_per_triple"] = ratio(
        "radial_quadrature", ("_quad.scan_log_peak",))
    m["marginals.strawderman_closed_form.kummer_calls_per_triple"] = ratio(
        "strawderman_closed_form", ("specfun.kummer_1f1",))
    m["estimators.mc_risk.calls"] = get("estimators.mc_risk", "calls")
    m["estimators.mc_risk.samples"] = get("estimators.mc_risk", "points")
    m["estimators.mc_risk.self_s"] = get("estimators.mc_risk", "self_s")
    curve_s = get("estimators.risk_curve", "s")
    m["estimators.risk_curve.samples_per_s"] = (
        get("estimators.risk_curve", "points") / curve_s if curve_s else 0)
    for fn in ("construct_G_mixture", "construct_spherical", "strawderman_radial",
               "gen_beta_mixing"):
        m[f"priors.{fn}.s"] = get(f"priors.{fn}", "s")
    m["priors.G.eval_s"] = get("priors.G.eval", "s")
    for key in ("calls", "self_s"):
        m[f"priors.cumulative_integral.{key}"] = get("priors.cumulative_integral", key)
    for fn in CHECKERS:
        m[f"conditions.{fn}.s"] = get(f"conditions.{fn}", "s")
        m[f"conditions.{fn}.points"] = get(f"conditions.{fn}", "points")
    m["transforms.i_transform.s"] = get("transforms.i_transform", "s")
    m["cli.main.s"] = get("cli.main", "s")
    m["cli.main.self_s"] = get("cli.main", "self_s")
    return m


def trace_workload(wl, workdir):
    """Set up and run one pass of ``wl`` under the trace; (spans, outputs)."""
    tracer = Tracer()
    with tracer:
        with tracer.phase("bench.setup"):
            wl.prepare(workdir)
        with tracer.phase("bench.pass"):
            wl.run_pass()
    return tracer.spans, wl.collect()


def phase_seconds(spans, name) -> float:
    return sum(r[_END] - r[_START] for r in spans if r[_NAME] == name)
