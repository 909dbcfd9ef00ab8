"""Numerical integral transforms.

The central object is the I-transform with modified-Bessel kernel,

    (I_nu f)(y) = int_0^inf f(x) sqrt(xy) I_nu(xy) dx,

whose integrand grows like e^{xy} and therefore only exists for integrands
with Gaussian-type decay (or compact support).  Evaluation is done in log
space: log f + log(e^{-xy} I_nu(xy)) + xy, with a log-spaced peak scan to
locate the interior maximum before truncating the tails.  If the integrand is
still above the truncation threshold at the scan horizon and increasing, a
:class:`~bayesminimax.errors.TransformDivergenceError` is raised -- the
transform genuinely does not exist there.

Also provided: the Laplace transform of kernels supported on (0, 1), the
K-transform (used purely as a test oracle for transform-pair tables), and a
forward-consistency checker that replaces the contour-integral inversion
formula: instead of inverting numerically, it verifies that a candidate
radial density maps forward onto a stated transform profile up to a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import _quad, specfun
from .errors import DomainError, TransformDivergenceError

__all__ = [
    "QuadSpec", "ScalarFn", "DEFAULT_QUAD", "integrate",
    "i_transform", "laplace_unit", "laplace_fn", "k_transform",
    "transform_weight", "i_transform_consistency",
]


@dataclass(frozen=True)
class QuadSpec:
    """Adaptive quadrature tolerances and truncation policy."""
    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    max_depth: int = 40
    tail_cut: float = 1e-14

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.tail_cut > 0):
            raise DomainError("rel_tol and tail_cut must be positive")
        if self.abs_tol < 0:
            raise DomainError("abs_tol must be nonnegative")
        if self.max_depth < 1:
            raise DomainError("max_depth must be >= 1")


DEFAULT_QUAD = QuadSpec()


@dataclass
class ScalarFn:
    """A real function of one positive real variable.

    ``eval`` must accept numpy arrays (scalars are broadcast).  ``deriv1`` and
    ``deriv2`` are optional analytic derivatives; when present they must agree
    with Richardson-extrapolated central differences of ``eval``.  ``log_eval``
    gives log|f| and enables log-space integration for functions spanning
    hundreds of orders of magnitude; ``nonneg`` declares f >= 0 on its
    support.
    """
    eval: Callable
    deriv1: Optional[Callable] = None
    deriv2: Optional[Callable] = None
    support: Tuple[float, float] = (0.0, math.inf)
    label: str = ""
    log_eval: Optional[Callable] = None
    nonneg: bool = False

    def __call__(self, x):
        return self.eval(x)

    def log_abs(self, x):
        if self.log_eval is not None:
            return self.log_eval(x)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.asarray(self.eval(x), dtype=float)))


def _clip_support(fn, lo, hi):
    if isinstance(fn, ScalarFn):
        lo = max(lo, fn.support[0])
        hi = min(hi, fn.support[1])
    return lo, hi


def integrate(f, lo: float, hi: float, quad: QuadSpec = DEFAULT_QUAD) -> float:
    """Adaptive integral of ``f`` over (lo, hi); hi may be infinite.

    Endpoint singularities that are integrable (declared implicitly by an
    open support) are handled by sqrt substitutions.  Infinite upper limits
    are truncated once the integrand falls below tail_cut relative to its
    scanned peak.
    """
    lo, hi = _clip_support(f, lo, hi)
    fn = f.eval if isinstance(f, ScalarFn) else f
    if math.isinf(hi):
        def log_mag(x):
            with np.errstate(all="ignore"):
                v = np.log(np.abs(np.asarray(fn(x), dtype=float)))
            return np.where(np.isnan(v), -np.inf, v)
        lo_eff, hi_eff, log_peak = _quad.scan_log_peak(log_mag, lo, hi, quad.tail_cut)
        if not math.isfinite(log_peak):
            return 0.0
        hi = hi_eff
    return _quad.integrate_finite(fn, lo, hi, rel_tol=quad.rel_tol,
                                  abs_tol=quad.abs_tol, max_depth=quad.max_depth)


def i_transform(f, nu: float, y: float, quad: QuadSpec = DEFAULT_QUAD) -> float:
    """Forward I-transform of f at y > 0.

    The integrand is assembled in log space as
    log f(x) + 0.5 log(xy) + [log I_nu(xy) - xy] + xy, so neither the Bessel
    growth nor a Gaussian-decaying f can overflow.  Raises
    TransformDivergenceError when the integral does not exist.
    """
    if not y > 0:
        raise DomainError(f"I-transform requires y > 0, got {y}")
    lo, hi = _clip_support(f, 0.0, math.inf)
    is_sfn = isinstance(f, ScalarFn)

    def log_g(x):
        x = np.asarray(x, dtype=float)
        xy = x * y
        with np.errstate(all="ignore"):
            lf = f.log_abs(x) if is_sfn else np.log(np.abs(np.asarray(f(x), dtype=float)))
            out = lf + 0.5 * np.log(xy) + specfun.log_bessel_i_scaled(nu, xy) + xy
        return np.where(np.isnan(out), -np.inf, out)

    lo_eff, hi_eff, log_peak = _quad.scan_log_peak(log_g, lo, hi, quad.tail_cut)
    if not math.isfinite(log_peak):
        return 0.0

    if is_sfn and f.nonneg:
        def integrand(x):
            return np.exp(log_g(x) - log_peak)
    else:
        def integrand(x):
            x = np.asarray(x, dtype=float)
            xy = x * y
            fv = np.asarray(f.eval(x) if is_sfn else f(x), dtype=float)
            with np.errstate(all="ignore"):
                kern = np.exp(0.5 * np.log(xy) + specfun.log_bessel_i_scaled(nu, xy) + xy - log_peak)
            return fv * np.where(np.isfinite(kern), kern, 0.0)

    val = _quad.integrate_finite(integrand, lo_eff, hi_eff, rel_tol=quad.rel_tol,
                                 abs_tol=quad.abs_tol, max_depth=quad.max_depth)
    return math.exp(log_peak) * val


def laplace_unit(f, s: float, quad: QuadSpec = DEFAULT_QUAD) -> float:
    """int_0^1 f(t) e^{-st} dt for a kernel supported on (0, 1)."""
    if s < 0:
        raise DomainError(f"laplace_unit requires s >= 0, got {s}")
    lo, hi = _clip_support(f, 0.0, 1.0)
    fn = f.eval if isinstance(f, ScalarFn) else f

    def integrand(t):
        return np.asarray(fn(t), dtype=float) * np.exp(-s * np.asarray(t, dtype=float))

    return _quad.integrate_finite(integrand, lo, hi, rel_tol=quad.rel_tol,
                                  abs_tol=quad.abs_tol, max_depth=quad.max_depth)


def laplace_fn(f_unit, quad: QuadSpec = DEFAULT_QUAD) -> ScalarFn:
    """The Laplace transform G of a (0,1)-supported kernel, as a ScalarFn.

    G' and G'' are computed by differentiating under the integral sign,
    G^(j)(s) = int (-t)^j f(t) e^{-st} dt, never by finite differences: the
    downstream minimaxity condition takes a G''/G' ratio that is hypersensitive
    to derivative noise.
    """
    lo, hi = _clip_support(f_unit, 0.0, 1.0)
    fn = f_unit.eval if isinstance(f_unit, ScalarFn) else f_unit

    def moment(j, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))

        def fmat(t):
            t = np.asarray(t, dtype=float)
            base = np.asarray(fn(t), dtype=float) * (-t) ** j
            return base[None, :] * np.exp(-s_arr[:, None] * t[None, :])

        total = _quad.integrate_rows(fmat, lo, hi, quad.rel_tol, quad.abs_tol,
                                     quad.max_depth)
        return total if np.asarray(s).ndim else float(total[0])

    return ScalarFn(
        eval=lambda s: moment(0, s),
        deriv1=lambda s: moment(1, s),
        deriv2=lambda s: moment(2, s),
        support=(0.0, math.inf),
        label="laplace_transform",
        nonneg=True,
    )


def k_transform(g, nu: float, y: float, quad: QuadSpec = DEFAULT_QUAD) -> float:
    """K-transform int_0^inf g(x) sqrt(xy) K_nu(xy) dx (test oracle)."""
    if not y > 0:
        raise DomainError(f"K-transform requires y > 0, got {y}")
    lo, hi = _clip_support(g, 0.0, math.inf)
    fn = g.eval if isinstance(g, ScalarFn) else g
    # K_nu(xy) ~ e^{-xy}: truncate 50 e-folds out (plus room for poly growth)
    hi = min(hi, (60.0 + 5.0 * abs(nu)) / y)
    policy = specfun.EvalPolicy(rel_tol=min(quad.rel_tol, 1e-10), scaled=False)

    def integrand(x):
        x = np.asarray(x, dtype=float)
        kv = np.array([specfun.bessel_k(nu, xi * y, policy) if xi * y > 0 else math.inf
                       for xi in np.atleast_1d(x)])
        return np.asarray(fn(x), dtype=float) * np.sqrt(x * y) * kv

    return _quad.integrate_finite(integrand, lo, hi, rel_tol=quad.rel_tol,
                                  abs_tol=quad.abs_tol, max_depth=quad.max_depth)


def transform_weight(lam: ScalarFn, k: float) -> ScalarFn:
    """The I-transform weight f(r) = r^{(1-k)/2} e^{-r^2/2} lambda(r).

    Built in log space from ``lam.log_abs``; when ``lam`` is not declared
    nonnegative its sign is carried through, so f is the signed weight and
    not its modulus.
    """
    def f_log(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(all="ignore"):
            out = (0.5 * (1.0 - k)) * np.log(r) - 0.5 * r * r + lam.log_abs(r)
        return np.where(np.isnan(out), -np.inf, out)

    if lam.nonneg:
        def f_eval(r):
            return np.exp(f_log(r))
    else:
        def f_eval(r):
            return np.sign(np.asarray(lam.eval(r), dtype=float)) * np.exp(f_log(r))

    return ScalarFn(eval=f_eval, support=lam.support,
                    label="radial_to_transform_weight", log_eval=f_log,
                    nonneg=lam.nonneg)


def i_transform_consistency(lambda_candidate: ScalarFn, F_target: ScalarFn,
                            nu: float, grid: Sequence[float],
                            quad: QuadSpec = DEFAULT_QUAD,
                            prop_tol: float = 1e-4):
    """Check that a radial density maps forward onto a target profile.

    Builds f(r) = r^{(1-k)/2} e^{-r^2/2} lambda(r) with k = 2 nu + 2,
    evaluates the forward I-transform on the grid and reports whether
    (I_nu f)(u) / F_target(u) is constant.  Margins are
    |ratio/mean - 1| - prop_tol, so HOLDS means proportional within prop_tol.
    Divergence or a vanishing target is reported as a diagnostic instead of a
    crash.
    """
    from .conditions import assemble_report  # deferred: avoids import cycle

    grid = [float(u) for u in grid]
    if not grid:
        raise DomainError("consistency check requires a nonempty grid")
    f = transform_weight(lambda_candidate, 2.0 * nu + 2.0)

    values = []
    diagnostics = {}
    for u in grid:
        try:
            values.append(i_transform(f, nu, u, quad))
        except TransformDivergenceError as exc:
            diagnostics["divergence"] = f"forward transform diverges at u={u}: {exc}"
            values.append(math.nan)
            break
    targets = np.asarray(F_target.eval(np.asarray(grid[:len(values)])), dtype=float)

    if "divergence" in diagnostics or np.any(~np.isfinite(np.asarray(values))):
        margins = [math.nan] * len(grid)
        return assemble_report("i_transform_consistency", grid, margins,
                               band=0.0, extra=diagnostics)
    if np.any(targets == 0.0):
        vals = np.asarray(values)
        if np.allclose(vals, 0.0, atol=quad.abs_tol):
            diagnostics["degenerate"] = "transform and target both vanish on the grid"
            return assemble_report("i_transform_consistency", grid,
                                   [math.nan] * len(grid), band=0.0, extra=diagnostics)
        diagnostics["zero_target"] = "target vanishes where the transform does not"
        return assemble_report("i_transform_consistency", grid,
                               [math.inf] * len(grid), band=0.0, extra=diagnostics)

    ratios = np.asarray(values) / targets
    mean_ratio = float(np.mean(ratios))
    if mean_ratio == 0.0:
        diagnostics["degenerate"] = "transform vanishes on the grid"
        return assemble_report("i_transform_consistency", grid,
                               [math.nan] * len(grid), band=0.0, extra=diagnostics)
    deviations = np.abs(ratios / mean_ratio - 1.0)
    margins = (deviations - prop_tol).tolist()
    diagnostics["ratio"] = mean_ratio
    diagnostics["max_relative_deviation"] = float(np.max(deviations))
    return assemble_report("i_transform_consistency", grid, margins,
                           band=1e-12, extra=diagnostics)
