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

Also provided: the K-transform (used purely as a test oracle for
transform-pair tables) and a forward-consistency checker that replaces the
contour-integral inversion formula: instead of inverting numerically, it
verifies that a candidate radial density maps forward onto a stated
transform profile up to a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.special import kv

from . import _quad, specfun
from .errors import DomainError, TransformDivergenceError

__all__ = [
    "QuadSpec", "ScalarFn", "DEFAULT_QUAD", "i_transform", "k_transform",
    "transform_weight", "i_transform_consistency", "proportionality_report",
]


@dataclass(frozen=True)
class QuadSpec:
    """Adaptive quadrature tolerances and truncation policy."""
    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    tail_cut: float = 1e-14

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be positive")
        if not 0 < self.tail_cut < 1:
            raise DomainError(f"tail_cut must lie in (0, 1), got {self.tail_cut}")
        if not self.abs_tol >= 0:
            raise DomainError("abs_tol must be nonnegative")


DEFAULT_QUAD = QuadSpec()


@dataclass
class ScalarFn:
    """A real function of one positive real variable.

    ``eval`` must accept numpy arrays (scalars are broadcast).  ``triple``
    optionally maps x to (f, f', f'') computed together: its first component
    equals ``eval`` bit for bit, and its derivatives must agree with
    Richardson-extrapolated central differences of ``eval``.  ``log_eval``
    gives log|f| and enables log-space integration for functions spanning
    hundreds of orders of magnitude; ``nonneg`` declares f >= 0 on its
    support.  ``sign`` optionally gives the sign of f where ``eval``
    underflows to 0 or overflows, so that a signed f keeps its sign wherever
    ``log_eval`` is finite.
    """
    eval: Callable
    triple: Optional[Callable] = None
    support: Tuple[float, float] = (0.0, math.inf)
    label: str = ""
    log_eval: Optional[Callable] = None
    nonneg: bool = False
    sign: Optional[Callable] = None

    def __call__(self, x):
        return self.eval(x)

    def deriv1(self, x):
        """f'(x), read from ``triple``."""
        return self.triple(x)[1]

    def deriv2(self, x):
        """f''(x), read from ``triple``."""
        return self.triple(x)[2]

    def sign_of(self, x):
        """Sign of f(x): from ``sign`` where given, else from ``eval``."""
        if self.sign is not None:
            return self.sign(x)
        return np.sign(np.asarray(self.eval(x), dtype=float))

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


def i_transform(f, nu: float, y, quad: QuadSpec = DEFAULT_QUAD):
    """Forward I-transform of f at y > 0, or at each y of an array.

    The integrand is assembled in log space as
    log|f(x)| + 0.5 log(xy) + [log I_nu(xy) - xy] + xy, so neither the Bessel
    growth nor a Gaussian-decaying f can overflow.  Each y gets its own peak
    scan, in the order given; the first y whose integral does not exist
    raises TransformDivergenceError, with that y as ``diagnostics["y"]``.
    The rows sign(f) exp(log-integrand - peak_y), one per y, are then
    integrated together over one window spanning every row's; a row whose
    signed integral cancels far below its integral of |g| stops at its
    roundoff floor.  A scalar y returns a float.
    """
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    for yi in ys:
        if not yi > 0:
            raise DomainError(f"I-transform requires y > 0, got {yi}")
    if not isinstance(f, ScalarFn):
        f = ScalarFn(eval=f)
    lo, hi = _clip_support(f, 0.0, math.inf)

    def log_g(x, yv):
        # node-major: nodes x (m,) down, one column per y of yv (P,)
        xy = np.multiply.outer(x, yv)
        with np.errstate(all="ignore"):
            out = (f.log_abs(x)[:, None] + 0.5 * np.log(xy)
                   + specfun.log_bessel_i_scaled(nu, xy) + xy)
        return np.where(np.isnan(out), -np.inf, out)

    scans = np.empty((ys.size, 3))
    for i, yi in enumerate(ys):
        try:
            scans[i] = _quad.scan_log_peak(lambda x: log_g(x, ys[i:i + 1])[:, 0], lo, hi,
                                           quad.tail_cut)
        except TransformDivergenceError as exc:
            exc.diagnostics["y"] = float(yi)
            raise
    lo_eff, hi_eff, peaks = scans.T
    live = np.isfinite(peaks)  # a row whose peak is -inf is identically zero
    out = np.zeros_like(ys)
    if live.any():
        y_live, peak_live = ys[live], peaks[live]

        def rows(x):
            g = np.exp(log_g(x, y_live) - peak_live)
            return g if f.nonneg else g * f.sign_of(x)[:, None]

        integral = _quad.integrate_rows(rows, lo_eff[live].min(), hi_eff[live].max(),
                                        quad.rel_tol, quad.abs_tol)
        with np.errstate(over="ignore"):
            out[live] = np.exp(peaks[live]) * integral
    return out if np.ndim(y) else float(out[0])


def k_transform(g, nu: float, y, quad: QuadSpec = DEFAULT_QUAD):
    """K-transform int_0^inf g(x) sqrt(xy) K_nu(xy) dx at y > 0, or at each
    y of an array (test oracle).  A scalar y returns a float."""
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    for yi in ys:
        if not yi > 0:
            raise DomainError(f"K-transform requires y > 0, got {yi}")
    lo, hi = _clip_support(g, 0.0, math.inf)
    fn = g.eval if isinstance(g, ScalarFn) else g

    def at(yi):
        def integrand(x):
            x = np.asarray(x, dtype=float)
            # kv is inf at xy = 0, like K_nu itself
            return np.asarray(fn(x), dtype=float) * np.sqrt(x * yi) * kv(nu, x * yi)

        # K_nu(xy) ~ e^{-xy}: truncate 50 e-folds out (plus room for poly growth)
        return _quad.integrate_finite(integrand, lo, min(hi, (60.0 + 5.0 * abs(nu)) / yi),
                                      rel_tol=quad.rel_tol, abs_tol=quad.abs_tol)

    out = np.array([at(yi) for yi in ys])
    return out if np.ndim(y) else float(out[0])


def transform_weight(lam: ScalarFn, k: float) -> ScalarFn:
    """The I-transform weight f(r) = r^{(1-k)/2} e^{-r^2/2} lambda(r).

    Built in log space from ``lam.log_abs``; when ``lam`` is not declared
    nonnegative its sign (``lam.sign`` where given) is carried through as
    ``sign``, so f is the signed weight and not its modulus.
    """
    def f_log(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(all="ignore"):
            out = (0.5 * (1.0 - k)) * np.log(r) - 0.5 * r * r + lam.log_abs(r)
        return np.where(np.isnan(out), -np.inf, out)

    sign = None if lam.nonneg else lam.sign_of

    def f_eval(r):
        return np.exp(f_log(r)) if sign is None else sign(r) * np.exp(f_log(r))

    return ScalarFn(eval=f_eval, support=lam.support,
                    label="radial_to_transform_weight", log_eval=f_log,
                    nonneg=lam.nonneg, sign=sign)


def i_transform_consistency(lambda_candidate: ScalarFn, F_target: ScalarFn,
                            nu: float, grid: Sequence[float],
                            quad: QuadSpec = DEFAULT_QUAD,
                            prop_tol: float = 1e-4):
    """Check that a radial density maps forward onto a target profile.

    Builds f(r) = r^{(1-k)/2} e^{-r^2/2} lambda(r) with k = 2 nu + 2,
    evaluates the forward I-transform on the grid and judges it with
    :func:`proportionality_report`.  Divergence is reported as a diagnostic
    instead of a crash.
    """
    from .conditions import assemble_report  # deferred: avoids import cycle

    grid = np.asarray(grid, dtype=float)
    if not grid.size:
        raise DomainError("consistency check requires a nonempty grid")
    f = transform_weight(lambda_candidate, 2.0 * nu + 2.0)
    try:
        values = i_transform(f, nu, grid, quad)
    except TransformDivergenceError as exc:
        diagnostics = {"divergence": "forward transform diverges at "
                                     f"u={exc.diagnostics['y']}: {exc}"}
        return assemble_report("i_transform_consistency", grid, [math.nan] * grid.size,
                               band=0.0, extra=diagnostics)
    return proportionality_report(grid, values, F_target.eval(grid), prop_tol,
                                  quad.abs_tol)


def proportionality_report(grid, values, targets, prop_tol: float = 1e-4,
                           abs_tol: float = DEFAULT_QUAD.abs_tol):
    """Report whether transform values are proportional to target values.

    Margins are |ratio/mean - 1| - prop_tol, so HOLDS means that
    values/targets is constant within prop_tol.  A non-finite value or
    target, a vanishing target or a vanishing transform give NaN or inf
    margins and a diagnostic instead of a verdict on the ratio; the
    diagnostic ``non_finite`` is the first grid point whose value or target
    overflowed or is NaN.
    """
    from .conditions import assemble_report  # deferred: avoids import cycle

    def uniform(margin, **extra):
        return assemble_report("i_transform_consistency", grid, [margin] * len(grid),
                               band=0.0, extra=extra)

    values = np.asarray(values, dtype=float)
    targets = np.asarray(targets, dtype=float)
    bad = ~(np.isfinite(values) & np.isfinite(targets))
    if np.any(bad):
        return uniform(math.nan, non_finite=float(np.asarray(grid, dtype=float)[bad][0]))
    if np.any(targets == 0.0):
        if np.allclose(values, 0.0, atol=abs_tol):
            return uniform(math.nan, degenerate="transform and target both vanish on the grid")
        return uniform(math.inf, zero_target="target vanishes where the transform does not")
    ratios = values / targets
    mean_ratio = float(np.mean(ratios))
    if mean_ratio == 0.0:
        return uniform(math.nan, degenerate="transform vanishes on the grid")
    deviations = np.abs(ratios / mean_ratio - 1.0)
    return assemble_report("i_transform_consistency", grid, (deviations - prop_tol).tolist(),
                           band=1e-12, extra={"ratio": mean_ratio,
                                              "max_relative_deviation": float(np.max(deviations))})
