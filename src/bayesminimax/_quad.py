"""Low-level adaptive Gauss-Kronrod quadrature engine.

Implements the (G7, K15) pair with QUADPACK-style per-panel error estimates
(Piessens et al. 1983) and one globally adaptive refinement loop that shares
a partition across a whole family of integrands (used to vectorize marginal
evaluation over many query points).  Every integrand callback is node-major:
it maps the m nodes of a panel, shape (m,), to values of shape (m, P), nodes
down and one column per row.  Each node's values for all P rows are then
contiguous, so the per-panel work (the weight contractions over axis 0, the
mean subtraction along the row axis, the sqrt-map Jacobian) runs along rows
of length P rather than along a 15-long inner axis.  A callback returning any
other shape is refused with ValueError.  The loop runs in linear space
(:func:`adaptive_batch`) or in log space (:func:`adaptive_batch_log`, for
positive integrands whose magnitude spans hundreds of orders).  A row is
done when its error meets its tolerance, or when its roundoff floor
50*eps*int|g| already exceeds that tolerance and its error has come down to
within a factor _FLOOR_SLACK of the floor, so a signed row that cancels far
below the integral of its modulus stops at roundoff.

Endpoint behaviour: a finite (a, b) is one refinement loop over one signed
sqrt map (:func:`_sqrt_map`), which removes integrable algebraic endpoint
singularities such as t**(-1/2) without any special casing.
"""

from __future__ import annotations

import math
import traceback

import numpy as np

from .errors import QuadratureError, TransformDivergenceError

# 15-point Kronrod nodes on [-1, 1] and the embedded 7-point Gauss weights.
# Values are the standard QUADPACK abscissae.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])
_WKG = np.stack([_WK, _WG])   # K15 and G7 sums of a panel in one product

_EPS = np.finfo(float).eps
_MAX_PANELS = 4096        # subdivision budget of every adaptive call
_SCAN_PROBES = 200        # first probe grid of scan_log_peak
_SCAN_HORIZON = 1e8       # where scan_log_peak stops extending an infinite range
_FLOOR_SLACK = 2.0        # a row at its roundoff floor stops within this factor of it


def panel_nodes(a: float, b: float) -> np.ndarray:
    """Kronrod nodes mapped onto the interval (a, b); all interior."""
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * _XK


def _panel_estimates(vals: np.ndarray, half: float, log: bool = False):
    """K15 integral, error estimate and roundoff floor from node values.

    ``vals`` is node-major, shape (15, P); returns (integral, error, floor),
    each (P,), with the node axis 0 contracted by the K15 and G7 weights in
    one product, so every other pass runs along the contiguous row axis.
    Error follows the QUADPACK rescaling of |K15-G7| and never drops below
    the floor 50*eps*int|g| over the panel.

    Buffer rule: the node-sized work of |g| and |g - mean| goes through one
    scratch array.  In linear mode ``vals`` may belong to the caller's
    integrand, so it is only read and the scratch is one fresh array.  In
    log mode (``log=True``) ``vals`` is the panel's own exponentiated buffer,
    nonnegative, so int|g| is the K15 sum itself and ``vals`` is the scratch;
    it holds |g - mean| on return.
    """
    resk, resg = _WKG @ vals
    if log:
        scratch, resabs = vals, resk
    else:
        scratch = np.abs(vals)
        resabs = _WK @ scratch
    mean = resk * 0.5
    np.subtract(vals, mean, out=scratch)
    np.abs(scratch, out=scratch)
    resasc = _WK @ scratch
    err = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where(resasc > 0.0, scaled, err)
    floor = 50.0 * _EPS * resabs
    err = np.maximum(err, floor)
    return resk * half, err * half, floor * half


def _refine(make, a, b, initial_panels, max_depth, target, log):
    """The refinement loop shared by :func:`adaptive_batch` and
    :func:`adaptive_batch_log`.

    ``make(lo, hi, depth)`` evaluates one panel as [lo, hi, depth, I, err,
    floor], the last three per row; ``target(total)`` gives each row's error
    target.  In log mode all of these are logarithms, summed over panels
    with logsumexp.  A row is done once its error meets its target, or once
    its summed roundoff floor exceeds that target and its error is within
    _FLOOR_SLACK of the floor: a signed row far smaller than its integral
    of |g| stops at roundoff.  Each step halves the panel with the largest
    error against its row's target.
    """
    if not b > a:
        raise ValueError(f"empty integration interval ({a}, {b})")
    edges = np.linspace(a, b, initial_panels + 1)
    panels = [make(lo, hi, 0) for lo, hi in zip(edges[:-1], edges[1:])]
    mode = " (log mode)" if log else ""
    # products and quotients of logs are sums and differences
    if log:
        add, mul, div, slack = _logsumexp_rows, np.add, np.subtract, np.log(_FLOOR_SLACK)
    else:
        add, mul, div, slack = (lambda arrs: np.sum(arrs, axis=0)), np.multiply, np.divide, _FLOOR_SLACK
    while True:
        total, err, floor = (add([p[i] for p in panels]) for i in (3, 4, 5))
        tol = target(total)
        tol = np.where(floor > tol, mul(floor, slack), tol)
        if not np.any(err > tol):
            return total
        idx = int(np.argmax([np.max(div(p[4], tol)) for p in panels]))
        lo, hi, depth = panels[idx][:3]
        if depth >= max_depth:
            raise QuadratureError(
                f"max_depth={max_depth} exceeded on [{lo:.6g}, {hi:.6g}]{mode}",
                worst_interval=(lo, hi), total=total, error=err)
        if len(panels) >= _MAX_PANELS:
            raise QuadratureError(
                f"panel budget {_MAX_PANELS} exhausted{mode}",
                worst_interval=(lo, hi), total=total, error=err)
        mid = 0.5 * (lo + hi)
        panels[idx] = make(lo, mid, depth + 1)
        panels.append(make(mid, hi, depth + 1))


def adaptive(f, a: float, b: float, rel_tol: float = 1e-10,
             abs_tol: float = 1e-14, max_depth: int = 40) -> float:
    """Globally adaptive G7/K15 quadrature of a vectorized scalar integrand.

    ``f`` must map a node array (m,) to values (m,).  Raises
    :class:`QuadratureError` when the subdivision budget is exhausted.
    """
    res = adaptive_batch(lambda x: np.asarray(f(x), dtype=float)[:, None], a, b,
                         rel_tol=rel_tol, abs_tol=abs_tol, max_depth=max_depth)
    return float(res[0])


def adaptive_batch(fmat, a: float, b: float, rel_tol: float = 1e-10,
                   abs_tol: float = 1e-14, max_depth: int = 40,
                   initial_panels: int = 4) -> np.ndarray:
    """Adaptive quadrature of a family of integrands over one shared partition.

    ``fmat`` maps node array (m,) -> node-major values (m, P), one column per
    row; any other first axis raises ValueError.  The partition is refined
    until every row meets max(abs_tol, rel_tol*|I_row|), or its roundoff
    floor where that is larger.  Returns (P,).
    """
    return _refine(lambda lo, hi, depth: _make_panel(fmat, lo, hi, depth), a, b,
                   initial_panels, max_depth,
                   lambda total: np.maximum(abs_tol, rel_tol * np.abs(total)), log=False)


def _node_major(vals):
    """``vals`` as a float array, after checking that it is node-major."""
    vals = np.asarray(vals, dtype=float)
    if vals.ndim != 2 or vals.shape[0] != _XK.size:
        raise ValueError(
            f"integrand returned shape {vals.shape}; a panel callback must return "
            f"node-major values of shape ({_XK.size}, P), one column per row")
    return vals


def _make_panel(fmat, lo, hi, depth):
    half = 0.5 * (hi - lo)
    vals = _node_major(fmat(panel_nodes(lo, hi)))
    if not np.all(np.isfinite(vals)):
        raise QuadratureError(
            f"non-finite integrand values on [{lo:.6g}, {hi:.6g}]",
            worst_interval=(lo, hi))
    return [lo, hi, depth, *_panel_estimates(vals, half)]


def adaptive_batch_log(logf, a: float, b: float, rel_tol: float = 1e-10,
                       max_depth: int = 40, initial_panels: int = 4) -> np.ndarray:
    """Log-space adaptive quadrature for positive integrand families.

    ``logf`` maps nodes (m,) -> node-major log-values (m, P), one column per
    row (-inf allowed where the integrand vanishes).  Any other first axis
    raises ValueError.  Returns log of the integral per row.  Values may
    span hundreds of orders of magnitude; only relative tolerance applies.
    """
    log_rtol = np.log(rel_tol)
    return _refine(lambda lo, hi, depth: _make_panel_log(logf, lo, hi, depth), a, b,
                   initial_panels, max_depth, lambda logI: logI + log_rtol, log=True)


def _make_panel_log(logf, lo, hi, depth):
    half = 0.5 * (hi - lo)
    lv = _node_major(logf(panel_nodes(lo, hi)))
    if np.any(np.isnan(lv)) or np.any(lv == np.inf):
        raise QuadratureError(
            f"invalid log-integrand on [{lo:.6g}, {hi:.6g}]",
            worst_interval=(lo, hi))
    M = np.max(lv, axis=0)
    live = np.isfinite(M)
    M = np.where(live, M, 0.0)
    vals = lv - M                # the panel's own buffer, exponentiated in place
    np.exp(vals, out=vals)
    I, err, floor = _panel_estimates(vals, half, log=True)
    with np.errstate(divide="ignore"):
        logI = M + np.log(np.maximum(I, 0.0))
        # each live row's largest value is exp(0) = 1, a dead row's is 0
        logerr = M + np.log(np.maximum(err, 5.0 * _EPS * live * half))
        logfloor = M + np.log(floor)
    return [lo, hi, depth, logI, logerr, logfloor]


def _logsumexp_rows(arrs):
    stacked = np.stack(arrs, axis=0)
    M = np.max(stacked, axis=0)
    safe = np.where(np.isfinite(M), M, 0.0)
    out = safe + np.log(np.sum(np.exp(stacked - safe), axis=0))
    return np.where(np.isfinite(M), out, M)


def _sqrt_map(engine, g, a: float, b: float, **kw):
    """One ``engine`` call of g(x(s), s) over the signed sqrt map of (a, b).

    x(s) = a + s**2 for s > 0 and b - s**2 for s < 0, s in (-h, h), with
    h = sqrt((b - a)/2) and |dx/ds| = 2|s|: both endpoints sit at s = 0,
    where s is exact, an edge of the 8 initial panels.  x is clamped to the
    open (a, b).  A QuadratureError of this call names its worst interval
    in x; one raised inside ``g`` (a nested integral) passes unchanged.
    """
    if not b > a:
        raise ValueError(f"empty integration interval ({a}, {b})")
    lo, hi, h = math.nextafter(a, b), math.nextafter(b, a), math.sqrt(0.5 * (b - a))

    def gs(s):
        return g(np.clip(np.where(s > 0, a, b) + s * np.abs(s), lo, hi), s)

    try:
        return engine(gs, -h, h, initial_panels=8, **kw)
    except QuadratureError as exc:
        if all(f.f_code is not gs.__code__ for f, _ in traceback.walk_tb(exc.__traceback__)):
            s0, s1 = exc.diagnostics["worst_interval"]
            end = a if s0 + s1 > 0 else b   # the panel's side of s = 0
            x0, x1 = exc.diagnostics["worst_interval"] = tuple(sorted(
                float(end + s * abs(s)) for s in (s0, s1)))
            exc.args = (f"{exc.args[0]}; worst interval in x: [{x0!r}, {x1!r}]",)
        raise


def integrate_rows(rows, a: float, b: float, rel_tol: float = 1e-10,
                   abs_tol: float = 1e-14, max_depth: int = 40) -> np.ndarray:
    """Integrate a family of integrands over a finite (a, b), endpoints mapped.

    ``rows`` maps nodes (m,) -> node-major values (m, P), one column per row;
    any other first axis raises ValueError.  One :func:`adaptive_batch` call
    through :func:`_sqrt_map`: both endpoints may be integrably singular, and
    each row meets max(abs_tol, rel_tol*|I_row|) on its whole integral.  The
    product rows(x(s)) * 2|s| is a fresh array that the engine owns, never
    the one ``rows`` returned.  Returns (P,).
    """
    return _sqrt_map(adaptive_batch,
                     lambda x, s: _node_major(rows(x)) * (2.0 * np.abs(s))[:, None], a, b,
                     rel_tol=rel_tol, abs_tol=abs_tol, max_depth=max_depth)


def integrate_rows_log(log_rows, a: float, b: float, rel_tol: float = 1e-10,
                       max_depth: int = 40) -> np.ndarray:
    """Log-space counterpart of :func:`integrate_rows` for positive integrands.

    ``log_rows`` maps nodes (m,) -> node-major log-values (m, P), one column
    per row; any other first axis raises ValueError.  One
    :func:`adaptive_batch_log` call through the same map, adding log(2|s|)
    down the node axis.  Returns the log of each row's integral.
    """
    return _sqrt_map(adaptive_batch_log,
                     lambda x, s: _node_major(log_rows(x)) + np.log(2.0 * np.abs(s))[:, None],
                     a, b, rel_tol=rel_tol, max_depth=max_depth)


def integrate_finite(f, a: float, b: float, rel_tol: float = 1e-10,
                     abs_tol: float = 1e-14, max_depth: int = 40) -> float:
    """The one-row :func:`integrate_rows` of a vectorized integrand."""
    return float(integrate_rows(lambda x: np.asarray(f(x), dtype=float)[:, None], a, b,
                                rel_tol=rel_tol, abs_tol=abs_tol, max_depth=max_depth)[0])


def scan_log_peak(log_g, lo: float, hi: float, tail_cut: float):
    """Locate the peak of a log-integrand and truncation bounds for its tails.

    ``log_g`` maps a node array to log-magnitudes.  Returns
    (lo_eff, hi_eff, log_peak).  For an infinite upper limit the probe grid is
    extended decade by decade; if the integrand is still above the truncation
    threshold at the scan horizon 1e8 and increasing, the integral is declared
    divergent.  A log-integrand of +inf at a probe (an overflowing integrand)
    is reported the same way; an integrand that is -inf everywhere probed
    returns log_peak = -inf.
    """
    if lo < 0:
        raise ValueError("scan requires a nonnegative lower limit")
    lo_probe = max(lo, 1e-10)
    finite_hi = np.isfinite(hi)
    hi_probe = hi if finite_hi else 1e4
    log_thresh_gap = -np.log(tail_cut)
    n_probe = _SCAN_PROBES

    while True:
        xs = np.geomspace(lo_probe, hi_probe, n_probe)
        with np.errstate(all="ignore"):
            ls = np.asarray(log_g(xs), dtype=float)
        ls = np.where(np.isnan(ls), -np.inf, ls)
        peak_idx = int(np.argmax(ls))
        log_peak = ls[peak_idx]
        if log_peak == np.inf:
            raise TransformDivergenceError(
                f"log-integrand is +inf at x={xs[peak_idx]:.6g}: the integrand "
                "overflows there and its integral cannot be bounded",
                horizon=float(xs[peak_idx]), log_value=float(log_peak),
                log_peak=float(log_peak))
        if not np.isfinite(log_peak):
            return lo, (hi if finite_hi else hi_probe), -np.inf
        thresh = log_peak - log_thresh_gap
        tail = ls[peak_idx:]
        below = np.nonzero(tail < thresh)[0]
        if below.size:
            hi_eff = xs[peak_idx + below[0]]
            break
        if finite_hi:
            hi_eff = hi
            break
        # tail never dropped below threshold: extend or declare divergence
        if hi_probe >= _SCAN_HORIZON:
            if ls[-1] >= ls[-2]:
                raise TransformDivergenceError(
                    "integrand still above truncation threshold at the scan "
                    f"horizon x={hi_probe:.3g} and not decreasing",
                    horizon=hi_probe, log_value=float(ls[-1]),
                    log_peak=float(log_peak))
            hi_eff = hi_probe
            break
        hi_probe *= 100.0
        n_probe = min(2 * n_probe, 2000)

    head = ls[:peak_idx + 1]
    below = np.nonzero(head < thresh)[0]
    lo_eff = xs[below[-1]] if below.size else lo
    return float(lo_eff), float(hi_eff), float(log_peak)
