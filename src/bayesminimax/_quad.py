"""Low-level adaptive Gauss-Kronrod quadrature engine.

The (G7, K15) pair with QUADPACK-style per-panel error estimates (Piessens et
al. 1983), and one globally adaptive loop that refines a partition shared by
a family of integrands (rows) in rounds.  Each round halves, for every row
not yet done, the panels with the largest error above their roundoff floor
until those left whole carry at most half of the row's room (its target
less its summed floor), and evaluates all new panels in one integrand call.
That callback is node-major: the nodes of a round, shape (15*panels,), map
to values (15*panels, P), one column per row, (15, P) per panel, so the
per-panel work runs along contiguous rows; any other shape raises
ValueError.  The loop runs in linear space (:func:`adaptive_batch`) or in
log space (:func:`adaptive_batch_log`, for positive integrands spanning
hundreds of orders).  A row is done when its error meets its tolerance, or
when its roundoff floor 50*eps*int|g| exceeds that tolerance and its error
is within _FLOOR_SLACK of the floor, so a row that cancels far below its
integral of |g| stops at roundoff.  :func:`bisect` halves the panels here
and in ``priors``; a panel a few ulps wide, or past the budget, raises at
once.  One cap bounds every refinement: a row still open after _MAX_ROUNDS
rounds raises.  A finite (a, b) goes through one signed sqrt map
(:func:`_sqrt_map`), which removes integrable algebraic endpoint
singularities such as t**(-1/2).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureError, TransformDivergenceError

# The symmetric K15 rule on [-1, 1] from its outermost node to the centre:
# nodes, K15 and embedded G7 weights.  Each literal is within 1.5 ulps of its
# 60-digit mpmath value; summed exactly, these integrate x^p within 1.1 ulps
# for p <= 22 (K15) and 13 (G7), where correct rounding misses p = 22 by 3.7.
_X8 = np.array([0.9914553711208127, 0.9491079123427585, 0.864864423359769, 0.7415311855993946,
                0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0])
_WK8 = np.array([0.02293532201052922, 0.06309209262997856, 0.10479001032225017,
                 0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
                 0.20443294007529889, 0.20948214108472782])
_WG8 = np.array([0.0, 0.1294849661688697, 0.0, 0.2797053914892766, 0.0, 0.3818300505051189,
                 0.0, 0.4179591836734694])
_XK = np.concatenate([-_X8[:-1], _X8[::-1]])
_WK, _WG = (np.concatenate([w[:-1], w[::-1]]) for w in (_WK8, _WG8))
_WKG = np.stack([_WK, _WG])   # K15 and G7 sums of a panel in one product

_EPS = np.finfo(float).eps
_MAX_PANELS = 4096        # subdivision budget of every refinement
_MAX_ROUNDS = 100         # refinement rounds, one integrand call each, after the first
_MIN_ULPS = 4             # a panel this many ulps of its edges wide is not halved
_SCAN_PROBES = 200        # first probe grid of scan_log_peak
_SCAN_HORIZON = 1e8       # where scan_log_peak stops extending an infinite range
_FLOOR_SLACK = 2.0        # a row at its roundoff floor stops within this factor of it


def panel_nodes(left, right, ref) -> np.ndarray:
    """The nodes ``ref`` on [-1, 1] mapped onto each panel [left, right] (arrays), one row
    per panel, each from its nearer edge: -1 and 1 land on the edges exactly."""
    half = 0.5 * (right - left)[:, None]
    return np.where(ref < 0, left[:, None] + half * (1.0 + ref), right[:, None] - half * (1.0 - ref))


def bisect(edges, marked, fail):
    """Halve the panels ``marked`` (indices) of the partition with ``edges``.

    Returns the new edges, the panel each new panel came from and whether it
    is a half.  A marked panel at most _MIN_ULPS ulps of its edges wide, or
    the first marked one past _MAX_PANELS panels, raises ``fail(lo, hi, why)``.
    """
    lo, hi = edges[marked], edges[marked + 1]
    narrow = hi - lo <= _MIN_ULPS * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    if np.any(narrow):
        p = int(np.argmax(narrow))
        raise fail(float(lo[p]), float(hi[p]), f"panel within {_MIN_ULPS} ulps of its edges")
    n = edges.size - 1
    if n + marked.size > _MAX_PANELS:
        raise fail(float(lo[0]), float(hi[0]), f"panel budget {_MAX_PANELS} exhausted")
    split = np.zeros(n, dtype=bool)
    split[marked] = True
    edges = np.insert(edges, np.nonzero(split)[0] + 1, 0.5 * (edges[:-1][split] + edges[1:][split]))
    parent = np.repeat(np.arange(n), 1 + split)
    return edges, parent, split[parent]


def _panel_estimates(vals: np.ndarray, half: np.ndarray, log: bool = False):
    """K15 integral, error estimate and roundoff floor from node values.

    ``vals`` holds a round's panels node-major, shape (panels, 15, P), and
    ``half`` their half-widths, shape (panels, 1); returns (integral, error,
    floor), each (panels, P), with the node axis contracted by the K15 and G7
    weights in one product, so every other pass runs along the contiguous
    row axis.  Error follows the QUADPACK rescaling of |K15-G7| and never
    drops below the floor 50*eps*int|g| over the panel.  ``vals`` is only
    read; in log mode it is nonnegative, so int|g| is the K15 sum itself.
    """
    kg = _WKG @ vals
    resk, resg = kg[:, 0], kg[:, 1]
    resabs = resk if log else _WK @ np.abs(vals)
    dev = vals - 0.5 * resk[:, None]
    resasc = _WK @ np.abs(dev, out=dev)
    err = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where(resasc > 0.0, scaled, err)
    floor = 50.0 * _EPS * resabs
    err = np.maximum(err, floor)
    return resk * half, err * half, floor * half


def _refine(make, a, b, initial_panels, target, log):
    """The refinement loop of :func:`adaptive_batch` and :func:`adaptive_batch_log`.

    ``make(left, right)`` evaluates the panels [left, right] of one round as
    (I, err, floor), each (panels, P); ``target(total)`` gives each row's
    error target.  In log mode all of these are logarithms.  The totals are
    summed afresh from the panels every round.  Splitting a panel cannot
    lower its roundoff floor, so a row's panels are ranked by their error
    above it, against the row's room: its target less its summed floor.  The
    panel with the largest such excess is the worst.  After the initial
    panels at most _MAX_ROUNDS rounds are evaluated; a row still open after
    the last of them raises, naming the worst panel.
    """
    if not b > a:
        raise ValueError(f"empty integration interval ({a}, {b})")
    edges = np.linspace(a, b, initial_panels + 1)
    I, err, floor = make(edges[:-1], edges[1:])
    mode = " (log mode)" if log else ""

    def fail(lo, hi, why):    # names the round's totals and errors
        return QuadratureError(f"{why} on [{lo!r}, {hi!r}]{mode}", worst_interval=(lo, hi),
                               total=total, error=err_total)

    # products and quotients of logs are sums and differences
    if log:
        add, mul, div, slack = _logsumexp, np.add, (lambda x, y: np.exp(x - y)), np.log(_FLOOR_SLACK)
    else:
        add, mul, div, slack = (lambda arr: np.sum(arr, axis=0)), np.multiply, np.divide, _FLOOR_SLACK
    for rounds in range(_MAX_ROUNDS + 1):
        total, err_total, floor_total = add(I), add(err), add(floor)
        tol = target(total)
        tol = np.where(floor_total > tol, mul(floor_total, slack), tol)
        todo = err_total > tol
        if not np.any(todo):
            return total
        # each panel's error above its roundoff floor, and each row's room
        # above its summed floor, both in units of the row's target
        excess = div(err[:, todo], tol[todo]) - div(floor[:, todo], tol[todo])
        worst = np.max(excess, axis=1)
        if rounds == _MAX_ROUNDS:
            p = int(np.argmax(worst))
            raise fail(float(edges[p]), float(edges[p + 1]), f"round cap {_MAX_ROUNDS} reached")
        room = 1.0 - div(floor_total[todo], tol[todo])
        order = np.argsort(-excess, axis=0)
        # a row's ranked panels from its top one down to the first whose
        # excess and all below it sum to at most half of its room
        rest = np.cumsum(np.take_along_axis(excess, order, axis=0)[::-1], axis=0)[::-1]
        marked = np.zeros(excess.shape, dtype=bool)
        np.put_along_axis(marked, order, rest > 0.5 * room, axis=0)
        marked = np.nonzero(np.any(marked, axis=1))[0]
        marked = marked[np.argsort(-worst[marked], kind="stable")]
        edges, parent, fresh = bisect(edges, marked, fail)
        I, err, floor = I[parent], err[parent], floor[parent]
        new = np.nonzero(fresh)[0]
        I[new], err[new], floor[new] = make(edges[new], edges[new + 1])


def adaptive(f, a: float, b: float, rel_tol: float = 1e-10,
             abs_tol: float = 1e-14) -> float:
    """The one-row :func:`adaptive_batch` of a vectorized scalar integrand."""
    return float(adaptive_batch(lambda x: np.asarray(f(x), dtype=float)[:, None], a, b,
                                rel_tol=rel_tol, abs_tol=abs_tol)[0])


def adaptive_batch(fmat, a: float, b: float, rel_tol: float = 1e-10,
                   abs_tol: float = 1e-14, initial_panels: int = 4) -> np.ndarray:
    """Adaptive quadrature of a family of integrands over one shared partition.

    ``fmat`` maps the nodes of a round (m,) -> node-major values (m, P), one
    column per row; any other first axis raises ValueError.  The partition
    is refined until every row meets max(abs_tol, rel_tol*|I_row|), or its
    roundoff floor where that is larger.  Returns (P,).
    """
    return _refine(lambda left, right: _make_panel(fmat, left, right), a, b,
                   initial_panels,
                   lambda total: np.maximum(abs_tol, rel_tol * np.abs(total)), log=False)


def _node_major(vals, m):
    """``vals`` as a float array, after checking that it is node-major for m nodes."""
    vals = np.asarray(vals, dtype=float)
    if vals.ndim != 2 or vals.shape[0] != m:
        raise ValueError(f"integrand returned shape {vals.shape} for {m} nodes; a round callback"
                         f" must return node-major values ({m}, P), (15, P) per panel, one per row")
    return vals


def _round(f, left, right, invalid, what):
    """``f`` at the Kronrod nodes of the panels [left, right] in one call, as
    (panels, 15, P); a panel where ``invalid`` holds raises, naming ``what``."""
    x = panel_nodes(left, right, _XK)
    vals = _node_major(f(x.ravel()), x.size).reshape(*x.shape, -1)
    bad = np.any(invalid(vals), axis=(1, 2))
    if np.any(bad):
        p = int(np.argmax(bad))
        raise QuadratureError(f"{what} on [{left[p]:.6g}, {right[p]:.6g}]",
                              worst_interval=(float(left[p]), float(right[p])))
    return vals


def _make_panel(fmat, left, right):
    """(I, err, floor) of the panels [left, right] of one round."""
    vals = _round(fmat, left, right, lambda v: ~np.isfinite(v), "non-finite integrand values")
    return _panel_estimates(vals, 0.5 * (right - left)[:, None])


def adaptive_batch_log(logf, a: float, b: float, rel_tol: float = 1e-10,
                       initial_panels: int = 4) -> np.ndarray:
    """Log-space adaptive quadrature for positive integrand families.

    ``logf`` maps the nodes of a round (m,) -> node-major log-values (m, P),
    one column per row (-inf allowed where the integrand vanishes); any other
    first axis raises ValueError.  Returns log of the integral per row; only
    relative tolerance applies.
    """
    log_rtol = np.log(rel_tol)
    return _refine(lambda left, right: _make_panel_log(logf, left, right), a, b,
                   initial_panels, lambda logI: logI + log_rtol, log=True)


def _make_panel_log(logf, left, right):
    """log (I, err, floor) of the panels [left, right] of one round."""
    lv = _round(logf, left, right, lambda v: np.isnan(v) | (v == np.inf), "invalid log-integrand")
    M = np.max(lv, axis=1)
    live = np.isfinite(M)
    M = np.where(live, M, 0.0)
    half = 0.5 * (right - left)[:, None]
    I, err, floor = _panel_estimates(np.exp(lv - M[:, None]), half, log=True)
    with np.errstate(divide="ignore"):
        logI = M + np.log(np.maximum(I, 0.0))
        # each live row's largest value is exp(0) = 1, a dead row's is 0
        logerr = M + np.log(np.maximum(err, 5.0 * _EPS * live * half))
        logfloor = M + np.log(floor)
    return logI, logerr, logfloor


def _logsumexp(arr):
    """log of the sum over axis 0 of exp(arr)."""
    M = np.max(arr, axis=0)
    safe = np.where(np.isfinite(M), M, 0.0)
    out = safe + np.log(np.sum(np.exp(arr - safe), axis=0))
    return np.where(np.isfinite(M), out, M)


def _sqrt_map(engine, g, a: float, b: float, **kw):
    """One ``engine`` call of g(x(s), s) over the signed sqrt map of (a, b).

    x(s) = a + s**2 for s > 0 and b - s**2 for s < 0, s in (-h, h), with
    h = sqrt((b - a)/2) and |dx/ds| = 2|s|: both endpoints sit at s = 0,
    where s is exact, an edge of the 8 initial panels.  x is clamped to the
    open (a, b).  A QuadratureError of this call names its worst interval
    in x; one raised inside ``g`` (a nested integral) is marked ``nested``
    and passes unchanged.
    """
    if not b > a:
        raise ValueError(f"empty integration interval ({a}, {b})")
    lo, hi, h = math.nextafter(a, b), math.nextafter(b, a), math.sqrt(0.5 * (b - a))

    def gs(s):
        try:
            return g(np.clip(np.where(s > 0, a, b) + s * np.abs(s), lo, hi), s)
        except QuadratureError as exc:
            exc.nested = True   # a nested integral's error, in its own variable
            raise

    try:
        return engine(gs, -h, h, initial_panels=8, **kw)
    except QuadratureError as exc:
        if not exc.nested:
            s0, s1 = exc.diagnostics["worst_interval"]
            end = a if s0 + s1 > 0 else b   # the panel's side of s = 0
            x0, x1 = exc.diagnostics["worst_interval"] = tuple(sorted(
                float(end + s * abs(s)) for s in (s0, s1)))
            exc.args = (f"{exc.args[0]}; worst interval in x: [{x0!r}, {x1!r}]",)
        raise


def integrate_rows(rows, a: float, b: float, rel_tol: float = 1e-10,
                   abs_tol: float = 1e-14) -> np.ndarray:
    """Integrate a family of integrands over a finite (a, b), endpoints mapped.

    ``rows`` maps nodes (m,) -> node-major values (m, P), one column per row;
    any other first axis raises ValueError.  One :func:`adaptive_batch` call
    through :func:`_sqrt_map`: both endpoints may be integrably singular, and
    each row meets max(abs_tol, rel_tol*|I_row|) on its whole integral.  The
    product rows(x(s)) * 2|s| is a fresh array that the engine owns, never
    the one ``rows`` returned.  Returns (P,).
    """
    return _sqrt_map(adaptive_batch,
                     lambda x, s: _node_major(rows(x), x.size) * (2.0 * np.abs(s))[:, None], a, b,
                     rel_tol=rel_tol, abs_tol=abs_tol)


def integrate_rows_log(log_rows, a: float, b: float, rel_tol: float = 1e-10) -> np.ndarray:
    """Log-space counterpart of :func:`integrate_rows` for positive integrands.

    ``log_rows`` maps nodes (m,) -> node-major log-values (m, P), one column
    per row; any other first axis raises ValueError.  One
    :func:`adaptive_batch_log` call through the same map, adding log(2|s|)
    down the node axis.  Returns the log of each row's integral.
    """
    return _sqrt_map(adaptive_batch_log,
                     lambda x, s: _node_major(log_rows(x), x.size) + np.log(2.0 * np.abs(s))[:, None],
                     a, b, rel_tol=rel_tol)


def integrate_finite(f, a: float, b: float, rel_tol: float = 1e-10,
                     abs_tol: float = 1e-14) -> float:
    """The one-row :func:`integrate_rows` of a vectorized integrand."""
    return float(integrate_rows(lambda x: np.asarray(f(x), dtype=float)[:, None], a, b,
                                rel_tol=rel_tol, abs_tol=abs_tol)[0])


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
