"""Prior families and the two construction pipelines.

Spherically symmetric priors on R^k are carried by their radial density
lambda(r); normal variance mixtures by a mixing density h(v) over the
variance scale.  Two constructions produce minimax families:

* the spherical route: pick a nonpositive forcing function phi, solve
  z'' + ((k-1)/u) z' - phi(u) z / 2 = 0 from a Frobenius series start at the
  regular singular point u = 0 (built from the given coefficients of
  phi = u^{-2}(b0 + b1 u + ...)), and assemble the transform profile
  F(u) = (c1 z1 + c2 z2)^2 u^{(k-1)/2} e^{u^2/2};
* the mixture route: pick phi with phi(s) <= k/s and build the Laplace
  transform G(s) = (int_b^s exp(-(1/2) int_a^t phi) dt)^2, whose inverse
  kernel on (0,1) induces the mixing density
  h(v) = (v+1)^{k/2-2} kernel(1/(v+1)).

Concrete families: the Strawderman two-stage hierarchical prior (dual route:
direct integral and Whittaker-W closed form), monomial-kernel mixtures,
generalized-beta kernel mixtures, and the improper Whittaker-M radial family
produced by the inverse-square forcing phi = -2b/u^2.

Constructors do not rescale: densities are returned exactly as displayed by
their defining formulas, with properness and total mass recorded as metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import _quad, specfun
from .errors import ConstructionError, DomainError, QuadratureError
from .transforms import DEFAULT_QUAD, QuadSpec, ScalarFn

__all__ = [
    "RadialPrior", "MixingDensity", "ConstructionSolution",
    "normal_radial", "mixture_radial",
    "strawderman_radial", "monomial_mixing", "gen_beta_kernel",
    "gen_beta_mixing", "construct_spherical", "inverse_square_profile",
    "monomial_pair", "power_exp_S",
    "whittaker_radial", "construct_G_mixture", "mixing_from_unit_kernel",
    "monomial_laplace_G", "probe_properness",
    "prior_from_spec",
]

PROPER = "proper"
IMPROPER = "improper"
UNKNOWN = "unknown"


@dataclass
class RadialPrior:
    """A spherical prior given by its radial density lambda(r), r > 0."""
    k: int
    lam: ScalarFn
    proper: str = UNKNOWN
    mass: Optional[float] = None

    def __post_init__(self):
        if self.k < 3:
            raise DomainError(f"dimension k >= 3 required, got {self.k}")


@dataclass
class MixingDensity:
    """A variance-mixture prior given by its mixing density h(v), v > 0."""
    k: int
    h: ScalarFn
    proper: str = UNKNOWN
    mass: Optional[float] = None

    def __post_init__(self):
        if self.k < 3:
            raise DomainError(f"dimension k >= 3 required, got {self.k}")


# ---------------------------------------------------------------------------
# properness probing
# ---------------------------------------------------------------------------

_MASS_HORIZON = 1e6   # probe_properness integrates to here and fits the tail beyond


def probe_properness(fn: ScalarFn, quad: QuadSpec = DEFAULT_QUAD) -> Tuple[str, Optional[float]]:
    """Estimate whether a nonnegative density has finite mass.

    Integrates to x = 1e6 and fits the tail exponent p on the last decade
    of log-log samples.  Verdict is unknown when p is within 0.05 of the
    critical exponent -1; a fitted power tail adds the closed-form remainder
    f(X) X / (-p-1).  Growing or non-decaying tails are improper.
    """
    lo = max(fn.support[0], 0.0)
    hi = fn.support[1]
    if math.isfinite(hi):
        mass = _integrate_density(fn, lo, hi, quad)
        return PROPER, mass

    xs = np.geomspace(_MASS_HORIZON / 10.0, _MASS_HORIZON, 16)
    with np.errstate(all="ignore"):
        logv = np.asarray(fn.log_abs(xs), dtype=float)
    if np.any(np.isinf(logv) & (logv > 0)) or np.any(np.isnan(logv)):
        return IMPROPER, None
    if np.all(np.isneginf(logv)):
        # density vanished long before the horizon: locate effective support
        probes = np.geomspace(max(lo, 1e-8), _MASS_HORIZON, 400)
        with np.errstate(all="ignore"):
            pv = np.asarray(fn.log_abs(probes), dtype=float)
        alive = np.isfinite(pv)
        if not np.any(alive):
            return PROPER, 0.0
        x_end = probes[np.nonzero(alive)[0][-1]] * 1.5
        mass = _integrate_density(fn, lo, x_end, quad)
        return PROPER, mass
    slope = float(np.polyfit(np.log(xs), logv, 1)[0])
    if slope >= -1.0 + 0.05:
        return IMPROPER, None
    if abs(slope + 1.0) < 0.05:
        return UNKNOWN, None
    mass = _integrate_density(fn, lo, _MASS_HORIZON, quad)
    tail = float(np.exp(logv[-1])) * _MASS_HORIZON / (-slope - 1.0)
    return PROPER, mass + tail


def _integrate_density(fn: ScalarFn, lo: float, hi: float, quad: QuadSpec) -> float:
    """Integral of a nonnegative density over (lo, hi), hi finite.

    The range beyond 50 is handled in log-substituted form so that slowly
    decaying power tails do not exhaust the panel budget.
    """
    split = min(hi, 50.0)
    total = _quad.integrate_finite(lambda x: np.asarray(fn.eval(x), dtype=float),
                                   lo, split, rel_tol=quad.rel_tol, abs_tol=quad.abs_tol)
    if hi > split:
        total += float(_log_integral(fn.eval, split, hi, quad)[0])
    return total


def _probe_nonnegative(fn: ScalarFn, what: str, lo: float = 1e-3, hi: float = 1e3):
    xs = np.geomspace(lo, hi, 64)
    lo_s, hi_s = fn.support
    xs = xs[(xs > lo_s) & (xs < hi_s)]
    vals = np.asarray(fn.eval(xs), dtype=float)
    if np.any(vals < 0):
        bad = xs[vals < 0][0]
        raise DomainError(f"{what} must be nonnegative; negative at x={bad:.6g}")


# ---------------------------------------------------------------------------
# basic constructors
# ---------------------------------------------------------------------------

def normal_radial(v: float, k: int) -> ScalarFn:
    """Radial density of the N_k(0, v I) prior:

        lambda_v(r) = (2^{1-k/2}/Gamma(k/2)) r^{k-1} v^{-k/2} e^{-r^2/(2v)}.
    """
    if not v > 0:
        raise DomainError(f"variance v must be positive, got {v}")
    if k < 3:
        raise DomainError(f"k >= 3 required, got {k}")
    log_c = (1.0 - 0.5 * k) * math.log(2.0) - math.lgamma(0.5 * k) - 0.5 * k * math.log(v)

    def log_lam(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            return log_c + (k - 1.0) * np.log(r) - r * r / (2.0 * v)

    return ScalarFn(eval=lambda r: np.exp(log_lam(r)),
                    support=(0.0, math.inf), label=f"normal_radial(v={v})",
                    log_eval=log_lam, nonneg=True)


def mixture_radial(h: MixingDensity, quad: QuadSpec = DEFAULT_QUAD) -> RadialPrior:
    """Radial density of the scale mixture: lambda(r) = int h(v) lambda_v(r) dv.

    Evaluated in log-variance coordinates, lambda(r) = int h(e^w)
    lambda_{e^w}(r) e^w dw: every row's Gaussian needle (at v of order r^2) is
    O(1) wide in w regardless of r, and both tails decay exponentially, so one
    shared panel partition serves query batches spanning many scales of r.
    The w-window is clipped to the mixing density's declared support.
    """
    k = h.k
    _probe_nonnegative(h.h, "mixing density h")
    log_c = (1.0 - 0.5 * k) * math.log(2.0) - math.lgamma(0.5 * k)
    v_lo = max(h.h.support[0], 0.0)
    v_hi = h.h.support[1]

    def lam(r_in):
        r = np.atleast_1d(np.asarray(r_in, dtype=float))
        r_pos = r[r > 0]
        r_min = float(np.min(r_pos)) if r_pos.size else 1.0
        r_max = float(np.max(r_pos)) if r_pos.size else 1.0
        w_lo = (math.log(v_lo) if v_lo > 0
                else min(2.0 * math.log(r_min) - 10.0, -12.0))
        w_hi = (math.log(v_hi) if math.isfinite(v_hi)
                else max(46.0, 2.0 * math.log(r_max) + 8.0))

        def rows(w):
            w = np.asarray(w, dtype=float)
            v = np.exp(w)
            hv = np.asarray(h.h.eval(v), dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                log_norm = (log_c + (k - 1.0) * np.log(r)
                            + (1.0 - 0.5 * k) * w[:, None]
                            - r ** 2 / (2.0 * v)[:, None])
            return np.exp(log_norm) * hv[:, None]

        n_init = max(8, min(96, int(w_hi - w_lo)))
        total = _quad.adaptive_batch(rows, w_lo, w_hi, rel_tol=quad.rel_tol,
                                     abs_tol=quad.abs_tol, initial_panels=n_init)
        return total if np.ndim(r_in) else float(total[0])

    fn = ScalarFn(eval=lam, support=(0.0, math.inf), label="mixture_radial",
                  nonneg=True)
    return RadialPrior(k=k, lam=fn, proper=h.proper, mass=h.mass)


# ---------------------------------------------------------------------------
# Strawderman prior
# ---------------------------------------------------------------------------

def _strawderman_log_integral(a: float, k: int, quad: QuadSpec) -> Callable:
    """r -> log of int_0^inf t^{k/2-a} (1+t)^{a-2} exp(-t r^2/2) dt.

    Substituting t = tau/r^2 standardizes the exponential so a single panel
    partition serves every r:

        r^{-2(k/2-a+1)} int_0^inf tau^{k/2-a} (1 + tau/r^2)^{a-2} e^{-tau/2} dtau.

    One scan of the base tau^p e^{-tau/2}, p = k/2-a, gives its peak and its
    upper cut, once per (a, k); the factor (1 + tau/r^2)^{a-2} <= 1 falls in
    tau, so that cut bounds the tail of every row.  The rows are integrated
    scaled by e^{-peak}, so tau^p e^{-tau/2} does not overflow at large k.
    """
    p = k / 2.0 - a

    def log_base(tau):
        return p * np.log(tau) - tau / 2.0

    _, cut, peak = _quad.scan_log_peak(log_base, 0.0, math.inf, quad.tail_cut)

    def log_integral(r):
        r2 = r * r

        def rows(tau):
            ratio = (a - 2.0) * np.log1p(tau[:, None] / r2)
            return np.exp(log_base(tau)[:, None] - peak + ratio)

        total = _quad.integrate_rows(rows, 0.0, cut, quad.rel_tol, quad.abs_tol)
        return -2.0 * (p + 1.0) * np.log(r) + peak + np.log(total)

    return log_integral


def _strawderman_log_tricomi(a: float, k: int, r: np.ndarray,
                             fallback: Callable) -> np.ndarray:
    """The same log-integral in closed form, Gamma(alpha) U(alpha, k/2, r^2/2)
    with alpha = k/2-a+1 (DLMF 13.4.4), vectorized over r.

    Where scipy's ``hyperu`` gives no finite log, those r fall back to the
    quadrature of :func:`_strawderman_log_integral`: it returns NaN for k a
    multiple of 4 at small r (its integer-b series loses every digit there,
    out to r ~ 2 at k = 40), and inf once r^2/2 underflows to 0.
    """
    from scipy.special import hyperu

    r = np.atleast_1d(np.asarray(r, dtype=float))
    alpha = k / 2.0 - a + 1.0
    with np.errstate(divide="ignore"):
        out = math.lgamma(alpha) + np.log(hyperu(alpha, 0.5 * k, 0.5 * r * r))
    bad = ~np.isfinite(out)
    if np.any(bad):
        out[bad] = fallback(r[bad])
    return out


def strawderman_radial(a: float, k: int, quad: QuadSpec = DEFAULT_QUAD,
                       route: str = "integral") -> RadialPrior:
    """Radial density of the two-stage Strawderman prior, 0 <= a < 1:

        lambda(r) = 2(1-a)/(2^{k/2} Gamma(k/2)) r^{k-1}
                    int_0^inf t^{k/2-a} (1+t)^{a-2} e^{-t r^2/2} dt.

    Two routes evaluate the integral and agree to quadrature accuracy:

    * ``integral`` (authoritative): direct quadrature;
    * ``whittaker``: the closed form Gamma(alpha) U(alpha, k/2, r^2/2) with
      alpha = k/2-a+1, one vectorized Tricomi-function call.  Through
      W_{x,mu}(z) = e^{-z/2} z^{mu+1/2} U(mu-x+1/2, 1+2mu, z) this is
      lambda(r) = (1-a) Gamma(alpha) / (2^{k/4-1} Gamma(k/2))
                  r^{(k-2)/2} e^{r^2/4} W_{a-1-k/4, (k-2)/4}(r^2/2).

    Both carry ``log_eval``.  The prior is proper with total mass one.
    """
    if not (0.0 <= a < 1.0):
        raise DomainError(f"requires 0 <= a < 1, got {a}")
    if k < 3:
        raise DomainError(f"k >= 3 required, got {k}")
    if route not in ("integral", "whittaker"):
        raise DomainError(f"unknown route {route!r}")
    integral = _strawderman_log_integral(a, k, quad)
    log_integral = (integral if route == "integral"
                    else lambda r: _strawderman_log_tricomi(a, k, r, integral))
    log_c = (math.log(2.0 * (1.0 - a)) - 0.5 * k * math.log(2.0)
             - math.lgamma(0.5 * k))

    def log_lam(r):
        # lambda(r) ~ r at the origin: log lambda(0) = -inf, not -inf + inf
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.full(r_arr.shape, -np.inf)
        live = r_arr != 0.0
        if np.any(live):
            out[live] = (log_c + (k - 1.0) * np.log(r_arr[live])
                         + log_integral(r_arr[live]))
        return float(out[0]) if np.asarray(r).ndim == 0 else out

    label = "strawderman" if route == "integral" else "strawderman_whittaker"
    fn = ScalarFn(eval=lambda r: np.exp(log_lam(r)), support=(0.0, math.inf),
                  label=f"{label}(a={a})", log_eval=log_lam, nonneg=True)
    return RadialPrior(k=k, lam=fn, proper=PROPER, mass=1.0)


def strawderman_mixing(a: float, k: int) -> MixingDensity:
    """Variance-mixture representation of the Strawderman prior:
    h(v) = (1-a)(1+v)^{a-2}, which integrates to one."""
    if not (0.0 <= a < 1.0):
        raise DomainError(f"requires 0 <= a < 1, got {a}")

    def h(v):
        v = np.asarray(v, dtype=float)
        return (1.0 - a) * (1.0 + v) ** (a - 2.0)

    fn = ScalarFn(
        eval=h, support=(0.0, math.inf), label=f"strawderman_mixing(a={a})",
        log_eval=lambda v: math.log(1.0 - a) + (a - 2.0) * np.log1p(np.asarray(v, dtype=float)),
        nonneg=True)
    return MixingDensity(k=k, h=fn, proper=PROPER, mass=1.0)


# ---------------------------------------------------------------------------
# monomial kernel family
# ---------------------------------------------------------------------------

def monomial_mixing(n: int, k: int) -> MixingDensity:
    """Mixing density with unit Laplace kernel t^n:  h(v) = (v+1)^{k/2-2-n}.

    Proper exactly when n > k/2 - 1, with mass 1/(n+1-k/2); returned
    unnormalized, as displayed.
    """
    if n < 0 or k < 3:
        raise DomainError("requires n >= 0 and k >= 3")
    p = k / 2.0 - 2.0 - n

    def h(v):
        return (1.0 + np.asarray(v, dtype=float)) ** p

    fn = ScalarFn(
        eval=h, support=(0.0, math.inf), label=f"(v+1)^{p}",
        log_eval=lambda v: p * np.log1p(np.asarray(v, dtype=float)), nonneg=True)
    proper = PROPER if n > k / 2.0 - 1.0 else IMPROPER
    mass = 1.0 / (n + 1.0 - k / 2.0) if proper == PROPER else None
    return MixingDensity(k=k, h=fn, proper=proper, mass=mass)


def monomial_laplace_G(n: float) -> ScalarFn:
    """Closed-form Laplace transform of t^n on (0,1), real n > -1, through
    its ratios.  G, -G' and G'' are the moments M_b(s) = int_0^1 t^{b-1}
    e^{-st} dt = Gamma(b) P(b, s) / s^b, b = n+1, n+2, n+3, with P the
    regularized lower incomplete gamma function.  Only the top moment,
    b = n+3, makes a ``gammainc`` call: log M_b is the log of that quotient
    where Gamma(b) and s^b lie in double range, and is assembled in log
    space where they do not (log space costs ~|b log s| ulps, the quotient a
    few).  Where P itself would fall below ~e^{-600} (s < b and
    s^b e^{-s}/Gamma(b+1) < e^{-600}; this includes s = 0) it comes from
    Kummer's function instead, M_b(s) = e^{-s} 1F1(1; b+1; s) / b
    (DLMF 8.5.1), through ``specfun.log_kummer_1f1``.  The downward
    recurrence M_b = (s M_{b+1} + e^{-s}) / b (DLMF 8.8.5) runs in ratio
    form: with w = e^{-s}/M_{n+3} <= n+3, q1 = M_{n+2}/M_{n+3} = (s + w)/(n+2)
    and q0 = M_{n+1}/M_{n+2} = (s + w/q1)/(n+1),

        log G = log M_{n+3} + log(q1 q0),  G'/G = -1/q0,  G''/G = 1/(q0 q1).

    Every term is positive, so nothing cancels, and nothing leaves double
    range where G underflows (k = 1500 past s ~ 745).  ``eval`` is
    exp(log G): one ``gammainc`` call either way.
    """
    from scipy.special import gammainc

    if not n > -1:
        raise DomainError(f"requires n > -1, got {n}")

    b = n + 3.0

    def ratios(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            b_log_s = b * np.log(s)
            P = gammainc(b, s)
            log_M = np.asarray(np.log(math.gamma(b) * P / s ** b) if b < 170.0 else P)
            wide = ~(np.abs(b_log_s) < 700.0) | (b >= 170.0)
            if np.any(wide):
                log_M[wide] = math.lgamma(b) + np.log(P[wide]) - b_log_s[wide]
            # log of P's leading factor; the factor 1F1(1; b+1; s) >= 1 only raises P
            small = (s < b) & (b_log_s - s - math.lgamma(b + 1.0) < -600.0)
        if np.any(small):
            log_M[small] = specfun.log_kummer_1f1(1.0, b + 1.0, s[small]) - s[small] - math.log(b)
        w = np.exp(-s - log_M)
        q1 = (s + w) / (n + 2.0)
        q0 = (s + w / q1) / (n + 1.0)
        q1 *= q0          # in place: one batch-sized temporary fewer
        log_M += np.log(q1)
        return log_M, -1.0 / q0, 1.0 / q1

    return ScalarFn(eval=lambda s: np.exp(ratios(s)[0]), ratios=ratios,
                    support=(0.0, math.inf), label=f"laplace[t^{n}]", nonneg=True)


# ---------------------------------------------------------------------------
# generalized beta kernel family
# ---------------------------------------------------------------------------

def gen_beta_kernel(alpha: float, beta: float, gamma: float, sigma: float) -> ScalarFn:
    """Unit-interval kernel t^{alpha-1} (1-t)^{beta-1} (1-sigma t)^{-gamma}.

    alpha, beta > 0 keep both endpoints integrable; 0 < sigma < 1 keeps the
    tilt factor finite on (0, 1).
    """
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    if not beta > 0:
        raise DomainError("beta must be positive (endpoint integrability)")
    if not (0 < sigma < 1):
        raise DomainError("sigma must lie in (0, 1)")

    def f(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return (t ** (alpha - 1.0) * (1.0 - t) ** (beta - 1.0)
                    * (1.0 - sigma * t) ** (-gamma))

    return ScalarFn(eval=f, support=(0.0, 1.0),
                    label=f"gen_beta({alpha},{beta},{gamma},{sigma})", nonneg=True)


def gen_beta_mixing(alpha: float, beta: float, gamma: float, sigma: float,
                    k: int, quad: QuadSpec = DEFAULT_QUAD) -> MixingDensity:
    """Mixing density induced by the generalized beta kernel."""
    return mixing_from_unit_kernel(gen_beta_kernel(alpha, beta, gamma, sigma), k, quad)


def mixing_from_unit_kernel(f_unit: ScalarFn, k: int,
                            quad: QuadSpec = DEFAULT_QUAD) -> MixingDensity:
    """Mixing density from a unit-interval kernel:

        h(v) = (v+1)^{k/2-2} f_unit(1/(v+1)).
    """
    if k < 3:
        raise DomainError(f"k >= 3 required, got {k}")
    _probe_nonnegative(f_unit, "unit kernel", lo=1e-6, hi=1.0 - 1e-6)

    def h(v):
        v = np.asarray(v, dtype=float)
        return (v + 1.0) ** (k / 2.0 - 2.0) * np.asarray(
            f_unit.eval(1.0 / (v + 1.0)), dtype=float)

    fn = ScalarFn(eval=h, support=(0.0, math.inf),
                  label=f"mixing[{f_unit.label}]", nonneg=True)
    proper, mass = probe_properness(fn, quad)
    return MixingDensity(k=k, h=fn, proper=proper, mass=mass)


# ---------------------------------------------------------------------------
# Chebyshev panels shared by both constructions
# ---------------------------------------------------------------------------

_PANEL_TOL = 1e-14    # largest tail coefficient, relative to the panel's largest value


def _chebyshev_panel(n: int = 32):
    """The reference panel [-1, 1]: its n + 1 Chebyshev-Lobatto nodes in
    ascending order, the matrix taking node values to the values at the
    nodes of their integral from -1, the rows taking node values to the last
    three Chebyshev coefficients, and the barycentric weights."""
    from numpy.polynomial import chebyshev

    x = -np.cos(np.pi * np.arange(n + 1) / n)
    x[n // 2] = 0.0
    to_coeffs = np.linalg.inv(chebyshev.chebvander(x, n))
    cumulative = chebyshev.chebval(x, chebyshev.chebint(to_coeffs, lbnd=-1.0)).T
    cumulative[0] = 0.0
    weights = np.where(np.arange(n + 1) % 2, -1.0, 1.0)
    weights[[0, n]] *= 0.5
    return x, cumulative, to_coeffs[-3:], weights


_NODES, _CUMULATIVE, _TAIL, _BARY = _chebyshev_panel()


def _unresolved(v):
    """Whether each row of node values has a tail coefficient above
    _PANEL_TOL times the row's largest value."""
    return (np.max(np.abs(v @ _TAIL.T), axis=1)
            > _PANEL_TOL * np.max(np.abs(v), axis=1))


def _panel_failure(what):
    """``_quad.bisect``'s error for a panel [lo, hi] of logs it cannot halve."""
    return lambda lo, hi, why: ConstructionError(
        f"{what}: the panels do not resolve it on [{math.exp(lo):.6g}, {math.exp(hi):.6g}]")


def _read_panels(edges, w, *tables):
    """The panel holding each point of w, and each table of node values
    (one row per panel) read there by barycentric interpolation."""
    p = np.clip(np.searchsorted(edges, w, side="right") - 1, 0, edges.size - 2)
    x = ((w - edges[p]) - (edges[p + 1] - w)) / (edges[p + 1] - edges[p])
    d = x[:, None] - _NODES
    hit = d == 0.0
    q = _BARY / np.where(hit, 1.0, d)
    on_node = np.any(hit, axis=1)
    q[on_node] = hit[on_node]
    total = np.sum(q, axis=1)
    return (p,) + tuple(np.sum(q * table[p], axis=1) / total for table in tables)


# ---------------------------------------------------------------------------
# spherical construction: Frobenius start + Chebyshev panels
# ---------------------------------------------------------------------------

@dataclass
class ConstructionSolution:
    """Output of the spherical construction pipeline; ``S_triple`` maps u
    to (S, S', S'') of S = c1 z1 + c2 z2, so F = S^2 u^{(k-1)/2} e^{u^2/2}."""
    k: int
    F: ScalarFn
    z1: ScalarFn
    z2: ScalarFn
    S_triple: Callable
    c1: float
    c2: float
    rho1: float
    rho2: float
    b_coeffs: List[float]


def _frobenius_coeffs(rho: float, k: int, q: Sequence[float], n_terms: int = 6) -> np.ndarray:
    """Series coefficients c_j of z = u^rho sum c_j u^j, c_0 = 1.

    Recurrence from z'' + ((k-1)/u) z' + q(u) z = 0 with
    q(u) = u^{-2} sum q_j u^j:
        c_j I(rho+j) = - sum_{m<j} c_m q_{j-m},
    where I(x) = x(x-1) + (k-1)x + q_0 vanishes exactly at the two roots.
    """
    q = list(q) + [0.0] * n_terms
    c = np.zeros(n_terms)
    c[0] = 1.0
    for j in range(1, n_terms):
        I = (rho + j) * (rho + j - 1.0) + (k - 1.0) * (rho + j) + q[0]
        rhs = -sum(c[m] * q[j - m] for m in range(j))
        c[j] = rhs / I
    return c


def _series_eval(rho: float, coeffs: np.ndarray, u: np.ndarray):
    u = np.asarray(u, dtype=float)
    powers = np.array([u ** j for j in range(len(coeffs))])
    s = np.tensordot(coeffs, powers, axes=(0, 0))
    ds = np.tensordot(coeffs * np.arange(len(coeffs)),
                      np.array([u ** (j - 1.0) for j in range(len(coeffs))]), axes=(0, 0))
    z = u ** rho * s
    dz = rho * u ** (rho - 1.0) * s + u ** rho * ds
    return z, dz


def _pair_panels(phi, b0, friction, left, right):
    """y'' at the nodes of each panel [left, right] in t = log u, for both
    equations y'' + friction_i y' + d y = 0, d = -u^2 (phi(u) - b0/u^2)/2, and
    the two starts (y, y') = (1, 0) and (0, 1) at the panel's left end.  d is
    formed as that difference so that it is exactly 0 for phi = b0/u^2.

    With y' = y'(left) + int y'' and y = y(left) + y'(left) tau + int int y'',
    each is (I + f (h/2) C + d (h/2)^2 C^2) y'' = -f y'(left) - d (y(left) +
    y'(left) tau) for the cumulative matrix C.  Returns shape (panels,
    equation, start, node).
    """
    t = _quad.panel_nodes(left, right, _NODES)
    u = np.exp(t)
    d = -0.5 * u * u * (np.asarray(phi.eval(u.ravel()), dtype=float).reshape(u.shape)
                        - b0 / (u * u))
    if not np.all(np.isfinite(d)):
        row = int(np.argmin(np.all(np.isfinite(d), axis=1)))
        raise ConstructionError(
            f"integration of z1 and z2 failed: phi is not finite on u in "
            f"[{math.exp(left[row]):.6g}, {math.exp(right[row]):.6g}]")
    half = 0.5 * (right - left)[:, None, None, None]
    f = friction[None, :, None, None]
    A = (np.eye(_NODES.size) + f * half * _CUMULATIVE
         + d[:, None, :, None] * half * half * (_CUMULATIVE @ _CUMULATIVE))
    tau = t - left[:, None]
    rhs = np.stack(np.broadcast_arrays(-d[:, None], -friction[:, None] - d[:, None] * tau[:, None]),
                   axis=-1)
    return np.swapaxes(np.linalg.solve(A, rhs), -1, -2)


def _frobenius_pair(phi, b0, friction, t0, t1, start):
    """Both scaled solutions y_i on [t0, t1], from start[i] = (y_i, y_i') at t0.

    Panels are bisected until, for both equations and both starts, the tail
    Chebyshev coefficients of y and y' fall below 1e-14 of the larger of
    their largest values; y'' itself is not judged, since it is rounding
    noise where d vanishes.  Returns the panel edges and y_i, y_i' at every
    node, each of shape (panels, equation, node).
    """
    edges = np.linspace(t0, t1, 1 + math.ceil(t1 - t0))
    d2y = np.empty((edges.size - 1, 2, 2, _NODES.size))
    fresh = np.ones(edges.size - 1, dtype=bool)
    C2 = _CUMULATIVE @ _CUMULATIVE
    while True:
        new = np.nonzero(fresh)[0]
        for block in np.array_split(new, -(-new.size // 256)):   # bounds the linear systems' memory
            d2y[block] = _pair_panels(phi, b0, friction, edges[block], edges[block + 1])
        n = edges.size - 1
        half = 0.5 * np.diff(edges)[:, None, None, None]
        y = half * half * (d2y @ C2.T)
        dy = half * (d2y @ _CUMULATIVE.T)
        y[:, :, 0] += 1.0
        y[:, :, 1] += (_quad.panel_nodes(edges[:-1], edges[1:], _NODES) - edges[:-1, None])[:, None]
        dy[:, :, 1] += 1.0
        scale = np.maximum(np.max(np.abs(y), axis=-1), np.max(np.abs(dy), axis=-1))
        tail = np.maximum(np.max(np.abs(y @ _TAIL.T), axis=-1),
                          np.max(np.abs(dy @ _TAIL.T), axis=-1))
        split = np.any(tail > _PANEL_TOL * scale, axis=(1, 2))
        if not np.any(split):
            break
        edges, parent, fresh = _quad.bisect(edges, np.nonzero(split)[0], _panel_failure(
            "integration of z1 and z2 failed"))
        d2y = d2y[parent]
    # chain the panels from t0: each starts from the end values of the last
    values, slopes = np.empty((n, 2, _NODES.size)), np.empty((n, 2, _NODES.size))
    state = np.array(start, dtype=float)
    for p in range(n):
        values[p] = state[:, :1] * y[p, :, 0] + state[:, 1:] * y[p, :, 1]
        slopes[p] = state[:, :1] * dy[p, :, 0] + state[:, 1:] * dy[p, :, 1]
        state = np.stack((values[p, :, -1], slopes[p, :, -1]), axis=1)
    return edges, values, slopes


def construct_spherical(phi: ScalarFn, k: int, c1: float = 1.0, c2: float = 0.0,
                        u_grid: Optional[Sequence[float]] = None, *,
                        phi_series: Sequence[float]) -> ConstructionSolution:
    """Solve z'' + ((k-1)/u) z' - phi(u) z / 2 = 0 and assemble the profile

        F(u) = (c1 z1 + c2 z2)^2 u^{(k-1)/2} e^{u^2/2}.

    phi must be nonpositive with a generalized-series behaviour
    u^{-2}(b0 + b1 u + ...) at the origin; ``phi_series`` gives b0..b3
    (missing ones are zero).
    Each fundamental solution is z_i = u^{rho_i} y_i with y_i = sum_j c_j u^j
    near 0, from a six-term Frobenius expansion at u0 = 1e-3 (the equation
    is singular at 0).  In t = log u both y_i solve
    y'' + (2 rho_i + k - 2) y' + (b0 - u^2 phi) y / 2 = 0, whose last
    coefficient vanishes at the origin, so each y_i starts flat and a pure
    inverse-square phi gives y_i = 1.  The pair is integrated on Chebyshev
    panels in t as a second-kind integral equation for y'' (Greengard 1991):
    one batched linear solve per round of bisection, the panels chained
    from u0 by their end values.  z1 and z2 are read from that one set of
    panels.
    """
    if k < 3:
        raise DomainError(f"k >= 3 required, got {k}")
    if c1 == 0.0 and c2 == 0.0:
        raise DomainError("(c1, c2) must not both vanish")
    u_grid = np.asarray(u_grid if u_grid is not None else np.geomspace(1e-2, 30.0, 50),
                        dtype=float)
    probe = np.geomspace(1e-4, max(float(np.max(u_grid)), 10.0), 200)
    phi_vals = np.asarray(phi.eval(probe), dtype=float)
    if np.any(phi_vals > 1e-12):
        bad = probe[phi_vals > 1e-12][0]
        raise ConstructionError(f"phi must be nonpositive; phi({bad:.6g}) > 0")

    b = (list(phi_series) + [0.0] * 4)[:4]
    q = [-0.5 * bj for bj in b]
    disc = (k - 2.0) ** 2 - 4.0 * q[0]
    if disc < 0:
        raise ConstructionError(
            "complex indicial roots: the inverse-square coefficient of phi is "
            f"too negative (requires -b0/2 <= (k-2)^2/4, got {q[0]:.6g} > "
            f"{(k - 2.0) ** 2 / 4.0:.6g})")
    sq = math.sqrt(disc)
    rho1 = 0.5 * (-(k - 2.0) - sq)
    rho2 = 0.5 * (-(k - 2.0) + sq)
    diff = rho2 - rho1
    if abs(diff - round(diff)) < 1e-9:
        raise ConstructionError(
            f"indicial root difference {diff:.6g} is an integer (or zero): the "
            "series second solution degenerates; use the closed-form "
            "inverse-square profile instead")

    u0 = 1e-3
    u_max = 1.05 * float(np.max(u_grid))
    rhos = np.array([rho1, rho2])
    coeffs = [_frobenius_coeffs(rho, k, q) for rho in rhos]
    powers = np.arange(len(coeffs[0]))
    start = [(np.sum(c * u0 ** powers), np.sum(powers * c * u0 ** powers)) for c in coeffs]
    # the series serves u <= u0, so the panels start there and span at least [u0, 2 u0]
    edges, y, dy = _frobenius_pair(phi, b[0], 2.0 * rhos + k - 2.0, math.log(u0),
                                   math.log(max(u_max, 2.0 * u0)), start)

    def z_pair(u):
        """(z, z') of both solutions, stacked on a leading axis of two: one
        read of the series or of the panels serves both."""
        u = np.asarray(u, dtype=float)
        w = u.ravel()
        z, dz = np.empty((2, w.size)), np.empty((2, w.size))
        small = w <= u0
        v = w[~small]
        _, *panel = _read_panels(edges, np.log(v), y[:, 0], y[:, 1], dy[:, 0], dy[:, 1])
        for i, rho in enumerate(rhos):
            z[i, small], dz[i, small] = _series_eval(rho, coeffs[i], w[small])
            z[i, ~small] = v ** rho * panel[i]
            dz[i, ~small] = v ** (rho - 1.0) * (panel[2 + i] + rho * panel[i])
        return z.reshape((2,) + u.shape), dz.reshape((2,) + u.shape)

    def S_triple(u):
        """(S, S', S'') of S = c1 z1 + c2 z2, each z'' from the ODE."""
        u = np.asarray(u, dtype=float)
        z, dz = z_pair(u)
        d2z = -((k - 1.0) / u) * dz + 0.5 * np.asarray(phi.eval(u), dtype=float) * z
        return tuple(c1 * x[0] + c2 * x[1] for x in (z, dz, d2z))

    z1, z2 = (ScalarFn(eval=lambda u, i=i: z_pair(u)[0][i], support=(0.0, u_max),
                       label=f"z{i + 1}") for i in (0, 1))
    F = _assemble_profile(S_triple, k, label="constructed_profile", support=(0.0, u_max))
    return ConstructionSolution(k=k, F=F, z1=z1, z2=z2, S_triple=S_triple, c1=c1, c2=c2,
                                rho1=rho1, rho2=rho2, b_coeffs=b)


def _assemble_profile(S_triple, k: int, label: str,
                      support=(0.0, math.inf)) -> ScalarFn:
    """F = S^2 u^{(k-1)/2} e^{u^2/2} through its ratios.

    ``S_triple`` maps u to (S, S', S'').  log F = 2 log|S| + ((k-1)/2) log u
    + u^2/2, F'/F = 2 S'/S + (k-1)/(2u) + u and
    F''/F = (F'/F)^2 + 2 (S''S - S'^2)/S^2 - (k-1)/(2u^2) + 1, all in double
    range where F itself overflows (u past ~37.7).
    """
    e = (k - 1.0) / 2.0

    def parts(u):
        """(u, S, S', S'', log F) at u."""
        u = np.asarray(u, dtype=float)
        S, S1, S2 = (np.asarray(x, dtype=float) for x in S_triple(u))
        with np.errstate(divide="ignore"):
            log_F = 2.0 * np.log(np.abs(S)) + e * np.log(u) + u * u / 2.0
        return u, S, S1, S2, log_F

    def log_F(u):
        return parts(u)[-1]

    def F_ratios(u):
        u, S, S1, S2, lF = parts(u)
        r1 = 2.0 * S1 / S + e / u + u
        curv = 2.0 * (S2 * S - S1 ** 2) / (S * S)
        return lF, r1, r1 * r1 + curv - e / (u * u) + 1.0

    return ScalarFn(eval=lambda u: np.exp(log_F(u)), ratios=F_ratios, support=support,
                    label=label, log_eval=log_F, nonneg=True)


def monomial_pair(b: float, k: int, A1: float = 1.0, A2: float = 0.0):
    """(S, S', S'') triple function of S = A1 u^{rho1} + A2 u^{rho2}.

    rho_{1,2} = (2-k -/+ sqrt((k-2)^2 - 4b))/2 are the indicial roots of the
    inverse-square forcing phi(u) = -2b/u^2, for which both monomials solve
    the construction's Euler-type equation exactly.
    """
    sq = math.sqrt((k - 2.0) ** 2 - 4.0 * b)
    rho1 = 0.5 * (2.0 - k - sq)
    rho2 = 0.5 * (2.0 - k + sq)

    def S_triple(u):
        u = np.asarray(u, dtype=float)
        return (A1 * u ** rho1 + A2 * u ** rho2,
                A1 * rho1 * u ** (rho1 - 1.0) + A2 * rho2 * u ** (rho2 - 1.0),
                A1 * rho1 * (rho1 - 1.0) * u ** (rho1 - 2.0)
                + A2 * rho2 * (rho2 - 1.0) * u ** (rho2 - 2.0))

    return S_triple


def inverse_square_profile(b: float, k: int, A1: float = 1.0, A2: float = 0.0) -> ScalarFn:
    """Closed-form profile for the inverse-square forcing phi(u) = -2b/u^2:

        F(u) = (A1 u^{rho1} + A2 u^{rho2})^2 u^{(k-1)/2} e^{u^2/2},

    with rho_{1,2} = (2-k -/+ sqrt((k-2)^2 - 4b))/2.  The underlying equation
    is of Euler type, so the monomials are exact solutions whenever the roots
    are distinct (integer differences included); only a repeated root is
    rejected.
    """
    if k < 3:
        raise DomainError(f"k >= 3 required, got {k}")
    if not (0.0 <= b <= (k - 2.0) ** 2 / 4.0):
        raise DomainError(f"requires 0 <= b <= (k-2)^2/4 = {(k - 2.0) ** 2 / 4.0}")
    if (k - 2.0) ** 2 - 4.0 * b == 0.0:
        raise ConstructionError(
            f"repeated indicial root rho = {(2.0 - k) / 2.0}: the monomial pair "
            "degenerates (b = (k-2)^2/4)")
    return _assemble_profile(monomial_pair(b, k, A1, A2), k,
                             label=f"inverse_square_profile(b={b})")


def power_exp_S(gamma: float, k: int):
    """(S, S', S'') triple function of S = u^rho, rho = (gamma - (k-1)/2)/2:
    the solution behind the profile u^gamma e^{u^2/2} and its formal
    marginal l = S^2 = u^{gamma + (1-k)/2}."""
    rho = 0.5 * (gamma - 0.5 * (k - 1.0))

    def S_triple(u):
        u = np.asarray(u, dtype=float)
        return u ** rho, rho * u ** (rho - 1.0), rho * (rho - 1.0) * u ** (rho - 2.0)

    return S_triple


def power_exp_profile(gamma: float, k: int) -> ScalarFn:
    """The single-term profile F(u) = u^gamma e^{u^2/2} with derivatives."""
    return _assemble_profile(power_exp_S(gamma, k), k, label=f"u^{gamma} exp(u^2/2)")


# ---------------------------------------------------------------------------
# Whittaker radial family
# ---------------------------------------------------------------------------

def whittaker_radial(gamma: float, k: int) -> RadialPrior:
    """Improper radial family recovered from the profile u^gamma e^{u^2/2}:

        lambda(r) = r^{(k-2)/2} e^{r^2/4} M_{gamma/2+1/4, (k-2)/4}(r^2/2),

    defined up to a constant factor, valid for gamma + (k+1)/2 > 0.  With
    a1 = (k-1)/4 - gamma/2, the factor 1F1(a1; k/2; r^2/2) inside M is
    positive for a1 >= 0; for a1 < 0 it can change sign, so lambda is
    returned signed (``nonneg`` is False), ``log_eval`` gives log|lambda| and
    ``sign`` its sign, which stays defined where lambda overflows.
    When a1 is a nonpositive integer the series terminates and lambda is a
    polynomial; otherwise the density grows like e^{r^2/2}.  Either way it
    never has finite mass.
    """
    if k < 3:
        raise DomainError(f"k >= 3 required, got {k}")
    if not gamma + (k + 1.0) / 2.0 > 0:
        raise DomainError(f"requires gamma + (k+1)/2 > 0, got gamma={gamma}")
    mu = (k - 2.0) / 4.0
    kappa = gamma / 2.0 + 0.25
    a1 = mu + 0.5 - kappa       # = (k-1)/4 - gamma/2
    b1 = 1.0 + 2.0 * mu         # = k/2

    def sign_log_lam(r):
        r = np.asarray(r, dtype=float)
        z = r * r / 2.0
        sign, log_f = specfun.signed_log_kummer_1f1(a1, b1, z)
        with np.errstate(divide="ignore"):
            return sign, ((k - 2.0) / 2.0 * np.log(r) + r * r / 4.0
                          - z / 2.0 + (mu + 0.5) * np.log(z) + log_f)

    def lam_eval(r):
        sign, log_abs = sign_log_lam(r)
        return sign * np.exp(log_abs)

    fn = ScalarFn(eval=lam_eval, support=(0.0, math.inf),
                  label=f"whittaker_radial(gamma={gamma})",
                  log_eval=lambda r: sign_log_lam(r)[1], nonneg=a1 >= 0,
                  sign=None if a1 >= 0 else lambda r: sign_log_lam(r)[0])
    return RadialPrior(k=k, lam=fn, proper=IMPROPER)


# ---------------------------------------------------------------------------
# mixture construction via the squared exponential integral
# ---------------------------------------------------------------------------

_SPAN_LO = 1e-8       # lower end of the panel span, unless a or b lies below
_HORIZON = 1e8        # upper end, and where b = inf appends its power tail
_PHI_FLOOR = -700.0   # the span stops before exp(-Phi), a factor of G'', overflows
_PHI_STEP = 8.0       # largest change of Phi across a panel where I is resolved
_I_ATOL = 1e-160      # a panel adding less to I is not resolved: |I| below ~1e-147
                      # (G below ~1e-294) is held to absolute accuracy only
_POLE_OCTAVES = (10, 26)   # a failed span reads |phi| this many octaves of ulps from its peak


def _chain(f, h, k):
    """The integral of f over panels of widths h, from edge k of the panels.

    Returns (offset, local): at node j of panel p the integral is
    offset[p] + local[p, j].  Panels right of edge k integrate from their
    left edge and panels left of it from their right edge, so every local
    part starts at the edge nearer the anchor and no value is formed as a
    difference of panel totals.
    """
    half = 0.5 * h[:, None]
    fwd = half * (f @ _CUMULATIVE.T)
    bwd = -half * (f[:, ::-1] @ _CUMULATIVE.T)[:, ::-1]
    local = np.where((np.arange(h.size) >= k)[:, None], fwd, bwd)
    total = fwd[:, -1]
    offset = np.zeros(h.size)
    if k > 1:
        offset[:k - 1] = -np.cumsum(total[k - 1:0:-1])[::-1]
    offset[k + 1:] = np.cumsum(total[k:-1])
    return offset, local


def _pole(f, s, values):
    """The point s0 that |f| grows toward from its largest value on the
    points s (values f(s)), and the exponent p of |f| ~ |s - s0|^{-p} on the
    side where |f| grows faster.

    s0 is found by zooming in on the largest |f| of 33 points, 16 times
    narrower each round, to 4 ulps.  Then p = 1 - log2(q(d_hi)/q(d_lo))/n
    with q(d) = d |f(s0 +- d)| at d 2^10 and 2^26 ulps of s0 (n = 16
    octaves): a pole of order p gives that p there, a bounded f gives about
    0, and the integral of f diverges at s0 where p >= 1.
    """
    finite = np.isfinite(values)
    order = np.argsort(s[finite])
    s, v = s[finite][order], np.abs(values[finite][order])
    i = int(np.argmax(v))
    s0, lo, hi = s[i], s[max(i - 1, 0)], s[min(i + 1, s.size - 1)]
    with np.errstate(all="ignore"):   # the probes may land on the pole
        for _ in range(64):
            if not hi - lo > 4.0 * np.spacing(hi):
                break
            x = np.linspace(lo, hi, 33)
            v = np.abs(np.asarray(f(x), dtype=float))
            i = int(np.argmax(np.where(np.isnan(v), np.inf, v)))
            s0, lo, hi = x[i], x[max(i - 1, 0)], x[min(i + 1, 32)]
        small, large = (np.ldexp(np.spacing(s0), n) for n in _POLE_OCTAVES)
        d = np.array([small, large, small, large])
        q = d * np.abs(np.asarray(f(s0 + d * [1.0, 1.0, -1.0, -1.0]), dtype=float))
        p = 1.0 - np.log2(q[1::2] / q[0::2]) / (_POLE_OCTAVES[1] - _POLE_OCTAVES[0])
    return float(s0), float(np.nanmax(p, initial=-np.inf))


def _log_integral(f, e: float, t, quad: QuadSpec) -> np.ndarray:
    """int_e^t f for every t > 0 of an array, in one batch over w = log s."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    le = math.log(e)
    span = np.log(t) - le

    def rows(y):
        x = np.exp(le + np.outer(y, span))
        fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        return span * x * fx

    return _quad.adaptive_batch(rows, 0.0, 1.0, rel_tol=quad.rel_tol,
                                abs_tol=quad.abs_tol)


class _CumulativeIntegral:
    """Phi(s) = int_a^s phi and I(s) = int_b^s exp(-Phi/2) on Chebyshev panels.

    In w = log s both are plain quadratures, dPhi/dw = s phi and
    dI/dw = s exp(-Phi/2), integrated over the span [min(1e-8, a, b),
    max(1e8, a, b)] by piecewise Chebyshev spectral integration (Clenshaw &
    Curtis 1960; Greengard 1991).  Each panel holds 33 Chebyshev-Lobatto
    nodes; a, the anchor of I (b when finite and positive, the horizon 1e8
    when b = inf, the lower end when b = 0) and 1e8 are panel edges.
    Panels are bisected in rounds, one phi evaluation per round, until the
    tail Chebyshev coefficients of s phi and of s exp(-Phi/2) fall below
    1e-14 of the panel's largest value and Phi changes by at most 8 across
    the panel; a panel adding less than 1e-160 to I need not resolve
    exp(-Phi/2).  One fixed matrix integrates every panel, and the panels are
    chained outward from a for Phi and from the anchor for I, so I is never
    a difference of large numbers.  When b = 0, one quadrature from 0 seeds
    I.  The span ends at the last panel before Phi falls below -700, where
    exp(-Phi) would overflow.  Values are read back by barycentric
    interpolation on the panel that holds each point; points past the span
    continue by quadrature from its nearer end.
    """

    def __init__(self, phi: ScalarFn, a: float, b: float, quad: QuadSpec):
        if not (a > 0 and b >= 0):
            raise DomainError(f"requires a > 0 and b >= 0, got a={a}, b={b}")
        self.phi, self.b, self.quad = phi, b, quad
        finite = [x for x in (a, b) if 0.0 < x < math.inf]
        lo, hi = min([_SPAN_LO] + finite), max([_HORIZON] + finite)
        start = lo if b == 0.0 else (_HORIZON if math.isinf(b) else b)
        # the anchors are taken from the same logs as the edges, so each is an edge exactly
        logs = np.log([lo, hi, a, start, _HORIZON])
        w_a, w_start, breaks = logs[2], logs[3], np.unique(logs)
        edges = np.concatenate([np.linspace(w0, w1, 1 + math.ceil((w1 - w0) / 4.0))[:-1]
                                for w0, w1 in zip(breaks[:-1], breaks[1:])] + [breaks[-1:]])
        self.edges, self.Phi, self.Phi_local, f = self._panels(edges, w_a)
        k = int(np.searchsorted(self.edges, w_start))
        if self.edges.size < 2 or not self.edges[0] <= w_start <= self.edges[-1]:
            raise ConstructionError(
                f"exp(-int_a^s phi) overflows at s={start:.6g}")
        self.I, self.I_local = _chain(f, np.diff(self.edges), k)
        if b == 0.0:
            Phi_lo = float(self.Phi[0] + self.Phi_local[0, 0])
            self.I += self._extend(start, Phi_lo, 0.0, start)[1]
        self.w_lo, self.w_hi = float(self.edges[0]), float(self.edges[-1])
        self.offset = 0.0
        if math.isinf(b):
            # I(s) = int_horizon^s E - int_horizon^inf E, the tail a fitted power
            xs = np.geomspace(_HORIZON / 10.0, _HORIZON, 12)
            logE = -0.5 * self._raw(xs)[0]
            slope = float(np.polyfit(np.log(xs), logE, 1)[0])
            if slope >= -1.05:
                raise ConstructionError(
                    "b = inf requires the inner exponential to be integrable at "
                    f"infinity; fitted tail exponent {slope:.3f} >= -1.05")
            self.offset = float(np.exp(logE[-1])) * _HORIZON / (-slope - 1.0)

    def _s_phi(self, left, right):
        """(w, s phi(s)) at the nodes of the panels [left, right] in w."""
        w = _quad.panel_nodes(left, right, _NODES)
        s = np.exp(w)
        return w, s * np.asarray(self.phi.eval(s.ravel()), dtype=float).reshape(s.shape)

    def _panels(self, edges, w_a):
        """Bisect the panels until Phi and I are resolved.

        Returns the edges of the panels before the Phi floor on each side of
        a, the chained Phi on them and s exp(-Phi/2) at their nodes.
        """
        w, s_phi = self._s_phi(edges[:-1], edges[1:])

        def fail(lo, hi, why):
            s0, p = _pole(self.phi.eval, np.exp(w).ravel(), (s_phi / np.exp(w)).ravel())
            # s0 within 4 ulps of the pole moves p by under 4e-4
            if p >= 1.0 - 1e-3:
                return ConstructionError(
                    f"integral of phi from {math.exp(w_a):.6g} diverges near s = {s0:.6g}: "
                    f"|phi| grows like |s - {s0:.6g}|^-{p:.3g}")
            return _panel_failure("mixture construction failed")(lo, hi, why)

        while True:
            h = np.diff(edges)
            k = int(np.searchsorted(edges, w_a))
            Phi, Phi_local = _chain(s_phi, h, k)
            with np.errstate(invalid="ignore"):
                low = np.nonzero(np.min(Phi[:, None] + Phi_local, axis=1) < _PHI_FLOOR)[0]
            lo = int(low[low < k][-1]) + 1 if np.any(low < k) else 0
            hi = int(low[low >= k][0]) if np.any(low >= k) else h.size
            # the panels before the floor, and the one panel past it on each side
            near = np.arange(max(lo - 1, 0), min(hi + 1, h.size))
            bad = ~np.isfinite(s_phi[near]).all(axis=1)
            if np.any(bad):
                raise ConstructionError(
                    f"integral of phi from {math.exp(w_a):.6g} diverges: phi is "
                    f"not finite on s in [{math.exp(edges[near[bad][0]]):.6g}, "
                    f"{math.exp(edges[near[bad][0] + 1]):.6g}]")
            log_f = w[near] - 0.5 * (Phi[near, None] + Phi_local[near])
            top = np.max(log_f, axis=1)
            E_resolved = ((np.ptp(Phi_local[near], axis=1) <= _PHI_STEP)
                          & ~_unresolved(np.exp(log_f - top[:, None])))
            negligible = (top + np.log(h[near]) < math.log(_I_ATOL)) & (near >= lo) & (near < hi)
            split = np.zeros(h.size, dtype=bool)
            split[near] = _unresolved(s_phi[near]) | ~(E_resolved | negligible)
            if not np.any(split):
                keep = slice(lo, hi)
                return (edges[lo:hi + 1], Phi[keep], Phi_local[keep],
                        np.exp(w[keep] - 0.5 * (Phi[keep, None] + Phi_local[keep])))
            edges, parent, fresh = _quad.bisect(edges, np.nonzero(split)[0], fail)
            w, s_phi = w[parent], s_phi[parent]
            new = np.nonzero(fresh)[0]
            w[new], s_phi[new] = self._s_phi(edges[new], edges[new + 1])

    def _extend(self, e, Phi_e, I_e, t):
        """(Phi, I) at t, by quadrature from their values at e.

        With b = 0, I below e is integrated from 0 instead.
        """
        phi, quad = self.phi, self.quad
        tol = dict(rel_tol=quad.rel_tol, abs_tol=quad.abs_tol)

        def E(x):
            with np.errstate(over="ignore"):    # the quadrature reports an overflow as non-finite
                return np.exp(-0.5 * (Phi_e + _log_integral(phi.eval, e, x, quad)))

        if self.b == 0.0 and t <= e:
            lo, hi, base, sign = 0.0, t, 0.0, 1.0    # I anchored at 0
        elif t == 0.0:
            lo, hi, base, sign = 0.0, e, I_e, -1.0
        else:
            lo, hi = sorted((e, t))
            base, sign = I_e, (1.0 if t > e else -1.0)
        try:
            if t == 0.0:
                Phi_t = Phi_e - _quad.integrate_finite(phi.eval, 0.0, e, **tol)
            else:
                Phi_t = Phi_e + _log_integral(phi.eval, e, t, quad)[0]
            if hi == lo:
                seg = 0.0
            elif lo == 0.0:
                seg = _quad.integrate_finite(E, 0.0, hi, **tol)
            else:
                seg = _log_integral(E, lo, hi, quad)[0]
        except QuadratureError as exc:
            raise ConstructionError(
                f"inner integral diverges on ({lo:.6g}, {hi:.6g}): {exc}") from exc
        return Phi_t, base + sign * seg

    def _interpolate(self, w):
        """(Phi, I) at the points w inside the span."""
        p, Phi, I = _read_panels(self.edges, w, self.Phi_local, self.I_local)
        return self.Phi[p] + Phi, self.I[p] + I

    def _raw(self, s):
        """(Phi, I) at the points of the 1-D array s, before the b = inf tail."""
        with np.errstate(divide="ignore"):
            w = np.log(s)
        out = np.empty((2, s.size))
        inside = (w >= self.w_lo) & (w <= self.w_hi)
        if np.any(inside):
            out[:, inside] = self._interpolate(w[inside])
        for i in np.nonzero(~inside)[0]:
            w_e = self.w_lo if w[i] < self.w_lo else self.w_hi
            Phi_e, I_e = self._interpolate(np.array([w_e]))
            out[:, i] = self._extend(math.exp(w_e), float(Phi_e[0]), float(I_e[0]), s[i])
        return out

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        if not np.all(s_arr >= 0):
            raise DomainError("the mixture transform is defined for s >= 0")
        Phi, I = self._raw(s_arr.ravel())
        I = I - self.offset
        if s_arr.ndim == 0:
            return float(Phi[0]), float(I[0])
        return Phi.reshape(s_arr.shape), I.reshape(s_arr.shape)


def construct_G_mixture(phi: ScalarFn, a: float, b: float,
                        quad: QuadSpec = DEFAULT_QUAD,
                        k: Optional[int] = None) -> ScalarFn:
    """Mixture-route transform G(s) = (int_b^s exp(-(1/2) int_a^t phi) dt)^2.

    Its ratios are closed-form:  with E(t) = exp(-(1/2) int_a^t phi) and
    I(s) = int_b^s E,  log G = 2 log|I|,  G'/G = 2 E/I  and
    G''/G = 2 (E/I)^2 - (E/I) phi(s).
    When ``k`` is supplied the bound phi(s) <= k/s is probed first.  Both
    integrals come from one set of Chebyshev panels, built once by
    piecewise spectral integration (:class:`_CumulativeIntegral`), so a
    batch of points costs one barycentric read of the panels for ``eval``
    and one for all three ``ratios``.

    ``b = inf`` is allowed when E is integrable at infinity (tail exponent
    fitted and appended in closed form); it yields the decreasing transforms
    G(s) = (int_s^inf E)^2, e.g. G proportional to s^{2-k} for the boundary
    forcing phi(s) = k/s.
    """
    if k is not None:
        s_probe = np.geomspace(1e-4, 1e3, 120)
        vals = np.asarray(phi.eval(s_probe), dtype=float)
        bad = vals > k / s_probe + 1e-9 * (np.abs(vals) + k / s_probe)
        if np.any(bad):
            witness = float(s_probe[bad][0])
            raise ConstructionError(
                f"phi violates the mixture bound phi(s) <= k/s at s={witness:.6g}")

    cum = _CumulativeIntegral(phi, a, b, quad)

    def G_ratios(s):
        Phi, I = (np.asarray(x, dtype=float) for x in cum(s))
        with np.errstate(divide="ignore"):
            log_G, r = 2.0 * np.log(np.abs(I)), np.exp(-0.5 * Phi) / I
        return log_G, 2.0 * r, 2.0 * r * r - r * np.asarray(phi.eval(s), dtype=float)

    def G_eval(s):
        with np.errstate(divide="ignore"):
            return np.exp(2.0 * np.log(np.abs(np.asarray(cum(s)[1], dtype=float))))

    return ScalarFn(eval=G_eval, ratios=G_ratios, support=(0.0, math.inf),
                    label="constructed_G", nonneg=True)


def prior_from_spec(doc: dict):
    """Validate a prior spec against the family table (``families.prior_from_spec``)."""
    from . import families  # deferred: families builds on this module
    return families.prior_from_spec(doc)
