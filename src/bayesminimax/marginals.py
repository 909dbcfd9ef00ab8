"""Spherical marginal profiles l(u) with first and second derivatives.

For a spherical prior with radial density lambda the marginal of
X ~ N_k(theta, I) is m(x) = l(|x|) with

    l(u) = Gamma(k/2)/(2 pi^{k/2}) * e^{-u^2/2} u^{-(k-2)/2}
           * int_0^inf e^{-r^2/2} r^{-(k-2)/2} I_{(k-2)/2}(u r) lambda(r) dr,

and for a variance mixture with mixing density h

    l(u) = (2 pi)^{-k/2} int_0^inf h(v) (v+1)^{-k/2} e^{-u^2/(2(1+v))} dv.

Every route ends in one evaluation contract: a :class:`MarginalProfile`
carries a single ``triple_fn`` that returns (log l, l'/l, l''/l) for a batch
of u in one pass, so quadrature routes integrate their rows over one shared
partition and closed forms share their special-function values.  The Bayes
rule, SURE and the sqrt-superharmonicity conditions read l only through the
ratios, which stay in double range where l itself (with its factor
(2 pi)^{-k/2}) does not.  ``triple`` derives the linear (l, l', l'') and the
``ell`` view exposes it as a ScalarFn.  One layer down a ScalarFn carries one
``triple`` callable, so a Laplace-route profile reads (G, G', G'') in one
call.  The two shapes that several families share have one constructor
each: :func:`squared_profile` for l = S^2 and :func:`laplace_profile` for
l = e^{log_scale} G(u^2/2).

Marginals pair e^{-u^2/2} decay against e^{ur}-growing Bessel kernels, so the
radial route is evaluated entirely in log space; derivatives come from
differentiating under the integral sign (Bessel recurrence
I_nu' = I_{nu-1} - (nu/x) I_nu plus the modified Bessel equation for the
second derivative), never from finite differences.  All evaluators are
vectorized over u: one shared adaptive panel partition serves a whole query
batch, which is what makes Monte Carlo risk runs with ~1e6 marginal
evaluations cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from . import _quad, specfun
from .errors import DomainError
from .priors import MixingDensity, RadialPrior, monomial_laplace_G
from .transforms import DEFAULT_QUAD, QuadSpec, ScalarFn

__all__ = [
    "MarginalProfile", "marginal_radial", "marginal_mixture",
    "marginal_strawderman", "monomial_mixture_profile", "flat_profile",
    "power_law_profile", "squared_profile", "laplace_profile",
]

_SMALL_U = 1e-2   # marginal_radial uses its origin series below this u
_CHUNK = 16384    # marginal_mixture integrates at most this many u per batch


@dataclass
class MarginalProfile:
    """The marginal labeling function l(u), given by its log-ratio triple,
    plus its route.

    ``triple_fn`` maps a float array u to (log l, l'/l, l''/l) evaluated
    together.
    """
    k: int
    route: str
    triple_fn: Callable
    extra: Dict = None

    def __post_init__(self):
        if self.extra is None:
            self.extra = {}

    def ratios(self, u) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(log l, l'/l, l''/l) vectorized over u, in one call of triple_fn."""
        return tuple(np.asarray(x, dtype=float)
                     for x in self.triple_fn(np.asarray(u, dtype=float)))

    def triple(self, u) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(l, l', l'') = l (1, l'/l, l''/l), derived from ``ratios``; l
        underflows to 0 where log l falls below the double range."""
        log_ell, r1, r2 = self.ratios(u)
        ell = np.exp(log_ell)
        return ell, ell * r1, ell * r2

    @property
    def ell(self) -> ScalarFn:
        """Read-only view of l: ``eval`` is triple()[0], ``triple`` is triple()."""
        return ScalarFn(eval=lambda u: self.triple(u)[0], triple=self.triple,
                        support=(0.0, math.inf), label=self.route)


def flat_profile(k: int) -> MarginalProfile:
    """Constant marginal surrogate: the Bayes rule degenerates to delta(x)=x."""
    def triple(u):
        return np.zeros_like(u), np.zeros_like(u), np.zeros_like(u)

    return MarginalProfile(k=k, route="flat", triple_fn=triple)


def power_law_profile(k: int, exponent: float) -> MarginalProfile:
    """Formal power-law profile l(u) = u^exponent.

    Used for families whose marginal is known only as a formal transform
    identity (the Whittaker radial family has l proportional to
    u^{gamma+(1-k)/2} in that sense); the actual marginal integral diverges,
    which is flagged by route = formal_power_law.
    """
    p = exponent

    def triple(u):
        return p * np.log(u), p / u, p * (p - 1.0) / (u * u)

    return MarginalProfile(k=k, route="formal_power_law", triple_fn=triple,
                           extra={"formal": True, "exponent": p})


def squared_profile(k: int, S_triple: Callable, route: str,
                    extra: Dict = None) -> MarginalProfile:
    """Profile l = S^2 from the triple (S, S', S'') of a solution combination.

    l'/l = 2 S'/S and l''/l = 2 ((S'/S)^2 + S''/S).  This is the formal marginal
    h(u) F(u) of the spherical construction: the Gaussian factors of h and
    F = S^2 u^{(k-1)/2} e^{u^2/2} cancel exactly.
    """
    def triple(u):
        S, S1, S2 = S_triple(u)
        r = S1 / S
        return 2.0 * np.log(np.abs(S)), 2.0 * r, 2.0 * (r * r + S2 / S)

    return MarginalProfile(k=k, route=route, triple_fn=triple, extra=extra)


def laplace_profile(G: ScalarFn, k: int, route: str, log_scale: float) -> MarginalProfile:
    """Profile of the mixture identification l(u) = e^{log_scale} G(u^2/2).

    l'/l = u G'(s)/G(s) and l''/l = (u^2 G''(s) + G'(s))/G(s) at s = u^2/2,
    from one ``G.triple`` call per triple.
    """
    def triple(u):
        s = 0.5 * np.square(u)
        G0, G1, G2 = (np.asarray(x, dtype=float) for x in G.triple(s))
        return log_scale + np.log(G0), u * G1 / G0, (np.square(u) * G2 + G1) / G0

    return MarginalProfile(k=k, route=route, triple_fn=triple)


# ---------------------------------------------------------------------------
# radial quadrature route
# ---------------------------------------------------------------------------

def marginal_radial(prior: RadialPrior, quad: QuadSpec = DEFAULT_QUAD) -> MarginalProfile:
    """Marginal profile by log-space quadrature against the Bessel kernel.

    Derivatives in u go through J0 = int w I_nu(ur) dr,
    J1 = int w r I_{nu-1}(ur) dr and J2 = int w r^2 I_nu(ur) dr with
    w(r) = e^{-r^2/2} r^{-nu} lambda(r):

        J0'  = J1 - (nu/u) J0,
        J0'' = J2 + (nu^2/u^2) J0 - J0'/u      (modified Bessel equation),

    combined with the log-derivatives of the prefactor e^{-u^2/2} u^{-nu}.
    Below u = 0.01 the removable 0/0 form is replaced by the series from
    the leading Bessel terms.  The integrands are built from log|lambda|, so
    a signed lambda raises DomainError rather than being integrated as
    |lambda|.
    """
    if not prior.lam.nonneg:
        raise DomainError(f"radial quadrature needs a nonnegative lambda, got the "
                          f"signed {prior.lam.label!r}")
    k = prior.k
    nu = (k - 2.0) / 2.0
    logA = math.lgamma(0.5 * k) - math.log(2.0) - 0.5 * k * math.log(math.pi)
    lam = prior.lam
    r_lo = max(lam.support[0], 0.0)
    r_hi_sup = lam.support[1]

    def log_w(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(all="ignore"):
            out = -0.5 * r * r - nu * np.log(r) + lam.log_abs(r)
        return np.where(np.isnan(out), -np.inf, out)

    # moments for the small-u series: M_j = int r^j e^{-r^2/2} lambda(r) dr
    def _moments():
        def rows(r):
            r = np.asarray(r, dtype=float)
            base = -0.5 * r * r + lam.log_abs(r)
            return np.stack([base, base + 2.0 * np.log(r), base + 4.0 * np.log(r)])

        lo_eff, hi_eff, peak = _quad.scan_log_peak(
            lambda r: np.max(rows(r), axis=0), max(r_lo, 0.0),
            r_hi_sup, quad.tail_cut)
        logs = _quad.integrate_rows_log(rows, max(r_lo, 0.0), hi_eff,
                                        quad.rel_tol, quad.max_depth)
        return np.exp(logs - logs[0]), logs[0]  # (1, M2/M0, M4/M0), log M0

    mom_ratio, log_M0 = _moments()

    def _eval_large(u):
        rows_n = len(u)

        def rows(r):
            r = np.asarray(r, dtype=float)
            lw = log_w(r)
            ur = u[:, None] * r[None, :]
            with np.errstate(all="ignore"):
                b_nu = specfun.log_bessel_i_scaled(nu, ur.ravel()).reshape(ur.shape)
                b_nu1 = specfun.log_bessel_i_scaled(nu - 1.0, ur.ravel()).reshape(ur.shape)
                logr = np.log(r)[None, :]
            j0 = lw[None, :] + b_nu + ur
            j1 = lw[None, :] + logr + b_nu1 + ur
            j2 = lw[None, :] + 2.0 * logr + b_nu + ur
            return np.concatenate([j0, j1, j2], axis=0)

        u_max = float(np.max(u))

        def scan_fn(r):
            r = np.asarray(r, dtype=float)
            ur = u_max * r
            with np.errstate(all="ignore"):
                return (log_w(r) + specfun.log_bessel_i_scaled(nu, ur) + ur
                        + 2.0 * np.maximum(np.log(r), 0.0))

        lo_eff, hi_eff, peak = _quad.scan_log_peak(scan_fn, r_lo, r_hi_sup,
                                                   quad.tail_cut)
        logs = _quad.integrate_rows_log(rows, r_lo, hi_eff, quad.rel_tol,
                                        quad.max_depth)
        logJ0, logJ1, logJ2 = logs[:rows_n], logs[rows_n:2 * rows_n], logs[2 * rows_n:]
        j1 = np.exp(logJ1 - logJ0)
        j2 = np.exp(logJ2 - logJ0)
        dJ = j1 - nu / u                    # J0'/J0
        d2J = j2 + (nu / u) ** 2 - dJ / u   # J0''/J0
        dP = -u - nu / u                    # P'/P for P = e^{-u^2/2} u^{-nu}
        d2P = dP * dP + (-1.0 + nu / (u * u))
        log_ell = logA - 0.5 * u * u - nu * np.log(u) + logJ0
        return log_ell, dP + dJ, d2P + 2.0 * dP * dJ + d2J

    def _eval_small(u):
        # l(u) = B e^{-u^2/2} [M0 + u^2 M2 / (4(nu+1)) + u^4 M4 / (32(nu+1)(nu+2))]
        log_B = logA - nu * math.log(2.0) - math.lgamma(nu + 1.0) + log_M0
        c2 = mom_ratio[1] / (4.0 * (nu + 1.0))
        c4 = mom_ratio[2] / (32.0 * (nu + 1.0) * (nu + 2.0))
        poly = 1.0 + c2 * u * u + c4 * u ** 4
        dpoly = 2.0 * c2 * u + 4.0 * c4 * u ** 3
        d2poly = 2.0 * c2 + 12.0 * c4 * u * u
        return (log_B - 0.5 * u * u + np.log(poly), (dpoly - u * poly) / poly,
                (d2poly - 2.0 * u * dpoly + (u * u - 1.0) * poly) / poly)

    def _triple(u):
        u = np.atleast_1d(u)
        out = np.empty((3, u.size))
        small = u < _SMALL_U
        if np.any(small):
            out[:, small] = _eval_small(u[small])
        if np.any(~small):
            out[:, ~small] = _eval_large(u[~small])
        return tuple(out)

    return MarginalProfile(k=k, route="radial_quadrature", triple_fn=_triple)


# ---------------------------------------------------------------------------
# mixture quadrature route
# ---------------------------------------------------------------------------

def marginal_mixture(h: MixingDensity, quad: QuadSpec = DEFAULT_QUAD) -> MarginalProfile:
    """Marginal of a variance mixture, through t = 1/(1+v):

        l(u) = (2 pi)^{-k/2} int_0^1 t^{k/2-2} h((1-t)/t) e^{-u^2 t/2} dt.

    l' and l'' use the exactly differentiated integrands (-ut) and
    (u^2 t^2 - t) times the same kernel, so l'/l and l''/l are quotients of
    integrals over one partition and the constant factor enters only log l.
    """
    k = h.k
    log_C = -0.5 * k * math.log(2.0 * math.pi)
    v_lo = max(h.h.support[0], 0.0)
    v_hi = h.h.support[1]
    t_lo = 0.0 if math.isinf(v_hi) else 1.0 / (1.0 + v_hi)
    t_hi = 1.0 / (1.0 + v_lo)

    def kernel(t):
        t = np.asarray(t, dtype=float)
        v = (1.0 - t) / t
        with np.errstate(divide="ignore"):
            return t ** (k / 2.0 - 2.0) * np.asarray(h.h.eval(v), dtype=float)

    def _triple_chunk(u):
        def rows(t):
            t = np.asarray(t, dtype=float)
            kern = kernel(t)[None, :]
            damp = np.exp(-0.5 * np.square(u)[:, None] * t[None, :])
            base = kern * damp
            r0 = base
            r1 = base * (-u[:, None] * t[None, :])
            r2 = base * (np.square(u)[:, None] * np.square(t)[None, :] - t[None, :])
            return np.concatenate([r0, r1, r2], axis=0)

        total = _quad.integrate_rows(rows, t_lo, t_hi, quad.rel_tol,
                                     quad.abs_tol, quad.max_depth)
        m = len(u)
        J0 = total[:m]
        return log_C + np.log(J0), total[m:2 * m] / J0, total[2 * m:] / J0

    def _triple(u):
        u = np.atleast_1d(u)
        out = np.empty((3, u.size))
        for start in range(0, len(u), _CHUNK):
            sl = slice(start, start + _CHUNK)
            out[:, sl] = _triple_chunk(u[sl])
        return tuple(out)

    return MarginalProfile(k=k, route="mixture_quadrature", triple_fn=_triple)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def marginal_strawderman(a: float, k: int) -> MarginalProfile:
    """Closed-form Strawderman marginal, the normalized probability marginal
    of the mixture representation h(v) = (1-a)(1+v)^{a-2}:

        l(u) = (1-a) (2 pi)^{-k/2} / c * 1F1(c; c+1; -u^2/2),   c = k/2-a+1.

    Since 1F1(c; c+1; -s) = c s^{-c} gamma(c, s) (DLMF 13.6), this is
    (1-a) (2 pi)^{-k/2} G(u^2/2) with G the Laplace transform of t^{k/2-a}
    on (0,1): the example1 profile with real n = k/2 - a, through the same
    incomplete gamma.
    """
    if not (0.0 <= a < 1.0):
        raise DomainError(f"requires 0 <= a < 1, got {a}")
    if k < 3:
        raise DomainError(f"k >= 3 required, got {k}")
    return laplace_profile(monomial_laplace_G(k / 2.0 - a), k,
                           "strawderman_closed_form",
                           math.log1p(-a) - 0.5 * k * math.log(2.0 * math.pi))


def monomial_mixture_profile(n: int, k: int) -> MarginalProfile:
    """Closed-form marginal for the monomial-kernel mixture family:

        l(u) = (2 pi)^{-k/2} G(u^2/2)

    with G the Laplace transform of t^n on (0,1) (regularized incomplete
    gamma form).  This is the marginal of the unnormalized mixing density
    (v+1)^{k/2-2-n}.
    """
    prof = laplace_profile(monomial_laplace_G(n), k, "mixture_closed_form",
                           -0.5 * k * math.log(2.0 * math.pi))
    prof.extra["n"] = n
    return prof
