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
differentiating under the integral sign with the order-raising identity
(x^{-nu} I_nu)' = x^{-nu} I_{nu+1} (DLMF 10.29.4), never from finite
differences.  That identity subtracts no term of size nu/u, so one formula
serves every u down to the origin.  All evaluators are
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
    "squared_profile", "laplace_profile",
]

# marginal_mixture integrates at most this many u per batch: one shared
# partition of 3 * _CHUNK node-major rows, so a 15-node panel buffer holds
# 15 * 3 * 4,096 doubles (1.5 MB).  The value is a speed choice, not an
# accuracy one: the ratios agree across chunk sizes to within the quadrature
# tolerance.  On the mixture risk workload (32,768 u per point, 2-vCPU KVM
# guest) 4,096 gave the shortest pass of 2,048, 3,072, 8,192 and 16,384;
# smaller chunks refine more partitions, larger ones stream larger buffers.
_CHUNK = 4096


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

    With w(r) = e^{-r^2/2} r^{-nu} lambda(r) the marginal is
    l = A e^{-u^2/2} K(u), K = u^{-nu} J0, and the order-raising identity
    (x^{-nu} I_nu)' = x^{-nu} I_{nu+1} (DLMF 10.29.4) gives

        K'/K  = J1/J0,
        K''/K = J2/J0 - (2 nu + 1) J1/(u J0),

    with J0 = int w I_nu(ur) dr, J1 = int w r I_{nu+1}(ur) dr and
    J2 = int w r^2 I_nu(ur) dr.  Then l'/l = K'/K - u and
    l''/l = u^2 - 1 - 2u K'/K + K''/K.  No term of size nu/u is subtracted,
    so this one formula serves every u > 0; u = 0 is evaluated as its limit
    at u = 1e-300.  The integrands are built from log|lambda|, so a signed
    lambda raises DomainError rather than being integrated as |lambda|.
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
        with np.errstate(all="ignore"):
            out = -0.5 * r * r - nu * np.log(r) + lam.log_abs(r)
        return np.where(np.isnan(out), -np.inf, out)

    def log_i(order, x):
        """log I_order(x), from the scaled kernel."""
        with np.errstate(all="ignore"):
            return specfun.log_bessel_i_scaled(order, x) + x

    def _triple(u):
        u = np.maximum(np.atleast_1d(u), 1e-300)
        n = len(u)

        def rows(r):
            r = np.asarray(r, dtype=float)
            lw = log_w(r)[:, None]
            with np.errstate(divide="ignore"):
                logr = np.log(r)[:, None]
            ur = (r[:, None] * u).ravel()
            b_nu = log_i(nu, ur).reshape(r.size, n)
            out = np.empty((r.size, 3 * n))
            np.add(lw, b_nu, out=out[:, :n])
            np.add(lw + logr, log_i(nu + 1.0, ur).reshape(r.size, n), out=out[:, n:2 * n])
            np.add(lw + 2.0 * logr, b_nu, out=out[:, 2 * n:])
            return out

        u_max = float(np.max(u))

        def scan_fn(r):
            # I_{nu+1} < I_nu (DLMF 10.37.1), so this bounds every row
            r = np.asarray(r, dtype=float)
            with np.errstate(divide="ignore"):
                return log_w(r) + log_i(nu, u_max * r) + 2.0 * np.maximum(np.log(r), 0.0)

        _, hi_eff, _ = _quad.scan_log_peak(scan_fn, r_lo, r_hi_sup, quad.tail_cut)
        logs = _quad.integrate_rows_log(rows, r_lo, hi_eff, quad.rel_tol,
                                        quad.max_depth)
        logJ0, logJ1, logJ2 = logs[:n], logs[n:2 * n], logs[2 * n:]
        log_u = np.log(u)
        dK = np.exp(logJ1 - logJ0)                                   # K'/K
        d2K = np.exp(logJ2 - logJ0) - (2.0 * nu + 1.0) * np.exp(logJ1 - logJ0 - log_u)
        log_ell = logA - 0.5 * u * u - nu * log_u + logJ0
        return log_ell, dK - u, u * u - 1.0 - 2.0 * u * dK + d2K

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
        m = len(u)
        u2 = np.square(u)
        neg_u, neg_half_u2 = -u, -0.5 * u2

        def rows(t):
            # the l, l', l'' integrand blocks side by side in one node-major buffer
            t = np.asarray(t, dtype=float)
            tc = t[:, None]
            out = np.empty((t.size, 3 * m))
            base, r1, r2 = out[:, :m], out[:, m:2 * m], out[:, 2 * m:]
            np.multiply(tc, neg_half_u2, out=base)
            np.exp(base, out=base)
            base *= kernel(t)[:, None]
            np.multiply(tc, neg_u, out=r1)
            r1 *= base
            np.multiply(np.square(tc), u2, out=r2)
            r2 -= tc
            r2 *= base
            return out

        total = _quad.integrate_rows(rows, t_lo, t_hi, quad.rel_tol,
                                     quad.abs_tol, quad.max_depth)
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
