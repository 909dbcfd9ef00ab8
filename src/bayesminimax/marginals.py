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
radial route is evaluated entirely in log space.  It integrates the positive
ascending series of I_nu term by term: the I-transform becomes a power series
in u^2/4 whose coefficients are radial moments of the prior, integrated once
per batch, and l'/l and l''/l are the exact derivatives of that series, never
finite differences.  Its terms hold no factor of size nu/u, so one formula
serves every u down to the origin.  All evaluators are vectorized over u:
one shared adaptive panel partition serves a whole query batch, which is
what makes Monte Carlo risk runs with ~1e6 marginal evaluations cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np
from scipy.special import gammaln

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

# marginal_radial sums its moment series over blocks of u whose (block, N+1)
# term array holds this many doubles (2 MB), reused in place across blocks;
# one array over every u would set the peak memory of a Monte Carlo batch.
_SUM_BLOCK = 1 << 18
# marginal_radial evaluates u below this at this value: x = u^2/4 stays a
# normal double, so the weights of the j = 1, 2 terms keep their digits
_U_MIN = 1e-100


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
    """Marginal profile from the radial moments of the I-transform.

    With w(r) = e^{-r^2/2} r^{-nu} lambda(r) the marginal is
    l = A e^{-u^2/2} K(u), K = u^{-nu} int_0^R w I_nu(ur) dr.  Every term of
    the ascending series of I_nu (DLMF 10.25.2) is positive, so integrating it
    term by term turns K into a power series in x = u^2/4,

        K(u) = 2^{-nu} sum_{j<=N} a_j x^j,
        a_j = mu_{nu+2j} / (j! Gamma(nu+j+1)),   mu_p = int_0^R w r^p dr,

    and, with E the mean under the weights a_j x^j,

        K'/K = (2/u) E[j],   K''/K = E[j]/(2x) + E[j(j-1)]/x.

    Then l'/l = K'/K - u and l''/l = u^2 - 1 - 2u K'/K + K''/K.  R comes from
    one scan of the Bessel integrand at the batch's largest u; the N + 1
    moments from one log-space row batch on [r_lo, R].  N is the Bessel stop
    rule at z = (u_max R)^2/4 for the orders nu, nu + 1 and nu + 2 shifted
    by 0, 1 and 2 terms (the j- and j(j-1)-weighted series), so a relative
    tail below roundoff at every r <= R and u <= u_max bounds the tail of
    each integrated sum; past 10,000 terms EvaluationError is raised.  The
    sum over j runs in blocks of u.  u is clamped at 1e-100, so that x stays
    a normal double and u = 0 is evaluated as its limit.  The integrands are
    built from log|lambda|, so a signed lambda raises DomainError rather than
    being integrated as |lambda|.
    """
    if not prior.lam.nonneg:
        raise DomainError(f"radial quadrature needs a nonnegative lambda, got the "
                          f"signed {prior.lam.label!r}")
    k = prior.k
    nu = (k - 2.0) / 2.0
    log_scale = math.lgamma(0.5 * k) - 0.5 * k * math.log(2.0 * math.pi)   # log(A 2^{-nu})
    lam = prior.lam
    r_lo = max(lam.support[0], 0.0)
    r_hi_sup = lam.support[1]

    def log_w(r):
        with np.errstate(all="ignore"):
            out = -0.5 * r * r - nu * np.log(r) + lam.log_abs(r)
        return np.where(np.isnan(out), -np.inf, out)

    def _triple(u):
        u = np.atleast_1d(u)
        uc = np.maximum(u, _U_MIN)
        x = 0.25 * np.square(uc)
        u_max = float(np.max(uc))

        def scan_fn(r):
            # the Bessel integrand at u_max, times the r^2 of the K'' weight
            r = np.asarray(r, dtype=float)
            with np.errstate(all="ignore"):
                return (log_w(r) + specfun.log_bessel_i_scaled(nu, u_max * r) + u_max * r
                        + 2.0 * np.maximum(np.log(r), 0.0))

        _, hi_eff, _ = _quad.scan_log_peak(scan_fn, r_lo, r_hi_sup, quad.tail_cut)
        z = 0.25 * (u_max * hi_eff) ** 2
        n = max(shift + specfun.bessel_series_length(nu + shift, z) for shift in range(3))
        j = np.arange(n + 1.0)
        powers = nu + 2.0 * j

        def rows(r):
            with np.errstate(divide="ignore"):
                logr = np.log(np.asarray(r, dtype=float))
            return log_w(r)[:, None] + np.multiply.outer(logr, powers)

        log_mu = _quad.integrate_rows_log(rows, r_lo, hi_eff, quad.rel_tol, quad.max_depth)
        log_a = log_mu - gammaln(j + 1.0) - gammaln(nu + j + 1.0)
        j_weights = np.stack([np.ones_like(j), j, j * (j - 1.0)], axis=1)   # 1, j, j(j-1)
        log_x = np.log(x)
        log_top, sums = np.empty_like(u), np.empty((u.size, 3))
        block = max(1, _SUM_BLOCK // (n + 1))
        buf = np.empty((min(block, u.size), n + 1))
        for start in range(0, u.size, block):
            sl = slice(start, start + block)
            t = buf[:min(block, u.size - start)]   # log a_j + j log x, then its weights
            np.multiply.outer(log_x[sl], j, out=t)
            t += log_a
            np.max(t, axis=1, out=log_top[sl])
            t -= log_top[sl, None]
            np.exp(t, out=t)
            np.matmul(t, j_weights, out=sums[sl])
        s0 = sums[:, 0]
        q = sums[:, 1] / (s0 * x)                                    # E[j]/x
        dK = 0.5 * u * q                                             # K'/K
        d2K = 0.5 * q + sums[:, 2] / (s0 * x)                        # K''/K
        log_ell = log_scale - 0.5 * u * u + log_top + np.log(s0)
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
