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

Both quadrature routes are positive moment series in log space, and one
evaluator (:func:`_series_profile`) serves them: l = e^{log_scale - c y}
sum_j b_j y^j with y = kappa u^2 and coefficients b_j that do not depend on
u.  The radial route pairs e^{-u^2/2} decay against e^{ur}-growing Bessel
kernels; it integrates the positive ascending series of I_nu term by term,
so the I-transform becomes a power series in u^2/4 whose coefficients are
radial moments of the prior.  The mixture route is a Laplace transform in
s = u^2/2; on each level of u it expands e^{-st} about the upper end c of
the level's window in t, where every term is positive, so its coefficients
are moments of (c - t)^j.  Each route only builds a level's table; the
evaluator sums it, so Monte Carlo risk runs with ~1e6 marginal evaluations
stay cheap and reproducible.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from scipy.special import gammaln

from . import _quad, specfun
from .errors import DomainError, EvaluationError
from .priors import MixingDensity, RadialPrior, monomial_laplace_G
from .transforms import DEFAULT_QUAD, QuadSpec, ScalarFn

__all__ = [
    "MarginalProfile", "marginal_radial", "marginal_mixture",
    "marginal_strawderman", "monomial_mixture_profile", "flat_profile",
    "squared_profile", "laplace_profile",
]

# Both series routes sum their moment series over blocks of u whose
# (block, N+1) term array holds this many doubles (0.5 MB), reused in place
# across blocks; one array over every u would set the peak memory of a Monte
# Carlo batch, and concurrent batches each hold their own.
_SUM_BLOCK = 1 << 16
# Both series routes put u on a fixed geometric ladder of horizons
# L_i = _LADDER_FLOOR * _LADDER_RATIO^i, i >= 0: u takes the smallest
# L_i >= u, and the level fixes the term count N of u's moment series.  A
# finer ladder builds more levels, a coarser one sums more terms per u (those
# of a horizon up to _LADDER_RATIO times u).  The radial coefficients a_j are
# integrated once per profile, _MOMENT_BLOCK of them at a time, and every
# level sums a prefix of that one list; a larger block integrates more
# moments that no level may need, a smaller one makes more scans and row
# batches.
_LADDER_RATIO = math.sqrt(2.0)
_LADDER_FLOOR = 4.0
_MOMENT_BLOCK = 64
# The series routes evaluate u below this at this value: u^2 stays a normal
# double, so the weights of the j = 1, 2 terms keep their digits
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


def squared_profile(k: int, S_triple: Callable, route: str) -> MarginalProfile:
    """Profile l = S^2 from the triple (S, S', S'') of a solution combination.

    l'/l = 2 S'/S and l''/l = 2 ((S'/S)^2 + S''/S).  This is the formal marginal
    h(u) F(u) of the spherical construction: the Gaussian factors of h and
    F = S^2 u^{(k-1)/2} e^{u^2/2} cancel exactly.
    """
    def triple(u):
        S, S1, S2 = S_triple(u)
        r = S1 / S
        return 2.0 * np.log(np.abs(S)), 2.0 * r, 2.0 * (r * r + S2 / S)

    return MarginalProfile(k=k, route=route, triple_fn=triple)


def laplace_profile(G: ScalarFn, k: int, route: str, log_scale: float) -> MarginalProfile:
    """Profile of the mixture identification l(u) = e^{log_scale} G(u^2/2).

    l'/l = u G'(s)/G(s) and l''/l = (u^2 G''(s) + G'(s))/G(s) at s = u^2/2,
    from one ``G.triple`` call per triple and one division by G.
    """
    def triple(u):
        u2 = np.square(u)
        G0, G1, G2 = (np.asarray(x, dtype=float) for x in G.triple(0.5 * u2))
        inv = 1.0 / G0
        return log_scale + np.log(G0), u * G1 * inv, (u2 * G2 + G1) * inv

    return MarginalProfile(k=k, route=route, triple_fn=triple)


# ---------------------------------------------------------------------------
# the moment series of both quadrature routes
# ---------------------------------------------------------------------------

def _series_profile(k: int, route: str, log_scale: float, kappa: float,
                    build: Callable) -> MarginalProfile:
    """Profile of l(u) = e^{log_scale - c y} sum_{j<=N} b_j y^j, y = kappa u^2,
    from one table per level of u.

    u sits on a fixed geometric ladder of horizons L_i (ratio
    ``_LADDER_RATIO`` from ``_LADDER_FLOOR``) and takes the smallest
    L_i >= u.  ``build(level)`` gives the level's (top, c, log b_j, error)
    the first time a u needs it, behind one lock, since Monte Carlo batches
    call ``ratios`` from worker threads; a warm call builds nothing and only
    sums.  A u past its level's ``top``, or on a level with no coefficients
    (log b_j None), raises EvaluationError naming ``error``.  With E the mean
    under the weights b_j y^j, q = E[j]/y, w = 2 kappa u = dy/du, d1 = q - c
    and d2 = E[j(j-1)]/y/y - 2 c q + c^2 (divided by y twice since y^2
    underflows at the clamp),

        log l = log_scale - c y + log sum_j b_j y^j,
        l'/l = w d1,   l''/l = 2 kappa d1 + w^2 d2,

    the exact derivatives of the series, never finite differences.  The terms
    hold no factor of size 1/u, so one formula serves every u down to the
    origin: u is clamped at ``_U_MIN``, so that y stays a normal double and
    u = 0 is evaluated as its limit; a NaN u gives NaN.  Each u's sums are
    reduced on their own, so the value at u does not depend on the batch it
    comes in.
    """
    tables, lock = {}, threading.Lock()

    def triple(u):
        u = np.atleast_1d(u)
        uc = np.maximum(u, _U_MIN)
        y = kappa * np.square(uc)
        log_y = np.log(y)
        level = np.maximum(np.ceil(np.log(uc / _LADDER_FLOOR) / math.log(_LADDER_RATIO)), 0.0)
        level += _horizon(level) < uc   # L >= u despite rounding
        c, log_top = np.full_like(y, np.nan), np.full_like(y, np.nan)
        sums = np.full((3, u.size), np.nan)
        for lv in np.unique(level[~np.isnan(level)]).tolist():
            with lock:
                if lv not in tables:
                    tables[lv] = build(lv)
                top, c_level, log_b, error = tables[lv]
            idx = np.flatnonzero(level == lv)
            u_hi = float(np.max(uc[idx]))
            if log_b is None or u_hi > top:
                raise EvaluationError(f"{error} ({route} moment series: u = {u_hi:.6g} is "
                                      f"past its horizon {top:.6g})", horizon=top, u=u_hi)
            c[idx] = c_level
            log_top[idx], sums[:, idx] = _moment_sums(log_y[idx], log_b)
        q = sums[1] / (sums[0] * y)
        d1 = q - c
        d2 = sums[2] / sums[0] / y / y - 2.0 * c * q + c * c
        w = 2.0 * kappa * u
        return (log_scale - c * y + log_top + np.log(sums[0]), w * d1,
                2.0 * kappa * d1 + w * w * d2)

    return MarginalProfile(k=k, route=route, triple_fn=triple)


def _horizon(level):
    """The u horizon of a ladder level."""
    return _LADDER_FLOOR * _LADDER_RATIO ** level


def _moment_sums(log_y, log_b):
    """Max log term and the 1-, j- and j(j-1)-weighted sums of b_j y^j / max
    at each log y, in blocks of u whose term array is reused in place.  Each
    row is reduced on its own, so its sums do not depend on the block."""
    m, j = log_y.size, np.arange(log_b.size, dtype=float)
    log_top, sums = np.empty(m), np.empty((3, m))
    block = max(1, _SUM_BLOCK // j.size)
    buf = np.empty((min(block, m), j.size))
    for start in range(0, m, block):
        sl = slice(start, start + block)
        t = buf[:min(block, m - start)]   # log b_j + j log y, then its weighted terms
        np.multiply.outer(log_y[sl], j, out=t)
        t += log_b
        np.max(t, axis=1, out=log_top[sl])
        t -= log_top[sl, None]
        np.exp(t, out=t)
        np.add.reduce(t, axis=1, out=sums[0, sl])
        t *= j
        np.add.reduce(t, axis=1, out=sums[1, sl])
        t *= j - 1.0
        np.add.reduce(t, axis=1, out=sums[2, sl])
    return log_top, sums


# ---------------------------------------------------------------------------
# radial quadrature route
# ---------------------------------------------------------------------------

def marginal_radial(prior: RadialPrior, quad: QuadSpec = DEFAULT_QUAD) -> MarginalProfile:
    """Marginal profile from the radial moments of the I-transform.

    With w(r) = e^{-r^2/2} r^{-nu} lambda(r) the marginal is
    l = A e^{-u^2/2} K(u), K = u^{-nu} int_0^inf w I_nu(ur) dr.  Every term of
    the ascending series of I_nu (DLMF 10.25.2) is positive, so integrating it
    term by term turns K into a power series in y = u^2/4,

        K(u) = 2^{-nu} sum_{j<=N} a_j y^j,
        a_j = mu_{nu+2j} / (j! Gamma(nu+j+1)),   mu_p = int_0^inf w r^p dr,

    and l = A 2^{-nu} e^{-2y} sum_j a_j y^j is the series of
    :func:`_series_profile` with kappa = 1/4 and c = 2.  The coefficients
    a_j do not depend on u, so they are integrated once per profile: in
    blocks of ``_MOMENT_BLOCK`` consecutive j, each one log-space row batch
    of moments on [r_lo, r_lo + 2^m], the power of two that covers the scan
    cut of the block's highest moment, so that each mu_p is a fixed number
    whichever call first needs it.  Blocks whose ranges round to the same 2^m
    share their quadrature nodes, and log w is evaluated once per node
    array.  A ladder level's term count N is found the first time a u needs
    it: one scan of the Bessel integrand at u = L gives R, and N is the
    Bessel stop rule at z = (L R)^2/4 for the orders nu, nu + 1 and nu + 2
    shifted by 0, 1 and 2 terms (the j- and j(j-1)-weighted series), so a
    relative tail below roundoff at every r <= R and u <= L bounds the tail
    of each integrated sum.  A level whose N passes the 10,000-term budget
    takes instead the N of the largest horizon above the level below that
    fits it, found once by bisection; u past that horizon raise
    EvaluationError.  The integrands are built from log|lambda|, so a signed
    lambda raises DomainError rather than being integrated as |lambda|.
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
    log_a = []    # log a_j, j = 0, 1, ..., a whole _MOMENT_BLOCK at a time
    seen = {}     # log w on each node array evaluated so far

    def log_w(r):
        key = r.tobytes()
        if key not in seen:
            with np.errstate(all="ignore"):
                out = -0.5 * r * r - nu * np.log(r) + lam.log_abs(r)
            seen[key] = np.where(np.isnan(out), -np.inf, out)
        return seen[key]

    def terms(h):
        """N of the moment series at horizon h, and None; or None and the
        error where the series passes the term budget."""
        def scan_fn(r):
            # the Bessel integrand at u = h, times the r^2 of the K'' weight
            with np.errstate(all="ignore"):
                return (log_w(r) + specfun.log_bessel_i_scaled(nu, h * r) + h * r
                        + 2.0 * np.maximum(np.log(r), 0.0))

        _, hi_eff, _ = _quad.scan_log_peak(scan_fn, r_lo, r_hi_sup, quad.tail_cut)
        z = 0.25 * (h * hi_eff) ** 2
        try:
            return max(shift + specfun.bessel_series_length(nu + shift, z)
                       for shift in range(3)), None
        except EvaluationError as exc:
            return None, exc

    def build(level):
        """(top, c, log a_j for j <= N, error) of one ladder level: N at the
        level's horizon, or at the last horizon above the level below whose
        series fits the budget; log a_j is None where none does."""
        top = _horizon(level)
        n, error = terms(top)
        if n is None:
            lo, hi = (top / _LADDER_RATIO if level else 0.0), top
            n = terms(lo)[0]
            if n is None:
                return lo, 2.0, None, error
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                fitted = terms(mid)[0]
                if fitted is None:
                    hi = mid
                else:
                    lo, n = mid, fitted
            top = lo
        while len(log_a) <= n:
            integrate_block()
        return top, 2.0, np.array(log_a[:n + 1]), error

    def integrate_block():
        """Append the next _MOMENT_BLOCK coefficients: one row batch of
        moments on [r_lo, r_lo + 2^m], the power of two that covers the scan
        cut of the block's highest moment (or the support's end).  Blocks
        whose ranges round to one 2^m share their nodes, so log w is taken
        from ``seen`` there."""
        j = np.arange(len(log_a), len(log_a) + _MOMENT_BLOCK, dtype=float)
        powers = nu + 2.0 * j

        def top_row(r):
            with np.errstate(all="ignore"):
                return log_w(r) + powers[-1] * np.log(r)

        def rows(r):
            with np.errstate(divide="ignore"):
                logr = np.log(r)
            return log_w(r)[:, None] + np.multiply.outer(logr, powers)

        _, cut, _ = _quad.scan_log_peak(top_row, r_lo, r_hi_sup, quad.tail_cut)
        end = min(r_hi_sup, r_lo + 2.0 ** math.ceil(math.log2(cut - r_lo)))
        log_mu = _quad.integrate_rows_log(rows, r_lo, end, quad.rel_tol, quad.max_depth)
        log_a.extend(log_mu - gammaln(j + 1.0) - gammaln(nu + j + 1.0))

    return _series_profile(k, "radial_quadrature", log_scale, 0.25, build)


# ---------------------------------------------------------------------------
# mixture quadrature route
# ---------------------------------------------------------------------------

def marginal_mixture(h: MixingDensity, quad: QuadSpec = DEFAULT_QUAD) -> MarginalProfile:
    """Marginal of a variance mixture from a per-level moment series.

    Through t = 1/(1+v) the marginal is a Laplace transform,

        l(u) = C int f(t) e^{-st} dt,   s = u^2/2,  f(t) = t^{k/2-2} h((1-t)/t),

    with C = (2 pi)^{-k/2} and t on [t_lo, t_hi] = [1/(1+v_hi), 1/(1+v_lo)].
    Ladder level i serves u in (L_{i-1}, L_i] (L_{-1} = 0), so s in
    (s_{i-1}, s_i], s_i = L_i^2/2.  The level's window is [lo_i, c_i]: lo_i
    is the lower cut of one scan of f e^{-s_i t} and c_i the upper cut of the
    scan at s_{i-1} (t_hi on level 0), so that it holds f e^{-st} to the
    scan's tail cut at every s of the level.  There
    e^{-st} = e^{-s c} sum_j (s (c - t))^j / j! has no negative term, so

        l = C e^{-s c} sum_{j<=N} a_j s^j,   a_j = int_lo^c f (c - t)^j dt / j!,

    the series of :func:`_series_profile` with kappa = 1/2 and c = c_i.  The
    a_j come from one log-space row batch per level, and N is the exponential
    series' stop rule at z = s_i (c_i - lo_i), plus 2 for the j- and
    j(j-1)-weighted sums.  The window moves with s, so N stays bounded at
    every u: at most 167 on example2's levels, and about 1,900 at k = 1500,
    where f e^{-st} is close to a Gamma law in t of shape k/2 and the window
    spans it at both ends of a level.  The moments are integrated from
    log|h|, so a signed h raises DomainError rather than being integrated as
    |h|.
    """
    if not h.h.nonneg:
        raise DomainError(f"the mixture moment series needs a nonnegative h, got the "
                          f"signed {h.h.label!r}")
    k = h.k
    log_C = -0.5 * k * math.log(2.0 * math.pi)
    v_lo = max(h.h.support[0], 0.0)
    v_hi = h.h.support[1]
    t_lo = 0.0 if math.isinf(v_hi) else 1.0 / (1.0 + v_hi)
    t_hi = 1.0 / (1.0 + v_lo)
    cuts = {}   # ladder level -> the scan cuts (lo, hi) of f e^{-s t} at s = L^2/2

    def log_f(t):
        with np.errstate(all="ignore"):
            out = (0.5 * k - 2.0) * np.log(t) + h.h.log_abs((1.0 - t) / t)
        return np.where(np.isnan(out), -np.inf, out)

    def scan(level):
        if level not in cuts:
            s = 0.5 * _horizon(level) ** 2
            cuts[level] = _quad.scan_log_peak(lambda t: log_f(t) - s * t, t_lo, t_hi,
                                              quad.tail_cut)[:2]
        return cuts[level]

    def build(level):
        """(inf, c, log a_j for j <= N, None) of one ladder level."""
        lo = scan(level)[0]
        c = scan(level - 1.0)[1] if level else t_hi
        j = np.arange(3.0 + specfun.exp_series_length(0.5 * _horizon(level) ** 2 * (c - lo)))

        def rows(t):
            return log_f(t)[:, None] + np.multiply.outer(np.log(c - t), j)

        log_m = _quad.integrate_rows_log(rows, lo, c, quad.rel_tol, quad.max_depth)
        return math.inf, c, log_m - gammaln(j + 1.0), None

    return _series_profile(k, "mixture_quadrature", log_C, 0.5, build)


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
    return laplace_profile(monomial_laplace_G(n), k, "mixture_closed_form",
                           -0.5 * k * math.log(2.0 * math.pi))
