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
(2 pi)^{-k/2}) does not.  ``triple`` derives the linear (l, l', l'').  One
layer down a ScalarFn carries the same contract in one ``ratios`` callable,
so a Laplace-route profile reads (log G, G'/G, G''/G) in one call and
divides nothing back.  The two shapes that several families share have one
constructor each: :func:`squared_profile` for l = S^2 and
:func:`laplace_profile` for l = e^{log_scale} G(u^2/2).

Both quadrature routes are positive moment series in log space, and one
evaluator (:func:`_series_profile`) serves them: l = e^{log_scale - c y}
sum_j b_j y^j with y = kappa u^2 and coefficients b_j that do not depend on
u.  The radial route pairs e^{-u^2/2} decay against e^{ur}-growing Bessel
kernels; it integrates the positive ascending series of I_nu term by term,
so the I-transform becomes a power series in u^2/4 whose coefficients are
radial moments of the prior.  The mixture route is a Laplace transform in
s = u^2/2; on each level of u it expands e^{-st} about the upper end c of
the level's window in t, where every term is positive, so its coefficients
are moments of (c - t)^j.  Each route only builds a level's coefficients;
the evaluator builds the levels in order, scales each level's coefficients
to its largest term on a few pieces of its y range, and keeps the pieces of
all levels in one flat table that tiles y from 0.  A piece sums only the
terms a double can see: those from the first to the last that reach e^{-50}
of the largest term at the piece's top or at its bottom.  Each dropped term
is below e^{-50} of the series at every y of the piece, since its share of
the sum peaks at one of the two ends.  Counting the piece tops below each u
finds its piece, and Horner's rule sums its series in y over the piece's
reference, in one work array per thread, with no logarithm or exponential
per term.  The coefficients are positive, so the sums are forward stable
(Higham 2002, section 5.1), and Monte Carlo risk runs with ~1e6 marginal
evaluations stay cheap and reproducible.
"""

from __future__ import annotations

import functools
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

# Both series routes sum their moment series by Horner's rule over blocks of
# u whose (3, groups, block) work array holds at most this many doubles
# (0.5 MB), reused in place across blocks.  Each thread keeps one such work
# array, grown to the largest that its calls have needed, so a warm call
# allocates none and concurrent Monte Carlo batches never share one; a larger
# block makes fewer array operations but leaves the cache.
_SUM_BLOCK = 1 << 16
_WORKSPACE = threading.local()
# Both series routes build a fixed ladder of horizons L_i = _LADDER_FLOOR *
# _LADDER_RATIO^i in order: level i serves u in (L_{i-1}, L_i] and fixes the
# term count N of their series.  A finer ladder builds more levels, a coarser
# one sums more terms per u.  Every radial level sums a prefix of one list of
# coefficients, integrated _MOMENT_BLOCK at a time: a larger block integrates
# moments that no level may need, a smaller one makes more row batches.
_LADDER_RATIO = math.sqrt(2.0)
_LADDER_FLOOR = 4.0
_MOMENT_BLOCK = 64
# A ladder level's y range is cut into pieces on which the series, scaled to
# its largest term at the piece's top, stays above e^{-_PIECE_RANGE}; a piece
# keeps only the terms that reach e^{-_TRIM} of the largest term at its top
# or at its bottom.  Every dropped term is then below e^{-_TRIM} of the
# series at each y of the piece, and the dropped terms, weighted by up to
# N^2 in the j(j-1)-weighted sum, stay below an ulp while N^2 e^{-_TRIM} <
# eps, that is N <= 1,000.  Kept terms are at least
# e^{-(_PIECE_RANGE + _TRIM)}, so no sum underflows and no term is subnormal.
_PIECE_RANGE = 600.0
_TRIM = 50.0
# The nested Horner of a piece takes the fewest stages whose group sizes stay
# at most this: each stage costs about 2 r array operations per block, each
# more stage a few more flops per u.
_RADIX = 24
# A Horner step broadcasts x over the groups and each coefficient over the
# u, and numpy copies such rows through its ufunc buffer to lengthen them,
# which doubles the cost of a step once a block holds this many u; there the
# buffer is set no longer than a row, so the step runs on the rows in place.
# Buffering moves values, never rounds them.
_UNBUFFERED = 128


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

    l'/l = u G'(s)/G(s) and l''/l = u^2 G''(s)/G(s) + G'(s)/G(s) at
    s = u^2/2, from one ``G.ratios`` call per triple.
    """
    def triple(u):
        u2 = np.square(u)
        log_G, r1, r2 = (np.asarray(x, dtype=float) for x in G.ratios(0.5 * u2))
        return log_scale + log_G, u * r1, u2 * r2 + r1

    return MarginalProfile(k=k, route=route, triple_fn=triple)


# ---------------------------------------------------------------------------
# the moment series of both quadrature routes
# ---------------------------------------------------------------------------

def _series_profile(k: int, route: str, log_scale: float, kappa: float,
                    build: Callable) -> MarginalProfile:
    """Profile of l(u) = e^{log_scale - c y} sum_{j<=N} b_j y^j, y = kappa u^2,
    from one flat table of pieces that grows by one ladder level at a time.

    Levels are built in order, behind one lock, since Monte Carlo batches
    call ``ratios`` from worker threads: ``build(i)`` gives level i's
    (top <= L_i, c, log b_j, error), and :func:`_scaled_pieces` cuts y from
    the table's top to kappa top^2 into pieces.  So the pieces tile y from 0,
    and one lookup finds each u's piece and its level's c.  A call past the
    table's top first builds the levels up to its largest |u|.  A level whose
    top falls short of L_i ends the ladder; a u past that top raises
    EvaluationError naming ``error``, as an infinite u does before any build.
    With E the mean under the weights b_j y^j, q = E[j]/y, w = 2 kappa u,
    d1 = q - c and d2 = E[j(j-1)]/y^2 - 2 c q + c^2,

        log l = log_scale - c y + log sum_j b_j y^j,
        l'/l = w d1,   l''/l = 2 kappa d1 + w^2 d2,

    the exact derivatives of the series, never finite differences.
    :func:`_moment_sums` gives log sum_j b_j y^j, q and E[j(j-1)]/y^2 as
    polynomials in y over the scaled coefficients, with no factor 1/y, so one
    formula serves every u down to the origin, where y = 0 gives the exact
    limit; a NaN u gives NaN, and l is even in u.  Each u is evaluated
    elementwise, so its value does not depend on its batch.
    """
    table = -math.inf, np.empty(0), [], np.empty(0)   # top y; each piece's y_b, piece and c
    lock, levels, short = threading.Lock(), 0, None   # short: (top, error) of a short level

    def extend(u_max):
        nonlocal table, levels, short
        y_max = kappa * (u_max * u_max)
        if y_max == math.inf:
            raise EvaluationError(f"{route} moment series: u = {u_max:.6g} is past every "
                                  f"horizon", u=u_max)
        with lock:
            y_top, refs, pieces, c = table
            while y_top < y_max and short is None:
                top, c_level, log_b, error = build(levels)
                y_lo, y_top = max(y_top, 0.0), kappa * (top * top)
                level_refs, level_pieces = _scaled_pieces(log_b, y_lo, y_top)
                refs, pieces = np.concatenate((refs, level_refs)), pieces + level_pieces
                c = np.concatenate((c, np.full(level_refs.size, c_level)))
                short = (top, error) if top < _horizon(levels) else None
                levels += 1
            table = y_top, refs, pieces, c
        if y_max > y_top:
            top, error = short
            raise EvaluationError(f"{error} ({route} moment series: u = {u_max:.6g} is "
                                  f"past its horizon {top:.6g})", horizon=top, u=u_max)

    def triple(u):
        u = np.atleast_1d(u)
        a = np.abs(u)
        u_max = float(np.fmax.reduce(a, initial=0.0))   # fmax passes over NaN
        if kappa * (u_max * u_max) > table[0]:
            extend(u_max)
        _, refs, pieces, c = table
        y = np.square(a, out=a)
        y *= kappa
        (log_sum, q, e2), which = _moment_sums(y, (refs, pieces))
        c = c[which]
        # the formulas above, each operation in place on an array done with
        t = np.multiply(2.0, c)
        t *= q
        d2 = np.subtract(e2, t, out=e2)
        d2 += np.multiply(c, c, out=t)
        d1 = np.subtract(q, c, out=q)
        c *= y
        log_ell = np.add(log_sum, np.subtract(log_scale, c, out=c), out=log_sum)
        w = np.multiply(2.0 * kappa, u, out=y)
        d2 *= np.multiply(w, w, out=t)
        r2 = np.multiply(2.0 * kappa, d1, out=t)
        r2 += d2
        d1 *= w
        return log_ell, d1, r2

    return MarginalProfile(k=k, route=route, triple_fn=triple)


def _horizon(level):
    """The u horizon of a ladder level."""
    return _LADDER_FLOOR * _LADDER_RATIO ** level


def _scaled_pieces(log_b, y_lo, y_hi):
    """Scaled coefficient sets of sum_j b_j y^j on y in [y_lo, y_hi].

    The range is cut from the top down into pieces [y_a, y_b], each as wide
    as the largest term at y_a stays within e^{-_PIECE_RANGE} of the largest
    at y_b; a piece that reaches y_lo, or y = 0 once b_0 alone is that
    large, ends the cut.  A piece keeps its reference y_b, the log M of its
    largest term there and the scaled coefficients
    beta_j = b_j y_b^j e^{-M}, so that with x = y/y_b in [x_a, 1]

        sum_j b_j y^j = e^M P(x),   P(x) = sum_j beta_j x^j,

    and P(x) >= e^{-_PIECE_RANGE} on the piece.  P keeps only the j from
    the first to the last term that reaches e^{-_TRIM} of the largest term
    at x = 1 or at x = x_a.  A term past the argmax j* at x = 1 falls
    against the term j* by x^{j - j*} as x falls, so its share of P peaks
    at x = 1; a term below the argmax at x_a peaks at x_a likewise.  So
    every dropped term is below e^{-_TRIM} P(x) at every x of the piece
    (Higham 2002, section 5.1, bounds the sum of the kept ones).  The
    piece stores the coefficients of P, P' and P'' (beta_j,
    (j+1) beta_{j+1} and (j+2)(j+1) beta_{j+2}) from the lowest power lo
    that any of them needs: each is x^lo times a polynomial Q_0, Q_1, Q_2,
    and the Q's are laid out for :func:`_moment_sums` as
    (r_1, ..., r_d, 3, 1), radices from :func:`_radices`.  Returns (the
    ascending y_b, the pieces (y_b, M, lo, radices, array)).
    """
    j = np.arange(log_b.size, dtype=float)
    pieces = []
    y_b = y_hi
    while True:
        log_t = log_b + j * math.log(y_b)
        M = float(np.max(log_t))
        floor = M - _PIECE_RANGE
        y_a = 0.0 if log_b[0] >= floor else math.exp(float(np.min((floor - log_b[1:]) / j[1:])))
        log_ta = log_t.copy()   # the terms at the piece's bottom
        with np.errstate(divide="ignore"):
            log_ta[1:] += j[1:] * np.log(max(y_a, y_lo) / y_b)
        kept = np.flatnonzero((log_t >= M - _TRIM) | (log_ta >= np.max(log_ta) - _TRIM))
        first, hi = int(kept[0]), int(kept[-1])
        beta = np.zeros(j.size)
        beta[first:hi + 1] = np.exp(log_t[first:hi + 1] - M)
        coef = np.zeros((3, j.size))
        coef[0] = beta
        coef[1, :-1] = j[1:] * beta[1:]
        coef[2, :-2] = j[1:-1] * j[2:] * beta[2:]
        lo = max(first - 2, 0)
        radices = _radices(hi + 1 - lo)
        padded = np.zeros((3, math.prod(radices)))
        padded[:, :hi + 1 - lo] = coef[:, lo:hi + 1]
        # [i_1, ..., i_d, p] holds Q_p's coefficient of x^j, j = i_1 + r_1 (i_2 + r_2 (...))
        stack = np.ascontiguousarray(padded.reshape((3,) + radices[::-1]).T)
        pieces.append((y_b, M, lo, radices, stack[..., None]))
        if not y_a > y_lo:
            break
        y_b = y_a
    pieces.reverse()
    return np.array([p[0] for p in pieces]), pieces


def _radices(n):
    """Group sizes r_1, ..., r_d of a nested Horner over n coefficients: d
    the fewest stages whose sizes stay at most _RADIX, each r_s the least
    whose power covers what the stages before it leave."""
    d = 1
    while _RADIX ** d < n:
        d += 1
    radices = []
    for stage in range(d, 0, -1):
        r = 1
        while r ** stage < n:
            r += 1
        radices.append(r)
        n = -(-n // r)
    return tuple(radices)


def _moment_sums(y, table):
    """log sum_j b_j y^j, q = E[j]/y and E[j(j-1)]/y^2 at each y, from the
    scaled pieces of :func:`_scaled_pieces`, and the index of each y's piece.

    y takes the piece with the smallest y_b >= y, found by counting the
    piece tops below it, and with x = y/y_b

        log sum = M + log P(x),   q = P'(x)/(P(x) y_b),
        E[j(j-1)]/y^2 = P''(x)/(P(x) y_b^2).

    P, P' and P'' are x^lo Q_0, x^lo Q_1 and x^lo Q_2, so the ratios are
    those of the Q's, and only log sum takes lo log x.  The Q's are summed
    together by a nested Horner's rule (Estrin's grouping) over blocks of y
    whose first-stage work array is this thread's, reused in place: with
    radices r_1, ..., r_d, stage 1 runs Horner in x over each group of r_1
    consecutive coefficients, all groups at once, and stage s runs it in
    x^{r_1 ... r_{s-1}} over groups of r_s results of stage s - 1, until one
    value is left.  That is about 2 (r_1 + ... + r_d) array operations per
    block for the flops of a flat Horner.  With nonnegative coefficients and
    0 <= x <= 1 every step adds and multiplies nonnegative numbers, so each
    sum is within a few (N + 1) ulps of the exact series (Higham 2002,
    section 5.1).  Every operation is elementwise in y, so a value does not
    depend on the block or the batch.
    """
    refs, pieces = table
    out = np.empty((3, y.size))
    which = np.zeros(y.size, dtype=np.intp)
    for top in refs[:-1].tolist():
        which += y > top
    default_bufsize = np.getbufsize()
    with np.errstate():   # restores the ufunc buffer size set per block
        for p in np.flatnonzero(np.bincount(which, minlength=refs.size)).tolist():
            y_b, M, lo, radices, coef = pieces[p]
            idx = np.flatnonzero(which == p)
            block = max(1, _SUM_BLOCK // coef[0].size)
            buf = _work_array(coef.shape[1:-1] + (min(block, idx.size),))
            for start in range(0, idx.size, block):
                sl = idx[start:start + block]
                x = y[sl] / y_b
                np.setbufsize(x.size - x.size % 16 if x.size >= _UNBUFFERED else default_bufsize)
                Q, Q1, Q2 = _horner(coef, radices, x, buf[..., :x.size])
                log_sum = M + np.log(Q)
                if lo:   # then x > 0: the piece's y_a > 0
                    log_sum += lo * np.log(x)
                out[0, sl] = log_sum
                out[1, sl] = Q1 / Q / y_b
                out[2, sl] = Q2 / Q / y_b / y_b
    return out, which


def _work_array(shape):
    """This thread's Horner work array as an array of ``shape``, grown to
    fit: the largest that any call in the thread has needed."""
    size = math.prod(shape)
    array = getattr(_WORKSPACE, "array", None)
    if array is None or array.size < size:
        array = _WORKSPACE.array = np.empty(size)
    return array[:size].reshape(shape)


def _horner(coef, radices, x, acc):
    """The nested Horner's rule of :func:`_moment_sums` at x, for the
    (r_1, ..., r_d, 3, 1) coefficients of one piece; ``acc`` is the
    (r_2, ..., r_d, 3, x.size) work array of the first stage.  Each stage
    sums over the leading axis, so every coefficient slice and work array is
    contiguous."""
    terms, power = coef, x
    for r in radices:
        acc[...] = terms[-1]
        for i in range(r - 2, -1, -1):
            acc *= power
            acc += terms[i]
        terms = acc
        if acc.ndim > 2:
            acc = np.empty(acc.shape[1:])
            power = _int_power(power, r)
    return terms


def _int_power(x, n):
    """x^n for an integer n >= 1, by repeated squaring: elementwise products
    only, so a value does not depend on its array."""
    result = None
    while n:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if n:
            x = x * x
    return result


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
    :func:`_series_profile` with kappa = 1/4 and c = 2.  The a_j do not
    depend on u, so they are integrated once per profile, in blocks of
    ``_MOMENT_BLOCK`` consecutive j: one log-space row batch of moments on
    [r_lo, r_lo + 2^m], the power of two that covers the scan cut of the
    block's highest moment, so blocks whose ranges round to one 2^m share
    their nodes and log w is evaluated once per node array.  A level's term
    count N comes from one scan of the Bessel integrand at u = L, which gives
    R: N is the Bessel stop rule at z = (L R)^2/4 for the orders nu, nu + 1
    and nu + 2 shifted by 0, 1 and 2 terms (the j- and j(j-1)-weighted
    series), so a relative tail below roundoff at every r <= R and u <= L
    bounds the tail of each integrated sum.  The first level whose N passes
    the 10,000-term budget takes the N of the largest horizon that fits it,
    bisected from the level below's, and ends the ladder.  The integrands
    are built from log|lambda|, so a signed lambda raises DomainError rather
    than being integrated as |lambda|.
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
        """(top, c, log a_j for j <= N, error) of a ladder level: N at its
        horizon, or past the budget at the last one that fits, bisected up."""
        top = _horizon(level)
        n, error = terms(top)
        if n is None:
            lo, hi = (_horizon(level - 1.0) if level else 0.0), top
            n = terms(lo)[0]
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
        """Append the next _MOMENT_BLOCK coefficients, one row batch of moments
        on [r_lo, r_lo + 2^m] (or to the support's end)."""
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
        log_mu = _quad.integrate_rows_log(rows, r_lo, end, quad.rel_tol)
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

    def log_f(t):
        with np.errstate(all="ignore"):
            out = (0.5 * k - 2.0) * np.log(t) + h.h.log_abs((1.0 - t) / t)
        return np.where(np.isnan(out), -np.inf, out)

    @functools.cache
    def scan(level):
        """The scan cuts (lo, hi) of f e^{-s t} at s = L^2/2."""
        s = 0.5 * _horizon(level) ** 2
        return _quad.scan_log_peak(lambda t: log_f(t) - s * t, t_lo, t_hi, quad.tail_cut)[:2]

    def build(level):
        """(L_i, c, log a_j for j <= N, None) of ladder level i."""
        lo = scan(level)[0]
        c = scan(level - 1)[1] if level else t_hi
        j = np.arange(3.0 + specfun.exp_series_length(0.5 * _horizon(level) ** 2 * (c - lo)))

        def rows(t):
            return log_f(t)[:, None] + np.multiply.outer(np.log(c - t), j)

        log_m = _quad.integrate_rows_log(rows, lo, c, quad.rel_tol)
        return _horizon(level), c, log_m - gammaln(j + 1.0), None

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
