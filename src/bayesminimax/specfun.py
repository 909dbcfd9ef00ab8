"""Special functions: modified Bessel I, Kummer 1F1, Whittaker M and the
incomplete-gamma moments of t^{b-1} on (0, 1).

Everything here is real-valued and built from scipy.special kernels,
series, asymptotic expansions and integral representations:

* ``log_bessel_i_scaled`` log(I_nu(x)) - x for nu > -1, at any order:
  log(scipy.special.ive(nu, x)), and the ascending series (DLMF 10.25.2)
  where ive is below the normal double range or, for -1 < nu < 0, where the
  series is short (ive's reflection to order -nu loses its digits near
  nu = -1).  ``bessel_series_length`` is the series' term count, which the
  radial marginal's moment series also uses, and ``exp_series_length`` that
  of the exponential series, which the mixture marginal's moment series
  uses.  ``bessel_i`` is the scalar view exp(log_bessel_i_scaled(nu, x) + x),
  for nu > -1 or a negative integer (I_{-n} = I_n); a value past the double
  range raises EvaluationError.
* ``signed_log_kummer_1f1`` (sign, log|1F1(a; b; z)|), the one Kummer
  kernel: Kummer's transformation 1F1(a;b;z) = e^z 1F1(b-a;b;-z) for z < 0,
  then the ascending series in log space below a switch of at least
  max(64, 6 |b-a| max(1, |1-a|)), infinite for a nonpositive integer a, and
  the large-z expansion above.  ``kummer_1f1`` and ``log_kummer_1f1`` are
  its linear and log views; every 1F1 caller goes through them.
* ``whittaker_m`` the defining identity
  M_{x,mu}(z) = e^{-z/2} z^{mu+1/2} 1F1(mu+1/2-x; 1+2mu; z).
* ``laplace_moment`` the kernel s -> (log M_b(s), e^{-s}/M_b(s)) of the
  incomplete-gamma moment M_b(s) = int_0^1 t^{b-1} e^{-st} dt, the top
  moment of the closed-form Laplace route: the positive series of
  1F1(1; b+1; s) for s <= b (DLMF 8.7.1) and Legendre's continued fraction
  for Gamma(b, s) above (DLMF 8.9.2), with no special function per point
  and a term count and depth fixed once per b.

The positive series of ``laplace_moment`` and of the marginals' moment
series are summed by one nested Horner's rule, ``_horner``.

Modified Bessel K and Whittaker W are not here: the K-transform calls
``scipy.special.kv``, and the Strawderman radial density reaches W through
``scipy.special.hyperu``, as W_{x,mu}(z) = e^{-z/2} z^{mu+1/2}
U(mu-x+1/2, 1+2mu, z).

All gamma factors are kept in log space.  The ascending series stop once
their tail bound is below roundoff at the batch's largest argument
(``_series_length``; ``laplace_moment``'s at its switch, s = b) and raise
EvaluationError past 10,000 terms, as do the linear views past the double
range.  Every function is pure.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, gammasgn, ive

from .errors import DomainError, EvaluationError

__all__ = [
    "bessel_i", "bessel_series_length", "exp_series_length", "kummer_1f1", "whittaker_m",
    "log_bessel_i_scaled", "log_kummer_1f1", "signed_log_kummer_1f1", "laplace_moment",
]

_MAX_TERMS = 10000   # series budget before EvaluationError
_EPS = float(np.finfo(float).eps)
_LOG_MAX = math.log(np.finfo(float).max)
_LOG_TINY = math.log(np.finfo(float).tiny)   # ive below this goes to the Bessel series
_LOG_SERIES = -500.0   # and below this where the series fits its budget: scipy's ive is
# up to 2e-13 off where log ive is -550 to -700, 2 ulps of its log
_FIRST_CANDIDATES = 64   # _series_length tests this many n first, then 4x more per chunk
# for -1 < nu < 0 the Bessel series serves every x up to here (at most a dozen
# terms): ive reflects to order -nu through sin(nu pi), which loses its digits
# near nu = -1 where the K_{-nu} part it weights is not negligible
_SHORT_SERIES_X = 2.0
# A nested Horner takes the fewest stages whose group sizes stay at most
# _RADIX: each stage costs about 2 r array operations per block, each more
# stage a few more flops per point.
_RADIX = 24
# A Horner step broadcasts x over the groups and each coefficient over the
# points, and numpy copies such rows through its ufunc buffer to lengthen
# them, which doubles the cost of a step once a block holds this many
# points; there the buffer is set no longer than a row, so the step runs on
# the rows in place.  Buffering moves values, never rounds them.
_UNBUFFERED = 128


def _series_length(log_ratio, z: float, tol: float, max_terms: int, start: int,
                   name: str, **diagnostics) -> int:
    """Term count n of a series sum_{j<=n} t_j, t_0 = 1 and |t_{j+1}/t_j| =
    e^{log_ratio(j)} z, at its largest argument z: the first n >= start where
    the next ratio r < 1 does not rise at n + 1 and the tail bound
    |t_n| r/(1-r) is at most tol * sum_{j<=n} |t_j|.  Past ``start`` each
    series' ratios rise at most once, so the bound holds.  A ratio of zero
    ends a terminating series.  Kept in logs, so nothing overflows.

    ``log_ratio`` maps an array of j to an array.  The candidates n are
    tested in numpy, _FIRST_CANDIDATES of them first and four times as many
    in each later chunk, with log|t_n| and log S_n carried across chunks by
    sequential sums, so a short series costs one small chunk."""
    log_z = math.log(z) if z > 0 else -math.inf
    log_tol = math.log(tol)
    log_t = log_s = 0.0   # log |t_n|, log S_n at the chunk's first n
    n0, size = 0, _FIRST_CANDIDATES
    with np.errstate(all="ignore"):
        while n0 <= max_terms:
            n = np.arange(n0, min(n0 + size, max_terms + 1), dtype=float)
            log_rho = log_ratio(np.append(n, n[-1] + 1.0))
            log_r = log_rho[:-1] + log_z
            log_ts = np.cumsum(np.append(log_t, log_r))   # log |t_n| ... |t_{n+1}|
            log_ss = np.logaddexp.accumulate(np.append(log_s, log_ts[1:]))
            stop = (log_rho[:-1] == -math.inf) | (
                (n >= start) & (log_r < 0.0) & (log_rho[1:] <= log_rho[:-1])
                & (log_ts[:-1] + log_r - np.log1p(-np.exp(log_r)) <= log_tol + log_ss[:-1]))
            if stop.any():
                return int(n[np.argmax(stop)])
            log_t, log_s = float(log_ts[-1]), float(log_ss[-1])
            n0, size = n0 + n.size, 4 * size
    raise EvaluationError(f"{name} did not converge in {max_terms} terms", terms=max_terms,
                          partial_sum=math.exp(log_s) if log_s < _LOG_MAX else math.inf,
                          **diagnostics)


def exp_series_length(z: float) -> int:
    """Term count n of the exponential series sum_{j<=n} z^j / j! whose
    relative tail is at most eps at z and at every smaller argument; past
    _MAX_TERMS terms, EvaluationError."""
    return _series_length(lambda j: -np.log(j + 1.0), z, _EPS, _MAX_TERMS, 0,
                          "exponential series")


# ---------------------------------------------------------------------------
# nested Horner's rule over nonnegative coefficients
# ---------------------------------------------------------------------------

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


def _horner_layout(coef):
    """The radices of :func:`_radices` for the rows of the (p, n)
    coefficients ``coef``, and the rows laid out for :func:`_horner` as
    (r_1, ..., r_d, p, 1), zero-padded: [i_1, ..., i_d, q] holds row q's
    coefficient of x^j, j = i_1 + r_1 (i_2 + r_2 (...))."""
    p, n = coef.shape
    radices = _radices(n)
    padded = np.zeros((p, math.prod(radices)))
    padded[:, :n] = coef
    return radices, np.ascontiguousarray(padded.reshape((p,) + radices[::-1]).T)[..., None]


def _horner(coef, radices, x, acc):
    """The p polynomials of the (r_1, ..., r_d, p, 1) coefficients of
    :func:`_horner_layout` at x, as a (p, x.size) array, by a nested
    Horner's rule (Estrin's grouping): stage 1 runs Horner in x over each
    group of r_1 consecutive coefficients, all groups at once, and stage s
    runs it in x^{r_1 ... r_{s-1}} over groups of r_s results of stage
    s - 1, until one value is left.  That is about 2 (r_1 + ... + r_d) array
    operations for the flops of a flat Horner.  ``acc`` is the
    (r_2, ..., r_d, p, x.size) work array of the first stage.  Each stage
    sums over the leading axis, so every coefficient slice and work array is
    contiguous.  With nonnegative coefficients and 0 <= x <= 1 every step
    adds and multiplies nonnegative numbers, so each sum is within a few
    (n + 1) ulps of the exact one (Higham 2002, section 5.1); every
    operation is elementwise in x, so a value does not depend on its
    array."""
    terms, power = coef, x
    with np.errstate():   # restores the ufunc buffer size
        if x.size >= _UNBUFFERED:
            np.setbufsize(x.size - x.size % 16)
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
# modified Bessel function of the first kind
# ---------------------------------------------------------------------------

def bessel_series_length(nu: float, z: float) -> int:
    """Term count n of the ascending series of (x/2)^{-nu} I_nu(x) (DLMF
    10.25.2), sum_{j<=n} z^j / (j! (nu+1)_j) with z = x^2/4, whose relative
    tail is at most eps at z and at every smaller argument; past _MAX_TERMS
    terms, EvaluationError."""
    return _series_length(lambda j: -np.log((j + 1.0) * (j + 1.0 + nu)), z,
                          _EPS, _MAX_TERMS, 0, "Bessel I series", order=nu)


def _series_log_i(nu: float, x: np.ndarray) -> np.ndarray:
    """log I_nu(x) by the ascending series, for nu > -1 (positive terms).

    The terms t_j = z^j / (j! (nu+1)_j), z = x^2/4, are all positive, and
    past the largest term d/dz log(t_n / S) = (n - E_z[J])/z > 0, where E_z[J]
    is the mean term index under weights t_j/S.  So the relative tail is
    largest at the largest z: the term count n is fixed once, by
    ``_series_length`` at the batch's largest z, and every point sums the
    same n + 1 terms in one nested (Horner) pass
    P <- 1 + P z / (j (j + nu)), j = n ... 1.
    """
    x = np.asarray(x, dtype=float)
    z = 0.25 * x * x
    n = bessel_series_length(nu, float(np.max(z)))
    P = np.ones_like(z)
    for j in range(n, 0, -1):
        P *= z
        P *= 1.0 / (j * (j + nu))
        P += 1.0
    # The leading term nu log(x/2) - lgamma(nu + 1) to about one ulp (plain
    # rounding reaches 2e-13 at nu = 35, x = 1e-8): x/2 is exact where it is
    # normal, nu log(x/2) an error-free (Dekker) product, lgamma a two-sum.
    sub = x < 2.0 * np.finfo(float).tiny
    L = np.log(np.where(sub, x, 0.5 * x)) - np.where(sub, math.log(2.0), 0.0)
    prod = nu * L
    (nu_hi, nu_lo), (L_hi, L_lo) = _split(nu), _split(L)
    prod_err = ((nu_hi * L_hi - prod) + nu_hi * L_lo + nu_lo * L_hi) + nu_lo * L_lo
    g = -math.lgamma(nu + 1.0)
    lead = prod + g
    back = lead - prod
    sum_err = (prod - (lead - back)) + (g - back)
    return lead + (prod_err + sum_err + np.log(P))


def _split(a):
    """Dekker's split a = hi + lo into halves whose products are exact."""
    c = 134217729.0 * a   # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def log_bessel_i_scaled(nu: float, x) -> np.ndarray:
    """log(I_nu(x)) - x for array x >= 0, order nu > -1: log(ive(nu, x)),
    with the ascending series where ive is below the normal double range or
    e^{-500} within its budget (small x at a large order) and, for
    -1 < nu < 0, at every x <= 2, and the limits at x = 0 and x = +inf.

    Vectorized core used by the transforms and marginal integrands, whose
    Bessel kernels must be combined with Gaussian factors in log space.
    """
    if nu <= -1.0:
        raise DomainError(f"Bessel I requires nu > -1 (or, in bessel_i, a negative "
                          f"integer), got {nu}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("Bessel I requires x >= 0")
    out = np.empty_like(x)
    with np.errstate(divide="ignore"):
        np.log(ive(nu, x), out=out)
    # the series' nu log(x/2) is 0 * -inf at x = 0
    series = (out < _LOG_SERIES) & (x > 0.0) & np.isfinite(x)
    optional = series & (out >= _LOG_TINY)   # where log(ive) is the fallback
    if np.any(optional):
        try:
            bessel_series_length(nu, 0.25 * float(np.max(x[optional])) ** 2)
        except EvaluationError:
            series &= ~optional
    if nu < 0.0:
        series |= (x > 0.0) & (x <= _SHORT_SERIES_X)
    if np.any(series):
        xs = x[series]
        out[series] = _series_log_i(nu, xs) - xs
    out[x == np.inf] = -np.inf   # ive(nu, inf) is NaN; log I - x ~ -log(2 pi x)/2
    # I_nu(0) = 1 (nu = 0), 0 (nu > 0), +inf (nu in (-1, 0)); ive(nu < 0, 0) is NaN
    out[x == 0.0] = 0.0 if nu == 0.0 else math.copysign(math.inf, -nu)
    return out


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function I_nu(x), x >= 0, for nu > -1 or a negative
    integer: the scalar view exp(log_bessel_i_scaled(nu, x) + x)."""
    if nu < 0 and float(nu).is_integer():
        nu = -nu  # I_{-n} = I_n
    log_i = float(log_bessel_i_scaled(nu, np.array([x], dtype=float))[0]) + x
    try:
        return math.exp(log_i)
    except OverflowError:
        raise EvaluationError(
            f"I_{nu}({x}) = e^{log_i:.6g} exceeds the double range; "
            "log_bessel_i_scaled(nu, x) + x gives its logarithm",
            order=nu, x=x, log_value=log_i) from None


# ---------------------------------------------------------------------------
# Kummer confluent hypergeometric function
# ---------------------------------------------------------------------------

def _series_log_1f1(a: float, b: float, z: np.ndarray):
    """(sign, log|1F1(a; b; z)|) by the ascending series (DLMF 13.2.2), z >= 0.

    t_{j+1} = t_j rho_j z, rho_j = (a+j)/((b+j)(j+1)).  From
    h = max(0, ceil(-a), ceil(-b)) on, rho_j > 0: t_h ... t_n sum to t_h e^L by the
    log-space Horner pass L <- log(1 + rho_j z e^L), and the h alternating
    terms before them are added with a running max-shift.  n is fixed at the
    batch's largest z; a nonpositive integer a ends the series at n = -a.
    """
    def log_ratio(j):   # log|rho_j| over an array of j, -inf where a + j = 0 ends the series
        with np.errstate(divide="ignore"):
            return np.log(np.abs(a + j)) - np.log(np.abs(b + j) * (j + 1.0))

    z_max = float(np.max(z))
    h = max(0, math.ceil(-a), math.ceil(-b))
    n = _series_length(log_ratio, z_max, _EPS, _MAX_TERMS, h, "1F1 series", a=a, b=b, zmax=z_max)
    h = min(h, n)
    log_rho = log_ratio(np.arange(n, dtype=float))
    with np.errstate(divide="ignore"):
        log_z = np.log(z)
    L = np.zeros_like(z)
    for j in range(n - 1, h - 1, -1):
        L += log_z + log_rho[j]   # one rounding at the scale of L
        np.logaddexp(0.0, L, out=L)
    if h == 0:
        return np.ones_like(z), L
    total, M, log_t, sign = np.ones_like(z), np.zeros_like(z), np.zeros_like(z), 1.0
    for j in range(h):   # adds t_{j+1}, and the tail t_h e^L last
        log_t += log_z
        log_t += log_rho[j]
        sign *= math.copysign(1.0, (a + j) * (b + j))
        term = log_t + L if j == h - 1 else log_t
        M_next = np.maximum(M, term)
        total = total * np.exp(M - M_next) + sign * np.exp(term - M_next)
        M = M_next
    with np.errstate(divide="ignore"):
        return np.sign(total), M + np.log(np.abs(total))


def _asymptotic_log_1f1(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """log|1F1(a; b; z)| by the large-z expansion (DLMF 13.7.2), z + (a-b) log z
    + log|Gamma(b)/Gamma(a)| + log sum_m (b-a)_m (1-a)_m / (m! z^m), summed to
    roundoff or its smallest term; the e^{-z}-relative z^{-a} part is dropped."""
    total, term, prev = np.ones_like(z), np.ones_like(z), np.inf
    for m in range(40):
        term = term * (b - a + m) * (1.0 - a + m) / ((m + 1.0) * z)
        size = float(np.max(np.abs(term)))
        if size > prev:
            break
        total, prev = total + term, size
        if size <= _EPS:
            break
    return z + (a - b) * np.log(z) + math.lgamma(b) - math.lgamma(a) + np.log(total)


def _kummer_switch(a: float, b: float) -> float:
    """Where the expansion takes over: max(64, 6 |b-a| max(1, |1-a|)), so its
    first correction is at most 1/6, moved up until the dropped z^{-a} /
    Gamma(b-a) part is below eps of the kept e^z z^{a-b} / Gamma(a) one (it
    matters near a nonpositive integer a); infinite at one (a polynomial)."""
    if a <= 0 and float(a).is_integer():
        return math.inf
    z = max(64.0, 6.0 * abs(b - a) * max(1.0, abs(1.0 - a)))
    # gammaln(b - a) = inf at a pole: nothing is dropped; lgamma(a) is finite at subnormal a
    while (gap := z + (2.0 * a - b) * math.log(z) + gammaln(b - a) - math.lgamma(a)
           + math.log(_EPS)) < 0.0:
        z += 1.0 - gap   # aim one past zero, so the loop ends
    return z


def signed_log_kummer_1f1(a: float, b: float, z):
    """(sign, log|1F1(a; b; z)|) for b not in {0, -1, ...}, z a scalar or array.

    A negative z takes Kummer's transformation 1F1(a; b; z) =
    e^z 1F1(b-a; b; -z) (DLMF 13.2.39).  For z >= 0 the series runs below
    ``_kummer_switch(a, b)`` and the expansion from there on, with the sign
    of Gamma(b)/Gamma(a).  A series past 10,000 terms raises EvaluationError.
    """
    if b <= 0 and float(b).is_integer():
        raise DomainError(f"1F1 undefined for b = {b} (zero or negative integer)")
    z_in = np.asarray(z, dtype=float)
    z_arr = z_in.reshape(-1)
    sign, log_abs = np.empty_like(z_arr), np.empty_like(z_arr)
    neg, large = z_arr < 0, z_arr >= _kummer_switch(a, b)
    if np.any(series := ~(neg | large)):
        sign[series], log_abs[series] = _series_log_1f1(a, b, z_arr[series])
    if np.any(large):
        sign[large] = gammasgn(a) * gammasgn(b)
        log_abs[large] = _asymptotic_log_1f1(a, b, z_arr[large])
    if np.any(neg):
        sign[neg], log_abs[neg] = signed_log_kummer_1f1(b - a, b, -z_arr[neg])
        log_abs[neg] += z_arr[neg]
    if z_in.ndim == 0:
        return float(sign[0]), float(log_abs[0])
    return sign.reshape(z_in.shape), log_abs.reshape(z_in.shape)


def kummer_1f1(a: float, b: float, z):
    """Kummer's function 1F1(a; b; z), z a scalar or array: the linear view
    of ``signed_log_kummer_1f1``; past the double range, EvaluationError."""
    sign, log_abs = signed_log_kummer_1f1(a, b, z)
    if (top := float(np.max(log_abs, initial=-np.inf))) > _LOG_MAX:
        raise EvaluationError(f"1F1({a}; {b}; z) = e^{top:.6g} exceeds the double range; "
                              "signed_log_kummer_1f1(a, b, z) gives its logarithm",
                              a=a, b=b, log_value=top)
    return sign * np.exp(log_abs)


def log_kummer_1f1(a: float, b: float, z):
    """log 1F1(a; b; z) for a, b > 0 and z >= 0: the log view of
    ``signed_log_kummer_1f1``, finite where 1F1 is past the double range."""
    if a <= 0 or b <= 0:
        raise DomainError("log_kummer_1f1 requires a, b > 0")
    if np.any(np.asarray(z, dtype=float) < 0):
        raise DomainError("log_kummer_1f1 requires z >= 0")
    return signed_log_kummer_1f1(a, b, z)[1]


# ---------------------------------------------------------------------------
# Whittaker functions
# ---------------------------------------------------------------------------

def whittaker_m(x: float, mu: float, z: float):
    """Whittaker M_{x,mu}(z) = e^{-z/2} z^{mu+1/2} 1F1(mu+1/2-x; 1+2mu; z)."""
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr <= 0):
        raise DomainError("Whittaker M requires z > 0")
    return np.exp(-z_arr / 2.0) * z_arr ** (mu + 0.5) * kummer_1f1(mu + 0.5 - x, 1.0 + 2.0 * mu, z_arr)


# ---------------------------------------------------------------------------
# the moments int_0^1 t^{b-1} e^{-st} dt
# ---------------------------------------------------------------------------

def _legendre_depth(b: float) -> int:
    """Depth of the Legendre fraction of :func:`laplace_moment` at s = b^+:
    the first level whose modified Lentz factor is within eps of 1, or the
    level before a zero numerator, where the fraction ends (integer b)."""
    s = math.nextafter(b, math.inf)
    den = s + 1.0 - b
    c, d = math.inf, 1.0 / den
    for i in range(1, _MAX_TERMS + 1):
        a = -i * (i - b)
        if a == 0.0:
            return i - 1
        den += 2.0
        d = 1.0 / (a * d + den)
        c = den + a / c
        if abs(c * d - 1.0) <= _EPS:
            return i
    raise EvaluationError(f"Legendre fraction did not converge in {_MAX_TERMS} levels", b=b)


def _log_stirling_ratio(b: float) -> float:
    """log(b^b e^{-b} / Gamma(b)): (1/2) log(b/(2 pi)) less Stirling's series
    (DLMF 5.11.1) from b = 15 on, where its seven terms reach roundoff and the
    direct difference would lose ~b log b ulps; the direct difference below."""
    if b < 15.0:
        return b * math.log(b) - b - math.lgamma(b)
    z = 1.0 / (b * b)
    series = (1.0 / 12.0 + z * (-1.0 / 360.0 + z * (1.0 / 1260.0 + z * (
        -1.0 / 1680.0 + z * (1.0 / 1188.0 + z * (-691.0 / 360360.0 + z / 156.0)))))) / b
    return 0.5 * math.log(b / (2.0 * math.pi)) - series


def laplace_moment(b: float):
    """The kernel s -> (log M_b(s), e^{-s}/M_b(s)) of the moment

        M_b(s) = int_0^1 t^{b-1} e^{-st} dt = gamma(b, s) / s^b,   b > 0,

    for a 1-d array of s >= 0, with no special function per point.

    * s <= b: M_b = e^{-s} S / b with S = 1F1(1; b+1; s) = sum_j c_j x^j,
      x = s/b, c_j = b^j / (b+1)_j (DLMF 8.7.1).  Its terms are positive and
      their ratios x b/(b+1+j) fall, so its relative tail is largest at
      x = 1, where ``_series_length`` fixes its term count once.
      :func:`_horner` sums it in one stage, in one fresh row of the batch
      that then holds log S: a nested first stage would hold r_2 rows (5 at
      b = 5, 15 at b = 752.5), and a row kept per thread would stay
      allocated through the rest of a Monte Carlo batch.
      log M = log S - s - log b and e^{-s}/M = b/S.
    * s > b: Legendre's continued fraction (DLMF 8.9.2) gives
      Q = Gamma(b, s)/Gamma(b) = R / (s + 1 - b - 1(1-b)/(s + 3 - b - ...)),
      R = e^{-s} s^b / Gamma(b), evaluated backwards from the depth at which
      it has converged at s = b^+ (:func:`_legendre_depth`); it converges
      faster at larger s, and ends at depth b - 1 for an integer b.  With
      y = (s - b)/b, log R = log(b^b e^{-b}/Gamma(b)) - b (y - log1p(y)),
      which is good to ~|s - b| ulps where -s + b log s - lgamma(b) would
      lose ~b log s of them; log M = lgamma(b) - b log b - b log1p(y) +
      log1p(-Q) and e^{-s}/M = R / (1 - Q).

    Neither the term count nor the depth depends on the batch, and every
    operation is elementwise, so a value does not depend on its batch,
    whether the batch lies on one side of s = b (and is evaluated as it is)
    or on both (and each side is gathered).  NaN and +inf give NaN.
    """
    if not b > 0:
        raise DomainError(f"the moment M_b needs b > 0, got {b}")
    log_b = math.log(b)
    n = _series_length(lambda j: log_b - np.log(b + 1.0 + j), 1.0, _EPS, _MAX_TERMS, 0,
                       "moment series", b=b)
    coef = np.cumprod(np.append(1.0, b / (b + np.arange(1.0, n + 1))))[:, None, None]
    depth = _legendre_depth(b)
    log_r_b = _log_stirling_ratio(b)
    log_g_b = math.lgamma(b) - b * log_b

    def series(x):
        """(log M, e^{-s}/M) at s = x <= b."""
        S = _horner(coef, (n + 1,), x / b, np.empty((1, x.size)))[0]
        w = b / S
        log_M = np.log(S, out=S)
        log_M -= x
        log_M -= log_b
        return log_M, w

    def fraction(x):
        """(log M, e^{-s}/M) at s = x > b, NaN at s = NaN or +inf."""
        tail, den = np.zeros_like(x), np.empty_like(x)
        for i in range(depth, 0, -1):
            np.add(x, 2.0 * i + 1.0 - b, out=den)
            den -= tail
            np.divide(i * (i - b), den, out=tail)
        np.add(x, 1.0 - b, out=den)
        den -= tail                            # R / den = Q
        y = np.subtract(x, b, out=tail)
        y /= b
        log_M = np.log1p(y)                    # log M from it below
        y -= log_M
        y *= -b
        y += log_r_b
        R = np.exp(y, out=y)
        np.divide(R, den, out=den)
        np.negative(den, out=den)              # -Q
        log_M *= -b
        log_M += log_g_b
        log_M += np.log1p(den)
        den += 1.0
        return log_M, np.divide(R, den, out=den)

    def moment(s):
        below = s <= b
        with np.errstate(all="ignore"):   # inf - inf at s = inf, which gives NaN
            if below.all() or not below.any():   # one side: no gather or scatter
                return (series if below.all() else fraction)(s)
            log_M, w = np.empty_like(s), np.empty_like(s)
            for part, where in ((series, below), (fraction, ~below)):
                idx = np.flatnonzero(where)
                log_M[idx], w[idx] = part(s[idx])
        return log_M, w

    return moment
