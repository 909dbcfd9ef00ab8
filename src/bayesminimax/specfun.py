"""Special functions: log-gamma, modified Bessel I, Kummer 1F1, Whittaker M.

Everything here is real-valued and built from series, asymptotic expansions
and integral representations:

* ``log_bessel_i_scaled`` log(I_nu(x)) - x for nu > -1: power series
  (DLMF 10.25.2) below x = 30 + nu^2/2, large-argument expansion
  (DLMF 10.40.1) above.  Each branch fixes its term count once per batch,
  in scalar code, at the argument where its relative tail is largest (the
  largest x for the series, whose terms are all positive; the smallest for
  the expansion), then sums that many terms over the whole batch with no
  per-point masks.  ``bessel_i`` is its scalar view
  exp(log_bessel_i_scaled(nu, x) + x), for nu > -1 or a negative integer
  (I_{-n} = I_n); a value past the double range raises EvaluationError.
* ``kummer_1f1`` Pochhammer series; negative arguments are always routed
  through Kummer's transformation 1F1(a;b;z) = e^z 1F1(b-a;b;-z), so an
  alternating series never cancels catastrophically.  Its callers are
  ``whittaker_m`` and the Whittaker radial prior.
* ``whittaker_m`` the defining identity
  M_{x,mu}(z) = e^{-z/2} z^{mu+1/2} 1F1(mu+1/2-x; 1+2mu; z).

Modified Bessel K and Whittaker W are not here: the K-transform calls
``scipy.special.kv``, and the Strawderman radial density reaches W through
``scipy.special.hyperu``, as W_{x,mu}(z) = e^{-z/2} z^{mu+1/2}
U(mu-x+1/2, 1+2mu, z).

All gamma factors are kept in log space.  Every series stops at relative
tolerance 1e-12 and raises EvaluationError past 10,000 terms.  Every function
is pure; there is no shared mutable state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, EvaluationError

__all__ = [
    "bessel_i", "kummer_1f1", "whittaker_m",
    "log_bessel_i_scaled", "log_kummer_1f1", "signed_log_kummer_1f1_large",
]

_REL_TOL = 1e-12     # series and expansions stop below this relative term size
_MAX_TERMS = 10000   # series budget before EvaluationError
_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# modified Bessel function of the first kind
# ---------------------------------------------------------------------------

def _series_switch(nu: float) -> float:
    # keeps the power series within the term budget at rel_tol ~ 1e-12
    return 30.0 + 0.5 * nu * nu


def _asymptotic_log_i_scaled(nu: float, x: np.ndarray, rel_tol: float) -> np.ndarray:
    """log(I_nu(x)) - x via the large-argument expansion, x >= ~30.

    DLMF 10.40.1: I_nu(x) ~ e^x/sqrt(2 pi x) * sum_m (-1)^m a_m(nu)/x^m with
    a_m = prod_{j<=m} (4 nu^2-(2j-1)^2) / (m! 8^m).  The e^{-x} reflection
    term is below 1e-26 relative on this branch and ignored.  Every term's
    size is largest at the smallest x, so the stop index (the smallest term,
    or the first below rel_tol) is found once there in scalar arithmetic.
    """
    x = np.asarray(x, dtype=float)
    fournu2 = 4.0 * nu * nu
    x_min = float(np.min(x))
    coeffs = []   # a_1 ... a_n, n fixed at x_min
    a, x_pow, prev_size = 1.0, 1.0, math.inf
    for m in range(1, 60):
        a *= (fournu2 - (2 * m - 1) ** 2) / (8.0 * m)
        x_pow /= x_min   # x_min^-m
        size = abs(a) * x_pow
        if size > prev_size:
            break  # divergent tail of the asymptotic series: stop at min term
        coeffs.append(a)
        prev_size = size
        if size <= rel_tol:
            break
    total = np.ones_like(x)
    term = np.ones_like(x)
    for a in coeffs:
        term *= -1.0  # sign alternation folded into the x power
        term /= x
        total += a * term
    return -0.5 * np.log(2.0 * np.pi * x) + np.log(total)


def _series_log_i(nu: float, x: np.ndarray, rel_tol: float, max_terms: int) -> np.ndarray:
    """log I_nu(x) by the ascending series, for nu > -1 (positive terms).

    The terms t_j = z^j / (j! (nu+1)_j), z = x^2/4, are all positive, and
    past the largest term d/dz log(t_n / S) = (n - E_z[J])/z > 0, where E_z[J]
    is the mean term index under weights t_j/S.  So the relative tail is
    largest at the largest z: the term count n is fixed once, by the stop rule
    t_n <= rel_tol * S run as a scalar loop at the batch's largest z, and
    every point sums the same n + 1 terms in one nested (Horner) pass
    P <- 1 + P z / (j (j + nu)), j = n ... 1.
    """
    x = np.asarray(x, dtype=float)
    z = 0.25 * x * x
    z_max = float(np.max(z))
    S = t = 1.0
    for n in range(1, max_terms + 1):
        t = t * z_max / (n * (n + nu))
        S += t
        if t <= rel_tol * S:
            break
    else:
        raise EvaluationError(
            f"Bessel I series did not converge in {max_terms} terms",
            partial_sum=S, terms=max_terms, order=nu)
    P = np.ones_like(z)
    for j in range(n, 0, -1):
        P *= z
        P *= 1.0 / (j * (j + nu))
        P += 1.0
    with np.errstate(divide="ignore"):
        return nu * np.log(x / 2.0) - math.lgamma(nu + 1.0) + np.log(P)


def log_bessel_i_scaled(nu: float, x) -> np.ndarray:
    """log(I_nu(x)) - x for array x >= 0, order nu > -1.

    Vectorized core used by the transforms and marginal integrands, whose
    Bessel kernels must be combined with Gaussian factors in log space.
    """
    if nu <= -1.0:
        raise DomainError(f"Bessel I requires nu > -1 (or, in bessel_i, a negative "
                          f"integer), got {nu}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("Bessel I requires x >= 0")
    cut = _series_switch(nu)
    if cut > 650.0:  # nu > 35.2; the series is held to mpmath up to this switch
        raise EvaluationError(f"order nu={nu} too large for the series branch")
    out = np.empty_like(x)
    small = x < cut
    series = small & (x > 0.0)  # the series' nu log(x/2) is 0 * -inf at x = 0
    if np.any(series):
        xs = x[series]
        out[series] = _series_log_i(nu, xs, _REL_TOL, _MAX_TERMS) - xs
    if np.any(~small):
        out[~small] = _asymptotic_log_i_scaled(nu, x[~small], _REL_TOL)
    # x == 0: I_nu(0) = 1 (nu=0), 0 (nu>0), +inf (nu in (-1,0))
    zero = x == 0.0
    if np.any(zero):
        if nu == 0.0:
            out[zero] = 0.0
        elif nu > 0.0:
            out[zero] = -np.inf
        else:
            out[zero] = np.inf
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

def _check_1f1_params(b: float):
    if b <= 0 and float(b).is_integer():
        raise DomainError(f"1F1 undefined for b = {b} (zero or negative integer)")


def _kummer_series(a: float, b: float, z: np.ndarray, rel_tol: float, max_terms: int) -> np.ndarray:
    """Pochhammer series sum_k (a)_k/(b)_k z^k/k! for z >= 0 (vectorized)."""
    z = np.asarray(z, dtype=float)
    S = np.ones_like(z)
    t = np.ones_like(z)
    stable = np.zeros(z.shape, dtype=int)
    for k in range(max_terms):
        t = t * (a + k) * z / ((b + k) * (k + 1.0))
        S = S + t
        small = np.abs(t) <= rel_tol * np.abs(S)
        stable = np.where(small, stable + 1, 0)
        if np.all(stable >= 2):
            return S
    raise EvaluationError(
        f"1F1 series did not converge in {max_terms} terms",
        partial_sum=S, a=a, b=b, zmax=float(np.max(z)))


def kummer_1f1(a: float, b: float, z):
    """Kummer's function 1F1(a; b; z); z may be a scalar or array.

    Negative arguments always use 1F1(a;b;z) = e^z 1F1(b-a; b; -z) so the
    evaluated series has a positive argument.
    """
    _check_1f1_params(b)
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    out = np.empty_like(z_arr)
    neg = z_arr < 0
    if np.any(~neg):
        out[~neg] = _kummer_series(a, b, z_arr[~neg], _REL_TOL, _MAX_TERMS)
    if np.any(neg):
        zn = -z_arr[neg]
        vals = np.empty_like(zn)
        big = zn > 600.0  # linear series for 1F1(b-a; b; zn) would overflow
        if np.any(big):
            if not (b - a > 0):
                raise EvaluationError(
                    "1F1 at large negative arguments needs b - a > 0 for the "
                    "log-space Kummer route", a=a, b=b)
            vals[big] = np.exp(-zn[big] + log_kummer_1f1(b - a, b, zn[big]))
        if np.any(~big):
            vals[~big] = np.exp(-zn[~big]) * _kummer_series(
                b - a, b, zn[~big], _REL_TOL, _MAX_TERMS)
        out[neg] = vals
    return float(out[0]) if scalar else out


def _log_kummer_asymptotic(a: float, b: float, z: np.ndarray, rel_tol: float) -> np.ndarray:
    """log 1F1(a;b;z) ~ z + (a-b) log z + lgamma(b) - lgamma(a)
    + log sum_m (b-a)_m (1-a)_m / (m! z^m), for large positive z."""
    total = np.ones_like(z)
    term = np.ones_like(z)
    prev = np.inf
    for m in range(0, 40):
        term = term * (b - a + m) * (1.0 - a + m) / ((m + 1.0) * z)
        size = float(np.max(np.abs(term)))
        if size > prev:
            break
        total = total + term
        prev = size
        if size <= rel_tol:
            break
    return (z + (a - b) * np.log(z) + math.lgamma(b) - math.lgamma(a)
            + np.log(total))


def log_kummer_1f1(a: float, b: float, z):
    """log 1F1(a; b; z) for a, b > 0 and z >= 0 (all series terms positive).

    Log-space series accumulation below z = 500, the large-argument expansion
    above; needed where 1F1 reaches e^z territory, e.g. the Whittaker-type
    radial densities growing like exp(r^2/2).
    """
    _check_1f1_params(b)
    if a <= 0 or b <= 0:
        raise DomainError("log_kummer_1f1 requires a, b > 0")
    z_in = np.asarray(z, dtype=float)
    z_arr = np.atleast_1d(z_in)
    if np.any(z_arr < 0):
        raise DomainError("log_kummer_1f1 requires z >= 0")
    out = np.empty_like(z_arr)
    big = z_arr > 500.0
    if np.any(big):
        out[big] = _log_kummer_asymptotic(a, b, z_arr[big], _REL_TOL)
    if np.any(~big):
        zs = z_arr[~big]
        logS = np.zeros_like(zs)
        logt = np.zeros_like(zs)
        with np.errstate(divide="ignore"):
            logz = np.where(zs > 0, np.log(zs), -np.inf)
        for k in range(_MAX_TERMS):
            logt = logt + math.log(a + k) + logz - math.log((b + k) * (k + 1.0))
            logS = np.logaddexp(logS, logt)
            if np.all(logt <= logS + math.log(_REL_TOL)):
                break
        else:
            raise EvaluationError(f"log 1F1 did not converge in {_MAX_TERMS} terms",
                                  a=a, b=b, zmax=float(np.max(zs)))
        out[~big] = logS
    return float(out[0]) if z_in.ndim == 0 else out


def signed_log_kummer_1f1_large(a: float, b: float, z):
    """(sign, log|1F1(a; b; z)|) from the large-z expansion, for b > 0 and a not
    in {0, -1, ...}: its sum is positive, so 1F1 < 0 for a in (-1, 0), (-3, -2), ...

    The sum runs to roundoff (or its smallest term), so where z is at least
    about 6 (b-a)(1-a) and 64 the result is within a few ulps of log|1F1|.
    """
    sign = -1.0 if a < 0 and math.floor(-a) % 2 == 0 else 1.0
    return sign, _log_kummer_asymptotic(a, b, np.asarray(z, dtype=float), _EPS)


# ---------------------------------------------------------------------------
# Whittaker functions
# ---------------------------------------------------------------------------

def whittaker_m(x: float, mu: float, z: float):
    """Whittaker M_{x,mu}(z) = e^{-z/2} z^{mu+1/2} 1F1(mu+1/2-x; 1+2mu; z)."""
    b = 1.0 + 2.0 * mu
    _check_1f1_params(b)
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr <= 0):
        raise DomainError("Whittaker M requires z > 0")
    return np.exp(-z_arr / 2.0) * z_arr ** (mu + 0.5) * kummer_1f1(mu + 0.5 - x, b, z_arr)
