"""Special-function oracles.

Expected values come from elementary closed forms (half-integer Bessel,
exponential collapses of 1F1), defining ODEs checked by finite differences,
and scipy.special and mpmath as independent implementations.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaln, hyp1f1, iv, ive, kv

from bayesminimax import specfun as sf
from bayesminimax.errors import DomainError, EvaluationError


def _loop_series_length(log_ratio, z, tol, max_terms, start):
    """The scalar loop that ``sf._series_length`` evaluates in numpy: the
    reference for its term counts, or None past ``max_terms``."""
    log_z = math.log(z) if z > 0 else -math.inf
    log_t = log_s = 0.0
    for n in range(max_terms + 1):
        log_rho = log_ratio(n)
        if log_rho == -math.inf:
            return n
        log_r = log_rho + log_z
        if (n >= start and log_r < 0.0 and log_ratio(n + 1) <= log_rho
                and log_t + log_r - math.log1p(-math.exp(log_r)) <= math.log(tol) + log_s):
            return n
        log_t += log_r
        log_s = max(log_s, log_t) + math.log1p(math.exp(-abs(log_s - log_t)))
    return None


class TestSeriesLength:
    """The numpy term count equals the scalar loop's on a grid of orders,
    arguments and starts, up to and past the 10,000-term budget."""

    @staticmethod
    def _count(fn, *args):
        try:
            return fn(*args)
        except EvaluationError:
            return None

    @pytest.mark.parametrize("nu", [-0.999, -0.5, 0.0, 1.5, 35.0, 200.0])
    def test_bessel_matches_loop(self, nu):
        for z in np.concatenate([[0.0], np.geomspace(1e-300, 1e9, 120)]):
            want = _loop_series_length(lambda j: -math.log((j + 1.0) * (j + 1.0 + nu)),
                                       float(z), sf._EPS, 10000, 0)
            assert self._count(sf.bessel_series_length, nu, float(z)) == want, z

    def test_exp_matches_loop(self):
        for z in np.concatenate([[0.0], np.geomspace(1e-300, 2e4, 200)]):
            want = _loop_series_length(lambda j: -math.log(j + 1.0), float(z), sf._EPS, 10000, 0)
            assert self._count(sf.exp_series_length, float(z)) == want, z

    @pytest.mark.parametrize("a, b", [(0.5, 1.5), (-3.0, 2.0), (-2.5, 0.5), (1.0, -2.5),
                                      (3.7e-230, 1.0), (250.0, 251.0)])
    def test_kummer_matches_loop(self, a, b):
        """The 1F1 ratio, with a terminating series (a = -3), a start past
        alternating terms (a = -2.5, b = -2.5) and a subnormal-scale a."""
        start = max(0, math.ceil(-a), math.ceil(-b))

        def scalar(j):
            return (math.log(abs(a + j)) if a + j else -math.inf) - math.log(abs(b + j) * (j + 1.0))

        def vector(j):
            with np.errstate(divide="ignore"):
                return np.log(np.abs(a + j)) - np.log(np.abs(b + j) * (j + 1.0))

        for z in np.geomspace(1e-10, 5e3, 120):
            want = _loop_series_length(scalar, float(z), sf._EPS, 10000, start)
            got = self._count(sf._series_length, vector, float(z), sf._EPS, 10000, start, "1F1")
            assert got == want, z

    def test_budget_error_keeps_its_diagnostics(self):
        with pytest.raises(EvaluationError, match="exponential series") as err:
            sf.exp_series_length(1e5)
        assert err.value.diagnostics["terms"] == 10000
        assert err.value.diagnostics["partial_sum"] == math.inf


def _half_integer_closed_form(nu, x):
    """I_{1/2}, I_{-1/2}, I_{3/2}, I_{5/2} in terms of sinh/cosh."""
    pref = math.sqrt(2.0 / (math.pi * x))
    if nu == 0.5:
        return pref * math.sinh(x)
    if nu == -0.5:
        return pref * math.cosh(x)
    if nu == 1.5:
        return pref * (math.cosh(x) - math.sinh(x) / x)
    if nu == 2.5:
        return pref * ((3.0 / (x * x) + 1.0) * math.sinh(x) - 3.0 * math.cosh(x) / x)
    raise ValueError(nu)


class TestBesselI:
    def test_at_zero(self):
        assert sf.bessel_i(0.0, 0.0) == 1.0
        assert sf.bessel_i(2.0, 0.0) == 0.0

    def test_half_integer_value(self):
        got = sf.bessel_i(0.5, 1.0)
        assert got == pytest.approx(math.sqrt(2.0 / math.pi) * math.sinh(1.0), rel=1e-12)

    @pytest.mark.parametrize("nu", [0.5, -0.5, 1.5, 2.5])
    def test_half_integer_closed_forms(self, nu):
        for x in np.geomspace(0.1, 30.0, 25):
            got = sf.bessel_i(nu, float(x))
            ref = _half_integer_closed_form(nu, float(x))
            assert got == pytest.approx(ref, rel=1e-10)

    def test_negative_integer_order_reduces(self):
        assert sf.bessel_i(-2.0, 3.7) == sf.bessel_i(2.0, 3.7)

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            nu = float(rng.uniform(-0.99, 4.0))
            x = float(rng.uniform(0.01, 120.0))
            ref = iv(nu, x)
            if not np.isfinite(ref):
                continue
            assert sf.bessel_i(nu, x) == pytest.approx(ref, rel=5e-12)

    @pytest.mark.parametrize("nu", [33.5, 34.0, 35.0, 35.5, 100.0, 199.0, 499.0])
    def test_high_order_against_mpmath(self, nu):
        """Orders from 33.5 to 499 (the radial scan order at k = 1000), on
        x in [1e-3, 5e4]: within 2e-12 absolute and 1e-14 relative of
        40-digit mpmath in log I - x, and within 1e-13 relative of one-point
        evaluations.  From nu = 100 on the grid holds points where ive is
        below the normal double range, which the ascending series evaluates
        (x below 0.069 at nu = 100, 4.5 at 199, 112 at 499)."""
        x = np.geomspace(1e-3, 5e4, 60)
        assert nu < 100.0 or np.any(ive(nu, x) < np.finfo(float).tiny)
        got = sf.log_bessel_i_scaled(nu, x)
        alone = np.concatenate([sf.log_bessel_i_scaled(nu, xi[None]) for xi in x])
        np.testing.assert_allclose(got, alone, rtol=1e-13, atol=0)
        with mpmath.workdps(40):
            want = np.array([float(mpmath.log(mpmath.besseli(nu, xi)) - xi) for xi in x])
        err = np.abs(got - want)
        assert np.all(err <= 2e-12) and np.all(err <= 1e-14 * np.abs(want))

    def test_domain_and_convergence_errors(self):
        with pytest.raises(DomainError):
            sf.bessel_i(0.5, -1.0)
        with pytest.raises(EvaluationError) as err:
            sf.bessel_series_length(0.5, 1e9)   # past the 10,000-term budget
        assert "partial_sum" in err.value.diagnostics

    def test_overflow_is_a_typed_error(self):
        """I_{1/2}(800) ~ e^796 is past the double range: a typed error that
        names the log-space route, never a bare OverflowError."""
        with pytest.raises(EvaluationError, match="log_bessel_i_scaled") as err:
            sf.bessel_i(0.5, 800.0)
        assert err.value.diagnostics["log_value"] == pytest.approx(
            float(mpmath.log(mpmath.besseli(0.5, 800))), rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(nu=st.floats(-1.0, 35.0, exclude_min=True),
           tiny=st.floats(0.5e-8, 2e-8), below=st.floats(1e-9, 1e-3))
    @example(nu=35.0, tiny=1e-8, below=1e-6)
    @example(nu=-0.9999999999999999, tiny=1.732419581415348e-08, below=0.0006111882695774149)
    @example(nu=33.91460722997908, tiny=1.508981247202309e-8, below=1e-6)
    def test_batch_fixes_its_term_count_at_the_largest_argument(self, nu, tiny, below):
        """One batch mixing x = 0, x ~ 1e-8, 4x that and x just below 642.5
        gives each point its one-point value within 1e-13 and mpmath's within
        2e-13.  I_nu e^{-x} is below e^{-500} at x = 1e-8 from nu ~ 23.4 on
        and at 4e-8 from nu ~ 24.9 on (below the normal double range from
        nu ~ 32.3 and 34.5 on), so from there both small points take the
        ascending series with one term count, set at the larger of them; the
        rest is log(ive).  The log of a 1e-8 argument rounds at the 2e-13
        scale (log I = -690 at nu = 35), and log(ive) is 2.3e-13 off at
        nu = 33.9, x = 6e-8, where the series is within 1.2e-13.  Silent
        under RuntimeWarning-as-error."""
        x = np.array([0.0, tiny, 4.0 * tiny, 642.5 * (1.0 - below)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sf.log_bessel_i_scaled(nu, x)
            alone = np.concatenate([sf.log_bessel_i_scaled(nu, x[i:i + 1]) for i in range(4)])
        assert got[0] == alone[0] == (0.0 if nu == 0.0 else math.copysign(math.inf, -nu))
        np.testing.assert_allclose(got[1:], alone[1:], rtol=0, atol=1e-13)
        with mpmath.workdps(40):
            log_i = np.array([float(mpmath.log(mpmath.besseli(nu, xi))) for xi in x[1:]])
        assert np.all(np.abs(got[1:] - (log_i - x[1:])) <= 2e-13)
        assert np.all(np.abs(alone[1:] - (log_i - x[1:])) <= 2e-13)

    @pytest.mark.parametrize("nu", [-0.9999999999999999, -1.0 + 1e-9, -0.999, -0.5, -1e-9])
    def test_negative_order_near_minus_one(self, nu):
        """For -1 < nu < 0, ive reflects to order -nu through sin(nu pi),
        which loses its digits near nu = -1 (0.32 off in log I at
        nu = -1 + 1e-16, x = 1.7e-8); the short ascending series there holds
        mpmath's value within 1e-14, as log(ive) does from x = 2 on."""
        x = np.array([1.7e-8, 1e-4, 0.01, 0.1, 1.0, 2.0, 2.5, 8.0, 20.0])
        got = sf.log_bessel_i_scaled(nu, x)
        with mpmath.workdps(40):
            want = np.array([float(mpmath.log(mpmath.besseli(mpmath.mpf(nu), xi)) - xi)
                             for xi in x])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_infinite_argument(self):
        """log I_nu(x) - x -> -inf as x -> inf (ive itself is NaN there)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sf.log_bessel_i_scaled(2.5, np.array([np.inf, 1.0]))
        assert got[0] == -math.inf and np.isfinite(got[1])

    def test_subnormal_argument(self):
        """At a subnormal x the series' (x/2)^nu is formed as
        nu (log x - log 2), since x / 2 underflows to 0: finite, and equal to
        40-digit mpmath."""
        x = 5e-324
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = float(sf.log_bessel_i_scaled(2.0, np.array([x]))[0])
        with mpmath.workdps(40):
            want = float(mpmath.log(mpmath.besseli(2, mpmath.mpf(x))) - mpmath.mpf(x))
        assert want == pytest.approx(-1490.9596, abs=1e-4)
        assert got == pytest.approx(want, rel=1e-15)

    def test_order_domain(self):
        """Non-integer orders below -1 are outside the series' domain."""
        with pytest.raises(DomainError):
            sf.bessel_i(-1.5, 2.0)

    def test_zero_argument_is_silent(self):
        """I_0(0) = 1 with no 0 * log 0 evaluated on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sf.bessel_i(0.0, 0.0) == 1.0
            got = sf.log_bessel_i_scaled(0.0, np.array([0.0, 1.0]))
        assert got[0] == 0.0 and np.isfinite(got[1])

    def test_log_scaled_vectorized(self):
        x = np.geomspace(1e-3, 300.0, 60)
        for nu in (0.5, 1.5, 3.0, -0.5):
            got = sf.log_bessel_i_scaled(nu, x)
            ref = np.log(iv(nu, x)) - x
            np.testing.assert_allclose(got, ref, atol=1e-12, rtol=0)


class TestBesselK:
    """The modified Bessel K in the K-transform kernel is ``scipy.special.kv``.
    These pin the properties the transform relies on, against closed forms,
    mpmath, and the reflection formula through the package's ``bessel_i``
    (mpmath's ``besseli`` where the order is below -1)."""

    def test_half_integer_value(self):
        assert kv(0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-12)

    def test_even_in_order(self):
        for x in (0.3, 1.7, 6.0):
            assert kv(-0.5, x) == kv(0.5, x)
            assert kv(-1.3, x) == kv(1.3, x)

    def test_integer_order_two_path_consistency(self):
        """K_0 against the reflection formula at the near-integer order 1e-6,
        built from the package's I_{+-1e-6}."""
        eps = 1e-6
        for x in (0.5, 2.0):
            near = 0.5 * math.pi * (sf.bessel_i(-eps, x) - sf.bessel_i(eps, x)) / math.sin(eps * math.pi)
            assert kv(0.0, x) == pytest.approx(near, rel=1e-8)

    def test_reflection_identity(self):
        """K_nu = (pi/2)(I_{-nu} - I_nu)/sin(nu pi), nu in {0.3, 1.7}, with the
        package's I at nu = 0.3 and mpmath's at nu = 1.7 (I_{-1.7} is outside
        ``bessel_i``'s domain).

        The difference of two e^x-scale numbers carries an absolute rounding
        floor of order eps * I_nu, so the identity is asserted to 1e-9
        relative to that scale (the binding constraint for x up to 10).
        """
        def mp_besseli(nu, x):
            return float(mpmath.besseli(nu, x))

        for nu, bessel_i in ((0.3, sf.bessel_i), (1.7, mp_besseli)):
            for x in np.geomspace(0.1, 10.0, 25):
                x = float(x)
                lhs = kv(nu, x)
                im = bessel_i(-nu, x)
                ip = bessel_i(nu, x)
                rhs = 0.5 * math.pi * (im - ip) / math.sin(nu * math.pi)
                scale = 0.5 * math.pi * (abs(im) + abs(ip)) / abs(math.sin(nu * math.pi))
                assert abs(lhs - rhs) <= 1e-9 * max(scale, abs(lhs))

    def test_against_scipy(self):
        """scipy's kv against mpmath's besselk over the orders and arguments
        the K-transform reaches."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            nu = float(rng.uniform(0.0, 3.0))
            x = float(rng.uniform(0.05, 40.0))
            assert kv(nu, x) == pytest.approx(float(mpmath.besselk(nu, x)), rel=5e-13)

    def test_domain(self):
        """K_nu is infinite at 0, which the K-transform integrand keeps, and
        the transform itself rejects y <= 0."""
        from bayesminimax import transforms as tr

        assert kv(0.5, 0.0) == math.inf
        g = tr.ScalarFn(eval=lambda x: np.exp(-np.asarray(x, dtype=float)),
                        support=(0.0, math.inf))
        for y in (0.0, -2.0):
            with pytest.raises(DomainError):
                tr.k_transform(g, 0.5, y)


class TestKummer:
    def test_z_zero(self):
        assert sf.kummer_1f1(0.7, 2.3, 0.0) == 1.0

    def test_collapses_to_exponential(self):
        for z in (-3.0, 0.5, 4.0):
            assert sf.kummer_1f1(1.9, 1.9, z) == pytest.approx(math.exp(z), rel=1e-12)

    def test_ode_residual_at_reference_point(self):
        """z y'' + (b - z) y' - a y = 0 with finite-difference derivatives."""
        a, b, z = 1.5, 4.5, -3.0
        h = 1e-4 * max(1.0, abs(z))
        y = lambda t: sf.kummer_1f1(a, b, t)
        y1 = (y(z + h) - y(z - h)) / (2 * h)
        y2 = (y(z + h) - 2 * y(z) + y(z - h)) / (h * h)
        residual = z * y2 + (b - z) * y1 - a * y(z)
        assert abs(residual) < 1e-6

    def test_ode_residual_grid(self):
        # z capped at 2 so that y stays O(10) and the absolute bound is
        # meaningful against the finite-difference noise floor
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = float(rng.uniform(0.2, 3.0))
            b = float(rng.uniform(0.5, 6.0))
            z = float(rng.uniform(-8.0, 2.0))
            h = 1e-4 * max(1.0, abs(z))
            y = lambda t: sf.kummer_1f1(a, b, t)
            y1 = (y(z + h) - y(z - h)) / (2 * h)
            y2 = (y(z + h) - 2 * y(z) + y(z - h)) / (h * h)
            assert abs(z * y2 + (b - z) * y1 - a * y(z)) < 1e-5

    def test_negative_argument_stability(self):
        # raw alternating series would cancel catastrophically here
        for z in (-50.0, -200.0, -800.0):
            got = sf.kummer_1f1(3.5, 4.5, z)
            ref = hyp1f1(3.5, 4.5, z)
            assert got == pytest.approx(ref, rel=1e-10)

    def test_against_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = float(rng.uniform(-2.0, 4.0))
            b = float(rng.uniform(0.3, 6.0))
            z = float(rng.uniform(-30.0, 30.0))
            ref = hyp1f1(a, b, z)
            assert sf.kummer_1f1(a, b, z) == pytest.approx(ref, rel=2e-10, abs=1e-280)

    def test_vectorized(self):
        z = np.array([-5.0, -0.5, 0.0, 2.0, 40.0])
        got = sf.kummer_1f1(0.8, 2.2, z)
        np.testing.assert_allclose(got, hyp1f1(0.8, 2.2, z), rtol=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.kummer_1f1(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            sf.kummer_1f1(1.0, -3.0, 1.0)

    def test_log_variant(self):
        z = np.geomspace(1e-2, 2000.0, 50)
        got = sf.log_kummer_1f1(0.5, 2.5, z)
        small = z < 600
        ref = np.log(hyp1f1(0.5, 2.5, z[small]))
        np.testing.assert_allclose(got[small], ref, atol=1e-11, rtol=0)
        # monotone growth beyond the overflow point of the linear form
        assert np.all(np.diff(got) > 0)


    def test_log_past_the_old_expansion_switch(self):
        """a > 1 at z = 600: the series carries log 1F1 where a large-z
        expansion switched in at a fixed z = 500 used to diverge to NaN."""
        assert sf.log_kummer_1f1(100.0, 200.0, 600.0) == pytest.approx(
            442.72681946788356, rel=1e-14)

    def test_overflow_is_a_typed_error(self):
        """1F1(1/2; 5/2; 800) ~ e^786 is past the double range: a typed error
        naming the log-space kernel, never inf."""
        with pytest.raises(EvaluationError, match="signed_log_kummer_1f1") as err:
            sf.kummer_1f1(0.5, 2.5, 800.0)
        assert err.value.diagnostics["log_value"] == pytest.approx(
            float(mpmath.log(mpmath.hyp1f1(0.5, 2.5, 800))), rel=1e-14)

    def test_series_budget_is_a_typed_error(self):
        """Below the switch the series needs about z terms; past 10,000 it
        raises with a, b and the largest z."""
        with pytest.raises(EvaluationError) as err:
            sf.signed_log_kummer_1f1(99.25, 200.0, np.array([1.0, 2e4]))
        assert {"a", "b", "zmax", "partial_sum"} <= set(err.value.diagnostics)
        assert err.value.diagnostics["zmax"] == 2e4

    @staticmethod
    def _term_moduli(a, b, z):
        """sum_j |t_j| of the ascending series of 1F1(a; b; z), z >= 0: the
        terms before j = ceil(-a) alternate, the rest share one sign."""
        head_abs = head = mpmath.mpf(0)
        t = mpmath.mpf(1)
        for j in range(max(0, math.ceil(-a))):
            head_abs, head = head_abs + abs(t), head + t
            t *= (a + j) * mpmath.mpf(z) / ((b + j) * (j + 1))
        return head_abs + abs(mpmath.hyp1f1(a, b, z, zeroprec=400) - head)

    @settings(max_examples=40, deadline=None)
    @example(a=-1.0, b=1.0, log_z=0.0, z_neg=-1.0)
    @given(a=st.one_of(st.integers(-4, 0).map(float), st.floats(-4.0, 4.0)),
           b=st.floats(0.3, 60.0),
           log_z=st.floats(math.log(1e-6), math.log(3e3)),
           z_neg=st.floats(-50.0, 0.0, exclude_max=True))
    def test_kernel_against_mpmath(self, a, b, log_z, z_neg):
        """``signed_log_kummer_1f1`` on one batch {0, z log-uniform on
        [1e-6, 3e3], z in (-50, 0), z_sw (1 -+ 1e-3)} against mpmath at 40
        digits and more.  For z < 0 the reference is Kummer's transformation
        e^z 1F1(b - a; b; -z) at b - a rounded to double, the parameter the
        kernel's series takes (within half an ulp of the exact b - a).

        Where the evaluated series (in (b - a; -z) for z < 0) has
        nonnegative a, the sign is exact and log|1F1| is within
        1e-14 max(1, |log 1F1|).  The log-space sum rounds at the largest log
        it passes through, so the scale also counts |z| for z < 0 (the two
        logs Kummer's factor e^z cancels) and log(1/d) for an a at distance
        d < 1 from a nonpositive integer (the terms past it are about 1/d
        times smaller than they would be).  A negative a below the switch
        cancels in its head terms: there the value is judged, within
        max(1, log(1/d)) 1e-11 of the sum of the term moduli (which fixes the
        sign wherever 1F1 is larger than that).  The batch fixes one term
        count at its largest z and equals each point's own evaluation within
        1e-14 of the same scales.  Silent under RuntimeWarning-as-error."""
        z_sw = sf._kummer_switch(a, b)
        z = np.array([0.0, math.exp(log_z), z_neg]
                     + ([z_sw * (1.0 - 1e-3), z_sw * (1.0 + 1e-3)] if math.isfinite(z_sw) else []))
        sign, log_abs = sf.signed_log_kummer_1f1(a, b, z)
        for zi, s, la in zip(z, sign, log_abs):
            s1, la1 = sf.signed_log_kummer_1f1(a, b, float(zi))
            a_s, z_s = (a, zi) if zi >= 0 else (b - a, -zi)
            d = abs(a_s - min(0.0, round(a_s)))
            lift = max(1.0, -math.log(d)) if d > 0 else 1.0
            # mpmath resolves a tiny a_s only with that many more digits; a
            # terminating series can be exactly 0 (1F1(-1; 1; 1) = 1 - 1), which
            # mpmath returns only when allowed to (zeroprec) and raises on otherwise
            with mpmath.workdps(40 + int(-math.log10(min(abs(a_s) or 1.0, 1.0)))):
                f = mpmath.exp(min(zi, 0.0)) * mpmath.hyp1f1(a_s, b, z_s, zeroprec=400)
                if a_s < 0 and z_s < sf._kummer_switch(a_s, b):
                    scale = lift * self._term_moduli(a_s, b, z_s) * mpmath.exp(min(zi, 0.0))
                    assert abs(s * mpmath.exp(la) - f) <= 1e-11 * scale
                    assert abs(s * mpmath.exp(la) - s1 * mpmath.exp(la1)) <= 1e-14 * scale
                    continue
                want = float(mpmath.log(abs(f)))
                assert s == s1 == float(mpmath.sign(f))
            scale = max(1.0, abs(want), -min(zi, 0.0), lift)
            assert abs(la - want) <= 1e-14 * scale
            assert abs(la - la1) <= 1e-14 * scale


class TestWhittakerM:
    def test_defining_identity_bit_level(self):
        x, mu, z = 0.25, 0.75, 1.0
        direct = (math.exp(-z / 2.0) * z ** (mu + 0.5)
                  * sf.kummer_1f1(mu + 0.5 - x, 1.0 + 2.0 * mu, z))
        assert sf.whittaker_m(x, mu, z) == direct

    def test_small_z_scaling(self):
        x, mu = 0.3, 0.6
        for z in (1e-6, 1e-8):
            ratio = sf.whittaker_m(x, mu, z) / z ** (mu + 0.5)
            assert ratio == pytest.approx(1.0, rel=1e-5)

    def test_series_cross_check(self):
        x, mu, z = 1.0, 0.5, 2.0
        # independent series: direct Pochhammer sum of the identity
        a, b = mu + 0.5 - x, 1.0 + 2.0 * mu
        total, term = 1.0, 1.0
        for k in range(200):
            term *= (a + k) * z / ((b + k) * (k + 1.0))
            total += term
        ref = math.exp(-z / 2.0) * z ** (mu + 0.5) * total
        assert sf.whittaker_m(x, mu, z) == pytest.approx(ref, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.whittaker_m(0.5, -0.5, 1.0)  # 1 + 2 mu = 0
        with pytest.raises(DomainError):
            sf.whittaker_m(0.5, 0.5, -1.0)


class TestWhittakerW:
    """Whittaker W identities behind the Strawderman radial density, with
    mpmath's ``whitw`` as W; the package evaluates W through
    ``scipy.special.hyperu`` inside ``priors.strawderman_radial``."""

    def test_nonnegative(self):
        """W_{-7/4, 3/4}(z) >= 0 is lambda(sqrt(2z)) >= 0 for a = 1/2, k = 5."""
        from bayesminimax.priors import strawderman_radial

        lam = strawderman_radial(0.5, 5, route="whittaker").lam
        for z in (0.1, 1.0, 7.0):
            assert mpmath.whitw(-1.75, 0.75, z) >= 0.0
            assert lam.eval(math.sqrt(2.0 * z)) >= 0.0

    def test_bessel_k_special_case(self):
        """W_{0,nu}(2z) = sqrt(2z/pi) K_nu(z): checks the K-transform's Bessel
        K (scipy's kv) against mpmath's Whittaker W."""
        for nu in (0.3, 0.75):
            for z in (0.5, 2.0, 5.0):
                lhs = float(mpmath.whitw(0.0, nu, 2.0 * z))
                rhs = math.sqrt(2.0 * z / math.pi) * kv(nu, z)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_strawderman_composition(self):
        """The scale-mixture integral int t^{k/2-a}(1+t)^{a-2} e^{-zt} dt
        equals Gamma(k/2-a+1) e^{z/2} z^{-k/4} W_{a-1-k/4,(k-2)/4}(z)."""
        from bayesminimax._quad import integrate_finite

        k, a, r = 5, 0.5, 1.0
        z = r * r / 2.0

        def integrand(t):
            t = np.asarray(t, dtype=float)
            return t ** (k / 2.0 - a) * (1.0 + t) ** (a - 2.0) * np.exp(-z * t)

        direct = integrate_finite(integrand, 0.0, 200.0, rel_tol=1e-12)
        w = float(mpmath.whitw(a - 1.0 - k / 4.0, (k - 2.0) / 4.0, z))
        composed = math.gamma(k / 2.0 - a + 1.0) * math.exp(z / 2.0) * z ** (-k / 4.0) * w
        assert composed == pytest.approx(direct, rel=1e-8)
