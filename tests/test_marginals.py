"""Marginal profile routes and their cross-agreement.

The binding oracle is the normal prior: N_k(0, I) prior makes the marginal
N_k(0, 2I), whose labeling function is known exactly.  Mixture and
closed-form routes are then held against each other and against closed-form
antiderivatives at u = 0.
"""

import math
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesminimax import _quad, estimators, specfun
from bayesminimax import marginals as mg
from bayesminimax import priors as pr
from bayesminimax import transforms as tr
from bayesminimax.errors import DomainError, EvaluationError
from conftest import assert_derivative_contract, fd1


def _assert_triple_contract(prof, points):
    """The ratios l'/l, l''/l of ``prof.ratios`` match differences of its log l."""
    assert_derivative_contract(tr.ScalarFn(eval=lambda u: prof.triple(u)[0],
                                           ratios=prof.ratios), points)


@pytest.fixture(scope="module")
def strawderman_profiles():
    return (mg.marginal_strawderman(0.5, 5),
            mg.marginal_mixture(pr.strawderman_mixing(0.5, 5),
                                tr.QuadSpec(rel_tol=1e-10)))


class TestRadialRoute:
    def test_normal_prior_closed_form(self):
        prior = pr.RadialPrior(k=5, lam=pr.normal_radial(1.0, 5),
                               proper=pr.PROPER, mass=1.0)
        prof = mg.marginal_radial(prior, tr.QuadSpec(rel_tol=1e-10))
        u = np.array([0.5, 1.0, 2.0])
        ell, d1, d2 = prof.triple(u)
        exact = (4.0 * math.pi) ** -2.5 * np.exp(-u * u / 4.0)
        np.testing.assert_allclose(ell, exact, rtol=1e-8)
        np.testing.assert_allclose(d1, exact * (-u / 2.0), rtol=1e-8)
        np.testing.assert_allclose(d2, exact * (u * u / 4.0 - 0.5), rtol=1e-8)

    def test_positive_everywhere(self):
        prior = pr.strawderman_radial(0.5, 5)
        prof = mg.marginal_radial(prior)
        u = np.geomspace(0.02, 10.0, 25)
        assert np.all(prof.triple(u)[0] > 0)

    @pytest.mark.parametrize("k", [3, 4, 8])
    def test_normal_prior_low_and_high_dimension(self, k):
        """k=3 drives the half-integer kernels I_{1/2} and I_{3/2}, k=4 the
        integer orders I_1 and I_2; the N(0, 2I_k) closed form is exact in
        every dimension."""
        prior = pr.RadialPrior(k=k, lam=pr.normal_radial(1.0, k),
                               proper=pr.PROPER, mass=1.0)
        prof = mg.marginal_radial(prior, tr.QuadSpec(rel_tol=1e-10))
        u = np.array([0.3, 1.0, 3.0])
        ell, d1, d2 = prof.triple(u)
        exact = (4.0 * math.pi) ** (-k / 2.0) * np.exp(-u * u / 4.0)
        np.testing.assert_allclose(ell, exact, rtol=1e-8)
        np.testing.assert_allclose(d1, exact * (-u / 2.0), rtol=1e-8)
        np.testing.assert_allclose(d2, exact * (u * u / 4.0 - 0.5), rtol=1e-8)

    def test_signed_lambda_rejected(self):
        """The route integrates log|lambda|; Whittaker (4, 5) has lambda(3) < 0,
        so integrating it would silently give the marginal of |lambda|."""
        prior = pr.whittaker_radial(4.0, 5)
        assert float(prior.lam.eval(3.0)) < 0
        with pytest.raises(DomainError, match="nonnegative lambda"):
            mg.marginal_radial(prior)

    def test_strawderman_route_triangle(self):
        """Third leg: radial quadrature of the hierarchical density agrees
        with the closed-form hypergeometric marginal."""
        a, k = 0.5, 5
        prof_rad = mg.marginal_radial(pr.strawderman_radial(a, k),
                                      tr.QuadSpec(rel_tol=1e-9))
        prof_closed = mg.marginal_strawderman(a, k)
        u = np.array([0.5, 1.0, 2.0, 4.0])
        e_r = prof_rad.triple(u)
        e_c = prof_closed.triple(u)
        np.testing.assert_allclose(e_r[0], e_c[0], rtol=1e-6)
        np.testing.assert_allclose(e_r[1], e_c[1], rtol=1e-6)
        np.testing.assert_allclose(e_r[2], e_c[2], rtol=2e-6)

    def test_origin_limit_finite_and_smooth(self):
        """The N(0, 2I_k) marginal l = (4 pi)^{-k/2} e^{-u^2/4} at u = 0, near
        it and at u = 0.0101, where a derivative form that subtracts terms of
        size nu/u and nu^2/u^2 loses digits."""
        u = np.array([0.0, 1e-4, 0.0101])
        for k in (3, 4, 5, 8):
            prior = pr.RadialPrior(k=k, lam=pr.normal_radial(1.0, k),
                                   proper=pr.PROPER, mass=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                log_ell, r1, r2 = mg.marginal_radial(prior).ratios(u)
            np.testing.assert_allclose(
                log_ell, -0.5 * k * math.log(4.0 * math.pi) - u * u / 4.0,
                rtol=0, atol=1e-10)
            np.testing.assert_allclose(r1, -u / 2.0, rtol=0, atol=1e-10)
            np.testing.assert_allclose(r2, u * u / 4.0 - 0.5, rtol=0, atol=1e-10)

    @staticmethod
    def _assert_matches_strawderman(a, k, u):
        """Radial quadrature of the Strawderman density against its closed
        form, in (log l, l'/l, l''/l)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        got = mg.marginal_radial(pr.strawderman_radial(a, k)).ratios(u)
        want = mg.marginal_strawderman(a, k).ratios(u)
        np.testing.assert_array_less(np.abs(got[0] - want[0]), 1e-10 * (1.0 + np.abs(want[0])))
        np.testing.assert_array_less(np.abs(got[1] - want[1]), 1e-9 * (1.0 + u))
        np.testing.assert_array_less(np.abs(got[2] - want[2]), 1e-9 * (1.0 + u * u))

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(0.0, 0.99), k=st.integers(3, 70),
           log_u=st.floats(math.log(1e-6), math.log(20.0)))
    def test_matches_closed_form(self, a, k, log_u):
        self._assert_matches_strawderman(a, k, math.exp(log_u))

    @pytest.mark.parametrize("k", [69, 70, 72, 73, 120])
    def test_highest_dimensions_match_closed_form(self, k):
        """High dimensions, whose scan order nu = k/2 - 1 reaches 59 at
        k = 120; one batch spans u = 1e-6 to 20."""
        self._assert_matches_strawderman(0.5, k, [1e-6, 0.01, 0.5, 2.0, 8.0, 20.0])

    @pytest.mark.parametrize("k", [150, 400])
    def test_large_dimensions_match_closed_form(self, k):
        """At k = 150 and 400, where tau^{k/2-a} e^{-tau/2} inside lambda(r)
        overflows unscaled and its Gamma-law tail reaches past any fixed cut:
        each ratio within 1e-11 relative of the closed form."""
        u = np.array([1.0, 10.0, 25.0])
        got = mg.marginal_radial(pr.strawderman_radial(0.5, k)).ratios(u)
        want = mg.marginal_strawderman(0.5, k).ratios(u)
        for g, w in zip(got, want):
            np.testing.assert_array_less(np.abs(g - w), 1e-11 * np.abs(w))

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_second_ratio_matches_closed_form_at_large_u(self, k):
        """l''/l on u in [16, 30], where it is a difference of terms of size
        u^2: the moment series holds it to the closed form within 1e-11."""
        u = np.linspace(16.0, 30.0, 29)
        got = mg.marginal_radial(pr.strawderman_radial(0.5, k)).ratios(u)[2]
        want = mg.marginal_strawderman(0.5, k).ratios(u)[2]
        np.testing.assert_array_less(np.abs(got - want), 1e-11 * np.maximum(1.0, np.abs(want)))

    def test_batch_independent(self):
        """A larger u in the batch, on a higher ladder level, leaves the
        ratios at the other u exactly as they are alone."""
        prof = mg.marginal_radial(pr.strawderman_radial(0.5, 5))
        alone = prof.ratios([0.5, 2.0, 5.0])
        batched = prof.ratios([0.5, 25.0, 2.0, 5.0])
        for got, want in zip(batched, alone):
            np.testing.assert_array_equal(got[[0, 2, 3]], want)

    def test_term_budget_edge(self):
        """The top ladder level of the normal prior (k = 5) passes the
        10,000-term budget, so it is built at the last horizon that fits,
        found once: u = 100, 150 and 175 keep l'/l = -u/2, and u = 181,
        past that horizon, raises."""
        prior = pr.RadialPrior(k=5, lam=pr.normal_radial(1.0, 5),
                               proper=pr.PROPER, mass=1.0)
        prof = mg.marginal_radial(prior)
        u = np.array([100.0, 150.0, 175.0])
        np.testing.assert_allclose(prof.ratios(u)[1], -u / 2.0, rtol=1e-12, atol=0)
        with pytest.raises(EvaluationError, match="10000 terms"):
            prof.ratios([181.0])

    def test_term_budget_raises(self):
        """u_max * R past the 10,000-term budget of the moment series is a
        typed error, not a NaN."""
        prior = pr.RadialPrior(k=5, lam=pr.normal_radial(1.0, 5),
                               proper=pr.PROPER, mass=1.0)
        with pytest.raises(EvaluationError, match="10000 terms"):
            mg.marginal_radial(prior).ratios([1.0, 300.0])

    def test_small_slope_near_origin(self):
        prior = pr.strawderman_radial(0.5, 5)
        prof = mg.marginal_radial(prior)
        u = np.array([0.005, 0.02, 0.04])
        ell, d1, _ = prof.triple(u)
        # l'(u) ~ C u near zero: the ratio d1/u must stabilize
        ratios = d1 / u
        assert np.all(np.abs(d1) <= np.abs(ratios).max() * u * 1.0000001)
        assert np.abs(ratios[0] - ratios[1]) < 0.1 * abs(ratios[1]) + 1e-12


class TestMixtureRoute:
    def test_monomial_value_at_origin(self):
        # l(0) = (2 pi)^{-5/2} int (v+1)^{-4} dv = (2 pi)^{-5/2} / 3
        h = pr.monomial_mixing(2, 5)
        prof = mg.marginal_mixture(h, tr.QuadSpec(rel_tol=1e-11))
        got = float(prof.triple([0.0])[0][0])
        assert got == pytest.approx((2 * math.pi) ** -2.5 / 3.0, rel=1e-9)

    def test_strictly_decreasing(self):
        h = pr.monomial_mixing(2, 5)
        prof = mg.marginal_mixture(h)
        u = np.linspace(0.0, 8.0, 30)
        ell, d1, _ = prof.triple(u)
        assert np.all(np.diff(ell) < 0)
        assert np.all(d1[u > 0] < 0)

    def test_matches_radial_of_mixture(self):
        h = pr.monomial_mixing(2, 5)
        prof_mix = mg.marginal_mixture(h, tr.QuadSpec(rel_tol=1e-10))
        prior = pr.mixture_radial(h, tr.QuadSpec(rel_tol=1e-10))
        prof_rad = mg.marginal_radial(prior, tr.QuadSpec(rel_tol=1e-9))
        u = np.array([0.5, 2.0, 5.0])
        e_mix = prof_mix.triple(u)
        e_rad = prof_rad.triple(u)
        np.testing.assert_allclose(e_rad[0], e_mix[0], rtol=1e-6)
        np.testing.assert_allclose(e_rad[1], e_mix[1], rtol=1e-6)

    def test_derivative_contract(self):
        h = pr.monomial_mixing(2, 5)
        prof = mg.marginal_mixture(h, tr.QuadSpec(rel_tol=1e-11))
        _assert_triple_contract(prof, [0.5, 1.5, 4.0])

    @staticmethod
    def _assert_matches_strawderman(k, u, rel):
        """(log l, l'/l, l''/l) of Strawderman a = 0.5 within ``rel`` of
        the closed form, relative to each value."""
        got = mg.marginal_mixture(pr.strawderman_mixing(0.5, k)).ratios(u)
        want = mg.marginal_strawderman(0.5, k).ratios(u)
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= rel * np.abs(w)), np.max(np.abs(g - w) / np.abs(w))

    @pytest.mark.parametrize("k", [3, 5, 8, 50, 400, 1500])
    def test_matches_closed_form(self, k):
        """Strawderman a = 0.5 on u in [0, 30] against its closed form, in
        (log l, l'/l, l''/l), within 1e-11 relative; at k = 1500 l itself
        is below the double range."""
        u = np.concatenate([[0.0, 1e-3], np.linspace(0.01, 30.0, 300)])
        self._assert_matches_strawderman(k, u, 1e-11)

    def test_matches_closed_form_at_large_u(self):
        """At u = 300, 1000 and 3000 (k = 5), where s = u^2/2 reaches 4.5e6,
        the ratios stay within 1e-10 of the closed form."""
        self._assert_matches_strawderman(5, np.array([300.0, 1000.0, 3000.0]), 1e-10)

    def test_mc_risk_at_k1500(self):
        """Monte Carlo risk at k = 1500, where the closed form's linear
        integrals underflow: no failed sample at |theta| = 0 or 30."""
        prof = mg.marginal_mixture(pr.strawderman_mixing(0.5, 1500))
        for r in estimators.risk_curve(prof, [0.0, 30.0], 4096, 1):
            assert r.n_failures == 0
            assert np.isfinite([r.mc_risk, r.sure_mean]).all() and r.coupled(4.0)

    def test_signed_h_rejected(self):
        """The moments are integrated from log|h|, so a signed h is refused
        rather than integrated as |h|."""
        fn = tr.ScalarFn(eval=lambda v: np.cos(np.asarray(v, dtype=float)),
                         support=(0.0, math.inf), label="cos")
        with pytest.raises(DomainError, match="nonnegative h"):
            mg.marginal_mixture(pr.MixingDensity(k=5, h=fn))


class TestStrawdermanClosedForm:
    def test_origin_value(self):
        # l(0) = (1-a) (2 pi)^{-k/2} / (k/2 - a + 1); for k=5, a=1/2 the
        # gamma ratio is Gamma(3)/Gamma(4) = 1/3, confirmed by the mixture
        # route l(0) = (2 pi)^{-k/2} (1-a) int (1+v)^{a-2-k/2} dv
        prof = mg.marginal_strawderman(0.5, 5)
        got = float(prof.triple([0.0])[0][0])
        assert got == pytest.approx(0.5 * (2 * math.pi) ** -2.5 / 3.0, rel=1e-12)

    def test_matches_mixture_route(self, strawderman_profiles):
        closed, mixture = strawderman_profiles
        u = np.array([0.5, 1.0, 2.0, 4.0])
        e_c = closed.triple(u)
        e_m = mixture.triple(u)
        for a, b in zip(e_c, e_m):
            np.testing.assert_allclose(a, b, rtol=1e-6)

    def test_vanishes_at_infinity(self):
        prof = mg.marginal_strawderman(0.5, 5)
        big = float(prof.triple([60.0])[0][0])
        mid = float(prof.triple([5.0])[0][0])
        assert 0.0 < big < 1e-4 * mid

    def test_derivative_contract(self):
        prof = mg.marginal_strawderman(0.5, 5)
        _assert_triple_contract(prof, [0.3, 1.0, 3.0, 8.0])

    def test_total_mass(self):
        """(2 pi^{k/2}/Gamma(k/2)) int l(u) u^{k-1} du = 1 for proper priors."""
        k = 5
        prof = mg.marginal_strawderman(0.5, k)
        c = 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)
        fn = tr.ScalarFn(
            eval=lambda u: c * prof.triple(u)[0]
            * np.asarray(u, dtype=float) ** (k - 1),
            support=(0.0, math.inf), nonneg=True)
        verdict, mass = pr.probe_properness(fn)
        assert verdict == pr.PROPER
        assert mass == pytest.approx(1.0, abs=1e-4)


    @settings(max_examples=80, deadline=None)
    @given(a=st.floats(0.0, 0.99), k=st.integers(3, 400),
           u=st.one_of(st.just(0.0), st.floats(1e-3, 60.0)))
    def test_matches_kummer_oracle(self, a, k, u):
        """The incomplete-gamma triple against mpmath's 1F1 form
        l = P/c 1F1(c; c+1; z), l' = -u P/(c+1) 1F1(c+1; c+2; z) and
        l'' = -P/(c+1) 1F1(c+1; c+2; z) + u^2 P/(c+2) 1F1(c+2; c+3; z), with
        z = -u^2/2; l'' is judged against the sum of its terms' sizes.  The
        1e-300 floor covers values that underflow double range at large k."""
        c = k / 2.0 - a + 1.0
        pref = (1.0 - a) * (2.0 * math.pi) ** (-0.5 * k)
        with mpmath.workdps(40):
            f = [mpmath.hyp1f1(c + j, c + j + 1, -0.5 * u * u) for j in range(3)]
            want0 = float(pref / c * f[0])
            want1 = float(-u * pref / (c + 1.0) * f[1])
            t1 = float(-pref / (c + 1.0) * f[1])
            t2 = float(u * u * pref / (c + 2.0) * f[2])
        ell, d1, d2 = (float(v[0]) for v in mg.marginal_strawderman(a, k).triple([u]))
        assert abs(ell - want0) <= 1e-12 * abs(want0) + 1e-300
        assert abs(d1 - want1) <= 1e-12 * abs(want1) + 1e-300
        assert abs(d2 - (t1 + t2)) <= 1e-12 * (abs(t1) + abs(t2)) + 1e-300

    @pytest.mark.parametrize("k", [400, 1500])
    def test_log_ell_matches_kummer_at_large_k(self, k):
        """log l against mpmath's 1F1 form where l itself underflows: at
        k = 1500 the factor (2 pi)^{-k/2} alone is 0 in doubles."""
        a = 0.5
        c = k / 2.0 - a + 1.0
        u = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0])
        with mpmath.workdps(40):
            want = np.array([float(mpmath.log((1.0 - a) / c * mpmath.hyp1f1(c, c + 1, -0.5 * x * x))
                                   - 0.5 * k * mpmath.log(2 * mpmath.pi))
                             for x in u])
        closed = mg.marginal_strawderman(a, k).ratios(u)[0]
        mixture = mg.marginal_mixture(pr.strawderman_mixing(a, k)).ratios(u)[0]
        np.testing.assert_allclose(closed, want, rtol=0, atol=1e-11)
        np.testing.assert_allclose(mixture, want, rtol=0, atol=1e-8)

    def test_ratios_at_k1500_past_the_underflow(self):
        """At k = 1500 G itself underflows from u ~ 39 (s ~ 760); the
        ratio-form recurrence keeps (log l, l'/l, l''/l) within 1e-12 of
        40-digit incomplete gammas M_b = gamma(b, s)/s^b on both sides."""
        a, k = 0.5, 1500
        n = k / 2.0 - a
        u = np.array([10.0, 39.0, 60.0])
        got = mg.marginal_strawderman(a, k).ratios(u)
        with mpmath.workdps(40):
            for i, x in enumerate(u.tolist()):
                s = mpmath.mpf(x) ** 2 / 2
                M0, M1, M2 = (mpmath.gammainc(n + 1 + j, 0, s) / s ** (n + 1 + j) for j in range(3))
                want = (mpmath.log(1 - a) - k / 2 * mpmath.log(2 * mpmath.pi) + mpmath.log(M0),
                        -x * M1 / M0, (x * x * M2 - M1) / M0)
                for j in range(3):
                    assert abs(got[j][i] / float(want[j]) - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0.0, 0.99), k=st.integers(3, 400), u=st.floats(0.05, 30.0))
    def test_ratios_match_mixture_route(self, a, k, u):
        """Closed form and mixture quadrature agree in (log l, l'/l, l''/l)."""
        closed = mg.marginal_strawderman(a, k).ratios([u])
        mixture = mg.marginal_mixture(pr.strawderman_mixing(a, k)).ratios([u])
        for got, want in zip(mixture, closed):
            assert float(got[0]) == pytest.approx(float(want[0]), rel=5e-8, abs=5e-8)

    @pytest.mark.parametrize("n, k", [(1, 3), (2, 4), (2, 5), (3, 7), (5, 10)])
    def test_example1_identity(self, n, k):
        """Strawderman a = k/2 - n is example1(n) scaled by 1 - a: the same G,
        so the same ratios l'/l, l''/l and the same Monte Carlo risk at one
        seed, with log l shifted by log(1 - a)."""
        a = k / 2.0 - n
        straw = mg.marginal_strawderman(a, k)
        ex1 = mg.monomial_mixture_profile(n, k)
        u = np.concatenate([[0.0], np.geomspace(1e-3, 40.0, 200)])
        (log_s, *ratios_s), (log_e, *ratios_e) = straw.ratios(u), ex1.ratios(u)
        for got, want in zip(ratios_s, ratios_e):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(log_s - log_e, math.log1p(-a), rtol=0, atol=1e-14)
        norms = [0.0, 3.0]
        assert (estimators.risk_curve(straw, norms, 4096, 17)
                == estimators.risk_curve(ex1, norms, 4096, 17))


class TestClosedFormMonomial:
    def test_matches_quadrature_mixture(self):
        prof_c = mg.monomial_mixture_profile(2, 5)
        prof_q = mg.marginal_mixture(pr.monomial_mixing(2, 5),
                                     tr.QuadSpec(rel_tol=1e-11))
        u = np.geomspace(0.05, 8.0, 15)
        e_c = prof_c.triple(u)
        e_q = prof_q.triple(u)
        for a, b in zip(e_c, e_q):
            np.testing.assert_allclose(a, b, rtol=1e-8)

    def test_origin_value(self):
        """l(0) = C/(n+1), l'(0) = 0 and l''(0) = -C/(n+2), C = (2 pi)^{-k/2}."""
        ell, d1, d2 = mg.monomial_mixture_profile(2, 5).triple(0.0)
        C = (2.0 * math.pi) ** -2.5
        assert float(ell) == pytest.approx(C / 3.0, rel=1e-15)
        assert float(d1) == 0.0
        assert float(d2) == pytest.approx(-C / 4.0, rel=1e-15)

    def test_derivative_contract(self):
        prof = mg.monomial_mixture_profile(2, 5)
        _assert_triple_contract(prof, [0.4, 1.0, 2.5, 6.0])


class TestSurrogates:
    def test_flat(self):
        prof = mg.flat_profile(5)
        u = np.array([0.5, 2.0])
        ell, d1, d2 = prof.triple(u)
        assert np.all(ell == 1.0) and np.all(d1 == 0.0) and np.all(d2 == 0.0)


class TestTripleContract:
    """One triple() is one pass of the route: no component is recomputed."""

    @staticmethod
    def _count(monkeypatch, module, names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    @staticmethod
    def _assert_triple_repeats(prof, u, triple):
        for got, want in zip(prof.triple(u), triple):
            np.testing.assert_array_equal(got, want)

    def test_mixture_one_log_batch_per_level(self, monkeypatch):
        """A first triple on two ladder levels makes one log-space row batch
        of moments per level and no linear-space integral; a warm triple
        scans and integrates nothing."""
        prof = mg.marginal_mixture(pr.monomial_mixing(2, 5))
        u = np.array([0.0, 0.5, 2.0, 4.0, 4.5, 5.0])
        names = ["adaptive_batch", "integrate_rows", "integrate_rows_log", "scan_log_peak"]
        counts = self._count(monkeypatch, _quad, names)
        triple = prof.triple(u)
        assert counts == {"adaptive_batch": 0, "integrate_rows": 0, "integrate_rows_log": 2,
                          "scan_log_peak": 2}
        counts.update(dict.fromkeys(names, 0))
        assert prof.triple(u[::-1])[0][0] == triple[0][-1]
        assert counts == dict.fromkeys(names, 0)
        self._assert_triple_repeats(prof, u, triple)

    def test_mixture_mc_builds_each_level_once(self, monkeypatch):
        """Two Monte Carlo batches on a fresh mixture profile, run by one
        worker and by two at once, give equal reports and build each ladder
        level once."""
        theta = np.array([6.0, 0.0, 0.0, 0.0, 0.0])
        counts = self._count(monkeypatch, _quad, ["integrate_rows_log"])
        reports, builds = [], []
        for workers in (1, 2):
            monkeypatch.setattr(estimators, "_WORKERS", workers)
            prof = mg.marginal_mixture(pr.strawderman_mixing(0.5, 5))
            reports.append(estimators.mc_risk(prof, theta, 2 * estimators._BATCH, 5))
            builds.append(counts["integrate_rows_log"])
            counts["integrate_rows_log"] = 0
        assert reports[0] == reports[1]
        assert builds[0] == builds[1] >= 3

    def test_radial_one_log_batch_one_scan(self, monkeypatch):
        """Building the profile integrates nothing; a first triple on one
        ladder level is two scans (the level's term count and the range of
        its one block of moments), one log-space row batch of moments (one
        engine call over the whole interval) and the order-nu kernel of the
        level's scan only, at every u including the origin."""
        prior = pr.RadialPrior(k=5, lam=pr.normal_radial(1.0, 5),
                               proper=pr.PROPER, mass=1.0)
        names = ["adaptive_batch", "adaptive_batch_log", "integrate_rows",
                 "integrate_rows_log", "scan_log_peak"]
        counts = self._count(monkeypatch, _quad, names)
        prof = mg.marginal_radial(prior)
        assert counts == dict.fromkeys(names, 0)
        orders = []
        kernel = specfun.log_bessel_i_scaled
        monkeypatch.setattr(specfun, "log_bessel_i_scaled",
                            lambda nu, x: orders.append(nu) or kernel(nu, x))
        u = np.array([0.0, 1e-3, 0.5, 1.0, 2.0])
        triple = prof.triple(u)
        assert counts == {"adaptive_batch": 0, "adaptive_batch_log": 1, "integrate_rows": 0,
                          "integrate_rows_log": 1, "scan_log_peak": 2}
        assert set(orders) == {1.5}
        self._assert_triple_repeats(prof, u, triple)

    def test_radial_warm_call_integrates_nothing(self, monkeypatch):
        """Once a ladder level's moment table is built, a triple on it scans
        and integrates nothing."""
        prof = mg.marginal_radial(pr.strawderman_radial(0.5, 5))
        u = np.linspace(0.0, 12.0, 50)
        prof.ratios(u)
        names = ["integrate_rows_log", "scan_log_peak"]
        counts = self._count(monkeypatch, _quad, names)
        triple = prof.triple(u[::-1])
        assert counts == dict.fromkeys(names, 0)
        self._assert_triple_repeats(prof, u[::-1], triple)

    def test_radial_mc_builds_each_table_once(self, monkeypatch):
        """Two Monte Carlo batches on a fresh radial profile, run by one
        worker and by two at once, give equal reports; the two threads scan
        each ladder level and integrate each block of moments once, as one
        does."""
        theta = np.array([6.0, 0.0, 0.0, 0.0, 0.0])
        names = ["integrate_rows_log", "scan_log_peak"]
        counts = self._count(monkeypatch, _quad, names)
        reports, builds = [], []
        for workers in (1, 2):
            monkeypatch.setattr(estimators, "_WORKERS", workers)
            prof = mg.marginal_radial(pr.strawderman_radial(0.5, 5))
            reports.append(estimators.mc_risk(prof, theta, 2 * estimators._BATCH, 5))
            builds.append(dict(counts))
            counts.update(dict.fromkeys(names, 0))
        assert reports[0] == reports[1]
        assert builds[0] == builds[1]
        assert builds[0]["scan_log_peak"] > builds[0]["integrate_rows_log"] >= 2

    def test_strawderman_no_kummer_calls(self, monkeypatch):
        """The closed form goes through the incomplete gamma, not 1F1."""
        prof = mg.marginal_strawderman(0.5, 5)
        u = np.array([0.5, 1.0, 2.0])
        counts = self._count(monkeypatch, specfun, ["kummer_1f1"])
        triple = prof.triple(u)
        assert counts == {"kummer_1f1": 0}
        self._assert_triple_repeats(prof, u, triple)


SERIES_ROUTES = {
    "mixture": lambda: mg.marginal_mixture(pr.gen_beta_mixing(2.0, 2.0, -1.0, 0.5, 5)),
    "radial": lambda: mg.marginal_radial(pr.strawderman_radial(0.5, 5)),
}


@pytest.mark.parametrize("route", sorted(SERIES_ROUTES))
class TestSeriesRouteContract:
    """What the shared moment-series evaluator gives both quadrature routes:
    example2 on the mixture route, Strawderman a = 0.5, k = 5 on the radial
    route."""

    def test_every_point_equals_its_value_alone(self, route, monkeypatch):
        """u = 0 and 2,000 seeded u on [0, 30], over several ladder levels
        and (radial) several blocks of moments, in one batch and each alone:
        equal to the bit."""
        u = np.concatenate([[0.0], np.random.default_rng(21).uniform(0.0, 30.0, 2000)])
        prof = SERIES_ROUTES[route]()
        calls = TestTripleContract._count(monkeypatch, _quad,
                                          ["scan_log_peak", "integrate_rows_log"])
        batched = prof.ratios(u)
        # the radial route scans once per level and once per block of
        # moments, the mixture route once per level
        batches = calls["integrate_rows_log"]
        level_scans = calls["scan_log_peak"] - (batches if route == "radial" else 0)
        assert batches >= 3 and level_scans >= 3
        for i in range(u.size):
            for got, want in zip(prof.ratios(u[i:i + 1]), batched):
                assert got[0] == want[i], (u[i], got[0], want[i])

    def test_nan_u_gives_nan(self, route):
        """A NaN u gives NaN in all three ratios, and the other u of its batch
        keep their values alone."""
        prof = SERIES_ROUTES[route]()
        u = np.array([0.0, 3.0, np.nan, 25.0])
        got = prof.ratios(u)
        assert all(np.isnan(g[2]) for g in got)
        for i in (0, 1, 3):
            for g, w in zip(got, prof.ratios(u[i:i + 1])):
                assert g[i] == w[0], (u[i], g[i], w[0])

    def test_tables_under_thread_contention(self, route, monkeypatch):
        """Eight threads, more than the cores, with a 1 us switch interval,
        race for the same ladder levels of a fresh profile, each on its own
        rotation of one batch: every level (mixture) or block of moments
        (radial) is integrated once, as in one thread, and every thread gets
        the values of one thread alone."""
        u = np.linspace(0.0, 20.0, 64)
        counts = TestTripleContract._count(monkeypatch, _quad, ["integrate_rows_log"])
        want = SERIES_ROUTES[route]().ratios(u)
        batches = counts["integrate_rows_log"]
        assert batches >= 2
        counts["integrate_rows_log"] = 0
        prof = SERIES_ROUTES[route]()
        results = [None] * 8

        def work(i):
            results[i] = prof.ratios(np.roll(u, 8 * i))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert counts["integrate_rows_log"] == batches
        for i, got in enumerate(results):
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, np.roll(w, 8 * i))


def _spy_series(monkeypatch):
    """Record what a series route hands the shared evaluator: the
    (log_scale, kappa, build) of ``_series_profile`` and every
    (log b_j, y_lo, y_hi, table) of ``_scaled_pieces``."""
    seen = {"pieces": []}
    profile, pieces = mg._series_profile, mg._scaled_pieces

    def series_profile(k, route, log_scale, kappa, build):
        seen.update(log_scale=log_scale, kappa=kappa, build=build)
        return profile(k, route, log_scale, kappa, build)

    def scaled_pieces(log_b, y_lo, y_hi):
        table = pieces(log_b, y_lo, y_hi)
        seen["pieces"].append((log_b, y_lo, y_hi, table))
        return table

    monkeypatch.setattr(mg, "_series_profile", series_profile)
    monkeypatch.setattr(mg, "_scaled_pieces", scaled_pieces)
    return seen


@pytest.mark.parametrize("route", sorted(SERIES_ROUTES))
def test_series_origin_limits(route, monkeypatch):
    """u = 0, 5e-324, 1e-300 and 1e-150 take the limits of the series at
    the origin, log l = log_scale + log b_0 and l''/l = 2 kappa (b_1/b_0 - c)
    with l'/l = u l''/l(0), and SURE there is k (1 + 2 rho(0)), rho(0) =
    l''/l(0), with no RuntimeWarning."""
    seen = _spy_series(monkeypatch)
    prof = SERIES_ROUTES[route]()
    _, c, log_b, _ = seen["build"](0.0)
    want0 = seen["log_scale"] + log_b[0]
    want2 = 2.0 * seen["kappa"] * (math.exp(log_b[1] - log_b[0]) - c)
    u = np.array([0.0, 5e-324, 1e-300, 1e-150])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        log_ell, r1, r2 = prof.ratios(u)
        sures = [estimators.sure(prof, np.eye(prof.k)[0] * x) for x in u]
    assert log_ell[0] == pytest.approx(want0, rel=4e-16)
    assert r2[0] == pytest.approx(want2, rel=1e-14)
    assert r1[0] == 0.0
    np.testing.assert_array_equal(log_ell, log_ell[0])
    np.testing.assert_array_equal(r2, r2[0])
    for x, got in zip(u, r1):
        assert got == pytest.approx(x * r2[0], rel=1e-15, abs=1e-323)
    k = prof.k
    np.testing.assert_allclose(sures, k * (1.0 + 2.0 * r2[0]), rtol=0,
                               atol=4.0 * k * (1.0 + 2.0 * abs(r2[0])) * np.finfo(float).eps)


def _series_reference(log_b, b, y):
    """log sum_j b_j y^j, q = E[j]/y and E[j(j-1)]/y^2 at one double y, as
    mpmath sums of the exact terms b_j y^j (b the mpmath e^{log b_j}), or
    their limits at y = 0.  Each sum skips the terms outside the range of j
    that holds every term above e^{-120} of its largest, at most 1e-48 of it
    in all."""
    if y == 0.0:
        return float(mpmath.log(b[0])), float(b[1] / b[0]), float(2 * b[2] / b[0])
    j = np.arange(log_b.size, dtype=float)
    with np.errstate(divide="ignore"):
        log_t = log_b + j * math.log(y)
        weighted = [log_t, log_t + np.log(j), log_t + np.log(j * (j - 1.0))]
    keep = np.flatnonzero(np.any([w >= np.max(w) - 120.0 for w in weighted], axis=0))
    lo, hi = int(keep[0]), int(keep[-1])
    yy = mpmath.mpf(float(y))
    power, s0, s1, s2 = yy ** lo, [], [], []
    for i in range(lo, hi + 1):
        t = b[i] * power
        s0.append(t)
        s1.append(i * t)
        s2.append(i * (i - 1) * t)
        power *= yy
    s0, s1, s2 = (mpmath.fsum(s) for s in (s0, s1, s2))
    return float(mpmath.log(s0)), float(s1 / (s0 * yy)), float(s2 / (s0 * yy * yy))


SERIES_REFERENCE_CASES = {
    # Strawderman a = 0.5, radial, on every level to u = 24 and 20
    "radial_k5": (lambda: mg.marginal_radial(pr.strawderman_radial(0.5, 5)), 24.0),
    "radial_k120": (lambda: mg.marginal_radial(pr.strawderman_radial(0.5, 120)), 20.0),
    # the normal prior's top level, N near the 10,000-term budget, cut into pieces
    "radial_normal_k5": (lambda: mg.marginal_radial(pr.RadialPrior(
        k=5, lam=pr.normal_radial(1.0, 5), proper=pr.PROPER, mass=1.0)), 175.0),
    # Strawderman a = 0.5 at k = 1500, whose series falls most over a level
    "mixture_k1500": (lambda: mg.marginal_mixture(pr.strawderman_mixing(0.5, 1500)), 64.0),
}


@pytest.mark.parametrize("case", sorted(SERIES_REFERENCE_CASES))
def test_moment_sums_match_mpmath(case, monkeypatch):
    """The Horner sums of each level against an mpmath sum of the same
    series at 40 u across the level, its low end included: q and
    E[j(j-1)]/y^2 within 8 (N+1) eps relative, and log sum within that plus
    the rounding of a double of its size.  The radial_normal_k5 case checks
    only its top level, whose y range is cut into pieces; mixture_k1500 only
    its last level, whose series falls by e^{500} from top to low end."""
    make, u_top = SERIES_REFERENCE_CASES[case]
    seen = _spy_series(monkeypatch)
    make().ratios([u_top])
    levels = seen["pieces"]
    if case in ("radial_normal_k5", "mixture_k1500"):
        assert len(levels) == 1
    else:
        make().ratios(np.linspace(0.0, u_top, 200))
        levels = seen["pieces"][1:]
    eps = np.finfo(float).eps
    for log_b, y_lo, y_hi, table in levels:
        if case == "radial_normal_k5":
            assert table[0].size >= 4
        y = np.concatenate([y_lo + (y_hi - y_lo) * np.geomspace(1e-6, 1.0, 20) ** 2,
                            np.linspace(y_lo, y_hi, 20)])
        got = mg._moment_sums(y, table)
        tol = 8.0 * log_b.size * eps
        with mpmath.workdps(40):
            b = [mpmath.exp(mpmath.mpf(float(v))) for v in log_b]
            want = [_series_reference(log_b, b, yi) for yi in y]
        for i, (yi, want) in enumerate(zip(y, want)):
            assert abs(got[0, i] - want[0]) <= tol + 2.0 * eps * abs(want[0]), (yi, got[0, i], want[0])
            for g, w in zip(got[1:, i], want[1:]):
                assert abs(g - w) <= tol * abs(w), (yi, g, w)
