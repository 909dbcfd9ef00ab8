"""Marginal profile routes and their cross-agreement.

The binding oracle is the normal prior: N_k(0, I) prior makes the marginal
N_k(0, 2I), whose labeling function is known exactly.  Mixture and
closed-form routes are then held against each other and against closed-form
antiderivatives at u = 0.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesminimax import _quad, estimators, specfun
from bayesminimax import marginals as mg
from bayesminimax import priors as pr
from bayesminimax import transforms as tr
from bayesminimax.errors import DomainError
from conftest import assert_derivative_contract, fd1


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
        """k=3 drives the I_{-1/2} derivative kernel, k=4 the integer order
        I_0; the N(0, 2I_k) closed form is exact in every dimension."""
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

    def test_origin_limit_finite_and_smooth(self, monkeypatch):
        prior = pr.RadialPrior(k=5, lam=pr.normal_radial(1.0, 5),
                               proper=pr.PROPER, mass=1.0)
        prof = mg.marginal_radial(prior, tr.QuadSpec(rel_tol=1e-10))
        exact0 = (4.0 * math.pi) ** -2.5
        got0 = float(np.atleast_1d(prof.ell.eval(1e-4))[0])
        assert got0 == pytest.approx(exact0, rel=1e-8)
        # both branches evaluated at the same u by moving the switch point
        u = 0.01
        monkeypatch.setattr(mg, "_SMALL_U", 0.02)
        a = float(np.atleast_1d(prof.ell.eval(u))[0])
        monkeypatch.setattr(mg, "_SMALL_U", 0.005)
        b = float(np.atleast_1d(prof.ell.eval(u))[0])
        assert a == pytest.approx(b, rel=1e-9)

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
        got = float(np.atleast_1d(prof.ell.eval(0.0))[0])
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
        assert_derivative_contract(prof.ell, [0.5, 1.5, 4.0])


class TestStrawdermanClosedForm:
    def test_origin_value(self):
        # l(0) = (1-a) (2 pi)^{-k/2} / (k/2 - a + 1); for k=5, a=1/2 the
        # gamma ratio is Gamma(3)/Gamma(4) = 1/3, confirmed by the mixture
        # route l(0) = (2 pi)^{-k/2} (1-a) int (1+v)^{a-2-k/2} dv
        prof = mg.marginal_strawderman(0.5, 5)
        got = float(np.atleast_1d(prof.ell.eval(0.0))[0])
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
        big = float(np.atleast_1d(prof.ell.eval(60.0))[0])
        mid = float(np.atleast_1d(prof.ell.eval(5.0))[0])
        assert 0.0 < big < 1e-4 * mid

    def test_derivative_contract(self):
        prof = mg.marginal_strawderman(0.5, 5)
        assert_derivative_contract(prof.ell, [0.3, 1.0, 3.0, 8.0])

    def test_total_mass(self):
        """(2 pi^{k/2}/Gamma(k/2)) int l(u) u^{k-1} du = 1 for proper priors."""
        k = 5
        prof = mg.marginal_strawderman(0.5, k)
        c = 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)
        fn = tr.ScalarFn(
            eval=lambda u: c * np.asarray(prof.ell.eval(u), dtype=float)
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
        assert_derivative_contract(prof.ell, [0.4, 1.0, 2.5, 6.0])


class TestSurrogates:
    def test_flat(self):
        prof = mg.flat_profile(5)
        u = np.array([0.5, 2.0])
        ell, d1, d2 = prof.triple(u)
        assert np.all(ell == 1.0) and np.all(d1 == 0.0) and np.all(d2 == 0.0)

    def test_power_law(self):
        prof = mg.power_law_profile(5, -3.0)
        u = np.array([0.5, 1.0, 2.0])
        ell, d1, d2 = (2.0 * x for x in prof.triple(u))
        np.testing.assert_allclose(ell, 2.0 * u ** -3.0, rtol=1e-14)
        np.testing.assert_allclose(d1, -6.0 * u ** -4.0, rtol=1e-14)
        np.testing.assert_allclose(d2, 24.0 * u ** -5.0, rtol=1e-14)
        assert prof.extra["formal"]


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
    def _assert_view_matches(prof, u, triple):
        view = prof.ell
        for got, want in zip((view.eval(u), view.deriv1(u), view.deriv2(u)), triple):
            np.testing.assert_array_equal(got, want)

    def test_mixture_two_batches_per_chunk(self, monkeypatch):
        monkeypatch.setattr(mg, "_CHUNK", 4)
        prof = mg.marginal_mixture(pr.monomial_mixing(2, 5))
        u = np.linspace(0.5, 4.0, 8)
        counts = self._count(monkeypatch, _quad, ["adaptive_batch"])
        triple = prof.triple(u)
        assert counts == {"adaptive_batch": 4}
        self._assert_view_matches(prof, u, triple)

    def test_radial_two_log_batches_one_scan(self, monkeypatch):
        prior = pr.RadialPrior(k=5, lam=pr.normal_radial(1.0, 5),
                               proper=pr.PROPER, mass=1.0)
        prof = mg.marginal_radial(prior)
        u = np.array([0.5, 1.0, 2.0])
        counts = self._count(monkeypatch, _quad,
                             ["adaptive_batch_log", "scan_log_peak"])
        triple = prof.triple(u)
        assert counts == {"adaptive_batch_log": 2, "scan_log_peak": 1}
        self._assert_view_matches(prof, u, triple)

    def test_strawderman_no_kummer_calls(self, monkeypatch):
        """The closed form goes through the incomplete gamma, not 1F1."""
        prof = mg.marginal_strawderman(0.5, 5)
        u = np.array([0.5, 1.0, 2.0])
        counts = self._count(monkeypatch, specfun, ["kummer_1f1"])
        triple = prof.triple(u)
        assert counts == {"kummer_1f1": 0}
        self._assert_view_matches(prof, u, triple)
