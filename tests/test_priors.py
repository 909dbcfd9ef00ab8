"""Prior families and construction pipelines.

Oracles: closed-form densities (chi distribution, scale-mixture limits),
exact monomial solutions of the Euler-type equation, the Whittaker-W
composition for the Strawderman prior, and quadrature cross-checks between
independent evaluation routes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfc

from bayesminimax import families
from bayesminimax import priors as pr
from bayesminimax import transforms as tr
from bayesminimax.errors import ConstructionError, DomainError, EvaluationError
from conftest import assert_derivative_contract, fd1


def t_squared():
    """The unit-interval kernel t^2 of the monomial family with n = 2."""
    return tr.ScalarFn(eval=lambda t: np.asarray(t, dtype=float) ** 2,
                       support=(0.0, 1.0), label="t^2", nonneg=True)


class TestNormalRadial:
    def test_unit_mass(self):
        fn = pr.normal_radial(2.0, 5)
        mass, _ = pr.probe_properness(fn)[1], None
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_mode(self):
        v, k = 2.0, 5
        fn = pr.normal_radial(v, k)
        mode = math.sqrt((k - 1) * v)
        eps = 1e-5
        assert fn.eval(mode) > fn.eval(mode + eps)
        assert fn.eval(mode) > fn.eval(mode - eps)
        assert abs(fd1(lambda r: float(np.atleast_1d(fn.eval(r))[0]), mode)) < 1e-6

    def test_low_dimension_rejected(self):
        with pytest.raises(DomainError):
            pr.normal_radial(1.0, 1)
        with pytest.raises(DomainError):
            pr.normal_radial(0.0, 5)


class TestMixtureRadial:
    def test_point_mass_limit(self):
        """A mixing needle of width 1e-4 at v0 reproduces the single-scale
        radial density within 1e-3 relative."""
        v0, width, k = 2.0, 1e-4, 5

        def bump(v):
            v = np.asarray(v, dtype=float)
            return np.exp(-0.5 * ((v - v0) / width) ** 2) / (width * math.sqrt(2 * math.pi))

        h = pr.MixingDensity(
            k=k, h=tr.ScalarFn(eval=bump, support=(v0 - 8 * width, v0 + 8 * width),
                               nonneg=True),
            proper=pr.PROPER, mass=1.0)
        prior = pr.mixture_radial(h)
        single = pr.normal_radial(v0, k)
        r = np.array([0.5, 1.5, 3.0])
        np.testing.assert_allclose(prior.lam.eval(r), single.eval(r), rtol=1e-3)

    def test_monomial_family_finite(self):
        h = pr.monomial_mixing(2, 5)
        prior = pr.mixture_radial(h)
        val = float(np.atleast_1d(prior.lam.eval(1.0))[0])
        assert val > 0
        assert prior.proper == pr.PROPER

    def test_zero_mixing(self):
        h = pr.MixingDensity(
            k=5, h=tr.ScalarFn(eval=lambda v: np.zeros_like(np.asarray(v, float)),
                               nonneg=True),
            proper=pr.UNKNOWN)
        prior = pr.mixture_radial(h)
        assert float(np.atleast_1d(prior.lam.eval(1.0))[0]) == 0.0

    def test_pipeline_determinism(self):
        """Kernel-composed and direct mixing densities are the same function,
        and repeated quadrature evaluations are bit-identical."""
        direct = pr.monomial_mixing(2, 5)
        composed = pr.mixing_from_unit_kernel(t_squared(), 5)
        v = np.geomspace(1e-2, 50.0, 20)
        np.testing.assert_allclose(composed.h.eval(v), direct.h.eval(v),
                                   rtol=5e-16)
        prior = pr.mixture_radial(direct)
        r = np.array([0.5, 1.0, 3.0])
        np.testing.assert_array_equal(prior.lam.eval(r), prior.lam.eval(r))


class TestStrawderman:
    def test_dual_route_agreement(self):
        for a in (0.1, 0.5, 0.9):
            for k in (3, 5, 8):
                p_int = pr.strawderman_radial(a, k)
                p_whit = pr.strawderman_radial(a, k, route="whittaker")
                for r in (0.5, 1.0, 3.0):
                    vi = float(np.atleast_1d(p_int.lam.eval(r))[0])
                    vw = float(np.atleast_1d(p_whit.lam.eval(r))[0])
                    assert vw == pytest.approx(vi, rel=1e-7)

    @pytest.mark.parametrize("a, k", [(0.5, 5), (0.0, 3), (0.9, 10), (0.1, 8), (0.5, 12)])
    def test_whittaker_route_against_mpmath(self, a, k):
        """log lambda of the Tricomi route against mpmath's Whittaker W form,
        out to r = 60 where e^{r^2/4} W alone would overflow.  k = 8 and 12
        reach the quadrature fallback at small r."""
        import mpmath as mp

        lam = pr.strawderman_radial(a, k, route="whittaker").lam
        r = np.geomspace(1e-3, 60.0, 12)
        got = lam.log_eval(r)
        with mp.workdps(30):
            want = [float(mp.log(1 - a) + mp.loggamma(k / 2 - a + 1)
                          - (k / 4 - 1) * mp.log(2) - mp.loggamma(k / 2)
                          + (k - 2) / 2 * mp.log(ri) + ri * ri / 4
                          + mp.log(mp.whitw(a - 1 - k / 4, (k - 2) / 4, ri * ri / 2)))
                    for ri in r]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        np.testing.assert_allclose(lam.eval(r), np.exp(got), rtol=1e-15)

    @pytest.mark.parametrize("k, r_lo, r_hi", [(16, 0.3, 1.2), (40, 2.0, 6.0)])
    def test_whittaker_route_near_hyperu_breakdown(self, k, r_lo, r_hi):
        """For k a multiple of 4, hyperu's integer-b series gives NaN below
        r ~ 0.36 (k = 16) or r ~ 2.2 (k = 40) and loses digits on the way
        there.  Packed densely across that edge, the route still matches
        mpmath's Whittaker W form to 1e-9 in log lambda."""
        import mpmath as mp

        a = 0.5
        lam = pr.strawderman_radial(a, k, route="whittaker").lam
        r = np.linspace(r_lo, r_hi, 100)
        got = lam.log_eval(r)
        with mp.workdps(30):
            want = [float(mp.log(1 - a) + mp.loggamma(k / 2 - a + 1)
                          - (k / 4 - 1) * mp.log(2) - mp.loggamma(k / 2)
                          + (k - 2) / 2 * mp.log(ri) + ri * ri / 4
                          + mp.log(mp.whitw(a - 1 - k / 4, (k - 2) / 4, ri * ri / 2)))
                    for ri in r]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("k", [5, 150, 400])
    def test_integral_route_against_mpmath(self, k):
        """The integral route's log of int t^{k/2-a} (1+t)^{a-2} e^{-t r^2/2}
        dt against 40-digit mpmath Gamma(alpha) U(alpha, k/2, r^2/2): at
        k = 400 tau^{k/2-a} e^{-tau/2} alone overflows, and at k = 150 its
        Gamma-law tail reaches past a fixed cut."""
        import mpmath as mp

        a, r = 0.5, np.array([2.0, 5.0, 10.0, 20.0, 40.0])
        alpha = k / 2 - a + 1
        got = pr._strawderman_log_integral(a, k, tr.DEFAULT_QUAD)(r)
        with mp.workdps(40):
            want = [float(mp.log(mp.gamma(alpha) * mp.hyperu(alpha, k / 2, mp.mpf(ri) ** 2 / 2)))
                    for ri in r]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_whittaker_route_is_one_vectorized_call(self, monkeypatch):
        """Where hyperu is finite the route makes no quadrature call; where it
        is NaN (k = 12, r below ~0.14) only those r are integrated."""
        from bayesminimax import _quad

        calls = []
        original = _quad.integrate_rows

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(_quad, "integrate_rows", counted)
        r = np.geomspace(1e-3, 60.0, 200)
        assert np.all(np.isfinite(pr.strawderman_radial(0.5, 5, route="whittaker").lam.log_eval(r)))
        assert calls == []
        assert np.all(np.isfinite(pr.strawderman_radial(0.5, 12, route="whittaker").lam.log_eval(r)))
        assert calls == [1]

    @pytest.mark.parametrize("route", ["integral", "whittaker"])
    def test_origin(self, route):
        # lambda(r) ~ r near 0, so lambda(0) = 0 and log lambda(0) = -inf
        lam = pr.strawderman_radial(0.5, 5, route=route).lam
        with np.errstate(all="raise"):
            assert lam.eval(0.0) == 0.0
            assert lam.log_eval(0.0) == -math.inf
            vals = lam.eval(np.array([0.0, 0.5]))
        assert vals[0] == 0.0 and vals[1] == lam.eval(0.5) > 0.0

    def test_nonnegative(self):
        prior = pr.strawderman_radial(0.5, 5)
        r = np.geomspace(0.05, 20.0, 30)
        assert np.all(np.asarray(prior.lam.eval(r)) >= 0)

    def test_unit_mass(self):
        prior = pr.strawderman_radial(0.5, 5)
        verdict, mass = pr.probe_properness(prior.lam)
        assert verdict == pr.PROPER
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            pr.strawderman_radial(1.0, 5)
        with pytest.raises(DomainError):
            pr.strawderman_radial(-0.1, 5)
        with pytest.raises(DomainError):
            pr.strawderman_radial(0.5, 2)


class TestMonomialMixing:
    def test_proper_case(self):
        md = pr.monomial_mixing(2, 5)
        v = np.array([0.0, 1.0, 4.0])
        np.testing.assert_allclose(md.h.eval(v), (v + 1.0) ** -1.5, rtol=1e-14)
        assert md.proper == pr.PROPER
        assert md.mass == pytest.approx(2.0, rel=1e-12)
        verdict, mass = pr.probe_properness(md.h)
        assert verdict == pr.PROPER and mass == pytest.approx(2.0, abs=1e-6)

    def test_boundary_improper(self):
        assert pr.monomial_mixing(1, 5).proper == pr.IMPROPER

    def test_slow_tail_improper(self):
        md = pr.monomial_mixing(0, 3)  # exponent k/2-2-n = -1/2
        assert md.proper == pr.IMPROPER
        verdict, _ = pr.probe_properness(md.h)
        assert verdict == pr.IMPROPER


class TestMonomialLaplaceG:
    def test_moments_and_complete_monotonicity(self):
        G = pr.monomial_laplace_G(2)
        s = np.geomspace(1e-2, 30.0, 20)
        Gv, G1, G2 = G.eval(s), G.deriv1(s), G.deriv2(s)
        assert np.all(Gv > 0) and np.all(G1 < 0) and np.all(G2 > 0)
        # int_0^1 t^2 e^{-t} dt = 2 - 5/e and -int_0^1 t^3 e^{-t} dt = -(6 - 16/e)
        assert float(G.eval(1.0)) == pytest.approx(2.0 - 5.0 / math.e, rel=1e-10)
        assert float(G.deriv1(1.0)) == pytest.approx(-(6.0 - 16.0 / math.e), rel=1e-9)

    def test_derivative_contract(self):
        assert_derivative_contract(pr.monomial_laplace_G(2), [0.5, 2.0, 8.0])

    def test_small_s_limits(self):
        """At s = 0 and wherever s^{n+1+j} underflows, G, G', G'' take their
        limits 1/b - s/(b+1), b = n+1+j, instead of 0/0."""
        for n in (2, 2.5, -0.5):
            G = pr.monomial_laplace_G(n)
            for s in (0.0, 1e-300, 1e-200):
                for j, part, sign in ((0, G.eval, 1.0), (1, G.deriv1, -1.0),
                                      (2, G.deriv2, 1.0)):
                    b = n + 1.0 + j
                    assert float(part(s)) == pytest.approx(sign * (1.0 / b - s / (b + 1.0)),
                                                           rel=1e-15)

    @pytest.mark.parametrize("n", [59.5, 149.5, 399.5])
    def test_large_exponent(self, n):
        """For large n, Gamma(n+1) and s^{n+1} leave double range and P(n+1, s)
        underflows for s well below n; the moments still match mpmath's
        1F1(b; b+1; -s)/b, b = n+1+j, on both sides of the switch to the
        positive series.  The 1e-300 floor covers values below double range."""
        import mpmath as mp

        G = pr.monomial_laplace_G(n)
        s = np.concatenate([[0.0], np.geomspace(1e-6, 3000.0, 120)])
        for j, part, sign in ((0, G.eval, 1.0), (1, G.deriv1, -1.0),
                              (2, G.deriv2, 1.0)):
            b = n + 1.0 + j
            got = np.asarray(part(s), dtype=float)
            with mp.workdps(40):
                want = np.array([sign * float(mp.hyp1f1(b, b + 1, -si) / b) for si in s])
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-300)

    @settings(max_examples=100, deadline=None)
    @given(n=st.floats(-1.0, 400.0, exclude_min=True),
           s=st.one_of(st.just(0.0),
                       st.floats(math.log(1e-8), math.log(3000.0)).map(math.exp)))
    def test_downward_recurrence(self, n, s):
        """G and -G' come from G'' by M_b = (s M_{b+1} + e^{-s}) / b; all
        three match mpmath's 1F1(b; b+1; -s)/b, b = n+1+j, at any exponent."""
        import mpmath as mp

        parts = pr.monomial_laplace_G(n).triple(s)
        for j, sign in enumerate((1.0, -1.0, 1.0)):
            b = n + 1.0 + j
            with mp.workdps(40):
                want = float(mp.hyp1f1(b, b + 1, -s) / b)
            got = sign * float(parts[j])
            assert abs(got - want) <= 1e-12 * abs(want) + 1e-300

    def test_one_gammainc_call_per_triple(self, monkeypatch):
        """Only the top moment calls gammainc, on every branch: s = 1e-8
        takes the series, 100 the quotient and 1e5 log space (b = 63.5)."""
        import scipy.special

        calls = []
        inner = scipy.special.gammainc

        def counting(a, x):
            calls.append(a)
            return inner(a, x)

        monkeypatch.setattr(scipy.special, "gammainc", counting)
        G = pr.monomial_laplace_G(60.5)
        s = np.array([1e-8, 100.0, 1e5])
        G.triple(s)
        assert calls == [63.5]
        G.eval(s)
        assert calls == [63.5, 63.5]

    @pytest.mark.parametrize("n", [0.3, 2.5, -0.5])
    def test_real_exponent(self, n):
        """int_0^1 t^n e^{-st} dt = 1F1(n+1; n+2; -s)/(n+1) for real n > -1,
        against mpmath."""
        import mpmath as mp

        G = pr.monomial_laplace_G(n)
        for s in (0.01, 1.0, 30.0):
            want = float(mp.hyp1f1(n + 1, n + 2, -s) / (n + 1))
            assert float(G.eval(s)) == pytest.approx(want, rel=1e-13)

    def test_domain(self):
        for n in (-1, -1.5):
            with pytest.raises(DomainError):
                pr.monomial_laplace_G(n)


class TestGenBetaKernel:
    def test_pointwise_arithmetic(self):
        kern = pr.gen_beta_kernel(2.0, 2.0, -1.0, 0.5)
        # t (1-t) (1 - t/2)^{+1} at t = 1/2
        assert float(np.atleast_1d(kern.eval(0.5))[0]) == pytest.approx(0.1875, rel=1e-14)

    def test_gamma_zero_is_beta(self):
        kern = pr.gen_beta_kernel(2.0, 3.0, 0.0, 0.5)
        t = np.array([0.2, 0.5, 0.8])
        np.testing.assert_allclose(kern.eval(t), t * (1 - t) ** 2, rtol=1e-14)

    def test_mixing_nonnegative(self):
        md = pr.gen_beta_mixing(2.0, 2.0, -1.0, 0.5, 5)
        v = np.geomspace(1e-2, 100.0, 20)
        assert np.all(np.asarray(md.h.eval(v)) >= 0)

    @pytest.mark.parametrize("bad", [dict(alpha=0.0), dict(beta=0.0),
                                     dict(sigma=0.0), dict(sigma=1.0)])
    def test_parameter_domain(self, bad):
        params = dict(alpha=2.0, beta=2.0, gamma=-1.0, sigma=0.5)
        params.update(bad)
        with pytest.raises(DomainError):
            pr.gen_beta_kernel(**params)


class TestMixingFromUnitKernel:
    def test_monomial_kernel(self):
        md = pr.mixing_from_unit_kernel(t_squared(), 5)
        v = np.array([0.0, 1.0, 9.0])
        np.testing.assert_allclose(md.h.eval(v), (v + 1.0) ** -1.5, rtol=1e-13)

    def test_boundary_kernel(self):
        k = 5
        f = tr.ScalarFn(eval=lambda t: np.asarray(t, float) ** (k - 3) / math.factorial(k - 3),
                        support=(0.0, 1.0), nonneg=True)
        md = pr.mixing_from_unit_kernel(f, k)
        v = np.array([0.5, 2.0, 10.0])
        ref = (v + 1.0) ** (1.0 - k / 2.0) / math.factorial(k - 3)
        np.testing.assert_allclose(md.h.eval(v), ref, rtol=1e-13)

    def test_zero_kernel(self):
        f = tr.ScalarFn(eval=lambda t: np.zeros_like(np.asarray(t, float)),
                        support=(0.0, 1.0), nonneg=True)
        md = pr.mixing_from_unit_kernel(f, 5)
        assert float(np.atleast_1d(md.h.eval(3.0))[0]) == 0.0

    def test_negative_kernel_rejected(self):
        f = tr.ScalarFn(eval=lambda t: -np.ones_like(np.asarray(t, float)),
                        support=(0.0, 1.0))
        with pytest.raises(DomainError):
            pr.mixing_from_unit_kernel(f, 5)


def inv_square_phi(b):
    return tr.ScalarFn(eval=lambda u: -2.0 * b / np.asarray(u, float) ** 2,
                       support=(0.0, math.inf), label="-2b/u^2")


class TestConstructSpherical:
    def test_monomial_solutions(self):
        k, b = 5, 1.0
        sol = pr.construct_spherical(inv_square_phi(b), k, c1=1.0, c2=1.0,
                                     u_grid=np.geomspace(0.1, 5.0, 20),
                                     phi_series=[-2.0 * b, 0, 0, 0])
        rho1 = (2.0 - k - math.sqrt((k - 2.0) ** 2 - 4 * b)) / 2.0
        rho2 = (2.0 - k + math.sqrt((k - 2.0) ** 2 - 4 * b)) / 2.0
        assert sol.rho1 == pytest.approx(rho1, rel=1e-14)
        assert sol.rho2 == pytest.approx(rho2, rel=1e-14)
        u = np.geomspace(0.1, 5.0, 40)
        np.testing.assert_allclose(sol.z1.eval(u), u ** rho1, rtol=1e-6)
        np.testing.assert_allclose(sol.z2.eval(u), u ** rho2, rtol=1e-6)

    def test_pure_inverse_square_recessive_solution_is_exact(self):
        """For the token forcing phi = -2/u^2 the equation's last coefficient
        d = -u^2 (phi - b0/u^2)/2 is exactly 0, so z1 is u^rho1 to rounding
        (4.4e-9 off when d was formed as (b0 - u^2 phi)/2)."""
        phi, b = families.parse_phi_tokens([{"kind": "inv_sq", "c": -2.0}])
        u = np.geomspace(0.1, 10.0, 60)
        sol = pr.construct_spherical(phi, 5, c1=0.0, c2=1.0, u_grid=u, phi_series=b)
        assert np.max(np.abs(sol.z1.eval(u) / u ** sol.rho1 - 1.0)) <= 1e-14

    def test_ode_residual(self):
        """Each solution's z' from the panels differentiates to the z'' that
        ``S_triple`` takes from the ODE, and z' is the derivative of z."""
        for c1, c2 in ((1.0, 0.0), (0.0, 1.0)):
            sol = pr.construct_spherical(inv_square_phi(1.0), 5, c1=c1, c2=c2,
                                         u_grid=np.geomspace(0.1, 8.0, 15),
                                         phi_series=[-2.0, 0, 0, 0])
            for u in (0.2, 1.0, 4.0):
                z, dz, d2z = (float(x) for x in sol.S_triple(u))
                scale = max(1.0, abs(z) / u ** 2)
                assert abs(fd1(lambda t: float(sol.S_triple(t)[1]), u) - d2z) < 1e-6 * scale
                assert abs(fd1(lambda t: float(sol.S_triple(t)[0]), u) - dz) < 1e-6 * scale

    def test_profile_matches_closed_form(self):
        k, b = 5, 1.0
        sol = pr.construct_spherical(inv_square_phi(b), k, c1=1.0, c2=1.0,
                                     u_grid=np.geomspace(0.1, 5.0, 20),
                                     phi_series=[-2.0, 0, 0, 0])
        F_closed = pr.inverse_square_profile(b, k, 1.0, 1.0)
        u = np.geomspace(0.2, 4.0, 30)
        np.testing.assert_allclose(sol.F.eval(u), F_closed.eval(u), rtol=1e-6)
        np.testing.assert_allclose(sol.F.deriv1(u), F_closed.deriv1(u), rtol=1e-6)
        np.testing.assert_allclose(sol.F.deriv2(u), F_closed.deriv2(u), rtol=1e-6)

    def test_euler_case_rejected_to_closed_form(self):
        # phi = 0: indicial roots 0 and 2-k differ by the integer k-2
        phi0 = tr.ScalarFn(eval=lambda u: np.zeros_like(np.asarray(u, float)))
        with pytest.raises(ConstructionError, match="closed-form"):
            pr.construct_spherical(phi0, 5, phi_series=[0.0, 0, 0, 0])

    def test_repeated_root_rejected(self):
        k = 5
        b = (k - 2.0) ** 2 / 4.0
        with pytest.raises(ConstructionError):
            pr.construct_spherical(inv_square_phi(b), k,
                                   phi_series=[-2.0 * b, 0, 0, 0])

    def test_complex_roots_rejected(self):
        k = 5
        b = (k - 2.0) ** 2 / 4.0 + 1.0
        with pytest.raises(ConstructionError, match=r"\(k-2\)\^2/4"):
            pr.construct_spherical(inv_square_phi(b), k,
                                   phi_series=[-2.0 * b, 0, 0, 0])

    def test_positive_phi_rejected(self):
        phi = tr.ScalarFn(eval=lambda u: np.ones_like(np.asarray(u, float)))
        with pytest.raises(ConstructionError):
            pr.construct_spherical(phi, 5, phi_series=[0, 0, 1.0, 0])

    def test_zero_combination_rejected(self):
        with pytest.raises(DomainError):
            pr.construct_spherical(inv_square_phi(1.0), 5, c1=0.0, c2=0.0,
                                   phi_series=[-2.0, 0, 0, 0])

    def test_batching_and_order_do_not_change_values(self):
        # z1 and z2 read one dense output; u = 5e-4 lies on the series start
        sol = _inverse_square_solution()
        u = np.concatenate(([5e-4], np.geomspace(0.05, 9.0, 39)))
        reads = [sol.z1.eval, sol.z2.eval, sol.F.eval, sol.F.deriv1, sol.F.deriv2]
        reads += [lambda x, j=j: sol.S_triple(x)[j] for j in range(3)]
        for read in reads:
            batch = np.asarray(read(u))
            pointwise = np.array([read(x) for x in u])
            reversed_ = np.asarray(read(u[::-1]))[::-1]
            assert np.array_equal(batch, pointwise)
            assert np.array_equal(batch, reversed_)


class TestInverseSquareProfile:
    def test_single_root_closed_form(self):
        # b = 0, A2 = 0: rho1 = 2-k = -3, F = u^{-4} e^{u^2/2}
        F = pr.inverse_square_profile(0.0, 5, 1.0, 0.0)
        u = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(F.eval(u), u ** -4.0 * np.exp(u * u / 2.0),
                                   rtol=1e-13)

    def test_euler_pair(self):
        # b = 0 gives the Euler solutions z1 = u^{2-k}, z2 = 1
        F = pr.inverse_square_profile(0.0, 5, 0.0, 1.0)
        u = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(F.eval(u), u ** 2.0 * np.exp(u * u / 2.0),
                                   rtol=1e-13)

    def test_nonnegative(self):
        F = pr.inverse_square_profile(1.0, 5, 1.0, -2.0)
        u = np.geomspace(0.05, 6.0, 50)
        assert np.all(np.asarray(F.eval(u)) >= 0)

    def test_repeated_root_rejected(self):
        with pytest.raises(ConstructionError):
            pr.inverse_square_profile((5 - 2) ** 2 / 4.0, 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            pr.inverse_square_profile(-0.5, 5)
        with pytest.raises(DomainError):
            pr.inverse_square_profile(3.0, 5)


class TestWhittakerRadial:
    def test_composition_oracle(self):
        from bayesminimax import specfun as sf

        prior = pr.whittaker_radial(1.0, 5)
        r = 1.0
        ref = r ** 1.5 * math.exp(r * r / 4.0) * sf.whittaker_m(0.75, 0.75, r * r / 2.0)
        assert float(np.atleast_1d(prior.lam.eval(r))[0]) == pytest.approx(ref, rel=1e-10)

    def test_positive(self):
        prior = pr.whittaker_radial(1.0, 5)
        r = np.geomspace(0.1, 10.0, 20)
        assert np.all(np.asarray(prior.lam.eval(r)) > 0)

    def test_signed_polynomial_when_series_terminates(self):
        """gamma=4, k=5: 1F1(-1; 5/2; z) = 1 - 2z/5 terminates, so lambda is
        the polynomial r^{3/2} z^{5/4} (1 - 2z/5), z = r^2/2, which changes
        sign at r = sqrt(5); the family must return it signed."""
        prior = pr.whittaker_radial(4.0, 5)
        assert not prior.lam.nonneg
        r = np.array([0.5, 1.0, 2.0, 2.5, 4.0, 8.0])
        z = r * r / 2.0
        ref = r ** 1.5 * z ** 1.25 * (1.0 - 2.0 * z / 5.0)
        got = np.asarray(prior.lam.eval(r))
        np.testing.assert_allclose(got, ref, rtol=1e-12)
        np.testing.assert_allclose(prior.lam.log_eval(r), np.log(np.abs(ref)),
                                   rtol=1e-12)
        assert np.all(got[r < math.sqrt(5.0)] > 0)
        assert np.all(got[r > math.sqrt(5.0)] < 0)

    def test_signed_log_past_series_overflow(self):
        """gamma=3, k=5: a1 = -1/2, so 1F1(a1; 5/2; r^2/2) does not terminate
        and is negative; its value leaves the double range between r = 37.5
        and 38.  Sign and log|lambda| come from the log-space Kummer kernel at
        every r and must match mpmath; below z = 64 (r ~ 11.3), on its series,
        they are exactly the kernel's (sign, log|1F1|) in the formula and
        within 1e-15 of mpmath."""
        import mpmath as mp

        from bayesminimax import specfun as sf

        gamma, k = 3.0, 5
        a1, b1, mu = (k - 1) / 4.0 - gamma / 2.0, k / 2.0, (k - 2) / 4.0
        lam = pr.whittaker_radial(gamma, k).lam

        def mp_log_lam(ri):
            z = mp.mpf(ri) ** 2 / 2
            f1 = mp.hyp1f1(a1, b1, z)
            return float(mp.sign(f1)), float((k - 2) / 2.0 * mp.log(ri) + mp.mpf(ri) ** 2 / 4
                                             - z / 2 + (mu + 0.5) * mp.log(z) + mp.log(abs(f1)))

        r = np.array([30.0, 39.0, 45.0, 60.0])
        with np.errstate(over="ignore"):
            sign = np.sign(lam.eval(r))
        got = lam.log_eval(r)
        with mp.workdps(30):
            for ri, si, gi in zip(r, sign, got):
                want_sign, want = mp_log_lam(ri)
                assert si == want_sign == -1.0
                assert gi == pytest.approx(want, rel=1e-10)

        rf = np.array([2.0, 5.0, 11.0])
        z = rf * rf / 2.0
        sign_f, log_f = sf.signed_log_kummer_1f1(a1, b1, z)
        kernel = ((k - 2) / 2.0 * np.log(rf) + rf * rf / 4.0 - z / 2.0
                  + (mu + 0.5) * np.log(z) + log_f)
        np.testing.assert_array_equal(lam.log_eval(rf), kernel)
        np.testing.assert_array_equal(lam.sign_of(rf), sign_f)
        with mp.workdps(40):
            want = [mp_log_lam(ri) for ri in rf]
        np.testing.assert_array_equal(sign_f, [w[0] for w in want])
        np.testing.assert_allclose(kernel, [w[1] for w in want], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("gamma, k", [(3.0, 5), (2.2, 3)])
    def test_log_abs_matches_mpmath_where_the_linear_series_loses_digits(self, gamma, k):
        """a1 < 0: on r in [14, 39] the linear 1F1 series is finite but off by
        up to 2.7e-12 in log|lambda| (about 4e-15 relative at r = 37); from
        z = 64 on the large-z expansion carries log|lambda| to about one ulp
        and the sign exactly, against mpmath's Whittaker M."""
        import mpmath as mp

        mu, kappa = (k - 2) / 4.0, gamma / 2.0 + 0.25
        lam = pr.whittaker_radial(gamma, k).lam
        r = np.linspace(14.0, 39.0, 26)
        got, sign = lam.log_eval(r), lam.sign_of(r)
        with mp.workdps(40):
            m = [mp.whitm(kappa, mu, mp.mpf(ri) ** 2 / 2) for ri in r]
            want = np.array([float((k - 2) / 2.0 * mp.log(ri) + mp.mpf(ri) ** 2 / 4
                                   + mp.log(abs(mi))) for ri, mi in zip(r, m)])
            np.testing.assert_array_equal(sign, [float(mp.sign(mi)) for mi in m])
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_log_abs_at_large_k_matches_mpmath(self):
        """gamma=1, k=400: a1 = 99.25 > 1, where a large-z expansion switched
        in at z = 500 used to return NaN.  The series carries log lambda to
        z = 5,000 (r = 100) within 1e-14 relative of mpmath's Whittaker M."""
        import mpmath as mp

        gamma, k = 1.0, 400
        mu, kappa = (k - 2) / 4.0, gamma / 2.0 + 0.25
        r = np.array([32.0, 40.0, 100.0])
        got = pr.whittaker_radial(gamma, k).lam.log_eval(r)
        assert np.all(np.isfinite(got))
        with mp.workdps(40):
            want = np.array([float((k - 2) / 2.0 * mp.log(ri) + mp.mpf(ri) ** 2 / 4
                                   + mp.log(mp.whitm(kappa, mu, mp.mpf(ri) ** 2 / 2)))
                             for ri in r])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_past_the_series_budget_is_a_typed_error(self):
        """gamma=1, k=400 at r = 200: z = 2e4 lies below the expansion's
        switch, and the series would need more than its 10,000 terms."""
        with pytest.raises(EvaluationError):
            pr.whittaker_radial(1.0, 400).lam.log_eval(200.0)

    def test_mass_grows_without_bound(self):
        """Truncated mass integrals at R = 10, 20, 40 grow explosively; the
        family never integrates (flagged improper)."""
        from bayesminimax._quad import adaptive_batch_log

        prior = pr.whittaker_radial(1.0, 5)
        assert prior.proper == pr.IMPROPER

        def log_rows(r):
            return prior.lam.log_eval(np.asarray(r, float))[:, None]

        masses = []
        for R in (10.0, 20.0, 40.0):
            masses.append(float(adaptive_batch_log(log_rows, 0.05, R,
                                                   rel_tol=1e-8)[0]))
        assert masses[1] > masses[0] + 50.0   # log-mass jumps by e^{50}+
        assert masses[2] > masses[1] + 200.0

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            pr.whittaker_radial(-3.5, 5)  # gamma + (k+1)/2 = -0.5


class TestConstructGMixture:
    def test_zero_phi(self):
        phi0 = tr.ScalarFn(eval=lambda s: np.zeros_like(np.asarray(s, float)))
        G = pr.construct_G_mixture(phi0, a=1.0, b=0.25)
        s = np.array([0.5, 1.0, 3.0])
        np.testing.assert_allclose(G.eval(s), (s - 0.25) ** 2, rtol=1e-9)

    def test_boundary_family(self):
        k = 5
        phi = tr.ScalarFn(eval=lambda s: k / np.asarray(s, float))
        G = pr.construct_G_mixture(phi, a=1.0, b=math.inf, k=k)
        s = np.geomspace(0.2, 10.0, 15)
        vals = np.asarray(G.eval(s))
        ratio = vals / s ** (2.0 - k)
        assert np.max(np.abs(ratio / ratio.mean() - 1.0)) < 1e-9

    def test_nonnegative(self):
        phi = tr.ScalarFn(eval=lambda s: -np.ones_like(np.asarray(s, float)))
        G = pr.construct_G_mixture(phi, a=1.0, b=0.0)
        s = np.geomspace(0.1, 5.0, 10)
        assert np.all(np.asarray(G.eval(s)) >= 0)

    def test_bound_violation_witnessed(self):
        k = 5
        phi = tr.ScalarFn(eval=lambda s: 2.0 * k / np.asarray(s, float))
        with pytest.raises(ConstructionError, match="violates"):
            pr.construct_G_mixture(phi, a=1.0, b=math.inf, k=k)

    def test_infinite_anchor_needs_integrable_tail(self):
        phi = tr.ScalarFn(eval=lambda s: np.zeros_like(np.asarray(s, float)))
        with pytest.raises(ConstructionError, match="integrable"):
            pr.construct_G_mixture(phi, a=1.0, b=math.inf)

    @staticmethod
    def _inverse_oracle(c, a, s):
        """phi = c/s, b = inf: G = A s^{2-c} with A = a^c / (c/2 - 1)^2."""
        A = a ** c / (c / 2.0 - 1.0) ** 2
        return (A * s ** (2.0 - c), (2.0 - c) * A * s ** (1.0 - c),
                (2.0 - c) * (1.0 - c) * A * s ** (-c))

    @staticmethod
    def _assert_triple(G, s, oracle, rtol):
        for got, want in zip((G.eval(s), G.deriv1(s), G.deriv2(s)), oracle):
            np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)

    def test_inverse_forcing_closed_form(self):
        c, a = 5.0, 1.0
        phi = tr.ScalarFn(eval=lambda s: c / np.asarray(s, float))
        G = pr.construct_G_mixture(phi, a=a, b=math.inf, k=5)
        s = np.geomspace(0.1, 20.0, 40)
        self._assert_triple(G, s, self._inverse_oracle(c, a, s), 1e-10)

    def test_constant_forcing_closed_form(self):
        # phi = -1: E = e^{(s-a)/2}, G = (2 (e^{(s-a)/2} - e^{(b-a)/2}))^2
        a, b = 1.0, 0.25
        phi = tr.ScalarFn(eval=lambda s: -np.ones_like(np.asarray(s, float)))
        G = pr.construct_G_mixture(phi, a=a, b=b)
        s = np.geomspace(0.5, 20.0, 30)
        E = np.exp((s - a) / 2.0)
        I = 2.0 * (E - math.exp((b - a) / 2.0))
        self._assert_triple(G, s, (I * I, 2.0 * I * E, 2.0 * E * E + I * E), 1e-10)

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(3, 8), a=st.floats(0.5, 2.0),
           frac=st.floats(0.0, 1.0, exclude_min=True))
    def test_inverse_forcing_sweep(self, k, a, frac):
        c = 2.0 + frac * (k - 2.0)   # c in (2, k]
        phi = tr.ScalarFn(eval=lambda s: c / np.asarray(s, float))
        if c / 2.0 <= 1.05:   # fitted tail exponent -c/2 is not below -1.05
            with pytest.raises(ConstructionError, match="integrable"):
                pr.construct_G_mixture(phi, a=a, b=math.inf, k=k)
            return
        G = pr.construct_G_mixture(phi, a=a, b=math.inf, k=k)
        s = np.geomspace(0.1, 20.0, 12)
        self._assert_triple(G, s, self._inverse_oracle(c, a, s), 1e-10)

    def test_points_past_the_dense_span(self):
        c, a = 5.0, 1.0
        phi = tr.ScalarFn(eval=lambda s: c / np.asarray(s, float))
        G = pr.construct_G_mixture(phi, a=a, b=math.inf, k=5)
        s = np.array([1e-10, 1e10])
        self._assert_triple(G, s, self._inverse_oracle(c, a, s), 1e-7)
        flat = pr.construct_G_mixture(
            tr.ScalarFn(eval=lambda s: -np.ones_like(np.asarray(s, float))),
            a=1.0, b=0.0)
        assert flat.eval(0.0) == 0.0
        assert flat.eval(1e-10) == pytest.approx(math.exp(-1.0) * 1e-20, rel=1e-7)

    def test_batching_and_order_do_not_change_values(self):
        phi = tr.ScalarFn(eval=lambda s: 4.0 / np.asarray(s, float))
        G = pr.construct_G_mixture(phi, a=1.0, b=math.inf, k=5)
        s = np.geomspace(0.05, 50.0, 40)
        for fn in (G.eval, G.deriv1, G.deriv2):
            batch = np.asarray(fn(s))
            pointwise = np.array([fn(x) for x in s])
            reversed_ = np.asarray(fn(s[::-1]))[::-1]
            assert np.array_equal(batch, pointwise)
            assert np.array_equal(batch, reversed_)

    # a = 0.677...: math.log(a) and numpy's log of it differ by an ulp
    @pytest.mark.parametrize("a", [1.0, 0.6772752462000964])
    @pytest.mark.parametrize("c", [3.0, 4.0, 5.0])
    def test_inverse_forcing_to_rounding(self, c, a):
        phi = tr.ScalarFn(eval=lambda s: c / np.asarray(s, float))
        G = pr.construct_G_mixture(phi, a=a, b=math.inf, k=5)
        s = np.geomspace(0.01, 100.0, 60)
        self._assert_triple(G, s, self._inverse_oracle(c, a, s), 1e-12)

    @staticmethod
    def _counted(f):
        calls = []

        def eval_(s):
            calls.append(1)
            return f(np.asarray(s, float))

        return tr.ScalarFn(eval=eval_), calls

    def test_exponential_E_needs_few_phi_calls(self):
        # phi = -1 (E grows like e^{s/2}) and phi = 3/s + 1/2 with b = inf
        # (E decays like e^{-s/4} and underflows long before the horizon)
        s = np.geomspace(0.5, 20.0, 30)
        phi, calls = self._counted(lambda x: -np.ones_like(x))
        G = pr.construct_G_mixture(phi, a=1.0, b=0.25)
        E = np.exp((s - 1.0) / 2.0)
        I = 2.0 * (E - math.exp((0.25 - 1.0) / 2.0))
        self._assert_triple(G, s, (I * I, 2.0 * I * E, 2.0 * E * E + I * E), 1e-10)
        assert len(calls) < 500

        phi, calls = self._counted(lambda x: 3.0 / x + 0.5)
        G = pr.construct_G_mixture(phi, a=1.0, b=math.inf)
        # E = s^{-3/2} e^{-(s-1)/4}; I = -int_s^inf E through Gamma(-1/2, s/4)
        E = s ** -1.5 * np.exp(-(s - 1.0) / 4.0)
        I = -math.exp(0.25) * (2.0 * np.exp(-s / 4.0) / np.sqrt(s)
                               - math.sqrt(math.pi) * erfc(np.sqrt(s) / 2.0))
        self._assert_triple(G, s, (I * I, 2.0 * I * E, 2.0 * E * E - I * E * (3.0 / s + 0.5)),
                            1e-10)
        assert np.all(np.isfinite(G.triple(np.geomspace(1e-6, 1e4, 40))))
        assert len(calls) < 500

        phi, calls = self._counted(lambda x: 5.0 / x)
        G = pr.construct_G_mixture(phi, a=1.0, b=math.inf, k=5)
        self._assert_triple(G, s, self._inverse_oracle(5.0, 1.0, s), 1e-10)
        assert len(calls) < 500

    def test_non_integrable_at_zero_anchor(self):
        # E = s^{-3} near 0: int_0^s E diverges
        phi = tr.ScalarFn(eval=lambda s: 6.0 / np.asarray(s, float))
        with pytest.raises(ConstructionError, match="inner integral diverges"):
            G = pr.construct_G_mixture(phi, a=1.0, b=0.0)
            G.eval(1.0)

    def test_unresolved_forcing_names_its_panel(self):
        """phi = sin s oscillates out to the horizon 1e8: past the shared panel
        budget the construction stops with its own error and message."""
        phi = tr.ScalarFn(eval=lambda s: np.sin(np.asarray(s, float)))
        with pytest.raises(ConstructionError, match=r"mixture construction failed: the panels "
                                                    r"do not resolve it on \[\S+, \S+\]"):
            pr.construct_G_mixture(phi, a=1.0, b=0.5)

    @pytest.mark.parametrize("power", [2.0, 1.0])
    def test_non_integrable_forcing_diverges(self, power):
        """phi = 1/(s - 2)^2 and 1/|s - 2| (a = 1, b = 0.5): Phi = int_a^s
        phi diverges at s = 2, and the error says so, with the order of the
        pole, where it said only that the panels do not resolve it."""
        phi = tr.ScalarFn(eval=lambda s: np.abs(np.asarray(s, float) - 2.0) ** -power)
        with pytest.raises(ConstructionError, match=rf"^integral of phi from 1 diverges near "
                                                    rf"s = 2: \|phi\| grows like "
                                                    rf"\|s - 2\|\^-{power:.3g}$"):
            pr.construct_G_mixture(phi, a=1.0, b=0.5)

    def test_integrable_singularity_is_not_divergent(self):
        """phi = |s - 2|^{-1/2} is integrable: the panels still do not
        resolve it, and the error says that, not that the integral
        diverges."""
        phi = tr.ScalarFn(eval=lambda s: np.abs(np.asarray(s, float) - 2.0) ** -0.5)
        with pytest.raises(ConstructionError, match=r"mixture construction failed: the panels "
                                                    r"do not resolve it on \[\S+, \S+\]"):
            pr.construct_G_mixture(phi, a=1.0, b=0.5)

    def test_overflow_past_the_solve_raises(self):
        """Past the Phi = -700 stop, E overflows inside the continuing
        quadrature; that raises ConstructionError and no RuntimeWarning."""
        for c, b, inside, past in ((1.0, 0.01, 700.0, 2000.0), (1e6, 0.5, 1.0, 3.0)):
            phi = tr.ScalarFn(eval=lambda s, c=c: -c * np.ones_like(np.asarray(s, float)))
            G = pr.construct_G_mixture(phi, a=1.0, b=b)
            assert np.isfinite(G.eval(inside))
            with pytest.raises(ConstructionError, match="inner integral diverges"):
                G.eval(past)


def _inverse_square_solution():
    phi = tr.ScalarFn(eval=lambda u: -2.0 / np.asarray(u, float) ** 2)
    return pr.construct_spherical(phi, 5, c1=1.0, c2=1.0, u_grid=np.geomspace(0.1, 10.0, 20),
                                  phi_series=[-2.0, 0, 0, 0])


def _strict_G():
    phi = tr.ScalarFn(eval=lambda s: 4.0 / np.asarray(s, float))
    return pr.construct_G_mixture(phi, a=1.0, b=math.inf, k=5)


class TestTripleContract:
    """Every producer's derived triple starts with eval, bit for bit, and
    its ratios match finite differences, also past the double range of f."""

    @pytest.mark.parametrize("make,points", [
        (lambda: pr.monomial_laplace_G(2), [0.5, 2.0, 8.0]),
        (lambda: pr.monomial_laplace_G(60.5), [0.5, 30.0, 200.0]),
        (lambda: pr.monomial_laplace_G(749.5), [10.0, 800.0]),
        (lambda: pr.power_exp_profile(1.5, 5), [0.3, 1.0, 4.0, 40.0]),
        (lambda: pr.inverse_square_profile(1.0, 5, 1.0, 2.0), [0.3, 1.0, 4.0, 40.0]),
        (lambda: _inverse_square_solution().F, [0.3, 0.7, 4.0]),
        (lambda: _strict_G(), [0.1, 1.0, 10.0]),
    ], ids=["monomial_laplace_G", "monomial_laplace_G_large", "monomial_laplace_G_k1500",
            "power_exp_profile", "inverse_square_profile", "constructed_F", "constructed_G"])
    def test_first_component_is_eval(self, make, points):
        fn = make()
        x = np.asarray(points, dtype=float)
        with np.errstate(over="ignore"):   # F = u^gamma e^{u^2/2} overflows at u = 40
            assert np.array_equal(np.asarray(fn.triple(x)[0]), np.asarray(fn.eval(x)))
            for xi in points:
                assert np.array_equal(np.asarray(fn.triple(xi)[0]), np.asarray(fn.eval(xi)))
        assert_derivative_contract(fn, [p for p in points if p > 0.0])

    def test_spherical_solution_has_no_separate_triples(self):
        """The solutions carry values only; ``S_triple`` reads both at once,
        with S = z1 + z2 bit for bit and S' the derivative of S."""
        sol = _inverse_square_solution()
        assert sol.z1.ratios is None and sol.z2.ratios is None
        u = np.geomspace(0.1, 5.0, 7)
        S, S1, _ = sol.S_triple(u)
        np.testing.assert_array_equal(S, sol.z1.eval(u) + sol.z2.eval(u))
        for ui, want in zip(u, S1):
            assert want == pytest.approx(fd1(lambda t: float(sol.S_triple(t)[0]), ui), rel=1e-7)

    def test_constructed_G_triple_reads_the_solve_once(self, monkeypatch):
        G = _strict_G()
        calls = []
        inner = pr._CumulativeIntegral.__call__

        def counting(self, s):
            calls.append(1)
            return inner(self, s)

        monkeypatch.setattr(pr._CumulativeIntegral, "__call__", counting)
        G.triple(np.geomspace(0.1, 10.0, 9))
        assert len(calls) == 1


class TestProbeProperness:
    def test_gaussian_tail(self):
        verdict, mass = pr.probe_properness(pr.normal_radial(1.0, 5))
        assert verdict == pr.PROPER and mass == pytest.approx(1.0, abs=1e-9)

    def test_critical_exponent_unknown(self):
        fn = tr.ScalarFn(eval=lambda v: 1.0 / (1.0 + np.asarray(v, float)),
                         nonneg=True)
        verdict, mass = pr.probe_properness(fn)
        assert verdict == pr.UNKNOWN and mass is None

    def test_growing_improper(self):
        fn = tr.ScalarFn(eval=lambda v: np.asarray(v, float), nonneg=True)
        verdict, _ = pr.probe_properness(fn)
        assert verdict == pr.IMPROPER


class TestPriorSpecs:
    def test_unknown_family_lists_known(self):
        with pytest.raises(DomainError, match="strawderman"):
            pr.prior_from_spec({"family": "nope", "k": 5, "params": {}})

    def test_bad_dimension(self):
        with pytest.raises(DomainError):
            pr.prior_from_spec({"family": "example1", "k": 2, "params": {"n": 2}})

    def test_valid_specs(self):
        docs = [
            {"family": "strawderman", "k": 5, "params": {"a": 0.5}},
            {"family": "example1", "k": 5, "params": {"n": 2}},
            {"family": "example2", "k": 5,
             "params": {"alpha": 2.0, "beta": 2.0, "gamma": -1.0, "sigma": 0.5}},
            {"family": "whittaker", "k": 5, "params": {"gamma": 1.0}},
            {"family": "bessel_F", "k": 5, "params": {"b": 1.0}},
        ]
        for doc in docs:
            spec = pr.prior_from_spec(doc)
            assert spec.family == doc["family"]

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            pr.prior_from_spec({"family": "strawderman", "k": 5, "params": {"a": 1.5}})
        with pytest.raises(DomainError):
            pr.prior_from_spec({"family": "example1", "k": 5, "params": {"n": -1}})
        with pytest.raises(DomainError):
            pr.prior_from_spec({"family": "whittaker", "k": 5, "params": {"gamma": -3.5}})
