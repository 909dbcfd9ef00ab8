"""Condition checkers: verdict semantics, known HOLDS/FAILS families,
scale invariance, and the identification between the radial and
Laplace-transform forms of the margin."""

import math

import numpy as np
import pytest

from bayesminimax import conditions as cd
from bayesminimax import marginals as mg
from bayesminimax import priors as pr
from bayesminimax import transforms as tr
from bayesminimax.errors import DomainError


def u_grid(lo=1e-2, hi=6.0, n=80):
    return np.geomspace(lo, hi, n)


class TestReportSemantics:
    def test_fails_needs_witness(self):
        rep = cd.assemble_report("t", [1.0, 2.0, 3.0], [-1.0, 0.5, -2.0], 1e-3)
        assert rep.verdict == cd.FAILS and rep.witness == 2.0

    def test_witness_stable_on_a_plateau(self):
        """Margins on a plateau at 1 with 1e-15 jitter: the witness is the
        first point within the band of the largest excess, whichever point
        roundoff lifts highest."""
        grid = np.linspace(1.0, 10.0, 10)
        plateau = np.r_[-1.0, 0.5, np.ones(8)]
        for jitter in np.random.default_rng(3).uniform(-1e-15, 1e-15, (20, 10)):
            rep = cd.assemble_report("t", grid, plateau + jitter, 1e-12)
            assert rep.verdict == cd.FAILS and rep.witness == 3.0

    def test_holds_requires_all_clear(self):
        rep = cd.assemble_report("t", [1.0, 2.0], [-1.0, -0.5], 1e-3)
        assert rep.verdict == cd.HOLDS and rep.witness is None

    def test_band_makes_inconclusive(self):
        rep = cd.assemble_report("t", [1.0, 2.0], [-1.0, 1e-9], 1e-3)
        assert rep.verdict == cd.INCONCLUSIVE

    def test_exact_zero_with_zero_band(self):
        rep = cd.assemble_report("t", [1.0], [0.0], 0.0)
        assert rep.verdict == cd.INCONCLUSIVE

    def test_nan_margin_inconclusive(self):
        rep = cd.assemble_report("t", [1.0, 2.0], [math.nan, -1.0], 1e-6)
        assert rep.verdict == cd.INCONCLUSIVE

    def test_json_schema(self):
        import json

        rep = cd.assemble_report("demo", [1.0], [-0.5], 1e-4, extra={"note": "x"})
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["condition_id"] == "demo"
        assert doc["verdict"] == "HOLDS"
        assert doc["points"][0] == {"x": 1.0, "margin": -0.5, "band": 1e-4}
        assert doc["extra"]["note"] == "x"

    def test_default_grid(self):
        g = cd.default_grid()
        assert len(g) == 200 and g[0] == pytest.approx(1e-2) and g[-1] == pytest.approx(30.0)
        with pytest.raises(DomainError):
            cd.default_grid(lo=0.0)


class TestSqrtSuperharmonic:
    def test_monomial_family_holds(self):
        prof = mg.monomial_mixture_profile(2, 5)
        rep = cd.check_sqrt_superharmonic(prof, u_grid())
        assert rep.verdict == cd.HOLDS

    def test_flat_profile_inconclusive(self):
        rep = cd.check_sqrt_superharmonic(mg.flat_profile(5), u_grid())
        assert rep.verdict == cd.INCONCLUSIVE

    def test_growing_profile_fails_with_witness(self):
        def grow(u):  # l = e^{u^2/4}
            return u ** 2 / 4.0, u / 2.0, 0.5 + u ** 2 / 4.0

        rep = cd.check_sqrt_superharmonic(mg.MarginalProfile(k=5, triple_fn=grow, route="x"),
                                          u_grid())
        assert rep.verdict == cd.FAILS and rep.witness is not None

    def test_scale_invariance(self):
        """The condition reads l only through l'/l and l''/l, so 7 l writes
        the same margins as l."""
        base = mg.monomial_mixture_profile(2, 5)

        def scaled_ratios(u):
            log_ell, r1, r2 = base.ratios(u)
            return log_ell + math.log(7.0), r1, r2

        scaled = mg.MarginalProfile(k=5, triple_fn=scaled_ratios, route="scaled")
        g = u_grid()
        r1 = cd.check_sqrt_superharmonic(base, g)
        r2 = cd.check_sqrt_superharmonic(scaled, g)
        assert r1.verdict == r2.verdict
        assert r2.margins == r1.margins

    def test_evaluation_failure_reported(self):
        broken = mg.MarginalProfile(
            k=5, triple_fn=lambda u: (_ for _ in ()).throw(RuntimeError("boom")),
            route="broken")
        rep = cd.check_sqrt_superharmonic(broken, [1.0, 2.0])
        assert rep.verdict == cd.INCONCLUSIVE
        assert "evaluation_error" in rep.extra


class TestSphericalBound:
    def test_margin_equals_forcing_function(self):
        """For profiles assembled from the construction, the margin IS phi."""
        b, k = 1.0, 5
        F = pr.inverse_square_profile(b, k, 1.0, 1.0)
        g = np.geomspace(0.1, 10.0, 50)
        rep = cd.check_spherical_minimax_bound(F, k, g)
        assert rep.verdict == cd.HOLDS
        np.testing.assert_allclose(rep.margins, -2.0 * b / g ** 2, atol=1e-10)

    def test_builtin_boundary_is_inconclusive(self):
        # phi == 0 analog: F = u^{(k-1)/2} e^{u^2/2} from the constant solution
        k = 5
        F = pr.power_exp_profile((k - 1.0) / 2.0, k)
        rep = cd.check_spherical_minimax_bound(F, k, np.geomspace(0.1, 5.0, 30))
        assert rep.verdict == cd.INCONCLUSIVE
        assert np.max(np.abs(rep.margins)) < 1e-10

    def test_rejects_nonpositive_profile(self):
        def F_triple(u):
            u = np.asarray(u, float)
            return -np.ones_like(u), np.zeros_like(u), np.zeros_like(u)

        F = tr.ScalarFn(eval=lambda u: F_triple(u)[0], triple=F_triple)
        with pytest.raises(DomainError):
            cd.check_spherical_minimax_bound(F, 5, [1.0])

    def test_construction_round_trip(self):
        phi = tr.ScalarFn(eval=lambda u: -2.0 / np.asarray(u, float) ** 2)
        sol = pr.construct_spherical(phi, 5, c1=1.0, c2=1.0,
                                     u_grid=np.geomspace(0.1, 10.0, 20),
                                     phi_series=[-2.0, 0, 0, 0])
        rep = cd.check_spherical_minimax_bound(sol.F, 5, np.geomspace(0.1, 8.0, 40))
        assert rep.verdict == cd.HOLDS

    @pytest.mark.parametrize("gamma,k", [(1.0, 5), (-2.0, 5), (0.5, 7), (2.5, 9)])
    def test_power_exp_profile_margin_closed_form(self, gamma, k):
        """For F = u^gamma e^{u^2/2} the margin is exactly
        (gamma^2/2 + gamma (k-3)/2 + (k-1)(7-3k)/8) / u^2: the u^2 and
        constant blocks of the bound cancel identically."""
        F = pr.power_exp_profile(gamma, k)
        u = np.geomspace(0.2, 8.0, 25)
        coef = (gamma ** 2 / 2.0 + gamma * (k - 3.0) / 2.0
                + (k - 1.0) * (7.0 - 3.0 * k) / 8.0)
        rep = cd.check_spherical_minimax_bound(F, k, u)
        np.testing.assert_allclose(rep.margins, coef / u ** 2,
                                   rtol=1e-9, atol=1e-10)


class TestLaplaceBound:
    def test_monomial_family_holds(self):
        G = pr.monomial_laplace_G(2)
        rep = cd.check_laplace_mixture_bound(G, 5, np.geomspace(1e-3, 18.0, 100))
        assert rep.verdict == cd.HOLDS

    def test_boundary_family_inconclusive(self):
        k = 5
        phi = tr.ScalarFn(eval=lambda s: k / np.asarray(s, float))
        G = pr.construct_G_mixture(phi, a=1.0, b=math.inf, k=k)
        rep = cd.check_laplace_mixture_bound(G, k, np.geomspace(0.1, 20.0, 40))
        assert rep.verdict == cd.INCONCLUSIVE

    def test_scale_invariance(self):
        G = pr.monomial_laplace_G(2)
        G7 = tr.ScalarFn(eval=lambda s: 7.0 * np.asarray(G.eval(s)),
                         triple=lambda s: tuple(7.0 * np.asarray(x) for x in G.triple(s)))
        g = np.geomspace(0.01, 10.0, 30)
        r1 = cd.check_laplace_mixture_bound(G, 5, g)
        r2 = cd.check_laplace_mixture_bound(G7, 5, g)
        assert r1.verdict == r2.verdict
        np.testing.assert_allclose(r1.margins, r2.margins, rtol=1e-10)

    def test_increasing_G_rejected(self):
        def G_triple(s):
            s = np.asarray(s, float)
            return s, np.ones_like(s), np.zeros_like(s)

        G = tr.ScalarFn(eval=lambda s: np.asarray(s, float), triple=G_triple)
        with pytest.raises(DomainError):
            cd.check_laplace_mixture_bound(G, 5, [1.0])

    def test_strict_construction_round_trip(self):
        # phi(s) = (k-1)/s < k/s strictly
        k = 5
        phi = tr.ScalarFn(eval=lambda s: (k - 1.0) / np.asarray(s, float))
        G = pr.construct_G_mixture(phi, a=1.0, b=math.inf, k=k)
        rep = cd.check_laplace_mixture_bound(G, k, np.geomspace(0.1, 20.0, 40))
        assert rep.verdict == cd.HOLDS


class TestMonomialMixture:
    def test_inside_window_holds(self):
        rep = cd.check_monomial_mixture(2, 5, np.geomspace(1e-3, 18.0, 120))
        assert rep.verdict == cd.HOLDS
        assert rep.extra["minimax_window"] and rep.extra["proper"]

    def test_outside_window_fails_at_large_s(self):
        rep = cd.check_monomial_mixture(3, 5, np.geomspace(1e-3, 450.0, 200))
        assert rep.verdict == cd.FAILS
        assert rep.witness > 5.0
        assert rep.extra["large_s_limit"] == 6.0
        assert rep.extra["proper"] and not rep.extra["condition_window"]

    def test_condition_holds_but_improper(self):
        rep = cd.check_monomial_mixture(0, 5, np.geomspace(1e-3, 10.0, 50))
        assert rep.extra["condition_window"]       # 0 <= k-3
        assert not rep.extra["proper"]             # 0 <= k/2-1

    @pytest.mark.parametrize("n,k,holds", [
        (3, 7, True),    # 2.5 < 3 <= 4
        (2, 7, False),   # condition window holds but improper (2 <= 2.5)
        (5, 7, False),   # beyond k-3: large-s limit 8 > 7
        (4, 9, True),    # 3.5 < 4 <= 6
    ])
    def test_window_across_dimensions(self, n, k, holds):
        s = np.geomspace(1e-3, 18.0, 80)
        rep = cd.check_monomial_mixture(n, k, s)
        window = rep.extra["minimax_window"]
        assert window == holds
        if window:
            assert rep.verdict == cd.HOLDS
        if n > k - 3:
            big = cd.check_monomial_mixture(n, k, np.geomspace(1.0, 400.0, 120))
            assert big.verdict == cd.FAILS
            assert big.extra["large_s_limit"] == n + 3

    def test_margin_matches_gammainc_route(self):
        """The tail ratios, read from monomial_laplace_G's triple (one
        gammainc call and a downward recurrence), against direct quotients of
        sum_{j>=m} s^j/j! = e^s P(m, s), P the regularized lower gamma."""
        from scipy.special import gammainc

        n, k = 2, 5
        s = np.geomspace(0.01, 30.0, 40)
        B1 = gammainc(n + 3, s) / gammainc(n + 2, s)
        B2 = gammainc(n + 2, s) / gammainc(n + 1, s)
        expected = 2 * (n + 2) * B1 - (n + 1) * B2 - k
        rep = cd.check_monomial_mixture(n, k, s)
        np.testing.assert_allclose(rep.margins, expected, rtol=1e-10, atol=1e-12)


class TestGenBetaMixture:
    def test_case1_holds(self):
        rep = cd.check_gen_beta_mixture(2.0, 2.0, -1.0, 0.5, 5,
                                        np.geomspace(0.1, 50.0, 60))
        assert rep.verdict == cd.HOLDS
        assert rep.extra["analytic_case"] == 1
        assert rep.extra["analytic_holds"]

    def test_case2_analytic_bound_fails_numeric_layer_reported(self):
        rep = cd.check_gen_beta_mixture(2.0, 2.0, 1.0, 0.5, 5,
                                        np.geomspace(0.1, 50.0, 60))
        assert rep.extra["analytic_case"] == 2
        assert rep.extra["analytic_bound_lhs"] == pytest.approx(6.0)
        assert not rep.extra["analytic_holds"]
        # the sufficient bound failing does not force the sharp margin to fail
        assert rep.verdict == cd.HOLDS

    def test_gamma_zero_reduces_to_case1_bound(self):
        rep = cd.check_gen_beta_mixture(2.0, 2.0, 0.0, 0.5, 5,
                                        np.geomspace(0.5, 10.0, 20))
        assert rep.extra["analytic_bound_lhs"] == pytest.approx(4.0)

    def test_tilted_expectations_at_s_zero_limit(self):
        """Hand-computed moments of the kernel t(1-t)(1-t/2):
        E*[psi] = 0 and E**[psi] = -1 at s -> 0."""
        rep = cd.check_gen_beta_mixture(2.0, 2.0, -1.0, 0.5, 5, [1e-6])
        # phi(s) = (-E* psi + 2 E**(psi+1))/s = (0 + 2(-1+1))/s = 0/s
        # so the margin equals -k/s at s -> 0
        assert rep.margins[0] == pytest.approx(-5.0 / 1e-6, rel=1e-4)

    def test_parameter_validation(self):
        g = [1.0]
        with pytest.raises(DomainError):
            cd.check_gen_beta_mixture(0.0, 2.0, -1.0, 0.5, 5, g)
        with pytest.raises(DomainError):
            cd.check_gen_beta_mixture(2.0, 0.9, -1.0, 0.5, 5, g)
        with pytest.raises(DomainError):
            cd.check_gen_beta_mixture(2.0, 2.0, -1.0, 1.5, 5, g)


class TestStrawdermanSqrt:
    def test_above_threshold_holds(self):
        rep = cd.check_strawderman_sqrt(0.5, 6, np.geomspace(1e-2, 30.0, 100))
        assert rep.verdict == cd.HOLDS
        assert rep.extra["origin_holds"] and rep.extra["infinity_holds"]

    def test_boundary_coefficient(self):
        rep = cd.check_strawderman_sqrt(0.5, 5, np.geomspace(1e-2, 30.0, 100))
        assert rep.extra["origin_limit_lhs"] == pytest.approx(
            2.0 * 1.5 / 4.0 - 2.0)
        assert rep.extra["infinity_holds"]

    def test_origin_limit_formula(self):
        a, k = 0.3, 7
        rep = cd.check_strawderman_sqrt(a, k, [1e-6])
        expected = 2.0 * (2.0 - a) / (k / 2.0 - a + 2.0) - 2.0
        assert rep.margins[0] == pytest.approx(expected, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            cd.check_strawderman_sqrt(0.4, 5, [1.0])  # a < 3 - k/2


class TestProperWitness:
    def test_monomial_family_witness(self):
        prof = mg.monomial_mixture_profile(2, 5)
        rep = cd.check_proper_marginal_not_superharmonic(prof, True,
                                                         np.geomspace(1e-2, 30.0, 200))
        assert rep.verdict == cd.HOLDS
        assert rep.witness is not None and rep.extra["witness_found"]

    def test_strawderman_witness(self):
        prof = mg.marginal_strawderman(0.5, 5)
        rep = cd.check_proper_marginal_not_superharmonic(prof, True,
                                                         np.geomspace(1e-2, 30.0, 200))
        assert rep.verdict == cd.HOLDS and rep.extra["consistent"]

    def test_flat_improper_consistent(self):
        rep = cd.check_proper_marginal_not_superharmonic(
            mg.flat_profile(5), False, np.geomspace(0.1, 10.0, 20))
        assert rep.extra["consistent"] and not rep.extra["anomaly"]
        assert rep.verdict == cd.INCONCLUSIVE

    def test_anomaly_flagged(self):
        # a proper prior whose profile wrongly never shows a positive Laplacian
        def gauss(u):  # l = e^{-u^2/4}
            return -u ** 2 / 4.0, -u / 2.0, u ** 2 / 4.0 - 0.5

        rep = cd.check_proper_marginal_not_superharmonic(
            mg.MarginalProfile(k=5, triple_fn=gauss, route="gauss"), True,
            np.geomspace(0.1, 3.0, 20))
        assert rep.verdict == cd.FAILS and rep.extra["anomaly"]

    def test_witness_coexists_with_sqrt_condition(self):
        prof = mg.marginal_strawderman(0.5, 5)
        g = np.geomspace(1e-2, 6.0, 80)
        sqrt_rep = cd.check_sqrt_superharmonic(prof, g)
        wit_rep = cd.check_proper_marginal_not_superharmonic(
            prof, True, np.geomspace(1e-2, 30.0, 200))
        assert sqrt_rep.verdict == cd.HOLDS
        assert wit_rep.extra["witness_found"]


class TestIdentification:
    """The radial margin at u and the Laplace margin at s = u^2/2 must have
    the same sign: margin_radial = -s G'(s) margin_laplace with -s G' > 0."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_sign_match(self, n):
        k = 5
        u = np.geomspace(0.1, 6.0, 60)
        prof = mg.monomial_mixture_profile(n, k)
        r_rad = cd.check_sqrt_superharmonic(prof, u)
        r_lap = cd.check_laplace_mixture_bound(pr.monomial_laplace_G(n), k,
                                               0.5 * u ** 2)
        s_rad = np.sign(r_rad.margins)
        s_lap = np.sign(r_lap.margins)
        assert np.all(s_rad == s_lap)

    def test_consistency_chain(self):
        """Laplace bound HOLDS implies the sqrt condition HOLDS on the same
        prior (they are reductions of one another)."""
        k, n = 5, 2
        u = np.geomspace(0.1, 6.0, 60)
        r_lap = cd.check_laplace_mixture_bound(pr.monomial_laplace_G(n), k,
                                               0.5 * u ** 2)
        r_rad = cd.check_sqrt_superharmonic(mg.monomial_mixture_profile(n, k), u)
        assert r_lap.verdict == cd.HOLDS
        assert r_rad.verdict == cd.HOLDS
