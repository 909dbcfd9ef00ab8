"""Bayes estimator, SURE, and Monte Carlo risk.

Oracles: the flat-prior degeneracies (delta = x, SURE = k), the classical
closed-form SURE of the u^{-(k-2)} power-law profile, the identity
E|X - theta|^2 = k, and seeded reproducibility.
"""

import math

import numpy as np
import pytest

from bayesminimax import estimators as es
from bayesminimax import marginals as mg
from bayesminimax import priors as pr
from bayesminimax.errors import DomainError, EvaluationError


@pytest.fixture(scope="module")
def monomial_profile():
    return mg.monomial_mixture_profile(2, 5)


@pytest.fixture(scope="module")
def strawderman_profile():
    return mg.marginal_strawderman(0.5, 5)


class TestBayesEstimate:
    def test_zero_maps_to_zero(self, monomial_profile):
        x = np.zeros(5)
        np.testing.assert_array_equal(es.bayes_estimate(monomial_profile, x), x)

    def test_flat_prior_is_identity(self):
        flat = mg.flat_profile(5)
        x = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        np.testing.assert_array_equal(es.bayes_estimate(flat, x), x)

    def test_strawderman_shrinks_toward_origin(self, strawderman_profile):
        x = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        d = es.bayes_estimate(strawderman_profile, x)
        assert 0.0 < d[0] < 2.0
        np.testing.assert_array_equal(d[1:], np.zeros(4))

    def test_spherical_equivariance(self, monomial_profile):
        rng = np.random.default_rng(21)
        for _ in range(5):
            x = rng.standard_normal(5) * 2.0
            R = np.linalg.qr(rng.standard_normal((5, 5)))[0]
            lhs = es.bayes_estimate(monomial_profile, R @ x)
            rhs = R @ es.bayes_estimate(monomial_profile, x)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestSure:
    def test_flat_prior_gives_k(self):
        flat = mg.flat_profile(5)
        assert es.sure(flat, np.array([1.0, 2.0, 0.0, -1.0, 0.5])) == 5.0

    def test_power_law_closed_form(self):
        """l'(u)/l(u) = -(k-2)/u makes SURE = k - (k-2)^2/u^2 exactly."""
        k = 5
        prof = mg.power_law_profile(k, -(k - 2.0))
        for u in (1.5, 3.0, 8.0):
            x = np.zeros(k)
            x[0] = u
            assert es.sure(prof, x) == pytest.approx(k - (k - 2.0) ** 2 / u ** 2,
                                                     rel=1e-12)

    def test_mean_sure_below_k_at_origin(self, strawderman_profile):
        rep = es.mc_risk(strawderman_profile, np.zeros(5), 100000, 12345)
        assert rep.sure_mean < 5.0 - 0.1


class TestMcRisk:
    def test_identity_baseline(self):
        flat = mg.flat_profile(5)
        rep = es.mc_risk(flat, np.array([2.0, -1.0, 0.0, 0.5, 3.0]), 100000, 42)
        assert abs(rep.mc_risk - 5.0) <= 3.0 * rep.mc_stderr
        assert rep.sure_mean == 5.0 and rep.sure_stderr == 0.0

    def test_strawderman_risk_at_origin(self, strawderman_profile):
        rep = es.mc_risk(strawderman_profile, np.zeros(5), 200000, 777)
        assert rep.mc_risk < 5.0 - 0.1
        assert rep.coupled()

    def test_far_field_risk_approaches_k(self, monomial_profile):
        theta = np.zeros(5)
        theta[0] = 50.0
        rep = es.mc_risk(monomial_profile, theta, 100000, 7)
        assert abs(rep.mc_risk - 5.0) <= 3.0 * rep.mc_stderr

    def test_determinism(self, monomial_profile):
        r1 = es.mc_risk(monomial_profile, np.zeros(5), 50000, 99)
        r2 = es.mc_risk(monomial_profile, np.zeros(5), 50000, 99)
        assert r1 == r2

    def test_sure_loss_coupling(self, monomial_profile):
        for seed in (1, 2, 3):
            rep = es.mc_risk(monomial_profile, np.array([1.0, 0, 0, 0, 0.0]),
                             50000, seed)
            assert rep.coupled()

    def test_requires_positive_n(self, monomial_profile):
        with pytest.raises(DomainError):
            es.mc_risk(monomial_profile, np.zeros(5), 0, 1)

    def test_failures_excluded_and_counted(self):
        base = mg.monomial_mixture_profile(2, 5)

        def with_hole(u):
            log_ell, r1, r2 = base.ratios(u)
            return log_ell, np.where(u < 0.35, np.nan, r1), r2

        holed = mg.MarginalProfile(k=5, triple_fn=with_hole, route="holed")
        rep = es.mc_risk(holed, np.zeros(5), 50000, 11)
        assert 0 < rep.n_failures <= 0.001 * 50000
        assert math.isfinite(rep.mc_risk)

    def test_too_many_failures_is_hard_error(self):
        bad = mg.MarginalProfile(
            k=5, triple_fn=lambda u: (np.zeros_like(u), np.full_like(u, np.nan),
                                      np.zeros_like(u)),
            route="broken")
        with pytest.raises(EvaluationError):
            es.mc_risk(bad, np.zeros(5), 5000, 3)

    def test_stderr_matches_two_pass_over_the_samples(self, strawderman_profile):
        """Both standard errors equal numpy's std(ddof=1)/sqrt(n) over the same
        samples, rebuilt from the per-batch streams.  At |theta| = 10 the SURE
        spread is small against its mean, where a one-pass s2 - n mean^2
        cancels (6e-5 relative here)."""
        k, n, seed = 5, 2 * es._BATCH, 1
        theta = np.zeros(k)
        theta[0] = 10.0
        rep = es.mc_risk(strawderman_profile, theta, n, seed)
        loss, sure = [], []
        for child in np.random.SeedSequence(seed).spawn(2):
            X = theta + np.random.default_rng(child).standard_normal((es._BATCH, k))
            rho, ok, s = es._shrink_terms(strawderman_profile,
                                          np.linalg.norm(X, axis=1), k)
            assert ok.all()
            loss.append(np.sum((X * (1.0 + rho)[:, None] - theta) ** 2, axis=1))
            sure.append(s)
        for got, samples in ((rep.mc_stderr, loss), (rep.sure_stderr, sure)):
            x = np.concatenate(samples)
            assert got == pytest.approx(np.std(x, ddof=1) / math.sqrt(n), rel=1e-12)

    def test_large_dimension_sure_is_finite(self):
        # l ~ 1e-162 at k = 400: l^2 underflows, so SURE goes through l'/l and l''/l
        k = 400
        rep = es.mc_risk(mg.marginal_strawderman(0.5, k), np.zeros(k), 4000, 1)
        assert rep.n_failures == 0
        assert math.isfinite(rep.sure_mean) and math.isfinite(rep.sure_stderr)
        assert rep.coupled()

    def test_nonfinite_shrinkage_is_a_failure(self):
        # finite log l whose ratio l'/l is infinite
        tiny = mg.MarginalProfile(
            k=5, triple_fn=lambda u: (np.full_like(u, -737.0), np.full_like(u, np.inf),
                                      np.zeros_like(u)),
            route="tiny")
        with pytest.raises(EvaluationError), np.errstate(all="ignore"):
            es.sure(tiny, np.ones(5))
        with pytest.raises(EvaluationError), np.errstate(all="ignore"):
            es.mc_risk(tiny, np.zeros(5), 5000, 3)


class TestRiskCurve:
    def test_single_zero_norm_matches_mc_risk(self, monomial_profile):
        curve = es.risk_curve(monomial_profile, [0.0], 5000, 2024)
        direct = es.mc_risk(monomial_profile, np.zeros(5), 5000,
                            es._norm_seed(2024, 0.0))
        assert curve[0] == direct

    def test_permutation_consistency(self, monomial_profile):
        c1 = es.risk_curve(monomial_profile, [0.0, 3.0, 1.0], 2000, 5)
        c2 = es.risk_curve(monomial_profile, [1.0, 0.0, 3.0], 2000, 5)
        assert c1[0] == c2[1] and c1[1] == c2[2] and c1[2] == c2[0]

    def test_monomial_curve_below_k(self, monomial_profile):
        curve = es.risk_curve(monomial_profile, [0.0, 1.0, 3.0, 6.0, 10.0],
                              50000, 314159)
        for rep in curve:
            assert rep.mc_risk <= 5.0 + 3.0 * rep.mc_stderr
            assert rep.coupled()


class TestShrinkageDirection:
    def test_decreasing_marginal_shrinks(self, monomial_profile):
        """l' < 0 implies delta(x)^T x < |x|^2 for x != 0."""
        rng = np.random.default_rng(33)
        for _ in range(20):
            x = rng.standard_normal(5) * rng.uniform(0.2, 8.0)
            d = es.bayes_estimate(monomial_profile, x)
            assert float(d @ x) < float(x @ x)


class TestSerialization:
    def test_csv_round_trip(self, monomial_profile):
        import csv
        import io

        curve = es.risk_curve(monomial_profile, [0.0, 2.0], 2000, 8)
        text = es.risk_reports_to_csv(curve)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert float(rows[0]["mc_risk"]) == curve[0].mc_risk
        assert int(rows[1]["seed"]) == curve[1].seed

    def test_json(self, monomial_profile):
        import json

        curve = es.risk_curve(monomial_profile, [1.0], 2000, 8)
        doc = json.loads(es.risk_reports_to_json(curve))
        assert doc[0]["theta_norm"] == 1.0
        assert doc[0]["baseline_k"] == 5
