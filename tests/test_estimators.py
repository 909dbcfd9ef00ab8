"""Bayes estimator, SURE, and Monte Carlo risk.

Oracles: the flat-prior degeneracies (delta = x, SURE = k), the classical
closed-form SURE of the u^{-(k-2)} power-law profile, the identity
E|X - theta|^2 = k, and seeded reproducibility.
"""

import csv
import json
import math
import multiprocessing
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from bayesminimax import cli
from bayesminimax import estimators as es
from bayesminimax import marginals as mg
from bayesminimax import priors as pr
from bayesminimax.errors import DomainError, EvaluationError


# one Strawderman rule (a = 0.5, k = 5) through each marginal route
ROUTES = {"closed_form": lambda: mg.marginal_strawderman(0.5, 5),
          "mixture": lambda: mg.marginal_mixture(pr.strawderman_mixing(0.5, 5)),
          "radial": lambda: mg.marginal_radial(pr.strawderman_radial(0.5, 5))}


# the Strawderman routes, the monomial family, example2 and the flat profile
SURE_ROUTES = {**ROUTES, "monomial": lambda: mg.monomial_mixture_profile(2, 5),
               "example2": lambda: mg.marginal_mixture(pr.gen_beta_mixing(2, 2, -1, 0.5, 5)),
               "flat": lambda: mg.flat_profile(5)}

# off the axis, with every sign and a zero coordinate, |OFF_AXIS| = 1
OFF_AXIS = np.array([1.0, -2.0, 0.5, 0.0, -3.0]) / math.sqrt(14.25)


def _recording(base):
    """``base`` with every u its triple is asked for kept in ``seen``."""
    seen = []

    def triple(u):
        seen.append(u.copy())
        return base.triple_fn(u)

    return mg.MarginalProfile(k=base.k, route="recording", triple_fn=triple), seen


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

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_origin_limit(self, route):
        """delta(x) = x (1 + rho(0)) near the origin, rho(0) = l''/l(0) = -0.75,
        inside the u < 1e-8 ball as well as just outside it: the rule whose
        risk SURE estimates there."""
        profile = ROUTES[route]()
        rho0 = profile.ratios(np.zeros(1))[2][0]
        assert rho0 == pytest.approx(-0.75, rel=1e-12)
        for scale in (0.0, 5e-9, 2e-8):
            x = np.zeros(5)
            x[1] = scale
            np.testing.assert_allclose(es.bayes_estimate(profile, x), x * (1.0 + rho0),
                                       rtol=1e-11, atol=0.0)

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
        # l = S^2 = u^{-(k-2)}: the Whittaker formal marginal at gamma = (3-k)/2
        prof = mg.squared_profile(k, pr.power_exp_S((3.0 - k) / 2.0, k), "formal_power_law")
        for u in (1.5, 3.0, 8.0):
            x = np.zeros(k)
            x[0] = u
            assert es.sure(prof, x) == pytest.approx(k - (k - 2.0) ** 2 / u ** 2,
                                                     rel=1e-12)

    def test_origin_value_is_the_limit(self, strawderman_profile):
        """SURE(0) = k (1 + 2 l''/l(0)): -2.5 for Strawderman a = 0.5, k = 5,
        where l''/l(0) = -0.75."""
        assert es.sure(strawderman_profile, np.zeros(5)) == pytest.approx(-2.5, rel=1e-14)

    @pytest.mark.parametrize("route", ["closed_form", "mixture", "radial"])
    def test_continuous_at_origin(self, route):
        profile = ROUTES[route]()
        near = np.zeros(5)
        near[1] = 2e-8
        assert abs(es.sure(profile, np.zeros(5)) - es.sure(profile, near)) < 1e-9

    @pytest.mark.parametrize("route", sorted(SURE_ROUTES))
    def test_ratio_form_matches_the_rho_prime_form(self, route):
        """SURE = k + [2 (k-1) rho + 2 l''/l - (l'/l)^2] equals
        k + 2 (k rho + u rho') + rho^2 u^2, rho' from the ratios, on each
        route, inside the u < 1e-8 ball, at its edge and past it."""
        profile = SURE_ROUTES[route]()
        u = np.array([0.0, 1e-9, 1e-8, 1e-3, 0.5, 5.0, 30.0])
        rho, ok, got = es._shrink_terms(profile, u, 5)
        assert ok.all()
        _, r1, r2 = profile.ratios(u)
        big = u > es._U_EPS
        safe_u = np.where(big, u, 1.0)
        rho_p = np.where(big, (r2 - r1 / safe_u - r1 * r1) / safe_u, 0.0)
        want = 5 + 2.0 * (5 * rho + u * rho_p) + rho ** 2 * u ** 2
        np.testing.assert_array_equal(rho, np.where(big, r1 / safe_u, r2))
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    def test_mean_sure_below_k_at_origin(self, strawderman_profile):
        rep = es.mc_risk(strawderman_profile, np.zeros(5), 100000, 12345)
        assert rep.sure_mean < 5.0 - 0.1


def _batch(profile, theta, m, child):
    """One batch of m samples drawn from the child stream, then evaluated."""
    g, c = np.empty(m), np.empty(m)
    es._draw(child, theta.size, g, c)
    return es._mc_batch(profile, theta, g, c)


def _rebuilt_draw(theta, m, child):
    """A batch's m samples rebuilt in k dimensions from its stream, as
    X = theta + g theta_hat + sqrt(c) e with g and then c = 2 standard_gamma
    drawn as the batch draws them and e a unit vector orthogonal to theta;
    with them |Z|^2 = g^2 + c."""
    k = theta.size
    rng = np.random.default_rng(child)
    g = rng.standard_normal(m)
    c = 2.0 * rng.standard_gamma((k - 1) / 2, m)
    t = np.linalg.norm(theta)
    hat = theta / t if t else np.eye(k)[0]
    e = np.arange(1.0, k + 1)
    e -= (e @ hat) * hat
    e /= np.linalg.norm(e)
    return theta + g[:, None] * hat + np.sqrt(c)[:, None] * e, g * g + c


def _explicit_samples(profile, theta, n, seed):
    """Loss |delta(X) - theta|^2 and SURE of every sample, rebuilt in k
    dimensions from the per-batch streams, with the rule formed on X."""
    loss, sure = [], []
    children = np.random.SeedSequence(seed).spawn(-(-n // es._BATCH))
    for i, child in enumerate(children):
        X, _ = _rebuilt_draw(theta, min(es._BATCH, n - i * es._BATCH), child)
        rho, ok, s = es._shrink_terms(profile, np.linalg.norm(X, axis=1), theta.size)
        assert ok.all()
        loss.append(np.sum((X * (1.0 + rho)[:, None] - theta) ** 2, axis=1))
        sure.append(s)
    return np.concatenate(loss), np.concatenate(sure)


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

    def test_requires_positive_n(self, monomial_profile, monkeypatch):
        """A curve checks n once, before any batch is drawn, and raises what
        a single point raises."""
        with pytest.raises(DomainError) as alone:
            es.mc_risk(monomial_profile, np.zeros(5), 0, 1)
        monkeypatch.setattr(es, "_DRAWS", None)
        with pytest.raises(DomainError) as curve:
            es.risk_curve(monomial_profile, [0.0, 1.0], 0, 1)
        assert str(curve.value) == str(alone.value)

    def test_bad_theta_is_a_domain_error(self, monomial_profile, monkeypatch):
        """A theta with a non-finite entry, and a curve norm that is negative
        or not finite, raise DomainError before any batch is drawn."""
        monkeypatch.setattr(es, "_DRAWS", None)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="theta must be finite"):
                es.mc_risk(monomial_profile, np.array([1.0, 0.0, bad, 0.0, 0.0]), 2000, 1)
        for norms in ([-3.0, 3.0], [math.inf], [0.0, math.nan]):
            with pytest.raises(DomainError, match="finite and >= 0"):
                es.risk_curve(monomial_profile, norms, 2000, 1)

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
        n, seed = 2 * es._BATCH, 1
        theta = np.zeros(5)
        theta[0] = 10.0
        rep = es.mc_risk(strawderman_profile, theta, n, seed)
        loss, sure = _explicit_samples(strawderman_profile, theta, n, seed)
        for got, x in ((rep.mc_stderr, loss), (rep.sure_stderr, sure)):
            assert got == pytest.approx(np.std(x, ddof=1) / math.sqrt(n), rel=1e-12)

    def test_loss_matches_the_explicit_rule_off_axis(self):
        """The per-sample loss from g, c and |theta| equals |delta(X) - theta|^2
        formed in k dimensions on each sample rebuilt as X = theta + g theta_hat
        + sqrt(c) e, at a theta with every sign and a zero coordinate, over an
        uneven last batch, at k = 5 and k = 40."""
        seed = 5
        for k, n in ((5, 2 * es._BATCH + 3), (40, es._BATCH + 5)):
            theta = np.resize([1.0, -2.0, 0.5, 0.0, 3.0], k)
            profile = mg.marginal_strawderman(0.5, k)
            rep = es.mc_risk(profile, theta, n, seed)
            loss, sure = _explicit_samples(profile, theta, n, seed)
            assert rep.mc_risk == pytest.approx(np.mean(loss), rel=1e-12)
            assert rep.mc_stderr == pytest.approx(np.std(loss, ddof=1) / math.sqrt(n),
                                                  rel=1e-12)
            assert rep.sure_mean == pytest.approx(np.mean(sure), rel=1e-12)

    @pytest.mark.parametrize("norm", [0.5, 3.0, 10.0, 30.0])
    def test_radius_from_the_three_products(self, norm, strawderman_profile):
        """The batch's u = sqrt(|Z|^2 + 2 Z.theta + |theta|^2) is |X| of the
        sample rebuilt in k dimensions to a few ulps of (|Z|^2 + |theta|^2)/u^2,
        relative, at an off-axis theta."""
        theta = norm * OFF_AXIS
        profile, seen = _recording(strawderman_profile)
        child = np.random.SeedSequence(7).spawn(1)[0]
        assert _batch(profile, theta, 5000, child)[3] == 0
        X, zz = _rebuilt_draw(theta, 5000, child)
        ref = np.linalg.norm(X, axis=1)
        ulps = np.abs(seen[0] - ref) * ref / (np.finfo(float).eps * (zz + theta @ theta))
        assert np.max(ulps) <= 4.0

    def test_radius_rounding_below_zero_is_the_origin(self, strawderman_profile):
        """A draw g = -|theta| (1 + d), d ~ 1e-9, with c = 0, whose
        |Z|^2 + 2 Z.theta + |theta|^2 rounds below zero, is a valid sample at
        u = 0, not a failure."""
        rng, m = np.random.default_rng(3), 1000
        for _ in range(200):
            theta = rng.uniform(1.0, 30.0) * OFF_AXIS
            tt = theta @ theta
            g0 = -math.sqrt(tt) * (1.0 + 1e-9 * rng.standard_normal())
            if 2.0 * (math.sqrt(tt) * g0) + g0 * g0 + tt < 0.0:
                break
        else:
            pytest.fail("no draw of the search rounds below zero")
        g, c = rng.standard_normal(m), 2.0 * rng.standard_gamma(2.0, m)
        g[0], c[0] = g0, 0.0
        profile, seen = _recording(strawderman_profile)
        count, _, (sure_sum, _), failures = es._mc_batch(profile, theta, g, c)
        assert seen[0][0] == 0.0
        assert count == m and failures == 0 and math.isfinite(sure_sum)

    def test_block_fill_equals_one_draw(self, monkeypatch):
        """A batch's draw is one ``standard_normal`` and then one
        ``standard_gamma`` call from its generator, each filling its whole
        buffer in place, at k = 40 over a batch longer than ``_BATCH``; c is
        twice the gamma draw.  At k = 1 the gamma shape is 0, so c = 0 with
        no branch: at theta = -2, u^2 is 2 (2 g) + g^2 + 4 to the bit, and
        u = |2 + g|."""
        calls, default_rng = [], np.random.default_rng

        class Recorder:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def __getattr__(self, name):
                def draw(*args, out):
                    calls.append((name, args, out))
                    return getattr(self.rng, name)(*args, out=out)
                return draw

        monkeypatch.setattr(np.random, "default_rng", Recorder)
        child = np.random.SeedSequence(5).spawn(1)[0]
        k, m = 40, es._BATCH + 5
        g, c = np.empty(m), np.empty(m)
        es._draw(child, k, g, c)
        assert [(name, args) for name, args, _ in calls] == [
            ("standard_normal", ()), ("standard_gamma", (19.5,))]
        assert calls[0][2] is g and calls[1][2] is c
        rng = default_rng(child)
        np.testing.assert_array_equal(g, rng.standard_normal(m))
        np.testing.assert_array_equal(c, 2.0 * rng.standard_gamma(19.5, m))
        assert es._mc_batch(mg.marginal_strawderman(0.5, k), np.ones(k), g, c)[3] == 0
        profile, seen = _recording(mg.flat_profile(1))
        _batch(profile, np.array([-2.0]), 1000, child)
        g = default_rng(child).standard_normal(1000)
        np.testing.assert_array_equal(seen[0], np.sqrt(np.maximum(4.0 * g + g * g + 4.0, 0.0)))
        np.testing.assert_allclose(seen[0], np.abs(2.0 + g), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k, m", [(40, 65541), (400, 6000)])
    def test_batch_equals_one_whole_draw(self, k, m):
        """Every sample's loss, validity and SURE, and the batch's statistics,
        are those of the documented formulas on (g, c) drawn whole from the
        batch's generator, g first, bit for bit, at an off-axis theta and at
        m above and below ``_BATCH``."""
        theta = np.resize([1.0, -2.0, 0.5, 0.0, 3.0], k)
        profile = mg.marginal_strawderman(0.5, k)
        child = np.random.SeedSequence(11).spawn(1)[0]
        rng = np.random.default_rng(child)
        g = rng.standard_normal(m)
        zz, tt = g * g + 2.0 * rng.standard_gamma((k - 1) / 2, m), theta @ theta
        zt = math.sqrt(tt) * g
        rho, ok, s = es._shrink_terms(profile, np.sqrt(np.maximum(2.0 * zt + zz + tt, 0.0)), k)
        a = 1.0 + rho
        loss = a * a * zz + 2.0 * a * rho * zt + rho * rho * tt
        assert ok.all()
        assert _batch(profile, theta, m, child) == (m, es._sum_m2(loss), es._sum_m2(s), 0)

    @pytest.mark.parametrize("k, norm", [(5, 3.0), (1500, 30.0)])
    def test_u_squared_is_noncentral_chi_squared(self, k, norm):
        """A batch's u^2 = |X|^2 follows the noncentral chi-squared law with
        k degrees of freedom and noncentrality |theta|^2: a fixed-seed
        Kolmogorov-Smirnov test of one full batch at an off-axis theta."""
        theta = norm * np.resize(OFF_AXIS, k) / np.linalg.norm(np.resize(OFF_AXIS, k))
        profile, seen = _recording(mg.marginal_strawderman(0.5, k))
        child = np.random.SeedSequence(13).spawn(1)[0]
        assert _batch(profile, theta, es._BATCH, child)[3] == 0
        result = stats.kstest(seen[0] ** 2, stats.ncx2(k, theta @ theta).cdf)
        assert result.pvalue > 1e-3, result

    def test_batch_memory_is_bounded_by_the_block(self):
        """One batch of 20,000 draws at k = 400, whose (m, k) normal draw
        would take 64 MB, peaks under 12 MB of traced allocations."""
        k, m = 400, 20000
        profile = mg.marginal_strawderman(0.5, k)
        child = np.random.SeedSequence(3).spawn(1)[0]
        _batch(profile, np.zeros(k), 1000, child)   # first call outside the trace
        tracemalloc.start()
        try:
            count = _batch(profile, np.zeros(k), m, child)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == m
        assert peak < 12 * 2**20, peak

    def test_batch_memory_does_not_grow_with_k(self):
        """One full batch at k = 1500, whose (m, k) normal draw would take
        196 MB, peaks under 16 (m,) float vectors of traced allocations (about
        12 at k = 5 and 1500 alike), and no higher than at k = 5; so does one
        at k = 5, |theta| = 10, where every s = u^2/2 takes the closed form's
        continued fraction."""
        peaks = []
        for k, norm in ((5, 3.0), (1500, 30.0), (5, 10.0)):
            profile, theta = mg.marginal_strawderman(0.5, k), np.pad([norm], (0, k - 1))
            child = np.random.SeedSequence(3).spawn(1)[0]
            _batch(profile, theta, 1000, child)   # first call outside the trace
            tracemalloc.start()
            try:
                count = _batch(profile, theta, es._BATCH, child)[0]
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert count == es._BATCH
        assert max(peaks[1:]) < 16 * 8 * es._BATCH, peaks
        assert peaks[1] <= peaks[0] + 2**16, peaks

    @pytest.mark.parametrize("route", ["closed_form", "mixture", "radial"])
    def test_reports_do_not_depend_on_the_look_ahead(self, route, monkeypatch):
        """Batches are evaluated and reduced in batch order, so drawing none,
        one or four batches ahead gives equal reports: three batches with an
        uneven last one on the closed form, and two on each quadrature route,
        whose marginal builds its tables on a fresh profile each time."""
        build, n = {
            "closed_form": (lambda: mg.marginal_strawderman(0.5, 5), 2 * es._BATCH + 3),
            "mixture": (lambda: mg.marginal_mixture(pr.gen_beta_mixing(2, 2, -1, 0.5, 5)),
                        es._BATCH + 1000),
            "radial": (ROUTES["radial"], es._BATCH + 1000)}[route]
        theta = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        reports = []
        for ahead in (0, 1, 4):
            monkeypatch.setattr(es, "_AHEAD", ahead)
            reports.append(es.mc_risk(build(), theta, n, 17))
        assert reports[0] == reports[1] == reports[2]

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
        # two batches, each evaluated under the caller's errstate
        with pytest.raises(EvaluationError), np.errstate(all="ignore"):
            es.mc_risk(tiny, np.zeros(5), 2 * es._BATCH, 3)
        # and the batches of two points of a curve
        with pytest.raises(EvaluationError), np.errstate(all="ignore"):
            es.risk_curve(tiny, [0.0, 3.0], 2 * es._BATCH, 3)


def _failing_beyond(radius):
    """The monomial profile with l'/l = NaN where u > radius (k = 5); the
    triple counts its calls in ``calls``."""
    base, calls = mg.monomial_mixture_profile(2, 5), []

    def triple(u):
        calls.append(u.size)
        log_ell, r1, r2 = base.ratios(u)
        return log_ell, np.where(u > radius, np.nan, r1), r2

    return mg.MarginalProfile(k=5, triple_fn=triple, route="failing"), calls


def _counting_draws(monkeypatch, delay=0.0):
    """Count the batches drawn from here on in the returned list, each as
    its draw starts; each draw then sleeps ``delay`` seconds."""
    drawn, draw = [], es._draw

    def counted(child, k, g, c):
        drawn.append(g.size)
        time.sleep(delay)
        draw(child, k, g, c)

    monkeypatch.setattr(es, "_draw", counted)
    return drawn


@pytest.fixture(scope="module")
def route_profiles():
    return {route: build() for route, build in ROUTES.items()}


# One seeded curve per marginal route, (build, norms, n, seed), with the
# float.hex of (mc_risk, mc_stderr, sure_mean, sure_stderr) of each point:
# three batches with an uneven last one on the closed form, two on example2
# through the mixture route and on the Strawderman radial route.
PINNED = {
    "closed_form": (lambda: mg.marginal_strawderman(0.5, 5), [3.0, 0.0], 2 * es._BATCH + 3, 41, [
        ("0x1.e7f9ddd0d6518p+1", "0x1.6e3ef49852082p-7",
         "0x1.e945299ed73c0p+1", "0x1.e0cd75bda3e85p-8"),
        ("0x1.d1098a3463d55p-1", "0x1.a3a9118f41693p-8",
         "0x1.d65335b8c0669p-1", "0x1.2c22689f8ec73p-7")]),
    "mixture": (lambda: mg.marginal_mixture(pr.gen_beta_mixing(2, 2, -1, 0.5, 5)), [2.0, 0.0],
                es._BATCH + 1000, 17, [
        ("0x1.9511e4a1e3239p+1", "0x1.066f2eca24426p-6",
         "0x1.94262eafe1f0ap+1", "0x1.b72eba56c0993p-8"),
        ("0x1.286b37343f6c1p+1", "0x1.e46ef92b1c695p-7",
         "0x1.28472c858abc6p+1", "0x1.afe0978c1b10fp-8")]),
    "radial": (lambda: mg.marginal_radial(pr.strawderman_radial(0.5, 5)), [6.0, 0.0],
               es._BATCH + 1000, 5, [
        ("0x1.40802d17e1099p+2", "0x1.8f352af9d8388p-6",
         "0x1.3f507aab3f193p+2", "0x1.312c4ce2623d8p-11"),
        ("0x1.d25e40ee75a86p-1", "0x1.203545d0d1415p-7",
         "0x1.d13dae3fbf2fbp-1", "0x1.a06cd82cc2b49p-7")]),
}


def _assert_pinned(route):
    build, norms, n, seed, want = PINNED[route]
    curve = es.risk_curve(build(), norms, n, seed)
    assert [r.n_failures for r in curve] == [0] * len(norms)
    assert [tuple(x.hex() for x in (r.mc_risk, r.mc_stderr, r.sure_mean, r.sure_stderr))
            for r in curve] == want


def _pinned_in_child(results):
    """Run the pinned closed-form curve and report the outcome to the parent."""
    try:
        _assert_pinned("closed_form")
        results.put("ok")
    except BaseException as err:   # the parent sees what went wrong
        results.put(repr(err))


class TestRiskCurve:
    @pytest.mark.parametrize("route", sorted(PINNED))
    def test_seeded_reports_are_pinned(self, route):
        """A seeded curve reproduces its reports bit for bit, so no random
        stream, batch split or reduction order moved."""
        _assert_pinned(route)

    @pytest.mark.parametrize("ahead", [1, 2, 8])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_curve_equals_its_points(self, route, ahead, route_profiles, monkeypatch):
        """Each report of a curve equals its point run alone at the point's
        seed, on every route and look-ahead, over an uneven last batch."""
        monkeypatch.setattr(es, "_AHEAD", ahead)
        profile, n, norms = route_profiles[route], 2 * es._BATCH + 3, [3.0, 0.0]
        curve = es.risk_curve(profile, norms, n, 41)
        for report, norm in zip(curve, norms):
            theta = np.zeros(5)
            theta[0] = norm
            assert report == es.mc_risk(profile, theta, n, es._norm_seed(41, norm))

    @pytest.mark.parametrize("ahead", [1, 2])
    def test_failing_point_raises_as_alone(self, ahead, monkeypatch):
        """A curve raises the error of its first point past the failure
        limit, in the caller's order, with the message and count of that
        point run alone; points that pass do not mask it."""
        monkeypatch.setattr(es, "_AHEAD", ahead)
        profile, _ = _failing_beyond(6.0)
        n, seed = 5000, 9

        def alone(norm):
            theta = np.zeros(5)
            theta[0] = norm
            with pytest.raises(EvaluationError) as err:
                es.mc_risk(profile, theta, n, es._norm_seed(seed, norm))
            return str(err.value), err.value.diagnostics["failures"]

        assert es.risk_curve(profile, [0.0], n, seed)[0].n_failures <= n // 1000
        expected = {norm: alone(norm) for norm in (7.0, 10.0)}
        assert expected[7.0][1] < expected[10.0][1] == n
        for norms, first in (([0.0, 10.0], 10.0), ([10.0, 0.0], 10.0),
                             ([0.0, 7.0, 10.0], 7.0), ([10.0, 0.0, 7.0], 10.0)):
            with pytest.raises(EvaluationError) as err:
                es.risk_curve(profile, norms, n, seed)
            assert (str(err.value), err.value.diagnostics["failures"]) == expected[first]

    def test_failing_curve_cancels_batches_not_started(self, monkeypatch):
        """The first point fails and every draw is slow: no batch after it
        is evaluated, and of the look-ahead only the draw already running
        when it raises is made; the queued ones are cancelled."""
        profile, calls = _failing_beyond(6.0)
        drawn = _counting_draws(monkeypatch, delay=0.2)
        norms = [10.0] + [0.0] * 20
        with pytest.raises(EvaluationError):
            es.risk_curve(profile, norms, 1000, 3)
        es._DRAWS.submit(int).result()   # every draw still queued has run or been dropped
        assert len(calls) == 1
        assert len(drawn) <= 2 <= 1 + es._AHEAD

    def test_interrupted_curve(self, monkeypatch):
        """A triple that raises something other than EvaluationError on the
        third of a curve's six batches stops the curve there: the exception
        propagates unchanged, no later batch is evaluated, at most the
        look-ahead is drawn past it, and the next curve on the same draw
        thread gives its pinned reports."""
        base, calls = mg.monomial_mixture_profile(2, 5), []

        def triple(u):
            calls.append(u.size)
            if len(calls) == 3:
                raise KeyError("interrupted")
            return base.ratios(u)

        profile = mg.MarginalProfile(k=5, triple_fn=triple, route="interrupted")
        drawn = _counting_draws(monkeypatch)
        with pytest.raises(KeyError, match="interrupted"):
            es.risk_curve(profile, [0.0, 1.0, 2.0], 2 * es._BATCH, 7)
        assert len(calls) == 3
        assert len(drawn) <= 3 + es._AHEAD
        monkeypatch.undo()
        _assert_pinned("closed_form")

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    def test_forked_child_draws_on_its_own_thread(self):
        """A child forked after a curve has run, while the parent's draw
        thread exists, gets a draw thread of its own and the same report."""
        _assert_pinned("closed_form")
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=_pinned_in_child, args=(results,))
        child.start()
        child.join(60)
        alive = child.is_alive()
        if alive:
            child.kill()
        assert not alive, "the forked child's curve never finished"
        assert results.get(timeout=10) == "ok"

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
    """The files the risk command writes carry its reports exactly."""

    @staticmethod
    def _risk_run(tmp_path, theta_norms):
        cfg = tmp_path / "risk.json"
        cfg.write_text(json.dumps({
            "command": "risk", "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}},
            "mc": {"n_samples": 2000, "seed": 8, "theta_norms": theta_norms}}))
        assert cli.main(["risk", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        return tmp_path

    def test_csv_round_trip(self, monomial_profile, tmp_path):
        curve = es.risk_curve(monomial_profile, [0.0, 2.0], 2000, 8)
        out = self._risk_run(tmp_path, [0.0, 2.0])
        with open(out / "risk_curve.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["mc_risk"]) == curve[0].mc_risk
        assert int(rows[1]["seed"]) == curve[1].seed
        assert (rows[1]["n"], rows[1]["k"]) == ("2000", "5")

    def test_json(self, monomial_profile, tmp_path):
        curve = es.risk_curve(monomial_profile, [1.0], 2000, 8)
        doc = json.loads((self._risk_run(tmp_path, [1.0]) / "risk_report.json").read_text())
        assert doc == [r.to_dict() for r in curve]
        assert doc[0]["theta_norm"] == 1.0
        assert doc[0]["baseline_k"] == 5
