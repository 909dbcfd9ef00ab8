"""Bayes estimator, SURE, and Monte Carlo risk.

Oracles: the flat-prior degeneracies (delta = x, SURE = k), the classical
closed-form SURE of the u^{-(k-2)} power-law profile, the identity
E|X - theta|^2 = k, and seeded reproducibility.
"""

import csv
import json
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

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


def _explicit_samples(profile, theta, n, seed):
    """Loss |delta(X) - theta|^2 and SURE of every sample, rebuilt from the
    per-batch streams with the rule formed in k dimensions."""
    loss, sure = [], []
    children = np.random.SeedSequence(seed).spawn(-(-n // es._BATCH))
    for i, child in enumerate(children):
        m = min(es._BATCH, n - i * es._BATCH)
        X = theta + np.random.default_rng(child).standard_normal((m, theta.size))
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
        """A curve checks n once, before any worker thread starts, and raises
        what a single point raises."""
        with pytest.raises(DomainError) as alone:
            es.mc_risk(monomial_profile, np.zeros(5), 0, 1)
        monkeypatch.setattr(es, "ThreadPoolExecutor", None)
        with pytest.raises(DomainError) as curve:
            es.risk_curve(monomial_profile, [0.0, 1.0], 0, 1)
        assert str(curve.value) == str(alone.value)

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
        """The per-sample loss from |Z|^2, Z.theta and |theta|^2 equals
        |delta(X) - theta|^2 formed in k dimensions from one draw per batch,
        at a theta with every sign and a zero coordinate, over an uneven last
        batch.  At k = 40 a batch streams through 26,214-row blocks, the last
        one shorter, so a block boundary that moved a sample would show."""
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
        """The batch's u = sqrt(|Z|^2 + 2 Z.theta + |theta|^2) is |theta + Z|
        to a few ulps of (|Z|^2 + |theta|^2)/u^2, relative, at an off-axis
        theta."""
        theta = norm * OFF_AXIS
        profile, seen = _recording(strawderman_profile)
        child = np.random.SeedSequence(7).spawn(1)[0]
        assert es._mc_batch(profile, theta, 5000, child)[3] == 0
        Z = np.random.default_rng(child).standard_normal((5000, 5))
        ref = np.linalg.norm(theta + Z, axis=1)
        ulps = np.abs(seen[0] - ref) * ref / (np.finfo(float).eps * (np.sum(Z * Z, axis=1)
                                                                      + theta @ theta))
        assert np.max(ulps) <= 4.0

    def test_radius_rounding_below_zero_is_the_origin(self, strawderman_profile, monkeypatch):
        """A draw Z = -theta whose |Z|^2 + 2 Z.theta + |theta|^2 rounds below
        zero is a valid sample at u = 0, not a failure."""
        rng, m = np.random.default_rng(3), 1000
        for _ in range(200):
            theta = rng.standard_normal(5)
            theta[3] = 0.0
            theta *= rng.uniform(1.0, 30.0) / np.linalg.norm(theta)
            Z = rng.standard_normal((m, 5))
            Z[0] = -theta
            zt, zz = np.einsum("ij,j->i", Z, theta)[0], np.einsum("ij,ij->i", Z, Z)[0]
            if 2.0 * zt + zz + theta @ theta < 0.0:
                break
        else:
            pytest.fail("no draw of the search rounds below zero")

        class Draw:
            """Hands out Z in consecutive row blocks, as a generator would."""
            start = 0

            def standard_normal(self, shape):
                rows = Z[self.start:self.start + shape[0]]
                assert shape == (len(rows), Z.shape[1])
                self.start += shape[0]
                return rows.copy()

        profile, seen = _recording(strawderman_profile)
        draw = Draw()
        monkeypatch.setattr(np.random, "default_rng", lambda seed: draw)
        count, _, (sure_sum, _), failures = es._mc_batch(profile, theta, m, None)
        assert seen[0][0] == 0.0 and draw.start == m
        assert count == m and failures == 0 and math.isfinite(sure_sum)

    def test_block_fill_equals_one_draw(self):
        """Filling a batch's draw block by block from its generator, with the
        uneven blocks of k = 40, gives the one-call draw bit for bit."""
        k, m = 40, es._BATCH + 5
        rows = es._block_rows(k)
        assert rows == 26214 and m % rows
        child = np.random.SeedSequence(5).spawn(1)[0]
        whole = np.random.default_rng(child).standard_normal((m, k))
        rng = np.random.default_rng(child)
        blocks = [rng.standard_normal((min(rows, m - lo), k)) for lo in range(0, m, rows)]
        np.testing.assert_array_equal(np.concatenate(blocks), whole)

    @pytest.mark.parametrize("k, m", [(40, 65541), (400, 6000)])
    def test_batch_equals_one_whole_draw(self, k, m):
        """Every sample's loss, validity and SURE, and the batch's statistics,
        are those of the same formulas on one whole (m, k) draw, bit for bit,
        at an off-axis theta: k = 40 streams 26,214-row blocks and k = 400
        2,621-row blocks, each with a shorter last block."""
        theta = np.resize([1.0, -2.0, 0.5, 0.0, 3.0], k)
        profile = mg.marginal_strawderman(0.5, k)
        child = np.random.SeedSequence(11).spawn(1)[0]
        Z = np.random.default_rng(child).standard_normal((m, k))
        zz, zt, tt = np.einsum("ij,ij->i", Z, Z), np.einsum("ij,j->i", Z, theta), theta @ theta
        rho, ok, s = es._shrink_terms(profile, np.sqrt(np.maximum(2.0 * zt + zz + tt, 0.0)), k)
        c = 1.0 + rho
        loss = c * c * zz + 2.0 * c * rho * zt + rho * rho * tt
        rows, rng = es._block_rows(k), np.random.default_rng(child)
        assert 1 < -(-m // rows) and m % rows
        blocks = [es._block_terms(profile, theta, rng, min(rows, m - lo))
                  for lo in range(0, m, rows)]
        for whole, part in zip((loss, ok, s), zip(*blocks)):
            np.testing.assert_array_equal(np.concatenate(part), whole)
        assert ok.all()
        assert es._mc_batch(profile, theta, m, child) == (m, es._sum_m2(loss), es._sum_m2(s), 0)

    def test_batch_memory_is_bounded_by_the_block(self):
        """One batch of 20,000 draws at k = 400 (a 64 MB draw taken whole)
        peaks under 12 MB of traced allocations: 2,621-row blocks of 8 MB
        each and the batch's (m,) vectors."""
        k, m = 400, 20000
        profile = mg.marginal_strawderman(0.5, k)
        child = np.random.SeedSequence(3).spawn(1)[0]
        es._mc_batch(profile, np.zeros(k), 1000, child)   # first call outside the trace
        tracemalloc.start()
        try:
            count = es._mc_batch(profile, np.zeros(k), m, child)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == m
        assert peak < 12 * 2**20, peak

    @pytest.mark.parametrize("route", ["closed_form", "mixture", "radial"])
    def test_reports_do_not_depend_on_the_worker_count(self, route, monkeypatch):
        """Batches reduce in batch order, so one thread and two give equal
        reports: three batches with an uneven last one on the closed form,
        and two on each quadrature route, whose marginal then builds its
        tables and runs in two threads at once."""
        build, n = {
            "closed_form": (lambda: mg.marginal_strawderman(0.5, 5), 2 * es._BATCH + 3),
            "mixture": (lambda: mg.marginal_mixture(pr.gen_beta_mixing(2, 2, -1, 0.5, 5)),
                        es._BATCH + 1000),
            "radial": (ROUTES["radial"], es._BATCH + 1000)}[route]
        theta = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        reports = []
        for workers in (1, 2):
            monkeypatch.setattr(es, "_WORKERS", workers)
            reports.append(es.mc_risk(build(), theta, n, 17))
        assert reports[0] == reports[1]

    def test_worker_count_without_sched_getaffinity(self, monkeypatch):
        """Where os.sched_getaffinity does not exist (macOS, Windows) the
        worker count falls back to os.cpu_count(), or 1 if that is unknown."""
        workers = es._WORKERS
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert es._worker_count() == (os.cpu_count() or 1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert es._worker_count() == 1
        monkeypatch.undo()
        assert es._worker_count() == workers == es._WORKERS

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
        # two batches in worker threads, each under the caller's errstate
        with pytest.raises(EvaluationError), np.errstate(all="ignore"):
            es.mc_risk(tiny, np.zeros(5), 2 * es._BATCH, 3)
        # and the batches of two points of a curve, all on one pool
        with pytest.raises(EvaluationError), np.errstate(all="ignore"):
            es.risk_curve(tiny, [0.0, 3.0], 2 * es._BATCH, 3)


def _failing_beyond(radius, delay=0.0):
    """The monomial profile with l'/l = NaN where u > radius (k = 5); the
    triple sleeps ``delay`` seconds on batches that do not fail, and counts
    its calls in ``calls``."""
    base, calls = mg.monomial_mixture_profile(2, 5), []

    def triple(u):
        calls.append(u.size)
        log_ell, r1, r2 = base.ratios(u)
        if not np.any(u > radius):
            time.sleep(delay)
        return log_ell, np.where(u > radius, np.nan, r1), r2

    return mg.MarginalProfile(k=5, triple_fn=triple, route="failing"), calls


@pytest.fixture(scope="module")
def route_profiles():
    return {route: build() for route, build in ROUTES.items()}


class TestRiskCurve:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_curve_equals_its_points(self, route, workers, route_profiles, monkeypatch):
        """Each report of a curve equals its point run alone at the point's
        seed, on every route and worker count, over an uneven last batch."""
        monkeypatch.setattr(es, "_WORKERS", workers)
        profile, n, norms = route_profiles[route], 2 * es._BATCH + 3, [3.0, 0.0]
        curve = es.risk_curve(profile, norms, n, 41)
        for report, norm in zip(curve, norms):
            theta = np.zeros(5)
            theta[0] = norm
            assert report == es.mc_risk(profile, theta, n, es._norm_seed(41, norm))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_point_raises_as_alone(self, workers, monkeypatch):
        """A curve raises the error of its first point past the failure
        limit, in the caller's order, with the message and count of that
        point run alone; points that pass do not mask it."""
        monkeypatch.setattr(es, "_WORKERS", workers)
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
        """The first point fails and the later ones are slow: the batches
        still queued when it raises never run."""
        monkeypatch.setattr(es, "_WORKERS", 2)
        profile, calls = _failing_beyond(6.0, delay=0.05)
        norms = [10.0] + [0.0] * 20
        with pytest.raises(EvaluationError):
            es.risk_curve(profile, norms, 1000, 3)
        assert len(calls) <= 2 * es._WORKERS + 1

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
