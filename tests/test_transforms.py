"""Integral transform oracles: closed-form pairs, linearity, divergence
detection, batched against point-by-point transforms, and the finite-interval
quadrature the transforms run on."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import beta

from bayesminimax import _quad, transforms as tr
from bayesminimax.errors import DomainError, QuadratureError, TransformDivergenceError
from conftest import assert_derivative_contract


def sfn(f, support=(0.0, math.inf), **kw):
    return tr.ScalarFn(eval=f, support=support, **kw)


def gaussian_bessel_fn(nu, alpha):
    def log_f(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return (nu + 0.5) * np.log(x) - alpha * x * x

    return tr.ScalarFn(eval=lambda x: np.exp(log_f(x)), support=(0.0, math.inf),
                       log_eval=log_f, nonneg=True)


class TestQuadSpec:
    def test_defaults(self):
        q = tr.QuadSpec()
        assert q.rel_tol == 1e-8 and q.abs_tol == 1e-14 and q.tail_cut == 1e-14

    @pytest.mark.parametrize("kwargs", [{"rel_tol": 0.0}, {"tail_cut": 0.0},
                                        {"abs_tol": math.nan}, {"abs_tol": -1.0},
                                        {"tail_cut": 1.0}])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            tr.QuadSpec(**kwargs)


class TestScalarFn:
    def test_derivative_contract(self):
        def ratios(x):
            x = np.asarray(x, float)
            return -x ** 2, -2.0 * x, 4.0 * x ** 2 - 2.0

        fn = tr.ScalarFn(eval=lambda x: np.exp(-np.asarray(x, float) ** 2), ratios=ratios)
        assert_derivative_contract(fn, [0.3, 1.0, 2.5])
        f, d1, d2 = fn.triple(1.5)
        assert f == math.exp(-2.25)
        assert d1 == pytest.approx(-3.0 * f, rel=1e-15) and d2 == pytest.approx(7.0 * f, rel=1e-15)

    def test_log_abs_fallback(self):
        fn = sfn(lambda x: -3.0 * np.ones_like(np.asarray(x, float)))
        assert fn.log_abs(1.0) == pytest.approx(math.log(3.0))


class TestIntegrateFinite:
    def test_endpoint_singularity(self):
        assert _quad.integrate_finite(lambda t: t ** -0.5, 0.0, 1.0) == pytest.approx(2.0, rel=1e-8)

    def test_power(self):
        k = 5
        assert _quad.integrate_finite(lambda t: t ** (k - 3), 0.0, 1.0) == pytest.approx(
            1.0 / 3.0, rel=1e-10)

    def test_tolerance_monotone(self):
        for f in (lambda t: t ** -0.5, lambda t: 1.0 / (1.0 + t ** 2)):
            prev = _quad.integrate_finite(f, 0.0, 1.0, rel_tol=1e-6)
            for rt in (5e-7, 2.5e-7):
                cur = _quad.integrate_finite(f, 0.0, 1.0, rel_tol=rt)
                assert abs(cur - prev) <= 2e-6 * abs(prev)
                prev = cur

    def test_budget_exhaustion_reports_interval(self):
        with pytest.raises(QuadratureError) as err:
            _quad.integrate_finite(lambda t: np.abs(np.sin(1.0 / t)) + 1.0, 0.0, 1.0,
                                   rel_tol=1e-13)
        assert "worst_interval" in err.value.diagnostics

    @pytest.mark.parametrize("engine, row", [
        (_quad.integrate_finite, lambda t: 1.0 / t),
        (_quad.integrate_finite, lambda t: t ** -1.2),
        (lambda f, a, b: _quad.integrate_rows_log(lambda t: f(t)[:, None], a, b),
         lambda t: -np.log(t)),
    ], ids=["1/t", "t^-1.2", "log_mode_1/t"])
    def test_divergent_endpoint_stops_at_the_round_cap(self, engine, row):
        """A non-integrable endpoint is halved towards s = 0 round after round
        and never meets its tolerance: it raises at the round cap, within a
        few hundredths of a second of CPU time and with no RuntimeWarning,
        instead of halving on until the integrand overflows."""
        start = time.process_time()
        with pytest.raises(QuadratureError, match=f"round cap {_quad._MAX_ROUNDS}") as err:
            engine(row, 0.0, 1.0)
        assert time.process_time() - start < 0.1
        lo, hi = err.value.diagnostics["worst_interval"]
        assert lo == 0.0 < hi < 1e-50

    def test_beta_integrals_off_the_origin(self):
        """int_a^b (x-a)^al (b-x)^be dx = (b-a)^(al+be+1) B(al+1, be+1) with
        endpoints away from 0: no node lands on an endpoint, so the integrand
        stays finite.  78 of the 108 cases are within 1e-8.  In the other 30
        the integrand's own rounding of x - e next to an endpoint e != 0,
        about spacing(e)^(1+g)/(1+g) for the exponent g there, already
        exceeds rel_tol 1e-10 of the integral: each of them is within 1e-8
        all the same, or raises QuadratureError with its worst interval at
        that endpoint."""
        counts = [0, 0]    # cases within reach of rel_tol, cases past it
        for a, w, al, be in itertools.product((-5.0, -1.0, 0.0, 2.3), (0.1, 1.0, 10.0),
                                              (-0.45, 0.3, 1.5), (-0.3, 0.0, 1.5)):
            b = a + w
            want = w ** (al + be + 1.0) * beta(al + 1.0, be + 1.0)
            rounding, e = max(((np.spacing(abs(e)) ** (1.0 + g) / (1.0 + g), e)
                               for e, g in ((a, al), (b, be)) if e != 0.0), default=(0.0, None))
            rounded = bool(rounding > 1e-10 * want)
            counts[rounded] += 1
            try:
                got = _quad.integrate_finite(lambda x: (x - a) ** al * (b - x) ** be, a, b)
            except QuadratureError as err:
                if not rounded:
                    raise
                lo, hi = err.diagnostics["worst_interval"]
                assert max(abs(lo - e), abs(hi - e)) <= 1e-8 * w, (a, b, al, be, lo, hi)
            else:
                assert got == pytest.approx(want, rel=1e-8), (a, b, al, be)
        assert counts == [78, 30]

    def test_unresolvable_panel_raises_at_once(self):
        """A jump at 1e6 + 0.3 cannot meet rel_tol 1e-14: the panel holding it
        is halved until it is a few ulps of 1e6 wide, and then raises, long
        before the round cap or the panel budget."""
        with pytest.raises(QuadratureError, match="ulps of its edges") as err:
            _quad.adaptive_batch(lambda x: (x > 1e6 + 0.3).astype(float)[:, None],
                                 1e6, 1e6 + 1.0, rel_tol=1e-14)
        lo, hi = err.value.diagnostics["worst_interval"]
        assert lo <= 1e6 + 0.3 <= hi and hi - lo <= 4 * np.spacing(1e6 + 1.0)

    def test_singular_upper_endpoint(self):
        got = _quad.integrate_finite(lambda x: (1.0 - x) ** -0.3 * x ** 2, 0.0, 1.0)
        assert got == pytest.approx(beta(3.0, 0.7), rel=1e-10)

    @pytest.mark.parametrize("engine, row", [
        (_quad.integrate_rows, lambda t: 1.0 / (1.0 - t)),
        (_quad.integrate_rows_log, lambda t: -np.log1p(-t)),
    ], ids=["integrate_rows", "integrate_rows_log"])
    def test_errors_name_the_callers_interval(self, engine, row):
        with pytest.raises(QuadratureError, match="worst interval in x") as err:
            engine(lambda t: row(t)[:, None], 0.0, 1.0)
        lo, hi = err.value.diagnostics["worst_interval"]
        assert 0.5 <= lo <= hi <= 1.0

    def test_nested_error_keeps_its_own_interval(self):
        def outer(x):
            inner = _quad.integrate_finite(lambda t: 1.0 / (1.0 - t), 0.0, 1.0)
            return np.full((x.size, 1), inner)

        with pytest.raises(QuadratureError) as err:
            _quad.integrate_rows(outer, 2.0, 3.0)
        lo, hi = err.value.diagnostics["worst_interval"]
        assert 0.5 <= lo <= hi <= 1.0
        assert str(err.value).count("worst interval in x") == 1


class TestRule:
    @pytest.mark.parametrize("weights, degree", [(_quad._WK, 22), (_quad._WG, 13)],
                             ids=["K15", "G7"])
    def test_moments_to_two_ulps(self, weights, degree):
        """Summed exactly in rational arithmetic, K15 integrates x^p over
        [-1, 1] for p <= 22 and G7 for p <= 13 within 2 ulps of 2/(p+1)."""
        for p in range(degree + 1):
            got = sum(Fraction(w) * Fraction(x) ** p for w, x in zip(weights, _quad._XK))
            want = Fraction(0) if p % 2 else Fraction(2, p + 1)
            assert abs(got - want) <= 2 * Fraction(np.spacing(2.0 / (p + 1))), p

    def test_one_integrand_call_per_round(self, monkeypatch):
        rounds, calls = [0], [0]
        original = _quad._make_panel

        def counted(*args):
            rounds[0] += 1
            return original(*args)

        def rows(x):
            calls[0] += 1
            return np.cos(200.0 * np.multiply.outer(x, np.linspace(1.0, 1.01, 8)))

        monkeypatch.setattr(_quad, "_make_panel", counted)
        _quad.adaptive_batch(rows, 0.0, 10.0)
        assert 1 < rounds[0] == calls[0] < 20


class TestRoundoffFloor:
    """A signed row whose integral cancels far below its integral of |g|
    stops at its roundoff floor instead of exhausting the panel budget."""

    B = 20.0 * math.pi + 1e-6   # int_0^B cos = sin(B) ~ 1e-6, int_0^B |cos| = 40

    def _count_panels(self, monkeypatch):
        count = [0]
        original = _quad._make_panel

        def counted(*args):
            count[0] += 1
            return original(*args)

        monkeypatch.setattr(_quad, "_make_panel", counted)
        return count

    def test_cancelling_row_converges(self, monkeypatch):
        panels = self._count_panels(monkeypatch)
        value = _quad.integrate_rows(lambda x: np.cos(x)[:, None], 0.0, self.B)
        assert value.shape == (1,)
        assert abs(value[0] - math.sin(self.B)) < 1e-13
        assert panels[0] < 500

    def test_floor_row_beside_an_ordinary_row(self):
        def rows(x):
            return np.stack([np.cos(x), np.exp(-x)], axis=1)

        value = _quad.integrate_rows(rows, 0.0, self.B)
        assert abs(value[0] - math.sin(self.B)) < 1e-13
        assert value[1] == pytest.approx(-math.expm1(-self.B), rel=1e-10)

    def test_integrate_finite_is_the_one_row_batch(self):
        f = lambda t: np.exp(-t) * t ** 0.3  # noqa: E731
        row = _quad.integrate_rows(lambda x: f(x)[:, None], 0.0, 50.0,
                                   rel_tol=1e-12, abs_tol=1e-14)
        assert _quad.integrate_finite(f, 0.0, 50.0, rel_tol=1e-12, abs_tol=1e-14) == row[0]

    def test_non_integrable_singularity_still_fails(self):
        with pytest.raises(QuadratureError):
            _quad.integrate_finite(lambda t: 1.0 / t, 0.0, 1.0)


def _two_rows(x):
    return np.stack([np.exp(-x), np.cos(8.0 * x) * x], axis=1)


def _two_log_rows(x):
    return np.stack([-x, np.log(x) - x * x], axis=1)


class TestCallerArraysUntouched:
    """The engine works in place only on arrays it allocated itself: an array
    that a caller's integrand returns and keeps comes back unchanged, and the
    result equals that of an integrand returning a fresh copy each time."""

    @pytest.mark.parametrize("engine, f", [
        (_quad.integrate_rows, _two_rows),
        (_quad.adaptive_batch, _two_rows),
        (_quad.integrate_rows_log, _two_log_rows),
        (_quad.adaptive_batch_log, _two_log_rows),
    ], ids=["integrate_rows", "adaptive_batch", "integrate_rows_log", "adaptive_batch_log"])
    def test_returned_rows_are_never_overwritten(self, engine, f):
        kept = []

        def keeping(x):
            out = f(x)
            kept.append((out, out.copy()))
            return out

        got = engine(keeping, 0.0, 3.0)
        assert kept
        for out, copy in kept:
            np.testing.assert_array_equal(out, copy)
        np.testing.assert_array_equal(got, engine(lambda x: f(x).copy(), 0.0, 3.0))


def _three_rows(x):
    return np.stack([np.exp(-x), x * np.exp(-x * x), 1.0 / (1.0 + x * x)], axis=1)


class TestNodeMajorLayout:
    """Integrand callbacks are node-major: nodes (m,) -> values (m, P), one
    column per row.  Column j of a batch is the integral of row j alone, and
    a callback laid out any other way is refused before any panel work."""

    @pytest.mark.parametrize("engine, log", [
        (_quad.integrate_rows, False),
        (_quad.adaptive_batch, False),
        (_quad.integrate_rows_log, True),
        (_quad.adaptive_batch_log, True),
    ], ids=["integrate_rows", "adaptive_batch", "integrate_rows_log", "adaptive_batch_log"])
    def test_each_column_is_its_own_integral(self, engine, log):
        if log:
            got = np.exp(engine(lambda x: np.log(_three_rows(x)), 0.0, 3.0, rel_tol=1e-12))
        else:
            got = engine(_three_rows, 0.0, 3.0, rel_tol=1e-12)
        assert got.shape == (3,)
        for j in range(3):
            want = _quad.integrate_finite(lambda x: _three_rows(x)[:, j], 0.0, 3.0,
                                          rel_tol=1e-12)
            assert got[j] == pytest.approx(want, rel=1e-11)
        closed = [-math.expm1(-3.0), -0.5 * math.expm1(-9.0), math.atan(3.0)]
        np.testing.assert_allclose(got, closed, rtol=1e-11)

    @pytest.mark.parametrize("engine, f", [
        (_quad.adaptive_batch, lambda x: np.stack([np.exp(-x), x])),
        (_quad.integrate_rows, lambda x: np.stack([np.exp(-x), x])),
        (_quad.adaptive_batch, lambda x: np.exp(-x)),
        (_quad.adaptive_batch_log, lambda x: np.stack([-x, -2.0 * x])),
        (_quad.integrate_rows_log, lambda x: np.stack([-x, -2.0 * x])),
        (_quad.adaptive_batch_log, lambda x: -x),
        # one row first would broadcast against the (15, 1) Jacobian to (15, 15)
        (_quad.integrate_rows, lambda x: np.exp(-x)[None, :]),
        (_quad.integrate_rows_log, lambda x: -x[None, :]),
    ], ids=["adaptive_batch-rows_first", "integrate_rows-rows_first", "adaptive_batch-1d",
            "adaptive_batch_log-rows_first", "integrate_rows_log-rows_first",
            "adaptive_batch_log-1d", "integrate_rows-one_row_first",
            "integrate_rows_log-one_row_first"])
    def test_other_layouts_raise(self, engine, f):
        with pytest.raises(ValueError, match=r"\(15, P\)"):
            engine(f, 0.0, 1.0)


class TestITransform:
    @pytest.mark.parametrize("nu", [1.5, 40.0, 100.0])
    def test_gaussian_closed_form(self, nu):
        """The Gaussian pair against its closed form at k = 5 (nu = 1.5) and
        at the high orders 40 and 100 (k = 82 and 202)."""
        alpha, y = 1.0, 2.0
        f = gaussian_bessel_fn(nu, alpha)
        got = tr.i_transform(f, nu, y, tr.QuadSpec(rel_tol=1e-10))
        closed = y ** (nu + 0.5) * math.exp(y * y / (4 * alpha)) / (2 * alpha) ** (nu + 1)
        assert got == pytest.approx(closed, rel=1e-7)

    def test_linearity(self):
        nu = 1.5
        f = gaussian_bessel_fn(nu, 1.0)
        g = gaussian_bessel_fn(nu, 2.0)
        comb = sfn(lambda x: 2.0 * f.eval(x) - 0.5 * g.eval(x))
        for y in (0.7, 1.5, 3.0):
            lhs = tr.i_transform(comb, nu, y)
            rhs = 2.0 * tr.i_transform(f, nu, y) - 0.5 * tr.i_transform(g, nu, y)
            assert lhs == pytest.approx(rhs, rel=1e-7)

    def test_zero_function(self):
        z = sfn(lambda x: np.zeros_like(np.asarray(x, float)), nonneg=True)
        assert tr.i_transform(z, 1.5, 1.0) == 0.0

    def test_divergence_detected(self):
        # polynomial decay cannot pay for the e^{xy} kernel growth
        slow = sfn(lambda x: 1.0 / (1.0 + np.asarray(x, float) ** 2), nonneg=True)
        with pytest.raises(TransformDivergenceError):
            tr.i_transform(slow, 1.5, 1.0)

    def test_overflowing_integrand_raises(self):
        # a log-integrand of +inf is an overflow, not an identically-zero integrand
        def log_f(x):
            x = np.asarray(x, float)
            return np.where(x > 10.0, np.inf, -x * x)

        f = sfn(lambda x: np.exp(log_f(x)), log_eval=log_f, nonneg=True)
        with pytest.raises(TransformDivergenceError, match=r"\+inf"):
            tr.i_transform(f, 1.5, 1.0)

    def test_requires_positive_y(self):
        f = gaussian_bessel_fn(1.5, 1.0)
        with pytest.raises(DomainError):
            tr.i_transform(f, 1.5, 0.0)


class TestBatchedITransform:
    """An array of y is transformed in one batch: a peak scan per y, one
    shared window and one batched quadrature for every row."""

    def test_gaussian_grid_matches_pointwise_and_closed_form(self):
        from bayesminimax.conditions import default_grid

        nu, alpha = 1.5, 1.0
        f = gaussian_bessel_fn(nu, alpha)
        y = default_grid()
        batch = tr.i_transform(f, nu, y)
        pointwise = np.array([tr.i_transform(f, nu, float(yi)) for yi in y])
        np.testing.assert_allclose(batch, pointwise, rtol=1e-12, atol=0)
        assert isinstance(tr.i_transform(f, nu, float(y[0])), float)
        closed = y ** (nu + 0.5) * np.exp(y * y / (4 * alpha)) / (2 * alpha) ** (nu + 1)
        np.testing.assert_allclose(batch, closed, rtol=1e-9, atol=0)

    def test_signed_weight_matches_pointwise(self):
        from bayesminimax.priors import whittaker_radial

        f = tr.transform_weight(whittaker_radial(4.0, 5).lam, 5)
        assert not f.nonneg
        y = np.array([0.5, 1.0, 2.0, 4.0])
        quad = tr.QuadSpec(rel_tol=1e-9)
        batch = tr.i_transform(f, 1.5, y, quad)
        pointwise = np.array([tr.i_transform(f, 1.5, float(yi), quad) for yi in y])
        np.testing.assert_allclose(batch, pointwise, rtol=1e-12, atol=0)
        assert np.all(batch < 0)

    def test_cancelling_signed_row_in_a_wide_window(self):
        """Whittaker (6, 5): at y = 0.05 the signed integral is about 1e-6 of
        the integral of its modulus, and the y = 20 row widens the shared
        window; the batch still converges and is proportional to
        u^6 e^{u^2/2}."""
        from bayesminimax.priors import power_exp_profile, whittaker_radial

        f = tr.transform_weight(whittaker_radial(6.0, 5).lam, 5)
        y = np.array([0.05, 20.0])
        ratio = tr.i_transform(f, 1.5, y) / power_exp_profile(6.0, 5).eval(y)
        assert ratio[0] == pytest.approx(ratio[1], rel=1e-8)

    def test_cancelling_rows_on_a_grid(self, monkeypatch):
        """Whittaker (6, 5) on a 12-point grid: each y is one signed row, the
        small-y rows stopping at their roundoff floor; the values agree with
        integrating the positive and negative parts as separate rows."""
        from bayesminimax.priors import whittaker_radial

        rows_seen = []
        original = _quad.integrate_rows

        def recording(rows, *args, **kwargs):
            rows_seen.append(rows(np.array([1.0, 2.0])).shape[1])
            return original(rows, *args, **kwargs)

        monkeypatch.setattr(_quad, "integrate_rows", recording)
        f = tr.transform_weight(whittaker_radial(6.0, 5).lam, 5)
        values = tr.i_transform(f, 1.5, np.geomspace(0.05, 30.0, 12))
        assert rows_seen == [12]
        split = [1.8793486447194214e-010, 6.1738598456868127e-009,
                 2.0404835752992822e-007, 6.8756694981894645e-006,
                 2.4648624820329833e-004, 1.0772853141462544e-002,
                 8.8765022072154143e-001, 5.5626636129981034e+002,
                 2.3000334884310588e+008, 9.9917853006034958e+022,
                 3.1924040560756492e+066, 2.3707668494653634e+202]
        np.testing.assert_allclose(values, split, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("gamma,y_big,sign", [(4.0, 60.0, -1.0), (6.0, 50.0, 1.0)])
    def test_sign_survives_weight_underflow(self, gamma, y_big, sign):
        """Past r ~ 38.6 the Whittaker weight underflows in ``eval``; its
        sign comes from ``ScalarFn.sign``, so the ratio to u^gamma e^{u^2/2}
        holds where the transform peaks there, and a transform beyond the
        double range is an infinity of the right sign."""
        from bayesminimax.priors import power_exp_profile, whittaker_radial

        f = tr.transform_weight(whittaker_radial(gamma, 5).lam, 5)
        y = np.array([20.0, 35.0, 36.0, 37.0])
        ratio = tr.i_transform(f, 1.5, y) / power_exp_profile(gamma, 5).eval(y)
        np.testing.assert_allclose(ratio[1:], ratio[0], rtol=1e-6, atol=0)
        assert tr.i_transform(f, 1.5, y_big) == sign * math.inf
        assert np.all(f.sign(np.array([39.0, 45.0])) == sign)

    def test_one_batched_quadrature_per_call(self, monkeypatch):
        calls = {"integrate_rows": 0, "integrate_finite": 0}
        for name in calls:
            orig = getattr(_quad, name)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)

            monkeypatch.setattr(_quad, name, counted)
        values = tr.i_transform(gaussian_bessel_fn(1.5, 1.0), 1.5, np.linspace(0.5, 4.0, 8))
        assert values.shape == (8,)
        assert calls == {"integrate_rows": 1, "integrate_finite": 0}

    def test_first_divergent_y_is_named(self):
        # e^{-2x} pays for the e^{xy} kernel growth only while y < 2
        f = sfn(lambda x: np.exp(-2.0 * np.asarray(x, float)),
                log_eval=lambda x: -2.0 * np.asarray(x, float), nonneg=True)
        with pytest.raises(TransformDivergenceError) as err:
            tr.i_transform(f, 0.5, np.array([0.5, 1.0, 3.0, 4.0]))
        assert err.value.diagnostics["y"] == 3.0


class TestKTransform:
    def test_self_convergence(self):
        g = sfn(lambda x: np.sqrt(np.asarray(x, float)) * np.exp(-np.asarray(x, float) ** 2 / 2))
        v1 = tr.k_transform(g, 0.5, 1.0, tr.QuadSpec(rel_tol=1e-8))
        v2 = tr.k_transform(g, 0.5, 1.0, tr.QuadSpec(rel_tol=1e-10))
        assert v1 > 0
        assert v1 == pytest.approx(v2, rel=1e-7)

    def test_zero(self):
        z = sfn(lambda x: np.zeros_like(np.asarray(x, float)))
        assert tr.k_transform(z, 0.5, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_linearity(self):
        g1 = sfn(lambda x: np.exp(-np.asarray(x, float)))
        g2 = sfn(lambda x: np.exp(-2.0 * np.asarray(x, float)))
        comb = sfn(lambda x: 3.0 * g1.eval(x) + g2.eval(x))
        y, nu = 1.3, 0.5
        lhs = tr.k_transform(comb, nu, y)
        rhs = 3.0 * tr.k_transform(g1, nu, y) + tr.k_transform(g2, nu, y)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_closed_form_half_order(self):
        # K_{1/2}(xy) = sqrt(pi/(2xy)) e^{-xy}:
        # int_0^inf e^{-x} sqrt(xy) K_{1/2}(xy) dx = sqrt(pi/2)/(1+y)
        g = sfn(lambda x: np.exp(-np.asarray(x, float)))
        y = 1.7
        got = tr.k_transform(g, 0.5, y)
        assert got == pytest.approx(math.sqrt(math.pi / 2.0) / (1.0 + y), rel=1e-9)

    def test_strong_integrable_endpoint(self):
        """At nu = 1.3 the integrand e^{-x} sqrt(x) K_nu(x) grows like x^-0.8
        at 0; the sqrt map leaves s^-0.6 there, which needs 66 rounds of
        halving.  At y = 1 Gradshteyn-Ryzhik 6.621.3 with mu = 3/2 gives
        sqrt(pi) Gamma(mu + nu) Gamma(mu - nu) / (2^mu Gamma(mu + 1/2))."""
        nu, mu = 1.3, 1.5
        g = sfn(lambda x: np.exp(-np.asarray(x, float)))
        want = (math.sqrt(math.pi) * math.gamma(mu + nu) * math.gamma(mu - nu)
                / (2.0 ** mu * math.gamma(mu + 0.5)))
        assert abs(tr.k_transform(g, nu, 1.0) - want) <= 1e-8

    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.0])
    def test_closed_form_on_a_grid(self, nu):
        """Integer orders included.  For g = e^{-x} (Gradshteyn-Ryzhik
        6.621.3 with mu = 3/2):
        sqrt(pi y) (2y)^nu / (1+y)^{3/2+nu} Gamma(3/2+nu) Gamma(3/2-nu)
        * 2F1(3/2+nu, nu+1/2; 2; (1-y)/(1+y)), through mpmath."""
        import mpmath as mp

        g = sfn(lambda x: np.exp(-np.asarray(x, float)))
        ys = np.array([0.5, 1.7, 4.0])
        got = tr.k_transform(g, nu, ys, tr.QuadSpec(rel_tol=1e-10))
        want = [float(mp.sqrt(mp.pi * y) * (2 * y) ** nu / (1 + y) ** (1.5 + nu)
                      * mp.gamma(1.5 + nu) * mp.gamma(1.5 - nu)
                      * mp.hyp2f1(1.5 + nu, nu + 0.5, 2, (1 - y) / (1 + y)))
                for y in ys]
        np.testing.assert_allclose(got, want, rtol=1e-9)


class TestConsistencyChecker:
    def _strawderman_setup(self):
        from bayesminimax.marginals import marginal_strawderman
        from bayesminimax.priors import strawderman_radial

        k, a = 5, 0.5
        prior = strawderman_radial(a, k)
        prof = marginal_strawderman(a, k)
        logA = math.lgamma(k / 2.0) - math.log(2.0) - k / 2.0 * math.log(math.pi)

        def F_t(u):
            u = np.asarray(u, dtype=float)
            h = np.exp(logA + 0.5 * (1.0 - k) * np.log(u) - 0.5 * u * u)
            return prof.triple(u)[0] / h

        target = tr.ScalarFn(eval=F_t, support=(0.0, math.inf), nonneg=True)
        return prior.lam, target

    def test_strawderman_forward_consistency(self):
        lam, target = self._strawderman_setup()
        rep = tr.i_transform_consistency(lam, target, 1.5, [0.5, 1.0, 2.0, 4.0],
                                         tr.QuadSpec(rel_tol=1e-9), prop_tol=1e-5)
        assert rep.verdict == "HOLDS"
        assert rep.extra["max_relative_deviation"] < 1e-5
        # the target here is the exact transform, so the ratio is 1
        assert rep.extra["ratio"] == pytest.approx(1.0, rel=1e-5)

    def test_scale_invariance(self):
        lam, target = self._strawderman_setup()
        scaled = tr.ScalarFn(eval=lambda u: 7.0 * target.eval(u),
                             support=target.support, nonneg=True)
        r1 = tr.i_transform_consistency(lam, target, 1.5, [0.5, 2.0])
        r2 = tr.i_transform_consistency(lam, scaled, 1.5, [0.5, 2.0])
        assert r1.verdict == r2.verdict
        assert r2.extra["ratio"] == pytest.approx(r1.extra["ratio"] / 7.0, rel=1e-9)

    def test_signed_candidate_keeps_sign(self):
        lam, target = self._strawderman_setup()
        neg = tr.ScalarFn(eval=lambda r: -np.asarray(lam.eval(r), float),
                          support=lam.support, log_eval=lam.log_abs)
        r1 = tr.i_transform_consistency(lam, target, 1.5, [0.5, 2.0])
        r2 = tr.i_transform_consistency(neg, target, 1.5, [0.5, 2.0])
        assert r2.verdict == r1.verdict == "HOLDS"
        assert r2.extra["ratio"] == pytest.approx(-r1.extra["ratio"], rel=1e-9)

    def test_zero_candidate_degenerate(self):
        zero = tr.ScalarFn(eval=lambda r: np.zeros_like(np.asarray(r, float)),
                           support=(0.0, math.inf), nonneg=True)
        _, target = self._strawderman_setup()
        rep = tr.i_transform_consistency(zero, target, 1.5, [0.5, 1.0])
        assert rep.verdict != "HOLDS"
        assert "degenerate" in rep.extra

    def test_empty_grid_rejected(self):
        lam, target = self._strawderman_setup()
        with pytest.raises(DomainError):
            tr.i_transform_consistency(lam, target, 1.5, [])

    def test_non_finite_point_named(self):
        """The Gaussian-Bessel transform at alpha = 1 leaves the double range
        between y = 50 and 55; the report names the first y whose value or
        target is not finite instead of judging the ratio."""
        grid = [50.0, 55.0, 60.0]
        values = tr.i_transform(gaussian_bessel_fn(1.5, 1.0), 1.5, grid)
        assert math.isfinite(values[0]) and values[1] == math.inf
        rep = tr.proportionality_report(grid, values, np.ones(3))
        assert rep.verdict == "INCONCLUSIVE"
        assert rep.extra["non_finite"] == 55.0
        rep = tr.proportionality_report(grid, np.ones(3), [1.0, 1.0, math.nan])
        assert rep.extra["non_finite"] == 60.0
