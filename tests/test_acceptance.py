"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its measured quantities.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are pinned here; nothing is deferred to calibration.

The Whittaker forward-transform check (a6) covers both sides of the
I-transform's existence condition.  Where 1F1((k-1)/4 - gamma/2; k/2; r^2/2)
terminates, the radial density is a polynomial, its transform weight has
Gaussian decay, and proportionality to u^gamma e^{u^2/2} must HOLD.  Where it
does not terminate, the density grows like e^{r^2/2}, the weight decays only
polynomially against an e^{ru} kernel, and the check must report the
divergence as INCONCLUSIVE instead of fabricating a ratio.
"""

import json
import math
import time

import numpy as np
import pytest

from bayesminimax import cli, conditions as cd, estimators as es
from bayesminimax import marginals as mg, priors as pr, transforms as tr
from bayesminimax import specfun as sf


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status} {detail}".rstrip())
    return ok


def run_cli(tmp_path, doc, tag):
    cfg = tmp_path / f"{tag}.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / f"{tag}_out"
    code = cli.main([doc["command"], "--config", str(cfg), "--out", str(out)])
    return code, out


@pytest.fixture(scope="module")
def monomial_curve():
    """Example-family risk curve shared by the empirical criteria."""
    profile = mg.monomial_mixture_profile(2, 5)
    t0 = time.monotonic()
    curve = es.risk_curve(profile, [0.0, 1.0, 3.0, 6.0, 10.0], 200000, 20240704)
    return curve, time.monotonic() - t0


def test_a1_minimax_window_verification(tmp_path):
    """Window check: (n=2, k=5) verifies all-HOLDS; (n=3, k=5) fails with a
    large-s witness where the series bound exceeds k = 5."""
    t0 = time.monotonic()
    code_in, out_in = run_cli(tmp_path, {
        "command": "verify",
        "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}},
        "grid_spec": {"lo": 0.05, "hi": 6.0, "n_points": 80, "spacing": "log"},
    }, "a1_in")
    code_out, out_out = run_cli(tmp_path, {
        "command": "verify",
        "prior_spec": {"family": "example1", "k": 5, "params": {"n": 3}},
    }, "a1_out")
    elapsed = time.monotonic() - t0
    doc_in = json.loads((out_in / "verify_report.json").read_text())
    doc_out = json.loads((out_out / "verify_report.json").read_text())
    fails = [r for r in doc_out["reports"]
             if r["condition_id"] == "monomial_mixture_bound"][0]
    ok = (code_in == 0 and doc_in["aggregate"] == "HOLDS"
          and code_out == 4 and fails["verdict"] == "FAILS"
          and fails["witness"] is not None and fails["witness"] > 5.0
          and elapsed < 30.0)
    report("1 minimax window (n=2 holds, n=3 fails large-s)", ok,
           f"witness s={fails['witness']:.1f}, {elapsed:.1f}s")
    assert code_in == 0 and doc_in["aggregate"] == "HOLDS"
    assert code_out == 4 and fails["verdict"] == "FAILS"
    assert fails["witness"] > 5.0
    assert elapsed < 30.0


def test_a2_empirical_minimaxity(monomial_curve):
    """Seeded Monte Carlo risk, n = 2e5 per point: every point at most
    k + 3 stderr and risk at the origin at most 4.9."""
    curve, elapsed = monomial_curve
    worst = max(r.mc_risk - (5.0 + 3.0 * r.mc_stderr) for r in curve)
    at_origin = curve[0].mc_risk
    ok = worst <= 0.0 and at_origin <= 4.9 and elapsed < 300.0
    report("2 empirical minimaxity (example1 n=2, k=5)", ok,
           f"risk(0)={at_origin:.4f}, worst excess={worst:.2e}, {elapsed:.1f}s")
    for r in curve:
        assert r.mc_risk <= 5.0 + 3.0 * r.mc_stderr
    assert at_origin <= 4.9
    assert elapsed < 300.0


def test_a3_sure_mc_coupling(monomial_curve):
    """|mean SURE - mean loss| <= 4 combined stderr on every risk run, and
    the identity baseline sits within 3 stderr of exactly k = 5."""
    curve, _ = monomial_curve
    coupled = all(r.coupled(4.0) for r in curve)
    base = es.mc_risk(mg.flat_profile(5), np.zeros(5), 200000, 20240704)
    base_ok = abs(base.mc_risk - 5.0) <= 3.0 * base.mc_stderr and base.sure_mean == 5.0
    ok = coupled and base_ok
    report("3 SURE/MC coupling + identity baseline", ok,
           f"baseline={base.mc_risk:.4f}+-{base.mc_stderr:.4f}")
    assert coupled
    assert base_ok


def test_a4_dual_route_marginals():
    """Strawderman (a=0.5, k=5): hypergeometric closed-form marginal against
    mixture quadrature at 1e-6, and the two radial-density routes at 1e-7."""
    t0 = time.monotonic()
    a, k = 0.5, 5
    closed = mg.marginal_strawderman(a, k)
    mixture = mg.marginal_mixture(pr.strawderman_mixing(a, k),
                                  tr.QuadSpec(rel_tol=1e-10))
    u = np.array([0.5, 1.0, 2.0, 4.0])
    dev_marginal = float(np.max(np.abs(closed.triple(u)[0] / mixture.triple(u)[0] - 1.0)))
    p_int = pr.strawderman_radial(a, k)
    p_whit = pr.strawderman_radial(a, k, route="whittaker")
    r = np.array([0.5, 1.0, 2.0])
    dev_radial = float(np.max(np.abs(
        np.asarray(p_whit.lam.eval(r)) / np.asarray(p_int.lam.eval(r)) - 1.0)))
    elapsed = time.monotonic() - t0
    ok = dev_marginal <= 1e-6 and dev_radial <= 1e-7 and elapsed < 10.0
    report("4 dual-route Strawderman marginal/density", ok,
           f"marginal dev={dev_marginal:.2e}, radial dev={dev_radial:.2e}, "
           f"{elapsed:.1f}s")
    assert dev_marginal <= 1e-6
    assert dev_radial <= 1e-7
    assert elapsed < 10.0


def test_a5_construction_checker_round_trip():
    """Series/ODE construction with phi = -2/u^2 (b=1, k=5) reproduces the
    exact monomial solutions u^rho to 1e-6 and its profile passes the
    spherical bound checker."""
    t0 = time.monotonic()
    k, b = 5, 1.0
    phi = tr.ScalarFn(eval=lambda u: -2.0 * b / np.asarray(u, float) ** 2,
                      support=(0.0, math.inf))
    sol = pr.construct_spherical(phi, k, c1=1.0, c2=1.0,
                                 u_grid=np.geomspace(0.1, 10.0, 30),
                                 phi_series=[-2.0 * b, 0, 0, 0])
    rho1 = (2.0 - k - math.sqrt((k - 2.0) ** 2 - 4.0 * b)) / 2.0
    rho2 = (2.0 - k + math.sqrt((k - 2.0) ** 2 - 4.0 * b)) / 2.0
    u = np.geomspace(0.1, 5.0, 40)
    dev1 = float(np.max(np.abs(np.asarray(sol.z1.eval(u)) / u ** rho1 - 1.0)))
    dev2 = float(np.max(np.abs(np.asarray(sol.z2.eval(u)) / u ** rho2 - 1.0)))
    rep = cd.check_spherical_minimax_bound(sol.F, k, np.geomspace(0.1, 10.0, 60))
    elapsed = time.monotonic() - t0
    ok = dev1 <= 1e-6 and dev2 <= 1e-6 and rep.verdict == cd.HOLDS and elapsed < 10.0
    report("5 construction/checker round trip (phi=-2/u^2)", ok,
           f"monomial devs=({dev1:.2e}, {dev2:.2e}), verdict={rep.verdict}, "
           f"{elapsed:.1f}s")
    assert dev1 <= 1e-6 and dev2 <= 1e-6
    assert rep.verdict == cd.HOLDS
    assert elapsed < 10.0


def test_a6_whittaker_forward_transform_proportionality():
    """Forward transform of the Whittaker radial density against the profile
    u^gamma e^{u^2/2} on [0.5, 4], at prop_tol = 1e-4.

    The transform integral exists exactly when 1F1(a1; k/2; r^2/2) inside
    the density terminates, i.e. when a1 = (k-1)/4 - gamma/2 is in
    {0, -1, -2, ...}.  lambda is then a polynomial (signed when a1 < 0), the
    weight f(r) = r^{(1-k)/2} e^{-r^2/2} lambda(r) has Gaussian decay, and
    the ratio must be constant to 1e-4: (2,5), (1,3), (3,7) with a1 = 0 and
    (4,5) with a1 = -1, whose ratio is negative.

    Otherwise the integral diverges and the outcome must be an honest
    INCONCLUSIVE with a divergence diagnostic, NaN margins and no ratio:
    (1,5), with a1 = 1/2, where f(r) = r^{-1/2} e^{-r^2/4} M_{3/4,3/4}(r^2/2)
    decays like 3*2^{-5/4} r^{-2} against the e^{ru} growth of the
    sqrt(ru) I_{3/2}(ru) kernel; and (3,5), with a1 = -1/2, where the
    signed density grows the same way and the integrand is still not
    decreasing at the scan horizon.
    """
    grid = [0.5, 1.0, 2.0, 4.0]

    def consistency(gamma, k):
        prior = pr.whittaker_radial(gamma, k)
        target = pr.power_exp_profile(gamma, k)
        return tr.i_transform_consistency(prior.lam, target, (k - 2.0) / 2.0, grid,
                                          tr.QuadSpec(rel_tol=1e-9), prop_tol=1e-4)

    for gamma, k in [(2.0, 5), (1.0, 3), (3.0, 7), (4.0, 5)]:
        rep = consistency(gamma, k)
        dev = rep.extra.get("max_relative_deviation", 1.0)
        ok = rep.verdict == cd.HOLDS and dev <= 1e-4
        report(f"6a Whittaker (gamma={gamma:g}, k={k}) transform proportional", ok,
               f"verdict={rep.verdict}, ratio={rep.extra.get('ratio')}, dev={dev:.2e}")
        assert rep.verdict == cd.HOLDS, (
            f"(gamma={gamma}, k={k}) terminating 1F1 must give a proportional "
            f"transform; extra: {rep.extra}")
        assert rep.extra["max_relative_deviation"] <= 1e-4

    for gamma, k in [(1.0, 5), (3.0, 5)]:
        rep = consistency(gamma, k)
        divergence = rep.extra.get("divergence", "")
        ok = (rep.verdict == cd.INCONCLUSIVE and "u=0.5" in divergence
              and all(math.isnan(m) for m in rep.margins) and "ratio" not in rep.extra)
        report(f"6a Whittaker (gamma={gamma:g}, k={k}) divergence reported", ok,
               divergence or f"verdict={rep.verdict}")
        assert rep.verdict == cd.INCONCLUSIVE
        assert "forward transform diverges at u=0.5" in divergence
        assert len(rep.margins) == len(grid)
        assert all(math.isnan(m) for m in rep.margins)
        assert "ratio" not in rep.extra


def test_a6_gaussian_bessel_pair():
    """The Gaussian-kernel transform pair matches quadrature to 1e-7."""
    k, alpha = 5, 1.0
    nu = (k - 2.0) / 2.0

    def log_f(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return (nu + 0.5) * np.log(x) - alpha * x * x

    f = tr.ScalarFn(eval=lambda x: np.exp(log_f(x)), support=(0.0, math.inf),
                    log_eval=log_f, nonneg=True)
    devs = []
    for y in (0.5, 1.0, 2.0, 4.0):
        got = tr.i_transform(f, nu, y, tr.QuadSpec(rel_tol=1e-10))
        closed = y ** (nu + 0.5) * math.exp(y * y / (4 * alpha)) / (2 * alpha) ** (nu + 1)
        devs.append(abs(got / closed - 1.0))
    worst = max(devs)
    ok = worst <= 1e-7
    report("6b Gaussian-Bessel transform pair", ok, f"worst dev={worst:.2e}")
    assert worst <= 1e-7


def test_a7_identification_sign_invariant():
    """For the monomial family (n=2, k=5) the sign of the radial margin at u
    equals the sign of the Laplace margin at s = u^2/2 at every grid point."""
    n, k = 2, 5
    u = np.geomspace(0.1, 6.0, 60)
    r_rad = cd.check_sqrt_superharmonic(mg.monomial_mixture_profile(n, k), u)
    r_lap = cd.check_laplace_mixture_bound(pr.monomial_laplace_G(n), k, 0.5 * u ** 2)
    match = np.all(np.sign(r_rad.margins) == np.sign(r_lap.margins))
    ok = bool(match)
    report("7 radial/Laplace margin sign identification", ok,
           f"{len(u)} grid points")
    assert match


def test_a8_proper_prior_incompatibility():
    """Proper priors cannot have superharmonic marginals: a positive radial
    Laplacian witness exists for both proper families."""
    grid = np.geomspace(1e-2, 30.0, 200)
    r1 = cd.check_proper_marginal_not_superharmonic(
        mg.monomial_mixture_profile(2, 5), True, grid)
    r2 = cd.check_proper_marginal_not_superharmonic(
        mg.marginal_strawderman(0.5, 5), True, grid)
    ok = r1.extra["witness_found"] and r2.extra["witness_found"]
    report("8 proper prior => positive Laplacian witness", ok,
           f"witnesses at u={r1.witness:.2f} and u={r2.witness:.2f}")
    assert r1.verdict == cd.HOLDS and r1.witness is not None
    assert r2.verdict == cd.HOLDS and r2.witness is not None


def test_a9_special_function_oracles():
    """Half-integer Bessel closed forms at 1e-10; Kummer ODE residual below
    1e-5; Whittaker-M identity exact by construction and cross-checked."""
    worst_bessel = 0.0
    for nu in (0.5, -0.5, 1.5, 2.5):
        for x in np.geomspace(0.1, 30.0, 25):
            x = float(x)
            pref = math.sqrt(2.0 / (math.pi * x))
            if nu == 0.5:
                ref = pref * math.sinh(x)
            elif nu == -0.5:
                ref = pref * math.cosh(x)
            elif nu == 1.5:
                ref = pref * (math.cosh(x) - math.sinh(x) / x)
            else:
                ref = pref * ((3.0 / (x * x) + 1.0) * math.sinh(x) - 3.0 * math.cosh(x) / x)
            worst_bessel = max(worst_bessel, abs(sf.bessel_i(nu, x) / ref - 1.0))

    worst_ode = 0.0
    rng = np.random.default_rng(2024)
    for _ in range(20):
        a = float(rng.uniform(0.2, 3.0))
        b = float(rng.uniform(0.5, 6.0))
        z = float(rng.uniform(-8.0, 2.0))
        h = 1e-4 * max(1.0, abs(z))
        y = lambda t: sf.kummer_1f1(a, b, t)
        y1 = (y(z + h) - y(z - h)) / (2 * h)
        y2 = (y(z + h) - 2 * y(z) + y(z - h)) / (h * h)
        worst_ode = max(worst_ode, abs(z * y2 + (b - z) * y1 - a * y(z)))

    x, mu, z = 0.25, 0.75, 1.0
    direct = (math.exp(-z / 2.0) * z ** (mu + 0.5)
              * sf.kummer_1f1(mu + 0.5 - x, 1.0 + 2.0 * mu, z))
    identity_exact = sf.whittaker_m(x, mu, z) == direct
    a1f1, b1f1 = mu + 0.5 - x, 1.0 + 2.0 * mu
    total, term = 1.0, 1.0
    for j in range(300):
        term *= (a1f1 + j) * z / ((b1f1 + j) * (j + 1.0))
        total += term
    series_ref = math.exp(-z / 2.0) * z ** (mu + 0.5) * total
    cross_dev = abs(sf.whittaker_m(x, mu, z) / series_ref - 1.0)

    ok = worst_bessel <= 1e-10 and worst_ode < 1e-5 and identity_exact and cross_dev <= 1e-10
    report("9 special-function oracles", ok,
           f"bessel={worst_bessel:.2e}, ode={worst_ode:.2e}, whittaker={cross_dev:.2e}")
    assert worst_bessel <= 1e-10
    assert worst_ode < 1e-5
    assert identity_exact
    assert cross_dev <= 1e-10


def test_a10_gen_beta_checkers():
    """Generalized-beta family: (alpha=2, beta=2, gamma=-1, sigma=0.5, k=5)
    passes both the analytic case bound (4 <= 5) and the numerical margin on
    s in [0.1, 50]; the gamma=+1 variant fails the analytic bound (6 > 5)
    while both layers are reported."""
    t0 = time.monotonic()
    s = np.geomspace(0.1, 50.0, 60)
    neg = cd.check_gen_beta_mixture(2.0, 2.0, -1.0, 0.5, 5, s)
    pos = cd.check_gen_beta_mixture(2.0, 2.0, 1.0, 0.5, 5, s)
    elapsed = time.monotonic() - t0
    ok = (neg.verdict == cd.HOLDS and neg.extra["analytic_holds"]
          and not pos.extra["analytic_holds"]
          and pos.extra["analytic_bound_lhs"] == pytest.approx(6.0)
          and pos.verdict in (cd.HOLDS, cd.FAILS, cd.INCONCLUSIVE)
          and elapsed < 60.0)
    report("10 generalized-beta case bounds + numerical margins", ok,
           f"gamma=-1: {neg.verdict}; gamma=+1 analytic bound "
           f"{pos.extra['analytic_bound_lhs']:.0f}>5 with numeric layer "
           f"{pos.verdict}; {elapsed:.1f}s")
    assert neg.verdict == cd.HOLDS
    assert neg.extra["analytic_holds"]
    assert pos.extra["analytic_bound_lhs"] == pytest.approx(6.0)
    assert not pos.extra["analytic_holds"]
    assert elapsed < 60.0
