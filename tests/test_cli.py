"""CLI surface: exit codes, reports, manifests, reproducibility."""

import json
import math
import os

import numpy as np
import pytest

from bayesminimax import cli, transforms


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, doc, extra_args=(), name="cfg.json"):
    cfg = write_config(tmp_path, name, doc)
    out = str(tmp_path / "out")
    code = cli.main([doc["command"], "--config", cfg, "--out", out, *extra_args])
    return code, out


class TestConfigValidation:
    def test_missing_config_file(self, capsys):
        assert cli.main(["verify", "--config", "/nonexistent.json"]) == 2

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli.main(["verify", "--config", str(p)]) == 2

    def test_unknown_family(self, tmp_path):
        code, _ = run(tmp_path, {
            "command": "verify",
            "prior_spec": {"family": "mystery", "k": 5, "params": {}}})
        assert code == 2

    def test_low_dimension(self, tmp_path):
        code, _ = run(tmp_path, {
            "command": "verify",
            "prior_spec": {"family": "example1", "k": 2, "params": {"n": 2}}})
        assert code == 2

    def test_risk_needs_enough_samples(self, tmp_path):
        code, _ = run(tmp_path, {
            "command": "risk",
            "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}},
            "mc": {"n_samples": 10, "seed": 1, "theta_norms": [0.0]}})
        assert code == 2

    def test_negative_theta_norm(self, tmp_path, capsys):
        """A negative |theta| is a config error, not a second row at its
        absolute value under another seed."""
        code, out = run(tmp_path, {
            "command": "risk",
            "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}},
            "mc": {"n_samples": 2000, "seed": 1, "theta_norms": [-3.0, 3.0]}})
        assert code == 2
        assert "theta norms must be finite and >= 0" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "risk_curve.csv"))

    def test_infinite_theta_norm(self, tmp_path, capsys):
        """An infinite |theta| is a config error raised before any batch
        runs, not 2000 failed samples."""
        code, out = run(tmp_path, {
            "command": "risk",
            "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}},
            "mc": {"n_samples": 2000, "seed": 1, "theta_norms": ["inf"]}})
        assert code == 2
        assert "theta norms must be finite and >= 0" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "risk_curve.csv"))

    def test_bad_grid(self, tmp_path):
        code, _ = run(tmp_path, {
            "command": "verify",
            "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}},
            "grid_spec": {"lo": 2.0, "hi": 1.0, "n_points": 10}})
        assert code == 2

    def test_command_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "command": "risk",
            "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}}})
        assert cli.main(["verify", "--config", cfg]) == 2

    def test_malformed_phi_token(self, tmp_path):
        code, _ = run(tmp_path, {
            "command": "construct",
            "prior_spec": {"family": "custom_phi_spherical", "k": 5,
                           "params": {"phi": [{"kind": "cube", "c": -1.0}]}}})
        assert code == 2

    def test_negative_seed(self, tmp_path):
        """A negative seed, in the config or from --seed, is a config error
        (numpy's SeedSequence rejects it)."""
        doc = {"command": "risk",
               "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}},
               "mc": {"n_samples": 1000, "seed": -1, "theta_norms": [0.0]}}
        assert run(tmp_path, doc)[0] == 2
        doc["mc"]["seed"] = 1
        assert run(tmp_path, doc, ["--seed", "-1"])[0] == 2

    def test_tail_cut_below_one(self, tmp_path):
        """tail_cut >= 1 would cut the transform's window inside its mass."""
        code, _ = run(tmp_path, {
            "command": "transform",
            "prior_spec": {"family": "gaussian_bessel", "k": 5, "params": {"alpha": 1.0}},
            "grid_spec": {"lo": 0.5, "hi": 4.0, "n_points": 5},
            "quad": {"tail_cut": 2.0}})
        assert code == 2

    @pytest.mark.parametrize("command,family,params", [
        *((command, family, params) for command in ("verify", "risk")
          for family, params in (("strawderman", 5),
                                 ("strawderman", "ab"),
                                 ("strawderman", {"a": "x"}),
                                 ("example1", [2]),
                                 ("example2", {"alpha": 2.0, "beta": 2.0, "sigma": "x"}),
                                 ("whittaker", {"gamma": "x"}),
                                 ("bessel_F", {"b": 1.0, "A1": "x"}))),
        # risk has no custom-forcing route: only verify reaches these parameters
        ("verify", "custom_phi_mixture", {"phi": [{"kind": "inv", "c": "x"}]}),
        ("verify", "custom_phi_mixture", {"phi": [{"kind": "inv", "c": 4.0}], "b": "x"}),
    ])
    def test_malformed_params(self, tmp_path, command, family, params):
        """params that is not an object, or a parameter that is not a real
        number, is a config error, not a traceback."""
        code, _ = run(tmp_path, {
            "command": command,
            "prior_spec": {"family": family, "k": 5, "params": params},
            "grid_spec": {"lo": 0.5, "hi": 4.0, "n_points": 5},
            "mc": {"n_samples": 1000, "seed": 1, "theta_norms": [0.0]}})
        assert code == 2

    @pytest.mark.parametrize("params,block", [
        (5, {}),
        ({"alpha": "x"}, {}),
        ({"alpha": True}, {}),
        ({"alpha": 1.0}, {"nu": "x"}),
        ({"alpha": 1.0}, {"consistency_target": "power_exp", "gamma": [1.0]}),
    ])
    def test_malformed_transform_params(self, tmp_path, params, block):
        """The transform command reads gaussian_bessel's alpha and its own
        block's numbers itself: a params that is not an object, or a value
        that is not a real number, is a config error, not a traceback."""
        code, out = run(tmp_path, {
            "command": "transform",
            "prior_spec": {"family": "gaussian_bessel", "k": 5, "params": params},
            "transform": block,
            "grid_spec": {"lo": 0.5, "hi": 4.0, "n_points": 5}})
        assert code == 2
        assert not os.path.exists(os.path.join(out, "transform_table.csv"))


VERIFY_GRID = {"lo": 0.05, "hi": 6.0, "n_points": 80, "spacing": "log"}


class TestVerify:
    def test_monomial_inside_window_all_holds(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "verify",
            "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}},
            "grid_spec": VERIFY_GRID})
        assert code == 0
        doc = json.loads(open(os.path.join(out, "verify_report.json")).read())
        assert doc["aggregate"] == "HOLDS"
        assert {r["condition_id"] for r in doc["reports"]} == {
            "monomial_mixture_bound", "laplace_mixture_bound",
            "sqrt_marginal_superharmonic"}

    def test_monomial_outside_window_fails_with_witness(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "verify",
            "prior_spec": {"family": "example1", "k": 5, "params": {"n": 3}}})
        assert code == 4
        doc = json.loads(open(os.path.join(out, "verify_report.json")).read())
        failing = [r for r in doc["reports"]
                   if r["condition_id"] == "monomial_mixture_bound"]
        assert failing[0]["verdict"] == "FAILS"
        assert failing[0]["witness"] is not None

    def test_strawderman_reports_asymptotic_verdicts(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "verify",
            "prior_spec": {"family": "strawderman", "k": 5, "params": {"a": 0.5}},
            "grid_spec": VERIFY_GRID})
        doc = json.loads(open(os.path.join(out, "verify_report.json")).read())
        straw = [r for r in doc["reports"]
                 if r["condition_id"] == "strawderman_sqrt_condition"][0]
        assert "origin_holds" in straw["extra"]
        assert "infinity_holds" in straw["extra"]
        assert code in (0, 5)

    def test_strawderman_high_dimension(self, tmp_path):
        """At k = 120 the marginal near u = 0.01 is ~(2 pi)^{-60}/60.5, far
        below where an incomplete gamma P(k/2 - a + 1, u^2/2) stays a normal
        double; the verdict must not turn on that underflow."""
        code, out = run(tmp_path, {
            "command": "verify",
            "prior_spec": {"family": "strawderman", "k": 120, "params": {"a": 0.5}},
            "grid_spec": {"lo": 0.01, "hi": 40.0, "n_points": 60, "spacing": "log"}})
        assert code == 0
        doc = json.loads(open(os.path.join(out, "verify_report.json")).read())
        assert doc["aggregate"] == "HOLDS"

    def test_whittaker_formal_family(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "verify",
            "prior_spec": {"family": "whittaker", "k": 5, "params": {"gamma": 1.0}},
            "grid_spec": {"lo": 0.1, "hi": 10.0, "n_points": 50}})
        assert code == 0
        doc = json.loads(open(os.path.join(out, "verify_report.json")).read())
        assert doc["aggregate"] == "HOLDS"

    def test_inverse_square_family(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "verify",
            "prior_spec": {"family": "bessel_F", "k": 5,
                           "params": {"b": 1.0, "A1": 1.0, "A2": 1.0}},
            "grid_spec": {"lo": 0.1, "hi": 10.0, "n_points": 50}})
        assert code == 0
        doc = json.loads(open(os.path.join(out, "verify_report.json")).read())
        assert doc["aggregate"] == "HOLDS"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family,params", [
        ("whittaker", {"gamma": 1.0}), ("bessel_F", {"b": 1.0, "A1": 1.0, "A2": 2.0})])
    def test_profile_families_past_the_double_range(self, tmp_path, family, params):
        """F = S^2 u^2 e^{u^2/2} overflows past u ~ 37.7; the checkers read
        its ratios only, so a grid to u = 40 still gets finite margins, and
        the bessel_F margin is its forcing phi(u) = -2b/u^2."""
        code, out = run(tmp_path, {
            "command": "verify",
            "prior_spec": {"family": family, "k": 5, "params": params},
            "grid_spec": {"lo": 0.5, "hi": 40.0, "n_points": 50, "spacing": "linear"}})
        assert code in (0, 4, 5)
        with open(os.path.join(out, "verify_report.json")) as fh:
            doc = json.load(fh)
        for rep in doc["reports"]:
            assert all(math.isfinite(p["margin"]) for p in rep["points"])
        if family == "bessel_F":
            spherical, = [r for r in doc["reports"]
                          if r["condition_id"] == "spherical_transform_profile_bound"]
            u = np.array([p["x"] for p in spherical["points"]])
            assert u[-1] == 40.0
            np.testing.assert_allclose([p["margin"] for p in spherical["points"]],
                                       -2.0 * params["b"] / u ** 2, rtol=1e-9, atol=0)

    def test_custom_mixture_strict_family(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "verify",
            "prior_spec": {"family": "custom_phi_mixture", "k": 5,
                           "params": {"phi": [{"kind": "inv", "c": 4.0}],
                                      "b": "inf"}},
            "grid_spec": {"lo": 0.5, "hi": 6.0, "n_points": 25}})
        assert code == 0

    def test_gen_beta_family(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "verify",
            "prior_spec": {"family": "example2", "k": 5,
                           "params": {"alpha": 2.0, "beta": 2.0,
                                      "gamma": -1.0, "sigma": 0.5}},
            "grid_spec": {"lo": 0.5, "hi": 6.0, "n_points": 25}})
        assert code == 0
        doc = json.loads(open(os.path.join(out, "verify_report.json")).read())
        ids = {r["condition_id"] for r in doc["reports"]}
        assert "gen_beta_mixture_bound" in ids
        assert "sqrt_marginal_superharmonic" in ids


class TestConstruct:
    def test_spherical_inverse_square(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "construct",
            "prior_spec": {"family": "custom_phi_spherical", "k": 5,
                           "params": {"phi": [{"kind": "inv_sq", "c": -2.0}]}},
            "grid_spec": {"lo": 0.1, "hi": 10.0, "n_points": 40}})
        assert code == 0
        doc = json.loads(open(os.path.join(out, "construct_report.json")).read())
        assert doc["condition_report"]["verdict"] == "HOLDS"
        # profile table matches the closed form (default branch is the
        # stronger root, c1 = 1, c2 = 0)
        from bayesminimax.priors import inverse_square_profile

        F = inverse_square_profile(1.0, 5, 1.0, 0.0)
        rows = open(os.path.join(out, "profile_table.csv")).read().strip().splitlines()
        first = rows[1].split(",")
        u0, F0 = float(first[0]), float(first[1])
        assert F0 == pytest.approx(float(np.atleast_1d(F.eval(u0))[0]), rel=1e-6)
        # the strong root has gamma + (k+1)/2 < 0: recovery refused with reason
        assert not doc["recovery"]["available"]
        assert "gamma" in doc["recovery"]["reason"]

    def test_spherical_recovery_on_mild_root(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "construct",
            "prior_spec": {"family": "custom_phi_spherical", "k": 5,
                           "params": {"phi": [{"kind": "inv_sq", "c": -2.0}],
                                      "c1": 0.0, "c2": 1.0}},
            "grid_spec": {"lo": 0.1, "hi": 10.0, "n_points": 40}})
        assert code == 0
        doc = json.loads(open(os.path.join(out, "construct_report.json")).read())
        assert doc["recovery"]["available"]
        gamma = doc["recovery"]["gamma"]
        rho2 = (2.0 - 5.0 + math.sqrt(9.0 - 4.0)) / 2.0
        assert gamma == pytest.approx(2.0 * rho2 + 2.0, rel=1e-12)
        assert doc["recovery"]["proper"] == "improper"
        assert os.path.exists(os.path.join(out, "radial_density_table.csv"))

    def test_mixture_boundary_warns_inconclusive(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "construct",
            "prior_spec": {"family": "custom_phi_mixture", "k": 5,
                           "params": {"phi": [{"kind": "inv", "c": 5.0}],
                                      "a": 1.0, "b": "inf"}},
            "grid_spec": {"lo": 0.5, "hi": 6.0, "n_points": 30}})
        assert code == 0
        doc = json.loads(open(os.path.join(out, "construct_report.json")).read())
        assert doc["condition_report"]["verdict"] == "INCONCLUSIVE"
        assert doc["warnings"]
        assert "proper" in doc["warnings"][0]

    def test_bound_violation_is_construction_error(self, tmp_path):
        code, _ = run(tmp_path, {
            "command": "construct",
            "prior_spec": {"family": "custom_phi_mixture", "k": 5,
                           "params": {"phi": [{"kind": "inv", "c": 20.0}],
                                      "b": "inf"}}})
        assert code == 3

    def test_positive_phi_is_construction_error(self, tmp_path):
        code, _ = run(tmp_path, {
            "command": "construct",
            "prior_spec": {"family": "custom_phi_spherical", "k": 5,
                           "params": {"phi": [{"kind": "const", "c": 1.0}]}}})
        assert code == 3

    def test_wrong_family_rejected(self, tmp_path):
        code, _ = run(tmp_path, {
            "command": "construct",
            "prior_spec": {"family": "strawderman", "k": 5, "params": {"a": 0.5}}})
        assert code == 2


class TestRisk:
    def test_monomial_curve(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "risk",
            "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}},
            "mc": {"n_samples": 5000, "seed": 11, "theta_norms": [0.0, 3.0]}})
        assert code == 0
        text = open(os.path.join(out, "risk_curve.csv")).read()
        assert text.splitlines()[0] == ("theta_norm,n,seed,mc_risk,mc_stderr,"
                                        "sure_mean,sure_stderr,k")
        long_text = open(os.path.join(out, "risk_long.csv")).read()
        assert "sure_mean" in long_text

    def test_identity_baseline(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "risk",
            "prior_spec": {"family": "flat", "k": 5, "params": {}},
            "mc": {"n_samples": 20000, "seed": 4, "theta_norms": [0.0, 2.0]}})
        assert code == 0
        doc = json.loads(open(os.path.join(out, "risk_report.json")).read())
        for rec in doc:
            assert abs(rec["mc_risk"] - 5.0) <= 3.0 * rec["mc_stderr"]
            assert rec["sure_mean"] == 5.0

    def test_seed_repetition_bit_identical(self, tmp_path):
        doc = {
            "command": "risk",
            "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}},
            "mc": {"n_samples": 2000, "seed": 123, "theta_norms": [0.0, 1.0]}}
        cfg = write_config(tmp_path, "r.json", doc)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert cli.main(["risk", "--config", cfg, "--out", out1]) == 0
        assert cli.main(["risk", "--config", cfg, "--out", out2]) == 0
        csv1 = open(os.path.join(out1, "risk_curve.csv")).read()
        csv2 = open(os.path.join(out2, "risk_curve.csv")).read()
        assert csv1 == csv2

    def test_strawderman_high_dimension(self, tmp_path):
        """At k = 300 the samples sit near u^2/2 ~ 150, where Gamma(b) and
        s^b (b ~ 150) leave double range; the risk stays finite and below k."""
        k = 300
        code, out = run(tmp_path, {
            "command": "risk",
            "prior_spec": {"family": "strawderman", "k": k, "params": {"a": 0.5}},
            "mc": {"n_samples": 2000, "seed": 3, "theta_norms": [0.0, 30.0]}})
        assert code == 0
        doc = json.loads(open(os.path.join(out, "risk_report.json")).read())
        for rec in doc:
            assert math.isfinite(rec["mc_risk"]) and rec["mc_risk"] < k

    def test_strawderman_k400_far_from_origin(self, tmp_path):
        """At k = 400, |theta| = 30 the samples sit near u = 36, where l
        underflows to 0; the rule reads only l'/l and l''/l, so no sample
        fails."""
        code, out = run(tmp_path, {
            "command": "risk",
            "prior_spec": {"family": "strawderman", "k": 400, "params": {"a": 0.5}},
            "mc": {"n_samples": 4000, "seed": 7, "theta_norms": [0.0, 30.0]}})
        assert code == 0
        doc = json.loads(open(os.path.join(out, "risk_report.json")).read())
        assert [rec["n_failures"] for rec in doc] == [0, 0]

    def test_strawderman_k1500_closed_form(self, tmp_path):
        """At k = 1500 the closed-form G underflows from u ~ 39, where the
        samples sit; its ratios stay in range, so no sample fails."""
        code, out = run(tmp_path, {
            "command": "risk",
            "prior_spec": {"family": "strawderman", "k": 1500, "params": {"a": 0.5}},
            "mc": {"n_samples": 4096, "seed": 7, "theta_norms": [0.0, 30.0]}})
        assert code == 0
        doc = json.loads(open(os.path.join(out, "risk_report.json")).read())
        assert [rec["n_failures"] for rec in doc] == [0, 0]

    def test_exceedance_exit_code(self, tmp_path):
        """An expanding formal rule (growing profile) exceeds k + 3 stderr."""
        code, out = run(tmp_path, {
            "command": "risk",
            "prior_spec": {"family": "whittaker", "k": 5, "params": {"gamma": 3.0}},
            "mc": {"n_samples": 20000, "seed": 2, "theta_norms": [0.0]}})
        assert code == 6

    def test_seed_override(self, tmp_path):
        doc = {
            "command": "risk",
            "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}},
            "mc": {"n_samples": 2000, "seed": 123, "theta_norms": [0.0]}}
        cfg = write_config(tmp_path, "r.json", doc)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        cli.main(["risk", "--config", cfg, "--out", out1, "--seed", "9"])
        cli.main(["risk", "--config", cfg, "--out", out2, "--seed", "10"])
        assert (open(os.path.join(out1, "risk_curve.csv")).read()
                != open(os.path.join(out2, "risk_curve.csv")).read())


class TestTransform:
    def test_gaussian_pair_table_matches_closed_form(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "transform",
            "prior_spec": {"family": "gaussian_bessel", "k": 5,
                           "params": {"alpha": 1.0}},
            "grid_spec": {"lo": 0.5, "hi": 3.0, "n_points": 6}})
        assert code == 0
        rows = open(os.path.join(out, "transform_table.csv")).read().strip().splitlines()[1:]
        nu = 1.5
        for row in rows:
            y, val = (float(c) for c in row.split(","))
            closed = y ** (nu + 0.5) * math.exp(y * y / 4.0) / 2.0 ** (nu + 1.0)
            assert val == pytest.approx(closed, rel=1e-7)

    def test_zero_function(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "transform",
            "prior_spec": {"family": "zero", "k": 5, "params": {}},
            "grid_spec": {"lo": 0.5, "hi": 2.0, "n_points": 4}})
        assert code == 0
        rows = open(os.path.join(out, "transform_table.csv")).read().strip().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_k_kind_table(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "transform",
            "prior_spec": {"family": "gaussian_bessel", "k": 5,
                           "params": {"alpha": 0.5}},
            "transform": {"kind": "k", "nu": 0.5},
            "grid_spec": {"lo": 0.8, "hi": 2.0, "n_points": 3}})
        assert code == 0
        rows = open(os.path.join(out, "transform_table.csv")).read().strip().splitlines()[1:]
        vals = [float(r.split(",")[1]) for r in rows]
        assert all(v > 0 for v in vals)
        assert vals[0] > vals[-1]  # K-kernel damping grows with y

    def test_k_kind_with_consistency_target_rejected(self, tmp_path):
        """The consistency check judges the tabulated values, which are an
        I-transform only for kind i."""
        code, out = run(tmp_path, {
            "command": "transform",
            "prior_spec": {"family": "gaussian_bessel", "k": 5,
                           "params": {"alpha": 0.5}},
            "transform": {"kind": "k", "nu": 0.5, "consistency_target": "power_exp"},
            "grid_spec": {"lo": 0.8, "hi": 2.0, "n_points": 3}})
        assert code == 2
        assert not os.path.exists(os.path.join(out, "transform_table.csv"))

    def test_whittaker_family_diverges(self, tmp_path):
        """The Whittaker radial density grows like e^{r^2/2}: its forward
        transform weight decays only polynomially, so the transform is
        detected as divergent (exit 3)."""
        code, _ = run(tmp_path, {
            "command": "transform",
            "prior_spec": {"family": "whittaker", "k": 5, "params": {"gamma": 1.0}},
            "grid_spec": {"lo": 0.5, "hi": 4.0, "n_points": 5}})
        assert code == 3

    def test_whittaker_terminating_member_consistent(self, tmp_path):
        """gamma=4, k=5: 1F1(-1; 5/2; r^2/2) terminates, the signed transform
        weight has Gaussian decay, and the transform is proportional to
        u^4 e^{u^2/2} with a negative ratio."""
        code, out = run(tmp_path, {
            "command": "transform",
            "prior_spec": {"family": "whittaker", "k": 5, "params": {"gamma": 4.0}},
            "transform": {"consistency_target": "power_exp", "prop_tol": 1e-4},
            "grid_spec": {"lo": 0.5, "hi": 4.0, "n_points": 4},
            "quad": {"rel_tol": 1e-9}})
        assert code == 0
        doc = json.loads(open(os.path.join(out, "consistency_report.json")).read())
        assert doc["verdict"] == "HOLDS"
        assert doc["extra"]["ratio"] < 0

    def test_nu_override_consistency(self, tmp_path):
        """With nu = 1/2 the Gaussian-Bessel pair maps x e^{-x^2/2} onto
        u e^{u^2/2} whatever the config's k: the consistency check must judge
        the tabulated f, not f rescaled by r^{(k - 2 nu - 2)/2}."""
        code, out = run(tmp_path, {
            "command": "transform",
            "prior_spec": {"family": "gaussian_bessel", "k": 5,
                           "params": {"alpha": 0.5}},
            "transform": {"nu": 0.5, "consistency_target": "power_exp",
                          "gamma": 1.0},
            "grid_spec": {"lo": 0.5, "hi": 4.0, "n_points": 4}})
        assert code == 0
        doc = json.loads(open(os.path.join(out, "consistency_report.json")).read())
        assert doc["verdict"] == "HOLDS"

    def test_strawderman_consistency_run(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "transform",
            "prior_spec": {"family": "strawderman", "k": 5, "params": {"a": 0.5}},
            "transform": {"consistency_target": "ell_over_h", "prop_tol": 1e-4},
            "grid_spec": {"lo": 0.5, "hi": 4.0, "n_points": 4},
            "quad": {"rel_tol": 1e-9}})
        assert code == 0
        doc = json.loads(open(os.path.join(out, "consistency_report.json")).read())
        assert doc["verdict"] == "HOLDS"

    def test_consistency_transforms_the_grid_once(self, tmp_path, monkeypatch):
        """The consistency check judges the tabulated values: one batched
        transform call for the table and the check together."""
        calls = []
        orig = transforms.i_transform

        def counted(*args, **kwargs):
            calls.append(args[2])
            return orig(*args, **kwargs)

        monkeypatch.setattr(transforms, "i_transform", counted)
        code, out = run(tmp_path, {
            "command": "transform",
            "prior_spec": {"family": "strawderman", "k": 5, "params": {"a": 0.5}},
            "transform": {"consistency_target": "ell_over_h", "prop_tol": 1e-4},
            "grid_spec": {"lo": 0.5, "hi": 4.0, "n_points": 4},
            "quad": {"rel_tol": 1e-9}})
        assert code == 0
        assert len(calls) == 1 and len(calls[0]) == 4


class TestSampleConfigs:
    SAMPLES = os.path.join(os.path.dirname(__file__), "..", "sample_configs")

    def test_all_samples_parse(self):
        import argparse

        for name in sorted(os.listdir(self.SAMPLES)):
            path = os.path.join(self.SAMPLES, name)
            doc = json.load(open(path))
            args = argparse.Namespace(command=doc["command"], out=None,
                                      seed=None, grid=None)
            cfg = cli.load_config(path, args)
            assert cfg.command == doc["command"]

    @pytest.mark.parametrize("name,code", [
        ("verify_monomial.json", 0),
        ("construct_spherical.json", 0),
        ("construct_mixture_boundary.json", 0),
        ("transform_gaussian.json", 0),
    ])
    def test_fast_samples_run(self, tmp_path, name, code):
        path = os.path.join(self.SAMPLES, name)
        doc = json.load(open(path))
        got = cli.main([doc["command"], "--config", path,
                        "--out", str(tmp_path / "out")])
        assert got == code


class TestManifest:
    def test_manifest_written_and_complete(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "verify",
            "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}},
            "grid_spec": VERIFY_GRID})
        man = json.loads(open(os.path.join(out, "manifest.json")).read())
        assert man["tool"] == "bayesminimax"
        assert man["exit_code"] == code
        rc = man["resolved_config"]
        assert rc["quad"]["rel_tol"] == 1e-8
        assert rc["mc"]["seed"] == 20240704

    def test_quad_block_is_the_quad_spec(self, tmp_path):
        """The manifest's quad block holds every QuadSpec field and nothing
        else; a key QuadSpec does not have, such as max_depth, is ignored."""
        code, out = run(tmp_path, {
            "command": "verify",
            "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}},
            "grid_spec": VERIFY_GRID, "quad": {"abs_tol": 1e-12, "max_depth": 3}})
        man = json.loads(open(os.path.join(out, "manifest.json")).read())
        assert man["resolved_config"]["quad"] == {"rel_tol": 1e-8, "abs_tol": 1e-12,
                                                  "tail_cut": 1e-14}

    def test_manifest_reproducible(self, tmp_path):
        doc = {"command": "verify",
               "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}},
               "grid_spec": VERIFY_GRID}
        cfg = write_config(tmp_path, "m.json", doc)
        out1, out2 = str(tmp_path / "m1"), str(tmp_path / "m2")
        cli.main(["verify", "--config", cfg, "--out", out1])
        cli.main(["verify", "--config", cfg, "--out", out2])
        m1 = open(os.path.join(out1, "manifest.json")).read()
        m2 = open(os.path.join(out2, "manifest.json")).read().replace(out2, out1)
        assert m1.replace(out1, "") == m2.replace(out1, "")

    def test_env_override_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOOL_QUAD_RELTOL", "1e-6")
        code, out = run(tmp_path, {
            "command": "verify",
            "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}},
            "grid_spec": VERIFY_GRID})
        man = json.loads(open(os.path.join(out, "manifest.json")).read())
        assert man["resolved_config"]["quad"]["rel_tol"] == 1e-6
        assert man["resolved_config"]["env_overrides"]["TOOL_QUAD_RELTOL"] == "1e-6"

    def test_grid_override(self, tmp_path):
        code, out = run(tmp_path, {
            "command": "verify",
            "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}}},
            extra_args=["--grid", "0.05,6.0,50,log"])
        man = json.loads(open(os.path.join(out, "manifest.json")).read())
        assert man["resolved_config"]["grid_spec"]["n_points"] == 50
        assert code == 0
