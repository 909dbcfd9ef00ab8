"""Family wiring as the CLI sees it: for one valid parameter set per family,
the ordered list of verify reports, their formal-marginal flags and the exit
code; and the commands a family cannot serve."""

import json
import os

import numpy as np
import pytest

from bayesminimax import cli, families, priors
from bayesminimax.errors import DomainError
from bayesminimax.transforms import QuadSpec

SHORT_GRID = {"lo": 0.5, "hi": 6.0, "n_points": 12}

SQRT = "sqrt_marginal_superharmonic"
SPHERICAL = "spherical_transform_profile_bound"

# family -> (params, [(condition_id, verdict, formal_marginal flag)], exit code)
VERIFY_PINS = {
    "strawderman": ({"a": 0.5}, [
        ("strawderman_sqrt_condition", "HOLDS", None), (SQRT, "HOLDS", None)], 0),
    "example1": ({"n": 2}, [
        ("monomial_mixture_bound", "HOLDS", None), ("laplace_mixture_bound", "HOLDS", None),
        (SQRT, "HOLDS", None)], 0),
    "example2": ({"alpha": 2.0, "beta": 2.0, "gamma": -1.0, "sigma": 0.5}, [
        ("gen_beta_mixture_bound", "HOLDS", None), (SQRT, "HOLDS", None)], 0),
    "whittaker": ({"gamma": 1.0}, [
        (SPHERICAL, "HOLDS", None), (SQRT, "HOLDS", True)], 0),
    "bessel_F": ({"b": 1.0, "A1": 1.0, "A2": 1.0}, [
        (SPHERICAL, "HOLDS", None), (SQRT, "HOLDS", True)], 0),
    "custom_phi_spherical": (
        {"phi": [{"kind": "inv_sq", "c": -2.0}], "c1": 0.0, "c2": 1.0}, [
            (SPHERICAL, "HOLDS", None), (SQRT, "HOLDS", True)], 0),
    "custom_phi_mixture": ({"phi": [{"kind": "inv", "c": 4.0}], "b": "inf"}, [
        ("laplace_mixture_bound", "HOLDS", None), (SQRT, "HOLDS", None)], 0),
    "flat": ({}, [(SQRT, "INCONCLUSIVE", None)], 5),
}


def run(tmp_path, doc):
    cfg = tmp_path / f"{doc['command']}.json"
    cfg.write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    return cli.main([doc["command"], "--config", str(cfg), "--out", out]), out


def known_families():
    """The family list as the unknown-family error states it."""
    with pytest.raises(DomainError) as exc:
        priors.prior_from_spec({"family": None, "k": 5, "params": {}})
    return str(exc.value).split("known families: ")[1].split(", ")


def test_every_known_family_is_pinned():
    assert sorted(known_families()) == sorted(VERIFY_PINS)


@pytest.mark.parametrize("family", sorted(VERIFY_PINS))
def test_verify_report_order_and_flags(tmp_path, family):
    params, expected, exit_code = VERIFY_PINS[family]
    code, out = run(tmp_path, {
        "command": "verify", "grid_spec": SHORT_GRID,
        "prior_spec": {"family": family, "k": 5, "params": params}})
    doc = json.loads(open(os.path.join(out, "verify_report.json")).read())
    got = [(r["condition_id"], r["verdict"], r["extra"].get("formal_marginal"))
           for r in doc["reports"]]
    assert got == expected
    assert code == exit_code


@pytest.mark.parametrize("family", ["custom_phi_spherical", "custom_phi_mixture"])
def test_risk_rejects_construct_only_families(tmp_path, capsys, family):
    code, _ = run(tmp_path, {
        "command": "risk",
        "prior_spec": {"family": family, "k": 5, "params": VERIFY_PINS[family][0]},
        "mc": {"n_samples": 1000, "seed": 1, "theta_norms": [0.0]}})
    assert code == 2
    assert "has no direct marginal profile; use the construct command" in (
        capsys.readouterr().err)


def test_transform_rejects_family_without_radial_prior(tmp_path, capsys):
    code, _ = run(tmp_path, {
        "command": "transform",
        "prior_spec": {"family": "example1", "k": 5, "params": {"n": 2}},
        "grid_spec": {"lo": 0.5, "hi": 3.0, "n_points": 4}})
    assert code == 2
    assert "transform input not defined for family 'example1'" in capsys.readouterr().err


@pytest.mark.parametrize("block, params, gamma", [
    ({"gamma": 2.0}, {"gamma": 0.5}, 2.0), ({}, {"gamma": 0.5}, 0.5), ({}, {}, 1.0)])
def test_power_exp_target_gamma_precedence(block, params, gamma):
    """The power_exp target takes gamma from the transform block, else from
    the prior's params, else 1."""
    doc = {"family": "whittaker", "k": 5, "params": params}
    got = families.consistency_target(doc, 5, block, QuadSpec(), "power_exp")
    u = np.array([0.5, 2.0])
    np.testing.assert_array_equal(got.eval(u), priors.power_exp_profile(gamma, 5).eval(u))
