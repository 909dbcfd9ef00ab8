"""The prior families the commands accept by name, one table row each.

A row of ``FAMILIES`` owns all the commands need about its family; its
functions take the dimension k and the parameters p first.  ``check`` says
what p lacks (after the row's ``defaults`` fill in), ``profile`` builds the
marginal l(u), ``checkers`` runs the family's own conditions on the u grid
and ``radial`` gives the radial prior the transform command takes.  The
custom forcings also ``construct`` what verify and construct start from
(the spherical solution or the mixture transform G, passed on as ``made``).

Rows reach ``priors``, ``marginals`` and ``conditions`` through their module
attributes at call time, so patching those attributes sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from . import conditions, marginals, priors
from .errors import DomainError
from .transforms import QuadSpec, ScalarFn


@dataclass
class FamilySpec:
    """Validated prior-family specification from a JSON document."""
    family: str
    k: int
    params: Dict


@dataclass(frozen=True)
class Family:
    """One row of the family table (see the module docstring)."""
    check: Callable                        # (k, p) -> None or what is required
    profile: Callable                      # (k, p, quad, made) -> MarginalProfile
    checkers: Callable                     # (k, p, u, quad, made) -> [ConditionReport]
    defaults: Dict = field(default_factory=dict)
    construct: Optional[Callable] = None   # (k, p, u, quad) -> (made, record)
    radial: Optional[Callable] = None      # (k, p, quad) -> RadialPrior


_TOKEN_KINDS = ("inv_sq", "inv", "const", "lin")


def parse_phi_tokens(tokens) -> tuple:
    """Parse [{"kind": "inv_sq"|"inv"|"const"|"lin", "c": float}, ...] into a
    ScalarFn phi(x) = b0/x^2 + b1/x + b2 + b3 x and its coefficient list."""
    if not isinstance(tokens, list) or not tokens:
        raise DomainError("phi must be a nonempty token list")
    b = [0.0, 0.0, 0.0, 0.0]
    for tok in tokens:
        if not isinstance(tok, dict) or "kind" not in tok or "c" not in tok:
            raise DomainError(f"malformed phi token {tok!r}: needs kind and c")
        kind = tok["kind"]
        if kind not in _TOKEN_KINDS:
            raise DomainError(f"unknown phi token kind {kind!r}; "
                              f"supported: {_TOKEN_KINDS}")
        b[_TOKEN_KINDS.index(kind)] += float(tok["c"])

    def phi(x):
        x = np.asarray(x, dtype=float)
        return b[0] / (x * x) + b[1] / x + b[2] + b[3] * x

    return ScalarFn(eval=phi, support=(0.0, math.inf), label="phi_tokens"), b


def _construct_spherical(k, p, u, quad):
    phi, b = parse_phi_tokens(p["phi"])
    sol = priors.construct_spherical(phi, k, c1=p.get("c1", 1.0), c2=p.get("c2", 0.0),
                                     u_grid=u, phi_series=b)
    return sol, {"rho1": sol.rho1, "rho2": sol.rho2, "b_coeffs": sol.b_coeffs}


def _construct_mixture(k, p, u, quad):
    phi, b = parse_phi_tokens(p["phi"])
    a, anchor = p.get("a", 1.0), p.get("b", "inf")
    if isinstance(anchor, str) and anchor.lower() in ("inf", "+inf", "infinity"):
        anchor = math.inf
    anchor = float(anchor)
    G = priors.construct_G_mixture(phi, a=a, b=anchor, quad=quad, k=k)
    return G, {"b_coeffs": b, "a": a, "anchor_b": repr(anchor)}


def _num(p, name):
    """p[name], or NaN (which fails every range check) when it is missing."""
    return math.nan if p.get(name) is None else p[name]


def _check_phi(k, p):
    return None if isinstance(p.get("phi"), list) else "a phi token list under params"


def _check_gen_beta(k, p):
    for name in ("alpha", "beta", "sigma"):
        if name not in p:
            return f"parameter {name!r}"
    priors.gen_beta_kernel(*_gen_beta(p))  # validates ranges


def _gen_beta(p):
    return p["alpha"], p["beta"], p["gamma"], p["sigma"]


FAMILIES: Dict[str, Family] = {
    "strawderman": Family(
        check=lambda k, p: None if 0.0 <= _num(p, "a") < 1.0 else "parameter a in [0, 1)",
        profile=lambda k, p, q, m: marginals.marginal_strawderman(p["a"], k),
        checkers=lambda k, p, u, q, m: [conditions.check_strawderman_sqrt(p["a"], k, u)],
        radial=lambda k, p, q: priors.strawderman_radial(p["a"], k, q)),
    "example1": Family(
        check=lambda k, p: (None if isinstance(p.get("n"), int) and p["n"] >= 0
                            else "a nonnegative integer n"),
        profile=lambda k, p, q, m: marginals.monomial_mixture_profile(p["n"], k),
        checkers=lambda k, p, u, q, m: [
            conditions.check_monomial_mixture(p["n"], k, 0.5 * u ** 2),
            conditions.check_laplace_mixture_bound(
                priors.monomial_laplace_G(p["n"]), k, 0.5 * u ** 2)]),
    "example2": Family(
        check=_check_gen_beta, defaults={"gamma": 0.0},
        profile=lambda k, p, q, m: marginals.marginal_mixture(
            priors.gen_beta_mixing(*_gen_beta(p), k, q), q),
        checkers=lambda k, p, u, q, m: [
            conditions.check_gen_beta_mixture(*_gen_beta(p), k, 0.5 * u ** 2, q)]),
    "whittaker": Family(
        check=lambda k, p: (None if _num(p, "gamma") + (k + 1.0) / 2.0 > 0
                            else "gamma with gamma + (k+1)/2 > 0"),
        # formal transform identity: l proportional to u^{gamma + (1-k)/2}
        profile=lambda k, p, q, m: marginals.power_law_profile(
            k, p["gamma"] + (1.0 - k) / 2.0),
        checkers=lambda k, p, u, q, m: [conditions.check_spherical_minimax_bound(
            priors.power_exp_profile(p["gamma"], k), k, u)],
        radial=lambda k, p, q: priors.whittaker_radial(p["gamma"], k)),
    "bessel_F": Family(
        check=lambda k, p: (None if 0.0 <= _num(p, "b") <= (k - 2.0) ** 2 / 4.0
                            else "0 <= b <= (k-2)^2/4"),
        defaults={"A1": 1.0, "A2": 0.0},
        # h(u) F(u) for the inverse-square family: the Gaussian factors cancel
        profile=lambda k, p, q, m: marginals.squared_profile(
            k, priors.monomial_pair(p["b"], k, p["A1"], p["A2"]), "formal_power_law",
            {"formal": True}),
        checkers=lambda k, p, u, q, m: [conditions.check_spherical_minimax_bound(
            priors.inverse_square_profile(p["b"], k, p["A1"], p["A2"]), k, u)]),
    "custom_phi_spherical": Family(
        check=_check_phi, construct=_construct_spherical,
        profile=lambda k, p, q, sol: marginals.squared_profile(
            k, sol.S_triple, "formal_power_law"),
        checkers=lambda k, p, u, q, sol: [
            conditions.check_spherical_minimax_bound(sol.F, k, u)]),
    "custom_phi_mixture": Family(
        check=_check_phi, construct=_construct_mixture,
        profile=lambda k, p, q, G: marginals.laplace_profile(
            G, k, "constructed_mixture", 0.0),
        checkers=lambda k, p, u, q, G: [
            conditions.check_laplace_mixture_bound(G, k, 0.5 * u ** 2)]),
    "flat": Family(
        check=lambda k, p: None,
        profile=lambda k, p, q, m: marginals.flat_profile(k),
        checkers=lambda k, p, u, q, m: []),
}

KNOWN_FAMILIES = tuple(FAMILIES)


def prior_from_spec(doc: dict) -> FamilySpec:
    """Validate {"family": ..., "k": ..., "params": {...}} against the table.

    Unknown families are rejected with the list of known ones.
    """
    if not isinstance(doc, dict):
        raise DomainError("prior spec must be a JSON object")
    family = doc.get("family")
    if family not in KNOWN_FAMILIES:
        raise DomainError(
            f"unknown prior family {family!r}; known families: "
            + ", ".join(KNOWN_FAMILIES))
    k = doc.get("k")
    if not isinstance(k, int) or k < 3:
        raise DomainError(f"k must be an integer >= 3, got {k!r}")
    row = FAMILIES[family]
    params = dict(doc.get("params") or {})
    for name, value in row.defaults.items():
        params.setdefault(name, value)
    problem = row.check(k, params)
    if problem:
        raise DomainError(f"{family} requires {problem}")
    return FamilySpec(family=family, k=k, params=params)


def profile_for(spec: FamilySpec, quad: QuadSpec) -> marginals.MarginalProfile:
    """Marginal profile used for risk simulation and the transform targets."""
    row = FAMILIES[spec.family]
    if row.construct is not None:
        raise DomainError(f"family {spec.family!r} has no direct marginal profile; "
                          "use the construct command")
    return row.profile(spec.k, spec.params, quad, None)


def checkers_for(spec: FamilySpec, u, quad: QuadSpec) -> List[conditions.ConditionReport]:
    """The family's own reports, then sqrt-marginal superharmonicity of its
    profile, flagged ``formal_marginal`` where that profile is a formal power law."""
    row, k, p = FAMILIES[spec.family], spec.k, spec.params
    made = row.construct(k, p, u, quad)[0] if row.construct else None
    reports = row.checkers(k, p, u, quad, made)
    profile = row.profile(k, p, quad, made)
    sqrt = conditions.check_sqrt_superharmonic(profile, u)
    if profile.route == "formal_power_law":
        sqrt.extra["formal_marginal"] = True
    return reports + [sqrt]


def construct(spec: FamilySpec, u, quad: QuadSpec):
    """(construction, its condition report, record) of a custom forcing."""
    row, k, p = FAMILIES[spec.family], spec.k, spec.params
    if row.construct is None:
        raise DomainError("construct requires family " + " or ".join(
            name for name, r in FAMILIES.items() if r.construct))
    made, record = row.construct(k, p, u, quad)
    report, = row.checkers(k, p, u, quad, made)
    return made, report, record


def radial_prior(spec: FamilySpec, quad: QuadSpec) -> priors.RadialPrior:
    """The radial prior of a family, as the transform command takes it."""
    row = FAMILIES[spec.family]
    if row.radial is None:
        raise DomainError(f"transform input not defined for family {spec.family!r}")
    return row.radial(spec.k, spec.params, quad)
