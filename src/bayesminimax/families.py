"""The prior families the commands accept by name, one table row each.

A row of ``FAMILIES`` owns all the commands need about its family; its
functions take the dimension k and the parameters p first.  ``check`` says
what p lacks (after the row's ``defaults`` fill in), ``profile`` builds the
marginal l(u), ``checkers`` runs the family's own conditions on the u grid
and ``radial`` gives the radial prior the transform command takes.  The
custom forcings also ``construct`` what verify and construct start from
(the spherical solution or the mixture transform G, passed on as ``made``)
and ``recover`` from it the construct command's tables and, where the
forcing allows, the prior in closed form.  Every decision that depends on a
family or a construction route is made here, including the transform
command's input and consistency target; ``cli`` writes what it is handed,
in the file formats it owns.

Rows reach ``priors``, ``marginals`` and ``conditions`` through their module
attributes at call time, so patching those attributes sees every call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from . import conditions, marginals, priors, transforms
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
    recover: Optional[Callable] = None     # (k, u, made, record) -> (tables, report fields)
    radial: Optional[Callable] = None      # (k, p, quad) -> RadialPrior


_TOKEN_KINDS = ("inv_sq", "inv", "const", "lin")
_INF_NAMES = ("inf", "+inf", "infinity")   # the mixture anchor b's infinite spellings


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
        if math.isnan(_num(tok, "c")):
            raise DomainError(f"phi token coefficient c must be a real number, got {tok['c']!r}")
        b[_TOKEN_KINDS.index(kind)] += tok["c"]

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
    anchor = math.inf if str(anchor).lower() in _INF_NAMES else float(anchor)
    G = priors.construct_G_mixture(phi, a=a, b=anchor, quad=quad, k=k)
    return G, {"b_coeffs": b, "a": a, "anchor_b": repr(anchor)}


def _recover_spherical(k, u, sol, record):
    """The profile table and, for a pure inverse-square forcing b0/u^2 < 0
    with one root's solution alone, the Whittaker radial density of
    F = u^gamma e^{u^2/2}, gamma = 2 rho + (k-1)/2."""
    tables = [("profile_table.csv", ("u", "F", "dF", "d2F", "z1", "z2"),
               (u, *sol.F.triple(u), sol.z1.eval(u), sol.z2.eval(u)))]
    recovery = {"available": False,
                "reason": "closed-form recovery only for the pure "
                          "inverse-square forcing with a single root"}
    b = record["b_coeffs"]
    rho = sol.rho1 if sol.c2 == 0.0 else sol.rho2 if sol.c1 == 0.0 else None
    if b[1] == b[2] == b[3] == 0.0 and b[0] < 0.0 and rho is not None:
        gamma = 2.0 * rho + (k - 1.0) / 2.0
        if gamma + (k + 1.0) / 2.0 > 0:
            lam = priors.whittaker_radial(gamma, k)
            tables.append(("radial_density_table.csv", ("r", "lambda_unnormalized"),
                           (u, lam.lam.eval(u))))
            recovery = {"available": True, "gamma": gamma, "proper": lam.proper,
                        "note": "defined up to positive scale"}
        else:
            recovery = {"available": False,
                        "reason": f"gamma={gamma:.6g} violates gamma + (k+1)/2 > 0"}
    return tables, {"recovery": recovery,
                    "properness": {"proper": recovery.get("proper", "unknown")}, "warnings": []}


def _recover_mixture(k, u, G, record):
    """The transform table of G on s = u^2/2 and, for the boundary forcing
    phi(s) = k/s, the mixing density (v+1)^{1-k/2}."""
    s = 0.5 * u ** 2
    tables = [("transform_table.csv", ("s", "G", "dG", "d2G"), (s, *G.triple(s)))]
    recovery = {"available": False,
                "reason": "numerical inverse Laplace transforms are out of scope; "
                          "only the boundary family has a closed-form kernel"}
    warnings = []
    b = record["b_coeffs"]
    if b[0] == b[2] == b[3] == 0.0 and abs(b[1] - k) < 1e-12:
        warnings.append(
            "boundary forcing phi(s) = k/s: margins sit at zero and the "
            "matching kernel is supported on all of (0, inf), so this "
            "cannot arise from a proper mixture; the associated mixing "
            "density (v+1)^{1-k/2} is recovered by the classical "
            "identification and is itself proper and minimax")
        tables.append(("mixing_density_table.csv", ("v", "h"),
                       (u, priors.monomial_mixing(k - 3, k).h.eval(u))))
        recovery = {"available": True, "form": "(v+1)^{1-k/2}",
                    "caveat": "formal inverse: kernel not (0,1)-supported"}
    return tables, {"recovery": recovery, "properness": {"proper": "see recovery"},
                    "warnings": warnings}


def _num(p, name):
    """p[name], or NaN (which fails every range check) when it is missing or
    not a real number."""
    value = p.get(name)
    return value if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan


def real_param(p: dict, name: str, default: float) -> float:
    """p[name] as a float, or the default where it is absent; a value that
    _num reads as NaN is a DomainError."""
    value = _num(p, name) if name in p else default
    if math.isnan(value):
        raise DomainError(f"{name} must be a real number, got {p[name]!r}")
    return float(value)


def spec_params(doc: dict) -> dict:
    """A prior spec's params, {} where absent; anything but an object is a
    DomainError."""
    params = {} if doc.get("params") is None else doc["params"]
    if not isinstance(params, dict):
        raise DomainError(f"params must be a JSON object, got {params!r}")
    return params


def _real(p, *names):
    """Whether every p[name] is a real number."""
    return not any(math.isnan(_num(p, name)) for name in names)


def _check_phi(k, p):
    if not isinstance(p.get("phi"), list):
        return "a phi token list under params"
    if any(name in p and not _real(p, name) for name in ("c1", "c2", "a")):
        return "real parameters c1, c2 and a"
    if "b" in p and not (_real(p, "b") or str(p["b"]).lower() in _INF_NAMES):
        return "a real or infinite anchor b"


def _check_gen_beta(k, p):
    for name in ("alpha", "beta", "gamma", "sigma"):
        if math.isnan(_num(p, name)):
            return f"a real parameter {name!r}"
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
        # formal transform identity: l proportional to u^{gamma + (1-k)/2} = S^2
        profile=lambda k, p, q, m: marginals.squared_profile(
            k, priors.power_exp_S(p["gamma"], k), "formal_power_law"),
        checkers=lambda k, p, u, q, m: [conditions.check_spherical_minimax_bound(
            priors.power_exp_profile(p["gamma"], k), k, u)],
        radial=lambda k, p, q: priors.whittaker_radial(p["gamma"], k)),
    "bessel_F": Family(
        check=lambda k, p: (None if 0.0 <= _num(p, "b") <= (k - 2.0) ** 2 / 4.0
                            and _real(p, "A1", "A2") else "0 <= b <= (k-2)^2/4, real A1, A2"),
        defaults={"A1": 1.0, "A2": 0.0},
        # h(u) F(u) for the inverse-square family: the Gaussian factors cancel
        profile=lambda k, p, q, m: marginals.squared_profile(
            k, priors.monomial_pair(p["b"], k, p["A1"], p["A2"]), "formal_power_law"),
        checkers=lambda k, p, u, q, m: [conditions.check_spherical_minimax_bound(
            priors.inverse_square_profile(p["b"], k, p["A1"], p["A2"]), k, u)]),
    "custom_phi_spherical": Family(
        check=_check_phi, construct=_construct_spherical, recover=_recover_spherical,
        profile=lambda k, p, q, sol: marginals.squared_profile(
            k, sol.S_triple, "formal_power_law"),
        checkers=lambda k, p, u, q, sol: [
            conditions.check_spherical_minimax_bound(sol.F, k, u)]),
    "custom_phi_mixture": Family(
        check=_check_phi, construct=_construct_mixture, recover=_recover_mixture,
        profile=lambda k, p, q, G: marginals.laplace_profile(
            G, k, "constructed_mixture", 0.0),
        checkers=lambda k, p, u, q, G: [
            conditions.check_laplace_mixture_bound(G, k, 0.5 * u ** 2)]),
    "flat": Family(
        check=lambda k, p: None,
        profile=lambda k, p, q, m: marginals.flat_profile(k),
        checkers=lambda k, p, u, q, m: []),
}

def prior_from_spec(doc: dict) -> FamilySpec:
    """Validate {"family": ..., "k": ..., "params": {...}} against the table.

    Unknown families are rejected with the list of known ones.
    """
    if not isinstance(doc, dict):
        raise DomainError("prior spec must be a JSON object")
    family = doc.get("family")
    if family not in FAMILIES:
        raise DomainError(
            f"unknown prior family {family!r}; known families: " + ", ".join(FAMILIES))
    k = doc.get("k")
    if not isinstance(k, int) or k < 3:
        raise DomainError(f"k must be an integer >= 3, got {k!r}")
    row = FAMILIES[family]
    params = dict(spec_params(doc))
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
    """What the construct command writes of a custom forcing on the u grid:
    its condition report, its tables as (file name, header, columns), and
    the construct report's recovery, properness, warnings and extra."""
    row, k, p = FAMILIES[spec.family], spec.k, spec.params
    if row.construct is None:
        raise DomainError("construct requires family " + " or ".join(
            name for name, r in FAMILIES.items() if r.construct))
    made, record = row.construct(k, p, u, quad)
    report, = row.checkers(k, p, u, quad, made)
    tables, fields = row.recover(k, u, made, record)
    return report, tables, {**fields, "extra": record}


def _gaussian_bessel_kernel(doc, nu):
    """f(x) = x^{nu+1/2} e^{-alpha x^2}, whose I-transform is closed form."""
    alpha = real_param(spec_params(doc), "alpha", 1.0)

    def log_f(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return (nu + 0.5) * np.log(x) - alpha * x * x

    return ScalarFn(eval=lambda x: np.exp(log_f(x)), support=(0.0, math.inf),
                    label="gaussian_bessel_kernel", log_eval=log_f, nonneg=True)


# The transform command's inputs that are not priors: (prior spec, nu) -> f.
_KERNELS = {
    "gaussian_bessel": _gaussian_bessel_kernel,
    "zero": lambda doc, nu: ScalarFn(eval=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                                     support=(0.0, math.inf), label="zero", nonneg=True),
}


def transform_input(doc: dict, k: int, block: dict, quad: QuadSpec):
    """(f, nu) for the transform command: one of ``_KERNELS``, or the
    I-transform weight of a family's radial prior; nu defaults to (k-2)/2."""
    nu = real_param(block, "nu", (k - 2.0) / 2.0)
    if doc.get("family") in _KERNELS:
        return _KERNELS[doc["family"]](doc, nu), nu
    spec = prior_from_spec(doc)
    row = FAMILIES[spec.family]
    if row.radial is None:
        raise DomainError(f"transform input not defined for family {spec.family!r}")
    return transforms.transform_weight(row.radial(spec.k, spec.params, quad).lam, spec.k), nu


def consistency_target(doc: dict, k: int, block: dict, quad: QuadSpec,
                       target: str) -> ScalarFn:
    """The profile F that a consistency check holds the I-transform to:
    u^gamma e^{u^2/2} (gamma from the transform block, else the prior's
    params, else 1), or l(u)/h(u) of the prior's marginal."""
    if target == "power_exp":
        gamma = real_param(block, "gamma", real_param(spec_params(doc), "gamma", 1.0))
        return priors.power_exp_profile(gamma, k)
    if target == "ell_over_h":
        prof = profile_for(prior_from_spec(doc), quad)
        logA = math.lgamma(0.5 * k) - math.log(2.0) - 0.5 * k * math.log(math.pi)

        def F_t(u):
            u = np.asarray(u, dtype=float)
            log_h = logA + 0.5 * (1.0 - k) * np.log(u) - 0.5 * u * u
            return np.exp(prof.ratios(u)[0] - log_h)

        return ScalarFn(eval=F_t, support=(0.0, math.inf), label="ell_over_h", nonneg=True)
    raise DomainError(f"unknown consistency target {target!r}")
