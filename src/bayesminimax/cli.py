"""Command-line surface: construct | verify | risk | transform.

All runs are batch, config-driven and reproducible: a JSON config selects
the prior family and parameters, every run writes a manifest with the fully
resolved configuration next to its outputs, and Monte Carlo outputs are
bit-identical for a fixed seed.  Output files are written atomically
(temp file + rename).

Exit codes:
    0  success (for verify: every checker HOLDS)
    2  configuration error
    3  construction failure or transform divergence
    4  a condition checker returned FAILS
    5  verify only: no failures but at least one INCONCLUSIVE verdict
    6  risk only: some point exceeded k + 3 stderr

Environment override: TOOL_QUAD_RELTOL (quadrature relative tolerance),
recorded in the manifest.  Every command writes its tables as CSV and its
reports as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__, conditions, estimators, families, priors, transforms
from .errors import ConstructionError, DomainError, EvaluationError, TransformDivergenceError
from .families import profile_for
from .transforms import QuadSpec, ScalarFn

COMMANDS = ("construct", "verify", "risk", "transform")

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_CONSTRUCTION = 3
_EXIT_FAILS = 4
_EXIT_INCONCLUSIVE = 5
_EXIT_RISK_EXCEEDED = 6


@dataclass
class RunConfig:
    command: str
    prior_spec: dict
    k: int
    grid_lo: float = 1e-2
    grid_hi: float = 30.0
    grid_n: int = 200
    grid_spacing: str = "log"
    n_samples: int = 10000
    seed: int = 20240704
    theta_norms: List[float] = field(default_factory=lambda: [0.0, 1.0, 3.0, 6.0, 10.0])
    quad: QuadSpec = field(default_factory=QuadSpec)
    out_dir: str = "out"
    transform_block: Dict = field(default_factory=dict)
    env_overrides: Dict = field(default_factory=dict)

    def grid(self) -> np.ndarray:
        return conditions.default_grid(self.grid_lo, self.grid_hi, self.grid_n,
                                       self.grid_spacing)

    def resolved(self) -> dict:
        return {
            "command": self.command,
            "prior_spec": self.prior_spec,
            "k": self.k,
            "grid_spec": {"lo": self.grid_lo, "hi": self.grid_hi,
                          "n_points": self.grid_n, "spacing": self.grid_spacing},
            "mc": {"n_samples": self.n_samples, "seed": self.seed,
                   "theta_norms": self.theta_norms},
            "quad": {"rel_tol": self.quad.rel_tol, "abs_tol": self.quad.abs_tol,
                     "max_depth": self.quad.max_depth, "tail_cut": self.quad.tail_cut},
            "output": {"path": self.out_dir},
            "transform": self.transform_block,
            "env_overrides": self.env_overrides,
        }


def _atomic_write(path: str, text: str):
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_config(path: str, args) -> RunConfig:
    """Parse and validate the JSON config, applying CLI/env overrides."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DomainError("config must be a JSON object")
    command = doc.get("command") or getattr(args, "command", None)
    if command not in COMMANDS:
        raise DomainError(f"command must be one of {COMMANDS}, got {command!r}")
    if args.command and doc.get("command") and args.command != doc["command"]:
        raise DomainError(f"config command {doc['command']!r} contradicts CLI "
                          f"subcommand {args.command!r}")
    prior_spec = doc.get("prior_spec")
    if not isinstance(prior_spec, dict):
        raise DomainError("prior_spec (object) is required")
    k = doc.get("k", prior_spec.get("k"))
    if not isinstance(k, int) or k < 3:
        raise DomainError(f"k must be an integer >= 3, got {k!r}")
    prior_spec.setdefault("k", k)
    if prior_spec["k"] != k:
        raise DomainError("k in prior_spec contradicts top-level k")

    grid = dict(doc.get("grid_spec") or {})
    if args.grid:
        parts = args.grid.split(",")
        if len(parts) != 4:
            raise DomainError("--grid expects lo,hi,n,log|lin")
        grid = {"lo": float(parts[0]), "hi": float(parts[1]),
                "n_points": int(parts[2]),
                "spacing": {"log": "log", "lin": "linear"}.get(parts[3], parts[3])}
    lo = float(grid.get("lo", 1e-2))
    hi = float(grid.get("hi", 30.0))
    n_points = int(grid.get("n_points", 200))
    spacing = grid.get("spacing", "log")
    if not (lo < hi):
        raise DomainError(f"grid requires lo < hi, got lo={lo}, hi={hi}")
    if n_points < 2:
        raise DomainError(f"n_points >= 2 required, got {n_points}")
    if spacing not in ("log", "linear"):
        raise DomainError(f"spacing must be log or linear, got {spacing!r}")

    mc = dict(doc.get("mc") or {})
    n_samples = int(mc.get("n_samples", 10000))
    seed = int(args.seed if args.seed is not None else mc.get("seed", 20240704))
    theta_norms = [float(x) for x in mc.get("theta_norms", [0.0, 1.0, 3.0, 6.0, 10.0])]
    if command == "risk" and n_samples < 1000:
        raise DomainError("risk runs require n_samples >= 1000")

    quad_doc = dict(doc.get("quad") or {})
    env = {}
    if os.environ.get("TOOL_QUAD_RELTOL"):
        quad_doc["rel_tol"] = float(os.environ["TOOL_QUAD_RELTOL"])
        env["TOOL_QUAD_RELTOL"] = os.environ["TOOL_QUAD_RELTOL"]
    quad = QuadSpec(rel_tol=float(quad_doc.get("rel_tol", 1e-8)),
                    abs_tol=float(quad_doc.get("abs_tol", 1e-14)),
                    max_depth=int(quad_doc.get("max_depth", 40)),
                    tail_cut=float(quad_doc.get("tail_cut", 1e-14)))

    out_dir = args.out or dict(doc.get("output") or {}).get("path", "out")

    return RunConfig(command=command, prior_spec=prior_spec, k=k,
                     grid_lo=lo, grid_hi=hi, grid_n=n_points,
                     grid_spacing=spacing, n_samples=n_samples, seed=seed,
                     theta_norms=theta_norms, quad=quad, out_dir=out_dir,
                     transform_block=dict(doc.get("transform") or {}),
                     env_overrides=env)


def _aggregate_exit(reports: Sequence[conditions.ConditionReport]) -> int:
    verdicts = [r.verdict for r in reports]
    if any(v == conditions.FAILS for v in verdicts):
        return _EXIT_FAILS
    if all(v == conditions.HOLDS for v in verdicts) and verdicts:
        return _EXIT_OK
    return _EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _write_manifest(cfg: RunConfig, exit_code: int, outputs: List[str]):
    manifest = {
        "tool": "bayesminimax",
        "version": __version__,
        "resolved_config": cfg.resolved(),
        "outputs": outputs,
        "exit_code": exit_code,
    }
    _atomic_write(os.path.join(cfg.out_dir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write(cfg: RunConfig, outputs: List[str], name: str, text: str):
    """Write one output file atomically and record its path in ``outputs``."""
    path = os.path.join(cfg.out_dir, name)
    _atomic_write(path, text)
    outputs.append(path)


def _table_csv(header: Sequence[str], rows) -> str:
    def cell(v):
        return v if isinstance(v, str) else repr(float(np.asarray(v).reshape(-1)[0]))
    return "\n".join([",".join(header)] + [",".join(map(cell, row)) for row in rows]) + "\n"


def cmd_verify(cfg: RunConfig) -> int:
    spec = families.prior_from_spec(cfg.prior_spec)
    reports = families.checkers_for(spec, cfg.grid(), cfg.quad)
    code = _aggregate_exit(reports)
    doc = {
        "family": spec.family,
        "k": spec.k,
        "params": spec.params,
        "reports": [r.to_dict() for r in reports],
        "aggregate": {0: "HOLDS", 4: "FAILS", 5: "INCONCLUSIVE"}[code],
    }
    outputs = []
    _write(cfg, outputs, "verify_report.json", json.dumps(doc, indent=2) + "\n")
    _write_manifest(cfg, code, outputs)
    print(f"verify[{spec.family}]: {doc['aggregate']}"
          + "".join(f"\n  {r.condition_id}: {r.verdict}" for r in reports))
    return code


def cmd_construct(cfg: RunConfig) -> int:
    spec = families.prior_from_spec(cfg.prior_spec)
    u_grid = cfg.grid()
    made, report, extra = families.construct(spec, u_grid, cfg.quad)
    b = extra["b_coeffs"]
    outputs = []
    warnings: List[str] = []
    if isinstance(made, priors.ConstructionSolution):   # the spherical route
        sol = made
        _write(cfg, outputs, "profile_table.csv", _table_csv(
            ["u", "F", "dF", "d2F", "z1", "z2"],
            zip(u_grid, *sol.F.triple(u_grid), sol.z1.eval(u_grid), sol.z2.eval(u_grid))))
        recovery = {"available": False,
                    "reason": "closed-form recovery only for the pure "
                              "inverse-square forcing with a single root"}
        pure_inv_sq = (b[1] == b[2] == b[3] == 0.0 and b[0] < 0.0)
        single = (sol.c2 == 0.0) or (sol.c1 == 0.0)
        if pure_inv_sq and single:
            rho = sol.rho1 if sol.c2 == 0.0 else sol.rho2
            gamma = 2.0 * rho + (spec.k - 1.0) / 2.0
            if gamma + (spec.k + 1.0) / 2.0 > 0:
                lam = priors.whittaker_radial(gamma, spec.k)
                _write(cfg, outputs, "radial_density_table.csv", _table_csv(
                    ["r", "lambda_unnormalized"], zip(u_grid, lam.lam.eval(u_grid))))
                recovery = {"available": True, "gamma": gamma,
                            "proper": lam.proper,
                            "note": "defined up to positive scale"}
            else:
                recovery = {"available": False,
                            "reason": f"gamma={gamma:.6g} violates "
                                      "gamma + (k+1)/2 > 0"}
        properness = {"proper": recovery.get("proper", "unknown")}
    else:                                               # the mixture route's G
        G = made
        s_grid = 0.5 * u_grid ** 2
        _write(cfg, outputs, "transform_table.csv", _table_csv(
            ["s", "G", "dG", "d2G"], zip(s_grid, *G.triple(s_grid))))
        boundary = (b[0] == b[2] == b[3] == 0.0 and abs(b[1] - spec.k) < 1e-12)
        if boundary:
            warnings.append(
                "boundary forcing phi(s) = k/s: margins sit at zero and the "
                "matching kernel is supported on all of (0, inf), so this "
                "cannot arise from a proper mixture; the associated mixing "
                "density (v+1)^{1-k/2} is recovered by the classical "
                "identification and is itself proper and minimax")
            md = priors.monomial_mixing(spec.k - 3, spec.k)
            _write(cfg, outputs, "mixing_density_table.csv",
                   _table_csv(["v", "h"], zip(u_grid, md.h.eval(u_grid))))
            recovery = {"available": True, "form": "(v+1)^{1-k/2}",
                        "caveat": "formal inverse: kernel not (0,1)-supported"}
        else:
            recovery = {"available": False,
                        "reason": "numerical inverse Laplace transforms are "
                                  "out of scope; only the boundary family has "
                                  "a closed-form kernel"}
        properness = {"proper": "see recovery"}

    code = _EXIT_OK if report.verdict != conditions.FAILS else _EXIT_FAILS
    doc = {
        "family": spec.family,
        "k": spec.k,
        "condition_report": report.to_dict(),
        "recovery": recovery,
        "properness": properness,
        "warnings": warnings,
        "extra": extra,
    }
    _write(cfg, outputs, "construct_report.json", json.dumps(doc, indent=2) + "\n")
    _write_manifest(cfg, code, outputs)
    print(f"construct[{spec.family}]: {report.verdict}"
          + (f" ({len(warnings)} warning(s))" if warnings else ""))
    return code


def cmd_risk(cfg: RunConfig) -> int:
    spec = families.prior_from_spec(cfg.prior_spec)
    profile = profile_for(spec, cfg.quad)
    reports = estimators.risk_curve(profile, cfg.theta_norms, cfg.n_samples,
                                    cfg.seed, k=cfg.k)
    exceeded = [r for r in reports
                if r.mc_risk > r.baseline_k + 3.0 * r.mc_stderr]
    code = _EXIT_RISK_EXCEEDED if exceeded else _EXIT_OK
    outputs = []
    _write(cfg, outputs, "risk_curve.csv", estimators.risk_reports_to_csv(reports))
    long_rows = [(r.theta_norm, q, getattr(r, q)) for r in reports
                 for q in ("mc_risk", "mc_stderr", "sure_mean", "sure_stderr")]
    _write(cfg, outputs, "risk_long.csv",
           _table_csv(["theta_norm", "quantity", "value"], long_rows))
    _write(cfg, outputs, "risk_report.json",
           estimators.risk_reports_to_json(reports, indent=2) + "\n")
    _write_manifest(cfg, code, outputs)
    for r in reports:
        flag = " EXCEEDS" if r in exceeded else ""
        print(f"risk |theta|={r.theta_norm:g}: {r.mc_risk:.4f} +- "
              f"{r.mc_stderr:.4f} (SURE {r.sure_mean:.4f}){flag}")
    return code


def _transform_input(cfg: RunConfig):
    """Resolve the function f and order nu for the transform command."""
    ps = cfg.prior_spec
    nu = float(cfg.transform_block.get("nu", (cfg.k - 2.0) / 2.0))
    if ps.get("family") == "gaussian_bessel":
        alpha = float((ps.get("params") or {}).get("alpha", 1.0))

        def log_f(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(divide="ignore"):
                return (nu + 0.5) * np.log(x) - alpha * x * x

        return ScalarFn(eval=lambda x: np.exp(log_f(x)), support=(0.0, math.inf),
                        label="gaussian_bessel_kernel", log_eval=log_f, nonneg=True), nu
    if ps.get("family") == "zero":
        return ScalarFn(eval=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                        support=(0.0, math.inf), label="zero", nonneg=True), nu
    spec = families.prior_from_spec(ps)
    return transforms.transform_weight(families.radial_prior(spec, cfg.quad).lam, spec.k), nu


def cmd_transform(cfg: RunConfig) -> int:
    f, nu = _transform_input(cfg)
    kind = cfg.transform_block.get("kind", "i")
    grid = cfg.grid()
    if kind not in ("i", "k"):
        raise DomainError(f"transform kind must be i or k, got {kind!r}")
    target = cfg.transform_block.get("consistency_target")
    if target and kind != "i":
        raise DomainError("consistency_target judges the tabulated I-transform; "
                          f"it needs transform kind i, got {kind!r}")
    transform = transforms.i_transform if kind == "i" else transforms.k_transform
    values = transform(f, nu, grid, cfg.quad)
    outputs = []
    _write(cfg, outputs, "transform_table.csv", _table_csv(["y", "value"], zip(grid, values)))
    code = _EXIT_OK

    if target:
        if target == "power_exp":
            gamma = float(cfg.transform_block.get(
                "gamma", cfg.prior_spec.get("params", {}).get("gamma", 1.0)))
            F_target = priors.power_exp_profile(gamma, cfg.k)
        elif target == "ell_over_h":
            spec = families.prior_from_spec(cfg.prior_spec)
            prof = profile_for(spec, cfg.quad)
            logA = (math.lgamma(0.5 * cfg.k) - math.log(2.0)
                    - 0.5 * cfg.k * math.log(math.pi))

            def F_t(u):
                u = np.asarray(u, dtype=float)
                log_h = logA + 0.5 * (1.0 - cfg.k) * np.log(u) - 0.5 * u * u
                return np.exp(prof.ratios(u)[0] - log_h)

            F_target = ScalarFn(eval=F_t, support=(0.0, math.inf),
                                label="ell_over_h", nonneg=True)
        else:
            raise DomainError(f"unknown consistency target {target!r}")
        prop_tol = float(cfg.transform_block.get("prop_tol", 1e-4))
        report = transforms.proportionality_report(
            grid, values, F_target.eval(grid), prop_tol, cfg.quad.abs_tol)
        _write(cfg, outputs, "consistency_report.json", report.to_json(indent=2) + "\n")
        if report.verdict == conditions.FAILS:
            code = _EXIT_FAILS
        print(f"transform consistency: {report.verdict}")
    _write_manifest(cfg, code, outputs)
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bayesminimax",
        description="Construct and verify Bayes minimax shrinkage priors for "
                    "a multivariate normal mean.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the Monte Carlo seed")
    parser.add_argument("--grid", default=None, help="lo,hi,n,log|lin")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args)
    except (DomainError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG

    handler = {"construct": cmd_construct, "verify": cmd_verify,
               "risk": cmd_risk, "transform": cmd_transform}[cfg.command]
    try:
        return handler(cfg)
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (ConstructionError, TransformDivergenceError) as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        _write_manifest(cfg, _EXIT_CONSTRUCTION, [])
        return _EXIT_CONSTRUCTION
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return _EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
