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
reports as JSON.  The file formats are this module's; what goes into them
for a family or a construction route is decided in ``families``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__, conditions, estimators, families, transforms
from .errors import ConstructionError, DomainError, EvaluationError, TransformDivergenceError
from .families import profile_for
from .transforms import QuadSpec

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
            "quad": asdict(self.quad),
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
    mc = dict(doc.get("mc") or {})
    if args.seed is not None:
        mc["seed"] = args.seed
    output = dict(doc.get("output") or {})
    if args.out:
        output["path"] = args.out
    given = {name: cast(source[key]) if cast else source[key]   # RunConfig fills the rest
             for source, key, name, cast in (
                 (grid, "lo", "grid_lo", float), (grid, "hi", "grid_hi", float),
                 (grid, "n_points", "grid_n", int), (grid, "spacing", "grid_spacing", None),
                 (mc, "n_samples", "n_samples", int), (mc, "seed", "seed", int),
                 (mc, "theta_norms", "theta_norms", lambda xs: [float(x) for x in xs]),
                 (output, "path", "out_dir", None))
             if key in source}

    quad_doc = dict(doc.get("quad") or {})
    env = {}
    if os.environ.get("TOOL_QUAD_RELTOL"):
        quad_doc["rel_tol"] = float(os.environ["TOOL_QUAD_RELTOL"])
        env["TOOL_QUAD_RELTOL"] = os.environ["TOOL_QUAD_RELTOL"]
    quad = QuadSpec(**{f.name: float(quad_doc[f.name]) for f in fields(QuadSpec)
                       if f.name in quad_doc})

    cfg = RunConfig(command=command, prior_spec=prior_spec, k=k, quad=quad,
                    transform_block=dict(doc.get("transform") or {}),
                    env_overrides=env, **given)
    if not (cfg.grid_lo < cfg.grid_hi):
        raise DomainError(f"grid requires lo < hi, got lo={cfg.grid_lo}, hi={cfg.grid_hi}")
    if cfg.grid_n < 2:
        raise DomainError(f"n_points >= 2 required, got {cfg.grid_n}")
    if cfg.grid_spacing not in ("log", "linear"):
        raise DomainError(f"spacing must be log or linear, got {cfg.grid_spacing!r}")
    if cfg.seed < 0:
        raise DomainError(f"seed must be >= 0, got {cfg.seed}")
    if command == "risk" and cfg.n_samples < 1000:
        raise DomainError("risk runs require n_samples >= 1000")
    return cfg


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
    def cell(v):   # strings and integers as they are, other cells as float reprs
        return str(v) if isinstance(v, (str, int)) else repr(float(np.asarray(v).reshape(-1)[0]))
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
    report, tables, fields = families.construct(spec, cfg.grid(), cfg.quad)
    outputs = []
    for name, header, columns in tables:
        _write(cfg, outputs, name, _table_csv(header, zip(*columns)))
    code = _EXIT_OK if report.verdict != conditions.FAILS else _EXIT_FAILS
    doc = {"family": spec.family, "k": spec.k, "condition_report": report.to_dict(), **fields}
    _write(cfg, outputs, "construct_report.json", json.dumps(doc, indent=2) + "\n")
    _write_manifest(cfg, code, outputs)
    warnings = fields["warnings"]
    print(f"construct[{spec.family}]: {report.verdict}"
          + (f" ({len(warnings)} warning(s))" if warnings else ""))
    return code


def cmd_risk(cfg: RunConfig) -> int:
    spec = families.prior_from_spec(cfg.prior_spec)
    profile = profile_for(spec, cfg.quad)
    reports = estimators.risk_curve(profile, cfg.theta_norms, cfg.n_samples, cfg.seed)
    exceeded = [r for r in reports
                if r.mc_risk > r.baseline_k + 3.0 * r.mc_stderr]
    code = _EXIT_RISK_EXCEEDED if exceeded else _EXIT_OK
    outputs = []
    _write(cfg, outputs, "risk_curve.csv", _table_csv(
        ["theta_norm", "n", "seed", "mc_risk", "mc_stderr", "sure_mean", "sure_stderr", "k"],
        [(r.theta_norm, r.n_samples, r.seed, r.mc_risk, r.mc_stderr, r.sure_mean,
          r.sure_stderr, r.baseline_k) for r in reports]))
    long_rows = [(r.theta_norm, q, getattr(r, q)) for r in reports
                 for q in ("mc_risk", "mc_stderr", "sure_mean", "sure_stderr")]
    _write(cfg, outputs, "risk_long.csv",
           _table_csv(["theta_norm", "quantity", "value"], long_rows))
    _write(cfg, outputs, "risk_report.json",
           json.dumps([r.to_dict() for r in reports], indent=2) + "\n")
    _write_manifest(cfg, code, outputs)
    for r in reports:
        flag = " EXCEEDS" if r in exceeded else ""
        print(f"risk |theta|={r.theta_norm:g}: {r.mc_risk:.4f} +- "
              f"{r.mc_stderr:.4f} (SURE {r.sure_mean:.4f}){flag}")
    return code


def cmd_transform(cfg: RunConfig) -> int:
    f, nu = families.transform_input(cfg.prior_spec, cfg.k, cfg.transform_block, cfg.quad)
    kind = cfg.transform_block.get("kind", "i")
    grid = cfg.grid()
    if kind not in ("i", "k"):
        raise DomainError(f"transform kind must be i or k, got {kind!r}")
    target = cfg.transform_block.get("consistency_target")
    if target and kind != "i":
        raise DomainError("consistency_target judges the tabulated I-transform; "
                          f"it needs transform kind i, got {kind!r}")
    if target:   # resolved before the transform, so a config error writes nothing
        F_target = families.consistency_target(cfg.prior_spec, cfg.k, cfg.transform_block,
                                               cfg.quad, target)
        prop_tol = families.real_param(cfg.transform_block, "prop_tol", 1e-4)
    transform = transforms.i_transform if kind == "i" else transforms.k_transform
    values = transform(f, nu, grid, cfg.quad)
    outputs = []
    _write(cfg, outputs, "transform_table.csv", _table_csv(["y", "value"], zip(grid, values)))
    code = _EXIT_OK

    if target:
        report = transforms.proportionality_report(
            grid, values, F_target.eval(grid), prop_tol, cfg.quad.abs_tol)
        _write(cfg, outputs, "consistency_report.json", json.dumps(report.to_dict(), indent=2) + "\n")
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
