"""The four benchmark workloads.

Each workload drives the package only through its public entry points:
``bayesminimax.cli.main`` in-process wherever a JSON config can express the
work, the library functions otherwise (the radial route has no CLI family).
All inputs are fixed except the Monte Carlo seed, which is the benchmark's
``--seed``.

A workload has three phases:

* ``prepare(workdir)`` is set-up: it writes the JSON configs and builds every
  prior and profile object the workload needs before its first operation;
* ``run_pass()`` is one timed pass;
* ``collect()`` reads back what the pass produced (untimed), as plain data
  for the output gate in ``gate.py``, with the seconds each CLI run (or the
  radial risk curve) took.

One *operation* is one risk point on the ``risk_*`` workloads and one CLI
config run on ``construct_verify``; ``ops`` lists them in the order the gate
judges them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import time
from pathlib import Path

import numpy as np

from bayesminimax import cli, estimators, marginals, priors
from bayesminimax.transforms import QuadSpec

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_CONFIGS = ROOT / "sample_configs"

K = 5
STRAWDERMAN_A = 0.5           # Strawderman a = k/2 - n: the same rule as example1(n=2)
EXAMPLE1_N = 2
EXAMPLE2 = {"alpha": 2.0, "beta": 2.0, "gamma": -1.0, "sigma": 0.5}

# Full sizes.  smoke.py runs the same workloads with the "smoke" sizes.
SIZES = {
    "full": {
        "risk_closed_form": {"n_samples": 131_072, "theta_norms": [0.0, 1.0, 3.0, 6.0, 10.0]},
        "risk_mixture_quad": {"n_samples": 32_768, "theta_norms": [0.0, 3.0, 10.0]},
        "risk_radial_quad": {"n_samples": 4_096, "theta_norms": [0.0, 3.0, 10.0]},
        "construct_verify": {"grid_points": 25},
    },
    "smoke": {
        "risk_closed_form": {"n_samples": 20_000, "theta_norms": [0.0, 3.0, 10.0]},
        "risk_mixture_quad": {"n_samples": 4_096, "theta_norms": [0.0, 10.0]},
        "risk_radial_quad": {"n_samples": 2_048, "theta_norms": [0.0, 10.0]},
        "construct_verify": {"grid_points": 25},
    },
}


def _quiet_cli(argv) -> int:
    """Run ``cli.main`` in-process with its console output discarded.

    ``cli.main`` is looked up on the module at call time, so the tracer's
    wrapper sees it.
    """
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _write_json(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _clear(out_dir: Path) -> None:
    """Delete a run's output files, so the next pass cannot pass on stale ones."""
    if out_dir.is_dir():
        for name in os.listdir(out_dir):
            (out_dir / name).unlink()


def read_table(path: Path) -> dict:
    """A CSV table written by the CLI as {"header": [...], "rows": [[float]]}."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {"header": rows[0], "rows": [[float(v) for v in row] for row in rows[1:]]}


def risk_config(prior_spec: dict, n_samples: int, theta_norms) -> dict:
    return {"command": "risk", "prior_spec": prior_spec,
            "mc": {"n_samples": n_samples, "theta_norms": list(theta_norms)}}


def example1_spec() -> dict:
    return {"family": "example1", "k": K, "params": {"n": EXAMPLE1_N}}


def strawderman_spec() -> dict:
    return {"family": "strawderman", "k": K, "params": {"a": STRAWDERMAN_A}}


def example2_spec() -> dict:
    return {"family": "example2", "k": K, "params": dict(EXAMPLE2)}


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, sizes: dict):
        self.seed = int(seed)
        self.sizes = dict(sizes)
        self.workdir = None

    @property
    def ops(self) -> list:
        raise NotImplementedError

    @property
    def samples_per_pass(self) -> int:
        return 0

    def prepare(self, workdir: Path) -> None:
        self.workdir = Path(workdir)

    def run_pass(self) -> None:
        raise NotImplementedError

    def collect(self) -> dict:
        raise NotImplementedError


class _CliRiskWorkload(Workload):
    """Risk curves through ``bayesminimax risk``, one CLI run per prior."""

    def specs(self) -> dict:
        raise NotImplementedError

    @property
    def ops(self):
        return [(tag, float(t)) for tag in self.specs() for t in self.sizes["theta_norms"]]

    @property
    def samples_per_pass(self):
        return len(self.ops) * self.sizes["n_samples"]

    def prepare(self, workdir):
        super().prepare(workdir)
        self.configs = {
            tag: _write_json(self.workdir / "configs" / f"{tag}.json",
                             risk_config(spec, self.sizes["n_samples"],
                                         self.sizes["theta_norms"]))
            for tag, spec in self.specs().items()}

    def _out(self, tag) -> Path:
        return self.workdir / "out" / tag

    def run_pass(self):
        self.exit_codes, self.seconds = {}, {}
        for tag, path in self.configs.items():
            t0 = time.perf_counter()
            self.exit_codes[tag] = _quiet_cli(
                ["risk", "--config", str(path), "--out", str(self._out(tag)),
                 "--seed", str(self.seed)])
            self.seconds[tag] = time.perf_counter() - t0

    def collect(self):
        out = {}
        for tag in self.configs:
            path = self._out(tag) / "risk_report.json"
            reports = json.loads(path.read_text()) if path.is_file() else []
            out[tag] = {"exit": self.exit_codes[tag], "seconds": self.seconds[tag],
                        "reports": reports}
            _clear(self._out(tag))
        return out


class RiskClosedForm(_CliRiskWorkload):
    name = "risk_closed_form"
    why = ("closed-form marginals: estimators and specfun.kummer_1f1 do all the "
           "work and _quad makes no call, so it bypasses every quadrature change")

    def specs(self):
        return {"example1": example1_spec(), "strawderman": strawderman_spec()}


class RiskMixtureQuad(_CliRiskWorkload):
    name = "risk_mixture_quad"
    why = ("example2 through marginal_mixture: the linear-space "
           "_quad.adaptive_batch inside the profile triple dominates")

    def specs(self):
        return {"example2": example2_spec()}


class RiskRadialQuad(Workload):
    """Strawderman radial prior through ``marginals.marginal_radial``.

    No CLI family reaches the radial route, so the library is called
    directly; the prior and its profile are built once in set-up.
    """
    name = "risk_radial_quad"
    why = ("Strawderman radial prior through marginal_radial: log-space "
           "quadrature, Bessel kernels and quadrature nested inside lambda(r)")

    @property
    def ops(self):
        return [("radial", float(t)) for t in self.sizes["theta_norms"]]

    @property
    def samples_per_pass(self):
        return len(self.ops) * self.sizes["n_samples"]

    def prepare(self, workdir):
        super().prepare(workdir)
        self.prior = priors.strawderman_radial(STRAWDERMAN_A, K)
        self.profile = marginals.marginal_radial(self.prior)

    def run_pass(self):
        t0 = time.perf_counter()
        self.reports = estimators.risk_curve(
            self.profile, self.sizes["theta_norms"], self.sizes["n_samples"], self.seed)
        self.seconds = time.perf_counter() - t0

    def collect(self):
        return {"radial": {"exit": None, "seconds": self.seconds,
                           "reports": [r.to_dict() for r in self.reports]}}


# construct_verify: (tag, command, config).  A str config names a file in
# sample_configs/; a dict is written by prepare().
def construct_verify_runs(grid_points: int) -> list:
    grid = {"lo": 0.5, "hi": 6.0, "n_points": grid_points, "spacing": "log"}
    return [
        ("construct_mixture_boundary", "construct", "construct_mixture_boundary.json"),
        ("construct_spherical", "construct", "construct_spherical.json"),
        ("transform_gaussian", "transform", "transform_gaussian.json"),
        ("verify_monomial", "verify", "verify_monomial.json"),
        ("verify_strawderman", "verify", "verify_strawderman.json"),
        ("verify_example2", "verify",
         {"command": "verify", "prior_spec": example2_spec(), "grid_spec": grid}),
        ("verify_custom_phi_mixture", "verify",
         {"command": "verify",
          "prior_spec": {"family": "custom_phi_mixture", "k": K,
                         "params": {"phi": [{"kind": "inv", "c": 4.0}], "b": "inf"}},
          "grid_spec": grid}),
        ("transform_whittaker", "transform",
         {"command": "transform",
          "prior_spec": {"family": "whittaker", "k": K, "params": {"gamma": 1.0}},
          "grid_spec": {"lo": 0.5, "hi": 4.0, "n_points": 20, "spacing": "log"},
          "transform": {"consistency_target": "power_exp"}}),
    ]


# files each command leaves behind that the gate compares against pins
_TABLES = ("profile_table.csv", "transform_table.csv", "radial_density_table.csv",
           "mixing_density_table.csv")


class ConstructVerify(Workload):
    name = "construct_verify"
    why = ("construction and verification through cli.main: construct_G_mixture "
           "and its nested scalar _quad.adaptive calls dominate, with no MC")

    @property
    def ops(self):
        return [tag for tag, _, _ in construct_verify_runs(self.sizes["grid_points"])]

    def prepare(self, workdir):
        super().prepare(workdir)
        self.runs = []
        for tag, command, cfg in construct_verify_runs(self.sizes["grid_points"]):
            path = (SAMPLE_CONFIGS / cfg if isinstance(cfg, str)
                    else _write_json(self.workdir / "configs" / f"{tag}.json", cfg))
            self.runs.append((tag, command, path))

    def run_pass(self):
        self.exit_codes, self.seconds = {}, {}
        for tag, command, path in self.runs:
            t0 = time.perf_counter()
            self.exit_codes[tag] = _quiet_cli(
                [command, "--config", str(path), "--out", str(self.workdir / "out" / tag)])
            self.seconds[tag] = time.perf_counter() - t0

    def collect(self):
        out = {}
        for tag, _, _ in self.runs:
            d = self.workdir / "out" / tag
            verdicts = {}
            if (d / "verify_report.json").is_file():
                doc = json.loads((d / "verify_report.json").read_text())
                verdicts = {r["condition_id"]: r["verdict"] for r in doc["reports"]}
                verdicts["aggregate"] = doc["aggregate"]
            if (d / "construct_report.json").is_file():
                doc = json.loads((d / "construct_report.json").read_text())
                verdicts[doc["condition_report"]["condition_id"]] = doc["condition_report"]["verdict"]
            if (d / "consistency_report.json").is_file():
                doc = json.loads((d / "consistency_report.json").read_text())
                verdicts[doc["condition_id"]] = doc["verdict"]
            tables = {name: read_table(d / name) for name in _TABLES if (d / name).is_file()}
            out[tag] = {"exit": self.exit_codes[tag], "seconds": self.seconds[tag],
                        "verdicts": verdicts, "tables": tables}
            _clear(d)
        return out


WORKLOADS = {cls.name: cls for cls in (RiskClosedForm, RiskMixtureQuad, RiskRadialQuad,
                                       ConstructVerify)}


def make(name: str, seed: int, size: str = "full") -> Workload:
    return WORKLOADS[name](seed, SIZES[size][name])


def rho_profiles(workload: Workload) -> dict:
    """The marginal profiles whose shrinkage factor rho(u) the gate pins.

    The CLI workloads get the profile the CLI itself builds for their prior
    spec (``cli.profile_for``); the radial workload uses its own profile.
    """
    quad = QuadSpec()
    if isinstance(workload, RiskRadialQuad):
        return {"radial": workload.profile}
    if isinstance(workload, _CliRiskWorkload):
        return {tag: cli.profile_for(priors.prior_from_spec(spec), quad)
                for tag, spec in workload.specs().items()}
    return {}


def rho(profile, u) -> np.ndarray:
    """Shrinkage factor rho(u) = l'(u) / (u l(u)) of a profile."""
    u = np.asarray(u, dtype=float)
    ell, d1, _ = profile.triple(u)
    return d1 / (u * ell)
