"""Output gate behind the benchmark's ``failed`` count.

The gate runs after the timed passes and is never timed.  Every operation of
every pass is judged; an operation fails when any of its checks fails:

* exit codes and checker verdicts equal the values pinned in ``pins.json``
  (this includes INCONCLUSIVE for ``construct_mixture_boundary`` and exit 3
  for the documented Whittaker transform divergence);
* construct and transform tables, and the shrinkage factor
  rho(u) = l'(u) / (u l(u)) of every risk profile on the pinned u grid, match
  the pins within ``REL_TOL``; these checks do not depend on the random
  streams;
* every Monte Carlo point has no failed samples, agrees with its SURE average
  within 4 combined standard errors (``RiskReport.coupled``) and satisfies
  mc_risk <= k + 3 SE;
* routes that define the same rule agree at the same seed: example1(n=2) and
  the closed-form Strawderman prior with a = 0.5 at k = 5 (``IDENTITY_TOL``),
  and the radial-quadrature curve with a closed-form curve at its own
  (n, seed) (``CROSS_ROUTE_TOL``).

Run ``python3 bench/gate.py --write-pins`` to record the pins from the
current source tree.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

PINS_PATH = Path(__file__).resolve().with_name("pins.json")

# Pinned tables and rho(u) must match to this relative tolerance: looser than
# the package's default quadrature rel_tol of 1e-8, so a change that keeps
# every quadrature within its tolerance passes.
REL_TOL = 1e-6
# example1(n=2) and Strawderman a=0.5 evaluate one rule through two closed
# forms (incomplete gamma vs. Kummer); same-seed MC agrees to rounding.
IDENTITY_TOL = 1e-10
# the radial route reaches the closed form only to quadrature accuracy
CROSS_ROUTE_TOL = 1e-6
U_GRID = np.geomspace(0.05, 12.0, 16)
PIN_SEED = 1

# Wasted-work and nesting counts of one traced set-up and pass, recorded at
# PIN_SEED and full size so that later changes can cite them as counts.  They
# are reported next to the traced run's own values and never gated: an
# optimisation is expected to move them.
PINNED_COUNTS = {
    "risk_closed_form": ["marginals.strawderman_closed_form.kummer_calls_per_triple"],
    "risk_mixture_quad": ["marginals.mixture_quadrature.quad_calls_per_triple"],
    "risk_radial_quad": ["marginals.radial_quadrature.quad_calls_per_triple",
                         "marginals.radial_quadrature.scans_per_triple",
                         "quad.adaptive_batch.nested_calls"],
    "construct_verify": ["quad.adaptive.calls", "quad.adaptive_batch.calls",
                         "priors.cumulative_integral.calls"],
}


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _close_arrays(got, want, tol) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return (got.shape == want.shape
            and bool(np.all(np.abs(got - want) <= tol * np.maximum(np.abs(got), np.abs(want)))))


def observe_rho(workload) -> dict:
    """rho(u) on U_GRID for each risk profile of the workload."""
    import workloads
    return {tag: workloads.rho(profile, U_GRID).tolist()
            for tag, profile in workloads.rho_profiles(workload).items()}


def _risk_checks(report: dict, k: int) -> list:
    from bayesminimax.estimators import RiskReport
    r = RiskReport(**report)
    msgs = []
    if r.n_failures != 0:
        msgs.append(f"{r.n_failures} failed samples")
    if not r.coupled(4.0):
        msgs.append(f"MC {r.mc_risk:.6g} and SURE {r.sure_mean:.6g} differ by more than 4 SE")
    if not r.mc_risk <= k + 3.0 * r.mc_stderr:
        msgs.append(f"mc_risk {r.mc_risk:.6g} exceeds k + 3 SE")
    return msgs


class Gate:
    """Judges the collected outputs of one workload's passes."""

    def __init__(self, workload, pins: dict):
        self.workload = workload
        self.pins = pins
        self.static = self._static_failures()
        self.companion = None
        if workload.name == "risk_radial_quad":
            self.companion = self._closed_form_companion()

    def _static_failures(self) -> dict:
        """Seed-independent checks, once per run: rho(u) against its pins."""
        out = {}
        for tag, got in observe_rho(self.workload).items():
            want = self.pins["rho"].get(tag)
            if want is None or not _close_arrays(got, want, REL_TOL):
                out[tag] = [f"rho(u) of {tag} differs from the pins by more than {REL_TOL:g}"]
        return out

    def _closed_form_companion(self) -> dict:
        """Closed-form Strawderman curve at the radial workload's (n, seed)."""
        import workloads
        from bayesminimax import estimators, marginals
        wl = self.workload
        profile = marginals.marginal_strawderman(workloads.STRAWDERMAN_A, workloads.K)
        reports = estimators.risk_curve(profile, wl.sizes["theta_norms"],
                                        wl.sizes["n_samples"], wl.seed)
        return {r.theta_norm: r.to_dict() for r in reports}

    def judge_pass(self, outputs) -> list:
        """Failure messages per operation of one pass, in ``workload.ops`` order."""
        if outputs is None:
            return [["the pass raised an exception"] for _ in self.workload.ops]
        if self.workload.name == "construct_verify":
            return [self._judge_cli_run(tag, outputs.get(tag)) for tag in self.workload.ops]
        return [self._judge_risk_point(tag, norm, outputs) for tag, norm in self.workload.ops]

    def _judge_cli_run(self, tag, out) -> list:
        pin = self.pins["cli"][tag]
        if out is None:
            return ["no output"]
        msgs = []
        if out["exit"] != pin["exit"]:
            msgs.append(f"exit {out['exit']}, pinned {pin['exit']}")
        if out["verdicts"] != pin["verdicts"]:
            msgs.append(f"verdicts {out['verdicts']}, pinned {pin['verdicts']}")
        if sorted(out["tables"]) != sorted(pin["tables"]):
            msgs.append(f"tables {sorted(out['tables'])}, pinned {sorted(pin['tables'])}")
        for name, want in pin["tables"].items():
            got = out["tables"].get(name)
            if got is not None and (got["header"] != want["header"]
                                    or not _close_arrays(got["rows"], want["rows"], REL_TOL)):
                msgs.append(f"{name} differs from the pins by more than {REL_TOL:g}")
        return msgs

    def _judge_risk_point(self, tag, norm, outputs) -> list:
        import workloads
        out = outputs.get(tag)
        if out is None:
            return ["no output"]
        msgs = list(self.static.get(tag, []))
        pinned_exit = self.pins["exit"].get(tag)
        if pinned_exit is not None and out["exit"] != pinned_exit:
            msgs.append(f"exit {out['exit']}, pinned {pinned_exit}")
        report = _find(out["reports"], norm)
        if report is None:
            return msgs + [f"no report for |theta|={norm:g}"]
        msgs += _risk_checks(report, workloads.K)
        if tag in ("example1", "strawderman"):
            other = _find(outputs.get("strawderman" if tag == "example1" else "example1",
                                      {}).get("reports", []), norm)
            if other is None or not all(_close(report[q], other[q], IDENTITY_TOL)
                                        for q in ("mc_risk", "sure_mean")):
                msgs.append("example1(n=2) and Strawderman(a=0.5) differ at the same seed")
        if self.companion is not None:
            cf = self.companion.get(norm)
            if cf is None or not all(_close(report[q], cf[q], CROSS_ROUTE_TOL)
                                     for q in ("mc_risk", "sure_mean")):
                msgs.append("radial route differs from the closed form at the same (n, seed)")
        return msgs


def _find(reports, norm):
    for r in reports:
        if r["theta_norm"] == norm:
            return r
    return None


def load_pins(path: Path = PINS_PATH) -> dict:
    return json.loads(path.read_text())


def write_pins(path: Path = PINS_PATH) -> dict:
    """Record verdicts, exit codes, tables, rho(u) and counts from the current tree."""
    import layertrace
    import workloads
    pins = {"u_grid": U_GRID.tolist(), "rho": {}, "exit": {}, "cli": {},
            "counts": {"seed": PIN_SEED}}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, PIN_SEED)
            spans, out = layertrace.trace_workload(wl, Path(tmp) / name)
            layer = layertrace.layer_metrics(spans)
            pins["counts"][name] = {m: layer[m] for m in PINNED_COUNTS[name]}
            if name == "construct_verify":
                pins["cli"] = {tag: {key: o[key] for key in ("exit", "verdicts", "tables")}
                               for tag, o in out.items()}
                continue
            pins["rho"].update(observe_rho(wl))
            pins["exit"].update({tag: o["exit"] for tag, o in out.items()
                                 if o["exit"] is not None})
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-pins", action="store_true",
                        help="record pins.json from the current source tree")
    args = parser.parse_args(argv)
    if not args.write_pins:
        parser.print_help()
        return 2
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src")]
    write_pins()
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
