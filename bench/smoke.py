#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

1. Runs a reduced-size pass of every workload and requires its gate to pass.
2. Perturbs one pinned expectation per workload and requires the gate to
   fail some operation, which shows that the gate catches a failure.
3. Runs the reduced-size traced pass of every workload twice at one seed and
   requires every count the trace reports to repeat exactly.
4. Requires the per-layer metrics the trace produces to be exactly those
   named in ``BENCHMARK.json``.

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import run  # noqa: E402  (sets nothing on import)

run.limit_threads()

import gate  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def perturb(pins: dict, name: str) -> dict:
    """A copy of the pins with one expectation of ``name`` made wrong."""
    bad = copy.deepcopy(pins)
    if name == "construct_verify":
        bad["cli"]["construct_mixture_boundary"]["verdicts"]["laplace_mixture_bound"] = "HOLDS"
    else:
        tag = workloads.make(name, SEED, "smoke").ops[0][0]
        bad["rho"][tag][3] *= 1.0 + 1e-4
    return bad


def fail_frac(judge, outputs, ops) -> float:
    verdicts = judge.judge_pass(outputs)
    return sum(1 for msgs in verdicts if msgs) / len(ops)


def main() -> int:
    pins = gate.load_pins()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True

    def report(passed: bool, what: str):
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {what}", flush=True)

    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="smoke-", dir=out_root))
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, SEED, "smoke")
            wl.prepare(tmp / name)
            wl.run_pass()
            outputs = wl.collect()
            frac = fail_frac(gate.Gate(wl, pins), outputs, wl.ops)
            report(frac == 0.0, f"{name}: gate passes at reduced size (fail_frac {frac:g})")
            frac = fail_frac(gate.Gate(wl, perturb(pins, name)), outputs, wl.ops)
            report(frac > 0.0, f"{name}: perturbed pin is caught (fail_frac {frac:g})")

            counts = []
            for i in range(2):
                spans, _ = layertrace.trace_workload(workloads.make(name, SEED, "smoke"),
                                                     tmp / f"{name}-traced{i}")
                layer = layertrace.layer_metrics(spans)
                counts.append({m["name"]: layer[m["name"]] for m in spec["per_layer"]
                               if m["unit"] != "s" and m["name"] in layer
                               and not m["name"].endswith("_per_s")})
            report(counts[0] == counts[1], f"{name}: traced counts repeat exactly")

        layer_names = set(layertrace.layer_metrics([])) | {"trace.overhead_s"}
        spec_names = {m["name"] for m in spec["per_layer"]}
        report(layer_names == spec_names,
               "per-layer metrics match BENCHMARK.json"
               + (f" (differ: {sorted(layer_names ^ spec_names)})"
                  if layer_names != spec_names else ""))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
