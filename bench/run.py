#!/usr/bin/env python3
"""Benchmark of the bayesminimax two-way pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/bayesminimax`` and
``BENCHMARK.json`` next to ``bench/``).  One process runs one workload of
``workloads.py``, single-threaded in Python, with BLAS/OpenMP threads capped
at the CPUs available (default 1):

1. set-up is measured in fresh interpreter processes, from spawn to the end
   of the workload's set-up (imports plus every prior and profile it builds);
2. timed passes of the workload run for ``--seconds`` seconds;
3. with ``--trace 1`` a fresh copy of the workload is set up and run once
   more under the outside-in layer trace of ``layertrace.py``;
4. the output gate of ``gate.py`` judges every operation of every pass.

The last line of standard output is the result, with the ``end_to_end``
metrics of ``BENCHMARK.json`` (``--trace 0``) or its ``per_layer`` metrics
(``--trace 1``).  The line before it is a detail record for ``compare.py``:
provenance, sizes, every pass time with quartiles, gate failures and, when
traced, the tracing overhead and all layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="bayesminimax benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", default=None,
                   help=argparse.SUPPRESS)  # internal: one set-up in a fresh process
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def limit_threads() -> dict:
    """Cap BLAS/OpenMP threads at the available CPUs; default to one."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), ncpu) if cur.isdigit() and int(cur) > 0 else 1)
    return {var: os.environ[var] for var in THREAD_VARS}


def quartiles(values) -> dict:
    """Median, quartiles and range of timing samples (kept in run order)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "samples": list(values)}


def provenance(args, threads) -> dict:
    import numpy
    import scipy
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "threads": threads,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def _git_commit():
    """HEAD commit when the tree is a git checkout, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bayesminimax").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup_probe(args) -> int:
    """Child side of a set-up measurement: set up, then report the clock."""
    import workloads
    workloads.make(args.workload, args.seed).prepare(Path(args.setup_probe))
    print(repr(time.monotonic()))
    return 0


def measure_setup(args, workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up.

    CLOCK_MONOTONIC (``time.monotonic`` on Linux) is shared by all processes.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", str(workdir)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def timed_passes(wl, seconds: float):
    """Run passes until ``seconds`` have elapsed; returns (walls, outputs, errors)."""
    walls, outputs, errors = [], [], []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            wl.run_pass()
            ok = True
        except Exception:  # a pass that raises counts all its operations as failed
            errors.append(traceback.format_exc())
            ok = False
        walls.append(time.perf_counter() - t0)
        outputs.append(wl.collect() if ok else None)
        if time.perf_counter() - begin >= seconds:
            return walls, outputs, errors


def select_metrics(spec_metrics, values: dict) -> dict:
    """The result's metrics: exactly the names of BENCHMARK.json, with units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def run(args, threads, workdir: Path) -> dict:
    import gate
    import layertrace
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = gate.load_pins()
    setup = [measure_setup(args, workdir / f"probe{i}") for i in range(SETUP_PROBES)]

    wl = workloads.make(args.workload, args.seed)
    wl.prepare(workdir / "main")
    walls, outputs, errors = timed_passes(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    detail = {
        "bench": "bayesminimax",
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args, threads),
        "sizes": wl.sizes,
        "ops_per_pass": len(wl.ops),
        "samples_per_pass": wl.samples_per_pass,
        "wall_s": quartiles(walls),
        "run_s": {tag: quartiles([out[tag]["seconds"] for out in outputs if out])
                  for tag in (outputs[0] or {})},
        "setup_s": quartiles(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    if wl.samples_per_pass:
        detail["mc_samples_per_s"] = wl.samples_per_pass / detail["wall_s"]["median"]

    if args.trace:
        spans, traced_out = layertrace.trace_workload(
            workloads.make(args.workload, args.seed), workdir / "traced")
        outputs.append(traced_out)
        layer = layertrace.layer_metrics(spans)
        traced_wall = layertrace.phase_seconds(spans, "bench.pass")
        layer["trace.overhead_s"] = traced_wall - detail["wall_s"]["median"]
        pinned = pins["counts"]
        detail["traced"] = {"wall_s": traced_wall,
                            "setup_s": layertrace.phase_seconds(spans, "bench.setup"),
                            "overhead_s": layer["trace.overhead_s"],
                            "spans": len(spans), "layers": layer,
                            "pinned_counts": {
                                "seed": pinned["seed"],
                                "counts": {m: {"value": layer[m],
                                               "pinned": pinned[args.workload][m]}
                                           for m in gate.PINNED_COUNTS[args.workload]}}}
        metrics = select_metrics(spec["per_layer"], layer)
    else:
        metrics = select_metrics(spec["end_to_end"], {
            "wall_s": detail["wall_s"]["median"],
            "setup_s": detail["setup_s"]["median"],
            "peak_rss_mb": peak_rss_mb,
        })

    judge = gate.Gate(wl, pins)
    verdicts = [judge.judge_pass(out) for out in outputs]
    attempted = sum(len(v) for v in verdicts)
    failed = sum(1 for v in verdicts for msgs in v if msgs)
    detail["gate"] = {
        "passes": len(outputs),
        "failures": sorted({f"{op}: {m}" for v in verdicts
                            for op, msgs in zip(wl.ops, v) for m in msgs}),
        "errors": errors,
    }
    print(json.dumps(detail))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bayesminimax" / "__init__.py").is_file():
        print(f"no source tree: {ROOT / 'src' / 'bayesminimax'} is missing", file=sys.stderr)
        return 2
    threads = limit_threads()  # before numpy is imported
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    if args.setup_probe:
        return setup_probe(args)

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        result = run(args, threads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
