#!/usr/bin/env python3
"""Print and compare benchmark results.

    python3 bench/compare.py RESULTS...
    python3 bench/compare.py --base RESULTS... --change RESULTS...

RESULTS are files (or directories of files) holding the standard output of
``bench/run.py`` runs, any number per file.  Each run contributes its detail
line and its result line.

With one set, every metric of every workload is printed by name with its unit:
median and quartiles over the runs, and the failure fraction.  With two sets
(parent as ``--base``, change as ``--change``), each end-to-end metric of
each workload gets both medians and quartiles, the ratio change/base with its
base, and a verdict judged against the bounds in ``BENCHMARK.json``:

* ``improved``: every change run beats every base run, or the change wins at
  least 9 of 10 seed-paired runs and the medians differ by more than the
  base runs' interquartile range;
* ``worse``: the change median is worse than the base median by more than
  the bound;
* ``unresolved``: either side's spread (IQR / median) exceeds the bound;
* ``unchanged``: otherwise.

Per-layer metrics (from traced runs) are printed side by side without a
verdict; a count that differs between the sets is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_runs(paths) -> dict:
    """{workload: [run, ...]} with run = detail record plus 'result'."""
    files = []
    for p in map(Path, paths):
        files.extend(sorted(f for f in p.rglob("*") if f.is_file()) if p.is_dir() else [p])
    runs = {}
    for f in files:
        detail = None
        for line in f.read_text().splitlines():
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict) and doc.get("bench") == "bayesminimax":
                detail = doc
            elif isinstance(doc, dict) and set(doc) == RESULT_KEYS and detail is not None:
                runs.setdefault(detail["workload"], []).append(dict(detail, result=doc))
                detail = None
    return runs


def summary(values) -> dict:
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def series(runs, traced: bool, name: str) -> dict:
    """{seed: value} of one metric over the traced or untraced runs."""
    out = {}
    for r in runs:
        metrics = r["result"]["metrics"]
        if bool(r["trace"]) == traced and name in metrics:
            out.setdefault(r["provenance"]["seed"], []).append(metrics[name]["value"])
    return {seed: statistics.median(v) for seed, v in out.items()}


def fail_frac(runs) -> str:
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    return f"{failed}/{attempted}" + (f" = {failed / attempted:.4f}" if attempted else "")


def verdict(base: dict, change: dict, bound: float, lower_is_better: bool) -> str:
    b, c = summary(list(base.values())), summary(list(change.values()))
    sign = 1.0 if lower_is_better else -1.0
    if sign * max(c["values"]) < sign * min(b["values"]):
        return "improved"
    if max(b["spread"], c["spread"]) > bound:
        return "unresolved"
    if sign * (c["median"] - b["median"]) > bound * abs(b["median"]):
        return "worse"
    seeds = sorted(set(base) & set(change))
    wins = sum(1 for s in seeds if sign * change[s] < sign * base[s])
    if seeds and wins >= 0.9 * len(seeds) and abs(c["median"] - b["median"]) > b["q3"] - b["q1"]:
        return "improved"
    return "unchanged"


def _fmt(s: dict) -> str:
    return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}"


def print_one(runs: dict, spec: dict) -> None:
    for wl in sorted(runs):
        rs = runs[wl]
        print(f"== {wl}: {len(rs)} runs, failed/attempted {fail_frac(rs)}")
        for traced, kind in ((False, "end_to_end"), (True, "per_layer")):
            for m in spec[kind]:
                vals = series(rs, traced, m["name"])
                if vals:
                    s = summary(list(vals.values()))
                    print(f"  {m['name']:<58} {_fmt(s)} {m['unit']}  spread {s['spread']:.3f}")
        extra = [r["mc_samples_per_s"] for r in rs if "mc_samples_per_s" in r]
        if extra:
            print(f"  {'mc_samples_per_s (untraced, samples / median pass)':<58} "
                  f"{_fmt(summary(extra))} 1/s")


def print_two(base: dict, change: dict, spec: dict) -> int:
    worse = 0
    for wl in sorted(set(base) | set(change)):
        b_runs, c_runs = base.get(wl, []), change.get(wl, [])
        print(f"== {wl}: base {len(b_runs)} runs (failed {fail_frac(b_runs)}), "
              f"change {len(c_runs)} runs (failed {fail_frac(c_runs)})")
        for m in spec["end_to_end"]:
            b, c = series(b_runs, False, m["name"]), series(c_runs, False, m["name"])
            if not b or not c:
                print(f"  {m['name']:<12} missing on one side")
                continue
            bs, cs = summary(list(b.values())), summary(list(c.values()))
            v = verdict(b, c, m["bound"], m["better"] == "lower")
            worse += v == "worse"
            print(f"  {m['name']:<12} base {_fmt(bs)} {m['unit']} | change {_fmt(cs)} "
                  f"{m['unit']} | ratio {cs['median'] / bs['median']:.4f} of base "
                  f"{bs['median']:.6g} | bound {m['bound']} | {v}")
        for m in spec["per_layer"]:
            b, c = series(b_runs, True, m["name"]), series(c_runs, True, m["name"])
            if not b and not c:
                continue
            bm = statistics.median(b.values()) if b else float("nan")
            cm = statistics.median(c.values()) if c else float("nan")
            flag = "  (count changed)" if m["unit"] == "count" and bm != cm else ""
            ratio = f"{cm / bm:.4f}" if bm else "-"
            print(f"    {m['name']:<58} {bm:.6g} -> {cm:.6g} {m['unit']} "
                  f"ratio {ratio}{flag}")
    return 1 if worse else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("results", nargs="*", help="one result set")
    p.add_argument("--base", nargs="+", help="parent result set")
    p.add_argument("--change", nargs="+", help="changed result set")
    p.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = p.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text())
    if args.base or args.change:
        if not (args.base and args.change) or args.results:
            p.error("give both --base and --change, and no other results")
        return print_two(load_runs(args.base), load_runs(args.change), spec)
    if not args.results:
        p.error("no results given")
    print_one(load_runs(args.results), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
