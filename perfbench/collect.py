#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py --out perfbench/baseline.json

For each workload in BENCHMARK.json it makes one untraced run per seed in
SEEDS, one after another, and reports each end-to-end metric's median,
quartiles and spread (interquartile range over median) next to its bound.  It
then makes one traced run on TRACED_SEED for the per-layer split and every
solve's selection digest.  Its iteration counts and certificate outcomes must
equal those of the untraced run on the same seed, and so must its digests where
the untraced run kept traces.  A run that fails the correctness gate, or a
traced run that differs, is kept in the output and makes the command exit 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACED_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return {"seed": seed, "exit": proc.returncode, "elapsed_s": time.monotonic() - start,
            "result": json.loads(lines[-1]),
            "detail": json.loads(lines[-2])["detail"]}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, ok = {}, True
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(name, seed, spec["run_seconds"], 0) for seed in SEEDS]
        ok &= all(r["exit"] == 0 and r["result"]["correct"] for r in runs)
        end_to_end = {}
        for metric, bound in bounds.items():
            stats = spread([r["result"]["metrics"][metric]["value"] for r in runs])
            end_to_end[metric] = {**stats, "bound": bound,
                                  "unit": runs[0]["result"]["metrics"][metric]["unit"]}
            print(f"{name:17s} {metric:14s} median {stats['median']:10.4f} "
                  f"spread {stats['spread']:.3f} (bound {bound})", file=sys.stderr)
        entry = {
            "end_to_end": end_to_end,
            "all_metrics": {r["seed"]: r["detail"]["metrics"] for r in runs},
            "iters": {r["seed"]: r["detail"]["iters"] for r in runs},
            "certificates": {r["seed"]: r["detail"]["certificates"] for r in runs},
            "digests": {r["seed"]: r["detail"]["digests"] for r in runs},
            "solves": {r["seed"]: r["detail"]["solves"] for r in runs},
            "elapsed_s": {r["seed"]: r["elapsed_s"] for r in runs},
            "environment": runs[0]["detail"]["environment"],
        }
        traced = run_once(name, TRACED_SEED, spec["run_seconds"], 1)
        untraced = next(r for r in runs if r["seed"] == TRACED_SEED)
        same = all(traced["detail"][key] == untraced["detail"][key]
                   for key in ("iters", "certificates")) and all(
            digests in (None, traced["detail"]["digests"][label])
            for label, digests in untraced["detail"]["digests"].items())
        if not same:
            print(f"{name}: traced run differs from untraced seed {TRACED_SEED}", file=sys.stderr)
        ok &= same and traced["exit"] == 0 and traced["result"]["correct"]
        entry["per_layer"] = {"seed": TRACED_SEED, **traced["detail"]["metrics"]}
        entry["per_layer_iters"] = traced["detail"]["iters"]
        entry["per_layer_digests"] = traced["detail"]["digests"]
        entry["per_layer_elapsed_s"] = traced["elapsed_s"]
        summary[name] = entry
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
