#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics. From the root of a checkout:

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...]

Runs the benchmark once per seed (1..runs) on each workload, one run at a
time, and prints for every end-to-end metric the median of the runs and the
distance between the first and third quartiles as a share of the median,
next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for name in names:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{name} seed {seed}: run failed (exit {proc.returncode})")
                ok = False
                continue
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={result['metrics'][m]['value']:.6g}" for m in bounds)
                + f" run_s={elapsed:.1f}", flush=True)
        for m, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"{name:14s} {m:12s} median {med:12.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[m]:.2f}  min {min(vals):.6g}  max {max(vals):.6g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
