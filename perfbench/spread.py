#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload chain3 --runs 10 [--seconds 20] [--trace 0]

Runs from the repository root, one run at a time, seeds 1..runs (or
--first-seed onward). For every metric it prints the median, the quartiles
as `statistics.quantiles(values, n=4)` gives them, and the spread
(Q3 - Q1) / median, which is what a metric's `bound` in BENCHMARK.json is
compared with. Appends each run's result line to --log if given.
"""

import argparse
import json
import statistics
import subprocess
import sys

p = argparse.ArgumentParser()
p.add_argument("--workload", required=True)
p.add_argument("--runs", type=int, default=5)
p.add_argument("--first-seed", type=int, default=1)
p.add_argument("--seconds", type=int, default=None)
p.add_argument("--trace", default="0")
p.add_argument("--log")
a = p.parse_args()

bench = json.load(open("BENCHMARK.json"))
seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
values = {}
for seed in range(a.first_seed, a.first_seed + a.runs):
    cmd = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", a.trace]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if a.log:
        with open(a.log, "a") as f:
            f.write(json.dumps({"workload": a.workload, "seed": seed, "result": result,
                                "record": json.loads(lines[-2])["record"] if len(lines) > 1 else None}) + "\n")
    for name, m in result["metrics"].items():
        values.setdefault(name, []).append(m["value"])
    print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)

for name, v in values.items():
    if len(v) < 2:
        continue
    q1, q2, q3 = statistics.quantiles(v, n=4)
    med = statistics.median(v)
    spread = (q3 - q1) / med if med else float("nan")
    print(f"{name:32s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
