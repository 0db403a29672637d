#!/usr/bin/env python3
"""Run the benchmark several times per workload, each time with another
seed, and report each end-to-end metric's median, quartiles and spread
(interquartile distance over the median, by statistics.quantiles) next
to its bound from BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1000]
                                    [--workload NAME ...]

Run it from the repository root. The benchmark command and run length
come from BENCHMARK.json. A spread at or above a third of the metric's
bound is flagged."""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.seed_base + i
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            t0 = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = vs[0]
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not spread < bound / 3:
                flag = "  <-- spread >= bound/3"
            print(f"  {name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
