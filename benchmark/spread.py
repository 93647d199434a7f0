#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmark/spread.py --runs 10 [--workload fresh_large ...] [--first-seed 1]

Run it from the root of a checkout. For every workload it runs
`benchmark/run.py` once per seed, then prints for each end-to-end metric
the median and the quartile spread (the distance between the first and
third quartile from `statistics.quantiles(values, n=4)`, as a share of
the median) next to the metric's bound in `BENCHMARK.json`. A spread
above the bound means two sets of runs of the same commit can disagree
by more than a regression is allowed to cost. A run the benchmark
declares invalid (exit 3: the host stalled it in too many rounds)
reports nothing; it is listed, and the verdict fails, since a set of
runs with a hole in it cannot show the benchmark is steady. Exits 1
when any spread exceeds its bound or any run was invalid.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 3:
        # Invalid: the host, not the server, would have set the figures.
        return None
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    worst = 0.0
    invalid = 0
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, bench["run_seconds"], args.trace)
            if result is None:
                print(f"{workload} seed {seed}: invalid run (too few valid rounds)", flush=True)
                invalid += 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{workload}: {len(next(iter(values.values()), []))} of {args.runs} runs reported")
        print(f"  {'metric':<28} {'median':>14} {'spread':>8} {'bound':>6}")
        for m in metrics:
            vals = values.get(m["name"], [])
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            if bound is not None:
                worst = max(worst, spread / bound)
            print(f"  {m['name']:<28} {med:>14.4f} {spread:>8.4f} {bound if bound is not None else '':>6}")
        print()
    if not args.trace:
        print(f"largest spread / bound: {worst:.3f}; invalid runs: {invalid}")
    return 1 if invalid or worst > 1.0 else 0


if __name__ == "__main__":
    sys.exit(main())
