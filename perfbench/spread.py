#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload dse-tabu --seeds 1-10 [--seconds 30] [--trace 0]

For each metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a
share of that median, next to the metric's bound from BENCHMARK.json.
With --overhead it also runs the traced variant of every seed and prints
the tracing overhead: the traced runs' median throughput against the
untraced runs' median.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--overhead", action="store_true")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    seconds = args.seconds or manifest["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in manifest[kind]}

    values = {}
    traced = []
    for seed in parse_seeds(args.seeds):
        if args.overhead:
            result, _ = run_once(args.workload, seed, seconds, 1)
            traced.append(result["metrics"]["trace.throughput_ops_s"]["value"])
        result, notes = run_once(args.workload, seed, seconds, args.trace)
        if args.verbose:
            print("\n".join(n for n in notes if not n.startswith("  ") or "samples" in n or "overhead" in n))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    print(f"{'metric':30} {'median':>14} {'iqr/median':>11} {'bound':>7}")
    for name in bounds:
        vals = values.get(name, [])
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  above a third of the bound"
        print(f"{name:30} {med:14.6g} {spread:11.4f} {bound if bound is not None else '':>7}{flag}")
    if traced and "throughput_ops_s" in values:
        untraced = statistics.median(values["throughput_ops_s"])
        print(f"tracing overhead: traced median {statistics.median(traced):.6g} ops/s against "
              f"untraced {untraced:.6g} ops/s, {100 * (1 - statistics.median(traced) / untraced):.1f}% fewer")


if __name__ == "__main__":
    main()
