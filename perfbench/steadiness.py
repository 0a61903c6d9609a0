#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's run-to-run spread.

The spread is the distance between the first and third quartile of a
metric's values, as statistics.quantiles(values, n=4) gives them, as a share
of their median -- the figure a metric's bound in BENCHMARK.json is held
against. Run from the root of a checkout:

    python3 perfbench/steadiness.py --workloads read-hot,tree-paced,sessions \
        --seeds 1-10 --out perfbench/steadiness.json

Runs are sequential; each prints its result line, and a table of medians
and spreads over the runs that completed follows. A run that exits with an
error is reported and counted, and the script exits 1. --out writes every
run's metrics and the spreads.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    if proc.returncode != 0:
        print(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}", file=sys.stderr)
        return None, wall, {"exit": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0])["env"] if lines and lines[0].startswith('{"env"') else {}
    return json.loads(lines[-1]), wall, env


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="read-hot,tree-paced,sessions")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            res, wall, env = run_once(bench, workload, seed)
            runs.append({"seed": seed, "wall_s": round(wall, 2), "env": env, "result": res})
            if res is None:
                print(f"{workload} seed={seed} wall={wall:.1f}s FAILED exit={env['exit']}", flush=True)
                ok = False
                continue
            print(f"{workload} seed={seed} wall={wall:.1f}s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
            ok = ok and res["correct"]
        table = {}
        print(f"\n{workload}: {'metric':32} {'median':>14} {'spread':>8} {'bound':>6}")
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs if r["result"]]
            sp = spread(values) if len(values) >= 2 else 0.0
            bound = bounds[name]
            flag = ""
            if name != "setup_s" and sp > bound / 3:
                flag = "  > bound/3"
            table[name] = {"median": statistics.median(values), "spread": sp,
                           "min": min(values), "max": max(values), "bound": bound}
            print(f"{workload}: {name:32} {statistics.median(values):14.4f} {sp:8.4f} {bound:6.2f}{flag}")
        print()
        report["workloads"][workload] = {"runs": runs, "spread": table,
                                         "failed_runs": sum(1 for r in runs if r["result"] is None)}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
