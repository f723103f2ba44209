#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and spread.

    python3 benchmarks/spread.py --workloads bulk-band64 --seeds 1-10 --seconds 55 \
        [--trace 0] [--out benchmarks/results/spread.json]

Spread is the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, the figure
the benchmark's bounds in BENCHMARK.json are checked against.  Runs are
sequential, so only one sweep runs at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    probe = [ln for ln in done.stderr.splitlines() if ln.startswith("host probe")]
    result["wall_s"] = wall
    result["probe"] = probe[0] if probe else ""
    return result


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated")
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            res = run_once(workload, seed, args.seconds, args.trace)
            res["seed"] = seed
            runs.append(res)
            shown = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()
                             if args.trace == 0 or k.startswith(("trace.", "sweep.")))
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} wall={res['wall_s']:.1f}s {shown}", flush=True)
        names = runs[0]["metrics"]
        stats = {}
        for name in names:
            med, rel = spread([r["metrics"][name]["value"] for r in runs])
            stats[name] = {"median": med, "iqr_share": rel, "unit": names[name]["unit"]}
            if args.trace == 0:
                print(f"  {name}: median {med:.6g}, IQR/median {rel:.4f}", flush=True)
        summary[workload] = {"runs": runs, "stats": stats,
                             "all_correct": all(r["correct"] for r in runs)}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seconds": args.seconds, "trace": args.trace, "workloads": summary},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
