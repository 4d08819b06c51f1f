#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records medians and quartiles.

Usage (from the repository root):

    python3 e2e_bench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                 [--record e2e_bench/RECORD.json]

For every workload and seed it runs the command in BENCHMARK.json with
`--workload <w> --seed <s> --seconds <run_seconds> --trace <t>`, parses the
JSON object on the last line of its output, and prints per metric the
median, the quartiles (`statistics.quantiles(values, n=4)`) and the spread
(Q3 - Q1) / median next to a third of the metric's bound. With `--record`
the summary is merged into that JSON file under the key
"<workload>/trace<t>".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, elapsed


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else float("inf"),
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--record")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)

    record = {}
    if args.record and os.path.exists(args.record):
        with open(args.record) as f:
            record = json.load(f)

    for workload in workloads:
        runs = []
        for seed in seeds:
            result, elapsed = run_once(bench, workload, seed, args.trace)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: output incorrect")
            runs.append((seed, result, elapsed))
            print(f"{workload} seed {seed}: {elapsed:.1f} s, "
                  f"attempted {result['attempted']} failed {result['failed']}", flush=True)
        names = list(runs[0][1]["metrics"])
        summary = {}
        for name in names:
            values = [r["metrics"][name]["value"] for _, r, _ in runs]
            summary[name] = dict(summarise(values), unit=runs[0][1]["metrics"][name]["unit"])
            s = summary[name]
            bound = bounds.get(name)
            flag = ""
            if args.trace == 0 and bound is not None and name != "setup_s":
                flag = "ok" if s["spread"] < bound / 3 else "WIDE"
            print(f"  {name:34} median {s['median']:.6g} {s['unit']:6} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} {flag}")
        record[f"{workload}/trace{args.trace}"] = {
            "host_nproc": os.cpu_count(),
            "runs": len(runs),
            "seeds": seeds,
            "run_seconds": bench["run_seconds"],
            "wall_s": [round(e, 1) for _, _, e in runs],
            "attempted": [r["attempted"] for _, r, _ in runs],
            "failed": [r["failed"] for _, r, _ in runs],
            "metrics": summary,
        }
        if args.record:
            with open(args.record, "w") as f:
                json.dump(record, f, indent=1, sort_keys=True)
                f.write("\n")


if __name__ == "__main__":
    main()
