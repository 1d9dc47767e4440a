#!/usr/bin/env python3
"""Runs the benchmark several times per workload and summarises each metric.

Each run uses another --seed (1, 2, ...). For every workload and metric the
summary gives the median, the first and third quartiles (as Python's
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median. Run from the repository
root:

    python3 perfbench/baseline.py --runs 10 --out perfbench/results/baseline.json

--trace 1 summarises the per-layer metrics of traced runs instead.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    record = json.loads(lines[-2])["record"]
    record["elapsed_s"] = elapsed
    return record, json.loads(lines[-1])


def summarise(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    listed = bench["per_layer" if args.trace else "end_to_end"]
    out = {"run_seconds": bench["run_seconds"], "runs": args.runs, "trace": args.trace, "workloads": {}}
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            record, result = run_once(w, seed, bench["run_seconds"], args.trace)
            runs.append({"seed": seed, "record": record, "result": result})
            print(f"{w} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} in {record['elapsed_s']:.1f} s", file=sys.stderr)
        metrics = {}
        for m in listed:
            s = summarise([r["result"]["metrics"][m["name"]]["value"] for r in runs])
            s["unit"] = m["unit"]
            if "bound" in m:
                s["bound"] = m["bound"]
            metrics[m["name"]] = s
            if not args.trace:
                print(f"  {w:12s} {m['name']:14s} median {s['median']:12.6g} {m['unit']:5s} "
                      f"spread {s['spread']:.4f} (bound {m['bound']})", file=sys.stderr)
        out["workloads"][w] = {
            "host": runs[0]["record"]["host"],
            "all_correct": all(r["result"]["correct"] for r in runs),
            "metrics": metrics,
            "runs": runs,
        }
    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
