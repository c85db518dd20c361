#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workloads sweep,ablation --seeds 1-10 \
        [--seconds 20] [--out .perfbench/spread.json]

Runs ``perfbench/run.py`` once per workload and seed, one after the
other, then prints for every end-to-end metric the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, next to the bound that
BENCHMARK.json fixes.  A spread at or above a third of its bound is
flagged; ``setup_s`` is reported but is not held to its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float)
    p.add_argument("--out")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}", flush=True)
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["info"] = json.loads(lines[-2])["info"] if len(lines) > 1 else {}
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary[workload] = {"runs": runs, "metrics": spread(runs, bounds)}
        report(workload, summary[workload]["metrics"])

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


def spread(runs, bounds):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else float("inf")
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": share,
            "bound": bounds.get(name),
            "values": values,
        }
    return out


def report(workload, metrics):
    print(f"\n{workload}")
    print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, m in metrics.items():
        bound = m["bound"]
        flag = ""
        if bound is not None and name != "setup_s" and m["spread"] >= bound / 3:
            flag = "  <-- over a third of the bound"
        print(f"  {name:18s} {m['median']:12.6g} {m['q1']:12.6g} {m['q3']:12.6g} "
              f"{m['spread']:8.4f} {bound!s:>6s}{flag}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
