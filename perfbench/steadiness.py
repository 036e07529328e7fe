#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how steady each metric is.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --seeds 1-10
    python3 perfbench/steadiness.py --seeds 1-5 --workloads control_plane
    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/baseline.json

Each (workload, seed) pair is one run of ``perfbench/run.py`` with the
``run_seconds`` of ``BENCHMARK.json``; the seeds form the outer loop, so a
burst of noise on the machine lands on every workload alike.  For every
end-to-end metric the script prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median (the spread), next to the metric's bound.  A spread below a third of
the bound is marked ``steady``.  ``--out`` writes the same figures as JSON.
Any failed run stops the script with a non-zero status.
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
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stdout}{out.stderr}")
    summary = json.loads(lines[-1])
    if not summary["correct"] or summary["failed"] != 0:
        sys.exit(f"{workload} seed {seed} reported a failure:\n{out.stdout}")
    return summary


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in bench["workloads"]),
        help="comma-separated workload names",
    )
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write the medians and spreads here as JSON")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    for seed in seeds:
        for w in workloads:
            summary = run_once(w, seed, args.seconds, args.trace)
            shown = []
            for name, m in summary["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                shown.append(f"{name}={m['value']:.6g}")
            print(f"seed {seed} {w}: " + " ".join(shown), flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    print()
    print(f"{'workload':16} {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} bound")
    for w in workloads:
        report["workloads"][w] = {}
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "steady" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
            report["workloads"][w][name] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "values": vals,
            }
            print(
                f"{w:16} {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                f"{bound if bound is not None else '-'} {verdict}"
            )
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
