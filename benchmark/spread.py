#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json several times per workload, each run
with the next seed, and prints for every metric its median, quartiles
and spread (the distance between the quartiles as a share of the
median, by Python's statistics.quantiles). A spread should stay below a
third of the metric's bound, and must stay within it. It also splits
the runs into two alternating halves and prints how far apart their
medians are, which must stay within the bound. Bounds are calibrated
as max(first bound, 2 x spread), over every workload and pass.

Run from the repository root:

    python3 benchmark/spread.py [--runs 10] [--first-seed 1]
                                [--workload NAME ...] [--seconds S]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{out.stdout[-2000:]}")
    return result["metrics"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / q2


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    summary = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = [run_once(bench["command"], workload, args.first_seed + i, args.seconds)
                for i in range(args.runs)]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name]["value"] for r in runs]
            median = statistics.median(values)
            q1, q3, iqr = spread(values)
            halves = [statistics.median(values[0::2]), statistics.median(values[1::2])]
            apart = abs(halves[0] - halves[1]) / min(halves)
            if iqr > bound or apart > bound:
                verdict = "OUT"
            elif iqr >= bound / 3:
                verdict = "wide"
            else:
                verdict = "ok"
            print(f"{workload:16} {name:12} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {iqr:.4f} halves {apart:.4f} "
                  f"bound {bound} {verdict}", flush=True)
            summary.setdefault(workload, {})[name] = {
                "median": median, "q1": q1, "q3": q3, "spread": iqr,
                "halves_apart": apart, "values": values}
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
