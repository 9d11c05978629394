#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 bench_e2e/steady.py --runs 10 --seed-base 1
    python3 bench_e2e/steady.py --workloads serve_stream --runs 5 \
        --seed-base 1 --compare-seed-base 1001

Runs each workload --runs times through run.py, one seed per run (seed-base,
seed-base + 1, …), and prints for every metric the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the interquartile spread
as a share of the median, next to the metric's end_to_end bound in
BENCHMARK.json. A spread below a third of the bound reads "steady".

With --compare-seed-base a second set runs on other seeds (the held-out
check) and each metric's median shift is printed: "ok" when the second
median is not worse than the first by more than the bound.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import summary  # noqa: E402


def run_set(workload, seeds, seconds):
    """{metric: [values]}, plus the runs that were not correct."""
    values, bad = {}, []
    for seed in seeds:
        start = time.time()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            bad.append((seed, "exit status %d" % out.returncode))
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            bad.append((seed, "%d of %d failed" % (result["failed"],
                                                   result["attempted"])))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("  %s seed %d: %.0fs" % (workload, seed, time.time() - start),
              file=sys.stderr)
    return values, bad


def worse_by(spec, first, second):
    """How much worse the second median is than the first, as a share."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if spec["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--compare-seed-base", type=int)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    metric_specs = {m["name"]: m for m in spec["end_to_end"]}

    for workload in workloads:
        seeds = [args.seed_base + i for i in range(args.runs)]
        first, bad = run_set(workload, seeds, seconds)
        second = None
        if args.compare_seed_base is not None:
            seeds2 = [args.compare_seed_base + i for i in range(args.runs)]
            second, bad2 = run_set(workload, seeds2, seconds)
            bad += bad2
        print("%s: %d runs per set, %gs each" % (workload, args.runs, seconds))
        for seed, why in bad:
            print("  NOT CORRECT: seed %d: %s" % (seed, why))
        print("  %-34s %12s %12s %12s %8s %6s %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, vals in first.items():
            s = metric_specs.get(name, {})
            bound = s.get("bound")
            if len(vals) < 2:
                print("  %-34s %12.6g (one run)" % (name, vals[0]))
                continue
            median, q1, q3, spread = summary.quartile_spread(vals)
            verdict = ""
            if bound is not None:
                verdict = "steady" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO NOISY")
            line = "  %-34s %12.6g %12.6g %12.6g %7.1f%% %6s %s" % (
                name, median, q1, q3, 100 * spread,
                "" if bound is None else "%g" % bound, verdict)
            if second and name in second and len(second[name]) >= 2:
                median2, _, _, spread2 = summary.quartile_spread(second[name])
                shift = worse_by(s, median, median2) if s.get("better") else 0
                ok = bound is None or shift <= bound
                line += (" | held-out median %.6g spread %.1f%% "
                         "(%+.1f%% worse) %s") % (
                    median2, 100 * spread2, 100 * shift,
                    "ok" if ok else "WORSE THAN BOUND")
            print(line)


if __name__ == "__main__":
    main()
