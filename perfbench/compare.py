#!/usr/bin/env python3
"""Compare two source trees on one workload with paired benchmark runs.

    python3 perfbench/compare.py BASE NEW --workload router-64b-overload \
        --pairs 10 --seconds 40

BASE and NEW are checkouts that each hold src/ and perfbench/. Both runs
of a pair use the same seed and follow each other, so a slow stretch of a
shared host lands on both sides alike; which side runs first alternates
from pair to pair. For each end-to-end metric it prints each side's
median and spread ((Q3 - Q1) / median), the median of the per-pair
ratios new / base, and in how many pairs new was better (direction from
NEW's BENCHMARK.json). The paired ratio resolves differences far smaller
than two sets of runs made minutes apart. Any run that fails or reports
incorrect output makes the command exit 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def bench(tree, workload, seed, seconds):
    """One `perfbench/run.py --trace 0` run in @tree; returns its metrics."""
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if p.returncode == 0 and lines else None
    if not res or not res["correct"]:
        raise RuntimeError("run failed in %s (exit %d)" % (tree, p.returncode))
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def summarize(base, new, lower_is_better):
    """Per metric: (base median, base spread, new median, new spread,
    median of new/base ratios, pairs where new is better) over paired
    runs (lists of metric dicts). Ties count for neither side."""
    out = {}
    for name in base[0]:
        b = [r[name] for r in base]
        n = [r[name] for r in new]
        sign = -1 if lower_is_better[name] else 1
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, n))
        out[name] = (statistics.median(b), spread(b), statistics.median(n),
                     spread(n),
                     statistics.median(y / x for x, y in zip(b, n)), wins)
    return out


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    with open(os.path.join(args.new, "BENCHMARK.json")) as f:
        lower = {m["name"]: m["better"] == "lower"
                 for m in json.load(f)["end_to_end"]}
    base, new = [], []
    try:
        for i in range(args.pairs):
            seed = args.first_seed + i
            sides = [(args.base, base), (args.new, new)]
            for tree, out in sides[::-1] if i % 2 else sides:
                out.append(bench(tree, args.workload, seed, args.seconds))
            print("pair %d (seed %d) done" % (i + 1, seed), file=sys.stderr,
                  flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print("compare: %s" % e, file=sys.stderr)
        return 1

    print("%-12s %12s %7s %12s %7s %9s %10s"
          % ("metric", "base", "spread", "new", "spread", "new/base",
             "new better"))
    for name, (bm, bs, nm, ns, ratio, wins) in summarize(
            base, new, lower).items():
        print("%-12s %12.6g %7.3f %12.6g %7.3f %9.4f %6d/%d"
              % (name, bm, bs, nm, ns, ratio, wins, args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
