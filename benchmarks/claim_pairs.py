"""Run alternated parent/change perfbench pairs on one workload and test a gain.

    python3 benchmarks/claim_pairs.py WORKLOAD PARENT_DIR CHANGE_DIR --pairs 10

Pair i runs ``perfbench/run.py --workload WORKLOAD --seed i`` untraced, for
BENCHMARK.json's ``run_seconds``, once from each checkout; the side that runs
first alternates from pair to pair.  For every end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, the change's wins
out of the pairs (a tie counts for neither side) and whether the gain rule
holds: the change wins at least nine tenths of the pairs, and its median is
better than the parent's by more than the distance between the parent's
quartiles.  Failed operations are printed per side, because a gain does not
count when more operations fail.  Uses only the standard library.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_record import _run


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summary(metric, parent, change):
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (new - old) > 0 for old, new in zip(parent, change))
    p = (statistics.median(parent), *_quartiles(parent))
    c = (statistics.median(change), *_quartiles(change))
    holds = wins >= 0.9 * len(parent) and sign * (c[0] - p[0]) > p[2] - p[1]
    return wins, holds, p, c


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload", help="a workload named in BENCHMARK.json")
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10, help="pairs to run, seeds 1..N (default 10)")
    args = ap.parse_args(argv)
    roots = [args.parent.resolve(), args.change.resolve()]
    spec = json.loads((roots[0] / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    seconds = spec["run_seconds"]
    runs = {root: [] for root in roots}
    for seed in range(1, args.pairs + 1):
        order = roots if seed % 2 else roots[::-1]
        for root in order:
            run = _run(root, args.workload, seed, 0, seconds)
            runs[root].append(run)
            print(f"seed {seed} {'parent' if root == roots[0] else 'change'}: "
                  f"ops_per_s {run['metrics']['ops_per_s']:.2f}, "
                  f"{run['failed']}/{run['attempted']} failed", file=sys.stderr)
    parent, change = runs[roots[0]], runs[roots[1]]
    print(f"{args.workload}: {args.pairs} alternated pairs of {seconds} s runs, "
          f"seeds 1-{args.pairs}")
    print(f"{'metric':<12} {'better':<7} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} wins  rule")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        wins, holds, p, c = _summary(metric, [r["metrics"][name] for r in parent],
                                     [r["metrics"][name] for r in change])
        print(f"{name:<12} {metric['better']:<7} "
              f"{'%.4g [%.4g, %.4g]' % p:<30} {'%.4g [%.4g, %.4g]' % c:<30} "
              f"{wins:>2}/{args.pairs} {'holds' if holds else 'not met'}")
    for label, side in (("parent", parent), ("change", change)):
        print(f"{label}: {sum(r['failed'] for r in side)} of "
              f"{sum(r['attempted'] for r in side)} ops failed, "
              f"correct in {sum(r['correct'] for r in side)} of {len(side)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
