"""Check that two sets of benchmark runs of the same code agree.

    python3 perfbench/steady.py [--workload compose ...] [--out runs.jsonl]

Run from the root of a checkout.  Each workload is run RUNS times in each of
two sets, every run with its own seed (set k, run i gets seed k * RUNS + i + 1).
For every workload and end-to-end metric it prints each set's median and
quartile spread (as a share of the median) and the distance of the second
set's median from the first's, |m2 - m1| / m1, against the bounds in
BENCHMARK.json: a spread or a distance above its bound, an incorrect run, or
a different share of failed ops between the sets is reported and makes the
exit code 1.  Raw results are appended to --out as JSON lines.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10


def run_once(cmd, workload, seed, seconds):
    proc = subprocess.run(
        [*cmd, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    out = args.out.open("a") if args.out else None
    try:
        for wl in workloads:
            sets = []
            for k in range(SETS):
                rows = []
                for i in range(RUNS):
                    row = run_once(bench["command"], wl, k * RUNS + i + 1,
                                   bench["run_seconds"])
                    if out:
                        out.write(json.dumps({"workload": wl, "set": k, **row}) + "\n")
                        out.flush()
                    rows.append(row)
                sets.append(rows)
            fail_shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                           for s in sets]
            correct = all(r["correct"] for s in sets for r in s)
            print(f"{wl}: correct {correct}, failed share "
                  + " ".join(f"{x:.6f}" for x in fail_shares))
            ok &= correct and fail_shares[0] == fail_shares[1]
            for m in bench["end_to_end"]:
                name, bound = m["name"], m["bound"]
                vals = [[r["metrics"][name]["value"] for r in s] for s in sets]
                meds = [statistics.median(v) for v in vals]
                spreads = [spread(v) for v in vals]
                distance = abs(meds[1] - meds[0]) / meds[0]
                bad = distance > bound or max(spreads) > bound
                ok &= not bad
                print(f"  {name:12s} bound {bound:5.2f}  medians "
                      + " ".join(f"{x:10.4f}" for x in meds)
                      + "  spreads " + " ".join(f"{x:.4f}" for x in spreads)
                      + f"  distance {distance:.4f}" + ("  FAIL" if bad else ""))
    finally:
        if out:
            out.close()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
