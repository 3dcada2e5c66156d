"""Compare the outputs of every perfbench op between two source checkouts.

    python3 benchmarks/op_digests.py CHECKOUT                # print its lines
    python3 benchmarks/op_digests.py PARENT_DIR CHANGE_DIR   # print the lines that differ

For every workload in BENCHMARK.json and seeds 1-3, runs each op of the
round once, in a fresh ``python3`` per checkout with one BLAS thread and that
checkout's ``src/`` and ``perfbench/`` first on ``sys.path``.  One line per
op: the workload, the seed, the op name, and either one ``key=value`` per
output key, or the error it raised.  A float, int or str value prints as its
``repr``, which round-trips, so a differing line shows how far it moved; any
other value (arrays, lists, tuples) prints as ``perfbench/run.py``'s
``_digest`` of that key alone, every bit of every array.  Either way a diff
names the fields that moved.  With two checkouts, prints the pairs of lines
that differ (``-`` the first checkout's, ``+`` the second's) and a count on
stderr, and exits 1 if any differ.  Uses only the standard library.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 2, 3)

_OPS = r"""
import sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import run, workloads
for name in sys.argv[2].split(","):
    for seed in map(int, sys.argv[3].split(",")):
        for op in workloads.WORKLOADS[name](seed).ops:
            try:
                out = op.run()
                result = " ".join(
                    f"{k}={out[k]!r}" if isinstance(out[k], (float, int, str))
                    else f"{k}={run._digest({k: out[k]})}"
                    for k in sorted(out) if not k.startswith("_"))
            except Exception as exc:
                result = " ".join(f"error {type(exc).__name__}: {exc}".split())
            print(name, seed, op.name, result, flush=True)
"""


def _start(root, workloads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-c", _OPS, str(root), ",".join(workloads),
           ",".join(map(str, SEEDS))]
    return subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _lines(root, proc):
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: exited {proc.returncode}:\n{err[-2000:]}")
    return out.splitlines()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", nargs="+", type=Path, help="one or two source checkouts")
    args = ap.parse_args(argv)
    if len(args.checkouts) > 2:
        ap.error("give one or two checkouts")
    roots = [p.resolve() for p in args.checkouts]
    spec = json.loads((roots[0] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    # the two checkouts run side by side, one process each
    procs = [_start(root, workloads) for root in roots]
    runs = [_lines(root, proc) for root, proc in zip(roots, procs)]
    if len(runs) == 1:
        print("\n".join(runs[0]))
        return 0
    first, second = runs
    differ = 0
    for i in range(max(len(first), len(second))):
        a = first[i] if i < len(first) else "(no op)"
        b = second[i] if i < len(second) else "(no op)"
        if a != b:
            differ += 1
            print(f"- {a}\n+ {b}")
    print(f"{max(len(first), len(second))} ops, {differ} differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
