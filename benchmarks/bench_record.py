"""Record perfbench medians for one or more source checkouts as BENCH files.

    python3 benchmarks/bench_record.py                      # this checkout
    python3 benchmarks/bench_record.py PARENT_DIR CHANGE_DIR --out .

For every workload in BENCHMARK.json, seeds 1-3 and ``--trace 0`` then
``--trace 1``, runs ``perfbench/run.py`` from each checkout in turn, so that
the checkouts alternate run by run within one sitting: drift between
sittings is larger than the benchmark's bounds.  Each checkout gets one
``BENCH_<short-sha>[-dirty].json`` in ``--out``, holding every run's last
JSON line, the per-metric medians of the untraced runs, the per-layer medians
of the traced ones, the machine facts and the git SHA.  Uses only the
standard library; the machine facts of numpy, scipy and OpenBLAS come from
the interpreter that runs the benchmark.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 2, 3)
TRACES = (0, 1)

_VERSIONS = """
import json, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


def _git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _revision(root):
    sha = _git(root, "rev-parse", "HEAD")
    dirty = bool(_git(root, "status", "--porcelain", "--untracked-files=no"))
    return sha, f"{sha[:7]}{'-dirty' if dirty else ''}"


def _machine():
    facts = json.loads(subprocess.run([sys.executable, "-c", _VERSIONS], check=True,
                                      capture_output=True, text=True).stdout)
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), **facts}


def _run(root, workload, seed, trace, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    last = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": trace,
            "correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def _medians(runs, trace):
    out = {}
    for run in runs:
        if run["trace"] == trace:
            per = out.setdefault(run["workload"], {})
            for name, value in run["metrics"].items():
                per.setdefault(name, []).append(value)
    return {w: {k: statistics.median(v) for k, v in per.items()} for w, per in out.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", nargs="*", type=Path,
                    help="source checkouts to measure, alternated (default: this one)")
    ap.add_argument("--out", type=Path, default=Path("."),
                    help="directory for the BENCH files (default .)")
    args = ap.parse_args(argv)
    roots = [p.resolve() for p in args.checkouts] or [Path(__file__).resolve().parent.parent]
    spec = json.loads((roots[0] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    machine = _machine()
    runs = {root: [] for root in roots}
    turn = 0
    for workload in workloads:
        for seed in SEEDS:
            for trace in TRACES:
                # alternate which checkout runs first
                order = roots if turn % 2 == 0 else roots[::-1]
                turn += 1
                for root in order:
                    run = _run(root, workload, seed, trace, seconds)
                    runs[root].append(run)
                    print(f"{root.name} {workload} seed {seed} trace {trace}: "
                          f"correct {run['correct']}, {run['failed']}/{run['attempted']} "
                          f"failed", file=sys.stderr)
    args.out.mkdir(parents=True, exist_ok=True)
    for root in roots:
        sha, tag = _revision(root)
        record = {
            "git_sha": sha,
            "machine": machine,
            "command": spec["command"],
            "run_seconds": seconds,
            "seeds": list(SEEDS),
            "correct": all(r["correct"] for r in runs[root]),
            "medians": _medians(runs[root], 0),
            "layer_medians": _medians(runs[root], 1),
            "runs": runs[root],
        }
        path = args.out / f"BENCH_{tag}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
