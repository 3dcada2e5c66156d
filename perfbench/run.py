"""drmaj benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload compose --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; drmaj is imported from ./src.  A run
imports drmaj, builds a fixed, seeded list of ops (one round) with the
references to check it against, and runs an untimed warm-up.  It then repeats
whole rounds until ``--seconds`` have passed.  Every op's outputs are checked
against references computed apart from drmaj, or against properties the
method must have, and must be bit-identical in every round.

A set-up lasts from process start to the first timed op, less the time the
benchmark spends on its own references and checks.  ``setup_s`` is the
median of SETUP_PASSES cold set-ups: this process's, and after the timed
rounds, those of fresh processes that stop before the first timed op
(``--setup-only``, which prints the set-up seconds).

An op's latency (``op_ms_p50``, ``op_ms_p90``) is the CPU time the process
spends on it; ``ops_per_s`` counts the wall time of the timed rounds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
half of the time untraced and the second half with per-layer wrappers, and
prints the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: cold set-ups per run: this process's and SETUP_PASSES - 1 fresh processes'
SETUP_PASSES = 3


def _parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["compose", "compare", "empirical", "discrete"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit")
    return ap.parse_args()


#: One BLAS thread.  OpenBLAS threads spin while they wait, so on a 2-core
#: machine one other busy process makes the witness's 144 x 144 products 2-7x
#: slower with 2 threads and leaves them unchanged with 1.  Set before numpy
#: loads OpenBLAS.
BLAS_THREADS = "1"


def _pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _set_up(workload_name, seed):
    """Import drmaj from ./src, make the inputs and warm up.

    Returns the workload, a runner that has run the warm-up, and the set-up
    seconds: process start to now, less the benchmark's own time.
    """
    _pin_blas_threads()
    src = ROOT / "src"
    if not (src / "drmaj" / "__init__.py").is_file():
        sys.exit(f"error: no drmaj sources under {src}; run from a drmaj checkout")
    sys.path.insert(0, str(src))
    import drmaj  # noqa: F401

    t0 = time.perf_counter()
    import refs
    import workloads

    own_s = time.perf_counter() - t0
    workload = workloads.WORKLOADS[workload_name](seed)
    runner = Runner()
    runner.round(workload.ops[:workload.warmup], timed=False)
    return workload, runner, time.perf_counter() - T_START - own_s - refs.OWN_S


def _cold_setup_s(args):
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


#: An op's latency is the CPU time the process spends on it.  An op does no
#: I/O and runs on one thread (BLAS_THREADS), so on an idle machine this is
#: its wall time; on a shared one, wall time also holds the time other
#: processes hold the CPU.  With two processes busy about half the time
#: beside it on the 2-core reference machine, compare's p90 over ten runs
#: read 193 ms in wall time and 142 ms in CPU time, with quartile spreads of
#: 0.21 and 0.06.
op_clock_ns = time.process_time_ns


class Runner:
    """Runs rounds of ops; counts, checks and times them."""

    def __init__(self):
        self.digests = {}
        self.problems = []
        self.latencies_ms = []
        self.attempted = 0
        self.failed = 0

    def round(self, ops, timed=True, tracer=None):
        import refs  # loaded by _set_up, after the BLAS threads are pinned

        done = {}
        for op in ops:
            t0 = op_clock_ns()
            try:
                out, err = op.run(), None
            except Exception as exc:  # an op that raises is a failed op
                out, err = None, exc
            dt = op_clock_ns() - t0
            if tracer is not None:
                tracer.enabled = False  # checks are not the program's time
            with refs.own_time():
                problems = self._check(op, out, err, done)
            if tracer is not None:
                tracer.enabled = True
            if timed:
                self.attempted += 1
                if out is None or problems:
                    self.failed += 1
                else:
                    self.latencies_ms.append(dt / 1e6)
            if problems:
                self.problems.extend(f"{op.name}: {p}" for p in problems)
            if out is not None and not problems:
                done[op.name] = out

    def _check(self, op, out, err, done):
        if err is not None:
            if op.expect_error is not None and op.expect_error in str(err):
                return []  # a kept fault: counted failed, not a wrong result
            return [f"raised {type(err).__name__}: {err}"]
        try:
            problems = op.check(out, done)
        except Exception as exc:  # a check that cannot run is a failed check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if op.expect_error is not None:
            problems.append("kept fault no longer raises; outputs checked above")
        digest = _digest(out)
        if self.digests.setdefault(op.name, digest) != digest:
            problems.append("outputs differ from the first round")
        return problems


def _digest(out):
    """Hash of an op's outputs, every bit of every array included."""
    import numpy as np

    h = hashlib.sha256()
    for key in sorted(k for k in out if not k.startswith("_")):
        value = out[key]
        h.update(key.encode())
        h.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return h.hexdigest()


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main():
    args = _parse_args()
    workload, runner, setup_s = _set_up(args.workload, args.seed)
    if args.setup_only:
        print(setup_s)  # the parent's own set-up reports any check failures
        return 0

    tracer = None
    halves = []
    budget = args.seconds / 2 if args.trace else args.seconds
    for traced in ([False, True] if args.trace else [False]):
        if traced:
            import spans

            tracer = spans.Tracer()
            tracer.install()
            tracer.enabled = True
        before = (runner.attempted, runner.failed)
        t0 = time.perf_counter()
        while True:
            runner.round(workload.ops, tracer=tracer)
            wall_s = time.perf_counter() - t0
            if wall_s >= budget:
                break
        halves.append((runner.attempted - before[0], runner.failed - before[1], wall_s))
    if tracer is not None:
        tracer.enabled = False
        tracer.uninstall()

    def ops_per_s(half):
        attempted, failed, wall_s = half
        return (attempted - failed) / wall_s

    lat = runner.latencies_ms
    correct = not runner.problems and len(lat) > 0
    for p in runner.problems[:20]:
        print(f"CHECK FAILED {p}", file=sys.stderr)

    if args.trace:
        untraced, traced = halves
        overhead = 100.0 * (ops_per_s(untraced) - ops_per_s(traced)) / ops_per_s(untraced)
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in tracer.per_op(traced[0]).items()}
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        print(f"# {args.workload}: {traced[0]} traced ops, ops/s untraced "
              f"{ops_per_s(untraced):.3f} traced {ops_per_s(traced):.3f} "
              f"(overhead {overhead:.2f}%)")
    else:
        setups = [setup_s] + [_cold_setup_s(args) for _ in range(SETUP_PASSES - 1)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": ops_per_s(halves[0]), "unit": "1/s"},
            "op_ms_p50": {"value": statistics.median(lat) if lat else 0.0, "unit": "ms"},
            "op_ms_p90": {"value": _quantile(lat, 90) if len(lat) > 1 else 0.0, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"# {args.workload} seed {args.seed}: {runner.attempted} ops in "
              f"{runner.attempted // len(workload.ops)} rounds, "
              f"{runner.failed} failed, {len(lat)} latency samples, BLAS threads "
              f"{BLAS_THREADS}, cold set-ups " + ", ".join(f"{t:.3f}" for t in setups)
              + " s")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
