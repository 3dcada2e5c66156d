"""Time the rows of ROADMAP.md's baseline table for one or two source checkouts.

    python3 benchmarks/baseline_rows.py CHECKOUT                # one checkout
    python3 benchmarks/baseline_rows.py PARENT_DIR CHANGE_DIR   # alternated

Every row of the table except the tier-1 suite: each row runs in a fresh
``python3``, with one BLAS thread and the checkout's ``src/`` first on
``sys.path``, builds its inputs once, then times ``CALLS`` (7) calls and
keeps the best.  One process per row keeps the rows apart: what one row
leaves allocated can move another row's times through the allocator by a
third.  The ``import drmaj`` row instead starts a fresh ``python3`` for
each of its calls and times the import alone, numpy included, as a short
script or CLI run pays it; the row after it times the same import and the
first ``dr_family("exp:n=1")``, which loads ``scipy.special``.  A round
runs every row once per checkout; with two checkouts, the one that runs
first alternates from round to round.  Prints, per row, the best over ``ROUNDS`` (3) rounds in
milliseconds, one column per checkout.
Uses only the standard library; the rows themselves use the library's own
numpy and scipy.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

CALLS = 7   # timed calls per row, checkout and round
ROUNDS = 3  # rounds of every row, the checkouts alternated

IMPORT_ROW = "import drmaj, fresh python3"
FAMILY_ROW = 'import drmaj + first dr_family("exp:n=1"), fresh python3'

_IMPORT = r"""
import sys, time
sys.path.insert(0, sys.argv[1] + "/src")
t0 = time.perf_counter()
import drmaj
if sys.argv[2:]:
    drmaj.dr_family(sys.argv[2])
print(1e3 * (time.perf_counter() - t0))
"""

# rows that start a fresh python3 per call: name -> _IMPORT's arguments after the checkout
_FRESH = {IMPORT_ROW: (), FAMILY_ROW: ("exp:n=1",)}

_ROWS = r"""
import json, sys, time
root, calls, row = sys.argv[1], int(sys.argv[2]), sys.argv[3]
sys.path.insert(0, root + "/src")
import numpy as np
from scipy.special import beta as beta_fn
from drmaj import _kernels, algebra, empirical, entropy, order, rearrange
from drmaj.families import dr_family, parse_family

def pdf(spec):
    return dr_family(parse_family(spec))[0]

def cdf(spec):
    return dr_family(parse_family(spec))[1]

def beta_density():
    a, b = 2.3, 3.1
    return rearrange.DensityFn(
        lambda x: x ** (a - 1.0) * (1.0 - x) ** (b - 1.0) / beta_fn(a, b), 0.0, 1.0)

def beta_levels():
    f = beta_density()
    return f, np.geomspace(1e-6, 0.999, 512) * f.fz.max()

def swap_inputs():
    # the measures and value grid that inverse_mix(exp1, exp2) hands to the swap
    m = algebra.inverse_mix(pdf("exp:n=1"), pdf("exp:n=2")).measure
    t = algebra._value_thresholds(m.vmax, algebra.VALUE_GRID_POINTS)
    return m.fn(t), t, m.vmax

def cdf_points(spec):
    # a closed-form cdf and 16385 uniform points up to its extent
    F = cdf(spec)
    return F, np.linspace(0.0, F.z_hi, 16385)

def concave_inputs():
    z = np.linspace(0.0, 10.0, 20001)
    return z, -np.expm1(-z)

def mix_cdf_knots():
    # 17408 knots; 224 gaps are below 1e-10, where a slope is mostly rounding noise
    table = algebra.eval_expr("mix(exp:n=1, exp:n=2)").cdf.table
    return table.grid, table.values

def uniform_table_pdf():
    # exp:n=1 on 16385 uniform knots, built here so that every checkout times the same table
    f = pdf("exp:n=1")
    z = np.linspace(0.0, f.z_hi, 16385)
    return (rearrange.DrPdf(table=rearrange.TabulatedFn(z, f(z), "nonincreasing")),)

def blur_pair():
    rng = np.random.default_rng(114)
    table = rng.gamma(0.5, size=(14, 14))
    table /= table.sum()
    blur = 0.6 * table + 0.1 * sum(np.roll(table, s, axis=a) for s in (1, -1) for a in (0, 1))
    return blur.ravel(), table.ravel()

def kde_inputs():
    # the perfbench empirical op's size: a Silverman KDE of 120 N(0, I2) points
    # evaluated at 16384 uniform points of its default box
    rng = np.random.default_rng(1)
    kde = empirical.fit_kde(empirical.Dataset(rng.standard_normal((120, 2))))
    box = kde.default_box()
    return rng.uniform(box[:, 0], box[:, 1], (16384, 2)), kde.centers, kde.bandwidths

def empirical_inputs():
    # a Silverman KDE of 2000 N(0, I2) points; default box and 1024 thresholds
    rng = np.random.default_rng(1)
    kde = empirical.fit_kde(empirical.Dataset(rng.standard_normal((2000, 2))))
    return kde, empirical.McConfig(n_points=100_000, seed=1)

# name: (build the arguments, the timed call)
ROWS = {
    "slice_compare(mvn:n=1, exp:n=1), 512 levels":
        (lambda: (pdf("mvn:n=1"), pdf("exp:n=1")), order.slice_compare),
    "convolve_dr(exp1, exp1)": (lambda: (pdf("exp:n=1"),) * 2, algebra.convolve_dr),
    'eval_expr("mix(exp:n=1, exp:n=2)")': (lambda: ("mix(exp:n=1, exp:n=2)",), algebra.eval_expr),
    "inverse_mix(exp1, exp2)": (lambda: (pdf("exp:n=1"), pdf("exp:n=2")), algebra.inverse_mix),
    "direct_mix(exp1, exp2)": (lambda: (pdf("exp:n=1"), pdf("exp:n=2")), algebra.direct_mix),
    "otimes(exp1, exp2)": (lambda: (cdf("exp:n=1"), cdf("exp:n=2")), algebra.otimes),
    "dr_from_density_1d(Beta(2.3, 3.1))": (lambda: (beta_density(),), rearrange.dr_from_density_1d),
    "measure_function(Beta(2.3, 3.1)), 512 levels": (beta_levels, rearrange.measure_function),
    "contractive_ordering_check(Beta(2.3, 3.1), x ↦ 0.7x)":
        (lambda: (beta_density(), lambda x: 0.7 * x), order.contractive_ordering_check),
    "_swap_axes_to_table, value grid of inverse_mix(exp1, exp2)":
        (swap_inputs, rearrange._swap_axes_to_table),
    "_concave_flag, 20001 knots": (concave_inputs, rearrange._concave_flag),
    "_concave_flag, cdf of mix(exp:n=1, exp:n=2)": (mix_cdf_knots, rearrange._concave_flag),
    "cdf_of_dr, tabulated, 16385 knots": (uniform_table_pdf, rearrange.cdf_of_dr),
    "pdf_of_cdf, exp:n=1's tabulated cdf":
        (lambda: (rearrange.DrCdf(table=cdf("exp:n=1").tabulated()),), rearrange.pdf_of_cdf),
    "_mass_quantile(exp:n=1, 1 - 1e-6), convolve_dr's step":
        (lambda: (pdf("exp:n=1"), 1.0 - 1e-6), algebra._mass_quantile),
    "compare_cdfs(exp2, exp1)": (lambda: (cdf("exp:n=2"), cdf("exp:n=1")), order.compare_cdfs),
    "compare_cdfs(join(mvn:n=1,var=1.3, exp:n=1), exp:n=1)":
        (lambda: (algebra.join(cdf("mvn:n=1,var=1.3"), cdf("exp:n=1")), cdf("exp:n=1")),
         order.compare_cdfs),
    "mvn:n=1 closed-form cdf, 16385 points": (lambda: cdf_points("mvn:n=1"), lambda F, z: F(z)),
    "exp:n=1 closed-form cdf, 16385 points": (lambda: cdf_points("exp:n=1"), lambda F, z: F(z)),
    "moments_dr + entropy_dr, mix(exp:n=1, exp:n=2)":
        (lambda: (algebra.eval_expr("mix(exp:n=1, exp:n=2)").pdf,),
         lambda f: (entropy.moments_dr(f), entropy.entropy_dr(f))),
    "moments_dr + entropy_dr, mvn:n=1":
        (lambda: (pdf("mvn:n=1"),), lambda f: (entropy.moments_dr(f), entropy.entropy_dr(f))),
    "dilation_witness, 14 x 14 blur pair": (blur_pair, order.dilation_witness),
    "DensityFn(Beta(2.3, 3.1)), its samples and mass check": (lambda: (), beta_density),
    "kde_eval, 120 centres x 16384 points": (kde_inputs, _kernels.kde_eval),
    "empirical_dr, 2-d, 2000 centres x 100k MC points": (empirical_inputs, empirical.empirical_dr),
}
if row == "-":
    print(json.dumps(list(ROWS)))
    sys.exit()
build, call = ROWS[row]
args = build()
times = []
for _ in range(calls):
    t0 = time.perf_counter()
    call(*args)
    times.append(time.perf_counter() - t0)
print(json.dumps(1e3 * min(times)))
"""


def _python(root, script, *args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script, str(root), *args],
                          cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        what = args[-1] if args else IMPORT_ROW
        raise RuntimeError(f"{root}: {what}: exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _child(root, calls, row):
    if row in _FRESH:
        return min(_python(root, _IMPORT, *_FRESH[row]) for _ in range(calls))
    return _python(root, _ROWS, str(calls), row)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", nargs="+", type=Path, help="one or two source checkouts")
    args = ap.parse_args(argv)
    if len(args.checkouts) > 2:
        ap.error("give one or two checkouts")
    roots = [p.resolve() for p in args.checkouts]
    rows = [*_FRESH, *_child(roots[0], 1, "-")]
    best = {root: {} for root in roots}
    for r in range(ROUNDS):
        for root in (roots if r % 2 == 0 else roots[::-1]):
            for name in rows:
                ms = _child(root, CALLS, name)
                best[root][name] = min(ms, best[root].get(name, ms))
    width = max(map(len, rows))
    print(f"best of {CALLS} calls x {ROUNDS} rounds, one BLAS thread, ms")
    print(f"{'row':<{width}}  " + "  ".join(f"{root.name:>12}" for root in roots))
    for name in rows:
        print(f"{name:<{width}}  " + "  ".join(f"{best[root][name]:>12.3f}" for root in roots))
    return 0


if __name__ == "__main__":
    sys.exit(main())
