"""Command-line front end: build, compare, compose, and estimate DRs.

Subcommands: family | compare | expr | empirical | entropy. Exit codes:
0 success, 2 usage or parse errors, 3 numerical-validity failures raised by
the library. Outputs are plot-ready CSV tables (JSON with --json); compare
and entropy print a JSON object to stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__
from .algebra import ExprError, eval_expr
from .empirical import (
    Dataset,
    McConfig,
    bin_2d,
    discrete_empirical_dr,
    empirical_dr,
    empirical_dr_cdf,
    fit_kde,
    run_manifest,
)
from .entropy import SHANNON, EntropyKind, entropy_dr, moments_dr
from .families import dr_family, parse_family
from .order import compare_cdfs
from .rearrange import TABLE_POINTS

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _slug(text):
    out = re.sub(r"[^A-Za-z0-9_.-]+", "_", text.strip())
    return out.strip("_") or "result"


def _write_table(tab, out_dir, stem, as_json):
    path = f"{out_dir}/{stem}.{'json' if as_json else 'csv'}"
    if as_json:
        tab.to_json(path)
    else:
        tab.to_csv(path)
    return path


def _write_columns(path, header, columns):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(c)) for c in row])
    return path


def _emit(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_family(args):
    try:
        spec = parse_family(args.spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    f, big_f = dr_family(spec)
    label = spec.label()
    paths = [
        _write_table(f.tabulated(args.grid), args.out, f"{label}_pdf", args.json),
        _write_table(big_f.tabulated(args.grid), args.out, f"{label}_cdf", args.json),
    ]
    for p in paths:
        print(p)
    return EXIT_OK


def cmd_compare(args):
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0.0):
        print(f"error: --tol must be finite and nonnegative, got {args.tol!r}", file=sys.stderr)
        return EXIT_USAGE
    a = eval_expr(args.a)
    b = eval_expr(args.b)
    res = compare_cdfs(a.cdf, b.cdf, tol=args.tol)
    _emit(
        {
            "a": a.label,
            "b": b.label,
            "verdict": res.verdict.value,
            "max_gap": res.max_gap,
            "crossing_z": list(res.crossing_z),
        }
    )
    return EXIT_OK


def cmd_expr(args):
    res = eval_expr(args.expression)
    stem = _slug(res.label)
    if res.pdf is not None:
        print(_write_table(res.pdf.tabulated(args.grid), args.out, f"{stem}_pdf", args.json))
    print(_write_table(res.cdf.tabulated(args.grid), args.out, f"{stem}_cdf", args.json))
    return EXIT_OK


def cmd_entropy(args):
    res = eval_expr(args.input)
    if res.pdf is None:
        cause = "crossing lattice result has no pdf" if res.cdf.concave else "cdf is not concave"
        print(f"error: input has no usable density ({cause})", file=sys.stderr)
        return EXIT_NUMERIC
    mean, variance = moments_dr(res.pdf)
    kind = EntropyKind.tsallis(args.gamma)
    _emit(
        {
            "input": res.label,
            "mean": mean,
            "variance": variance,
            "shannon": entropy_dr(res.pdf, SHANNON),
            "tsallis": {"gamma": args.gamma, "value": entropy_dr(res.pdf, kind)},
        }
    )
    return EXIT_OK


def _parse_bounds(text, dim):
    vals = [float(v) for v in text.split(",")]
    if len(vals) != 2 * dim:
        raise ValueError(
            f"--bounds needs {2 * dim} comma-separated numbers (lo,hi per dimension)"
        )
    return np.asarray(vals, dtype=np.float64).reshape(dim, 2)


def _write_manifest(args, t0, fields):
    """Write ``manifest.json``: the command, version, ``fields`` and wall clock since t0."""
    manifest = {
        "command": " ".join(map(str, sys.argv[1:] or ["empirical", args.data])),
        "version": __version__,
        "wall_clock_s": round(time.time() - t0, 3),
        **fields,
    }
    path = f"{args.out}/manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def _discrete_outputs(counts, args, t0):
    pmf, step = discrete_empirical_dr(counts)
    k = np.arange(1, pmf.values.size + 1, dtype=np.float64)
    total = int(round(float(np.asarray(counts).sum())))
    return [
        _write_columns(f"{args.out}/discrete_pmf.csv", ["rank", "probability"], (k, pmf.values)),
        _write_columns(f"{args.out}/discrete_cdf.csv", ["count", "cumulative"], (k, step(k))),
        _write_manifest(
            args, t0, {"mode": "discrete", "cells": int(pmf.values.size), "total_count": total}
        ),
    ]


def cmd_empirical(args):
    t0 = time.time()
    if args.discrete:
        try:
            counts = np.loadtxt(args.data, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read counts table: {exc}", file=sys.stderr)
            return EXIT_USAGE
        for p in _discrete_outputs(counts, args, t0):
            print(p)
        return EXIT_OK

    try:
        data = Dataset.from_csv(args.data)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.bins:
        k1, k2 = args.bins
        try:  # wrong column or bin count: bin_2d's errors are all usage errors
            counts = bin_2d(data, k1, k2)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        paths = _discrete_outputs(counts, args, t0)
        paths.insert(
            0,
            _write_columns(
                f"{args.out}/binned_counts.csv",
                [f"bin_{lab}" for lab in data.labels] + ["count"],
                (
                    np.repeat(np.arange(k1), k2).astype(float),
                    np.tile(np.arange(k2), k1).astype(float),
                    counts.ravel().astype(float),
                ),
            ),
        )
        for p in paths:
            print(p)
        return EXIT_OK

    kde = fit_kde(data, "silverman")
    try:  # bad --bounds, --mc-samples or --thresholds: usage errors
        cfg = McConfig(
            n_points=args.mc_samples,
            n_thresholds=args.thresholds,
            bounding_box=_parse_bounds(args.bounds, data.n) if args.bounds else None,
            seed=args.seed,
            sampler=args.sampler,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    measure, dr = empirical_dr(kde, cfg)
    z_star = np.linspace(0.0, dr.table.grid[-1], args.grid)
    cdf = empirical_dr_cdf(dr, z_star)
    paths = [
        _write_columns(
            f"{args.out}/measure.csv",
            ["threshold", "measure"],
            (measure.thresholds, measure.measures),
        ),
        _write_table(dr.table, args.out, "dr_pdf", args.json),
        _write_table(cdf.table, args.out, "dr_cdf", args.json),
        _write_manifest(
            args, t0, {"mode": "kde_mc", "config": run_manifest(kde, cfg), "binned_mass": cdf.mass}
        ),
    ]
    for p in paths:
        print(p)
    return EXIT_OK


def _grid_points(text):
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {n}")
    return n


def _tsallis_gamma(text):
    try:
        return EntropyKind.tsallis(text).gamma
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory (default .)")
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument(
        "--grid", type=_grid_points, default=TABLE_POINTS,
        help=f"table resolution N (default {TABLE_POINTS}): a closed form is sampled at N "
        "levels of its pdf and 2N-1 uniform points, with midpoints (N uniform points "
        "without a pdf); empirical bins its cdf on N points",
    )
    common.add_argument(
        "--json", action="store_true", help="write tables as JSON instead of CSV"
    )

    parser = argparse.ArgumentParser(
        prog="drmaj",
        description="Decreasing rearrangements, majorisation, and uncertainty algebra.",
    )
    parser.add_argument("--version", action="version", version=f"drmaj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", parents=[common], help="tabulate a family DR")
    p.add_argument("spec", help="family spec, e.g. exp:n=2 or mvn:n=2,var=3")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("compare", parents=[common], help="majorisation verdict")
    p.add_argument("a", help="family spec, expression, or table file")
    p.add_argument("b")
    p.add_argument("--tol", type=float, default=None, help="comparison tolerance")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("expr", parents=[common], help="evaluate an algebra expression")
    p.add_argument(
        "expression",
        help="e.g. 'mix(exp:n=1,exp:n=2,alpha=0.5)' or 'join(pow(exp:n=1,2),beta32)'",
    )
    p.set_defaults(func=cmd_expr)

    p = sub.add_parser("empirical", parents=[common], help="DR from CSV data")
    p.add_argument("data", help="CSV of observations (or counts with --discrete)")
    p.add_argument(
        "--mc-samples", type=int, default=100_000,
        help="node budget N (default 100000): the uniform sampler evaluates 2-3-d data on "
        "round(N^(1/d)) nodes per axis (316^2 = 99856 in 2-d), else N points; the manifest's "
        "n_evaluated records the count",
    )
    p.add_argument("--thresholds", type=int, default=1024)
    p.add_argument("--bins", type=int, nargs=2, metavar=("KX", "KY"), default=None,
                   help="bin 2-d data into a counts table instead of fitting a KDE")
    p.add_argument("--bounds", default=None,
                   help="bounding box lo,hi per dimension, comma separated")
    p.add_argument("--sampler", choices=["uniform", "low_discrepancy"],
                   default="uniform")
    p.add_argument("--discrete", action="store_true",
                   help="treat input as a counts table")
    p.set_defaults(func=cmd_empirical)

    p = sub.add_parser("entropy", parents=[common], help="moments and entropies")
    p.add_argument("input", help="family spec, expression, or table file")
    p.add_argument("--gamma", type=_tsallis_gamma, default=1.0, help="Tsallis gamma")
    p.set_defaults(func=cmd_entropy)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
