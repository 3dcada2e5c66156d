"""Decreasing rearrangements of univariate densities.

The decreasing rearrangement (DR) of a density ``f`` is the nonincreasing
function ``f~`` on ``[0, inf)`` sharing the value distribution of ``f``: for
every threshold ``y`` the superlevel sets ``{f >= y}`` and ``{f~ >= y}`` have
the same Lebesgue measure.  The measure function ``m(y) = |{f >= y}|`` is the
generalised inverse of ``f~``, so rearrangement reduces to computing ``m`` at
a set of levels (a sampled density's own sample values, or a threshold grid)
and swapping axes.

This module provides the carriers (grids, tabulated monotone functions,
densities, sampled and exact measure functions, DR pdfs and DR cdfs), the
rearrangement and integration operations, and lossless JSON/CSV
serialisation for tabulated functions.
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid

__all__ = [
    "Grid",
    "TabulatedFn",
    "DensityFn",
    "MeasureFn",
    "Measure",
    "DrPdf",
    "DrCdf",
    "measure_function",
    "dr_from_density_1d",
    "cdf_of_dr",
    "functional_inverse",
    "pdf_of_cdf",
    "eval_pdf",
    "eval_cdf",
]

#: gap between a tabulated step's two knots; on a table shorter than 1, that fraction of it
KNOT_GAP = 1e-12

#: resolution of a closed form's table (see :func:`_sample_points`)
TABLE_POINTS = 8193

#: tolerance for monotonicity validation of tabulated data
MONOTONE_TOL = 1e-12


def _asarray1d(x, name="array"):
    try:
        a = np.asarray(x, dtype=np.float64)
    except TypeError:
        raise ValueError(f"{name} must be numeric") from None
    if a.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return a


def _check_tol(tol, name="tol"):
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {tol!r}")


# ---------------------------------------------------------------------------
# grids and tabulated functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Strictly increasing, finite evaluation grid."""

    points: np.ndarray

    def __post_init__(self):
        pts = _asarray1d(self.points, "grid points")
        if pts.size < 2:
            raise ValueError("grid needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.size

    @classmethod
    def uniform(cls, lo, hi, n):
        return cls(np.linspace(lo, hi, int(n)))

    @classmethod
    def geometric(cls, lo, hi, n):
        if lo <= 0 or hi <= 0:
            raise ValueError("geometric grid requires positive endpoints")
        return cls(np.geomspace(lo, hi, int(n)))


class TabulatedFn:
    """Piecewise-linear function given by knots and values.

    Parameters
    ----------
    grid : array_like
        Strictly increasing abscissae.  Step discontinuities are represented
        by two knots ``KNOT_GAP`` apart rather than duplicated abscissae.
    values : array_like
        Function values at the knots.
    monotone : {'nonincreasing', 'nondecreasing', 'none'}
        Declared monotonicity, validated with tolerance ``MONOTONE_TOL``.
    """

    def __init__(self, grid, values, monotone="none"):
        g = _asarray1d(grid, "grid")
        v = _asarray1d(values, "values")
        if g.size != v.size:
            raise ValueError("grid and values must have the same length")
        if g.size < 2:
            raise ValueError("tabulated function needs at least 2 knots")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
            raise ValueError("grid and values must be finite")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        if monotone not in ("nonincreasing", "nondecreasing", "none"):
            raise ValueError(f"unknown monotonicity tag {monotone!r}")
        if monotone == "nonincreasing" and np.any(np.diff(v) > MONOTONE_TOL):
            raise ValueError("values are not nonincreasing within tolerance")
        if monotone == "nondecreasing" and np.any(np.diff(v) < -MONOTONE_TOL):
            raise ValueError("values are not nondecreasing within tolerance")
        self.grid = g
        self.values = v
        self.monotone = monotone

    def __call__(self, z):
        return np.interp(z, self.grid, self.values)

    def __len__(self):
        return self.grid.size

    def __eq__(self, other):
        if not isinstance(other, TabulatedFn):
            return NotImplemented
        return (
            self.monotone == other.monotone
            and self.grid.size == other.grid.size
            and np.array_equal(self.grid, other.grid)
            and np.array_equal(self.values, other.values)
        )

    # -- serialisation ------------------------------------------------------

    def to_json_dict(self):
        return {
            "grid": self.grid.tolist(),
            "values": self.values.tolist(),
            "monotone": self.monotone,
        }

    @classmethod
    def from_json_dict(cls, d):
        if not (isinstance(d, dict) and "grid" in d and "values" in d):
            raise ValueError("expected a JSON object with 'grid' and 'values'")
        return cls(d["grid"], d["values"], d.get("monotone", "none"))

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def to_csv(self, path):
        # 17 significant digits round-trips IEEE doubles exactly
        with open(path, "w", newline="") as fh:
            fh.write(f"# monotone: {self.monotone}\n")
            writer = csv.writer(fh)
            writer.writerow(["z", "value"])
            for z, v in zip(self.grid, self.values):
                writer.writerow([format(z, ".17g"), format(v, ".17g")])

    @classmethod
    def from_csv(cls, path):
        monotone = "none"
        header = None
        grid, values = [], []
        with open(path, newline="") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.startswith("#"):
                    if "monotone:" in line:
                        monotone = line.split("monotone:")[1].strip()
                    continue
                row = next(csv.reader([line]), [])
                if not row:
                    continue
                if header is None:
                    header = [h.strip() for h in row]
                    if header != ["z", "value"]:
                        raise ValueError("expected 'z,value' header")
                    continue
                try:
                    z, v = map(float, row)
                except ValueError:
                    msg = f"line {lineno}: expected two numbers, got {line.strip()!r}"
                    raise ValueError(msg) from None
                grid.append(z)
                values.append(v)
        if header is None:
            raise ValueError("expected 'z,value' header")
        return cls(grid, values, monotone)


def load_tabulated(path):
    """Load a TabulatedFn from a .json or .csv file (detected by suffix)."""
    p = str(path)
    if p.endswith(".json"):
        return TabulatedFn.from_json(p)
    if p.endswith(".csv"):
        return TabulatedFn.from_csv(p)
    raise ValueError(f"unrecognised table format: {p}")


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


class DensityFn:
    """Nonnegative univariate density on a finite interval ``[lo, hi]``.

    The function is sampled once, at construction, on 16385 cosine-spaced
    points ``z_j = lo + (hi - lo)(1 - cos(pi j / 16384)) / 2``, which
    cluster at the ends of the interval, where a density may rise with an
    infinite slope.  ``z`` and ``fz`` keep the points and the samples;
    :func:`dr_from_density_1d`, :func:`measure_function` and
    :func:`~drmaj.order.contractive_ordering_check` read these samples and
    evaluate nothing more.

    Parameters
    ----------
    fn : callable
        Vectorised evaluator mapping a ``(k,)`` array to ``(k,)`` values.
    lo, hi : float
        Finite support bounds, ``lo < hi``.
    integral_tol : float or None
        Largest distance of the samples' trapezoid mass from 1, checked at
        construction (default 5e-2); ``None`` skips the check.  A negative
        or non-finite sample raises either way.
    """

    def __init__(self, fn, lo, hi, integral_tol=5e-2):
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("unbounded support requires explicit truncation")
        if hi <= lo:
            raise ValueError("support bounds must satisfy lo < hi")
        if integral_tol is not None:
            _check_tol(integral_tol, "integral_tol")
        self.lo = lo
        self.hi = hi
        self._fn = fn
        # the lower half's fractions of [lo, hi] are multiples of 2**-53, so the
        # upper half's, 1 - s, are exact: on [0, 1] a density and its mirror
        # image then give the same samples and the same table knots
        s = np.round((0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi / 2, 8193))) * 2.0**53) / 2.0**53
        self.z = lo + (hi - lo) * np.concatenate([s, 1.0 - s[-2::-1]])
        self.z[-1] = hi
        fz = self.eval(self.z)
        if not np.all(np.isfinite(fz)):
            raise ValueError("density takes non-finite values")
        if np.any(fz < -1e-12):
            raise ValueError("density takes negative values")
        self.fz = np.maximum(fz, 0.0)
        if integral_tol is not None:
            mass = float(np.trapezoid(self.fz, self.z))
            if abs(mass - 1.0) > integral_tol:
                raise ValueError(
                    f"density integral check failed: the trapezoid mass {mass:.4f} of "
                    f"its samples differs from 1 by more than {integral_tol}"
                )

    @classmethod
    def from_univariate(cls, fn, lo, hi, **kw):
        return cls(fn, lo, hi, **kw)

    def eval(self, z):
        return np.asarray(self._fn(np.asarray(z, dtype=np.float64)), dtype=np.float64)

    __call__ = eval


# ---------------------------------------------------------------------------
# measure functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureFn:
    """Superlevel-set measures ``m(y) = |{f >= y}|`` on a decreasing threshold grid."""

    thresholds: np.ndarray  # strictly decreasing, positive
    measures: np.ndarray  # nondecreasing in stored order

    def __post_init__(self):
        t = _asarray1d(self.thresholds, "thresholds")
        m = _asarray1d(self.measures, "measures")
        if t.size != m.size:
            raise ValueError("thresholds and measures must have the same length")
        if np.any(t <= 0):
            raise ValueError("thresholds must be positive")
        if np.any(np.diff(t) >= 0):
            raise ValueError("thresholds must be strictly decreasing")
        if np.any(np.diff(m) < -MONOTONE_TOL):
            raise ValueError("measures must be nondecreasing as thresholds fall")
        if np.any(m < -MONOTONE_TOL):
            raise ValueError("measures must be nonnegative")
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "measures", np.maximum(m, 0.0))

    def __call__(self, y):
        # thresholds are stored descending; interp wants ascending
        return np.interp(y, self.thresholds[::-1], self.measures[::-1])


@dataclass(frozen=True, eq=False)
class Measure:
    """Superlevel measure ``m(v) = |{f~ >= v}|`` of a DR pdf, as a function of the level v.

    ``fn`` maps a float64 array of levels to measures, 0 above ``vmax``, the
    pdf's maximum.  ``breaks`` are the levels where m has a kink (a mix
    component enters) and ``jumps`` those where it jumps (a step pdf).
    ``exact`` is False when ``fn`` interpolates a table's samples, whose
    kinks are unlisted.
    """

    fn: object
    vmax: float
    breaks: np.ndarray = ()
    jumps: np.ndarray = ()
    exact: bool = True

    def __post_init__(self):
        for name in ("breaks", "jumps"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))

    def __call__(self, v):
        m = self.fn(np.asarray(v, dtype=np.float64))
        return np.maximum(np.asarray(m, dtype=np.float64), 0.0)

    def dilated(self, k):
        """Measure of the dilated pdf ``f~(z / k) / k``: ``k m(k v)``."""

        def fn(v):
            return k * np.asarray(self.fn(k * v), dtype=np.float64)

        return Measure(fn, self.vmax / k, self.breaks / k, self.jumps / k, self.exact)


def _layer_cake(w, lo, hi):
    """Layer-cake measures over linear pieces, as a function of the level y.

    Piece i has width ``w[i]`` and runs linearly between the values
    ``lo[i] <= hi[i]``, in either direction.  The returned function maps an
    array of levels y to the measure of ``{f >= y}``, summed over the pieces
    (Lieb & Loss, *Analysis*, 1.13).  A piece with ``lo >= y`` counts in
    full; sorted by rising ``lo`` such pieces form a suffix, so suffix sums
    and one ``searchsorted`` give that part for every level at once.  A
    piece with ``lo < y < hi`` adds its exact part, one (level, piece) pair
    at a time, so no sum is a difference of large totals.  A flat piece is
    never straddled: when every piece is flat (a step function), the levels
    need no sorting.
    """
    order = np.argsort(lo, kind="stable")
    w, lo, hi = w[order], lo[order], hi[order]
    suffix = np.append(np.cumsum(w[::-1])[::-1], 0.0)
    steps = bool(np.all(lo == hi))

    def at(y):
        k = np.searchsorted(lo, y, side="left")  # pieces k, k+1, ... have lo >= y
        out = suffix[k]
        if steps:
            return out
        levels = np.argsort(y, kind="stable")
        y_sorted = y[levels]
        first = np.searchsorted(y_sorted, lo, side="right")
        count = np.maximum(np.searchsorted(y_sorted, hi, side="left") - first, 0)
        piece = np.repeat(np.arange(w.size), count)
        lev = levels[np.arange(piece.size) + np.repeat(first - np.cumsum(count) + count, count)]
        c = y[lev]
        part = w[piece] * ((hi[piece] - c) / (hi[piece] - lo[piece]))
        return out + np.bincount(lev, weights=part, minlength=y.size)

    return at


def measure_function(f, thresholds):
    """Compute the measure function of a univariate density.

    Measures the superlevel sets of the piecewise-linear interpolant of the
    samples that ``f`` took at construction (see :class:`DensityFn`), each
    sample cell one piece of :func:`_layer_cake`; the density is not
    evaluated again, and the measures are those that
    :func:`dr_from_density_1d` rearranges.

    Parameters
    ----------
    f : DensityFn
        Univariate density with finite support.
    thresholds : Grid or array_like
        Positive threshold levels; stored in decreasing order.

    Returns
    -------
    MeasureFn
    """
    if not isinstance(f, DensityFn):
        raise TypeError("measure_function expects a DensityFn")
    pts = thresholds.points if isinstance(thresholds, Grid) else _asarray1d(thresholds)
    if not np.all(np.isfinite(pts)):
        raise ValueError("thresholds must be finite")
    fz = f.fz
    if np.any(pts <= 0) or np.any(pts > float(fz.max()) * (1 + 1e-9)):
        raise ValueError("thresholds must lie in (0, max f]")
    desc = np.sort(pts)[::-1]
    lo, hi = np.minimum(fz[:-1], fz[1:]), np.maximum(fz[:-1], fz[1:])
    m = _layer_cake(np.diff(f.z), lo, hi)(desc)
    m = np.maximum.accumulate(m)  # guard fp wobble; mathematically nondecreasing
    return MeasureFn(desc, m)


# ---------------------------------------------------------------------------
# DR pdf / cdf carriers
# ---------------------------------------------------------------------------


def _extent(z_hi):
    z_hi = float(z_hi)
    if not (math.isfinite(z_hi) and z_hi > 0.0):
        raise ValueError(f"z_hi must be finite and positive, got {z_hi!r}")
    return z_hi


def _probe_grid(z_hi, n=2049):
    return np.linspace(0.0, z_hi, n)


def _sample_points(z_hi, n, pdf=None):
    """Points of ``[0, z_hi]`` at which a closed form is tabulated; n uniform ones without a pdf.

    With a DR pdf: ``2n - 1`` uniform points and z = m(u), its superlevel
    measure at n geometric levels u from the maximum down to its value at
    ``z_hi`` (or 1e-9 of the maximum, if lower), so that the points follow
    the mass of a stretched DR and resolve one that moves fast in value near
    z = 0.  Of two points within 1e-9 of z, where values differ by rounding,
    the first is dropped; the midpoints of the rest are interleaved.
    """
    if pdf is None:
        return np.linspace(0.0, z_hi, n)
    top = pdf.max_value
    floor = min(top * 1e-9, float(pdf(z_hi))) or top * 1e-9  # 0 where the support ends
    # geometric levels, falling, give rising z: two sorted runs, which a stable sort merges
    u = top * np.exp(np.linspace(np.log1p(-1e-12), np.log(floor / top), n))
    adapted = np.minimum(pdf.measure_at(u), z_hi)
    nodes = np.sort(np.concatenate([adapted, np.linspace(0.0, z_hi, 2 * n - 1)]), kind="stable")
    nodes = nodes[np.append(np.diff(nodes) > 1e-9 * nodes[1:], True)]
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    return np.append(np.column_stack([nodes[:-1], mids]).ravel(), nodes[-1])


def _concave_flag(z, v):
    """Whether the piecewise-linear (z, v) has nonincreasing slopes, within a bound.

    Each slope step is cross-multiplied by its two gaps a and b, so a pair
    of near-duplicate knots weighs in by its width, not by its rounding
    noise: (v[k+1] - v[k]) a - (v[k] - v[k-1]) b may exceed 0 by the slope
    slack 1e-9 max(largest slope, 1) a b plus the rounding of the values,
    8 eps max|v| (a + b).
    """
    if z.size < 3:
        return True
    dz, dv = np.diff(z), np.diff(v)
    a, b = dz[:-1], dz[1:]
    slack = 1e-9 * max(float(np.max(dv / dz)), 1.0)
    noise = 8.0 * np.finfo(np.float64).eps * float(np.max(np.abs(v)))
    return bool(np.all(dv[1:] * a - dv[:-1] * b <= slack * a * b + noise * (a + b)))


class DrPdf:
    """Decreasing rearrangement of a density: a nonincreasing pdf on ``[0, z_max]``.

    Exactly one of ``table`` (a nonincreasing TabulatedFn) or ``fn`` (a closed
    form evaluator) must be given.  ``z_hi`` is the pdf's finite extent: the
    table's end, or for a closed form its finite ``z_max``, or else the given
    ``z_hi`` beyond which it is numerically negligible.  Every DR pdf carries a
    superlevel ``measure`` (a :class:`Measure`): the exact one given
    (closed forms, and the mixes and tropical products built from them), or
    an inexact one interpolating the table, or a closed form's samples on
    8193 points of ``[0, z_hi]``.

    Evaluation at negative ``z`` raises; beyond ``z_max`` the pdf is 0.
    """

    def __init__(
        self,
        table=None,
        fn=None,
        z_max=None,
        measure=None,
        mass_tol=1e-6,
        z_hi=None,
    ):
        if (table is None) == (fn is None):
            raise ValueError("provide exactly one of table or fn")
        if mass_tol is not None:
            _check_tol(mass_tol, "mass_tol")
        if table is not None:
            if table.monotone != "nonincreasing":
                table = TabulatedFn(table.grid, table.values, "nonincreasing")
            if table.grid[0] != 0.0:
                raise ValueError("DR pdf tables must start at z = 0")
            if np.any(table.values < -MONOTONE_TOL):
                raise ValueError("DR pdf values must be nonnegative")
            self.table = table
            self.fn = None
            self.z_max = self.z_hi = float(table.grid[-1])
            self.max_value = float(table.values[0])
            if mass_tol is not None:
                mass = float(np.trapezoid(table.values, table.grid))
                if abs(mass - 1.0) > mass_tol:
                    raise ValueError(
                        f"tabulated DR pdf mass {mass:.6g} differs from 1 "
                        f"by more than {mass_tol}"
                    )
        else:
            if z_max is None:
                raise ValueError("closed-form DR pdf requires z_max")
            self.table = None
            self.fn = fn
            self.z_max = float(z_max)
            self.z_hi = _extent(self.z_max if z_hi is None else z_hi)
            if math.isfinite(self.z_max) and self.z_hi != self.z_max:
                raise ValueError("z_hi must equal a finite z_max")
            vp = self._eval_fn(_probe_grid(self.z_hi))
            if np.any(vp < -1e-12):
                raise ValueError("DR pdf values must be nonnegative")
            scale = max(float(vp[0]), 1.0)
            if np.any(np.diff(vp) > 1e-9 * scale):
                raise ValueError("DR pdf must be nonincreasing")
            self.max_value = float(vp[0])
        if measure is None:
            if self.table is not None:
                zs, vs = self.table.grid, self.table.values
            else:
                zs = _probe_grid(self.z_hi, 8193)
                vs = self._eval_fn(zs)
            # the closure holds the samples, not self: a cycle through it
            # would keep a dropped pdf alive until the garbage collector runs
            vs, zs = vs[::-1], zs[::-1]
            measure = Measure(lambda v: np.interp(v, vs, zs), self.max_value, exact=False)
        self.measure = measure

    def _eval_fn(self, z):
        out = np.asarray(self.fn(z), dtype=np.float64)
        if math.isfinite(self.z_max):
            out = np.where(np.asarray(z) > self.z_max, 0.0, out)
        return out

    def __call__(self, z):
        zz = np.asarray(z, dtype=np.float64)
        scalar = zz.ndim == 0
        zz = np.atleast_1d(zz)
        if np.any(zz < 0):
            raise ValueError("DR pdf is defined for z >= 0")
        if self.table is not None:
            out = np.interp(zz, self.table.grid, self.table.values, right=0.0)
        else:
            out = self._eval_fn(zz)
        return float(out[0]) if scalar else out

    def measure_at(self, v):
        """Superlevel measure ``|{f~ >= v}|``, the generalised inverse of the pdf.

        Values above the maximum map to 0; values below the tabulated or
        sampled range map to its end.
        """
        out = self.measure(np.atleast_1d(np.asarray(v, dtype=np.float64)))
        return out if np.asarray(v).ndim else float(out[0])

    def tabulated(self, n=TABLE_POINTS):
        """The pdf as a TabulatedFn: its table, or a closed form at its :func:`_sample_points`."""
        if self.table is not None:
            return self.table
        z = _sample_points(self.z_hi, int(n), self)
        return TabulatedFn(z, np.minimum.accumulate(self(z)), "nonincreasing")  # fp guard


class DrCdf:
    """Integral of a DR pdf: a nondecreasing cdf with ``F(0) = 0`` and sup 1.

    ``concave`` reports whether the tabulated or probed slopes are
    nonincreasing within the bound of :func:`_concave_flag` (a slope slack
    of 1e-9 max(largest slope, 1), plus the rounding of the values);
    construction enforces it only when ``require_concave``.
    Lattice joins of crossing cdfs are the one legitimate source of
    non-concave instances.
    """

    def __init__(
        self,
        table=None,
        fn=None,
        pdf=None,
        inverse=None,
        z_hi=None,
        z_max=None,
        require_concave=True,
    ):
        if (table is None) == (fn is None):
            raise ValueError("provide exactly one of table or fn")
        self.pdf = pdf
        self.inverse = inverse
        self.z_max = float(z_max) if z_max is not None else math.inf
        if table is not None:
            if table.monotone != "nondecreasing":
                table = TabulatedFn(table.grid, table.values, "nondecreasing")
            if table.grid[0] != 0.0:
                raise ValueError("DR cdf tables must start at z = 0")
            if abs(table.values[0]) > 1e-9:
                raise ValueError("DR cdf must satisfy F(0) = 0")
            top = float(table.values[-1])
            if not (1.0 - 1e-6 < top <= 1.0 + 1e-9):
                raise ValueError(f"DR cdf sup {top:.8f} is not within 1e-6 of 1")
            self.table = table
            self.fn = None
            self.z_hi = float(table.grid[-1])
            self.concave = _concave_flag(table.grid, table.values)
        else:
            if z_hi is None:
                raise ValueError("closed-form DR cdf requires z_hi with F(z_hi) ~ 1")
            self.table = None
            self.fn = fn
            self.z_hi = _extent(z_hi)
            f0 = float(np.atleast_1d(fn(np.array([0.0])))[0])
            ftop = float(np.atleast_1d(fn(np.array([self.z_hi])))[0])
            if abs(f0) > 1e-9:
                raise ValueError("DR cdf must satisfy F(0) = 0")
            if not (1.0 - 1e-6 < ftop <= 1.0 + 1e-9):
                raise ValueError(f"DR cdf value {ftop:.8f} at z_hi is not within 1e-6 of 1")
            zp = _probe_grid(self.z_hi)
            vp = np.asarray(fn(zp), dtype=np.float64)
            if np.any(np.diff(vp) < -1e-12):
                raise ValueError("DR cdf must be nondecreasing")
            self.concave = _concave_flag(zp, vp)
        if require_concave and not self.concave:
            raise ValueError("DR cdf is not concave; pass require_concave=False to allow")

    def __call__(self, z):
        zz = np.asarray(z, dtype=np.float64)
        scalar = zz.ndim == 0
        zz = np.atleast_1d(zz)
        if np.any(zz < 0):
            raise ValueError("DR cdf is defined for z >= 0")
        if self.table is not None:
            out = np.interp(zz, self.table.grid, self.table.values)
        else:
            capped = np.minimum(zz, self.z_max) if math.isfinite(self.z_max) else zz
            out = np.asarray(self.fn(capped), dtype=np.float64)
        return float(out[0]) if scalar else out

    def quantile_at(self, p):
        """Smallest z with ``F(z) >= p`` (interpolated)."""
        pp = np.atleast_1d(np.asarray(p, dtype=np.float64))
        if np.any((pp < 0) | (pp > 1)):
            raise ValueError("quantile levels must lie in [0, 1]")
        if self.inverse is not None:
            out = np.asarray(self.inverse(pp), dtype=np.float64)
        elif self.table is not None:
            out = np.interp(pp, self.table.values, self.table.grid)
        else:
            out = _bisect_increasing(self.fn, pp, 0.0, self.z_hi)
        return out if np.asarray(p).ndim else float(out[0])

    def effective_support(self, eps=1e-8):
        """z at which the cdf first reaches ``1 - eps``.

        Read from the exact inverse when the cdf has one and ``0 < eps < 1``;
        at ``eps = 0`` that inverse is infinite, so the doubling search and
        bisection below find the first z whose value rounds to 1.
        """
        if self.inverse is not None and 0.0 < eps < 1.0:
            return self.quantile_at(1.0 - eps)
        if self.table is not None:
            vals = self.table.values
            idx = int(np.searchsorted(vals, 1.0 - eps, side="left"))
            idx = min(idx, vals.size - 1)
            return float(self.table.grid[idx])
        hi = self.z_hi
        for _ in range(200):
            if float(np.atleast_1d(self.fn(np.array([hi])))[0]) >= 1.0 - eps:
                break
            hi *= 2.0
        out = _bisect_increasing(self.fn, np.array([1.0 - eps]), 0.0, hi)
        return float(out[0])

    def tabulated(self, n=TABLE_POINTS):
        """The cdf as a TabulatedFn: its table, or a closed form at :func:`_sample_points`."""
        if self.table is not None:
            return self.table
        z = _sample_points(self.z_hi, int(n), self.pdf)
        return TabulatedFn(z, np.maximum.accumulate(np.clip(self(z), 0.0, 1.0)), "nondecreasing")

    def knots(self):
        return self.table.grid if self.table is not None else None


def _bisect_increasing(fn, targets, lo, hi, iters=80):
    lo_arr = np.full_like(targets, lo, dtype=np.float64)
    hi_arr = np.full_like(targets, hi, dtype=np.float64)
    for _ in range(iters):
        mid = 0.5 * (lo_arr + hi_arr)
        vals = np.asarray(fn(mid), dtype=np.float64)
        go_right = vals < targets
        lo_arr = np.where(go_right, mid, lo_arr)
        hi_arr = np.where(go_right, hi_arr, mid)
    return 0.5 * (lo_arr + hi_arr)


# ---------------------------------------------------------------------------
# rearrangement
# ---------------------------------------------------------------------------


def _after(z, extent):
    """Knot just after ``z`` on a table reaching ``extent``: ``KNOT_GAP`` times
    ``min(1, extent)`` further on, or the next double if that rounds away."""
    return np.maximum(z + KNOT_GAP * min(1.0, extent), np.nextafter(z, np.inf))


def _settle(x, step):
    """Solve ``x[k] = step(k, x[k - 1])`` for ``k >= 1`` in place; ``x[0]`` is given.

    ``step`` maps index and predecessor arrays elementwise.  Each pass
    recomputes only the entries whose predecessor moved in the previous
    pass, so the passes number one more than the longest chain of knots
    pushing one another along; ``x`` is the starting guess.
    """
    todo = np.arange(1, x.size)
    while todo.size:
        new = step(todo, x[todo - 1])
        moved = todo[new != x[todo]]
        x[todo] = new
        todo = moved[moved < x.size - 1] + 1
    return x


def _swap_axes_to_table(measures, thresholds, max_value):
    """Turn (threshold, measure) samples into a strictly increasing DR table.

    Thresholds fall and measures rise; each run of thresholds sharing one
    measure becomes an entry knot at that measure and, for runs longer than
    one threshold, a gap knot just after it carrying the run's last value.
    An entry knot that would not lie beyond the previous knot is dropped,
    and a gap knot then follows the previous knot instead.
    """
    n = measures.size
    # a run lasts while measures stay at or below its first one
    top = np.maximum.accumulate(measures)
    starts = np.concatenate([[0], np.flatnonzero(measures[1:] > top[:-1]) + 1])
    ends = np.append(starts[1:] - 1, n - 1)
    z = measures[starts]
    multi = ends > starts
    extent = float(top[-1])

    def last_knot(r, prev):
        base = np.maximum(z[r - 1], prev)
        return np.where(multi[r - 1], _after(base, extent), base)

    # last[r + 1]: the last knot once run r is placed; last[0] is z = 0
    last = _settle(np.concatenate([[0.0], np.where(multi, _after(z, extent), z)]), last_knot)
    knots = np.column_stack([z, last[1:]])
    vals = np.column_stack([thresholds[starts], thresholds[ends]])
    emit = np.column_stack([z > last[:-1], multi])
    zs = np.concatenate([[0.0], knots[emit]])
    vs = np.concatenate([[max_value], vals[emit]])
    vs = np.minimum.accumulate(vs)
    return TabulatedFn(zs, vs, "nonincreasing")


def _rearranged_samples(z, fz):
    """Knots and values of the exact DR of the linear interpolant of samples ``fz >= 0`` at ``z``.

    The interpolant's superlevel measure m(v) = |{f >= v}| is the layer-cake
    sum of :func:`_layer_cake`, linear in v between consecutive distinct
    sample values; so the DR has a knot (m(v), v) at each of them, and a
    second knot (m(v+), v) where the pieces flat at v make m jump.  One
    argsort ranks the values.  The pieces whose lower end has rank k or more
    form a suffix, counted in full by one ``bincount`` and a suffix sum; a
    piece adds its linear part at each rank strictly between its two ends,
    one (rank, piece) pair at a time.  The interpolant is 0 beyond its
    support, so a DR still positive at z = m(min f) steps down to 0 just
    after it.
    """
    order = np.argsort(fz, kind="stable")
    distinct = np.append(True, np.diff(fz[order]) > 0)
    v = fz[order][distinct]
    rank = np.empty(fz.size, dtype=np.intp)
    rank[order] = np.cumsum(distinct) - 1
    w = np.diff(z)
    lo, hi = np.minimum(rank[:-1], rank[1:]), np.maximum(rank[:-1], rank[1:])
    m = np.cumsum(np.bincount(lo, weights=w, minlength=v.size)[::-1])[::-1]
    count = np.maximum(hi - lo - 1, 0)
    piece = np.repeat(np.arange(w.size), count)
    k = np.arange(piece.size) + np.repeat(lo + 1 - np.cumsum(count) + count, count)
    top, bottom = v[hi[piece]], v[lo[piece]]
    m += np.bincount(k, weights=w[piece] * ((top - v[k]) / (top - bottom)), minlength=v.size)
    flat = lo == hi
    runs = np.bincount(lo[flat], weights=w[flat], minlength=v.size)
    r = np.flatnonzero(runs)
    # from the top level down; m is 0 above the top level's flat pieces, so z starts at 0
    zs = np.maximum.accumulate(np.insert(m, r + 1, m[r] - runs[r])[::-1])
    vs = np.insert(v, r + 1, v[r])[::-1]
    if v[0] > 0.0:
        zs, vs = np.append(zs, _after(zs[-1], zs[-1])), np.append(vs, 0.0)
    keep = np.append(True, np.diff(zs) > 0)
    return zs[keep], vs[keep]


def dr_from_density_1d(f, normalize=True):
    """Decreasing rearrangement of a univariate density, exact for its samples.

    Rearranges the piecewise-linear interpolant of the samples that ``f``
    took at construction (see :class:`DensityFn`).  That DR is piecewise
    linear with a knot at every distinct sample value, so the table is the
    exact DR of the interpolant, built without threshold levels or an axis
    swap (:func:`_rearranged_samples`); its trapezoid mass is the samples'.

    Parameters
    ----------
    f : DensityFn
        Univariate density on a finite interval.
    normalize : bool
        Rescale the table to unit mass after the preservation check.

    Returns
    -------
    DrPdf
    """
    if not isinstance(f, DensityFn):
        raise TypeError("dr_from_density_1d expects a DensityFn")
    return _dr_of_samples(f.z, f.fz, normalize)


def _dr_of_samples(z, fz, normalize=True):
    """DR pdf of the linear interpolant of samples ``fz >= 0`` at strictly increasing ``z``.

    The table of :func:`_rearranged_samples`, checked to keep the samples'
    trapezoid mass and, with ``normalize``, rescaled to unit mass.
    """
    if float(fz.max()) <= 0:
        raise ValueError("density is identically zero on its support")
    zs, vs = _rearranged_samples(z, fz)

    ref_mass = float(np.trapezoid(fz, z))
    mass = float(np.trapezoid(vs, zs))
    if abs(mass - ref_mass) > 1e-4:
        raise ValueError(
            f"rearrangement does not preserve mass: {mass:.6g} vs {ref_mass:.6g}"
        )
    if normalize:
        return DrPdf(table=TabulatedFn(zs, vs / mass, "nonincreasing"))
    return DrPdf(table=TabulatedFn(zs, vs, "nonincreasing"), mass_tol=None)


def cdf_of_dr(f):
    """Integrate a DR pdf into its DR cdf.

    Cumulative trapezoidal integration on :meth:`DrPdf.tabulated` (a table's
    knots, or ~49k points of a closed form), clamped monotone.  The total must
    land within 1e-4 of 1; the curve is then rescaled to end exactly at 1.

    Returns
    -------
    DrCdf
        Carries the source pdf in its ``pdf`` attribute.
    """
    if not isinstance(f, DrPdf):
        raise TypeError("cdf_of_dr expects a DrPdf")
    table = f.tabulated()
    cum = np.maximum.accumulate(cumulative_trapezoid(table.values, table.grid, initial=0))
    total = float(cum[-1])
    if abs(total - 1.0) > 1e-4:
        raise ValueError(f"cdf total {total:.6g} is not within 1e-4 of 1; extend the grid")
    cum /= total
    table = TabulatedFn(table.grid, np.clip(cum, 0.0, 1.0), "nondecreasing")
    return DrCdf(table=table, pdf=f)


def pdf_of_cdf(F):
    """Recover a step DR pdf from a concave piecewise-linear DR cdf.

    The derivative of a concave piecewise-linear cdf is a nonincreasing step
    function; steps are stored with the adjacent-knot convention.  A closed
    form is first tabulated (:meth:`DrCdf.tabulated`).
    """
    if not isinstance(F, DrCdf):
        raise TypeError("pdf_of_cdf expects a DrCdf")
    if not F.concave:
        raise ValueError("cdf is not concave; its derivative is not a DR pdf")
    table = F.tabulated()
    g = table.grid
    v = table.values
    slopes = np.minimum.accumulate(np.maximum(np.diff(v) / np.diff(g), 0.0))
    # each inner knot g becomes g (left slope) and _after(g) (right slope);
    # a knot not beyond its predecessor moves to just after it
    inner = g[1:-1]
    end = g[-1]
    raw = np.concatenate([[0.0], np.column_stack([inner, _after(inner, end)]).ravel(), [end]])

    def beyond(k, prev):
        return np.where(raw[k] > prev, raw[k], _after(prev, end))

    zs = _settle(raw.copy(), beyond)
    table = TabulatedFn(zs, np.repeat(slopes, 2), "nonincreasing")
    return DrPdf(table=table, mass_tol=1e-3)


def functional_inverse(g):
    """Invert a strictly monotone TabulatedFn by swapping grid and values.

    Consecutive ties in the values are collapsed first (keeping the knot at
    the far edge of each flat run, matching superlevel-measure semantics for
    nonincreasing input and quantile semantics for nondecreasing input).
    """
    if not isinstance(g, TabulatedFn):
        raise TypeError("functional_inverse expects a TabulatedFn")
    if g.monotone == "none":
        raise ValueError("inverse undefined: function is not declared monotone")
    vals = g.values
    grid = g.grid
    keep = np.ones(vals.size, dtype=bool)
    if g.monotone == "nonincreasing":
        keep[:-1] = np.diff(vals) < 0
        if np.any(np.diff(vals) > MONOTONE_TOL):
            raise ValueError("inverse undefined: function is not monotone")
        new_grid = vals[keep][::-1]
        new_vals = grid[keep][::-1]
    else:
        keep[1:] = np.diff(vals) > 0
        if np.any(np.diff(vals) < -MONOTONE_TOL):
            raise ValueError("inverse undefined: function is not monotone")
        new_grid = vals[keep]
        new_vals = grid[keep]
    if new_grid.size < 2:
        raise ValueError("inverse undefined: function is constant")
    if np.any(np.diff(new_grid) <= 0):
        # collapse any residual fp-equal values
        uniq, idx = np.unique(new_grid, return_index=True)
        new_grid = uniq
        new_vals = new_vals[idx]
    return TabulatedFn(new_grid, new_vals, g.monotone)


#: ``eval_pdf(f, z)``: the DR pdf at z (error for z < 0; zero beyond the table)
eval_pdf = DrPdf.__call__

#: ``eval_cdf(F, z)``: the DR cdf at z (error for z < 0; final value beyond the table)
eval_cdf = DrCdf.__call__
