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
level-side panel rule that integrates over an exact measure's levels
(``_level_quad``, behind the entropies, moments and slice integrals), the
rearrangement and integration operations, and lossless JSON/CSV
serialisation for tabulated functions.
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

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
    "pdf_of_cdf",
    "load_tabulated",
]

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


def _samples_of(fn, z, what):
    """``fn`` on the (k,) points ``z``, checked to be k finite values."""
    out = np.asarray(fn(z), dtype=np.float64)
    if out.shape != z.shape:
        raise ValueError(
            f"{what} function must map a (k,) array to k values; "
            f"on {z.size} points it returned shape {out.shape}"
        )
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{what} takes non-finite values")
    return out


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


class TabulatedFn:
    """Piecewise-linear function given by knots and values.

    Parameters
    ----------
    grid : array_like
        Strictly increasing abscissae.  A step discontinuity at ``z`` is
        two knots, ``z`` and the next double after it, rather than a
        duplicated abscissa.
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
        fz = _samples_of(fn, self.z, "density")
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


_X21, _W21 = np.polynomial.legendre.leggauss(21)
_X10, _W10 = np.polynomial.legendre.leggauss(10)
#: a panel's nodes on [-1, 1]: the 21-point rule's, then the 10-point rule's
_NODES = np.concatenate([_X21, _X10])
#: one weight column per rule over ``_NODES``
_WEIGHTS = np.zeros((_NODES.size, 2))
_WEIGHTS[:21, 0], _WEIGHTS[21:, 1] = _W21, _W10
#: panels the level-side rule may hold before it gives up
_MAX_PANELS = 2000
#: relative (absolute below 1) error allowed in each level-side total
_LEVEL_RTOL = 1e-10


def _level_breaks(f):
    """Quadrature split points in t = -log(u / vmax), at the measure's break levels."""
    vmax = float(f.max_value)
    return [-math.log(u / vmax) for u in f.measure.breaks if 0.0 < u < vmax * (1.0 - 1e-12)]


def _level_quad(f, g_of_u, what, levels=None):
    """Integrals of the k columns of G(u) u dt, t = -log(u / vmax) in [0, T].

    This is the layer-cake integral of G(u) du over (0, max f].  ``g_of_u``
    maps n levels to an (n, k) array; G carries the superlevel measure, so
    polynomial-in-log growth is damped by the u factor.  T = log(vmax) + 745,
    beyond which u underflows to 0.  The first panels have edges at 0, at the
    measure's break levels (``_level_breaks``), at powers of 2 and at the
    requested ``levels``.  Each pass evaluates G once, on the nodes of every
    pending panel; a panel's value is its 21-point Gauss-Legendre sum and its
    error the distance to the 10-point sum.  A panel whose error, in every
    column, is within its share of the tolerance (its width in t over T) is
    kept; the others are bisected, until the errors of all panels sum within
    the tolerance, ``_LEVEL_RTOL`` times the larger of 1 and the column's
    total.  A non-finite value raises (the tail does not decay), and so does
    a run past ``_MAX_PANELS`` panels (the measure has more jumps than the
    panels can resolve); the panels that ``levels`` add do not count.

    A smooth mode gives a measure that starts like the square root of t, at
    t = 0 or at a break where a component enters.  So each segment from 0 or
    a break to the next break or power of 2 is integrated in s, t = o + s^2
    with o the segment's start and dt = 2 s ds, where such a start is smooth;
    the segments that start at a power of 2 are integrated in t.

    Without ``levels``, returns the k totals.  With levels u (an array of
    positive values), returns the totals and an (n, k) array: the integrals
    over t up to -log(u / vmax), that is of G from u to max f, 0 for u at or
    above the maximum.  Each level is a first-panel edge, so the integral up
    to it is a cumulative sum of whole panels; every panel records the first
    panel it was bisected from, which places it on its side of each level
    exactly.
    """
    vmax = float(f.max_value)
    end = math.log(vmax) + 745.0

    def integrand(t):
        u = vmax * np.exp(-t)
        live = u > 0.0
        # an overflow shows as a non-finite value, which the panel loop rejects
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.asarray(g_of_u(np.where(live, u, vmax)), dtype=np.float64)
            return g * np.where(live, u, 0.0)[:, None]

    def fail():
        return ValueError(f"{what} quadrature did not converge: tail not decaying")

    # segments start at 0, at the breaks and at powers of 2, all below T; those
    # that start at 0 or at a break are mapped
    anchors = {0.0, *_level_breaks(f)}
    stops = sorted(anchors.union(2.0**k for k in range(math.ceil(math.log2(end)))))
    mapped, stops = np.array([s in anchors for s in stops]), np.array(stops)
    if levels is None:
        edges = np.append(stops, end)
    else:
        at = np.clip(-np.log(np.asarray(levels, dtype=np.float64) / vmax), 0.0, end)
        edges = np.unique(np.concatenate([stops, [end], at]))
    seg = np.searchsorted(stops, edges[:-1], side="right") - 1
    sq = mapped[seg]
    o = np.where(sq, stops[seg], 0.0)
    lo, hi = edges[:-1] - o, edges[1:] - o
    lo, hi = np.where(sq, np.sqrt(lo), lo), np.where(sq, np.sqrt(hi), hi)
    origin = np.arange(lo.size)
    kept_sum = kept_err = 0.0
    kept_origin, kept_value = [], []
    panels = stops.size
    while True:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = mid[:, None] + half[:, None] * _NODES
        t = np.where(sq[:, None], o[:, None] + x * x, x)
        vals = integrand(t.ravel()).reshape(lo.size, _NODES.size, -1)
        if not np.all(np.isfinite(vals)):
            raise fail()
        vals *= np.where(sq[:, None], 2.0 * x, 1.0)[:, :, None]
        rules = np.matmul(vals.transpose(0, 2, 1), _WEIGHTS)
        value = half[:, None] * rules[:, :, 0]
        err = half[:, None] * np.abs(rules[:, :, 0] - rules[:, :, 1])
        tol = _LEVEL_RTOL * np.maximum(1.0, np.abs(kept_sum + value.sum(axis=0)))
        share = np.where(sq, (hi - lo) * (hi + lo), hi - lo) / end
        todo = np.any(err > tol * share[:, None], axis=1)
        kept_sum = kept_sum + value[~todo].sum(axis=0)
        kept_err = kept_err + err[~todo].sum(axis=0)
        kept_origin.append(origin[~todo])
        kept_value.append(value[~todo])
        if not todo.any() or np.all(kept_err + err[todo].sum(axis=0) <= tol):
            total = kept_sum + value[todo].sum(axis=0)
            kept_origin.append(origin[todo])
            kept_value.append(value[todo])
            break
        panels += int(np.count_nonzero(todo))
        if panels > _MAX_PANELS:
            raise ValueError(
                f"{what} quadrature did not converge: more than {_MAX_PANELS} panels; "
                "the measure has more jumps than the panels can resolve"
            )
        lo, mid, hi = lo[todo], mid[todo], hi[todo]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        o, sq, origin = (np.tile(a[todo], 2) for a in (o, sq, origin))
    # a u-side integrand still flat at t ~ 300 (u ~ vmax * e^-300) means the
    # integral diverges; the finite t range would truncate it to a confident
    # finite value that the panel error estimate cannot see
    at300, at600 = np.abs(integrand(np.array([300.0, 600.0])))
    if np.any((at300 > 1e-12 * np.maximum(1.0, np.abs(total))) & (at600 > 0.5 * at300)):
        raise fail()
    if levels is None:
        return total
    origin, value = np.concatenate(kept_origin), np.concatenate(kept_value)
    per_panel = [np.bincount(origin, weights=col, minlength=edges.size - 1) for col in value.T]
    upto = np.vstack([np.zeros(value.shape[1]), np.cumsum(np.column_stack(per_panel), axis=0)])
    return total, upto[np.searchsorted(edges, at)]


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
            # the probe ends at z_hi, which a finite z_max equals: nothing to zero.
            # Without an exact measure, its samples are the interpolating one's.
            zp = _probe_grid(self.z_hi) if measure is not None else _probe_grid(self.z_hi, 8193)
            vp = _samples_of(fn, zp, "DR pdf")
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
                zs, vs = zp, vp
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
        require_concave=True,
    ):
        if (table is None) == (fn is None):
            raise ValueError("provide exactly one of table or fn")
        self.pdf = pdf
        self.inverse = inverse
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
            zp = _probe_grid(self.z_hi)
            vp = _samples_of(fn, zp, "DR cdf")  # from z = 0 to z_hi
            if abs(vp[0]) > 1e-9:
                raise ValueError("DR cdf must satisfy F(0) = 0")
            if not (1.0 - 1e-6 < vp[-1] <= 1.0 + 1e-9):
                raise ValueError(f"DR cdf value {vp[-1]:.8f} at z_hi is not within 1e-6 of 1")
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
            out = np.asarray(self.fn(zz), dtype=np.float64)
        return float(out[0]) if scalar else out

    def quantile_at(self, p):
        """Smallest z with ``F(z) >= p`` (interpolated)."""
        pp = np.atleast_1d(np.asarray(p, dtype=np.float64))
        if not np.all((pp >= 0) & (pp <= 1)):
            raise ValueError("quantile levels must lie in [0, 1]")
        if self.inverse is not None:
            out = np.asarray(self.inverse(pp), dtype=np.float64)
        elif self.table is not None:
            # the first knot at or above p ends the piece that reaches p, so a
            # run flat at level p is entered at its start, not left at its end
            g, v = self.table.grid, self.table.values
            k = np.searchsorted(v, pp, "left")
            j = np.clip(k, 1, v.size - 1)
            dv = v[j] - v[j - 1]
            # a flat piece is met only below the first knot (t = 0) or past the last (t = 1)
            t = np.divide(pp - v[j - 1], dv, out=(k > 0).astype(np.float64), where=dv > 0)
            out = g[j - 1] + np.clip(t, 0.0, 1.0) * (g[j] - g[j - 1])
        else:
            out = _bisect_increasing(self.fn, pp, 0.0, self.z_hi)
        return out if np.asarray(p).ndim else float(out[0])

    def effective_support(self):
        """z at which the cdf first reaches ``1 - 1e-8``.

        Read from the exact inverse when the cdf has one, from the first
        knot at or above that level for a table, and otherwise by a doubling
        search and bisection of the closed form.
        """
        top = 1.0 - 1e-8
        if self.inverse is not None:
            return self.quantile_at(top)
        if self.table is not None:
            vals = self.table.values
            idx = int(np.searchsorted(vals, top, side="left"))
            idx = min(idx, vals.size - 1)
            return float(self.table.grid[idx])
        hi = self.z_hi
        for _ in range(200):
            if float(np.atleast_1d(self.fn(np.array([hi])))[0]) >= top:
                break
            hi *= 2.0
        out = _bisect_increasing(self.fn, np.array([top]), 0.0, hi)
        return float(out[0])

    def tabulated(self, n=TABLE_POINTS):
        """The cdf as a TabulatedFn: its table, or a closed form at :func:`_sample_points`."""
        if self.table is not None:
            return self.table
        z = _sample_points(self.z_hi, int(n), self.pdf)
        return TabulatedFn(z, np.maximum.accumulate(np.clip(self(z), 0.0, 1.0)), "nondecreasing")


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


def _first_of_repeats(zs, vs):
    """Knots ``zs`` (nondecreasing) and values ``vs``, keeping the first of each repeated z.

    A step's second knot is one double after its first, so on strictly
    increasing first knots it can only land on the next one; that entry
    knot is then the one dropped.
    """
    keep = np.append(True, np.diff(zs) > 0)
    return zs[keep], vs[keep]


def _pieces(table):
    """Knots and values of ``table`` without any knot one double after its predecessor.

    Such a piece is a step's second knot, and its slope is rounding noise;
    the slope readers see the step's rise folded into the next piece.
    """
    g = table.grid
    keep = np.append(True, g[1:] > np.nextafter(g[:-1], np.inf))
    return g[keep], table.values[keep]


def _dilated_grid(grid, k):
    """``grid * k`` for a nonnegative grid, each step kept one double wide.

    A knot one double after its predecessor stays so, and a knot that rounding
    leaves not beyond its predecessor moves one double beyond it: on
    nonnegative doubles, where the next double is the next bit pattern, one
    running maximum of ``bits - i``.
    """
    i = np.arange(grid.size)
    bits = (grid * k).view(np.int64) - i
    bits[1:][grid[1:] == np.nextafter(grid[:-1], np.inf)] = np.iinfo(np.int64).min
    return (np.maximum.accumulate(bits) + i).view(np.float64)


def _swap_axes_to_table(measures, thresholds, max_value):
    """Turn (threshold, measure) samples into a strictly increasing DR table.

    Thresholds fall strictly from at most ``max_value``, and measures rise;
    each run of thresholds sharing one measure becomes an entry knot at that
    measure and, for runs longer than one threshold, a step's second knot
    one double after it carrying the run's last value
    (:func:`_first_of_repeats`).
    """
    # a run lasts while measures stay at or below its first one
    top = np.maximum.accumulate(measures)
    starts = np.flatnonzero(np.append(True, measures[1:] > top[:-1]))
    ends = np.append(starts[1:], measures.size) - 1
    long = np.flatnonzero(ends > starts)
    z = measures[starts]
    # (0, max_value) leads; each long run's second knot follows its entry knot
    at = np.append(0, long + 1)
    zs = np.insert(z, at, np.append(0.0, np.nextafter(z[long], np.inf)))
    vs = np.insert(thresholds[starts], at, np.append(max_value, thresholds[ends[long]]))
    return TabulatedFn(*_first_of_repeats(zs, vs), "nonincreasing")


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
    support, so a DR still positive at z = m(min f) steps down to 0 one
    double after it.
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
        zs, vs = np.append(zs, np.nextafter(zs[-1], np.inf)), np.append(vs, 0.0)
    return _first_of_repeats(zs, vs)


def dr_from_density_1d(f):
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

    Returns
    -------
    DrPdf
    """
    if not isinstance(f, DensityFn):
        raise TypeError("dr_from_density_1d expects a DensityFn")
    return _dr_of_samples(f.z, f.fz)


def _dr_of_samples(z, fz):
    """DR pdf of the linear interpolant of samples ``fz >= 0`` at strictly increasing ``z``.

    The table of :func:`_rearranged_samples`, checked to keep the samples'
    trapezoid mass and rescaled to unit mass.
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
    return DrPdf(table=TabulatedFn(zs, vs / mass, "nonincreasing"))


def _cumtrapz(y, x):
    """Cumulative trapezoid integral of ``y`` over the knots ``x``, starting at 0.

    scipy's ``cumulative_trapezoid(y, x, initial=0)`` in its own arithmetic,
    without importing ``scipy.integrate``.
    """
    return np.append(0.0, np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


def cdf_of_dr(f):
    """Integrate a DR pdf into its DR cdf.

    Cumulative trapezoidal integration on :meth:`DrPdf.tabulated` (a table's
    knots, or ~49k points of a closed form), clamped monotone.  The total must
    land within 1e-4 of 1; the curve is then rescaled to end exactly at 1.  A
    step pdf's two knots one double apart become a one-double cdf piece,
    whose slope the readers skip (:func:`_pieces`).

    Returns
    -------
    DrCdf
        Carries the source pdf in its ``pdf`` attribute.
    """
    if not isinstance(f, DrPdf):
        raise TypeError("cdf_of_dr expects a DrPdf")
    table = f.tabulated()
    cum = np.maximum.accumulate(_cumtrapz(table.values, table.grid))
    total = float(cum[-1])
    if abs(total - 1.0) > 1e-4:
        raise ValueError(f"cdf total {total:.6g} is not within 1e-4 of 1; extend the grid")
    cum /= total
    table = TabulatedFn(table.grid, np.clip(cum, 0.0, 1.0), "nondecreasing")
    return DrCdf(table=table, pdf=f)


def pdf_of_cdf(F):
    """Recover a step DR pdf from a concave piecewise-linear DR cdf.

    The derivative of a concave piecewise-linear cdf is a nonincreasing step
    function: the slope of each piece that :func:`_pieces` reads, with a
    step at each inner knot to the next double after it.  Those pieces are
    at least two doubles apart, so the knots stay strictly increasing.  A
    closed form is first tabulated (:meth:`DrCdf.tabulated`).
    """
    if not isinstance(F, DrCdf):
        raise TypeError("pdf_of_cdf expects a DrCdf")
    if not F.concave:
        raise ValueError("cdf is not concave; its derivative is not a DR pdf")
    g, v = _pieces(F.tabulated())
    slopes = np.minimum.accumulate(np.maximum(np.diff(v) / np.diff(g), 0.0))
    # each inner knot g becomes g (left slope) and the next double (right slope)
    inner = g[1:-1]
    steps = np.column_stack([inner, np.nextafter(inner, np.inf)]).ravel()
    zs = np.concatenate([[0.0], steps, [g[-1]]])
    table = TabulatedFn(zs, np.repeat(slopes, 2), "nonincreasing")
    return DrPdf(table=table, mass_tol=1e-3)
