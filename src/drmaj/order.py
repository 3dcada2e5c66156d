"""Majorisation comparators and order-theoretic checks.

Discrete vectors ``p`` and ``q`` on the simplex compare by sorted partial
sums: ``p`` precedes ``q`` (is more uncertain) when every partial sum of the
nonincreasing rearrangement of ``p`` is dominated by the corresponding sum
for ``q``.  Continuous DRs compare by pointwise dominance of their DR cdfs.
The comparable/incomparable structure is a lattice, not a chain, so every
comparison returns a four-way verdict.
"""

import bisect
import enum
from dataclasses import dataclass

import numpy as np

from .rearrange import (
    DensityFn,
    DrCdf,
    DrPdf,
    Grid,
    _check_tol,
    _cumtrapz,
    _dr_of_samples,
    _level_quad,
    cdf_of_dr,
    dr_from_density_1d,
)

__all__ = [
    "OrderVerdict",
    "ProbVector",
    "ProbMatrix",
    "DoublyStochastic",
    "ContractiveMap1D",
    "majorizes_discrete",
    "majorizes_cdf",
    "CdfComparison",
    "compare_cdfs",
    "default_comparison_grid",
    "slice_compare",
    "dilation_witness",
    "contractive_ordering_check",
]

#: normalisation tolerance for probability vectors
PROB_TOL = 1e-12

#: gap ``y - x`` beyond which the dilation witness still transforms a coordinate
WITNESS_TOL = 1e-13


class OrderVerdict(enum.Enum):
    """Four-way outcome of a majorisation comparison of (first, second)."""

    PRECEDES = "precedes"  # first is majorised by second (more uncertain)
    SUCCEEDS = "succeeds"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


class ProbVector:
    """Probability vector: nonnegative entries summing to 1 within 1e-12.

    The one check behind every discrete entry point, joint tables included;
    entries at or above ``-PROB_TOL`` are clipped to 0.
    """

    def __init__(self, values):
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size == 0:
            raise ValueError("probability vector must be nonempty")
        if not np.all(np.isfinite(v)):
            raise ValueError("probability entries must be finite")
        if np.any(v < -PROB_TOL):
            raise ValueError("probability entries must be nonnegative")
        total = float(v.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        self.values = np.maximum(v, 0.0)

    def __len__(self):
        return self.values.size

    def sorted_desc(self):
        return np.sort(self.values)[::-1]


class ProbMatrix:
    """Joint probability table: a two-dimensional :class:`ProbVector`."""

    def __init__(self, values):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("probability table must be two-dimensional")
        self.values = ProbVector(v).values.reshape(v.shape)


@dataclass
class DoublyStochastic:
    """Square matrix with unit row and column sums (tolerance 1e-10)."""

    matrix: np.ndarray
    n_factors: int = 0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("doubly stochastic matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("doubly stochastic entries must be finite")
        if np.any(m < -1e-12):
            raise ValueError("doubly stochastic entries must be nonnegative")
        if np.max(np.abs(m.sum(axis=0) - 1.0)) > 1e-10:
            raise ValueError("column sums must equal 1")
        if np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-10:
            raise ValueError("row sums must equal 1")
        self.matrix = m

    def apply(self, vec):
        return self.matrix @ np.asarray(vec, dtype=np.float64)


def _coerce_vec(p):
    """``p`` as a ProbVector; a ProbMatrix gives its raveled values."""
    if isinstance(p, ProbVector):
        return p
    return ProbVector(p.values if isinstance(p, ProbMatrix) else p)


def _sorted_padded(p, q):
    """The nonincreasing values of two probability vectors, zero-padded to one length."""
    pv, qv = _coerce_vec(p).sorted_desc(), _coerce_vec(q).sorted_desc()
    n = max(pv.size, qv.size)
    return np.pad(pv, (0, n - pv.size)), np.pad(qv, (0, n - qv.size))


def _verdict_from_gaps(d, tol):
    if np.max(np.abs(d)) <= tol:
        return OrderVerdict.EQUAL
    if np.min(d) >= -tol:
        return OrderVerdict.PRECEDES
    if np.max(d) <= tol:
        return OrderVerdict.SUCCEEDS
    return OrderVerdict.INCOMPARABLE


def majorizes_discrete(p, q, tol=1e-12):
    """Compare two probability vectors in the majorisation order.

    Vectors of unequal length are zero-padded to a common length, and joint
    tables (2-d arrays or ProbMatrix) compare raveled.  Returns PRECEDES when
    ``p`` is majorised by ``q`` (every sorted partial sum of ``p`` is at most
    the matching one of ``q``), SUCCEEDS for the reverse, EQUAL when the
    sorted vectors coincide within ``tol``.
    """
    _check_tol(tol)
    pv, qv = _sorted_padded(p, q)
    d = np.cumsum(qv) - np.cumsum(pv)
    if np.max(np.abs(pv - qv)) <= tol:
        return OrderVerdict.EQUAL
    return _verdict_from_gaps(d, tol)


def default_comparison_grid(f1, f2):
    """Union of both cdfs' knots plus uniform and near-origin points.

    The geometric points matter: cdf pairs can cross inside a thin interval
    near z = 0 that a uniform grid over the full support never samples.
    """
    z_hi = max(f1.effective_support(), f2.effective_support())
    parts = [
        np.linspace(0.0, z_hi, 1024),
        np.geomspace(z_hi * 1e-9, z_hi, 513),
    ]
    for f in (f1, f2):
        if f.table is not None:
            k = f.table.grid
            parts.append(k[k <= z_hi])
    g = np.unique(np.concatenate(parts))
    return Grid(g)


def majorizes_cdf(f1, f2, grid=None, tol=None):
    """Compare two DR cdfs pointwise on a grid.

    PRECEDES means ``f1`` is majorised by ``f2``: ``F1(z) <= F2(z)``
    everywhere (within ``tol``).  Default tolerance is 1e-9 when both cdfs
    are closed-form and 1e-3 when either is tabulated.
    """
    return compare_cdfs(f1, f2, grid=grid, tol=tol).verdict


@dataclass(frozen=True)
class CdfComparison:
    """Comparison verdict plus the evidence behind it."""

    verdict: OrderVerdict
    max_gap: float  # largest |F1 - F2| seen on the grid
    crossing_z: tuple  # approximate sign-change locations of F1 - F2


def compare_cdfs(f1, f2, grid=None, tol=None):
    """Like majorizes_cdf, but also reports the gap size and crossings."""
    if not isinstance(f1, DrCdf) or not isinstance(f2, DrCdf):
        raise TypeError("compare_cdfs expects DrCdf arguments")
    if grid is None:
        grid = default_comparison_grid(f1, f2)
    pts = (grid if isinstance(grid, Grid) else Grid(grid)).points
    if pts.size < 64:
        raise ValueError("comparison grid too coarse: need at least 64 points")
    if tol is None:
        tol = 1e-9 if (f1.table is None and f2.table is None) else 1e-3
    _check_tol(tol)
    d = f2(pts) - f1(pts)
    sig = np.abs(d) > tol
    i = np.flatnonzero((d[:-1] * d[1:] < 0.0) & (sig[:-1] | sig[1:]))
    # linear root of each bracketing segment
    crossings = pts[i] - d[i] * (pts[i + 1] - pts[i]) / (d[i + 1] - d[i])
    return CdfComparison(
        verdict=_verdict_from_gaps(d, tol),
        max_gap=float(np.max(np.abs(d))),
        crossing_z=tuple(crossings.tolist()),
    )


def _slice_integrals(pdf, c_levels):
    """Integrals ``S(c)`` of (f - c)_+ over z, one per level c.

    The pdf is nonincreasing, so ``{f >= c}`` is ``[0, m(c)]`` and S(c) is
    the integral of its superlevel measure m from c up to the maximum (Lieb
    & Loss, *Analysis*, 1.13); S(c) = 0 above the maximum.  Two routes:

    - A pdf whose ``measure`` is exact and has no ``jumps`` (closed forms,
      and the mixes and tropical products built from them) integrates m
      itself on the level side, by the cumulative read-out of
      :func:`~drmaj.rearrange._level_quad` at every c in one call.
    - Every other pdf (tables, ``beta32``, step measures, whose thousands
      of jumps the panels cannot resolve) takes one prefix sum over its
      samples v on knots z (``z[0] = 0``), :meth:`DrPdf.tabulated`.  On the
      level axis m is piecewise linear between the samples, so one
      ``cumsum`` of its trapezoids gives S at every sample, and with j the
      last knot having ``v[j] >= c`` (one ``searchsorted``),

          S(c) = S(v[j]) + (v[j] - c) (z[j] + m(c)) / 2,

      where m(c) interpolates the piece ``[z[j], z[j+1]]``, or is the last
      knot when c is at or below the last sample.  That is the area under
      the pdf up to z[j], less ``c z[j]``, plus the piece, but as a sum of
      nonnegative terms, so nothing cancels.  ``np.minimum.accumulate``
      first flattens tables that rise by up to ``MONOTONE_TOL``.
    """
    measure = pdf.measure
    if measure.exact and not measure.jumps.size:
        _, s = _level_quad(pdf, lambda u: measure(u)[:, None], "slice", c_levels)
        return s[:, 0]
    table = pdf.tabulated()
    z, v = table.grid, np.minimum.accumulate(table.values)  # fp guard
    s_knots = _cumtrapz(z, -v)  # m = z over the level axis, on which v falls
    j = np.maximum(np.searchsorted(-v, -c_levels, side="right") - 1, 0)
    k = np.minimum(j + 1, v.size - 1)
    d = np.maximum(v[j] - c_levels, 0.0)  # 0 above the maximum, where j = 0
    drop = v[j] - v[k]  # > 0 unless j is the last knot
    m = z[j] + np.divide(d * (z[k] - z[j]), drop, out=np.zeros_like(d), where=drop > 0)
    return s_knots[j] + 0.5 * d * (z[j] + m)


def slice_compare(f1, f2, c_grid=None, tol=None):
    """Compare DR pdfs by the slice functional ``c -> integral of (f - c)_+``.

    Equivalent to cdf dominance; provided as an independent route.  Returns
    the same four-way verdict, PRECEDES meaning ``f1`` is majorised by ``f2``.
    """
    if not isinstance(f1, DrPdf) or not isinstance(f2, DrPdf):
        raise TypeError("slice_compare expects DrPdf arguments")
    if c_grid is None:
        top = max(f1.max_value, f2.max_value)
        c_levels = np.geomspace(top * (1.0 - 1e-9), top * 1e-8, 512)
    else:
        c_levels = c_grid.points if isinstance(c_grid, Grid) else np.asarray(c_grid)
        c_levels = np.asarray(c_levels, dtype=np.float64)
    if c_levels.size == 0:
        raise ValueError("slice level grid is empty")
    if not np.all(np.isfinite(c_levels)):
        raise ValueError("slice levels must be finite")
    if np.any(c_levels <= 0):
        raise ValueError("slice levels must be positive")
    if tol is None:
        tol = 1e-6 if (f1.table is None and f2.table is None) else 1e-3
    _check_tol(tol)
    s1 = _slice_integrals(f1, c_levels)
    s2 = _slice_integrals(f2, c_levels)
    # larger slice integrals everywhere = less uncertain = majorises
    return _verdict_from_gaps(s2 - s1, tol)


def dilation_witness(p, q):
    """Construct a doubly stochastic ``P`` with ``p = P q`` for ``p`` majorised by ``q``.

    Classic T-transform construction on the sorted copies: repeatedly average
    the largest remaining surplus coordinate with the first following deficit
    coordinate, which matches at least one coordinate per step and terminates
    within ``n - 1`` transforms.  Permutations conjugate the result back to
    the original orderings.  A surplus coordinate with no deficit after it,
    and any deficit left once no surplus remains, is rounding that the
    majorisation check accepted: such a surplus is dropped, and the
    construction stops when none is left.

    Each transform changes two coordinates, so only they are re-examined:
    the sorted copies are Python floats, and the indices whose gap ``y - x``
    exceeds ``WITNESS_TOL`` (surplus) or lies below ``-WITNESS_TOL``
    (deficit) are kept as sorted lists, searched with ``bisect``.  The product is built in the
    original orderings from the permutation matrix that pairs them, and a
    transform mixes its two rows in place through one strided view.  A
    transform thus costs a few scalar steps and one mix of two rows, with
    the same floating-point operations as a sweep over all ``n`` gaps.

    Raises if ``p`` is not majorised by ``q``.
    """
    pvec, qvec = _coerce_vec(p), _coerce_vec(q)
    pv, qv = pvec.values, qvec.values
    if pv.size != qv.size:
        raise ValueError("dilation witness requires equal-length vectors")
    verdict = majorizes_discrete(pvec, qvec, tol=1e-12)
    if verdict not in (OrderVerdict.PRECEDES, OrderVerdict.EQUAL):
        raise ValueError("no dilation witness: p is not majorised by q")
    n = pv.size
    perm_p = np.argsort(-pv, kind="stable")
    perm_q = np.argsort(-qv, kind="stable")
    x = pv[perm_p].tolist()
    y = qv[perm_q].tolist()
    surplus = [i for i in range(n) if y[i] - x[i] > WITNESS_TOL]
    deficit = [i for i in range(n) if y[i] - x[i] < -WITNESS_TOL]
    # P = Pi_p^T M Pi_q, with Pi selecting the sorted orders and M the product
    # of the transforms: P starts as Pi_p^T Pi_q (M = I), and row i of M is
    # row perm_p[i] of P with its columns permuted, so a transform mixes two
    # rows of P itself
    m = np.zeros((n, n))
    m[perm_p, perm_q] = 1.0
    row_of = perm_p.tolist()
    n_factors = 0
    for _ in range(n):
        # a surplus with no deficit after it is rounding that the check
        # accepted; drop it and go on with the surplus before it
        while surplus and not (deficit and deficit[-1] > surplus[-1]):
            surplus.pop()
        if not surplus:
            break
        j = surplus.pop()
        k = deficit.pop(bisect.bisect_right(deficit, j))
        delta = min(y[j] - x[j], x[k] - y[k])
        lam = 1.0 - delta / (y[j] - y[k])
        mu = 1.0 - lam
        # the T-transform lam*I + (1-lam)*swap(j, k) mixes rows j and k only;
        # the mix is symmetric in the two rows, so the strided view of both
        # rows may list them in either order
        y[j], y[k] = lam * y[j] + mu * y[k], lam * y[k] + mu * y[j]
        a, b = sorted((row_of[j], row_of[k]))
        rows = m[a : b + 1 : b - a]
        rows[...] = lam * rows + mu * rows[::-1]
        # only the gaps at j and k moved
        for i in (j, k):
            gap = y[i] - x[i]
            if gap > WITNESS_TOL:
                bisect.insort(surplus, i)
            elif gap < -WITNESS_TOL:
                bisect.insort(deficit, i)
        n_factors += 1
    return DoublyStochastic(m, n_factors=n_factors)


class ContractiveMap1D:
    """Differentiable map with ``0 < |h'| <= 1`` on the support of interest."""

    def __init__(self, h, dh=None):
        self.h = h
        self.dh = dh

    def __call__(self, x):
        return np.asarray(self.h(np.asarray(x, dtype=np.float64)), dtype=np.float64)

    def jacobian(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.dh is not None:
            return np.asarray(self.dh(x), dtype=np.float64)
        span = max(float(np.max(x) - np.min(x)), 1.0)
        e = span * 6e-6
        # a map infinite somewhere gives inf - inf; the caller rejects non-finite values
        with np.errstate(invalid="ignore", over="ignore"):
            return (self(x + e) - self(x - e)) / (2.0 * e)


def contractive_ordering_check(f, h, tol=None):
    """Verdict of ``X`` against ``h(X)`` in the majorisation order.

    ``h`` must be invertible and volume-contractive (``0 < |h'| <= 1``) on
    the support of ``f``; a contraction concentrates mass, so the expected
    verdict is PRECEDES (or EQUAL for a rigid motion).  ``h`` and ``h'`` are
    evaluated once, at the points ``f.z`` where ``f`` was sampled: ``h(X)``
    has density ``f(z) / |h'(z)|`` at ``h(z)``, and both sample sets are
    rearranged exactly, with no further evaluation of ``f``.
    """
    if not isinstance(f, DensityFn):
        raise TypeError("contractive_ordering_check expects a DensityFn")
    if not isinstance(h, ContractiveMap1D):
        h = ContractiveMap1D(h)
    hz = h(f.z)
    jz = np.abs(h.jacobian(f.z))
    if not (np.all(np.isfinite(hz)) and np.all(np.isfinite(jz))):
        raise ValueError("map or its derivative takes non-finite values on the support")
    # 1e-6 slack absorbs finite-difference noise when dh is not supplied
    if jz.max() > 1.0 + 1e-6:
        raise ValueError(f"not contractive: sampled |h'| reaches {jz.max():.6g} > 1")
    if jz.min() <= 1e-12:
        raise ValueError("map is not invertible on the support (|h'| vanishes)")
    step = np.diff(hz)
    if not (np.all(step > 0) or np.all(step < 0)):
        raise ValueError("map is not monotone on the support")
    gz = f.fz / jz
    if step[0] < 0:
        hz, gz = hz[::-1], gz[::-1]
    fd, gd = dr_from_density_1d(f), _dr_of_samples(hz, gz)
    return majorizes_cdf(cdf_of_dr(fd), cdf_of_dr(gd), tol=tol)
