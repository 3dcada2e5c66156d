"""Empirical decreasing rearrangements from raw data.

Pipeline: fit a product-Gaussian KDE, estimate superlevel-set volumes by
Monte Carlo hit counting over a bounding box, swap axes into a DR pdf, and
integrate into a DR cdf with bin renormalisation. A discrete path bins 2-d
data into a counts table and sorts the cell probabilities instead.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import kde_eval
from .order import ProbVector
from .rearrange import DrCdf, DrPdf, MeasureFn, TabulatedFn, _cumtrapz, _swap_axes_to_table

__all__ = [
    "Dataset",
    "KdeModel",
    "McConfig",
    "fit_kde",
    "empirical_dr",
    "empirical_dr_cdf",
    "discrete_empirical_dr",
    "bin_2d",
    "run_manifest",
]

THRESHOLD_FLOOR_RATIO = 1e-6
BOX_MARGIN_BANDWIDTHS = 3.0
BOX_MASS_MIN = 1.0 - 1e-3


class Dataset:
    """Observation matrix: m rows of n real coordinates, m >= 10."""

    def __init__(self, rows, labels=None):
        r = np.asarray(rows, dtype=np.float64)
        if r.ndim == 1:
            r = r[:, None]
        if r.ndim != 2:
            raise ValueError("data must be a 2-d array of observations")
        if r.shape[0] < 10:
            raise ValueError(f"need at least 10 observations, got {r.shape[0]}")
        if not np.all(np.isfinite(r)):
            raise ValueError("data contains non-finite entries")
        self.rows = r
        if labels is None:
            labels = [f"x{j}" for j in range(r.shape[1])]
        if len(labels) != r.shape[1]:
            raise ValueError("one label per column required")
        self.labels = [str(s) for s in labels]

    @property
    def m(self):
        return self.rows.shape[0]

    @property
    def n(self):
        return self.rows.shape[1]

    @classmethod
    def from_csv(cls, path):
        """CSV with one header row of column names, '.' decimal separator."""
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            rows = []
            for lineno, rec in enumerate(reader, start=2):
                if not rec or all(not c.strip() for c in rec):
                    continue
                if len(rec) != len(header):
                    msg = f"{path}:{lineno}: expected {len(header)} fields, got {len(rec)}"
                    raise ValueError(msg)
                try:
                    rows.append([float(c) for c in rec])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: non-numeric entry") from exc
        return cls(np.asarray(rows, dtype=np.float64), [h.strip() for h in header])


class KdeModel:
    """Product-Gaussian mixture: equal-weight kernels at ``centers``.

    The density integrates to 1 analytically for any bandwidth vector, and
    box masses have the exact product-of-normal-cdf form used by the
    bounding-box precondition check.
    """

    def __init__(self, centers, bandwidths):
        c = np.asarray(centers, dtype=np.float64)
        if c.ndim == 1:
            c = c[:, None]
        h = np.asarray(bandwidths, dtype=np.float64).ravel()
        if h.size == 1 and c.shape[1] > 1:
            h = np.full(c.shape[1], float(h[0]))
        if c.shape[0] == 0:
            raise ValueError("a KDE needs at least one center")
        if h.size != c.shape[1]:
            raise ValueError("one bandwidth per dimension required")
        if np.any(h <= 0) or not np.all(np.isfinite(h)):
            raise ValueError("bandwidths must be positive finite")
        if not np.all(np.isfinite(c)):
            raise ValueError("centers must be finite")
        self.centers = c
        self.bandwidths = h

    @property
    def dim(self):
        return self.centers.shape[1]

    def __call__(self, points):
        p = np.asarray(points, dtype=np.float64)
        if p.ndim == 1:
            p = p[:, None] if self.dim == 1 else p[None, :]
        return kde_eval(p, self.centers, self.bandwidths)

    def mass_in_box(self, box):
        """Exact mixture mass inside an axis-aligned box."""
        from scipy.special import ndtr  # here, so that importing drmaj skips scipy

        box = _box_for(self, box)
        lo = (box[:, 0] - self.centers) / self.bandwidths
        hi = (box[:, 1] - self.centers) / self.bandwidths
        return float(np.prod(ndtr(hi) - ndtr(lo), axis=1).mean())

    def default_box(self, margin=BOX_MARGIN_BANDWIDTHS):
        lo = self.centers.min(axis=0) - margin * self.bandwidths
        hi = self.centers.max(axis=0) + margin * self.bandwidths
        return np.column_stack([lo, hi])

    def max_hint(self):
        """Density maximum estimated over the kernel centers."""
        return float(np.max(self(self.centers)))


def fit_kde(data: Dataset, rule="silverman", h=None) -> KdeModel:
    """Diagonal-bandwidth KDE with Silverman or Scott plug-in rules.

    rule: "silverman" (factor (4/(n+2))^(1/(n+4))), "scott" (factor 1), or
    "fixed" with explicit ``h`` (scalar or per-dimension).
    """
    m, n = data.m, data.n
    if rule == "fixed":
        if h is None:
            raise ValueError("rule='fixed' requires h")
        hv = np.asarray(h, dtype=np.float64).ravel()
        if hv.size == 1:
            hv = np.full(n, float(hv[0]))
        return KdeModel(data.rows, hv)
    if rule not in ("silverman", "scott"):
        raise ValueError(f"unknown bandwidth rule {rule!r}")
    sig = np.std(data.rows, axis=0, ddof=1)
    if np.any(sig <= 0):
        j = int(np.argmin(sig))
        raise ValueError(f"degenerate dimension {data.labels[j]!r}: zero variance")
    factor = (4.0 / (n + 2.0)) ** (1.0 / (n + 4.0)) if rule == "silverman" else 1.0
    return KdeModel(data.rows, factor * sig * m ** (-1.0 / (n + 4.0)))


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings for superlevel-set volume estimation."""

    n_points: int = 100_000
    n_thresholds: int = 1024
    bounding_box: np.ndarray | None = None
    seed: int = 0
    sampler: str = "uniform"

    def __post_init__(self):
        if int(self.n_points) < 100:
            raise ValueError("n_points must be at least 100")
        if int(self.n_thresholds) < 64:
            raise ValueError("n_thresholds must be at least 64")
        if self.sampler not in ("uniform", "low_discrepancy"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "n_points", int(self.n_points))
        object.__setattr__(self, "n_thresholds", int(self.n_thresholds))
        object.__setattr__(self, "seed", int(self.seed))
        if self.bounding_box is not None:
            box = np.asarray(self.bounding_box, dtype=np.float64)
            if not np.all(np.isfinite(box)):
                raise ValueError("bounding box must be finite")
            if box.size == 0 or box.size % 2:
                raise ValueError("bounding box needs one [lo, hi] pair per dimension")
            if np.any(np.diff(box.reshape(-1, 2), axis=1) <= 0):
                raise ValueError("bounding box must have lo < hi in every dimension")
            object.__setattr__(self, "bounding_box", box)


def _box_for(kde, box):
    """``box`` as the (dim, 2) array of [lo, hi] rows of the KDE's dimensions."""
    box = np.asarray(box, dtype=np.float64)
    if box.size != 2 * kde.dim:
        raise ValueError(
            f"bounding box has {box.size} entries; a {kde.dim}-d KDE needs shape ({kde.dim}, 2)"
        )
    return box.reshape(kde.dim, 2)


def _resolve_box(kde, cfg):
    if cfg.bounding_box is None:
        box = kde.default_box()
    else:
        box = _box_for(kde, cfg.bounding_box)
    mass = kde.mass_in_box(box)
    if mass < BOX_MASS_MIN:
        raise ValueError(
            f"bounding box holds mass {mass:.6f} < {BOX_MASS_MIN}; widen the box"
        )
    return box


def _sample_box(box, cfg):
    """Deterministic point set in the box; reproducible from the seed alone."""
    n = box.shape[0]
    if cfg.sampler == "low_discrepancy":
        from scipy.stats import qmc  # here, so that importing drmaj skips scipy.stats

        with warnings.catch_warnings():
            # scipy warns when N is not a power of two; balance loss is fine here
            warnings.simplefilter("ignore", UserWarning)
            u = qmc.Sobol(d=n, scramble=True, seed=cfg.seed).random(cfg.n_points)
    else:
        # counter-based generator: point i is a pure function of (seed, i)
        gen = np.random.Generator(np.random.Philox(key=cfg.seed))
        u = gen.random((cfg.n_points, n))
    u *= box[:, 1] - box[:, 0]
    u += box[:, 0]
    return u


def empirical_dr(kde: KdeModel, cfg: McConfig) -> tuple[MeasureFn, DrPdf]:
    """Monte Carlo superlevel-set volumes of a KDE, swapped into a DR pdf.

    For M geometric thresholds y in [max * 1e-6, max], the measure estimate
    is (number of sampled points with density strictly above y) / N times
    the box volume. Counts against falling thresholds never decrease, so the
    measures are monotone by construction and go to the axis swap as counted.
    """
    box = _resolve_box(kde, cfg)
    points = _sample_box(box, cfg)
    volume = float(np.prod(box[:, 1] - box[:, 0]))
    dens = kde(points)
    fmax = max(kde.max_hint(), float(dens.max()))

    thresholds = np.geomspace(fmax, fmax * THRESHOLD_FLOOR_RATIO, cfg.n_thresholds)
    dens_sorted = np.sort(dens)
    above = dens.size - np.searchsorted(dens_sorted, thresholds, side="right")
    if above[-1] == dens.size:
        warnings.warn(
            "every sampled point lies above the smallest threshold: box too tight",
            RuntimeWarning,
            stacklevel=2,
        )
    measures = above * (volume / dens.size)
    measure = MeasureFn(thresholds=thresholds, measures=measures)
    table = _swap_axes_to_table(measures, thresholds, fmax)
    dr = DrPdf(table=table, mass_tol=None)
    share = measures / volume
    dr.mc_standard_error = float(
        np.max(np.sqrt(np.clip(share * (1 - share), 0, None) / dens.size)) * volume
    )
    return measure, dr


def empirical_dr_cdf(dr: DrPdf, z_star) -> DrCdf:
    """Trapezoid-binned cdf of a tabulated DR on the grid ``z_star``.

    Bin masses are cumulated and divided by their total so the cdf ends at
    exactly 1; the pre-normalisation total is kept as ``mass``.
    """
    z = np.unique(np.asarray(z_star, dtype=np.float64).ravel())
    if z.size < 2:
        raise ValueError("z_star must contain at least two distinct points")
    if z[0] < 0:
        raise ValueError("z_star must be nonnegative")
    if z[0] > 0.0:
        z = np.concatenate([[0.0], z])
    cum = _cumtrapz(np.asarray(dr(z), dtype=np.float64), z)
    total = float(cum[-1])
    if total < 0.9:
        raise ValueError(
            f"binned mass {total:.4f} < 0.9: support truncated too aggressively"
        )
    fvals = np.minimum(cum / total, 1.0)
    fvals[-1] = 1.0
    out = DrCdf(table=TabulatedFn(z, fvals), pdf=dr)
    out.mass = total
    return out


def discrete_empirical_dr(counts) -> tuple[ProbVector, DrCdf]:
    """Sorted cell probabilities of a counts table and their step cdf.

    The cdf steps at integer abscissae: F(z) is the sum of the ``floor(z)``
    largest probabilities, a right-continuous staircase reaching 1 at the
    number of nonempty-or-not cells.
    """
    c = np.asarray(counts, dtype=np.float64).ravel()
    if c.size == 0:
        raise ValueError("counts table is empty")
    if np.any(c < 0) or not np.all(np.isfinite(c)):
        raise ValueError("counts must be nonnegative finite")
    if np.any(np.abs(c - np.round(c)) > 1e-9):
        raise ValueError("counts must be integers")
    total = c.sum()
    if total <= 0:
        raise ValueError("all-zero counts table")
    p = np.sort(c / total)[::-1]
    pv = ProbVector(p)
    partial = np.concatenate([[0.0], np.cumsum(p)])
    partial[-1] = 1.0
    k = p.size

    def step(z):
        idx = np.clip(np.floor(np.asarray(z, dtype=np.float64)), 0, k).astype(int)
        return partial[idx]

    return pv, DrCdf(fn=step, z_hi=float(k), require_concave=False)


def bin_2d(data: Dataset, bins_x: int, bins_y: int):
    """Equal-width 2-d histogram counts over the data range."""
    if data.n != 2:
        raise ValueError("bin_2d needs exactly two columns")
    kx, ky = int(bins_x), int(bins_y)
    if kx < 2 or ky < 2:
        raise ValueError("need at least 2 bins per axis")
    x, y = data.rows[:, 0], data.rows[:, 1]

    def _range(v):
        lo, hi = float(v.min()), float(v.max())
        if hi <= lo:  # all points identical on this axis
            return lo - 0.5, lo + 0.5
        return lo, hi

    counts, _, _ = np.histogram2d(x, y, bins=(kx, ky), range=(_range(x), _range(y)))
    return counts.astype(np.int64)


def run_manifest(kde: KdeModel, cfg: McConfig, box=None) -> dict:
    """JSON-ready record of everything needed to reproduce a run."""
    if box is None:
        box = cfg.bounding_box if cfg.bounding_box is not None else kde.default_box()
    box = _box_for(kde, box)
    return {
        "seed": int(cfg.seed),
        "n_points": int(cfg.n_points),
        "n_thresholds": int(cfg.n_thresholds),
        "sampler": cfg.sampler,
        "box": [[float(a), float(b)] for a, b in box],
        "bandwidths": [float(h) for h in kde.bandwidths],
        "n_centers": int(kde.centers.shape[0]),
    }
