"""Schur-concave entropies and moments of decreasing rearrangements.

Rearranging a density does not change integrals of pointwise gauges, so the
entropy of a DR pdf equals the differential entropy of every density that
rearranges to it.  A DR with an exact superlevel ``Measure`` m(u) (closed
forms, and mixes and tropical products built from them) is integrated on the
level side, by the layer-cake formula: the entropy is the integral of m(u)
h'(u) du, the mean of m(u)^2 / 2 du and the second moment of m(u)^3 / 3 du.
These integrals take the level-side panel rule of :mod:`drmaj.rearrange`
(``_level_quad``, which the slice integrals of :mod:`drmaj.order` share): an
adaptive Gauss-Legendre 21/10 rule on t = -log(u / max f), with panel edges
at the measure's break levels, that integrates each segment starting at
t = 0 or at a break in s = sqrt(t - start), so the square-root start of a
smooth mode costs no extra passes.  Tabulated DRs without a measure fall back
to trapezoid sums on their knots, with tails beyond the table contributing
zero.  So do mixes and tropical products of an operand without a measure (a
table, a convolution, ``beta32``): their measure would interpolate that
operand's samples, whose thousands of kinks the panel rule cannot resolve
within its tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .order import ProbMatrix, _coerce_vec
from .rearrange import DrPdf, _level_quad

__all__ = [
    "EntropyKind",
    "SHANNON",
    "BinaryJointSpec",
    "StationaryEpsilon",
    "entropy_discrete",
    "entropy_dr",
    "moments_dr",
    "binary_joint",
    "epsilon_bound",
    "max_entropy_epsilon",
]


@dataclass(frozen=True)
class EntropyKind:
    """Entropy gauge: ``shannon`` or ``tsallis`` with a finite parameter gamma > 0.

    Shannon sums ``-p log p`` with ``0 log 0 = 0``; Tsallis sums
    ``(p / gamma) (1 - p**gamma)``, which tends to the Shannon gauge as
    gamma -> 0 and to the Gini/collision form ``1 - sum p**2`` at gamma = 1.
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("shannon", "tsallis"):
            raise ValueError(f"unknown entropy kind {self.kind!r}")
        if self.kind == "tsallis":
            if self.gamma is None or not 0.0 < float(self.gamma) < math.inf:
                raise ValueError("tsallis entropy needs a finite gamma > 0")
            object.__setattr__(self, "gamma", float(self.gamma))
        elif self.gamma is not None:
            raise ValueError("gamma applies to tsallis only")

    @classmethod
    def tsallis(cls, gamma):
        return cls("tsallis", float(gamma))

    def label(self):
        if self.kind == "shannon":
            return "shannon"
        return f"tsallis:{self.gamma:g}"


SHANNON = EntropyKind("shannon")


def _gauge(values, kind):
    """Pointwise integrand h(y) of the entropy functional."""
    y = np.asarray(values, dtype=np.float64)
    if kind.kind == "shannon":
        out = np.zeros_like(y)
        pos = y > 0.0
        out[pos] = -y[pos] * np.log(y[pos])
        return out
    g = kind.gamma
    return (y / g) * (1.0 - y**g)


def _gauge_slope(u, kind):
    """h'(u) for levels u > 0, used by the level-side (layer cake) quadrature."""
    if kind.kind == "shannon":
        return -np.log(u) - 1.0
    g = kind.gamma
    return (1.0 - (1.0 + g) * u**g) / g


def entropy_discrete(p, kind=SHANNON):
    """Entropy of a probability vector or joint table (a ProbVector, ProbMatrix or array)."""
    return float(_gauge(_coerce_vec(p).values, kind).sum())


# ---------------------------------------------------------------------------
# DR functionals
# ---------------------------------------------------------------------------


def _decayed_samples(f, what):
    """Knots and values of the pdf's table, once its tail has decayed."""
    table = f.tabulated()
    if table.values[-1] > 1e-2 * table.values[0]:
        raise ValueError(f"{what}: pdf tail has not decayed within the tabulated support")
    return table.grid, table.values


def entropy_dr(f: DrPdf, kind=SHANNON) -> float:
    """Differential entropy ``int h(f~(z)) dz`` of a DR pdf."""
    if f.measure.exact:
        (h,) = _level_quad(
            f, lambda u: (f.measure_at(u) * _gauge_slope(u, kind))[:, None], "entropy"
        )
        return float(h)
    z, v = _decayed_samples(f, "entropy")
    return float(np.trapezoid(_gauge(v, kind), z))


def moments_dr(f: DrPdf) -> tuple[float, float]:
    """Mean and variance of the rearranged variable z under the DR density."""
    if f.measure.exact:

        def halves_and_thirds(u):
            m = f.measure_at(u)
            return np.column_stack([0.5 * m**2, m**3 / 3.0])

        first, second = (float(x) for x in _level_quad(f, halves_and_thirds, "moment"))
    else:
        z, v = _decayed_samples(f, "moments")
        first = float(np.trapezoid(z * v, z))
        second = float(np.trapezoid(z * z * v, z))
    return first, second - first * first


# ---------------------------------------------------------------------------
# binary joint tables and the entropy-maximising perturbation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryJointSpec:
    """2x2 joint law with margins P(X1=0)=alpha, P(X2=0)=beta, shifted by epsilon.

    epsilon moves mass onto the diagonal: p00 and p11 gain epsilon, p01 and
    p10 lose it, so both margins stay fixed. Feasibility requires |epsilon|
    below the smallest cell of the independence table.
    """

    alpha: float
    beta: float
    epsilon: float = 0.0

    def __post_init__(self):
        a, b = float(self.alpha), float(self.beta)
        if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
            raise ValueError("margins must lie strictly inside (0, 1)")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "epsilon", float(self.epsilon))


def _independence(alpha, beta):
    return np.array(
        [
            [alpha * beta, alpha * (1.0 - beta)],
            [(1.0 - alpha) * beta, (1.0 - alpha) * (1.0 - beta)],
        ]
    )


def epsilon_bound(alpha, beta) -> float:
    """Supremum of |epsilon| keeping the perturbed table nonnegative."""
    return float(_independence(float(alpha), float(beta)).min())


def binary_joint(spec: BinaryJointSpec) -> ProbMatrix:
    """The perturbed 2x2 table [[p00, p01], [p10, p11]] as a ProbMatrix."""
    bound = epsilon_bound(spec.alpha, spec.beta)
    if abs(spec.epsilon) > bound:
        raise ValueError(
            f"epsilon {spec.epsilon!r} outside the feasible interval "
            f"(-{bound:g}, {bound:g})"
        )
    table = _independence(spec.alpha, spec.beta)
    table[0, 0] += spec.epsilon
    table[1, 1] += spec.epsilon
    table[0, 1] -= spec.epsilon
    table[1, 0] -= spec.epsilon
    return ProbMatrix(table)


class StationaryEpsilon(float):
    """Float carrying a ``boundary`` flag when the optimum hit the feasible edge."""

    boundary: bool

    def __new__(cls, value, boundary=False):
        out = super().__new__(cls, float(value))
        out.boundary = bool(boundary)
        return out

    def __repr__(self):
        tag = ", boundary" if self.boundary else ""
        return f"StationaryEpsilon({float(self)!r}{tag})"


def max_entropy_epsilon(alpha, beta, kind=SHANNON) -> StationaryEpsilon:
    """Epsilon maximising the joint entropy of ``binary_joint`` at fixed margins.

    Shannon is maximised at independence (epsilon = 0) for every margin pair.
    Tsallis gamma = 1 has the closed form -(2 beta - 1)(2 alpha - 1) / 4;
    other gammas are solved numerically. Stationary points outside the
    feasible interval are clamped to the nearest endpoint and flagged
    ``boundary``.
    """
    a, b = float(alpha), float(beta)
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ValueError("margins must lie strictly inside (0, 1)")
    if kind.kind == "shannon":
        return StationaryEpsilon(0.0)
    bound = epsilon_bound(a, b)
    g = kind.gamma
    if g == 1.0:
        star = -0.25 * (2.0 * b - 1.0) * (2.0 * a - 1.0)
    else:
        star = _tsallis_stationary(a, b, g, bound)
    if abs(star) >= bound:
        return StationaryEpsilon(math.copysign(bound, star), boundary=True)
    return StationaryEpsilon(star)


def _tsallis_stationary(alpha, beta, gamma, bound):
    """Root of dH/d epsilon for the Tsallis gauge; +-inf when outside the box.

    H is concave in epsilon (each cell is affine, the gauge is concave), and
    dH/d epsilon is a negative multiple of
    s(e) = p00^g - p10^g - p01^g + p11^g, which increases in e; so H has a
    unique interior maximum exactly where s crosses zero.
    """
    base = _independence(alpha, beta)
    p00, p01 = base[0]
    p10, p11 = base[1]

    def s(e):
        return (
            (p00 + e) ** gamma
            - (p10 - e) ** gamma
            - (p01 - e) ** gamma
            + (p11 + e) ** gamma
        )

    lo = -bound * (1.0 - 1e-12)
    hi = bound * (1.0 - 1e-12)
    if s(lo) >= 0.0:
        return -math.inf
    if s(hi) <= 0.0:
        return math.inf
    from scipy.optimize import brentq  # here, so that importing drmaj skips scipy.optimize

    return float(brentq(s, lo, hi, xtol=1e-15))
