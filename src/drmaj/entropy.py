"""Schur-concave entropies and moments of decreasing rearrangements.

Rearranging a density does not change integrals of pointwise gauges, so the
entropy of a DR pdf equals the differential entropy of every density that
rearranges to it.  A DR with an exact superlevel ``Measure`` m(u) (closed
forms, and mixes and tropical products built from them) is integrated on the
level side, by the layer-cake formula: the entropy is the integral of m(u)
h'(u) du, the mean of m(u)^2 / 2 du and the second moment of m(u)^3 / 3 du.
The level axis is taken as t = -log(u / max f), where the integrands decay,
and cut into panels, with edges at the measure's break levels, by an
adaptive Gauss-Legendre 21/10 rule: every pass evaluates the measure once,
on the nodes of all panels not yet accepted, accepts a panel whose 21- and
10-point sums agree within its share of the tolerance, and bisects the
others; it stops when the summed panel errors meet the tolerance (see
``_level_quad``).  Tabulated DRs without a measure fall back to trapezoid
sums on their knots, with tails beyond the table contributing zero.  So do
mixes and tropical products of an operand without a measure (a table, a
convolution, ``beta32``): their measure would interpolate that operand's
samples, whose thousands of kinks the panel rule cannot resolve within its
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .order import ProbMatrix, ProbVector
from .rearrange import DrPdf

__all__ = [
    "EntropyKind",
    "SHANNON",
    "BinaryJointSpec",
    "StationaryEpsilon",
    "entropy_discrete",
    "entropy_dr",
    "moments_dr",
    "binary_joint",
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

    @classmethod
    def parse(cls, text):
        """``"shannon"`` or ``"tsallis:GAMMA"``."""
        parts = str(text).strip().lower().split(":")
        if parts[0] == "shannon" and len(parts) == 1:
            return cls("shannon")
        if parts[0] == "tsallis" and len(parts) == 2:
            try:
                return cls.tsallis(float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"bad tsallis gamma in {text!r}") from exc
        raise ValueError(f"cannot parse entropy kind {text!r}")

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
    """Entropy of a probability vector or joint table.

    Accepts ProbVector, ProbMatrix, or any array summing to 1 within 1e-9.
    """
    if isinstance(p, ProbMatrix):
        q = p.values.ravel()
    elif isinstance(p, ProbVector):
        q = p.values
    else:
        q = np.asarray(p, dtype=np.float64).ravel()
        if q.size == 0 or not np.all(np.isfinite(q)):
            raise ValueError("probability vector must be finite and nonempty")
        if np.any(q < 0.0):
            raise ValueError("negative probability entries")
        if abs(float(q.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {float(q.sum())!r}, not 1")
    return float(_gauge(q, kind).sum())


# ---------------------------------------------------------------------------
# DR functionals
# ---------------------------------------------------------------------------

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


def _level_quad(f, g_of_u, what):
    """Integrals of the k columns of G(u) u dt, t = -log(u / vmax) in [0, T].

    This is the layer-cake integral of G(u) du over (0, max f].  ``g_of_u``
    maps n levels to an (n, k) array; G carries the superlevel measure, so
    polynomial-in-log growth is damped by the u factor.  T = log(vmax) + 745,
    beyond which u underflows to 0.  The first panels have edges at 0, at the
    measure's break levels (``_level_breaks``) and at powers of 2.  Each pass
    evaluates G once, on the nodes of every pending panel; a panel's value is its
    21-point Gauss-Legendre sum and its error the distance to the 10-point
    sum.  A panel whose error, in every column, is within its share of the
    tolerance (its width over T) is kept; the others are bisected, until the
    errors of all panels sum within the tolerance, ``_LEVEL_RTOL`` times the
    larger of 1 and the column's total.  A non-finite value raises (the tail
    does not decay), and so does a run past ``_MAX_PANELS`` panels (the
    measure has more jumps than the panels can resolve).
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

    powers = 2.0 ** np.arange(math.ceil(math.log2(end)))
    edges = np.unique(np.concatenate([[0.0, end], _level_breaks(f), powers]))
    edges = edges[edges <= end]
    lo, hi = edges[:-1], edges[1:]
    kept_sum = kept_err = 0.0
    panels = lo.size
    while True:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vals = integrand((mid[:, None] + half[:, None] * _NODES).ravel())
        if not np.all(np.isfinite(vals)):
            raise fail()
        rules = np.einsum("pnk,nr->rpk", vals.reshape(lo.size, _NODES.size, -1), _WEIGHTS)
        value = half[:, None] * rules[0]
        err = half[:, None] * np.abs(rules[0] - rules[1])
        tol = _LEVEL_RTOL * np.maximum(1.0, np.abs(kept_sum + value.sum(axis=0)))
        todo = np.any(err > tol * (2.0 * half / end)[:, None], axis=1)
        kept_sum = kept_sum + value[~todo].sum(axis=0)
        kept_err = kept_err + err[~todo].sum(axis=0)
        if not todo.any() or np.all(kept_err + err[todo].sum(axis=0) <= tol):
            total = kept_sum + value[todo].sum(axis=0)
            break
        panels += int(np.count_nonzero(todo))
        if panels > _MAX_PANELS:
            raise ValueError(
                f"{what} quadrature did not converge: more than {_MAX_PANELS} panels; "
                "the measure has more jumps than the panels can resolve"
            )
        lo, mid, hi = lo[todo], mid[todo], hi[todo]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    # a u-side integrand still flat at t ~ 300 (u ~ vmax * e^-300) means the
    # integral diverges; the finite t range would truncate it to a confident
    # finite value that the panel error estimate cannot see
    at300, at600 = np.abs(integrand(np.array([300.0, 600.0])))
    if np.any((at300 > 1e-12 * np.maximum(1.0, np.abs(total))) & (at600 > 0.5 * at300)):
        raise fail()
    return total


def _pdf_samples(f):
    """Knots for z-side integration of a DR without an exact measure."""
    if f.table is not None:
        return f.table.grid, f.table.values
    hi = f.z_hi
    z = np.unique(
        np.concatenate([np.linspace(0.0, hi, 4097), np.geomspace(hi * 1e-9, hi, 513)])
    )
    return z, np.asarray(f(z), dtype=np.float64)


def _check_tail(values, what):
    v = np.asarray(values, dtype=np.float64)
    if v[-1] > 1e-2 * v[0]:
        raise ValueError(
            f"{what}: pdf tail has not decayed within the tabulated support"
        )


def entropy_dr(f: DrPdf, kind=SHANNON) -> float:
    """Differential entropy ``int h(f~(z)) dz`` of a DR pdf."""
    if f.measure.exact:
        (h,) = _level_quad(
            f, lambda u: (f.measure_at(u) * _gauge_slope(u, kind))[:, None], "entropy"
        )
        return float(h)
    z, v = _pdf_samples(f)
    _check_tail(v, "entropy")
    return float(np.trapezoid(_gauge(v, kind), z))


def moments_dr(f: DrPdf) -> tuple[float, float]:
    """Mean and variance of the rearranged variable z under the DR density."""
    if f.measure.exact:

        def halves_and_thirds(u):
            m = f.measure_at(u)
            return np.column_stack([0.5 * m**2, m**3 / 3.0])

        first, second = (float(x) for x in _level_quad(f, halves_and_thirds, "moment"))
    else:
        z, v = _pdf_samples(f)
        _check_tail(v, "moments")
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
    return float(brentq(s, lo, hi, xtol=1e-15))
