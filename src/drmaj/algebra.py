"""Mixing and tropical-algebra operations on decreasing rearrangements.

Inverse mixing adds the superlevel measures of weight-scaled components and
inverts back to a density: the alpha-mix of DRs f1, f2 has measure
``m(v) = m1(v / (1 - alpha)) + m2(v / alpha)``.  Direct mixing averages the
measures at unscaled values, ``(1 - alpha) m1(v) + alpha m2(v)``.  Measures
are clamped at 0 above each component's maximum, which is what produces the
kinks when the component maxima differ.

On DR cdfs, ``otimes`` is equal-weight inverse mixing of the cdfs' measures
through the same inversion, returned as the tabulated cdf of the mixed pdf;
``join``/``meet`` are the pointwise lattice operations, and ``otimes_power``
applies the dilation rule F(z/k).  A small expression language composes
these from family specs or tabulated files.
"""

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .families import dr_family, parse_family
from .order import default_comparison_grid
from .rearrange import (
    TABLE_POINTS,
    DensityFn,
    DrCdf,
    DrPdf,
    Measure,
    TabulatedFn,
    _layer_cake,
    _swap_axes_to_table,
    cdf_of_dr,
    dr_from_density_1d,
    load_tabulated,
    pdf_of_cdf,
)

__all__ = [
    "MixWeight",
    "inverse_mix",
    "inverse_mix_many",
    "direct_mix",
    "inverse_mix_discrete",
    "direct_mix_discrete",
    "otimes",
    "otimes_power",
    "join",
    "meet",
    "convolve_dr",
    "scalar_scale",
    "detect_kink",
    "ExprError",
    "ExprResult",
    "eval_expr",
]

#: value-grid resolution for measure inversion; geometric spacing resolves
#: kinks, which are value-space events
VALUE_GRID_POINTS = 16384
VALUE_FLOOR_RATIO = 1e-12


@dataclass(frozen=True)
class MixWeight:
    """Mixing parameter alpha, strictly inside (0, 1)."""

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not (0.0 < a < 1.0):
            raise ValueError(f"mixing weight must lie in (0, 1), got {a!r}")
        object.__setattr__(self, "alpha", a)

    @classmethod
    def coerce(cls, w):
        return w if isinstance(w, cls) else cls(float(w))


def _require_pdf(f, what):
    if not isinstance(f, DrPdf):
        raise TypeError(f"{what} expects DrPdf inputs")
    return f


def _value_thresholds(vmax, n_grid):
    """Decreasing value grid: geometric overall, refined near the maximum.

    Square-root-shaped measures (smooth density modes) change fastest just
    below the maximum, where geometric spacing alone is too coarse.
    """
    base = np.geomspace(vmax * (1.0 - 1e-9), vmax * VALUE_FLOOR_RATIO, int(n_grid))
    top = vmax * (1.0 - np.geomspace(1e-9, 0.1, 1025)[1:-1])
    return np.unique(np.concatenate([base, top]))[::-1]


def _pdf_from_measure(measure, n_grid=VALUE_GRID_POINTS):
    """Invert a mixture's :class:`Measure` into a tabulated DrPdf.

    Bracketing each of the measure's ``jumps`` in the value grid keeps the
    flat pdf stretches, and hence the mass, exact.  The result carries the
    measure only when it is exact; one that interpolates an operand's pdf
    samples is dropped, and the result interpolates its own table instead.
    """
    vmax = measure.vmax
    if not math.isfinite(vmax) or vmax <= 0.0:
        raise ValueError("mixture has degenerate value range; cannot invert")
    thresholds = _value_thresholds(vmax, n_grid)
    j = measure.jumps
    j = j[(j > vmax * VALUE_FLOOR_RATIO) & (j < vmax * (1.0 - 1e-9))]
    if j.size:
        brackets = np.concatenate([j * (1.0 - 1e-9), j * (1.0 + 1e-9)])
        thresholds = np.unique(np.concatenate([thresholds, brackets]))[::-1]
    measures = np.asarray(measure.fn(thresholds), dtype=np.float64)
    if not np.all(np.isfinite(measures)):
        raise ValueError("measure function produced non-finite values")
    table = _swap_axes_to_table(measures, thresholds, vmax)
    return DrPdf(table=table, measure=measure if measure.exact else None, mass_tol=1e-5)


def _measure_sum(measures, scales, coefs):
    """Measure ``sum_i c_i m_i(v / s_i)`` of a mix, exact when every term is.

    Each scaled maximum ``s_i max m_i`` below the largest is a break of the
    sum, as is each operand's break times ``s_i``; its jumps scale the same way.
    """
    maxima = [s * m.vmax for m, s in zip(measures, scales)]
    vmax = max(maxima)
    entries = [mx for mx in maxima if mx < vmax * (1.0 - 1e-12)]
    return Measure(
        lambda v: sum(c * m(v / s) for m, s, c in zip(measures, scales, coefs)),
        vmax,
        np.concatenate([entries] + [s * m.breaks for m, s in zip(measures, scales)]),
        np.concatenate([s * m.jumps for m, s in zip(measures, scales)]),
        all(m.exact for m in measures),
    )


def inverse_mix(f1, f2, w=0.5):
    """Alpha-inverse mixing of two DR pdfs.

    The component measures are evaluated at ``v/(1-alpha)`` and ``v/alpha``
    (clamped to 0 above each maximum) and summed; the sum is inverted on a
    geometric value grid.  The levels where one component's scaled maximum
    is crossed are the result's ``measure.breaks``.
    """
    _require_pdf(f1, "inverse_mix")
    _require_pdf(f2, "inverse_mix")
    a = MixWeight.coerce(w).alpha
    return inverse_mix_many([f1, f2], [1.0 - a, a])


def inverse_mix_many(pdfs, weights):
    """Weighted inverse mixing of any number of DR pdfs.

    ``weights`` must be positive and sum to 1; the mixed measure is
    ``sum_i m_i(v / w_i)``.
    """
    pdfs = [_require_pdf(f, "inverse_mix_many") for f in pdfs]
    wts = np.asarray(weights, dtype=np.float64)
    if wts.size != len(pdfs):
        raise ValueError("one weight per pdf required")
    if not np.all(wts > 0.0) or abs(float(wts.sum()) - 1.0) > 1e-9:  # NaN fails "> 0"
        raise ValueError("weights must be positive and sum to 1")
    measures = [f.measure for f in pdfs]
    return _pdf_from_measure(_measure_sum(measures, wts, np.ones_like(wts)))


def direct_mix(f1, f2, w=0.5):
    """Direct (alpha-weighted) mixing of two DR pdfs.

    Averages the measures at unscaled values, ``(1-alpha) m1(v) + alpha
    m2(v)``, and inverts.  For the equal-weight self mix this is the
    identity; against :func:`inverse_mix` at alpha = 1/2 it satisfies
    ``direct(z) = 2 * inverse(2z)``.
    """
    _require_pdf(f1, "direct_mix")
    _require_pdf(f2, "direct_mix")
    a = MixWeight.coerce(w).alpha
    measures = [f1.measure, f2.measure]
    return _pdf_from_measure(_measure_sum(measures, (1.0, 1.0), (1.0 - a, a)))


def inverse_mix_discrete(p, q, w=0.5):
    """Discrete inverse mixing: pool ``(1-alpha) p`` with ``alpha q``, sorted.

    Returns the pooled probabilities in nonincreasing order; they sum to 1.
    """
    a = MixWeight.coerce(w).alpha
    pv = np.asarray(p, dtype=np.float64).ravel()
    qv = np.asarray(q, dtype=np.float64).ravel()
    pooled = np.concatenate([(1.0 - a) * pv, a * qv])
    if not np.all(np.isfinite(pooled)):
        raise ValueError("probabilities must be finite")
    if np.any(pooled < 0.0):
        raise ValueError("probabilities must be nonnegative")
    if abs(float(pv.sum()) - 1.0) > 1e-9 or abs(float(qv.sum()) - 1.0) > 1e-9:
        raise ValueError("inputs must each sum to 1")
    return np.sort(pooled)[::-1]


def direct_mix_discrete(p, q, w=0.5):
    """Discrete direct mixing: average the sorted vectors elementwise."""
    a = MixWeight.coerce(w).alpha
    pv = np.sort(np.asarray(p, dtype=np.float64).ravel())[::-1]
    qv = np.sort(np.asarray(q, dtype=np.float64).ravel())[::-1]
    n = max(pv.size, qv.size)
    pv = np.pad(pv, (0, n - pv.size))
    qv = np.pad(qv, (0, n - qv.size))
    if not (np.all(np.isfinite(pv)) and np.all(np.isfinite(qv))):
        raise ValueError("probabilities must be finite")
    if np.any(pv < 0.0) or np.any(qv < 0.0):
        raise ValueError("probabilities must be nonnegative")
    if abs(float(pv.sum()) - 1.0) > 1e-9 or abs(float(qv.sum()) - 1.0) > 1e-9:
        raise ValueError("inputs must each sum to 1")
    return (1.0 - a) * pv + a * qv


def _measure_of_cdf(F):
    """Superlevel :class:`Measure` of a DR cdf's derivative.

    Prefers the attached pdf; otherwise differentiates a tabulation.  A
    non-concave table (a join of crossing cdfs) is handled by rearranging its
    segment slopes, which is the DR of its derivative; the resulting measure
    is a step function, exact, with a jump at each distinct slope.
    """
    if F.pdf is not None:
        return F.pdf.measure
    table = F.tabulated()
    widths = np.diff(table.grid)
    slopes = np.diff(table.values) / widths
    step = _layer_cake(widths, slopes, slopes)
    return Measure(step, slopes.max(), jumps=np.unique(slopes))


def otimes(F1, F2, n_grid=VALUE_GRID_POINTS):
    """Tropical product of DR cdfs: equal-weight inverse mixing.

    Returns ``cdf_of_dr`` of the mixed pdf: a table on the pdf's knots.
    """
    if not isinstance(F1, DrCdf) or not isinstance(F2, DrCdf):
        raise TypeError("otimes expects DrCdf arguments")
    measures = [_measure_of_cdf(F) for F in (F1, F2)]
    pdf = _pdf_from_measure(_measure_sum(measures, (0.5, 0.5), (1.0, 1.0)), n_grid)
    return cdf_of_dr(pdf)


def _power(k):
    k = float(k)
    if not (math.isfinite(k) and k >= 1.0):
        raise ValueError(f"power must be finite and at least 1, got {k!r}")
    return k


def otimes_power(F, k):
    """k-th tropical power of a DR cdf: the dilation F(z/k)."""
    if not isinstance(F, DrCdf):
        raise TypeError("otimes_power expects a DrCdf")
    k = _power(k)
    if k == 1.0:
        return F
    scaled_pdf = None
    if F.pdf is not None:
        p = F.pdf
        # an inexact measure is left for the scaled pdf to interpolate anew
        measure = p.measure.dilated(k) if p.measure.exact else None
        if p.table is not None:
            table = TabulatedFn(p.table.grid * k, p.table.values / k, "nonincreasing")
            scaled_pdf = DrPdf(table=table, measure=measure, mass_tol=1e-4)
        else:
            scaled_pdf = DrPdf(
                fn=lambda z: np.asarray(p(np.asarray(z, dtype=np.float64) / k)) / k,
                z_max=p.z_max * k if math.isfinite(p.z_max) else math.inf,
                measure=measure,
                z_hi=p.z_hi * k,
            )
    if F.table is not None:
        return DrCdf(
            table=TabulatedFn(F.table.grid * k, F.table.values, "nondecreasing"),
            pdf=scaled_pdf,
            require_concave=F.concave,
        )
    return DrCdf(
        fn=lambda z: F(np.asarray(z, dtype=np.float64) / k),
        pdf=scaled_pdf,
        inverse=None if F.inverse is None else (lambda pr: k * np.asarray(F.inverse(np.asarray(pr)), dtype=np.float64)),
        z_hi=F.z_hi * k,
        z_max=F.z_max * k if math.isfinite(F.z_max) else math.inf,
    )


def _lattice(F1, F2, op):
    if not isinstance(F1, DrCdf) or not isinstance(F2, DrCdf):
        raise TypeError("lattice operations expect DrCdf arguments")
    # when one input dominates pointwise the lattice collapses to an input,
    # which is returned as-is to keep its pdf and closed form
    g = default_comparison_grid(F1, F2).points
    d = F1(g) - F2(g)
    if np.all(d >= -1e-12):
        return F1 if op is np.maximum else F2
    if np.all(d <= 1e-12):
        return F2 if op is np.maximum else F1
    # crossing pair: close over the inputs rather than tabulate, so the
    # defining pointwise inequalities against F1 and F2 hold exactly
    z_hi = max(F1.effective_support(1e-8), F2.effective_support(1e-8))
    return DrCdf(
        fn=lambda z: op(F1(np.asarray(z, dtype=np.float64)), F2(np.asarray(z, dtype=np.float64))),
        z_hi=z_hi,
        require_concave=False,
    )


def join(F1, F2):
    """Pointwise maximum of two DR cdfs (the optimistic combination).

    The max of crossing concave cdfs can fail concavity; the result's
    ``concave`` flag reports whether it is a genuine DR cdf.
    """
    return _lattice(F1, F2, np.maximum)


def meet(F1, F2):
    """Pointwise minimum of two DR cdfs; always concave."""
    return _lattice(F1, F2, np.minimum)


def _mass_quantile(pdf, frac):
    """z below which the pdf holds ``frac`` of its mass, by trapezoids on its table.

    An eighth of the default resolution, within 1e-3 of the exact quantile up to
    ``exp:n=20``, is enough for the step it sets.
    """
    table = pdf.tabulated(TABLE_POINTS // 8)
    z, v = table.grid, table.values
    cum = np.cumsum(np.append(0.0, 0.5 * (v[1:] + v[:-1]) * np.diff(z)))
    return float(np.interp(frac * cum[-1], cum, z))


def convolve_dr(f1, f2):
    """DR cdf of the sum of independent variables with DR densities f1, f2.

    The densities are convolved on a shared uniform grid (step chosen so the
    narrower 1 - 1e-6 mass range gets 512 points, trapezoid end correction
    applied), rearranged, and integrated.
    """
    _require_pdf(f1, "convolve_dr")
    _require_pdf(f2, "convolve_dr")
    h = min(_mass_quantile(f1, 1.0 - 1e-6), _mass_quantile(f2, 1.0 - 1e-6)) / 512.0
    n1 = int(math.ceil(f1.z_hi / h)) + 1
    n2 = int(math.ceil(f2.z_hi / h)) + 1
    a = f1(np.arange(n1) * h)
    b = f2(np.arange(n2) * h)
    conv = np.convolve(a, b)
    # rectangle sum -> trapezoid: halve the two boundary products
    k = conv.size
    corr = np.zeros(k)
    corr[:n2] += a[0] * b
    corr[:n1] += b[0] * a
    conv = (conv - 0.5 * corr) * h
    conv = np.maximum(conv, 0.0)
    z_out = np.arange(k) * h
    mass = float(np.trapezoid(conv, z_out))
    if mass < 1.0 - 1e-4:
        raise ValueError(
            f"convolution mass {mass:.6g} short of 1: extend support of the inputs"
        )

    def density(z):
        return np.interp(z, z_out, conv)

    g = DensityFn.from_univariate(density, 0.0, float(z_out[-1]), integral_tol=None)
    return cdf_of_dr(dr_from_density_1d(g))


def scalar_scale(F, beta):
    """Pointwise scaling beta * F(z), returned as a table.

    Only beta = 1 yields a cdf; the result's ``is_cdf`` attribute flags this.
    """
    if not isinstance(F, DrCdf):
        raise TypeError("scalar_scale expects a DrCdf")
    beta = float(beta)
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"scale factor must be finite and positive, got {beta!r}")
    base = F.tabulated()
    out = TabulatedFn(base.grid.copy(), beta * base.values, "nondecreasing")
    out.is_cdf = beta == 1.0
    return out


def detect_kink(f):
    """Locate a slope discontinuity of ``log f`` on a tabulated DR pdf.

    The knot with the largest jump between adjacent log-slopes is the
    candidate; straight lines fitted a couple of knots away on each side are
    intersected to refine the location (exact when both branches are
    log-linear).  Returns the kink's z, or None when the largest jump is
    below 1e-3.
    """
    if isinstance(f, DrPdf):
        table = f.tabulated()
    elif isinstance(f, TabulatedFn):
        table = f
    else:
        raise TypeError("detect_kink expects a DrPdf or TabulatedFn")
    keep = table.values > table.values[0] * 1e-9
    z = table.grid[keep]
    logf = np.log(table.values[keep])
    if z.size < 6:
        raise ValueError("table too short for kink detection")
    slopes = np.diff(logf) / np.diff(z)
    change = np.abs(np.diff(slopes))
    k = int(np.argmax(change)) + 1  # knot between the two segments
    # a kink is a local outlier; smooth curvature moves neighbouring slope
    # changes by comparable amounts
    lo_n = max(0, k - 1 - 12)
    hi_n = min(change.size, k + 12)
    local = np.concatenate(
        [change[lo_n : max(lo_n, k - 2)], change[min(change.size, k + 1) : hi_n]]
    )
    background = float(local.max()) if local.size else 0.0
    if change[k - 1] < 1e-3 or change[k - 1] < 10.0 * (background + 1e-15):
        return None
    lo = max(0, k - 10)
    hi = min(z.size, k + 11)
    left = slice(lo, max(lo + 2, k - 1))
    right = slice(min(hi - 2, k + 2), hi)
    c1, b1 = np.polyfit(z[left], logf[left], 1)
    c2, b2 = np.polyfit(z[right], logf[right], 1)
    if abs(c1 - c2) < 1e-12:
        return float(z[k])
    return float((b2 - b1) / (c1 - c2))


class ExprError(ValueError):
    """Raised for malformed or unresolvable expressions."""


@dataclass
class ExprResult:
    """Evaluated expression: a DR cdf and its label."""

    cdf: DrCdf
    label: str

    @property
    def pdf(self):
        """The cdf's DR pdf, or None when it has none."""
        return self.cdf.pdf


_CALL_RE = re.compile(r"^([A-Za-z_]\w*)\((.*)\)$", re.S)
_FAMILY_KEYS = {"n", "var", "theta"}
_OP_KWARGS = {
    "mix": {"alpha"},
    "dmix": {"alpha"},
    "pow": {"k"},
    "join": set(),
    "meet": set(),
    "conv": set(),
    "otimes": set(),
}


def _split_top(s):
    parts = []
    depth = 0
    cur = []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ExprError("unbalanced parentheses")
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ExprError("unbalanced parentheses")
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def _reassemble_family_args(parts, op_kwargs):
    """Glue family parameters split off by top-level commas back onto their spec.

    ``mvn:n=2,var=1`` splits into two parts; ``var=1`` is not a kwarg of any
    operation, so it belongs to the preceding family spec.
    """
    out = []
    for part in parts:
        m = re.match(r"^(\w+)\s*=", part)
        if m and m.group(1) in _FAMILY_KEYS and m.group(1) not in op_kwargs and out:
            out[-1] = out[-1] + "," + part
        else:
            out.append(part)
    return out


def _leaf(text):
    text = text.strip()
    try:
        spec = parse_family(text)
    except ValueError as exc:
        spec, cause = None, str(exc)
    if spec is not None:
        return ExprResult(cdf=dr_family(spec)[1], label=spec.label())
    if os.path.exists(text):
        try:
            table = load_tabulated(text)
        except (OSError, ValueError) as exc:
            raise ExprError(f"{text}: {exc}") from exc
        if table.monotone == "nonincreasing":
            return ExprResult(cdf=cdf_of_dr(DrPdf(table=table, mass_tol=1e-3)), label=text)
        cdf = DrCdf(table=table, require_concave=False)
        if cdf.concave:
            cdf = DrCdf(table=table, pdf=pdf_of_cdf(cdf))
        return ExprResult(cdf=cdf, label=text)
    if not cause.startswith("unparseable"):  # a family spec, with a bad parameter
        raise ExprError(cause)
    raise ExprError(f"unknown identifier: {text!r} (not a family spec or file)")


def _need_pdf(res):
    if res.pdf is None:
        raise ExprError(f"operand {res.label!r} has no well-defined DR pdf")
    return res.pdf


def eval_expr(text):
    """Evaluate a composition expression into an :class:`ExprResult`.

    Operations: ``mix(a,b,alpha=0.5)``, ``dmix(a,b,alpha=0.5)``,
    ``pow(a,k)``, ``join(a,b)``, ``meet(a,b)``, ``conv(a,b)``,
    ``otimes(a,b)``.  Leaves are family specs or paths to tabulated files.
    """
    text = text.strip()
    m = _CALL_RE.match(text)
    if m is None or m.group(1) not in _OP_KWARGS:
        return _leaf(text)
    op = m.group(1)
    allowed = _OP_KWARGS[op]
    raw_parts = _reassemble_family_args(_split_top(m.group(2)), allowed)
    args = []
    kwargs = {}
    for part in raw_parts:
        km = re.match(r"^(\w+)\s*=\s*([^\s(),]+)$", part)
        if km and km.group(1) in allowed:
            try:
                kwargs[km.group(1)] = float(km.group(2))
            except ValueError as exc:
                raise ExprError(f"{km.group(1)} must be a number, got {km.group(2)!r}") from exc
            continue
        try:
            args.append(float(part))
        except ValueError:
            args.append(eval_expr(part))
    label = f"{op}({', '.join(p for p in raw_parts)})"

    def binary():
        if len(args) != 2 or any(isinstance(a, float) for a in args):
            raise ExprError(f"{op} takes exactly two distribution operands")
        return args

    if op in ("mix", "dmix"):
        a, b = binary()
        try:
            alpha = MixWeight.coerce(kwargs.get("alpha", 0.5))
        except ValueError as exc:
            raise ExprError(str(exc)) from exc
        fn = inverse_mix if op == "mix" else direct_mix
        return ExprResult(cdf=cdf_of_dr(fn(_need_pdf(a), _need_pdf(b), alpha)), label=label)
    if op == "pow":
        dist = [a for a in args if isinstance(a, ExprResult)]
        nums = [a for a in args if isinstance(a, float)]
        if len(dist) != 1 or len(nums) + ("k" in kwargs) != 1:
            raise ExprError("pow takes one distribution and one power")
        try:
            k = _power(kwargs.get("k", nums[0] if nums else None))
        except ValueError as exc:
            raise ExprError(str(exc)) from exc
        return ExprResult(cdf=otimes_power(dist[0].cdf, k), label=label)
    if op in ("join", "meet"):
        a, b = binary()
        # collapsed lattices hand back an input cdf, which keeps its pdf
        cdf = join(a.cdf, b.cdf) if op == "join" else meet(a.cdf, b.cdf)
        return ExprResult(cdf=cdf, label=label)
    if op == "conv":
        a, b = binary()
        return ExprResult(cdf=convolve_dr(_need_pdf(a), _need_pdf(b)), label=label)
    if op == "otimes":
        a, b = binary()
        return ExprResult(cdf=otimes(a.cdf, b.cdf), label=label)
    raise ExprError(f"unknown operation {op!r}")  # pragma: no cover
