"""The four workloads: each builds a fixed, seeded list of ops and their checks.

An op calls drmaj only through the package namespace (``drmaj.<name>``), so
that the traced run can swap in timing wrappers.  ``run`` returns a dict of
outputs; keys starting with ``_`` hold objects for later checks and are left
out of the output digest.  ``check`` returns a list of problems (empty when the
op passed) and may read the outputs of earlier ops of the same round.  An op
with ``expect_error`` is a kept fault: it fails with that message on today's
code and must pass its checks once it succeeds.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import drmaj
import refs


@dataclass
class Op:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict, dict], list]
    expect_error: str | None = None


@dataclass
class Workload:
    ops: list
    warmup: int  # the set-up warm-up runs ops[:warmup]


def _close(problems, what, got, want, tol):
    if not (got is not None and math.isfinite(got) and abs(got - want) <= tol):
        problems.append(f"{what}: got {got!r}, want {want!r} +- {tol:g}")


def _verdict(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: verdict {got}, want {want}")


def _uniform(rng, lo, hi):
    # 4 significant digits, so the expression text and the references agree
    return float(f"{rng.uniform(lo, hi):.4g}")


# ---------------------------------------------------------------------------
# compose: closed-form leaves through the expression algebra
# ---------------------------------------------------------------------------

#: entropy tolerance on the exact-inverse path (level quadrature asks quad
#: for 1e-6 relative on each of several pieces, and H reaches ~5) and on the
#: tabulated trapezoid path (conv)
H_TOL_EXACT = 1e-5
H_TOL_TABLE = 1e-4
#: DR cdf tolerance for tabulated results against closed forms
CDF_TOL = 1e-3
#: relative tolerance of moments on the exact-inverse path
MOMENT_RTOL = 1e-5

PRECEDES, SUCCEEDS, EQUAL = "precedes", "succeeds", "equal"


def _family_cdf(spec):
    return drmaj.dr_family(spec)[1]


def _compose_op(name, expr, target, want_verdict, want_h, h_tol, extra=None, **kw):
    """eval_expr, compare_cdfs against ``target``, moments_dr and entropy_dr:
    what ``drmaj compare`` and ``drmaj entropy`` do for one expression."""

    def run():
        res = drmaj.eval_expr(expr)
        cmp = drmaj.compare_cdfs(res.cdf, target)
        out = {"verdict": cmp.verdict.value, "max_gap": cmp.max_gap, "_res": res}
        if res.pdf is not None:
            out["mean"], out["var"] = drmaj.moments_dr(res.pdf)
            out["H"] = drmaj.entropy_dr(res.pdf)
        return out

    def check(out, done):
        problems = []
        if want_verdict is not None:
            _verdict(problems, f"{expr} vs target", out["verdict"], want_verdict)
        if want_h is not None:
            _close(problems, f"H({expr})", out.get("H"), want_h, h_tol)
        if extra is not None:
            extra(problems, out, done)
        return problems

    return Op(name, run, check, **kw)


#: parameter draws per op template in one round; several draws per run keep
#: a run's cost mix, and so its p50 and p90, from hanging on one draw
INSTANCES = 3


def _compose_instance(rng, tag, exp1):
    """One op per template, each named ``<template><tag>``."""
    H = refs.family_entropy
    hb = refs.h_binary
    log2 = math.log(2.0)
    ops = []

    a1 = _uniform(rng, 0.2, 0.8)
    e_mix1 = f"mix(exp:n=1, exp:n=2, alpha={a1})"
    ops.append(_compose_op("mix_exp" + tag, e_mix1, exp1, PRECEDES,
                           (1 - a1) * 1 + a1 * 2 + hb(a1), H_TOL_EXACT))

    v1 = _uniform(rng, 0.5, 1.0)
    v2 = float(f"{v1 * rng.uniform(2.0, 4.0):.4g}")
    a2 = _uniform(rng, 0.2, 0.8)
    ops.append(_compose_op(
        "mix_mvn" + tag, f"mix(mvn:n=2,var={v1}, mvn:n=2,var={v2}, alpha={a2})",
        _family_cdf(f"mvn:n=2,var={v1}"), PRECEDES,
        (1 - a2) * H("mvn", n=2, var=v1) + a2 * H("mvn", n=2, var=v2) + hb(a2), H_TOL_EXACT))

    t1, t2, a3 = _uniform(rng, 1.5, 3.0), _uniform(rng, 0.3, 0.8), _uniform(rng, 0.2, 0.8)
    ops.append(_compose_op(
        "mix_rate" + tag, f"mix(exprate:theta={t1}, exprate:theta={t2}, alpha={a3})",
        _family_cdf(f"exprate:theta={t1}"), PRECEDES,
        (1 - a3) * H("exprate", theta=t1) + a3 * H("exprate", theta=t2) + hb(a3), H_TOL_EXACT))

    h_half = 0.5 * 1 + 0.5 * 2
    ops.append(_compose_op("mix_half" + tag, "mix(exp:n=1, exp:n=2)", exp1, PRECEDES,
                           h_half + log2, H_TOL_EXACT))

    def mix_below_dmix(problems, out, done):
        # mix(a, b, 1/2) is majorised by dmix(a, b, 1/2)
        if "mix_half" + tag not in done:
            problems.append("mix_half failed, so mix <= dmix is unchecked")
            return
        v = drmaj.compare_cdfs(done["mix_half" + tag]["_res"].cdf, out["_res"].cdf).verdict.value
        _verdict(problems, "mix(a,b,1/2) vs dmix(a,b,1/2)", v, PRECEDES)

    # H(dmix(a, b, 1/2)) = H(mix(a, b, 1/2)) - log 2
    ops.append(_compose_op("dmix_half" + tag, "dmix(exp:n=1, exp:n=2)", exp1, PRECEDES,
                           h_half + log2 - log2, H_TOL_EXACT, extra=mix_below_dmix))

    v3 = _uniform(rng, 0.5, 1.0)
    v4 = float(f"{v3 * rng.uniform(1.5, 3.0):.4g}")
    ops.append(_compose_op(
        "dmix_mvn" + tag, f"dmix(mvn:n=1,var={v3}, mvn:n=1,var={v4})",
        _family_cdf(f"mvn:n=1,var={v3}"), PRECEDES,
        0.5 * (H("mvn", n=1, var=v3) + H("mvn", n=1, var=v4)), H_TOL_EXACT))

    t4 = _uniform(rng, 0.5, 2.0)

    def equals_pow2(problems, out, done):
        # otimes(a, a) = pow(a, 2), whose cdf is F_a(z / 2)
        z = np.linspace(0.0, 40.0 / t4, 2001)
        gap = float(np.max(np.abs(out["_res"].cdf(z) + np.expm1(-t4 * z / 2))))
        _close(problems, "otimes(a,a) - pow(a,2) sup gap", gap, 0.0, CDF_TOL)
        _close(problems, "mean of otimes(a,a)", out["mean"], 2.0 / t4, MOMENT_RTOL * 2.0 / t4)
        _close(problems, "variance of otimes(a,a)", out["var"], 4.0 / t4**2,
               MOMENT_RTOL * 4.0 / t4**2)

    ops.append(_compose_op(
        "otimes_self" + tag, f"otimes(exprate:theta={t4}, exprate:theta={t4})",
        _family_cdf(f"exprate:theta={t4}"), PRECEDES,
        H("exprate", theta=t4) + log2, H_TOL_EXACT, extra=equals_pow2))

    t5 = _uniform(rng, 0.3, 0.8)
    ops.append(_compose_op(
        "otimes_pair" + tag, f"otimes(exp:n=1, exprate:theta={t5})", exp1, PRECEDES,
        0.5 * 1 + 0.5 * H("exprate", theta=t5) + log2, H_TOL_EXACT))

    k = _uniform(rng, 1.5, 3.0)

    def pow_of_mix(problems, out, done):
        # pow(a, k) is majorised by a, with H + log k, mean * k, variance * k^2
        if "mix_exp" + tag not in done:
            problems.append("mix_exp failed, so pow(a,k) <= a is unchecked")
            return
        base = done["mix_exp" + tag]
        v = drmaj.compare_cdfs(out["_res"].cdf, base["_res"].cdf).verdict.value
        _verdict(problems, "pow(a,k) vs a", v, PRECEDES)
        _close(problems, "H(pow(a,k)) - H(a)", out["H"] - base["H"], math.log(k), H_TOL_EXACT)
        _close(problems, "mean ratio", out["mean"] / base["mean"], k, MOMENT_RTOL * k)
        _close(problems, "variance ratio", out["var"] / base["var"], k * k, MOMENT_RTOL * k * k)

    ops.append(_compose_op("pow_mix" + tag, f"pow({e_mix1}, {k})", exp1, PRECEDES,
                           (1 - a1) * 1 + a1 * 2 + hb(a1) + math.log(k), H_TOL_EXACT,
                           extra=pow_of_mix))

    t7, t8 = _uniform(rng, 1.2, 2.0), _uniform(rng, 0.4, 0.9)
    # the sum of independent variables is majorised by each summand
    ops.append(_compose_op(
        "conv_rate" + tag, f"conv(exprate:theta={t7}, exprate:theta={t8})",
        _family_cdf(f"exprate:theta={t7}"), PRECEDES,
        refs.hypoexp_entropy(t7, t8), H_TOL_TABLE))

    m_g2, v_g2 = refs.gamma2_dr_moments()

    def gamma2_moments(problems, out, done):
        # Exp(1) + Exp(1) is Gamma(2, 1), not a DR; its DR has other moments
        _close(problems, "mean of DR(Gamma(2,1))", out["mean"], m_g2, 1e-3)
        _close(problems, "variance of DR(Gamma(2,1))", out["var"], v_g2, 1e-3)

    ops.append(_compose_op("conv_exp" + tag, "conv(exp:n=1, exp:n=1)", exp1, PRECEDES,
                           1.0 + refs.EULER_GAMMA, H_TOL_TABLE, extra=gamma2_moments))

    v6 = _uniform(rng, 0.5, 1.0)
    v7 = float(f"{v6 * rng.uniform(1.2, 1.8):.4g}")
    v7b = float(f"{v6 * rng.uniform(1.2, 1.8):.4g}")
    v7c = float(f"{v6 * rng.uniform(2.0, 4.0):.4g}")
    a5 = _uniform(rng, 0.2, 0.8)
    # comparable pairs: the join is the narrower normal of the first pair and
    # the meet the wider of the second, so this is a mix of var v6 and v7c
    # (a mix of exp:n=1 with mvn:n=1 here failed the mass check on some seeds)
    ops.append(_compose_op(
        "mix_lattice" + tag,
        f"mix(join(mvn:n=2,var={v6}, mvn:n=2,var={v7}), "
        f"meet(mvn:n=2,var={v7b}, mvn:n=2,var={v7c}), alpha={a5})",
        _family_cdf(f"mvn:n=2,var={v6}"), PRECEDES,
        (1 - a5) * H("mvn", n=2, var=v6) + a5 * H("mvn", n=2, var=v7c) + hb(a5), H_TOL_EXACT))

    v8 = _uniform(rng, 0.5, 2.0)
    mvn_v8 = _family_cdf(f"mvn:n=1,var={v8}")

    def lattice_bound(want):
        # a crossing pair: the meet lies below both inputs, the join above;
        # neither has a DR pdf, so no moments or entropy
        def extra(problems, out, done):
            v = drmaj.compare_cdfs(out["_res"].cdf, mvn_v8).verdict.value
            _verdict(problems, "lattice vs mvn input", v, want)
            if out["_res"].pdf is not None:
                problems.append("lattice of a crossing pair came back with a pdf")

        return extra

    ops.append(_compose_op("join_cross" + tag, f"join(mvn:n=1,var={v8}, exp:n=1)", exp1,
                           SUCCEEDS, None, None, extra=lattice_bound(SUCCEEDS)))
    ops.append(_compose_op("meet_cross" + tag, f"meet(mvn:n=1,var={v8}, exp:n=1)", exp1,
                           PRECEDES, None, None, extra=lattice_bound(PRECEDES)))

    v9 = _uniform(rng, 0.5, 1.0)
    v10 = float(f"{v9 * rng.uniform(2.0, 4.0):.4g}")
    ops.append(_compose_op(
        "otimes_mvn" + tag, f"otimes(mvn:n=2,var={v9}, mvn:n=2,var={v10})",
        _family_cdf(f"mvn:n=2,var={v9}"), PRECEDES,
        0.5 * (H("mvn", n=2, var=v9) + H("mvn", n=2, var=v10)) + log2, H_TOL_EXACT))

    return ops


def compose(seed):
    rng = np.random.default_rng(seed)
    exp1 = _family_cdf("exp:n=1")
    ops = []
    for i in range(INSTANCES):
        ops += _compose_instance(rng, f"/{i}", exp1)
    warmup = len(ops) // INSTANCES
    log2 = math.log(2.0)
    # kept faults: inputs fixed, independent of the seed, once per round
    ops.append(_compose_op("mix_exp10", "mix(exp:n=10, exp:n=1)", exp1, PRECEDES,
                           0.5 * 10 + 0.5 * 1 + log2, H_TOL_EXACT,
                           expect_error="tabulated DR pdf mass"))
    ops.append(_compose_op("otimes_join", "otimes(join(mvn:n=1, exp:n=1), exp:n=3)", exp1,
                           None, 0.5 * refs.join_mvn1_exp1_entropy() + 0.5 * 3 + log2,
                           H_TOL_EXACT, expect_error="quadrature did not converge"))
    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# compare: one pair by both routes, closed forms against user densities
# ---------------------------------------------------------------------------

#: slice levels per comparison; the library default is 512, which puts an op
#: at 250-500 ms and a 20 s run under 100 ops
SLICE_LEVELS = 128


def _closed_side(spec):
    return lambda: drmaj.dr_family(spec)


def _density_side(pdf, lo, hi):
    def build():
        f = drmaj.dr_from_density_1d(drmaj.DensityFn.from_univariate(pdf, lo, hi))
        return f, drmaj.cdf_of_dr(f)

    return build


def _compare_op(name, side1, side2, want_verdict, want_h1, want_h2, h_tol, extra=None):
    def run():
        f1, F1 = side1()
        f2, F2 = side2()
        cmp = drmaj.compare_cdfs(F1, F2)
        top = max(f1.max_value, f2.max_value)
        levels = np.geomspace(top * (1.0 - 1e-9), top * 1e-8, SLICE_LEVELS)
        return {
            "verdict": cmp.verdict.value,
            "max_gap": cmp.max_gap,
            "crossings": cmp.crossing_z,
            "slice": drmaj.slice_compare(f1, f2, c_grid=levels).value,
            "H1": drmaj.entropy_dr(f1),
            "H2": drmaj.entropy_dr(f2),
        }

    def check(out, done):
        problems = []
        _verdict(problems, "slice route vs cdf route", out["slice"], out["verdict"])
        if want_verdict is not None:
            _verdict(problems, name, out["verdict"], want_verdict)
        _close(problems, "H(first)", out["H1"], want_h1, h_tol)
        _close(problems, "H(second)", out["H2"], want_h2, h_tol)
        if extra is not None:
            extra(problems, out)
        return problems

    return Op(name, run, check)


def _compare_instance(rng, tag):
    """One op per seeded template, each named ``<template><tag>``."""
    H = refs.family_entropy
    ops = []

    a, b = _uniform(rng, 1.5, 5.0), _uniform(rng, 1.5, 5.0)
    h_beta = refs.beta_entropy(a, b)
    ops.append(_compare_op(
        "beta_mirror" + tag, _density_side(refs.beta_pdf(a, b), 0.0, 1.0),
        _density_side(refs.beta_pdf(b, a), 0.0, 1.0), EQUAL, h_beta, h_beta, H_TOL_TABLE))

    # chains: more variance, lower rate are more uncertain
    v1 = _uniform(rng, 0.5, 1.5)
    v2 = float(f"{v1 * rng.uniform(1.5, 3.0):.4g}")
    ops.append(_compare_op(
        "variance_chain" + tag, _closed_side(f"mvn:n=2,var={v2}"),
        _closed_side(f"mvn:n=2,var={v1}"),
        PRECEDES, H("mvn", n=2, var=v2), H("mvn", n=2, var=v1), H_TOL_EXACT))
    t1 = _uniform(rng, 0.3, 0.8)
    t2 = float(f"{t1 * rng.uniform(1.5, 3.0):.4g}")
    ops.append(_compare_op(
        "rate_chain" + tag, _closed_side(f"exprate:theta={t1}"),
        _closed_side(f"exprate:theta={t2}"),
        PRECEDES, H("exprate", theta=t1), H("exprate", theta=t2), H_TOL_EXACT))

    # a dilation by s > 1 spreads a density: it is majorised by the original
    mix = refs.TruncatedNormalMix(
        w=_uniform(rng, 0.3, 0.7), mu1=_uniform(rng, -2.0, -0.5), s1=_uniform(rng, 0.4, 1.0),
        mu2=_uniform(rng, 0.5, 2.0), s2=_uniform(rng, 0.4, 1.0), lo=-4.0, hi=4.0)
    s = _uniform(rng, 1.2, 1.6)
    wide = mix.dilated(s)
    h_mix = mix.entropy()
    ops.append(_compare_op(
        "mixture_dilation" + tag, _density_side(wide, *wide.support),
        _density_side(mix, *mix.support), PRECEDES, h_mix + math.log(s), h_mix, H_TOL_TABLE))

    # closed form against a user density: a Beta on [0, 1] majorises a rate
    # below 1, whose DR starts lower and never reaches 1 on [0, 1]
    a3, b3, t3 = _uniform(rng, 1.5, 5.0), _uniform(rng, 1.5, 5.0), _uniform(rng, 0.5, 1.0)
    ops.append(_compare_op(
        "rate_vs_beta" + tag, _closed_side(f"exprate:theta={t3}"),
        _density_side(refs.beta_pdf(a3, b3), 0.0, 1.0), PRECEDES,
        H("exprate", theta=t3), refs.beta_entropy(a3, b3), H_TOL_TABLE))
    return ops


def compare(seed):
    rng = np.random.default_rng(seed)
    H = refs.family_entropy
    z_cross = refs.mvn1_exp1_crossing()

    def one_crossing(problems, out):
        c = out["crossings"]
        if len(c) != 1 or abs(c[0] - z_cross) > 1e-3:
            problems.append(f"crossings {c}, want one within 1e-3 of {z_cross:.6f}")

    # inputs fixed, independent of the seed, once per round
    ops = [
        _compare_op("mvn_vs_exp", _closed_side("mvn:n=1"), _closed_side("exp:n=1"),
                    "incomparable", H("mvn", n=1, var=1.0), 1.0, H_TOL_EXACT,
                    extra=one_crossing),
        # more dimensions are more uncertain
        _compare_op("dimension_chain", _closed_side("exp:n=3"), _closed_side("exp:n=2"),
                    PRECEDES, 3.0, 2.0, H_TOL_EXACT),
    ]
    draws = [_compare_instance(rng, f"/{i}") for i in range(INSTANCES)]
    warmup = len(ops) + len(draws[0])  # the fixed ops and the first draw
    for draw in draws:
        ops += draw
    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# empirical: KDE + Monte Carlo DR of 2-d data against closed forms
# ---------------------------------------------------------------------------

#: centres x MC points fix the cost of kde_eval, about 95% of each op
N_CENTRES = 120
MC_POINTS = 16384
#: sup-distance bounds of the estimated DR cdf, 7-8 standard deviations above
#: the mean gap seen over 120 draws of each.  The exact model's gap is Monte
#: Carlo noise alone (mean 0.006, sd 0.003); the fitted KDE is a Gaussian
#: mixture compared against the normal of the same covariance (mean 0.022,
#: sd 0.011)
EXACT_TOL = 0.03
FITTED_TOL = 0.1


def _normal2_cdf(var):
    return lambda z: -np.expm1(-np.asarray(z) / (2.0 * math.pi * var))


def _empirical_op(name, make_kde, box, mc_seed, var, tol):
    cfg = drmaj.McConfig(n_points=MC_POINTS, bounding_box=box, seed=mc_seed)
    target = drmaj.dr_family(f"mvn:n=2,var={var!r}")[1]
    area = float(np.prod(box[:, 1] - box[:, 0]))
    z_star = np.linspace(0.0, area, 2001)
    ref = _normal2_cdf(var)

    def run():
        _, dr = drmaj.empirical_dr(make_kde(), cfg)
        F = drmaj.empirical_dr_cdf(dr, z_star)
        cmp = drmaj.compare_cdfs(F, target)
        return {"verdict": cmp.verdict.value, "max_gap": cmp.max_gap,
                "cdf_values": F.table.values, "_F": F}

    def check(out, done):
        problems = []
        z = np.linspace(0.0, area, 1001)
        gap = float(np.max(np.abs(out["_F"](z) - ref(z))))
        _close(problems, f"{name} sup |F - normal cdf|", gap, 0.0, tol)
        return problems

    return Op(name, run, check)


def empirical(seed):
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(5):
        mc_seed = int(rng.integers(2**32))
        if i % 2:
            # all centres at one point: exactly N(c, sigma^2 I_2)
            sigma = _uniform(rng, 0.8, 1.25)
            c = rng.uniform(-2.0, 2.0, size=2)
            centres = np.tile(c, (N_CENTRES, 1))
            box = np.column_stack([c - 4.5 * sigma, c + 4.5 * sigma])
            make = lambda centres=centres, sigma=sigma: drmaj.KdeModel(centres, sigma)
            ops.append(_empirical_op(f"exact_{i}", make, box, mc_seed, sigma**2, EXACT_TOL))
        else:
            sigma = _uniform(rng, 0.8, 1.25)
            rows = rng.normal(0.0, sigma, size=(N_CENTRES, 2))
            # a KDE's covariance is the sample's plus h^2 (Silverman, n = 2)
            h2 = np.var(rows, axis=0, ddof=1) * N_CENTRES ** (-1.0 / 3.0)
            var = float(np.mean(np.var(rows, axis=0) + h2))
            box = np.array([[-6.0 * sigma, 6.0 * sigma]] * 2)
            make = lambda rows=rows: drmaj.fit_kde(drmaj.Dataset(rows))
            ops.append(_empirical_op(f"fitted_{i}", make, box, mc_seed, var, FITTED_TOL))
    return Workload(ops, len(ops))


# ---------------------------------------------------------------------------
# discrete: binned data, its blur, and the discrete order toolkit
# ---------------------------------------------------------------------------

BINS = 14  # n = 196 cells; the witness does up to n - 1 dense n x n products
N_ROWS = 2000
BLUR = 0.1


def _blur(table):
    """Circular 5-point average: a doubly stochastic map, so p <= table (HLP)."""
    rolls = sum(np.roll(table, s, axis=a) for a in (0, 1) for s in (-1, 1))
    return (1.0 - 4.0 * BLUR) * table + BLUR * rolls


def _discrete_op(name, rows, tsallis):
    data = drmaj.Dataset(rows)

    def run():
        counts = drmaj.bin_2d(data, BINS, BINS)
        q, _ = drmaj.discrete_empirical_dr(counts)
        table = counts / counts.sum()
        t = table.ravel()
        p = _blur(table).ravel()
        w = drmaj.dilation_witness(p, t)
        return {
            "fwd": drmaj.majorizes_discrete(p, t).value,
            "rev": drmaj.majorizes_discrete(t, p).value,
            "entropy": [drmaj.entropy_discrete(x, kind)
                        for kind in (drmaj.SHANNON, tsallis) for x in (p, q)],
            "n_factors": w.n_factors,
            "inverse_mix": drmaj.inverse_mix_discrete(p, q.values),
            "direct_mix": drmaj.direct_mix_discrete(p, q.values),
            "_w": w, "_p": p, "_t": t, "_q": q.values,
        }

    def check(out, done):
        problems = []
        p, t, q = out["_p"], out["_t"], out["_q"]
        n = t.size
        if not np.array_equal(q, np.sort(t)[::-1]):
            problems.append("discrete DR is not the sorted cell probabilities")
        if not (refs.precedes(p, t) and not refs.precedes(t, p)):
            problems.append("blur is not strictly majorised by the table")
        _verdict(problems, "blur vs table", out["fwd"], PRECEDES)
        _verdict(problems, "table vs blur", out["rev"], SUCCEEDS)
        resid = float(np.max(np.abs(out["_w"].matrix @ t - p)))
        _close(problems, "witness residual |Pq - p|", resid, 0.0, 1e-10)
        if out["n_factors"] > n - 1:
            problems.append(f"witness used {out['n_factors']} factors > n - 1 = {n - 1}")
        hp, hq, tp, tq = out["entropy"]
        _close(problems, "Shannon H(p)", hp, refs.shannon(p), 1e-12)
        if not (hp >= hq and tp >= tq):
            problems.append("entropies break the Schur order")
        inv = out["inverse_mix"]
        if inv.size != 2 * n or np.any(np.diff(inv) > 0):
            problems.append("inverse mix is not a sorted vector of 2n cells")
        _close(problems, "H(inverse mix)", refs.shannon(inv),
                0.5 * (hp + hq) + math.log(2.0), 1e-12)
        dm = out["direct_mix"]
        if not (refs.precedes(p, dm) and refs.precedes(dm, q)):
            problems.append("direct mix does not lie between p and q")
        return problems

    return Op(name, run, check)


def discrete(seed):
    rng = np.random.default_rng(seed)
    tsallis = drmaj.EntropyKind.tsallis(2.0)
    ops = []
    for i in range(15):
        rho = rng.uniform(-0.8, 0.8)
        scale = rng.uniform(0.5, 2.0, size=2)
        cov = np.array([[1.0, rho], [rho, 1.0]]) * np.outer(scale, scale)
        rows = rng.multivariate_normal(np.zeros(2), cov, size=N_ROWS)
        ops.append(_discrete_op(f"table_{i}", rows, tsallis))
    return Workload(ops, len(ops))


WORKLOADS = {"compose": compose, "compare": compare, "empirical": empirical, "discrete": discrete}
