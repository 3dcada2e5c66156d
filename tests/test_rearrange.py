"""Rearrangement core: measure functions, DR construction, carriers."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from drmaj.algebra import inverse_mix
from drmaj.families import dr_beta32, dr_exp_iid
from drmaj.order import compare_cdfs
from drmaj.rearrange import (
    KNOT_GAP,
    DensityFn,
    DrCdf,
    DrPdf,
    Grid,
    TabulatedFn,
    cdf_of_dr,
    dr_from_density_1d,
    eval_cdf,
    eval_pdf,
    functional_inverse,
    load_tabulated,
    measure_function,
    pdf_of_cdf,
    _layer_cake,
    _swap_axes_to_table,
    _thin_knots,
)


def beta32_density():
    return DensityFn.from_univariate(
        lambda x: 12.0 * x**2 * (1.0 - x), 0.0, 1.0
    )


def triangle_density():
    return DensityFn.from_univariate(
        lambda x: np.maximum(1.0 - np.abs(x), 0.0), -1.0, 1.0
    )


def test_beta32_rearrangement_matches_closed_form():
    """Numeric DR of 12x^2(1-x) against the exact rearranged cdf."""
    f = dr_from_density_1d(beta32_density())
    F = cdf_of_dr(f)
    _, F_exact = dr_beta32()
    z = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(F(z) - F_exact(z))) <= 1e-3


def test_triangle_rearranges_to_line():
    # superlevel measure of 1-|x| at level y is 2(1-y), so the DR is 1 - z/2
    f = dr_from_density_1d(triangle_density())
    z = np.linspace(0.0, 2.0, 501)
    assert np.max(np.abs(f(z) - (1.0 - z / 2.0))) <= 1e-3
    assert f(2.5) == 0.0


def test_uniform_density_is_its_own_dr():
    f = dr_from_density_1d(
        DensityFn.from_univariate(lambda x: np.ones_like(x), 0.0, 1.0)
    )
    assert abs(f(0.5) - 1.0) <= 1e-3
    F = cdf_of_dr(f)
    z = np.linspace(0.0, 1.0, 401)
    assert np.max(np.abs(F(z) - z)) <= 2e-3


def test_rearrangement_preserves_mass():
    rng = np.random.default_rng(4321)
    for _ in range(5):
        centers = rng.uniform(-1.5, 1.5, size=3)
        widths = rng.uniform(0.2, 0.8, size=3)
        weights = rng.dirichlet(np.ones(3))

        def raw(x):
            x = np.asarray(x)[:, None]
            bumps = np.exp(-0.5 * ((x - centers) / widths) ** 2) / (
                widths * np.sqrt(2.0 * np.pi)
            )
            return bumps @ weights

        grid = np.linspace(-6.0, 6.0, 20001)
        norm = np.trapezoid(raw(grid), grid)
        f = DensityFn.from_univariate(lambda x: raw(x) / norm, -6.0, 6.0)
        dr = dr_from_density_1d(f, normalize=False)
        mass = np.trapezoid(dr.table.values, dr.table.grid)
        assert abs(mass - 1.0) <= 1e-4


def test_superlevel_measures_match_monte_carlo():
    f = triangle_density()
    levels = np.array([0.15, 0.3, 0.5, 0.7, 0.9])
    m = measure_function(f, levels)
    exact = 2.0 * (1.0 - levels)
    assert np.max(np.abs(m(levels) - exact)) <= 1e-4

    rng = np.random.Generator(np.random.Philox(key=2026))
    x = rng.uniform(-1.0, 1.0, size=4_000_000)
    fx = f(x)
    mc = np.array([2.0 * np.mean(fx >= y) for y in levels])
    assert np.max(np.abs(m(levels) - mc)) <= 1e-3


def test_rearrangement_preserves_density_functionals():
    """Integrals of phi(f) are invariant under rearrangement."""
    f = beta32_density()
    x = np.linspace(0.0, 1.0, 200001)
    fx = f(x)
    dr = dr_from_density_1d(f)
    z, v = dr.table.grid, dr.table.values

    direct_sq = np.trapezoid(fx**2, x)
    rearranged_sq = np.trapezoid(v**2, z)
    assert abs(direct_sq - rearranged_sq) <= 1e-2

    def xlogx(u):
        out = np.zeros_like(u)
        pos = u > 0
        out[pos] = u[pos] * np.log(u[pos])
        return out

    assert abs(np.trapezoid(xlogx(fx), x) - np.trapezoid(xlogx(v), z)) <= 1e-2


def test_rearranging_a_dr_is_identity():
    dr = dr_from_density_1d(beta32_density())
    again = dr_from_density_1d(
        DensityFn.from_univariate(dr, 0.0, dr.z_max, integral_tol=None)
    )
    z = np.linspace(0.0, dr.z_max, 801)
    assert np.max(np.abs(again(z) - dr(z))) <= 1e-3


def test_dr_cdf_is_concave_and_reaches_one():
    for density in (beta32_density(), triangle_density()):
        F = cdf_of_dr(dr_from_density_1d(density))
        assert F.concave
        assert abs(float(F(F.z_hi)) - 1.0) <= 1e-9
        assert float(F(0.0)) == 0.0


def test_tabulated_roundtrips(tmp_path):
    t = TabulatedFn(np.linspace(0.0, 2.0, 9), np.linspace(1.0, 0.0, 9), "nonincreasing")
    back = TabulatedFn.from_json_dict(t.to_json_dict())
    assert back == t

    path = tmp_path / "t.csv"
    t.to_csv(path)
    loaded = load_tabulated(path)
    assert np.array_equal(loaded.grid, t.grid)
    assert np.array_equal(loaded.values, t.values)
    assert loaded.monotone == "nonincreasing"

    jpath = tmp_path / "t.json"
    t.to_json(jpath)
    assert load_tabulated(jpath) == t


def test_density_validation():
    with pytest.raises(ValueError, match="integral"):
        DensityFn.from_univariate(lambda x: 3.0 * np.ones_like(x), 0.0, 1.0)
    with pytest.raises(ValueError, match="lo < hi"):
        DensityFn.from_univariate(lambda x: np.ones_like(x), 1.0, 1.0)
    with pytest.raises(ValueError, match="negative"):
        DensityFn.from_univariate(lambda x: -np.ones_like(x), 0.0, 1.0)
    with pytest.raises(ValueError, match="truncation"):
        DensityFn.from_univariate(lambda x: np.ones_like(x), 0.0, np.inf)


def test_dr_pdf_rejects_bad_tables():
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="start at z = 0"):
        DrPdf(table=TabulatedFn(grid + 1.0, np.linspace(1, 0, 5), "nonincreasing"))
    with pytest.raises(ValueError, match="mass"):
        DrPdf(table=TabulatedFn(grid, 3.0 * np.linspace(1, 0, 5), "nonincreasing"))
    with pytest.raises(ValueError, match="exactly one"):
        DrPdf()
    with pytest.raises(ValueError, match="z_max"):
        DrPdf(fn=lambda z: np.exp(-z))


@pytest.mark.parametrize("z_hi", [np.nan, np.inf, 0.0, None])
def test_dr_pdf_rejects_an_infinite_or_empty_extent(z_hi):
    with pytest.raises(ValueError, match="z_hi must be finite and positive"):
        DrPdf(fn=lambda z: np.exp(-z), z_max=np.inf, z_hi=z_hi)
    # a finite z_max is the extent; another z_hi would truncate or pad it
    for other in (1.0, 3.0):
        with pytest.raises(ValueError, match="z_hi must equal a finite z_max"):
            DrPdf(fn=lambda z: np.exp(-z), z_max=2.0, z_hi=other)
    assert DrPdf(fn=lambda z: np.exp(-z), z_max=2.0, z_hi=2.0).z_hi == 2.0


def test_measure_without_an_exact_one_interpolates_the_samples():
    tab = dr_from_density_1d(triangle_density())
    beta, _ = dr_beta32()
    assert not tab.measure.exact and not beta.measure.exact
    v = np.concatenate([[0.0, 1e-12], np.geomspace(1e-6, 2.0, 500)])
    t = tab.table
    assert np.array_equal(tab.measure_at(v), np.interp(v, t.values[::-1], t.grid[::-1]))
    zp = np.linspace(0.0, 1.0, 8193)
    vp = beta(zp)
    assert np.array_equal(beta.measure_at(v), np.interp(v, vp[::-1], zp[::-1]))
    assert beta.measure_at(0.5) == float(np.interp(0.5, vp[::-1], zp[::-1]))


def test_dropped_pdfs_are_freed_without_the_garbage_collector():
    # a measure closure holding the pdf would form a cycle that outlives it
    gc.disable()
    try:
        refs = [weakref.ref(dr_from_density_1d(triangle_density())), weakref.ref(dr_beta32()[0])]
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_dr_cdf_rejects_bad_tables():
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="F\\(0\\)"):
        DrCdf(table=TabulatedFn(grid, np.linspace(0.5, 1.0, 5), "nondecreasing"))
    with pytest.raises(ValueError, match="sup"):
        DrCdf(table=TabulatedFn(grid, np.linspace(0.0, 0.7, 5), "nondecreasing"))


def test_evaluation_domain():
    dr = dr_from_density_1d(triangle_density())
    F = cdf_of_dr(dr)
    with pytest.raises(ValueError, match="z >= 0"):
        eval_pdf(dr, -0.1)
    with pytest.raises(ValueError, match="z >= 0"):
        eval_cdf(F, np.array([-1.0, 0.5]))
    assert eval_pdf(dr, 100.0) == 0.0
    assert eval_cdf(F, 100.0) == 1.0


@pytest.mark.parametrize("route", ["inverse", "table", "bisection"])
def test_quantile_at_inverts_the_cdf(route):
    if route == "inverse":
        F = dr_exp_iid(2)[1]
        assert F.inverse is not None
    elif route == "table":
        F = cdf_of_dr(inverse_mix(dr_exp_iid(1)[0], dr_exp_iid(2)[0]))
        assert F.table is not None and F.inverse is None
    else:
        F = dr_beta32()[1]
        assert F.table is None and F.inverse is None
    p = np.array([0.0, 1e-3, 0.25, 0.5, 0.9, 0.999])
    z = F.quantile_at(p)
    assert np.all(np.diff(z) > 0.0)
    assert F(z) == pytest.approx(p, abs=1e-9)
    assert F(F.quantile_at(0.5)) == pytest.approx(0.5, abs=1e-9)
    for bad in (-0.1, 1.5, [0.5, 1.0 + 1e-9]):
        with pytest.raises(ValueError, match="quantile levels"):
            F.quantile_at(bad)


def test_functional_inverse_roundtrip():
    z = np.linspace(0.0, 3.0, 31)
    t = TabulatedFn(z, np.exp(-z), "nonincreasing")
    inv = functional_inverse(t)
    # inverse maps value -> z; composing recovers the identity on values
    v = np.exp(-np.linspace(0.2, 2.8, 11))
    z_back = np.interp(v, inv.grid, inv.values)
    assert np.max(np.abs(np.interp(z_back, t.grid, t.values) - v)) <= 1e-3

    flat = TabulatedFn(z, np.ones_like(z), "nonincreasing")
    with pytest.raises(ValueError, match="constant"):
        functional_inverse(flat)
    with pytest.raises(ValueError, match="monotone"):
        functional_inverse(TabulatedFn(z, np.sin(z), "none"))


def test_measure_function_of_truncated_exponential():
    # on [0, 40] the truncation deficit is ~4e-18, so m(v) = -log v
    f = DensityFn.from_univariate(lambda x: np.exp(-x), 0.0, 40.0)
    v = np.geomspace(0.9, 1e-3, 25)
    m = measure_function(f, v, n_samples=2**17 + 1)
    assert np.max(np.abs(m(v) - (-np.log(v)))) <= 1e-3


def test_measure_function_rejects_non_finite_thresholds():
    with pytest.raises(ValueError, match="thresholds must be finite"):
        measure_function(triangle_density(), [0.5, np.nan])


def test_pdf_of_cdf_recovers_slopes():
    from drmaj.families import dr_exp_iid

    _, F = dr_exp_iid(1)
    table = F.tabulated(4097)
    F_tab = DrCdf(table=table)
    f_step = pdf_of_cdf(F_tab)
    mids = 0.5 * (table.grid[1:] + table.grid[:-1])
    sample = mids[mids < 10.0][::50]
    assert np.max(np.abs(f_step(sample) - np.exp(-sample))) <= 1e-4


def test_grid_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        Grid(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="positive"):
        Grid.geometric(0.0, 1.0, 8)
    assert len(Grid.uniform(0.0, 1.0, 11)) == 11


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=3, max_size=12),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=12),
)
def test_random_step_tables_build_valid_drs(raw_vals, raw_gaps):
    n = min(len(raw_vals), len(raw_gaps))
    vals = np.sort(np.asarray(raw_vals[:n]))[::-1]
    grid = np.concatenate([[0.0], np.cumsum(raw_gaps[:n])])[: n + 1]
    vals = np.append(vals, 0.0)
    mass = np.trapezoid(vals, grid)
    table = TabulatedFn(grid, vals / mass, "nonincreasing")
    dr = DrPdf(table=table)
    F = cdf_of_dr(dr)
    out = F(np.linspace(0.0, grid[-1], 64))
    assert np.all(np.diff(out) >= -1e-12)
    assert abs(float(F(grid[-1])) - 1.0) <= 1e-9
    # generalised inverse: measure at value v covers every z with dr(z) > v
    v = float(vals[1] / mass)
    assert dr(min(dr.measure_at(v), grid[-1])) <= v + 1e-9


def test_pdf_of_cdf_steps_far_from_zero():
    # 5e4 + KNOT_GAP rounds to 5e4, so the step's second knot is the next double
    F = DrCdf(table=TabulatedFn([0.0, 5e4, 1e5], [0.0, 0.8, 1.0]))
    f = pdf_of_cdf(F)
    assert np.array_equal(f.table.grid, [0.0, 5e4, np.nextafter(5e4, np.inf), 1e5])
    assert np.allclose(f.table.values, [1.6e-5, 1.6e-5, 4e-6, 4e-6], rtol=1e-12, atol=0.0)


# References: the knot loops that the array forms replaced.


def _loop_swap(measures, thresholds, max_value):
    zs = [0.0]
    vs = [max_value]
    n = measures.size
    i = 0
    while i < n:
        j = i
        while j + 1 < n and measures[j + 1] - measures[i] <= 0.0:
            j += 1
        z = float(measures[i])
        if z > zs[-1]:
            zs.append(z)
            vs.append(float(thresholds[i]))
        if j > i:
            zs.append(max(z, zs[-1]) + KNOT_GAP)
            vs.append(float(thresholds[j]))
        i = j + 1
    zs = np.asarray(zs)
    for k in range(1, zs.size):
        if zs[k] <= zs[k - 1]:
            zs[k] = zs[k - 1] + KNOT_GAP
    return zs, np.minimum.accumulate(np.asarray(vs))


def _loop_thin_knots(z):
    span = max(float(z[-1] - z[0]), 1e-300)
    kept = [0]
    for i in range(1, z.size):
        if z[i] - z[kept[-1]] > span * 1e-7:
            kept.append(i)
    if kept[-1] != z.size - 1:
        kept[-1] = z.size - 1
    return np.asarray(kept)


def _loop_pdf_of_cdf(F):
    g = F.table.grid
    slopes = np.minimum.accumulate(np.maximum(np.diff(F.table.values) / np.diff(g), 0.0))
    zs = [0.0]
    vs = [float(slopes[0])]
    for k in range(1, slopes.size):
        zs.append(float(g[k]))
        vs.append(float(slopes[k - 1]))
        zs.append(float(g[k]) + KNOT_GAP)
        vs.append(float(slopes[k]))
    zs.append(float(g[-1]))
    vs.append(float(slopes[-1]))
    zs = np.asarray(zs)
    for k in range(1, zs.size):
        if zs[k] <= zs[k - 1]:
            zs[k] = zs[k - 1] + KNOT_GAP
    return zs, np.asarray(vs)


#: measure steps: mostly none (long equal runs), some at or below KNOT_GAP
_STEPS = st.sampled_from([0.0, 0.0, 0.0, 0.0, 1e-13, 5e-13, 1e-12, 2e-12, 1e-4, 0.3])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_STEPS, min_size=1, max_size=80),
    st.sampled_from([0.0, 1e-13, 0.7, 3e4]),
)
def test_swap_matches_loop(steps, start):
    measures = start + np.cumsum(steps)
    thresholds = np.geomspace(1.0, 1e-3, measures.size)
    zs, vs = _loop_swap(measures, thresholds, 1.0)
    if zs.size < 2:
        return
    if np.all(np.diff(zs) > 0):
        table = _swap_axes_to_table(measures, thresholds, 1.0)
        assert np.array_equal(table.grid, zs)
        assert np.array_equal(table.values, vs)
    else:
        # the loop's knots collide where KNOT_GAP rounds away; these stay apart
        assert np.all(np.diff(_swap_axes_to_table(measures, thresholds, 1.0).grid) > 0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1e-3, max_value=1.0),
            st.lists(st.sampled_from([1e-12, 1e-9, 3e-8, 6e-8, 1e-7, 2e-7]), max_size=4),
        ),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([1e-3, 1.0, 1e5]),
)
def test_thin_knots_matches_loop(clusters, scale):
    # each cluster: a knot, then up to four near duplicates of it
    z = [0.0]
    for gap, near in clusters:
        z.append(z[-1] + gap)
        z.extend(z[-1] + np.cumsum(near))
    z = np.unique(np.asarray(z) * scale)
    assert np.array_equal(np.flatnonzero(_thin_knots(z)), _loop_thin_knots(z))


def test_thin_knots_keeps_a_knot_at_the_rounded_threshold():
    # span 1, so the threshold is 1e-7; the fourth knot equals the rounded
    # 0.3 + 1e-7, yet its distance from 0.3 exceeds 1e-7
    z = np.array([0.0, 0.3, 0.30000005, 0.3 + 1e-7, 1.0])
    assert z[3] - z[1] > 1e-7
    assert np.array_equal(np.flatnonzero(_thin_knots(z)), _loop_thin_knots(z))
    assert np.array_equal(_loop_thin_knots(z), [0, 1, 3, 4])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_STEPS, min_size=8, max_size=80),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_pdf_of_cdf_matches_loop(steps, scale):
    measures = scale * (1e-3 + np.cumsum(steps))
    thresholds = np.geomspace(1.0, 1e-3, measures.size)
    table = _swap_axes_to_table(measures, thresholds, 1.0)
    mass = np.trapezoid(table.values, table.grid)
    F = cdf_of_dr(DrPdf(table=TabulatedFn(table.grid, table.values / mass), mass_tol=None))
    zs, vs = _loop_pdf_of_cdf(F)
    try:
        f = pdf_of_cdf(F)
    except ValueError as exc:
        assert "not concave" in str(exc) or "mass" in str(exc)
        return
    assert np.array_equal(f.table.grid, zs)
    assert np.array_equal(f.table.values, vs)


def _loop_superlevel_measures(w, lo, hi, levels):
    """Reference: the measure of {f >= y}, one level at a time."""
    out = np.empty(levels.size)
    for i, y in enumerate(levels):
        full = lo >= y
        cut = (lo < y) & (y < hi)
        out[i] = np.sum(w[full]) + np.sum(w[cut] * (hi[cut] - y) / (hi[cut] - lo[cut]))
    return out


#: sample values: few distinct, so neighbours repeat (flat pieces)
_SAMPLES = st.lists(st.integers(min_value=0, max_value=20), min_size=2, max_size=60)
#: levels: sample values (the >= convention) or anything between and beyond
_LEVELS = st.lists(
    st.one_of(st.integers(min_value=0, max_value=20).map(lambda k: 0.1 * k),
              st.floats(min_value=1e-3, max_value=2.5)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(_SAMPLES, st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=60, max_size=60),
       _LEVELS)
def test_layer_cake_matches_loop(samples, widths, levels):
    # non-monotone samples: pieces rise and fall, and levels come in any order
    v = 0.1 * np.asarray(samples, dtype=np.float64)
    w = np.asarray(widths[: v.size - 1])
    lo, hi = np.minimum(v[:-1], v[1:]), np.maximum(v[:-1], v[1:])
    y = np.asarray(levels)
    got = _layer_cake(w, lo, hi, 0)(y)
    assert np.max(np.abs(got - _loop_superlevel_measures(w, lo, hi, y))) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(_SAMPLES, st.lists(st.integers(min_value=1, max_value=64), min_size=60, max_size=60),
       _LEVELS)
def test_layer_cake_of_steps_is_exact(samples, eighths, levels):
    # every piece flat, as for a cdf's slopes; widths in eighths sum exactly
    v = 0.1 * np.asarray(samples, dtype=np.float64)
    w = np.asarray(eighths[: v.size], dtype=np.float64) / 8.0
    y = np.asarray(levels)
    assert np.array_equal(_layer_cake(w, v, v, 0)(y), _loop_superlevel_measures(w, v, v, y))


def _beta_pdf(a, b):
    c = 1.0 / special.beta(a, b)

    def pdf(x):
        x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
        return c * x ** (a - 1.0) * (1.0 - x) ** (b - 1.0)

    return pdf


@pytest.mark.parametrize("a, b", [(1.5, 4.5), (2.7, 4.1), (3.3, 1.9), (4.8, 2.2)])
def test_mirrored_betas_rearrange_alike(a, b):
    # Beta(a, b) and Beta(b, a) are mirror images, so their DRs are the same;
    # the sampled superlevel measures must not lose that to cancellation
    F = [
        cdf_of_dr(dr_from_density_1d(DensityFn.from_univariate(_beta_pdf(p, q), 0.0, 1.0)))
        for p, q in ((a, b), (b, a))
    ]
    assert compare_cdfs(*F).max_gap <= 1e-14
