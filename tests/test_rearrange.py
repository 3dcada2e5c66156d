"""Rearrangement core: measure functions, DR construction, carriers."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import cumulative_trapezoid

from drmaj.algebra import inverse_mix
from drmaj.entropy import entropy_dr
from drmaj.families import dr_beta32, dr_exp_iid, dr_family
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
    _concave_flag,
    _swap_axes_to_table,
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


@pytest.mark.parametrize("z_hi", [np.inf, np.nan, 0.0, -1.0])
def test_dr_cdf_rejects_an_infinite_or_empty_extent(z_hi):
    # rejected before the closed form is probed on linspace(0, z_hi)
    with pytest.raises(ValueError, match="z_hi must be finite and positive"):
        DrCdf(fn=lambda z: -np.expm1(-z), z_hi=z_hi)


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
    m = measure_function(f, v)
    assert np.max(np.abs(m(v) - (-np.log(v)))) <= 1e-3


def test_measure_function_rejects_non_finite_thresholds():
    with pytest.raises(ValueError, match="thresholds must be finite"):
        measure_function(triangle_density(), [0.5, np.nan])


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_mass_tolerances_must_be_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match="integral_tol must be finite and nonnegative"):
        DensityFn(lambda x: 3.0 + 0.0 * x, 0.0, 1.0, integral_tol=tol)
    with pytest.raises(ValueError, match="mass_tol must be finite and nonnegative"):
        DrPdf(table=TabulatedFn([0.0, 1.0], [5.0, 5.0]), mass_tol=tol)


def test_pdf_of_cdf_recovers_slopes():
    from drmaj.families import dr_exp_iid

    _, F = dr_exp_iid(1)
    table = F.tabulated(4097)
    F_tab = DrCdf(table=table)
    f_step = pdf_of_cdf(F_tab)
    mids = 0.5 * (table.grid[1:] + table.grid[:-1])
    sample = mids[mids < 10.0][::50]
    assert np.max(np.abs(f_step(sample) - np.exp(-sample))) <= 1e-4


@pytest.mark.parametrize(
    "spec",
    ["exp:n=1", "exp:n=4", "exp:n=8", "exp:n=12", "exp:n=20", "exp:n=170", "mvn:n=1",
     "mvn:n=20,var=1e-3", "mvn:n=20,var=1e3", "exprate:theta=1e-3", "exprate:theta=40",
     "beta32"],
)
def test_cdf_of_dr_follows_the_mass_of_closed_forms(spec):
    # a stretched DR (exp:n >= 4, mvn:n=20) holds most of its mass far below
    # its maximum, so a uniform grid of [0, z_hi] put it in the first cell;
    # exp:n=1, mvn:n=1, exprate and beta32 were resolved before
    f, F = dr_family(spec)
    table = cdf_of_dr(f).table
    assert np.max(np.abs(table.values - F(table.grid))) <= 1e-6


def test_tabulated_carriers_return_their_own_table():
    pdf = DrPdf(table=TabulatedFn([0.0, 1.0, 2.0], [1.0, 0.5, 0.0]))
    F = cdf_of_dr(pdf)
    for carrier in (pdf, F):
        assert carrier.tabulated() is carrier.table
        assert carrier.tabulated(5) is carrier.table


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
    gap = KNOT_GAP * min(1.0, float(np.max(measures)))
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
            zs.append(max(z, zs[-1]) + gap)
            vs.append(float(thresholds[j]))
        i = j + 1
    zs = np.asarray(zs)
    for k in range(1, zs.size):
        if zs[k] <= zs[k - 1]:
            zs[k] = zs[k - 1] + gap
    return zs, np.minimum.accumulate(np.asarray(vs))


def _loop_pdf_of_cdf(F):
    g = F.table.grid
    gap = KNOT_GAP * min(1.0, float(g[-1]))
    slopes = np.minimum.accumulate(np.maximum(np.diff(F.table.values) / np.diff(g), 0.0))
    zs = [0.0]
    vs = [float(slopes[0])]
    for k in range(1, slopes.size):
        zs.append(float(g[k]))
        vs.append(float(slopes[k - 1]))
        zs.append(float(g[k]) + gap)
        vs.append(float(slopes[k]))
    zs.append(float(g[-1]))
    vs.append(float(slopes[-1]))
    zs = np.asarray(zs)
    for k in range(1, zs.size):
        if zs[k] <= zs[k - 1]:
            zs[k] = zs[k - 1] + gap
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
    st.lists(_STEPS, min_size=1, max_size=80),
    st.sampled_from([0.0, 0.7, 3e4]),
)
def test_concave_flag_reads_knot_gap_pairs_by_width(steps, start):
    # trapezoid cdfs of swapped step measures: knots KNOT_GAP (or, at 3e4,
    # one ulp) apart carry slopes that are pure rounding noise
    measures = start + np.cumsum(steps)
    assume(measures[-1] > 0.0)  # else the table is the one knot z = 0
    table = _swap_axes_to_table(measures, np.geomspace(1.0, 1e-2, measures.size), 1.0)
    z = table.grid
    v = cumulative_trapezoid(table.values, z, initial=0.0)
    assert _concave_flag(z, v)
    # a slope raised 1e-6 above its predecessor (slopes stay above 1e-2, so
    # by more than the 1e-9 slope slack), at a knot whose gaps are wide
    # enough (1e-4, and 5e-6 of z) that the kink outgrows the values' rounding
    dz = np.diff(z)
    wide = np.maximum(1e-4, 5e-6 * z[1:-1])
    for k in np.flatnonzero((dz[:-1] >= wide) & (dz[1:] >= wide)) + 1:
        kinked = v.copy()
        kinked[k + 1:] += (v[k] - v[k - 1]) / dz[k - 1] * (1.0 + 1e-6) * dz[k] - (v[k + 1] - v[k])
        assert not _concave_flag(z, kinked)


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
    got = _layer_cake(w, lo, hi)(y)
    assert np.max(np.abs(got - _loop_superlevel_measures(w, lo, hi, y))) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(_SAMPLES, st.lists(st.integers(min_value=1, max_value=64), min_size=60, max_size=60),
       _LEVELS)
def test_layer_cake_of_steps_is_exact(samples, eighths, levels):
    # every piece flat, as for a cdf's slopes; widths in eighths sum exactly
    v = 0.1 * np.asarray(samples, dtype=np.float64)
    w = np.asarray(eighths[: v.size], dtype=np.float64) / 8.0
    y = np.asarray(levels)
    assert np.array_equal(_layer_cake(w, v, v)(y), _loop_superlevel_measures(w, v, v, y))


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


def _normal_pdf(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / np.sqrt(2.0 * np.pi)


def _bimodal_pdf(x):
    return 0.3 * _normal_pdf((x + 2.0) / 0.5) / 0.5 + 0.7 * _normal_pdf(x - 1.5)


#: densities without flat runs: every knot is (m(v), v) at a sample value v
_SMOOTH = {
    "normal": (_normal_pdf, -8.0, 8.0),
    "beta": (_beta_pdf(2.3, 3.1), 0.0, 1.0),
    "bimodal": (_bimodal_pdf, -6.0, 6.0),
}


def _trapezoid_pdf(x):
    # rises to 1/2 on [0, 1], flat on [1, 2], falls to 0 at 3, 0 on [3, 4]
    x = np.asarray(x, dtype=np.float64)
    return np.clip(0.5 * np.minimum(x, 3.0 - x), 0.0, 0.5)


def test_density_is_sampled_once_at_cosine_points():
    calls = []

    def pdf(x):
        calls.append(x.size)
        return _normal_pdf(x)

    f = DensityFn.from_univariate(pdf, -8.0, 8.0)
    j = np.arange(16385)
    assert f.z[0] == -8.0 and f.z[-1] == 8.0 and np.all(np.diff(f.z) > 0)
    assert np.allclose(f.z, -8.0 + 8.0 * (1.0 - np.cos(np.pi * j / 16384)), rtol=0, atol=1e-14)
    assert np.array_equal(f.fz, _normal_pdf(f.z))
    dr_from_density_1d(f)
    assert calls == [16385]
    # on [0, 1] the points are their own mirror image to the last bit
    g = DensityFn.from_univariate(_beta_pdf(2.3, 3.1), 0.0, 1.0)
    assert np.array_equal(1.0 - g.z[::-1], g.z)
    with pytest.raises(ValueError, match="non-finite"):
        DensityFn.from_univariate(lambda x: np.where(x > 0.0, 0.5, np.inf), 0.0, 1.0)


@pytest.mark.parametrize("name", sorted(_SMOOTH))
def test_dr_knots_are_the_layer_cake_of_the_samples(name):
    pdf, lo, hi = _SMOOTH[name]
    f = DensityFn.from_univariate(pdf, lo, hi)
    t = dr_from_density_1d(f, normalize=False).table
    w = np.diff(f.z)
    low = np.minimum(f.fz[:-1], f.fz[1:])
    high = np.maximum(f.fz[:-1], f.fz[1:])
    assert np.max(np.abs(t.grid - _layer_cake(w, low, high)(t.values))) <= 1e-12 * (hi - lo)


def test_measure_function_is_the_layer_cake_of_the_samples():
    calls = []

    def pdf(x):
        calls.append(x.size)
        return _beta_pdf(2.3, 3.1)(x)

    f = DensityFn.from_univariate(pdf, 0.0, 1.0)
    levels = np.linspace(1e-3, f.fz.max(), 200)
    m = measure_function(f, levels)
    assert calls == [16385]
    low = np.minimum(f.fz[:-1], f.fz[1:])
    high = np.maximum(f.fz[:-1], f.fz[1:])
    expected = _layer_cake(np.diff(f.z), low, high)(m.thresholds)
    assert np.max(np.abs(m.measures - expected)) <= 1e-12


def test_normal_rearranges_to_its_dilation():
    # N(0, 1) is symmetric, so its DR is phi(z / 2)
    dr = dr_from_density_1d(DensityFn.from_univariate(_normal_pdf, -8.0, 8.0))
    z = np.linspace(0.0, 16.0, 160001)
    assert np.max(np.abs(dr(z) - _normal_pdf(z / 2.0))) <= 5e-7


@pytest.mark.parametrize("name", [*sorted(_SMOOTH), "trapezoid"])
def test_rearranged_table_keeps_the_samples_mass(name):
    pdf, lo, hi = _SMOOTH.get(name, (_trapezoid_pdf, 0.0, 4.0))
    f = DensityFn.from_univariate(pdf, lo, hi)
    t = dr_from_density_1d(f, normalize=False).table
    assert abs(np.trapezoid(t.values, t.grid) - np.trapezoid(f.fz, f.z)) <= 1e-12


def test_flat_runs_rearrange_to_flat_runs():
    # the DR is 1/2 on [0, 1], falls linearly to 0 at z = 3, and is 0 after
    dr = dr_from_density_1d(DensityFn.from_univariate(_trapezoid_pdf, 0.0, 4.0), normalize=False)
    assert dr.table.values[0] == dr.table.values[1] == 0.5
    assert abs(dr.table.grid[-1] - 4.0) <= 1e-12 and dr.table.values[-2] == 0.0
    z = np.linspace(0.0, 4.0, 4001)
    exact = np.clip(0.5 - 0.25 * (z - 1.0), 0.0, 0.5)
    assert np.max(np.abs(dr(z) - exact)) <= 1e-4


def test_truncated_normal_steps_to_zero_at_its_support_end():
    # N(0, 1) on [-2, 2] is positive at both ends, so its DR drops to 0 at z = 4
    mass = special.ndtr(2.0) - special.ndtr(-2.0)
    dr = dr_from_density_1d(
        DensityFn.from_univariate(lambda x: _normal_pdf(x) / mass, -2.0, 2.0)
    )
    assert dr.table.values[-1] == 0.0 and dr.table.grid[-1] <= 4.0 + 2e-12
    assert dr(4.0 + 1e-9) == 0.0
    assert dr(4.0 - 1e-9) == pytest.approx(_normal_pdf(2.0) / mass, rel=1e-6)
    exact = np.log(np.sqrt(2.0 * np.pi * np.e) * mass) - 2.0 * _normal_pdf(2.0) / mass
    assert abs(entropy_dr(dr) - exact) <= 1e-7
