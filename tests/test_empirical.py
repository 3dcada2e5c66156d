"""Monte Carlo DR estimation from KDEs, binned counts, and csv ingestion."""

import numpy as np
import pytest

from drmaj.empirical import (
    Dataset,
    KdeModel,
    McConfig,
    _sample_box,
    bin_2d,
    discrete_empirical_dr,
    empirical_dr,
    empirical_dr_cdf,
    fit_kde,
    run_manifest,
)
from drmaj.order import OrderVerdict, majorizes_cdf, majorizes_discrete
from drmaj.rearrange import DrPdf, TabulatedFn


def bvn_model():
    # a single unit-bandwidth kernel is exactly the standard bivariate normal
    return KdeModel(np.zeros((1, 2)), np.ones(2))


def bvn_dr_cdf_exact(z):
    return 1.0 - np.exp(-np.asarray(z) / (2.0 * np.pi))


BOX = np.array([[-5.0, 5.0], [-5.0, 5.0]])


def run(n_points, seed=1, **kw):
    cfg = McConfig(n_points=n_points, n_thresholds=1000, bounding_box=BOX, seed=seed, **kw)
    return empirical_dr(bvn_model(), cfg)


def sup_err(dr):
    F = empirical_dr_cdf(dr, np.linspace(0.0, 40.0, 4001))
    z = np.linspace(0.0, 35.0, 1401)
    return float(np.max(np.abs(F(z) - bvn_dr_cdf_exact(z))))


def test_dataset_validation():
    with pytest.raises(ValueError, match="at least 10"):
        Dataset(np.zeros((5, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.full((12, 2), np.nan))
    with pytest.raises(ValueError, match="one label per column"):
        Dataset(np.zeros((12, 2)), labels=["a"])
    d = Dataset(np.arange(10.0))
    assert (d.m, d.n) == (10, 1)
    assert d.labels == ["x0"]


def test_dataset_from_csv(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("u,v\n0.0,1.0\n" + "\n".join(f"{i},{i * 2}" for i in range(9)) + "\n")
    d = Dataset.from_csv(path)
    assert d.labels == ["u", "v"]
    assert d.m == 10
    bad = tmp_path / "bad.csv"
    bad.write_text("u,v\n1.0,oops\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        Dataset.from_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        Dataset.from_csv(empty)


@pytest.mark.parametrize("row, fields", [("1.0,2.0,3.0", 3), ("1.0", 1)])
def test_dataset_from_csv_names_a_row_of_the_wrong_width(tmp_path, row, fields):
    path = tmp_path / "pts.csv"
    path.write_text("u,v\n" + "".join(f"{i},{i}\n" for i in range(10)) + row + "\n")
    with pytest.raises(ValueError, match=f"pts.csv:12: expected 2 fields, got {fields}"):
        Dataset.from_csv(path)


def test_kde_pointwise_values():
    model = KdeModel(np.array([[0.0], [1.0]]), np.array([1.0]))
    phi = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
    # equidistant from both centers: the mixture value is one kernel's value
    assert model(np.array([[0.5]]))[0] == pytest.approx(phi(0.5), abs=1e-15)
    assert model(np.array([[0.0]]))[0] == pytest.approx(
        0.5 * (phi(0.0) + phi(1.0)), abs=1e-15
    )
    assert model.mass_in_box(np.array([[-30.0, 30.0]])) == pytest.approx(1.0)
    assert model.max_hint() >= model(np.array([[0.0]]))[0]


def test_kde_validation():
    with pytest.raises(ValueError, match="one bandwidth per dimension"):
        KdeModel(np.zeros((3, 2)), np.ones(3))
    with pytest.raises(ValueError, match="positive"):
        KdeModel(np.zeros((3, 2)), np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="finite"):
        KdeModel(np.full((3, 2), np.inf), np.ones(2))
    for centers in (np.empty((0, 2)), np.empty(0)):
        with pytest.raises(ValueError, match="at least one center"):
            KdeModel(centers, 1.0)


def test_bandwidth_rules():
    rng = np.random.default_rng(3)
    d = Dataset(rng.normal(size=(200, 2)))
    sig = np.std(d.rows, axis=0, ddof=1)
    silver = fit_kde(d, "silverman")
    want = (4.0 / 4.0) ** (1.0 / 6.0) * sig * 200 ** (-1.0 / 6.0)
    assert np.allclose(silver.bandwidths, want, rtol=1e-12)
    scott = fit_kde(d, "scott")
    assert np.allclose(scott.bandwidths, sig * 200 ** (-1.0 / 6.0), rtol=1e-12)
    fixed = fit_kde(d, "fixed", h=0.3)
    assert np.allclose(fixed.bandwidths, [0.3, 0.3])
    with pytest.raises(ValueError, match="requires h"):
        fit_kde(d, "fixed")
    with pytest.raises(ValueError, match="unknown bandwidth rule"):
        fit_kde(d, "epanechnikov")
    flat = Dataset(np.column_stack([np.arange(20.0), np.ones(20)]), labels=["a", "b"])
    with pytest.raises(ValueError, match="degenerate dimension 'b'"):
        fit_kde(flat)


def test_mc_config_validation():
    with pytest.raises(ValueError, match="n_points"):
        McConfig(n_points=10)
    with pytest.raises(ValueError, match="n_thresholds"):
        McConfig(n_thresholds=8)
    with pytest.raises(ValueError, match="sampler"):
        McConfig(sampler="halton")
    with pytest.raises(ValueError, match="seed"):
        McConfig(seed=-1)
    with pytest.raises(ValueError, match="lo < hi"):
        McConfig(bounding_box=np.array([[-1.0, 1.0], [2.0, 2.0]]))
    with pytest.raises(ValueError, match=r"one \[lo, hi\] pair per dimension"):
        McConfig(bounding_box=np.array([-5.0, 0.0, 5.0]))


def test_exact_bvn_recovers_closed_form():
    _, dr = run(40_000)
    assert sup_err(dr) <= 0.02


def test_error_shrinks_with_budget():
    errs = [sup_err(run(n)[1]) for n in (5_000, 20_000, 80_000)]
    assert errs[2] < errs[0]
    assert errs[2] <= 0.015


def test_runs_are_deterministic():
    m1, dr1 = run(20_000, seed=9)
    m2, dr2 = run(20_000, seed=9)
    assert np.array_equal(m1.measures, m2.measures)
    assert np.array_equal(dr1.table.grid, dr2.table.grid)
    assert np.array_equal(dr1.table.values, dr2.table.values)
    m3, _ = run(20_000, seed=10)
    assert not np.array_equal(m1.measures, m3.measures)


def test_low_discrepancy_sampler():
    _, dr = run(32_768, sampler="low_discrepancy")
    assert sup_err(dr) <= 0.005


def test_measures_are_exact_superlevel_counts():
    rng = np.random.default_rng(5)
    model = KdeModel(rng.standard_normal((5, 2)), np.array([0.6, 0.9]))
    box = model.default_box(margin=5.0)
    cfg = McConfig(n_points=2000, n_thresholds=64, bounding_box=box, seed=3)
    measure, dr = empirical_dr(model, cfg)
    volume = float(np.prod(box[:, 1] - box[:, 0]))
    dens = model(_sample_box(box, cfg))
    counts = np.array([(dens > y).sum() for y in measure.thresholds])
    # one count per threshold, no smoothing: any miscount moves a value by
    # volume / N, far above the rounding allowed here
    np.testing.assert_allclose(
        measure.measures, counts * volume / cfg.n_points, rtol=1e-14, atol=0.0
    )
    assert np.all(np.diff(measure.measures) >= 0.0)
    assert dr.mc_standard_error > 0


def test_box_mass_gate():
    cfg = McConfig(
        n_points=5000, bounding_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]), seed=0
    )
    with pytest.raises(ValueError, match="widen the box"):
        empirical_dr(bvn_model(), cfg)


def test_box_of_the_wrong_size_is_named():
    # one [lo, hi] pair for a 2-d KDE
    cfg = McConfig(n_points=5000, bounding_box=np.array([-5.0, 5.0]), seed=0)
    expected = r"2 entries; a 2-d KDE needs shape \(2, 2\)"
    with pytest.raises(ValueError, match=expected):
        empirical_dr(bvn_model(), cfg)
    with pytest.raises(ValueError, match=expected):
        run_manifest(bvn_model(), cfg)
    with pytest.raises(ValueError, match=r"6 entries; a 2-d KDE"):
        bvn_model().mass_in_box(np.arange(6.0))


def test_box_too_tight_warning():
    model = KdeModel(np.zeros((1, 1)), np.ones(1))
    cfg = McConfig(
        n_points=5000, bounding_box=np.array([[-4.5, 4.5]]), seed=0, n_thresholds=256
    )
    with pytest.warns(RuntimeWarning, match="box too tight"):
        empirical_dr(model, cfg)


def test_cdf_binning_controls():
    _, dr = run(20_000)
    with pytest.raises(ValueError, match="two distinct points"):
        empirical_dr_cdf(dr, [5.0])
    with pytest.raises(ValueError, match="nonnegative"):
        empirical_dr_cdf(dr, [-1.0, 5.0])
    with pytest.raises(ValueError, match="truncated too aggressively"):
        empirical_dr_cdf(dr, np.linspace(0.0, 0.5, 64))
    F = empirical_dr_cdf(dr, np.linspace(0.0, 40.0, 2001))
    assert float(F(F.z_hi)) == 1.0
    assert 0.97 <= F.mass <= 1.03


def test_quantile_of_a_binned_step_is_its_support_end():
    # DR 2 on [0, 0.5): the binned cdf reaches 1 at z = 0.5 and stays flat to the grid's end
    dr = DrPdf(table=TabulatedFn([0.0, np.nextafter(0.5, 0.0), 0.5], [2.0, 2.0, 0.0], "nonincreasing"))
    F = empirical_dr_cdf(dr, np.linspace(0.0, 2.0, 201))
    assert F.effective_support() == 0.5
    assert F.quantile_at(1.0) == 0.5


def test_discrete_empirical_dr():
    pv, cdf = discrete_empirical_dr(np.array([[5, 2], [3, 0]]))
    assert np.allclose(pv.values, [0.5, 0.3, 0.2, 0.0])
    assert cdf(0.5) == pytest.approx(0.0)
    assert cdf(1.5) == pytest.approx(0.5)
    assert cdf(3.2) == pytest.approx(1.0)
    assert cdf(50.0) == 1.0
    assert np.allclose(cdf(np.arange(1.0, 5.0)), [0.5, 0.8, 1.0, 1.0])

    with pytest.raises(ValueError, match="integers"):
        discrete_empirical_dr([1.5, 2.0])
    with pytest.raises(ValueError, match="nonnegative"):
        discrete_empirical_dr([-1, 2])
    with pytest.raises(ValueError, match="all-zero"):
        discrete_empirical_dr([0, 0])


def test_discrete_dominance_maps_to_cdf_order():
    # flatter counts are majorised by more peaked counts
    _, F_flat = discrete_empirical_dr([4, 3, 3])
    _, F_peak = discrete_empirical_dr([8, 1, 1])
    p_flat, _ = discrete_empirical_dr([4, 3, 3])
    p_peak, _ = discrete_empirical_dr([8, 1, 1])
    assert majorizes_discrete(p_flat.values, p_peak.values) is OrderVerdict.PRECEDES
    grid = np.linspace(1e-6, 3.0, 500)
    assert majorizes_cdf(F_flat, F_peak, grid=grid) is OrderVerdict.PRECEDES


def test_bin_2d():
    rng = np.random.default_rng(12)
    d = Dataset(rng.normal(size=(500, 2)))
    counts = bin_2d(d, 8, 6)
    assert counts.shape == (8, 6)
    assert counts.sum() == 500
    with pytest.raises(ValueError, match="two columns"):
        bin_2d(Dataset(np.zeros((20, 1))), 4, 4)
    same = Dataset(np.column_stack([np.full(20, 2.0), np.arange(20.0)]))
    assert bin_2d(same, 4, 4).sum() == 20


def test_run_manifest_is_complete():
    cfg = McConfig(n_points=5000, bounding_box=BOX, seed=42)
    man = run_manifest(bvn_model(), cfg)
    assert man["seed"] == 42
    assert man["n_points"] == 5000
    assert man["sampler"] == "uniform"
    assert np.asarray(man["box"]).shape == (2, 2)
    assert man["n_centers"] == 1
    assert len(man["bandwidths"]) == 2
