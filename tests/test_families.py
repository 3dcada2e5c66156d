"""Analytic family closures: closed forms, parsing, ordering along parameters."""

import math

import numpy as np
import pytest
from scipy import special, stats

from drmaj.families import (
    _exp_radius,
    ball_volume,
    dr_beta32,
    dr_exp_iid,
    dr_exp_rate,
    dr_family,
    dr_mvn,
    parse_family,
)
from drmaj.entropy import entropy_dr
from drmaj.order import OrderVerdict, majorizes_cdf
from drmaj.rearrange import DrCdf


def test_ball_volumes():
    assert ball_volume(1, 1.0) == pytest.approx(2.0)
    assert ball_volume(2, 1.0) == pytest.approx(np.pi)
    assert ball_volume(3, 1.0) == pytest.approx(4.0 * np.pi / 3.0)
    assert ball_volume(2, 3.0) == pytest.approx(9.0 * np.pi)
    out = ball_volume(3, np.array([1.0, 2.0]))
    assert np.allclose(out, 4.0 * np.pi / 3.0 * np.array([1.0, 8.0]))


def test_mvn_1d_closed_form():
    """DR of the standard normal: f(z) = phi(z/2), F(z) = 2 Phi(z/2) - 1."""
    f, F = dr_mvn(1)
    z = np.linspace(0.0, 8.0, 200)
    assert np.max(np.abs(f(z) - stats.norm.pdf(z / 2.0))) <= 1e-12
    assert np.max(np.abs(F(z) - (2.0 * stats.norm.cdf(z / 2.0) - 1.0))) <= 1e-12


def test_mvn_2d_closed_form():
    # superlevel disks give F(z) = 1 - exp(-z / (2 pi))
    f, F = dr_mvn(2)
    z = np.linspace(0.0, 30.0, 200)
    assert np.max(np.abs(F(z) - (1.0 - np.exp(-z / (2.0 * np.pi))))) <= 1e-12
    assert f(0.0) == pytest.approx(1.0 / (2.0 * np.pi))


def test_mvn_3d_against_chi_square():
    # z is the volume of the radius-r ball, so F(z) = P(chi2_3 <= r^2 / var)
    _, F = dr_mvn(3, var=1.3)
    z = np.linspace(0.01, 60.0, 120)
    r2 = (z / ball_volume(3, 1.0)) ** (2.0 / 3.0)
    assert np.max(np.abs(F(z) - stats.chi2(3).cdf(r2 / 1.3))) <= 1e-10


def test_exp_closed_forms():
    f1, F1 = dr_exp_iid(1)
    z = np.linspace(0.0, 20.0, 200)
    assert np.max(np.abs(f1(z) - np.exp(-z))) <= 1e-12
    assert np.max(np.abs(F1(z) - (1.0 - np.exp(-z)))) <= 1e-12

    _, F2 = dr_exp_iid(2)
    r = np.sqrt(2.0 * z)
    assert np.max(np.abs(F2(z) - (1.0 - (1.0 + r) * np.exp(-r)))) <= 1e-12


def test_exp_3d_against_gamma():
    # the superlevel region is a simplex of volume c^3/3!, so F(z) = P(Gamma(3,1) <= c)
    _, F3 = dr_exp_iid(3)
    z = np.linspace(0.01, 100.0, 100)
    c = (6.0 * z) ** (1.0 / 3.0)
    assert np.max(np.abs(F3(z) - stats.gamma(3).cdf(c))) <= 1e-10


def test_exp_rate_closed_form():
    theta = 0.5
    f, F = dr_exp_rate(theta)
    z = np.linspace(0.0, 40.0, 200)
    assert np.max(np.abs(f(z) - theta * np.exp(-theta * z))) <= 1e-12
    assert np.max(np.abs(F(z) - (1.0 - np.exp(-theta * z)))) <= 1e-12


def test_beta32_pdf_integrates_to_its_cdf():
    f, F = dr_beta32()
    z = np.linspace(0.0, 1.0, 40001)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (f(z)[1:] + f(z)[:-1]) * np.diff(z))])
    assert np.max(np.abs(cum - F(z))) <= 1e-6
    assert F(1.0) == pytest.approx(1.0)
    assert f(0.0) == pytest.approx(16.0 / 9.0)  # beta(3,2) mode value at x = 2/3


@pytest.mark.parametrize(
    "spec_text",
    ["mvn:n=1", "mvn:n=3,var=0.5", "exp:n=2", "exp:n=4", "exprate:theta=2", "beta32"],
)
def test_cdf_derivative_matches_pdf(spec_text):
    f, F = dr_family(spec_text)
    hi = F.effective_support()
    z = np.linspace(hi * 0.02, min(hi, 60.0) * 0.8, 64)
    d = 1e-5 * max(hi, 1.0)
    slope = (F(z + d) - F(z - d)) / (2.0 * d)
    assert np.max(np.abs(slope - f(z))) <= 1e-6


def test_parse_family_accepts_and_labels():
    assert parse_family("mvn:n=2,var=3").label() == "mvn_n2_var3"
    assert parse_family("exp:n=2").label() == "exp_n2"
    assert parse_family("exprate:theta=0.5").label() == "exprate_theta0.5"
    assert parse_family("beta32").label() == "beta32"
    assert parse_family("mvn").params == {"n": 1, "var": 1.0}
    assert "mvn" in repr(parse_family("mvn:n=2"))


@pytest.mark.parametrize(
    "bad",
    [
        "gauss",
        "mvn:n=0",
        "mvn:sigma=1",
        "exp:n=-2",
        "exp:theta=1",
        "exprate:theta=0",
        "beta32:n=1",
        "mvn:novalue",
        "mvn:n=1,var=nan",
        "mvn:n=1,var=inf",
        "exprate:theta=inf",
        "exprate:theta=nan",
        "exp:n=171",
    ],
)
def test_parse_family_rejects(bad):
    with pytest.raises(ValueError):
        parse_family(bad)


def test_dimension_increases_spread():
    """Within each family the DR cdfs decrease with dimension."""
    grid = np.linspace(1e-6, 200.0, 1000)
    for maker in (dr_exp_iid, dr_mvn):
        cdfs = [maker(n)[1] for n in range(1, 5)]
        for lo, hi in zip(cdfs[1:], cdfs[:-1]):
            assert majorizes_cdf(lo, hi, grid=grid, tol=1e-9) is OrderVerdict.PRECEDES


def test_variance_increases_spread():
    grid = np.linspace(1e-6, 120.0, 1000)
    F_wide = dr_mvn(2, var=2.0)[1]
    F_narrow = dr_mvn(2, var=1.0)[1]
    assert majorizes_cdf(F_wide, F_narrow, grid=grid, tol=1e-9) is OrderVerdict.PRECEDES
    # determinant ordering: var^n grows with either var or n
    F_big_det = dr_mvn(3, var=1.5)[1]
    assert majorizes_cdf(F_big_det, F_narrow, grid=grid, tol=1e-9) is OrderVerdict.PRECEDES


def test_smaller_rate_spreads_exponential():
    grid = np.linspace(1e-6, 80.0, 1000)
    F_slow = dr_exp_rate(0.5)[1]
    F_fast = dr_exp_rate(1.5)[1]
    assert majorizes_cdf(F_slow, F_fast, grid=grid, tol=1e-9) is OrderVerdict.PRECEDES


@pytest.mark.parametrize("n", [109, 132, 133, 170])
def test_exp_entropy_is_its_dimension_up_to_the_cap(n):
    # (-log v)^n overflowed the measure from n = 109, and r^n the quantile from 133
    f, F = dr_exp_iid(n)
    assert math.isfinite(F.z_hi)
    assert entropy_dr(f) == pytest.approx(n, rel=1e-8)
    assert _radial_gap(f"exp:n={n}") < 1e-12


def _radial_gap(text):
    """Sup distance of a family's DR pdf from its radial reconstruction.

    For mvn the radius of the level ball is chi-distributed; for iid
    exponentials the simplex radius (coordinate sum) is Gamma(n, 1).  The DR
    pdf must equal ``f_R(r(z)) r'(z)`` with ``z`` the superlevel volume, on
    512 points up to the 1 - 1e-6 quantile.
    """
    spec = parse_family(text)
    f, F = dr_family(spec)
    z_hi = F.quantile_at(1.0 - 1e-6)
    z = np.linspace(z_hi * 1e-6, z_hi, 512)
    if spec.kind == "mvn":
        n = spec.params["n"]
        sigma = math.sqrt(spec.params["var"])
        vn = ball_volume(n, 1.0)
        r = np.power(z / vn, 1.0 / n)
        drdz = np.power(z / vn, 1.0 / n - 1.0) / (n * vn)
        recon = stats.chi.pdf(r / sigma, df=n) / sigma * drdz
    elif spec.kind == "exp_iid":
        n = spec.params["n"]
        r = _exp_radius(z, n)
        recon = stats.gamma.pdf(r, a=n) * r / (n * z)  # dr/dz = r / (n z)
    else:
        theta = spec.params["theta"]
        recon = theta * np.exp(-theta * z)
    return float(np.max(np.abs(recon - f(z))))


def test_radial_reconstruction():
    for text in ("mvn:n=1", "mvn:n=2", "mvn:n=4,var=2", "exp:n=1", "exp:n=3", "exprate:theta=2"):
        assert _radial_gap(text) <= 1e-9


def _gammainc_cdf(spec, z):
    """The family cdf as ``special.gammainc`` of its order and argument."""
    n = spec.params["n"]
    if spec.kind == "mvn":
        x = np.power(z / ball_volume(n, 1.0), 2.0 / n) / (2.0 * spec.params["var"])
        return special.gammainc(n / 2.0, x)
    return special.gammainc(n, _exp_radius(z, n))


def _z_grid(F):
    return np.concatenate([[0.0], np.geomspace(1e-12, 1e3, 4001) * F.z_hi, [F.z_hi]])


@pytest.mark.parametrize(
    "spec_text",
    ["mvn:n=1,var=0.001", "mvn:n=1", "mvn:n=1,var=1000", "mvn:n=2", "exp:n=1"],
)
def test_order_half_and_one_cdfs_match_gammainc(spec_text):
    # erf(sqrt(x)) and -expm1(-x), the special values of P(1/2, x) and P(1, x)
    spec = parse_family(spec_text)
    _, F = dr_family(spec)
    z = _z_grid(F)
    got, want = F(z), _gammainc_cdf(spec, z)
    assert np.all(np.abs(got - want) <= 5e-15)
    assert np.all(np.abs(got - want) <= 1e-13 * want)
    assert F.concave


@pytest.mark.parametrize("spec_text", ["mvn:n=3", "exp:n=2"])
def test_other_order_cdfs_are_gammainc(spec_text):
    spec = parse_family(spec_text)
    _, F = dr_family(spec)
    z = _z_grid(F)
    assert np.array_equal(F(z), _gammainc_cdf(spec, z))
    assert F.concave


@pytest.mark.parametrize(
    "spec_text",
    ["mvn:n=1", "mvn:n=2", "mvn:n=3,var=0.5", "exp:n=1", "exp:n=4", "exprate:theta=2"],
)
def test_effective_support_reads_the_exact_inverse(spec_text):
    spec = parse_family(spec_text)
    _, F = dr_family(spec)
    searched = DrCdf(fn=F.fn, z_hi=F.z_hi)  # no inverse: doubling search and bisection
    exact = F.effective_support()
    assert exact == pytest.approx(searched.effective_support(), rel=1e-8)
    assert float(F(exact)) == pytest.approx(1.0 - 1e-8, abs=1e-14)
