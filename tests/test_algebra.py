"""Mixing, tropical operations, lattice, convolution, expressions."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import f5_cdf
from drmaj.algebra import (
    ExprError,
    MixWeight,
    _mass_quantile,
    convolve_dr,
    detect_kink,
    direct_mix,
    direct_mix_discrete,
    eval_expr,
    inverse_mix,
    inverse_mix_discrete,
    inverse_mix_many,
    join,
    meet,
    otimes,
    otimes_power,
)
from drmaj.entropy import SHANNON, entropy_dr, moments_dr
from drmaj.families import dr_exp_iid, dr_exp_rate, dr_family, dr_mvn
from drmaj.order import OrderVerdict, majorizes_cdf, majorizes_discrete
from drmaj.rearrange import DrCdf, DrPdf, TabulatedFn, _level_breaks, cdf_of_dr, pdf_of_cdf

LOG2 = np.log(2.0)


# ---------------------------------------------------------------------------
# mixing the 1d and 2d unit exponentials at alpha = 1/2
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def exp_mix():
    f1, _ = dr_exp_iid(1)
    f2, _ = dr_exp_iid(2)
    return inverse_mix(f1, f2, 0.5), direct_mix(f1, f2, 0.5)


def test_exp_mix_closed_forms(exp_mix):
    inv, dire = exp_mix
    z = np.linspace(0.0, 40.0, 2001)
    want_inv = 0.5 * np.exp(1.0 - np.sqrt(1.0 + 2.0 * z))
    want_dir = np.exp(1.0 - np.sqrt(1.0 + 4.0 * z))
    assert np.max(np.abs(inv(z) - want_inv)) <= 1e-6
    assert np.max(np.abs(dire(z) - want_dir)) <= 1e-6


def test_exp_mix_doubling_identity(exp_mix):
    inv, dire = exp_mix
    z = np.linspace(0.0, 25.0, 1501)
    assert np.max(np.abs(dire(z) - 2.0 * inv(2.0 * z))) <= 1e-6


def test_exp_mix_moments_and_entropy(exp_mix):
    inv, dire = exp_mix
    mean_i, var_i = moments_dr(inv)
    assert mean_i == pytest.approx(3.5, abs=1e-6)
    assert var_i == pytest.approx(99.0 / 4.0, abs=1e-6)
    assert entropy_dr(inv, SHANNON) == pytest.approx(1.5 + LOG2, abs=1e-6)

    mean_d, var_d = moments_dr(dire)
    assert mean_d == pytest.approx(7.0 / 4.0, abs=1e-6)
    assert var_d == pytest.approx(99.0 / 16.0, abs=1e-6)
    assert entropy_dr(dire, SHANNON) == pytest.approx(1.5, abs=1e-6)


# ---------------------------------------------------------------------------
# mixing Exp(1) and Exp(1/2) at alpha = 1/2: a genuinely kinked pair
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rate_mix():
    fa, _ = dr_exp_rate(1.0)
    fb, _ = dr_exp_rate(0.5)
    return inverse_mix(fa, fb, 0.5), direct_mix(fa, fb, 0.5)


def test_rate_mix_piecewise_forms(rate_mix):
    inv, dire = rate_mix
    z = np.linspace(0.0, 30.0, 3001)
    want_inv = np.where(
        z < LOG2, 0.5 * np.exp(-z), np.power(2.0, -5.0 / 3.0) * np.exp(-z / 3.0)
    )
    assert np.max(np.abs(inv(z) - want_inv)) <= 1e-6
    want_dir = np.where(
        z < 0.5 * LOG2,
        np.exp(-2.0 * z),
        np.power(2.0, -2.0 / 3.0) * np.exp(-2.0 * z / 3.0),
    )
    assert np.max(np.abs(dire(z) - want_dir)) <= 1e-6


def test_rate_mix_kinks(rate_mix):
    inv, dire = rate_mix
    assert detect_kink(inv) == pytest.approx(LOG2, abs=1e-3)
    assert detect_kink(dire) == pytest.approx(0.5 * LOG2, abs=1e-3)
    # the break level recorded during mixing is crossed at the same spot
    assert np.min(np.abs(inv.measure_at(inv.measure.breaks) - LOG2)) <= 1e-9


def test_rate_mix_moments_and_entropy(rate_mix):
    inv, dire = rate_mix
    mean_i, var_i = moments_dr(inv)
    assert mean_i == pytest.approx(2.5 + LOG2 / 2.0, abs=1e-6)
    assert var_i == pytest.approx(31.0 / 4.0 + 1.5 * LOG2 + LOG2**2 / 4.0, abs=1e-6)
    assert entropy_dr(inv) == pytest.approx(1.0 + 1.5 * LOG2, abs=1e-6)

    mean_d, var_d = moments_dr(dire)
    assert mean_d == pytest.approx(1.25 + LOG2 / 4.0, abs=1e-6)
    assert var_d == pytest.approx(
        31.0 / 16.0 + 3.0 * LOG2 / 8.0 + LOG2**2 / 16.0, abs=1e-6
    )
    assert entropy_dr(dire) == pytest.approx(1.0 + 0.5 * LOG2, abs=1e-6)


def test_no_kink_on_smooth_dr():
    f, _ = dr_exp_rate(0.7)
    assert detect_kink(f.tabulated(4097)) is None


def test_no_kink_on_a_step_pdf():
    # the steps of pdf_of_cdf are one double wide; their log-slopes are noise
    F = DrCdf(table=dr_exp_iid(1)[1].tabulated(513))
    assert detect_kink(pdf_of_cdf(F)) is None


def test_self_mixes():
    f, _ = dr_exp_iid(1)
    z = np.linspace(0.0, 25.0, 1001)
    same = direct_mix(f, f, 0.3)
    assert np.max(np.abs(same(z) - f(z))) <= 1e-6
    # equal-weight inverse self-mix doubles the measure: exp(1) -> exp(1/2)
    half_rate, _ = dr_exp_rate(0.5)
    dilated = inverse_mix(f, f, 0.5)
    assert np.max(np.abs(dilated(z) - half_rate(z))) <= 1e-6


def test_inverse_mix_many_matches_binary():
    f1, _ = dr_exp_iid(1)
    f2, _ = dr_exp_iid(2)
    z = np.linspace(0.0, 30.0, 801)
    two = inverse_mix(f1, f2, 0.25)
    many = inverse_mix_many([f1, f2], [0.75, 0.25])
    assert np.max(np.abs(two(z) - many(z))) <= 1e-12

    with pytest.raises(ValueError, match="sum to 1"):
        inverse_mix_many([f1, f2], [0.5, 0.6])
    with pytest.raises(ValueError, match="one weight per pdf"):
        inverse_mix_many([f1, f2], [1.0])
    with pytest.raises(ValueError, match="positive"):
        inverse_mix_many([f1, f2], [1.5, -0.5])


@pytest.mark.parametrize(
    "weights", [[np.nan, np.nan], [np.nan, 1.0], [0.5, np.nan], [np.nan, 0.5]]
)
def test_inverse_mix_many_rejects_nan_weights(weights):
    f, _ = dr_exp_iid(1)
    with pytest.raises(ValueError, match="weights must be positive and sum to 1"):
        inverse_mix_many([f, f], weights)


def test_mix_weight_validation():
    assert MixWeight.coerce(0.25).alpha == 0.25
    assert MixWeight.coerce(MixWeight(0.7)).alpha == 0.7
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            MixWeight.coerce(bad)


def test_discrete_mixes():
    p = [0.6, 0.4]
    q = [0.7, 0.3]
    pooled = inverse_mix_discrete(p, q, 0.5)
    assert np.allclose(pooled, [0.35, 0.3, 0.2, 0.15])
    averaged = direct_mix_discrete(p, q, 0.5)
    assert np.allclose(averaged, [0.65, 0.35])
    # pooling splits mass across more atoms, so it precedes averaging
    assert majorizes_discrete(pooled, averaged) is OrderVerdict.PRECEDES

    with pytest.raises(ValueError, match="sum to 1"):
        inverse_mix_discrete([0.6, 0.3], q)
    with pytest.raises(ValueError, match="nonnegative"):
        direct_mix_discrete([1.2, -0.2], q)


# ---------------------------------------------------------------------------
# tropical product and lattice
# ---------------------------------------------------------------------------


def test_otimes_dilates(quintuple):
    F1, F2, F3, F4, _ = quintuple
    z = np.linspace(0.0, 60.0, 1501)
    prod = otimes(F1, F1)
    assert np.max(np.abs(prod(z) - F3(z))) <= 1e-6
    assert np.max(np.abs(otimes(F2, F2)(z) - F4(z))) <= 1e-6
    powered = otimes_power(F1, 2)
    assert np.max(np.abs(powered(z) - F3(z))) <= 1e-12


def test_otimes_power_scaling_identity():
    _, F2 = dr_exp_iid(2)
    z = np.linspace(0.0, 90.0, 901)
    for k in (2, 3):
        assert np.max(np.abs(otimes_power(F2, k)(z) - F2(z / k))) <= 1e-6


def test_otimes_power_keeps_the_level_breaks():
    # dilating z by k divides every pdf value by k, so -log(u / vmax) is fixed
    mixed = eval_expr("mix(exp:n=1, exp:n=2, alpha=0.3)")
    powered = eval_expr("pow(mix(exp:n=1, exp:n=2, alpha=0.3), 2.2)")
    want = _level_breaks(mixed.pdf)
    assert len(want) == 1 and want[0] == pytest.approx(0.8473, abs=1e-4)
    assert _level_breaks(powered.pdf) == pytest.approx(want, abs=1e-12)
    assert np.array_equal(powered.pdf.measure.breaks, mixed.pdf.measure.breaks / 2.2)


@pytest.mark.parametrize("k", [1.5, 3.0])
def test_otimes_power_of_a_step_pdf(k):
    # the steps of pdf_of_cdf and the one-double pieces of their cdf stay one
    # double wide under a dilation by k, so neither table merges knots
    f = pdf_of_cdf(DrCdf(table=dr_exp_iid(1)[1].tabulated()))
    powered = otimes_power(DrCdf(table=cdf_of_dr(f).table, pdf=f), k)
    assert entropy_dr(powered.pdf) == pytest.approx(entropy_dr(f) + np.log(k), abs=1e-8)
    again = pdf_of_cdf(DrCdf(table=powered.table))
    assert np.trapezoid(again.table.values, again.table.grid) == pytest.approx(1.0, abs=1e-12)
    assert entropy_dr(again) == pytest.approx(entropy_dr(powered.pdf), abs=1e-8)


@pytest.mark.parametrize("k", [np.inf, -np.inf, np.nan, 0.5])
def test_otimes_power_rejects_bad_power(k):
    _, F = dr_exp_iid(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="power must be finite and at least 1"):
            otimes_power(F, k)
        with pytest.raises(ValueError, match="power must be finite and at least 1"):
            eval_expr(f"pow(exp:n=1, {k})")


def test_otimes_is_the_tabulated_half_inverse_mix():
    _, fast = dr_exp_rate(1.0)
    _, slow = dr_exp_rate(0.5)
    prod = otimes(fast, slow)
    assert prod.table is not None and prod.concave
    again = cdf_of_dr(prod.pdf).table
    assert np.array_equal(prod.table.grid, again.grid)
    assert np.array_equal(prod.table.values, again.values)
    # the slower input's scaled maximum 1/4 is crossed at measure log 2
    assert np.array_equal(prod.pdf.measure.breaks, [0.25])
    assert prod.pdf.measure_at(0.25) == pytest.approx(LOG2, abs=1e-12)


def test_otimes_of_crossing_meet_has_a_step_pdf():
    prod = eval_expr("otimes(meet(mvn:n=1, exp:n=1), exp:n=1)").cdf
    step = pdf_of_cdf(cdf_of_dr(prod.pdf))
    assert np.trapezoid(step.table.values, step.table.grid) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("op", [join, meet])
def test_crossing_lattice_reads_its_exact_quantile(op):
    F1, F2 = dr_mvn(1, var=1.3)[1], dr_exp_iid(1)[1]
    lat = op(F1, F2)
    assert lat is not F1 and lat is not F2 and lat.inverse is not None
    p = np.array([1e-6, 0.25, 0.5, 0.9, 1.0 - 1e-8])
    assert np.all(np.abs(lat(lat.quantile_at(p)) - p) <= 1e-12)
    searched = DrCdf(fn=lat.fn, z_hi=lat.z_hi, require_concave=False)  # no inverse: bisection
    assert lat.effective_support() == pytest.approx(searched.effective_support(), rel=1e-8)


@pytest.mark.parametrize("op", [join, meet])
def test_crossing_lattice_of_a_table_has_no_inverse(op):
    F1, F2 = cdf_of_dr(dr_mvn(1)[0]), dr_exp_iid(1)[1]
    lat = op(F1, F2)
    assert lat is not F1 and lat is not F2
    assert lat.inverse is None


def test_otimes_power_chain_spreads():
    _, F = dr_exp_iid(1)
    chain = [otimes_power(F, k) for k in range(1, 5)]
    for lower, higher in zip(chain[1:], chain[:-1]):
        assert majorizes_cdf(lower, higher) is OrderVerdict.PRECEDES


def test_lattice_collapses_to_dominant_input(quintuple):
    F1, F2, _, _, _ = quintuple
    assert join(F2, F1) is F1
    assert meet(F2, F1) is F2
    assert join(F1, F2) is F1


def test_lattice_of_crossing_pair(quintuple):
    _, F2, F3, _, _ = quintuple
    assert majorizes_cdf(F2, F3) is OrderVerdict.INCOMPARABLE
    top = join(F2, F3)
    bot = meet(F2, F3)
    z = np.linspace(0.0, 80.0, 2001)
    assert np.max(np.abs(top(z) - np.maximum(F2(z), F3(z)))) <= 1e-12
    assert np.max(np.abs(bot(z) - np.minimum(F2(z), F3(z)))) <= 1e-12
    assert not top.concave
    assert bot.concave


def test_lattice_chain_brackets_the_pair(quintuple):
    F1, F2, F3, F4, _ = quintuple
    bot = meet(F2, F3)
    top = join(F2, F3)
    assert majorizes_cdf(F4, bot, tol=1e-9) is OrderVerdict.PRECEDES
    assert majorizes_cdf(bot, top, tol=1e-9) is OrderVerdict.PRECEDES
    assert majorizes_cdf(top, F1, tol=1e-9) is OrderVerdict.PRECEDES


def test_distributivity_over_comparable_join(quintuple):
    F1, F2, F3, _, _ = quintuple
    lhs = otimes(F3, join(F1, F2))
    rhs = join(otimes(F3, F1), otimes(F3, F2))
    z = np.linspace(0.0, 100.0, 2001)
    assert np.max(np.abs(lhs(z) - rhs(z))) <= 1e-6


def test_distributivity_gap_over_crossing_join(quintuple):
    """A crossing join is not a DR cdf, and the product does not distribute
    over it beyond tolerance; the deficit is real, not numerical noise."""
    F1, F2, F3, _, F5 = quintuple
    mixed = join(F2, F5)
    assert not mixed.concave
    lhs = otimes(F3, mixed)
    rhs = join(otimes(F3, F2), otimes(F3, F5))
    z = np.linspace(0.0, 60.0, 2001)
    assert np.max(np.abs(lhs(z) - rhs(z))) > 1e-3


def test_convolution_of_uniforms_gives_triangle():
    table = TabulatedFn(np.array([0.0, 1.0]), np.array([1.0, 1.0]), "nonincreasing")
    u = DrPdf(table=table)
    F = convolve_dr(u, u)
    z = np.linspace(0.0, 2.0, 401)
    # triangle DR cdf: integral of 1 - z/2
    assert np.max(np.abs(F(z) - (z - z * z / 4.0))) <= 1e-3


def test_convolution_of_exponentials(quintuple):
    f1, _ = dr_exp_iid(1)
    F = convolve_dr(f1, f1)
    z = np.linspace(0.0, 30.0, 1501)
    assert np.max(np.abs(F(z) - f5_cdf(z))) <= 1e-3


@pytest.mark.parametrize(
    "spec", [f"exp:n={n}" for n in (1, 2, 4, 8, 12, 20)] + [f"mvn:n={n}" for n in (1, 2, 5, 20)]
)
def test_mass_quantile_matches_the_exact_quantile(spec):
    # the quantile sets convolve_dr's step; on a uniform grid of [0, z_hi] it
    # read 0.0014-0.81 of the exact one for exp:n 4-20 (exp:n=1 and 2 and
    # mvn:n=1 and 2 were right before)
    f, F = dr_family(spec)
    want = F.quantile_at(1.0 - 1e-6)
    assert _mass_quantile(f, 1.0 - 1e-6) == pytest.approx(want, rel=1e-3)


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------


def test_expr_family_leaf():
    res = eval_expr("exp:n=2")
    assert res.label == "exp_n2"
    z = np.linspace(0.0, 10.0, 101)
    r = np.sqrt(2.0 * z)
    assert np.max(np.abs(res.cdf(z) - (1.0 - (1.0 + r) * np.exp(-r)))) <= 1e-12


def test_expr_operations():
    res = eval_expr("mix(exp:n=1, exp:n=2, alpha=0.5)")
    z = np.linspace(0.0, 20.0, 401)
    assert np.max(np.abs(res.pdf(z) - 0.5 * np.exp(1.0 - np.sqrt(1.0 + 2.0 * z)))) <= 1e-6

    dil = eval_expr("pow(exp:n=1, 2)")
    assert np.max(np.abs(dil.cdf(z) - (1.0 - np.exp(-z / 2.0)))) <= 1e-12

    top = eval_expr("join(exp:n=1, exp:n=2)")
    assert top.label.startswith("join")
    assert top.pdf is not None  # collapsed to the dominant input
    assert np.max(np.abs(top.cdf(z) - (1.0 - np.exp(-z)))) <= 1e-12

    conv = eval_expr("conv(exp:n=1, exp:n=1)")
    assert np.max(np.abs(conv.cdf(z) - f5_cdf(z))) <= 1e-3

    prod = eval_expr("otimes(exp:n=1, exp:n=1)")
    assert np.max(np.abs(prod.cdf(z) - (1.0 - np.exp(-z / 2.0)))) <= 1e-6

    nested = eval_expr("meet(pow(exp:n=1, 2), mix(exp:n=1, exp:n=2, alpha=0.5))")
    assert nested.cdf is not None


def test_expr_file_leaf(tmp_path):
    f, _ = dr_exp_iid(1)
    path = tmp_path / "dr.csv"
    f.tabulated(2049).to_csv(path)
    res = eval_expr(str(path))
    z = np.linspace(0.0, 20.0, 201)
    assert np.max(np.abs(res.pdf(z) - np.exp(-z))) <= 1e-3
    assert np.max(np.abs(res.cdf(z) - (1.0 - np.exp(-z)))) <= 1e-3


def test_expr_errors():
    with pytest.raises(ExprError, match="unknown identifier"):
        eval_expr("gauss:n=1")
    with pytest.raises(ExprError, match="two distribution operands"):
        eval_expr("mix(exp:n=1)")
    with pytest.raises(ExprError, match="unknown identifier"):
        eval_expr("mix(exp:n=1, exp:n=2")  # no closing paren: not a call
    with pytest.raises(ExprError, match="unbalanced"):
        eval_expr("join(exp:n=1, meet(exp:n=1, exp:n=2)")
    with pytest.raises(ExprError, match="one distribution and one power"):
        eval_expr("pow(exp:n=1)")


@settings(max_examples=15, deadline=None)
@given(
    st.floats(min_value=0.4, max_value=2.0),
    st.floats(min_value=0.4, max_value=2.0),
    st.floats(min_value=0.1, max_value=0.9),
)
def test_mix_mass_and_order(theta_a, theta_b, alpha):
    fa, _ = dr_exp_rate(theta_a)
    fb, _ = dr_exp_rate(theta_b)
    inv = inverse_mix(fa, fb, alpha)
    dire = direct_mix(fa, fb, alpha)
    for f in (inv, dire):
        mass = np.trapezoid(f.table.values, f.table.grid)
        assert abs(mass - 1.0) <= 1e-5
        assert np.all(np.diff(f.table.values) <= 1e-12)
    verdict = majorizes_cdf(cdf_of_dr(inv), cdf_of_dr(dire))
    assert verdict in (OrderVerdict.PRECEDES, OrderVerdict.EQUAL)
