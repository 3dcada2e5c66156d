"""Majorisation verdicts, witnesses, and order-preservation checks."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import continuous_comparable_pair, discrete_comparable_pair
from drmaj.algebra import direct_mix_discrete, inverse_mix_discrete
from drmaj.entropy import entropy_discrete
from drmaj.families import dr_exp_iid, dr_mvn
from drmaj.order import (
    CdfComparison,
    ContractiveMap1D,
    DoublyStochastic,
    OrderVerdict,
    ProbMatrix,
    ProbVector,
    compare_cdfs,
    contractive_ordering_check,
    default_comparison_grid,
    dilation_witness,
    majorizes_cdf,
    majorizes_discrete,
    majorizes_matrix,
    schur_preservation_check,
    slice_compare,
    _slice_integrals,
)
from drmaj.rearrange import DensityFn, DrPdf, TabulatedFn


def test_discrete_verdicts():
    assert majorizes_discrete([0.5, 0.5], [1.0, 0.0]) is OrderVerdict.PRECEDES
    assert majorizes_discrete([1.0, 0.0], [0.5, 0.5]) is OrderVerdict.SUCCEEDS
    assert majorizes_discrete([0.2, 0.3, 0.5], [0.5, 0.2, 0.3]) is OrderVerdict.EQUAL
    assert (
        majorizes_discrete([0.6, 0.25, 0.15], [0.5, 0.4, 0.1])
        is OrderVerdict.INCOMPARABLE
    )
    # unequal lengths are zero-padded
    assert majorizes_discrete([0.5, 0.5], [1.0, 0.0, 0.0]) is OrderVerdict.PRECEDES


def test_extreme_points_bound_everything():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        p = rng.dirichlet(np.ones(n))
        one_hot = np.zeros(n)
        one_hot[0] = 1.0
        assert majorizes_discrete(p, one_hot) in (
            OrderVerdict.PRECEDES,
            OrderVerdict.EQUAL,
        )
        uniform = np.full(n, 1.0 / n)
        assert majorizes_discrete(uniform, p) in (
            OrderVerdict.PRECEDES,
            OrderVerdict.EQUAL,
        )


def test_prob_vector_validation():
    with pytest.raises(ValueError):
        ProbVector([0.5, 0.6])
    with pytest.raises(ValueError):
        ProbVector([-0.1, 1.1])
    with pytest.raises(ValueError):
        ProbMatrix([[0.5, 0.2], [0.1, 0.1]])


def test_matrix_majorisation_flattens():
    ind = np.full((2, 2), 0.25)
    pert = np.array([[0.3, 0.2], [0.2, 0.3]])
    assert majorizes_matrix(ind, pert) is OrderVerdict.PRECEDES
    assert majorizes_matrix(pert, ind) is OrderVerdict.SUCCEEDS
    assert majorizes_matrix(ind, ind) is OrderVerdict.EQUAL


def test_seeded_pairs_precede(subtests=None):
    rng = np.random.default_rng(2025)
    for _ in range(50):
        p, q = discrete_comparable_pair(rng)
        assert majorizes_discrete(p, q) in (OrderVerdict.PRECEDES, OrderVerdict.EQUAL)


def test_antisymmetry():
    rng = np.random.default_rng(99)
    for _ in range(40):
        p, q = discrete_comparable_pair(rng)
        both = (
            majorizes_discrete(p, q) is OrderVerdict.PRECEDES
            and majorizes_discrete(q, p) is OrderVerdict.PRECEDES
        )
        if both:
            assert np.allclose(np.sort(p), np.sort(q), atol=1e-11)
        # EQUAL must be symmetric
        if majorizes_discrete(p, q) is OrderVerdict.EQUAL:
            assert majorizes_discrete(q, p) is OrderVerdict.EQUAL


def test_transitivity_on_seeded_triples():
    rng = np.random.default_rng(314)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        q, r = discrete_comparable_pair(rng, n=n)
        p, _ = discrete_comparable_pair(rng, n=n)
        # rebuild p by transforming q so that p <= q <= r
        p = q.copy()
        for _ in range(3):
            i, j = rng.choice(n, size=2, replace=False)
            lam = rng.uniform()
            pi, pj = p[i], p[j]
            p[i] = lam * pi + (1.0 - lam) * pj
            p[j] = (1.0 - lam) * pi + lam * pj
        assert majorizes_discrete(p, r) in (OrderVerdict.PRECEDES, OrderVerdict.EQUAL)


def test_dilation_witness_soundness():
    rng = np.random.default_rng(77)
    for _ in range(60):
        p, q = discrete_comparable_pair(rng, n=int(rng.integers(2, 9)))
        w = dilation_witness(p, q)
        m = w.matrix
        assert np.all(m >= -1e-12)
        assert np.allclose(m.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)
        assert np.max(np.abs(np.asarray(p) - m @ np.asarray(q))) <= 1e-10
        assert w.n_factors <= len(p) - 1


def _dense_witness(p, q, tol=1e-13):
    # reference: each T-transform as a dense n x n factor, permutation matrices
    n = p.size
    perm_p = np.argsort(-p, kind="stable")
    perm_q = np.argsort(-q, kind="stable")
    x = p[perm_p]
    y = q[perm_q].copy()
    m = np.eye(n)
    n_factors = 0
    for _ in range(n):
        gaps = y - x
        if np.max(np.abs(gaps)) <= tol:
            break
        j = int(np.nonzero(gaps > tol)[0][-1])
        deficit = np.nonzero(gaps < -tol)[0]
        k = int(deficit[deficit > j][0])
        delta = min(y[j] - x[j], x[k] - y[k])
        lam = 1.0 - delta / (y[j] - y[k])
        t = np.eye(n)
        t[j, j] = t[k, k] = lam
        t[j, k] = t[k, j] = 1.0 - lam
        y = t @ y
        m = t @ m
        n_factors += 1
    pi_p = np.zeros((n, n))
    pi_p[np.arange(n), perm_p] = 1.0
    pi_q = np.zeros((n, n))
    pi_q[np.arange(n), perm_q] = 1.0
    return pi_p.T @ m @ pi_q, n_factors


@pytest.mark.parametrize("side", [14, 20])
def test_dilation_witness_matches_dense_construction(side):
    # a table and its circular 5-point blur, as in binned 2-d data (n = side^2)
    rng = np.random.default_rng(side)
    table = rng.gamma(0.5, size=(side, side))
    table /= table.sum()
    blur = (4.0 * table + sum(np.roll(table, s, axis=a) for s in (1, -1) for a in (0, 1))) / 8.0
    q, p = table.ravel(), blur.ravel()
    w = dilation_witness(p, q)
    ref, n_factors = _dense_witness(p, q)
    assert w.n_factors == n_factors
    np.testing.assert_allclose(w.matrix, ref, rtol=0, atol=1e-13)
    assert np.max(np.abs(p - w.matrix @ q)) <= 1e-10


def _loop_witness(p, q, tol=1e-13):
    # reference: the sweep over all n gaps per T-transform, two rows mixed by
    # fancy indexing; same (j, k, lam) rule and arithmetic as the library
    n = p.size
    perm_p = np.argsort(-p, kind="stable")
    perm_q = np.argsort(-q, kind="stable")
    x = p[perm_p]
    y = q[perm_q].copy()
    m = np.eye(n)
    n_factors = 0
    for _ in range(n):
        gaps = y - x
        if np.max(np.abs(gaps)) <= tol:
            break
        surplus = np.nonzero(gaps > tol)[0]
        deficit = np.nonzero(gaps < -tol)[0]
        j = int(surplus[-1])
        k = int(deficit[deficit > j][0])
        delta = min(y[j] - x[j], x[k] - y[k])
        lam = 1.0 - delta / (y[j] - y[k])
        rows = [j, k]
        y[rows] = lam * y[rows] + (1.0 - lam) * y[rows[::-1]]
        m[rows] = lam * m[rows] + (1.0 - lam) * m[rows[::-1]]
        n_factors += 1
    full = np.empty((n, n))
    full[perm_p[:, None], perm_q] = m
    return full, n_factors


@pytest.mark.parametrize("side", [14, 20])
def test_dilation_witness_matches_loop_on_blur_pairs(side):
    rng = np.random.default_rng(100 + side)
    table = rng.gamma(0.5, size=(side, side))
    table /= table.sum()
    blur = 0.6 * table + 0.1 * sum(np.roll(table, s, axis=a) for s in (1, -1) for a in (0, 1))
    q, p = table.ravel(), blur.ravel()
    w = dilation_witness(p, q)
    ref, n_factors = _loop_witness(p, q)
    assert w.n_factors == n_factors > 0
    assert np.array_equal(w.matrix, ref)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.integers(0, 4), min_size=1, max_size=9).filter(any),
    mix=st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(any),
    data=st.data(),
)
def test_dilation_witness_matches_loop_on_ties_and_zeros(weights, mix, data):
    # p = sum_i c_i q[perm_i]: doubly stochastic image of q; small integer
    # weights give ties, zeros, p == q and permutations of q
    q = np.asarray(weights, dtype=np.float64) / sum(weights)
    perms = [data.draw(st.permutations(range(q.size))) for _ in mix]
    p = sum(c * q[list(perm)] for c, perm in zip(mix, perms)) / sum(mix)
    w = dilation_witness(p, q)
    ref, n_factors = _loop_witness(ProbVector(p).values, ProbVector(q).values)
    assert w.n_factors == n_factors <= q.size - 1
    assert np.array_equal(w.matrix, ref)
    assert np.max(np.abs(p - w.matrix @ q)) <= 1e-12


@pytest.mark.parametrize("q", [[1.0], [0.5, 0.5], [1.0, 0.0], [0.25, 0.0, 0.75]])
def test_dilation_witness_of_a_vector_with_itself_is_the_identity(q):
    w = dilation_witness(q, q)
    assert w.n_factors == 0
    assert np.array_equal(w.matrix, np.eye(len(q)))


NAN = float("nan")


@pytest.mark.parametrize(
    "call, args",
    [
        (ProbVector, ([NAN, 0.5, 0.5],)),
        (ProbMatrix, ([[NAN, 0.5], [0.5, 0.0]],)),
        (majorizes_discrete, ([0.5, 0.5, NAN], [1.0, 0.0, 0.0])),
        (DoublyStochastic, (np.array([[NAN, 1.0], [1.0, 0.0]]),)),
        (inverse_mix_discrete, ([NAN, 0.5, 0.5], [1.0, 0.0, 0.0])),
        (direct_mix_discrete, ([0.5, 0.5, 0.0], [1.0, NAN, 0.0])),
    ],
    ids=["ProbVector", "ProbMatrix", "majorizes_discrete", "DoublyStochastic",
         "inverse_mix_discrete", "direct_mix_discrete"],
)
def test_non_finite_probabilities_are_rejected(call, args):
    with pytest.raises(ValueError, match="finite"):
        call(*args)


def test_dilation_witness_requires_order():
    with pytest.raises(ValueError, match="no dilation witness"):
        dilation_witness([0.9, 0.1], [0.6, 0.4])
    with pytest.raises(ValueError, match="no dilation witness"):
        dilation_witness([0.2, 0.3, 0.5], [0.4, 0.4, 0.2])


@pytest.mark.parametrize(
    "p, q",
    [
        ([0.5, 0.5], [0.5 - 2e-13, 0.5 - 2e-13]),
        ([0.5, 0.3, 0.2], [0.5, 0.3 + 4e-13, 0.2 - 3e-13]),
    ],
    ids=["no_surplus", "no_deficit_after_surplus"],
)
def test_dilation_witness_of_pairs_equal_within_rounding(p, q):
    # the gaps left are rounding within the majorisation check's 1e-12
    assert majorizes_discrete(p, q) is OrderVerdict.EQUAL
    w = dilation_witness(p, q)
    assert np.max(np.abs(w.matrix @ np.asarray(q) - np.asarray(p))) <= 1e-12


def test_dilation_witness_drops_a_rounding_surplus_before_a_real_step():
    # gaps +0.1, -0.1, +2e-13: the last surplus is rounding with no deficit
    # after it, yet the first one still needs a transform
    p, q = [0.4, 0.4, 0.2], [0.5, 0.3, 0.2 + 2e-13]
    assert majorizes_discrete(p, q) is OrderVerdict.PRECEDES
    w = dilation_witness(p, q)
    assert w.n_factors == 1
    assert np.max(np.abs(w.matrix @ np.asarray(q) - np.asarray(p))) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.integers(0, 4), min_size=1, max_size=9).filter(any),
    mix=st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(any),
    data=st.data(),
)
def test_dilation_witness_of_rounding_perturbed_preceding_pairs(weights, mix, data):
    # p a doubly stochastic image of q, then q perturbed at rounding level
    q = np.asarray(weights, dtype=np.float64) / sum(weights)
    perms = [data.draw(st.permutations(range(q.size))) for _ in mix]
    p = sum(c * q[list(perm)] for c, perm in zip(mix, perms)) / sum(mix)
    sizes = st.floats(1e-13, 5e-13)
    signs = st.sampled_from([-1.0, 1.0])
    q = q + np.array([data.draw(sizes) * data.draw(signs) for _ in weights])
    assume(abs(float(q.sum()) - 1.0) <= 1e-12 and abs(float(p.sum()) - 1.0) <= 1e-12)
    assume(majorizes_discrete(p, q) in (OrderVerdict.PRECEDES, OrderVerdict.EQUAL))
    w = dilation_witness(p, q)
    assert np.max(np.abs(w.matrix @ ProbVector(q).values - p)) <= 1e-11


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.integers(0, 4), min_size=1, max_size=9).filter(any),
    data=st.data(),
)
def test_dilation_witness_of_rounding_perturbed_equal_pairs(weights, data):
    p = np.asarray(weights, dtype=np.float64) / sum(weights)
    sizes = st.floats(1e-13, 5e-13)
    signs = st.sampled_from([-1.0, 1.0])
    e = np.array([data.draw(sizes) * data.draw(signs) for _ in weights])
    perm = data.draw(st.permutations(range(p.size)))
    q = (p + e)[list(perm)]
    assume(abs(float(q.sum()) - 1.0) <= 1e-12)
    assert majorizes_discrete(p, q) is OrderVerdict.EQUAL
    w = dilation_witness(p, q)
    assert np.max(np.abs(w.matrix @ ProbVector(q).values - p)) <= 1e-11


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
@pytest.mark.parametrize("route", ["slice_compare", "majorizes_discrete", "majorizes_matrix"])
def test_verdict_routes_reject_bad_tolerances(route, tol):
    # with a valid tol each of these pairs gives PRECEDES
    calls = {
        "slice_compare": lambda: slice_compare(dr_exp_iid(2)[0], dr_exp_iid(1)[0], tol=tol),
        "majorizes_discrete": lambda: majorizes_discrete([0.5, 0.3, 0.2], [0.6, 0.3, 0.1], tol=tol),
        "majorizes_matrix": lambda: majorizes_matrix(
            [[0.5, 0.3], [0.2, 0.0]], [[0.6, 0.3], [0.1, 0.0]], tol=tol
        ),
    }
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        calls[route]()


def test_doubly_stochastic_validation():
    with pytest.raises(ValueError):
        DoublyStochastic(np.array([[0.9, 0.2], [0.1, 0.8]]))
    ok = DoublyStochastic(np.array([[0.9, 0.1], [0.1, 0.9]]))
    assert ok.matrix.shape == (2, 2)


def test_schur_preservation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p, q = discrete_comparable_pair(rng)
        assert schur_preservation_check(p, q, entropy_discrete)


def test_cdf_and_slice_verdicts_agree():
    """The cdf-dominance and slice-functional routes give the same verdict."""
    rng = np.random.default_rng(1234)
    for _ in range(100):
        fa, Fa, fb, Fb = continuous_comparable_pair(rng)
        v_cdf = majorizes_cdf(Fa, Fb)
        v_slice = slice_compare(fa, fb)
        assert v_cdf == v_slice
    # a known crossing pair
    fm, Fm = dr_mvn(1)
    fe, Fe = dr_exp_iid(1)
    assert majorizes_cdf(Fm, Fe) is OrderVerdict.INCOMPARABLE
    assert slice_compare(fm, fe) is OrderVerdict.INCOMPARABLE


@pytest.mark.parametrize(
    "levels, cause",
    [([], "empty"), ([0.1, np.nan], "finite"), ([np.inf, 0.1], "finite"), ([0.1, -np.inf], "finite")],
)
def test_slice_compare_rejects_bad_level_grids(levels, cause):
    f1, _ = dr_exp_iid(1)
    f2, _ = dr_exp_iid(2)
    with pytest.raises(ValueError, match=cause):
        slice_compare(f1, f2, c_grid=np.asarray(levels, dtype=np.float64))


def _loop_slice_integrals(z, v, c_levels):
    """Reference: the per-level loop that the layer-cake sums replaced."""
    w = np.diff(z)
    v0 = v[:-1]
    v1 = v[1:]
    hi = np.maximum(v0, v1)
    lo = np.minimum(v0, v1)
    out = np.empty(c_levels.size)
    for i, c in enumerate(c_levels):
        above = lo >= c
        area = np.where(above, 0.5 * (v0 + v1) * w - c * w, 0.0)
        straddle = (~above) & (hi > c)
        if np.any(straddle):
            frac = (hi[straddle] - c) / (hi[straddle] - lo[straddle])
            area[straddle] = 0.5 * (hi[straddle] - c) * (w[straddle] * frac)
        out[i] = float(np.sum(area))
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=2, max_size=60),
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=60, max_size=60),
    st.lists(st.floats(min_value=1e-3, max_value=6.0), min_size=1, max_size=40),
)
def test_slice_integrals_match_loop(steps, widths, levels):
    # few distinct values, so equal neighbours give flat runs; levels may lie
    # above the maximum, below the minimum and in any order
    v = np.sort(0.1 * np.asarray(steps, dtype=np.float64))[::-1]
    z = np.concatenate([[0.0], np.cumsum(widths[: v.size - 1])])
    pdf = DrPdf(table=TabulatedFn(z, v, "nonincreasing"), mass_tol=None)
    c = np.asarray(levels)
    assert np.max(np.abs(_slice_integrals(pdf, c) - _loop_slice_integrals(z, v, c))) <= 1e-12


@pytest.mark.parametrize("bad, cause", [("shuffled", "strictly increasing"), ("nan", "finite")])
def test_compare_cdfs_rejects_bad_grids(bad, cause):
    _, Fm = dr_mvn(1)
    _, Fe = dr_exp_iid(1)
    pts = default_comparison_grid(Fm, Fe).points
    assert compare_cdfs(Fm, Fe, grid=pts).crossing_z == pytest.approx((6.1302,), abs=1e-4)
    if bad == "shuffled":
        grid = np.random.default_rng(0).permutation(pts)
    else:
        grid = np.full(pts.size, np.nan)
    with pytest.raises(ValueError, match=cause):
        compare_cdfs(Fm, Fe, grid=grid)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_compare_cdfs_rejects_bad_tolerances(tol):
    _, F1 = dr_exp_iid(1)
    _, F2 = dr_exp_iid(2)
    with pytest.raises(ValueError, match="tol"):
        compare_cdfs(F2, F1, tol=tol)


def test_compare_cdfs_reports_crossings():
    _, Fm = dr_mvn(1)
    _, Fe = dr_exp_iid(1)
    res = compare_cdfs(Fm, Fe)
    assert isinstance(res, CdfComparison)
    assert res.verdict is OrderVerdict.INCOMPARABLE
    assert len(res.crossing_z) >= 1
    z_star = res.crossing_z[0]
    # the gap changes sign at the reported crossing
    gap = lambda z: float(Fm(z) - Fe(z))
    assert gap(z_star - 0.5) * gap(z_star + 0.5) < 0

    _, F2 = dr_exp_iid(2)
    ordered = compare_cdfs(F2, Fe)
    assert ordered.verdict is OrderVerdict.PRECEDES
    assert ordered.crossing_z == ()
    assert ordered.max_gap > 0.1


def test_default_comparison_grid_spans_support():
    _, Fa = dr_exp_iid(1)
    _, Fb = dr_exp_iid(3)
    g = default_comparison_grid(Fa, Fb).points
    assert g[0] >= 0.0
    hi = max(Fa.effective_support(1e-8), Fb.effective_support(1e-8))
    assert g[-1] >= hi * 0.99
    assert np.all(np.diff(g) > 0)
    # the tail it spans really does hold all but ~1e-8 of the mass
    assert float(Fb(g[-1])) >= 1.0 - 1e-7


def triangle():
    return DensityFn.from_univariate(
        lambda x: np.maximum(1.0 - np.abs(x), 0.0), -1.0, 1.0
    )


def test_contractive_map_jacobian():
    m = ContractiveMap1D(lambda x: 0.5 * x + 1.0)
    assert m.jacobian(np.array([0.0, 1.0])) == pytest.approx([0.5, 0.5], abs=1e-6)
    lo, hi = m.jacobian_range(-2.0, 2.0)
    assert lo == pytest.approx(0.5, abs=1e-6)
    assert hi == pytest.approx(0.5, abs=1e-6)
    explicit = ContractiveMap1D(np.tanh, dh=lambda x: 1.0 / np.cosh(x) ** 2)
    assert explicit.jacobian(0.0) == pytest.approx(1.0)


def test_contraction_concentrates():
    assert (
        contractive_ordering_check(triangle(), lambda x: 0.8 * x)
        is OrderVerdict.PRECEDES
    )
    assert (
        contractive_ordering_check(triangle(), lambda x: x - 3.0) is OrderVerdict.EQUAL
    )


def test_contraction_rejects_expansion():
    with pytest.raises(ValueError, match="not contractive"):
        contractive_ordering_check(triangle(), lambda x: 1.3 * x)
    with pytest.raises(ValueError, match="not invertible"):
        contractive_ordering_check(triangle(), lambda x: np.zeros_like(x))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=10))
def test_self_comparison_is_equal(raw):
    p = np.asarray(raw) / np.sum(raw)
    assert majorizes_discrete(p, p) is OrderVerdict.EQUAL
    assert majorizes_discrete(p, np.roll(p, 1)) is OrderVerdict.EQUAL
