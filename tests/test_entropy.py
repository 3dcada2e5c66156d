"""Entropy gauges, DR entropies and moments, binary joint stationary points."""

import copy

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betaln, lambertw, psi

from conftest import discrete_comparable_pair
from drmaj.algebra import eval_expr
from drmaj.entropy import (
    SHANNON,
    _level_quad,
    BinaryJointSpec,
    EntropyKind,
    StationaryEpsilon,
    binary_joint,
    entropy_discrete,
    entropy_dr,
    epsilon_bound,
    max_entropy_epsilon,
    moments_dr,
)
from drmaj.families import dr_beta32, dr_exp_iid, dr_exp_rate, dr_mvn
from drmaj.order import OrderVerdict, _slice_integrals, majorizes_discrete
from drmaj.rearrange import DrPdf, Measure, TabulatedFn


def test_entropy_kind_parsing():
    assert EntropyKind("shannon") == SHANNON
    k = EntropyKind.tsallis(0.5)
    assert k.gamma == 0.5
    assert k.label() == "tsallis:0.5"
    assert EntropyKind.tsallis(2).gamma == 2.0
    for bad in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite gamma > 0"):
            EntropyKind.tsallis(bad)
    with pytest.raises(ValueError, match="unknown entropy kind"):
        EntropyKind("renyi")
    with pytest.raises(ValueError, match="finite gamma > 0"):
        EntropyKind("tsallis")
    with pytest.raises(ValueError, match="gamma applies to tsallis"):
        EntropyKind("shannon", gamma=1.0)


def test_discrete_entropy_values():
    assert entropy_discrete([0.5, 0.5]) == pytest.approx(np.log(2.0))
    assert entropy_discrete([1.0, 0.0]) == 0.0
    assert entropy_discrete(np.full(4, 0.25), EntropyKind.tsallis(1.0)) == pytest.approx(0.75)
    # gamma -> 0 recovers the Shannon gauge
    p = np.array([0.7, 0.2, 0.1])
    assert entropy_discrete(p, EntropyKind.tsallis(1e-9)) == pytest.approx(
        entropy_discrete(p), abs=1e-6
    )
    with pytest.raises(ValueError):
        entropy_discrete([0.5, 0.6])
    with pytest.raises(ValueError):
        entropy_discrete([1.2, -0.2])


def test_exp_dr_entropies():
    f, _ = dr_exp_iid(1)
    assert entropy_dr(f) == pytest.approx(1.0, abs=1e-9)
    for gamma in (0.5, 1.0, 2.0):
        got = entropy_dr(f, EntropyKind.tsallis(gamma))
        assert got == pytest.approx(1.0 / (1.0 + gamma), abs=1e-9)


def test_normal_dr_entropy_matches_differential_entropy():
    # rearrangement preserves the entropy integral of the original density
    for n in (1, 2, 3):
        f, _ = dr_mvn(n)
        want = 0.5 * n * np.log(2.0 * np.pi * np.e)
        assert entropy_dr(f) == pytest.approx(want, abs=1e-8)


def test_beta32_entropy_against_digamma_formula():
    a, b = 3.0, 2.0
    want = (
        betaln(a, b)
        - (a - 1.0) * (psi(a) - psi(a + b))
        - (b - 1.0) * (psi(b) - psi(a + b))
    )
    f, _ = dr_beta32()
    assert entropy_dr(f) == pytest.approx(want, abs=1e-6)


def test_dr_moments():
    f1, _ = dr_exp_iid(1)
    assert moments_dr(f1) == pytest.approx((1.0, 1.0), abs=1e-9)
    f2, _ = dr_exp_iid(2)
    mean, var = moments_dr(f2)
    assert mean == pytest.approx(3.0, abs=1e-8)
    assert var == pytest.approx(21.0, abs=1e-7)
    fr, _ = dr_exp_rate(0.5)
    assert moments_dr(fr) == pytest.approx((2.0, 4.0), abs=1e-8)


def test_direct_mix_of_normals_entropy():
    # H(dmix(a, b, 1/2)) = H(mix(a, b, 1/2)) - log 2 = (H_a + H_b) / 2; the
    # narrower normal's measure enters at a square-root kink
    rng = np.random.default_rng(31)
    for _ in range(4):
        va, vb = (float(f"{v:.4g}") for v in rng.uniform(0.3, 4.0, size=2))
        f = eval_expr(f"dmix(mvn:n=1,var={va}, mvn:n=1,var={vb})").pdf
        want = 0.25 * (np.log(2.0 * np.pi * np.e * va) + np.log(2.0 * np.pi * np.e * vb))
        assert entropy_dr(f) == pytest.approx(want, abs=1e-8)


def test_moments_share_one_level_quadrature():
    f = eval_expr("mix(exp:n=1, exp:n=2, alpha=0.3)").pdf
    mean, var = moments_dr(f)
    first = _level_quad(f, lambda u: 0.5 * f.measure_at(u)[:, None] ** 2, "mean")[0]
    second = _level_quad(f, lambda u: f.measure_at(u)[:, None] ** 3 / 3.0, "second")[0]
    assert mean == pytest.approx(first, rel=1e-12)
    assert var + mean**2 == pytest.approx(second, rel=1e-12)


def _counting(f):
    # f with a measure that records the number of levels of each evaluation
    sizes = []
    m = f.measure

    def fn(v):
        sizes.append(v.size)
        return m.fn(v)

    g = copy.copy(f)
    g.measure = Measure(fn, m.vmax, m.breaks, m.jumps, m.exact)
    return g, sizes


def _slices_at_512(f):
    return _slice_integrals(f, np.geomspace(f.max_value * (1.0 - 1e-9), f.max_value * 1e-8, 512))


@pytest.mark.parametrize("functional", [entropy_dr, moments_dr, _slices_at_512])
@pytest.mark.parametrize("expr", ["mvn:n=1", "dmix(mvn:n=1,var=0.7, mvn:n=1,var=2)"])
def test_square_root_starts_take_one_panel_pass(expr, functional):
    # a smooth 1-d mode starts its measure like sqrt(t), at t = 0 and where
    # the wider normal enters; the segments from there are integrated in
    # s = sqrt(t - o), so the first panels already meet the tolerance
    f, sizes = _counting(eval_expr(expr).pdf)
    functional(f)
    assert len(sizes) == 2  # one pass over the panels, then the two-point tail probe


@pytest.mark.parametrize("gamma", [0.5, 2.0])
@pytest.mark.parametrize("var", [0.3, 2.0])
def test_tsallis_entropy_of_a_normal(gamma, var):
    # int f (1 - f^gamma) / gamma, with int f^(1 + gamma) = (2 pi var)^(-gamma/2) (1 + gamma)^(-1/2)
    f, _ = dr_mvn(1, var)
    want = (1.0 - (2.0 * np.pi * var) ** (-gamma / 2.0) / np.sqrt(1.0 + gamma)) / gamma
    assert entropy_dr(f, EntropyKind.tsallis(gamma)) == pytest.approx(want, abs=1e-10)


def test_tabulated_path_agrees_with_exact_measure():
    f, _ = dr_exp_rate(0.8)
    tab = DrPdf(table=f.tabulated(8193), mass_tol=1e-4)
    assert entropy_dr(tab) == pytest.approx(entropy_dr(f), abs=1e-4)
    m_tab = moments_dr(tab)
    m_exact = moments_dr(f)
    assert m_tab[0] == pytest.approx(m_exact[0], abs=1e-4)
    assert m_tab[1] == pytest.approx(m_exact[1], abs=1e-3)


def _gamma_exp_mix_measure(u):
    # mix(conv(exp:n=1, exp:n=1), exp:n=1): the convolution is the Gamma(2)
    # density z e^-z, whose superlevel set {z e^-z >= v} ends on the two real
    # branches of Lambert W; the half-weight inverse mix adds both measures at 2u
    v = 2.0 * u
    out = -np.log(v) if v < 1.0 else 0.0
    if v < np.exp(-1.0):
        out += (lambertw(-v, 0) - lambertw(-v, -1)).real
    return out


@pytest.mark.parametrize("op, scale", [("mix", 1.0), ("otimes", 1.0), ("dmix", 0.5)])
def test_mix_with_convolution_operand(op, scale):
    # the mixed measure interpolates the convolution's table, so the result is
    # a table too; its functionals match the Lambert W reference to the
    # accuracy of that table.  dmix(a, b, 1/2) is mix(a, b, 1/2) scaled by 1/2.
    f = eval_expr(f"{op}(conv(exp:n=1, exp:n=1), exp:n=1)").pdf
    assert not f.measure.exact
    m = _gamma_exp_mix_measure
    kw = dict(points=[0.5 / np.e], limit=200, epsrel=1e-12)
    h = quad(lambda u: m(u) * (-np.log(u) - 1.0), 0.0, 0.5, **kw)[0]
    first = quad(lambda u: 0.5 * m(u) ** 2, 0.0, 0.5, **kw)[0]
    second = quad(lambda u: m(u) ** 3 / 3.0, 0.0, 0.5, **kw)[0]
    assert entropy_dr(f) == pytest.approx(h + np.log(scale), rel=1e-5)
    mean, var = moments_dr(f)
    assert mean == pytest.approx(scale * first, rel=1e-5)
    assert var == pytest.approx(scale**2 * (second - first**2), rel=1e-4)


@pytest.mark.parametrize(
    "table, expr",
    [
        ("pdf", "mix(LEAF, exp:n=1)"),
        ("pdf", "dmix(LEAF, exp:n=1, alpha=0.3)"),
        ("pdf", "otimes(LEAF, exp:n=1)"),
        ("cdf", "mix(LEAF, exp:n=1)"),
        ("cdf", "dmix(LEAF, exp:n=1, alpha=0.3)"),
        ("cdf", "otimes(LEAF, exp:n=1)"),
        ("cdf", "pow(LEAF, 2)"),
        ("cdf", "pow(LEAF, 3)"),
    ],
)
def test_mix_with_file_leaf(tmp_path, table, expr):
    # a leaf read from a table of mvn:n=1 against the closed form itself; a
    # cdf leaf's pdf is the step pdf of its slopes
    pdf, cdf = dr_mvn(1)
    path = tmp_path / "leaf.json"
    (pdf if table == "pdf" else cdf).tabulated(8193).to_json(path)
    f = eval_expr(expr.replace("LEAF", str(path))).pdf
    ref = eval_expr(expr.replace("LEAF", "mvn:n=1")).pdf
    assert entropy_dr(f) == pytest.approx(entropy_dr(ref), rel=1e-5)
    mean, var = moments_dr(f)
    ref_mean, ref_var = moments_dr(ref)
    assert mean == pytest.approx(ref_mean, rel=1e-5)
    assert var == pytest.approx(ref_var, rel=1e-4)


def test_inverse_mix_with_beta32_entropy():
    # beta32 has no closed-form measure; H of an inverse mix is the weighted
    # sum of the operands' entropies plus the binary entropy of the weight
    a = 0.7
    want = (
        (1.0 - a) * entropy_dr(dr_beta32()[0])
        + a * entropy_dr(dr_exp_rate(3.0)[0])
        - (1.0 - a) * np.log(1.0 - a)
        - a * np.log(a)
    )
    f = eval_expr(f"mix(beta32, exprate:theta=3, alpha={a})").pdf
    assert entropy_dr(f) == pytest.approx(want, rel=1e-5)


def test_undecayed_tail_is_rejected():
    # half-Cauchy: the mean diverges, though the entropy is finite (log 2pi)
    def half_cauchy(z):
        return 2.0 / (np.pi * (1.0 + np.asarray(z) ** 2))

    def inv(v):
        v = np.clip(np.asarray(v, dtype=np.float64), 1e-300, 2.0 / np.pi)
        return np.sqrt(np.maximum(2.0 / (np.pi * v) - 1.0, 0.0))

    m = Measure(inv, 2.0 / np.pi)
    f = DrPdf(fn=half_cauchy, z_max=np.inf, measure=m, z_hi=1e6, mass_tol=None)
    with pytest.raises(ValueError, match="tail not decaying"):
        moments_dr(f)
    assert entropy_dr(f) == pytest.approx(np.log(2.0 * np.pi), abs=1e-8)

    z = np.linspace(0.0, 3.0, 512)
    tab = DrPdf(
        table=TabulatedFn(z, half_cauchy(z), "nonincreasing"), mass_tol=None
    )
    with pytest.raises(ValueError, match="tail has not decayed"):
        entropy_dr(tab)


def _h_mvn2(var):
    return np.log(2.0 * np.pi * np.e * var)


def _h_mix(a, h1, h2):
    # inverse mix with weight a on the second operand: weighted entropies
    # plus the binary entropy of the weight
    return (1.0 - a) * h1 + a * h2 - (1.0 - a) * np.log(1.0 - a) - a * np.log(a)


@pytest.mark.parametrize(
    "expr, want",
    [
        (
            "mix(mvn:n=2,var=0.9904, mvn:n=2,var=3.886, alpha=0.6349)",
            _h_mix(0.6349, _h_mvn2(0.9904), _h_mvn2(3.886)),
        ),
        (
            "otimes(mvn:n=2,var=0.673, mvn:n=2,var=2.034)",
            _h_mix(0.5, _h_mvn2(0.673), _h_mvn2(2.034)),
        ),
        (
            "pow(mix(exp:n=1, exp:n=2, alpha=0.7039), 1.622)",
            _h_mix(0.7039, 1.0, 2.0) + np.log(1.622),
        ),
        (
            "mix(mix(mvn:n=2, mvn:n=2,var=3), exprate:theta=0.4, alpha=0.6)",
            _h_mix(0.6, _h_mix(0.5, _h_mvn2(1.0), _h_mvn2(3.0)), 1.0 - np.log(0.4)),
        ),
    ],
    ids=["mix", "otimes", "pow", "nested"],
)
def test_entropy_at_kinks_meets_closed_form(expr, want):
    # the panel edges sit on the levels where a component's measure enters,
    # the operands' own kinks included, so no kink is left inside a panel
    assert entropy_dr(eval_expr(expr).pdf) == pytest.approx(want, abs=1e-10)


def test_panel_budget_is_named():
    # the crossing meet's tabulated slopes give a staircase measure whose
    # hundreds of jumps exhaust the panels; its tail decays
    f = eval_expr("otimes(meet(mvn:n=1, exp:n=1), exp:n=1)").pdf
    with pytest.raises(ValueError, match="did not converge: more than 2000 panels"):
        entropy_dr(f)


def test_binary_joint_layout_and_margins():
    t = binary_joint(BinaryJointSpec(0.4, 0.3, 0.05))
    assert np.allclose(t.values, [[0.12 + 0.05, 0.28 - 0.05], [0.18 - 0.05, 0.42 + 0.05]])
    rng = np.random.default_rng(8)
    for _ in range(25):
        alpha, beta = rng.uniform(0.05, 0.95, size=2)
        bound = epsilon_bound(alpha, beta)
        eps = rng.uniform(-bound, bound)
        tab = binary_joint(BinaryJointSpec(alpha, beta, eps)).values
        assert np.allclose(tab.sum(axis=1), [alpha, 1.0 - alpha], atol=1e-12)
        assert np.allclose(tab.sum(axis=0), [beta, 1.0 - beta], atol=1e-12)
        assert np.all(tab >= 0.0)


def test_binary_joint_bound():
    assert epsilon_bound(0.5, 0.5) == pytest.approx(0.25)
    with pytest.raises(ValueError, match="epsilon"):
        binary_joint(BinaryJointSpec(0.5, 0.5, 0.3))
    with pytest.raises(ValueError):
        BinaryJointSpec(0.0, 0.5, 0.0)


def test_shannon_stationary_at_independence():
    for alpha in (0.1, 0.35, 0.5, 0.8):
        for beta in (0.2, 0.5, 0.65):
            star = max_entropy_epsilon(alpha, beta, SHANNON)
            assert star == 0.0
            assert not star.boundary


def test_tsallis_gamma1_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(20):
        alpha, beta = rng.uniform(0.15, 0.85, size=2)
        want = -0.25 * (2.0 * beta - 1.0) * (2.0 * alpha - 1.0)
        if abs(want) >= epsilon_bound(alpha, beta):
            continue
        star = max_entropy_epsilon(alpha, beta, EntropyKind.tsallis(1.0))
        assert star == pytest.approx(want, abs=1e-12)
        assert not star.boundary


def test_stationary_point_clamps_to_boundary():
    star = max_entropy_epsilon(0.9, 0.9, EntropyKind.tsallis(1.0))
    assert isinstance(star, StationaryEpsilon)
    assert star.boundary
    assert star == pytest.approx(-epsilon_bound(0.9, 0.9), abs=1e-12)


@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_stationary_point_matches_brute_scan(gamma):
    kind = EntropyKind.tsallis(gamma)
    rng = np.random.default_rng(23)
    for _ in range(10):
        alpha, beta = rng.uniform(0.2, 0.8, size=2)
        bound = epsilon_bound(alpha, beta)
        star = max_entropy_epsilon(alpha, beta, kind)
        eps = np.linspace(-bound * (1 - 1e-9), bound * (1 - 1e-9), 20001)
        vals = [
            entropy_discrete(binary_joint(BinaryJointSpec(alpha, beta, e)), kind)
            for e in eps
        ]
        best = float(eps[int(np.argmax(vals))])
        assert star == pytest.approx(best, abs=1e-3)
        here = entropy_discrete(binary_joint(BinaryJointSpec(alpha, beta, float(star))), kind)
        assert here >= max(vals) - 1e-10


def test_entropies_respect_majorisation():
    rng = np.random.default_rng(404)
    kinds = [SHANNON] + [EntropyKind.tsallis(g) for g in (0.5, 1.0, 2.0)]
    for _ in range(40):
        p, q = discrete_comparable_pair(rng)
        assert majorizes_discrete(p, q) in (OrderVerdict.PRECEDES, OrderVerdict.EQUAL)
        for kind in kinds:
            assert entropy_discrete(p, kind) >= entropy_discrete(q, kind) - 1e-12
