"""Acceptance gate: eleven end-to-end criteria, one verdict line each.

Every test prints ``[PASS]`` or ``[FAIL] criterion-NN <name>`` before
asserting, so a bare ``pytest tests/test_acceptance.py -s`` doubles as the
release checklist.  Criterion 4 asserts the full reference verdict table for
the five-cdf lattice, in which F4 and F5 are incomparable: F4 starts out
steeper (f4(0) = 1/2 > f5(0) = 1/e), so their cdfs cross once, at z ~ 0.2236.
"""

import time

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import lambertw

from conftest import (
    continuous_comparable_pair,
    discrete_comparable_pair,
    f4_cdf,
    f5_cdf,
    make_quintuple,
)
from drmaj.algebra import (
    convolve_dr,
    direct_mix,
    inverse_mix,
    inverse_mix_many,
    join,
    meet,
    otimes,
)
from drmaj.empirical import (
    Dataset,
    KdeModel,
    McConfig,
    empirical_dr,
    empirical_dr_cdf,
    fit_kde,
)
from drmaj.entropy import (
    SHANNON,
    BinaryJointSpec,
    EntropyKind,
    binary_joint,
    entropy_discrete,
    entropy_dr,
    epsilon_bound,
    max_entropy_epsilon,
    moments_dr,
)
from drmaj.families import dr_exp_iid, dr_exp_rate, dr_mvn
from drmaj.order import (
    ContractiveMap1D,
    OrderVerdict,
    compare_cdfs,
    contractive_ordering_check,
    default_comparison_grid,
    dilation_witness,
    majorizes_cdf,
    majorizes_discrete,
)
from drmaj.rearrange import DensityFn, cdf_of_dr, dr_from_density_1d

LOG2 = np.log(2.0)
COMPARABLE = (OrderVerdict.PRECEDES, OrderVerdict.EQUAL)


def _verdict(name, failures):
    line = f"[{'FAIL' if failures else 'PASS'}] {name}"
    if failures:
        line += " :: " + "; ".join(failures)
    print(line)
    assert not failures, line


def _check(failures, ok, msg):
    if not ok:
        failures.append(msg)


# ---------------------------------------------------------------------------


def test_criterion_01_beta_roundtrip():
    failures = []
    t0 = time.perf_counter()
    density = DensityFn.from_univariate(
        lambda x: 12.0 * x**2 * (1.0 - x), 0.0, 1.0
    )
    F = cdf_of_dr(dr_from_density_1d(density))
    z = np.linspace(0.0, 1.0, 1001)
    exact = (z / 9.0) * (np.sqrt((4.0 - 3.0 * z**2) ** 3) + 8.0)
    sup = float(np.max(np.abs(F(z) - exact)))
    elapsed = time.perf_counter() - t0
    _check(failures, sup <= 1e-3, f"sup error {sup:.2e} > 1e-3")
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    _verdict("criterion-01 beta(3,2) rearrangement round trip", failures)


def test_criterion_02_exponential_mixing_regression():
    failures = []
    f1, _ = dr_exp_iid(1)
    f2, _ = dr_exp_iid(2)
    inv = inverse_mix(f1, f2, 0.5)
    dire = direct_mix(f1, f2, 0.5)

    mean_i, var_i = moments_dr(inv)
    _check(failures, abs(mean_i - 3.5) <= 1e-4, f"inverse mean {mean_i!r}")
    _check(failures, abs(var_i - 99.0 / 4.0) <= 1e-3, f"inverse var {var_i!r}")
    sh_i = entropy_dr(inv, SHANNON)
    _check(failures, abs(sh_i - (1.5 + LOG2)) <= 1e-4, f"inverse shannon {sh_i!r}")

    mean_d, var_d = moments_dr(dire)
    _check(failures, abs(mean_d - 7.0 / 4.0) <= 1e-4, f"direct mean {mean_d!r}")
    _check(failures, abs(var_d - 99.0 / 16.0) <= 1e-3, f"direct var {var_d!r}")
    sh_d = entropy_dr(dire, SHANNON)
    _check(failures, abs(sh_d - 1.5) <= 1e-4, f"direct shannon {sh_d!r}")

    z = np.linspace(0.0, 25.0, 2501)
    gap = float(np.max(np.abs(dire(z) - 2.0 * inv(2.0 * z))))
    _check(failures, gap <= 1e-6, f"doubling identity off by {gap:.2e}")
    _verdict("criterion-02 mixing the 1d and 2d exponentials", failures)


def test_criterion_03_rate_mixing_regression():
    failures = []
    fa, _ = dr_exp_rate(1.0)
    fb, _ = dr_exp_rate(0.5)
    inv = inverse_mix(fa, fb, 0.5)
    dire = direct_mix(fa, fb, 0.5)

    from drmaj.algebra import detect_kink

    k_i = detect_kink(inv)
    k_d = detect_kink(dire)
    _check(failures, k_i is not None and abs(k_i - LOG2) <= 1e-3, f"inverse kink {k_i!r}")
    _check(
        failures, k_d is not None and abs(k_d - 0.5 * LOG2) <= 1e-3, f"direct kink {k_d!r}"
    )

    mean_i, var_i = moments_dr(inv)
    _check(failures, abs(mean_i - 2.85) <= 1e-2, f"inverse mean {mean_i!r}")
    _check(failures, abs(var_i - 8.91) <= 1e-2, f"inverse var {var_i!r}")
    mean_d, var_d = moments_dr(dire)
    _check(failures, abs(mean_d - 1.42) <= 1e-2, f"direct mean {mean_d!r}")
    _check(failures, abs(var_d - 2.23) <= 1e-2, f"direct var {var_d!r}")

    sh_i = entropy_dr(inv, SHANNON)
    sh_d = entropy_dr(dire, SHANNON)
    _check(failures, abs(sh_i - (1.0 + 1.5 * LOG2)) <= 1e-3, f"inverse shannon {sh_i!r}")
    _check(failures, abs(sh_d - (1.0 + 0.5 * LOG2)) <= 1e-3, f"direct shannon {sh_d!r}")
    _verdict("criterion-03 mixing Exp(1) and Exp(1/2)", failures)


def _violation(fa, fb):
    """Largest amount by which fa exceeds fb on the default grid."""
    g = default_comparison_grid(fa, fb).points
    return float(np.max(fa(g) - fb(g)))


def test_criterion_04_reference_lattice_verdicts():
    failures = []
    F1, F2, F3, F4, F5 = make_quintuple()

    chains = [
        ("F4<=F2", F4, F2),
        ("F2<=F1", F2, F1),
        ("F4<=F3", F4, F3),
        ("F3<=F1", F3, F1),
        ("F5<=F1", F5, F1),
    ]
    for name, lo, hi in chains:
        v = majorizes_cdf(lo, hi, tol=1e-9)
        _check(
            failures,
            v in COMPARABLE,
            f"{name} got {v.value} (violation {_violation(lo, hi):.3e})",
        )

    for name, a, b in (("F2/F3", F2, F3), ("F2/F5", F2, F5), ("F3/F5", F3, F5)):
        v = majorizes_cdf(a, b, tol=1e-9)
        _check(failures, v is OrderVerdict.INCOMPARABLE, f"{name} got {v.value}")

    # F4 and F5 cross once.  Both cdfs start at 0 with slope equal to the peak
    # DR density, and f4(0) = 1/2 > f5(0) = 1/e, so F4 lies above F5 up to
    # the root z* ~ 0.2236 of F4 - F5 and below it afterwards.  The gap and
    # the crossing are pinned against the closed forms.
    def f4_minus_f5(z):
        return float(f4_cdf(z) - f5_cdf(z))

    z_star = brentq(f4_minus_f5, 1e-3, 1.0, xtol=1e-14)
    peak = minimize_scalar(
        lambda z: -f4_minus_f5(z),
        bounds=(0.0, z_star),
        method="bounded",
        options={"xatol": 1e-12},
    )
    gap45 = -float(peak.fun)

    def check_crosses_like_f4_f5(name, lo, hi):
        v = majorizes_cdf(lo, hi, tol=1e-9)
        _check(failures, v is OrderVerdict.INCOMPARABLE, f"{name} got {v.value}")
        gap = _violation(lo, hi)
        _check(
            failures,
            abs(gap - gap45) <= 1e-6,
            f"{name} violation {gap:.6e}, closed form {gap45:.6e}",
        )

    check_crosses_like_f4_f5("F4/F5", F4, F5)
    crossing = compare_cdfs(F4, F5).crossing_z
    _check(
        failures,
        len(crossing) == 1 and abs(crossing[0] - z_star) <= 1e-3,
        f"F4/F5 crossings {crossing}, closed form {z_star:.6f}",
    )

    m45 = meet(F4, F5)
    for name, a, b in (("F2,F3", F2, F3), ("F3,F5", F3, F5), ("F2,F5", F2, F5)):
        bot, top = meet(a, b), join(a, b)
        if b is F5:
            # F4 is no lower bound of this pair, so the meet inherits the
            # F4/F5 crossing; the glb property is checked through the common
            # lower bound meet(F4, F5) instead.
            check_crosses_like_f4_f5(f"F4/meet({name})", F4, bot)
            glb_link = (f"meet(F4,F5)<=meet({name})", m45, bot)
        else:
            glb_link = (f"F4<=meet({name})", F4, bot)
        for link, lo, hi in (
            glb_link,
            (f"meet<=join({name})", bot, top),
            (f"join({name})<=F1", top, F1),
        ):
            v = majorizes_cdf(lo, hi, tol=1e-9)
            _check(
                failures,
                v in COMPARABLE,
                f"{link} got {v.value} (violation {_violation(lo, hi):.3e})",
            )

    f1, _ = dr_exp_iid(1)
    Fc = convolve_dr(f1, f1)
    z = np.linspace(0.0, 30.0, 1501)
    sup = float(np.max(np.abs(Fc(z) - f5_cdf(z))))
    _check(failures, sup <= 1e-3, f"convolution sup error {sup:.2e}")
    _verdict("criterion-04 five-cdf lattice verdict table", failures)


def test_criterion_05_dimension_chains():
    failures = []
    grid = np.linspace(1e-6, 200.0, 1000)
    for fam_name, fam in (("exp", dr_exp_iid), ("mvn", dr_mvn)):
        cdfs = [fam(n)[1] for n in range(1, 5)]
        for n, (hi, lo) in enumerate(zip(cdfs, cdfs[1:]), start=1):
            v = majorizes_cdf(lo, hi, grid=grid, tol=1e-9)
            _check(
                failures,
                v is OrderVerdict.PRECEDES,
                f"{fam_name} n={n + 1} vs n={n}: {v.value}",
            )
    _verdict("criterion-05 dimension ordering chains n=1..4", failures)


def test_criterion_06_witness_soundness():
    failures = []
    rng = np.random.default_rng(60)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        p, q = discrete_comparable_pair(rng)
        w = dilation_witness(p, q)
        worst = max(worst, float(np.max(np.abs(w.apply(q) - p))))
    elapsed = time.perf_counter() - t0
    _check(failures, worst <= 1e-10, f"residual {worst:.2e} > 1e-10")
    _check(failures, elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s")
    _verdict("criterion-06 dilation witness on 500 pairs", failures)


def test_criterion_07_entropy_order_preservation():
    failures = []
    kinds = [SHANNON] + [EntropyKind.tsallis(g) for g in (0.5, 1.0, 2.0)]
    rng = np.random.default_rng(70)
    for i in range(100):
        p, q = discrete_comparable_pair(rng)
        for kind in kinds:
            hp = entropy_discrete(p, kind)
            hq = entropy_discrete(q, kind)
            _check(
                failures,
                hp >= hq - 1e-12,
                f"discrete pair {i} {kind.label()}: {hp!r} < {hq!r}",
            )
    for i in range(100):
        fa, _, fb, _ = continuous_comparable_pair(rng)
        for kind in kinds:
            ha = entropy_dr(fa, kind)
            hb = entropy_dr(fb, kind)
            _check(
                failures,
                ha >= hb - 1e-9,
                f"continuous pair {i} {kind.label()}: {ha!r} < {hb!r}",
            )
    _verdict("criterion-07 entropies preserve the order on 200 pairs", failures)


def test_criterion_08_binary_joint_stationary_epsilon():
    failures = []
    margins = np.linspace(0.1, 0.9, 9)
    t_one = EntropyKind.tsallis(1.0)
    for a in margins:
        for b in margins:
            star_sh = max_entropy_epsilon(a, b, SHANNON)
            _check(
                failures,
                float(star_sh) == 0.0 and not star_sh.boundary,
                f"shannon eps*({a:.1f},{b:.1f}) = {star_sh!r}",
            )
            p = binary_joint(BinaryJointSpec(a, b)).values
            dh0 = abs(np.log((p[0, 1] * p[1, 0]) / (p[0, 0] * p[1, 1])))
            _check(failures, dh0 <= 1e-10, f"|H'(0)|({a:.1f},{b:.1f}) = {dh0:.2e}")

            bound = epsilon_bound(a, b)
            eps = np.linspace(-bound, bound, 100001)[1:-1]
            p00 = a * b + eps
            p01 = a * (1.0 - b) - eps
            p10 = (1.0 - a) * b - eps
            p11 = (1.0 - a) * (1.0 - b) + eps

            h_sh = -(
                p00 * np.log(p00)
                + p01 * np.log(p01)
                + p10 * np.log(p10)
                + p11 * np.log(p11)
            )
            h0 = -float(np.sum(p.ravel() * np.log(p.ravel())))
            _check(
                failures,
                float(h_sh.max()) <= h0 + 1e-8
                and abs(eps[int(np.argmax(h_sh))]) <= 1e-4,
                f"shannon scan peak off 0 at ({a:.1f},{b:.1f})",
            )

            star = max_entropy_epsilon(a, b, t_one)
            formula = -0.25 * (2.0 * b - 1.0) * (2.0 * a - 1.0)
            if abs(formula) < bound:
                _check(
                    failures,
                    abs(float(star) - formula) <= 1e-12 and not star.boundary,
                    f"tsallis eps*({a:.1f},{b:.1f}) = {float(star)!r} vs {formula!r}",
                )
            h_t1 = 1.0 - (p00**2 + p01**2 + p10**2 + p11**2)
            best = float(eps[int(np.argmax(h_t1))])
            _check(
                failures,
                abs(float(star) - best) <= 1e-4,
                f"tsallis scan ({a:.1f},{b:.1f}): {float(star)!r} vs {best!r}",
            )
    _verdict("criterion-08 binary joint entropy stationary point", failures)


def test_criterion_09_empirical_pipeline():
    failures = []

    def sup_err(dr):
        cdf = empirical_dr_cdf(dr, np.linspace(0.0, 40.0, 4001))
        zz = np.linspace(0.0, 35.0, 1401)
        return float(np.max(np.abs(cdf(zz) - (1.0 - np.exp(-zz / (2.0 * np.pi))))))

    t0 = time.perf_counter()
    exact = KdeModel(np.zeros((1, 2)), np.ones(2))
    cfg = McConfig(
        n_points=100_000,
        n_thresholds=5000,
        bounding_box=np.array([[-5.0, 5.0], [-5.0, 5.0]]),
        seed=20260401,
    )
    _, dr = empirical_dr(exact, cfg)
    err_exact = sup_err(dr)

    rng = np.random.default_rng(42)
    sample = Dataset(rng.standard_normal((200, 2)))
    kde = fit_kde(sample, "silverman")
    cfg2 = McConfig(
        n_points=100_000,
        n_thresholds=2000,
        bounding_box=np.array([[-6.0, 6.0], [-6.0, 6.0]]),
        seed=5,
    )
    _, dr2 = empirical_dr(kde, cfg2)
    err_fit = sup_err(dr2)
    elapsed = time.perf_counter() - t0

    _check(failures, err_exact <= 0.02, f"exact-density run sup {err_exact:.4f} > 0.02")
    _check(failures, err_fit <= 0.05, f"fitted-kde run sup {err_fit:.4f} > 0.05")
    _check(failures, elapsed < 30.0, f"runtime {elapsed:.1f}s >= 30s")

    # three synthetic scenarios: bracket the crossing pair by meet/join, then
    # pool all three with weighted inverse mixing
    fA, FA = dr_exp_iid(1)
    fB, FB = dr_mvn(1)
    fC, FC = dr_exp_iid(2)
    res = compare_cdfs(FA, FB)
    _check(
        failures,
        res.verdict is OrderVerdict.INCOMPARABLE
        and len(res.crossing_z) == 1
        and abs(res.crossing_z[0] - 6.130174239086876) <= 1e-6,
        f"scenario crossing: {res!r}",
    )
    bot, top = meet(FA, FB), join(FA, FB)
    for name, lo, hi in (
        ("meet<=A", bot, FA),
        ("meet<=B", bot, FB),
        ("A<=join", FA, top),
        ("B<=join", FB, top),
    ):
        v = majorizes_cdf(lo, hi)
        _check(failures, v is OrderVerdict.PRECEDES, f"{name} got {v.value}")

    weights = np.array([0.5, 0.3, 0.2])
    pool = inverse_mix_many([fA, fB, fC], weights)
    mass = float(np.trapezoid(pool.table.values, pool.table.grid))
    _check(failures, abs(mass - 1.0) <= 1e-4, f"pooled mass {mass!r}")
    h_pool = entropy_dr(pool, SHANNON)
    parts = [entropy_dr(f, SHANNON) for f in (fA, fB, fC)]
    ident = float(weights @ parts - np.sum(weights * np.log(weights)))
    _check(
        failures,
        abs(h_pool - ident) <= 1e-3,
        f"pooled entropy {h_pool!r} vs identity {ident!r}",
    )
    _verdict("criterion-09 empirical pipeline and scenario demo", failures)


def test_criterion_10_distributivity_over_comparable_joins():
    failures = []
    F1, F2, F3, F4, F5 = make_quintuple()
    z = np.linspace(0.0, 120.0, 1201)

    comparable_pairs = [
        ("F2,F1", F2, F1),
        ("F3,F1", F3, F1),
        ("F4,F1", F4, F1),
        ("F5,F1", F5, F1),
        ("F4,F2", F4, F2),
        ("F4,F3", F4, F3),
    ]
    refs = {"F1": F1, "F2": F2, "F3": F3, "F4": F4, "F5": F5}
    for a_name, A in refs.items():
        for pair_name, X, Y in comparable_pairs:
            lhs = otimes(A, join(X, Y))
            rhs = join(otimes(A, X), otimes(A, Y))
            gap = float(np.max(np.abs(lhs(z) - rhs(z))))
            _check(
                failures,
                gap <= 1e-6,
                f"{a_name}*join({pair_name}) gap {gap:.2e}",
            )

    rng = np.random.default_rng(100)
    for i in range(50):
        kind = i % 3
        if kind == 0:
            _, A = dr_exp_rate(float(rng.uniform(0.5, 2.0)))
        elif kind == 1:
            _, A = dr_exp_iid(int(rng.integers(1, 4)))
        else:
            _, A = dr_mvn(int(rng.integers(1, 3)), float(rng.uniform(0.5, 2.0)))
        _, X, _, Y = continuous_comparable_pair(rng)
        # wide value ranges (mvn n=3 vs n=1) need the finer inversion grid
        lhs = otimes(A, join(X, Y), n_grid=65536)
        rhs = join(otimes(A, X, n_grid=65536), otimes(A, Y, n_grid=65536))
        gap = float(np.max(np.abs(lhs(z) - rhs(z))))
        _check(failures, gap <= 1e-6, f"seeded triple {i} gap {gap:.2e}")
    _verdict("criterion-10 product distributes over comparable joins", failures)


def test_criterion_11_contractive_maps():
    failures = []
    rng = np.random.default_rng(110)
    for i in range(20):
        centers = rng.uniform(-1.5, 1.5, size=3)
        widths = rng.uniform(0.25, 0.8, size=3)
        mix_w = rng.dirichlet(np.ones(3))

        def raw(x, c=centers, s=widths, w=mix_w):
            x = np.asarray(x, dtype=np.float64)[..., None]
            b = np.exp(-0.5 * ((x - c) / s) ** 2) / (s * np.sqrt(2.0 * np.pi))
            return b @ w

        gz = np.linspace(-6.0, 6.0, 8001)
        norm = float(np.trapezoid(raw(gz), gz))
        density = DensityFn.from_univariate(lambda x: raw(x) / norm, -6.0, 6.0)

        style = i % 3
        if style == 0:
            a = float(rng.uniform(0.4, 0.95)) * float(rng.choice([-1.0, 1.0]))
            b = float(rng.uniform(-1.0, 1.0))
            h = ContractiveMap1D(lambda x, a=a, b=b: a * x + b,
                                 lambda x, a=a: np.full_like(x, a))
        elif style == 1:
            b = float(rng.uniform(-2.0, 2.0))  # rigid motion, order-neutral
            h = ContractiveMap1D(lambda x, b=b: x + b,
                                 lambda x: np.ones_like(x))
        else:
            a = float(rng.uniform(0.3, 0.8))
            L = float(rng.uniform(1.0, 3.0))
            h = ContractiveMap1D(
                lambda x, a=a, L=L: a * x + (1.0 - a) * L * np.tanh(x / L),
                lambda x, a=a, L=L: a + (1.0 - a) / np.cosh(x / L) ** 2,
            )
        v = contractive_ordering_check(density, h)
        _check(failures, v in COMPARABLE, f"pair {i} style {style}: {v.value}")
    _verdict("criterion-11 contractions never spread the order", failures)
