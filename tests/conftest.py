"""Shared fixtures: exact reference distributions and seeded pair generators."""

import numpy as np
import pytest
from scipy.special import lambertw

from drmaj.algebra import direct_mix, inverse_mix
from drmaj.families import dr_exp_iid, dr_exp_rate, dr_mvn
from drmaj.rearrange import DrCdf, DrPdf, Measure


# ---------------------------------------------------------------------------
# exact closed forms for the five-cdf lattice reference set
#
#   F1: unit exponential in 1d            F1(z) = 1 - exp(-z)
#   F2: iid unit exponentials in 2d       F2(z) = 1 - (1+sqrt(2z)) exp(-sqrt(2z))
#   F3: F1 (x) F1, i.e. F1(z/2)           F3(z) = 1 - exp(-z/2)
#   F4: F2 (x) F2, i.e. F2(z/2)           F4(z) = 1 - (1+sqrt(z)) exp(-sqrt(z))
#   F5: DR of the sum of two unit exponentials (Gamma(2,1) density x exp(-x),
#       rearranged).  The superlevel measure of v is the gap between the two
#       real branches of Lambert W at -v.
#
#   Order: F4 <= F2 <= F1, F4 <= F3 <= F1, F5 <= F1; F2, F3, F5 are pairwise
#   incomparable, and so are F4 and F5.  Each cdf starts at 0 with slope equal
#   to its peak DR density, and f4(0) = 1/2 > f5(0) = 1/e, so F4 lies above F5
#   near the origin; the two cross once, at z ~ 0.2236.
# ---------------------------------------------------------------------------


def f4_pdf(z):
    z = np.asarray(z, dtype=np.float64)
    return 0.5 * np.exp(-np.sqrt(np.maximum(z, 0.0)))


def f4_measure(v):
    v = np.asarray(v, dtype=np.float64)
    arg = np.clip(2.0 * v, 1e-300, 1.0)
    return np.log(arg) ** 2


def f4_cdf(z):
    z = np.asarray(z, dtype=np.float64)
    r = np.sqrt(np.maximum(z, 0.0))
    return 1.0 - (1.0 + r) * np.exp(-r)


def f4_cdf_inverse(p):
    # (1+r) e^{-(1+r)} = (1-p)/e  =>  1+r = -W_{-1}(-(1-p)/e)
    p = np.asarray(p, dtype=np.float64)
    q = np.clip(1.0 - p, 1e-300, 1.0)
    r = -np.real(lambertw(-q / np.e, -1)) - 1.0
    return np.maximum(r, 0.0) ** 2


def _f5_w(z):
    # w = z / expm1(z) and its derivative, written in exp(-z) so that large
    # z underflows to 0 instead of overflowing
    e = np.exp(-z)
    d = -np.expm1(-z)
    return z * e / d, (d - z) * e / d**2


def f5_cdf(z):
    z = np.asarray(z, dtype=np.float64)
    w = np.where(z > 0, _f5_w(np.where(z > 0, z, 1.0))[0], 1.0)
    return np.exp(-w) - np.exp(-z - w)


def f5_pdf(z):
    z = np.asarray(z, dtype=np.float64)
    zs = np.where(z > 0, z, 1e-12)
    w, wp = _f5_w(zs)
    out = -wp * np.exp(-w) + (1.0 + wp) * np.exp(-zs - w)
    return np.where(z > 0, out, np.exp(-1.0))


def f5_measure(v):
    vc = np.clip(v, 1e-300, np.exp(-1.0))
    lo = np.real(lambertw(-vc, 0))
    hi = np.real(lambertw(-vc, -1))
    return np.where(np.asarray(v) >= np.exp(-1.0), 0.0, lo - hi)


def make_quintuple():
    _, F1 = dr_exp_iid(1)
    _, F2 = dr_exp_iid(2)
    _, F3 = dr_exp_rate(0.5)
    z4 = float(f4_cdf_inverse(1.0 - 1e-9))
    m4 = Measure(f4_measure, 0.5)
    pdf4 = DrPdf(fn=f4_pdf, z_max=np.inf, measure=m4, probe_hi=z4, name="f4")
    F4 = DrCdf(fn=f4_cdf, pdf=pdf4, inverse=f4_cdf_inverse, z_hi=z4, name="F4")
    m5 = Measure(f5_measure, np.exp(-1.0))
    pdf5 = DrPdf(fn=f5_pdf, z_max=np.inf, measure=m5, probe_hi=45.0, name="f5")
    F5 = DrCdf(fn=f5_cdf, pdf=pdf5, z_hi=45.0, name="F5")
    return F1, F2, F3, F4, F5


@pytest.fixture(scope="session")
def quintuple():
    return make_quintuple()


# ---------------------------------------------------------------------------
# seeded comparable pairs
# ---------------------------------------------------------------------------


def discrete_comparable_pair(rng, n=None, n_transforms=None):
    """Draw (p, q) with p majorised by q.

    q is a Dirichlet draw; p is obtained from q by a product of random
    T-transforms, each of which averages two coordinates and therefore
    moves strictly down (or stays level) in the majorisation order.
    """
    if n is None:
        n = int(rng.integers(2, 9))
    q = rng.dirichlet(np.full(n, rng.uniform(0.3, 3.0)))
    p = q.copy()
    k = int(rng.integers(1, 6)) if n_transforms is None else n_transforms
    for _ in range(k):
        i, j = rng.choice(n, size=2, replace=False)
        lam = rng.uniform()
        pi, pj = p[i], p[j]
        p[i] = lam * pi + (1.0 - lam) * pj
        p[j] = (1.0 - lam) * pi + lam * pj
    return p, q


def continuous_comparable_pair(rng):
    """Draw (pdf_a, cdf_a, pdf_b, cdf_b) with a majorised by b.

    Rotates through constructions whose order is known in closed form:
    higher dimension spreads the DR (precedes), larger variance spreads it,
    smaller rate spreads it, and the half-weight inverse mix of any two DRs
    is a 2-dilation of the direct mix (so it precedes).
    """
    kind = int(rng.integers(0, 4))
    if kind == 0:
        na = int(rng.integers(2, 5))
        nb = int(rng.integers(1, na))
        fa, Fa = dr_exp_iid(na)
        fb, Fb = dr_exp_iid(nb)
    elif kind == 1:
        na = int(rng.integers(2, 4))
        nb = int(rng.integers(1, na))
        var = float(rng.uniform(0.5, 2.0))
        fa, Fa = dr_mvn(na, var)
        fb, Fb = dr_mvn(nb, var)
    elif kind == 2:
        tb = float(rng.uniform(0.8, 2.5))
        ta = tb * float(rng.uniform(0.3, 0.95))
        fa, Fa = dr_exp_rate(ta)
        fb, Fb = dr_exp_rate(tb)
    else:
        f1, _ = dr_exp_rate(float(rng.uniform(0.6, 1.6)))
        f2, _ = dr_exp_iid(int(rng.integers(1, 3)))
        fa = inverse_mix(f1, f2, 0.5)
        fb = direct_mix(f1, f2, 0.5)
        from drmaj.rearrange import cdf_of_dr

        Fa = cdf_of_dr(fa)
        Fb = cdf_of_dr(fb)
    return fa, Fa, fb, Fb
