"""Reference values computed from closed forms, without calling drmaj.

Rearrangement preserves entropy, so a family's DR has the entropy of the
family itself.  Mixing, dilation and the sum of two DR variables then give
the identities the workloads check against.

Every function here that computes a reference runs under ``own_time``, which
adds its time to ``OWN_S``: the benchmark's own time, which run.py takes out
of ``setup_s`` (the checks run under it too).
"""

import contextlib
import functools
import math
import time

import numpy as np
from scipy import integrate, optimize, special, stats

EULER_GAMMA = float(np.euler_gamma)

#: seconds spent in reference computations and checks so far
OWN_S = 0.0
_depth = 0


@contextlib.contextmanager
def own_time():
    """Count the enclosed time as the benchmark's own (outermost level only)."""
    global OWN_S, _depth
    _depth += 1
    t0 = time.perf_counter()
    try:
        yield
    finally:
        _depth -= 1
        if _depth == 0:
            OWN_S += time.perf_counter() - t0


def _own(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with own_time():
            return fn(*args, **kwargs)

    return wrapper


@_own
def h_binary(alpha):
    """Entropy of the two-point law (alpha, 1 - alpha)."""
    return -alpha * math.log(alpha) - (1.0 - alpha) * math.log(1.0 - alpha)


@_own
def family_entropy(kind, **p):
    """Shannon entropy of the named family (and so of its DR)."""
    if kind == "exp":  # n iid unit exponentials
        return float(p["n"])
    if kind == "mvn":  # N(0, var I_n)
        return 0.5 * p["n"] * math.log(2.0 * math.pi * math.e * p["var"])
    if kind == "exprate":
        return 1.0 - math.log(p["theta"])
    raise ValueError(kind)


def _normal_pdf(x, loc, scale):
    u = (np.asarray(x, dtype=np.float64) - loc) / scale
    return np.exp(-0.5 * u * u) / (scale * math.sqrt(2.0 * math.pi))


@_own
def mvn1_exp1_crossing():
    """Where the DR cdfs of N(0, 1) and Exp(1) cross (the only sign change)."""
    gap = lambda z: special.erf(z / (2.0 * math.sqrt(2.0))) + math.expm1(-z)
    return optimize.brentq(gap, 1.0, 20.0, xtol=1e-13)


def _shannon_quad(pdf, lo, hi, points=None):
    def integrand(x):
        v = pdf(x)
        return -v * math.log(v) if v > 0.0 else 0.0

    val, _ = integrate.quad(integrand, lo, hi, points=points, limit=400)
    return val


@_own
def hypoexp_entropy(t1, t2):
    """Entropy of Exp(t1) + Exp(t2), t1 != t2, from its closed-form density."""
    c = t1 * t2 / (t2 - t1)
    pdf = lambda s: c * (math.exp(-t1 * s) - math.exp(-t2 * s))
    return _shannon_quad(pdf, 0.0, 60.0 / min(t1, t2))


@_own
def gamma2_dr_moments():
    """Mean and variance of the DR of the Gamma(2, 1) density s exp(-s).

    The superlevel set {s e^{-s} >= u} is the interval between the two real
    branches of Lambert W at -u; layer cake gives E Z^k = int m(u)^{k+1}/(k+1) du.
    """

    def m(u):
        return float(np.real(special.lambertw(-u, 0)) - np.real(special.lambertw(-u, -1)))

    top = math.exp(-1.0)
    first, _ = integrate.quad(lambda u: 0.5 * m(u) ** 2, 0.0, top, limit=200)
    second, _ = integrate.quad(lambda u: m(u) ** 3 / 3.0, 0.0, top, limit=200)
    return first, second - first * first


@_own
def join_mvn1_exp1_entropy():
    """Entropy of the derivative of max(F_mvn1, F_exp1): Exp(1) up to the
    crossing, the rearranged normal beyond it."""
    zc = mvn1_exp1_crossing()
    head = _shannon_quad(lambda z: math.exp(-z), 0.0, zc)
    # the DR of N(0, 1) is the density of 2|X|
    tail = _shannon_quad(lambda z: float(_normal_pdf(z / 2.0, 0.0, 1.0)), zc, 80.0)
    return head + tail


class TruncatedNormalMix:
    """Two-component normal mixture truncated to [lo, hi] and renormalised."""

    def __init__(self, w, mu1, s1, mu2, s2, lo, hi, scale=1.0):
        self.w, self.mu, self.s = w, (mu1, mu2), (s1, s2)
        self.lo, self.hi, self.scale = lo, hi, scale
        self._args = (w, mu1, s1, mu2, s2, lo, hi)
        self.norm = sum(
            wt * (special.ndtr((hi - m) / s) - special.ndtr((lo - m) / s))
            for wt, m, s in zip((w, 1.0 - w), self.mu, self.s)
        )

    def dilated(self, s):
        """The law of s * X."""
        return TruncatedNormalMix(*self._args, scale=self.scale * s)

    def _base(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = sum(
            wt * _normal_pdf(x, m, s)
            for wt, m, s in zip((self.w, 1.0 - self.w), self.mu, self.s)
        )
        return np.where((x >= self.lo) & (x <= self.hi), out / self.norm, 0.0)

    def __call__(self, x):
        """Density of scale * X, X the truncated mixture."""
        return self._base(np.asarray(x, dtype=np.float64) / self.scale) / self.scale

    @property
    def support(self):
        return self.scale * self.lo, self.scale * self.hi

    @_own
    def entropy(self):
        lo, hi = self.support
        return _shannon_quad(
            lambda x: float(self(x)), lo, hi, points=[self.scale * m for m in self.mu]
        )


@_own
def beta_entropy(a, b):
    return float(stats.beta(a, b).entropy())


def beta_pdf(a, b):
    """Vectorised Beta(a, b) density on [0, 1]."""
    c = 1.0 / special.beta(a, b)

    def pdf(x):
        x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
        return c * x ** (a - 1.0) * (1.0 - x) ** (b - 1.0)

    return pdf


@_own
def shannon(p):
    p = np.asarray(p, dtype=np.float64)
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


@_own
def precedes(p, q, tol=1e-12):
    """p majorised by q: every sorted partial sum of p is at most q's (HLP)."""
    n = max(p.size, q.size)
    cp = np.cumsum(np.pad(np.sort(p)[::-1], (0, n - p.size)))
    cq = np.cumsum(np.pad(np.sort(q)[::-1], (0, n - q.size)))
    return bool(np.all(cp <= cq + tol))
