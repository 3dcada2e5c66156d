"""Closed-form decreasing rearrangements for analytic families.

Isotropic multivariate normals and iid exponential vectors have rotationally
or simplex-symmetric superlevel sets, so their DRs follow from the volume of
a ball (resp. simplex) at each density level:

* ``N(mu, sigma^2 I_n)``: ``f~(z) = (2 pi)^{-n/2} sigma^{-n}
  exp(-(z / V_n)^{2/n} / (2 sigma^2))`` with ``V_n`` the unit-ball volume.
* iid ``Exp(1)^n``: ``f~(z) = exp(-(n! z)^{1/n})``.
* a single ``Exp(theta)`` rate-``theta`` density is already nonincreasing.
* ``Beta(3, 2)`` (pdf ``12 (1-z) z^2``) has an algebraic two-branch DR.

DR cdfs follow by tracking the probability mass inside the level ball or
simplex, which is a regularised incomplete gamma in every dimension.
"""

import math
import re

import numpy as np
from scipy import special, stats

from .rearrange import DrCdf, DrPdf, Measure

__all__ = [
    "FamilySpec",
    "parse_family",
    "ball_volume",
    "dr_mvn",
    "dr_exp_iid",
    "dr_exp_rate",
    "dr_beta32",
    "dr_family",
    "dr_validate_radial",
    "suggested_truncation",
]


def ball_volume(n, r):
    """Volume of the n-ball of radius r: ``pi^(n/2) r^n / Gamma(n/2 + 1)``."""
    n = int(n)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    out = np.pi ** (n / 2.0) * r ** n / special.gamma(n / 2.0 + 1.0)
    return float(out) if np.isscalar(r) or out.ndim == 0 else out


class FamilySpec:
    """Parsed analytic family identifier.

    ``kind`` is one of ``mvn``, ``exp_iid``, ``exp_rate``, ``beta32``;
    ``params`` holds ``n``/``var``/``theta`` as appropriate.
    """

    def __init__(self, kind, **params):
        if kind == "mvn":
            n = int(params.get("n", 1))
            var = float(params.get("var", 1.0))
            if n < 1:
                raise ValueError("mvn dimension must be >= 1")
            if var <= 0:
                raise ValueError("mvn variance must be positive")
            self.params = {"n": n, "var": var}
        elif kind == "exp_iid":
            n = int(params.get("n", 1))
            if n < 1:
                raise ValueError("exp dimension must be >= 1")
            self.params = {"n": n}
        elif kind == "exp_rate":
            theta = float(params.get("theta", 1.0))
            if theta <= 0:
                raise ValueError("exponential rate must be positive")
            self.params = {"theta": theta}
        elif kind == "beta32":
            if params:
                raise ValueError("beta32 takes no parameters")
            self.params = {}
        else:
            raise ValueError(f"unknown family kind {kind!r}")
        self.kind = kind

    def __repr__(self):
        inner = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"FamilySpec({self.kind}{':' if inner else ''}{inner})"

    def label(self):
        if self.kind == "mvn":
            return f"mvn_n{self.params['n']}_var{self.params['var']:g}"
        if self.kind == "exp_iid":
            return f"exp_n{self.params['n']}"
        if self.kind == "exp_rate":
            return f"exprate_theta{self.params['theta']:g}"
        return "beta32"


_SPEC_RE = re.compile(r"^(mvn|exp|exprate|beta32)(?::(.*))?$")


def parse_family(text):
    """Parse a family string such as ``mvn:n=2,var=3``, ``exp:n=2``,
    ``exprate:theta=2`` or ``beta32``.

    Keys and kinds are case-sensitive; whitespace is not tolerated.
    """
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"unparseable family spec {text!r}")
    kind, rest = m.group(1), m.group(2)
    params = {}
    if rest:
        for item in rest.split(","):
            if "=" not in item:
                raise ValueError(f"malformed parameter {item!r} in {text!r}")
            key, val = item.split("=", 1)
            params[key] = val
    try:
        if kind == "mvn":
            allowed = {"n", "var"}
            if not set(params) <= allowed:
                raise ValueError(f"mvn accepts parameters {sorted(allowed)}")
            return FamilySpec("mvn", **params)
        if kind == "exp":
            if not set(params) <= {"n"}:
                raise ValueError("exp accepts parameter 'n'")
            return FamilySpec("exp_iid", **params)
        if kind == "exprate":
            if not set(params) <= {"theta"}:
                raise ValueError("exprate accepts parameter 'theta'")
            return FamilySpec("exp_rate", **params)
        return FamilySpec("beta32", **params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid family spec {text!r}: {exc}") from None


def _closed_form(pdf, measure, cdf, cdf_inverse):
    """DR pdf and cdf of a closed form on [0, inf), probed to its 1 - 1e-9 quantile."""
    z_hi = float(cdf_inverse(np.array([1.0 - 1e-9]))[0])
    f = DrPdf(fn=pdf, z_max=math.inf, measure=measure, z_hi=z_hi)
    return f, DrCdf(fn=cdf, pdf=f, inverse=cdf_inverse, z_hi=z_hi)


# ---------------------------------------------------------------------------
# multivariate normal
# ---------------------------------------------------------------------------


def dr_mvn(n=1, var=1.0):
    """DR pdf and cdf of an isotropic ``N(mu, var * I_n)``.

    Location drops out of the rearrangement.  Returns ``(DrPdf, DrCdf)``;
    the cdf is ``P(n/2, r(z)^2 / (2 var))`` with ``r(z) = (z / V_n)^{1/n}``
    and ``P`` the regularised lower incomplete gamma, which reduces to
    ``1 - exp(-z / (2 pi var))`` for ``n = 2``.
    """
    spec = FamilySpec("mvn", n=n, var=var)
    n = spec.params["n"]
    var = spec.params["var"]
    vn = ball_volume(n, 1.0)
    amp = (2.0 * math.pi * var) ** (-n / 2.0)

    def pdf(z):
        z = np.asarray(z, dtype=np.float64)
        return amp * np.exp(-np.power(z / vn, 2.0 / n) / (2.0 * var))

    def pdf_inverse(v):
        arg = np.clip(v / amp, 1e-300, 1.0)
        return vn * np.power(-2.0 * var * np.log(arg), n / 2.0)

    def cdf(z):
        z = np.asarray(z, dtype=np.float64)
        r2 = np.power(z / vn, 2.0 / n)
        return special.gammainc(n / 2.0, r2 / (2.0 * var))

    def cdf_inverse(p):
        p = np.asarray(p, dtype=np.float64)
        r2 = 2.0 * var * special.gammaincinv(n / 2.0, p)
        return vn * np.power(r2, n / 2.0)

    return _closed_form(pdf, Measure(pdf_inverse, amp), cdf, cdf_inverse)


# ---------------------------------------------------------------------------
# iid exponentials
# ---------------------------------------------------------------------------


def dr_exp_iid(n=1):
    """DR pdf and cdf of n iid unit-rate exponentials.

    ``f~(z) = exp(-(n! z)^{1/n})``; the cdf is ``P(n, (n! z)^{1/n})``, i.e.
    ``1 - exp(-z)`` for n=1 and ``1 - (1 + sqrt(2 z)) exp(-sqrt(2 z))`` for n=2.
    """
    spec = FamilySpec("exp_iid", n=n)
    n = spec.params["n"]
    fact = float(math.factorial(n))

    def pdf(z):
        z = np.asarray(z, dtype=np.float64)
        return np.exp(-np.power(fact * z, 1.0 / n))

    def pdf_inverse(v):
        v = np.clip(v, 1e-300, 1.0)
        return np.power(-np.log(v), float(n)) / fact

    def cdf(z):
        z = np.asarray(z, dtype=np.float64)
        return special.gammainc(n, np.power(fact * z, 1.0 / n))

    def cdf_inverse(p):
        p = np.asarray(p, dtype=np.float64)
        r = special.gammaincinv(n, p)
        return np.power(r, float(n)) / fact

    return _closed_form(pdf, Measure(pdf_inverse, 1.0), cdf, cdf_inverse)


def dr_exp_rate(theta=1.0):
    """DR pdf and cdf of a single rate-``theta`` exponential (already a DR)."""
    spec = FamilySpec("exp_rate", theta=theta)
    theta = spec.params["theta"]

    def pdf(z):
        z = np.asarray(z, dtype=np.float64)
        return theta * np.exp(-theta * z)

    def pdf_inverse(v):
        v = np.clip(v, 1e-300, None)
        return -np.log(v / theta) / theta

    def cdf(z):
        z = np.asarray(z, dtype=np.float64)
        return -np.expm1(-theta * z)

    def cdf_inverse(p):
        p = np.asarray(p, dtype=np.float64)
        return -np.log1p(-np.clip(p, 0.0, 1.0 - 1e-300)) / theta

    return _closed_form(pdf, Measure(pdf_inverse, theta), cdf, cdf_inverse)


# ---------------------------------------------------------------------------
# Beta(3, 2)
# ---------------------------------------------------------------------------


def _beta32_radical(z):
    # discriminant of the level-set variety; nonnegative on [0, 1] up to roundoff
    z = np.asarray(z, dtype=np.float64)
    z2 = z * z
    arg = ((-27.0 * z2 + 54.0) * z2 - 27.0) * z2 + 4.0
    if np.any(arg < -1e-12):
        raise ValueError("beta32 radical argument out of range")
    return np.sqrt(np.maximum(arg, 0.0))


def dr_beta32():
    """DR pdf and cdf of Beta(3, 2), density ``12 (1 - z) z^2`` on [0, 1].

    The DR has two algebraic branches meeting at ``z = 1/sqrt(3)`` with value
    8/9 (the density maximum is 16/9); the cdf is
    ``(z / 9) (sqrt((4 - 3 z^2)^3) + 8)`` on [0, 1].
    """

    def pdf(z):
        z = np.asarray(z, dtype=np.float64)
        inside = z <= 1.0
        rad = np.where(inside, _beta32_radical(np.minimum(z, 1.0)), 0.0)
        branch = np.where(z <= 1.0 / math.sqrt(3.0), 1.0, -1.0)
        return np.where(inside, 8.0 / 9.0 + branch * (4.0 / 9.0) * rad, 0.0)

    def cdf(z):
        z = np.asarray(z, dtype=np.float64)
        zc = np.minimum(z, 1.0)
        cubic = np.maximum(4.0 - 3.0 * zc * zc, 0.0) ** 3
        return np.where(z >= 1.0, 1.0, (zc / 9.0) * (np.sqrt(cubic) + 8.0))

    f = DrPdf(fn=pdf, z_max=1.0)
    F = DrCdf(fn=cdf, pdf=f, z_hi=1.0, z_max=1.0)
    return f, F


# ---------------------------------------------------------------------------
# dispatch and validation
# ---------------------------------------------------------------------------


def dr_family(spec):
    """DR pdf/cdf pair for a FamilySpec or family string."""
    if isinstance(spec, str):
        spec = parse_family(spec)
    if spec.kind == "mvn":
        return dr_mvn(**spec.params)
    if spec.kind == "exp_iid":
        return dr_exp_iid(**spec.params)
    if spec.kind == "exp_rate":
        return dr_exp_rate(**spec.params)
    return dr_beta32()


def suggested_truncation(spec, mass=1.0 - 1e-8):
    """Interval capturing ``mass`` of the family's DR, for numeric pipelines."""
    _, F = dr_family(spec)
    return 0.0, F.effective_support(1.0 - mass)


def dr_validate_radial(spec):
    """Cross-check an analytic DR against its radial reconstruction.

    For mvn the radius of the level ball is chi-distributed; for iid
    exponentials the simplex radius (coordinate sum) is Gamma(n, 1).  The DR
    pdf must equal ``f_R(r(z)) r'(z)`` with ``z`` the superlevel volume.
    Returns the sup discrepancy over 512 points up to the 1 - 1e-6 quantile.
    """
    if isinstance(spec, str):
        spec = parse_family(spec)
    f, F = dr_family(spec)
    z_hi = F.effective_support(1e-6)
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
        fact = float(math.factorial(n))
        r = np.power(fact * z, 1.0 / n)
        drdz = np.power(fact * z, 1.0 / n - 1.0) * fact / n
        recon = stats.gamma.pdf(r, a=n) * drdz
    elif spec.kind == "exp_rate":
        theta = spec.params["theta"]
        recon = theta * np.exp(-theta * z)
    else:
        raise ValueError("radial validation applies to mvn and exponential families")
    return float(np.max(np.abs(recon - f(z))))
