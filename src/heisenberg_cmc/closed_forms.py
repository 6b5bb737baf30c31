"""Closed-form generating curves and the definite integrals attached to them.

The sphere and the n = 1 catenoid admit elementary profiles:

    sphere   t(x) = (1/(2H^2)) (Hx sqrt(1 - H^2 x^2) + arccos(Hx)),
    catenoid x(t) = sqrt(t^2 + E^4) / E.

For the periodic families the height gained over one half period is the
integral of dt/dx = (E + H x^{2n}) x / sqrt(x^{4n-2} - (E + H x^{2n})^2)
across the admissible band [x1, x2], and the catenoid slab half-width is
t_inf = int_{x1}^{inf} E x / sqrt(x^{4n-2} - E^2) dx, finite only for n >= 2.
All these radicands vanish like simple zeros at the band edges, so the
quadrature layer works with exact endpoint offsets and two independent
engines: a u^2 = x - a substitution fed to adaptive Gauss-Kronrod, and a
hand-rolled tanh-sinh rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .classify import Family, classify
from .core import dimension_index
from .errors import DivergentIntegralError, QuadratureError

__all__ = [
    "QuadratureResult",
    "singular_quadrature",
    "sphere_profile",
    "sphere_slope",
    "sphere_generating_curve",
    "catenoid_profile_h1",
    "catenoid_generating_curve",
    "catenoid_slab_halfwidth",
    "nodoid_halfperiod",
    "unduloid_halfperiod",
    "halfperiod_heights",
]

_SINGULAR_SPECS = ("lower", "upper", "both", "none")
_SCHEMES = ("substitution", "tanh_sinh")


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a definite integral with an error estimate and the number of
    integrand evaluations spent."""

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not self.error_estimate >= 0.0:
            raise ValueError("error estimate must be nonnegative")


def _quad_checked(fun, lo, hi, abs_tol, rel_tol):
    out = quad(fun, lo, hi, epsabs=abs_tol, epsrel=rel_tol, limit=200, full_output=1)
    if len(out) > 3:
        raise QuadratureError(out[3])
    return out[0], out[1]


def _substitution(g, a, b, singular, abs_tol, rel_tol):
    span = b - a
    mid = 0.5 * (a + b)
    total = 0.0
    err = 0.0
    if singular in ("lower", "both"):
        # x = a + u^2 absorbs an inverse-square-root endpoint
        def left(u):
            da = u * u
            return 2.0 * u * g(a + da, da, span - da)

        v, e1 = _quad_checked(left, 0.0, math.sqrt(mid - a), abs_tol, rel_tol)
    else:
        v, e1 = _quad_checked(lambda x: g(x, x - a, b - x), a, mid, abs_tol, rel_tol)
    total += v
    err += e1
    if singular in ("upper", "both"):
        def right(u):
            db = u * u
            return 2.0 * u * g(b - db, span - db, db)

        v, e2 = _quad_checked(right, 0.0, math.sqrt(b - mid), abs_tol, rel_tol)
    else:
        v, e2 = _quad_checked(lambda x: g(x, x - a, b - x), mid, b, abs_tol, rel_tol)
    total += v
    err += e2
    return total, err


def _tanh_sinh(g, a, b, abs_tol, rel_tol, max_level):
    """Trapezoid sums over x = mid + (b-a)/2 tanh((pi/2) sinh(tau)).

    The substitution pushes endpoint singularities into double-exponentially
    small weights; halving the step until successive sums agree gives the
    error estimate.  tau is truncated at 4, small enough for anything up to
    an inverse-square-root blowup.  Nodes whose abscissa rounds onto an
    endpoint are still evaluated: the offsets da, db stay exact and positive.
    """
    span = b - a
    mid = 0.5 * (a + b)
    half = 0.5 * span
    tau_max = 4.0

    def contribution(tau):
        z = 0.5 * math.pi * math.sinh(tau)
        da = span / (1.0 + math.exp(-2.0 * z))
        db = span / (1.0 + math.exp(2.0 * z))
        # build x from the nearer endpoint so the offset survives rounding
        x = a + da if z <= 0.0 else b - db
        weight = 0.5 * math.pi * math.cosh(tau) / math.cosh(z) ** 2
        return half * weight * g(x, da, db)

    terms = [contribution(0.0)]
    for j in range(1, int(tau_max) + 1):  # level-0 grid tau = 0, +-1, ..., +-tau_max
        terms.append(contribution(float(j)))
        terms.append(contribution(float(-j)))
    step = 1.0
    previous = math.fsum(terms) * step
    for _ in range(max_level):
        step *= 0.5
        tau = step
        while tau < tau_max:
            terms.append(contribution(tau))
            terms.append(contribution(-tau))
            tau += 2.0 * step
        value = math.fsum(terms) * step
        err = abs(value - previous)
        previous = value
        if err <= max(abs_tol, rel_tol * abs(value)):
            return value, err
    raise QuadratureError(
        "tanh-sinh rule did not converge within %d refinement levels" % max_level
    )


def singular_quadrature(f, a, b, singular="both", *, scheme="substitution",
                        rel_tol=1e-12, abs_tol=1e-14, max_level=12):
    """Integrate f over [a, b] allowing inverse-square-root endpoint blowup.

    ``singular`` declares which endpoints are singular ("lower", "upper",
    "both", "none"); the substitution scheme applies u^2 = x - a there and
    plain adaptive quadrature elsewhere, while the tanh-sinh scheme treats
    every endpoint uniformly.  The integrand is called as f(x, da, db) with
    da = x - a and db = b - x computed without cancellation, so endpoint
    singularities should be evaluated from the offsets, not from x.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("integration interval must be finite with a < b")
    if singular not in _SINGULAR_SPECS:
        raise ValueError("singular must be one of %s" % (_SINGULAR_SPECS,))
    if scheme not in _SCHEMES:
        raise ValueError("scheme must be one of %s" % (_SCHEMES,))
    calls = 0

    def counted(x, da, db):
        nonlocal calls
        calls += 1
        return f(x, da, db)

    if scheme == "substitution":
        value, err = _substitution(counted, a, b, singular, abs_tol, rel_tol)
    else:
        value, err = _tanh_sinh(counted, a, b, abs_tol, rel_tol, max_level)
    return QuadratureResult(value=value, error_estimate=abs(err), evaluations=calls)


# ---------------------------------------------------------------------------
# spheres and catenoids


def sphere_profile(h, x):
    """Height t(x) of the upper half of the compact profile, measured from
    the equator plane: t = (1/(2H^2)) (Hx sqrt(1-H^2x^2) + arccos(Hx))."""
    h = float(h)
    x = float(x)
    if h <= 0.0:
        raise ValueError("sphere profile needs H > 0")
    w = h * x
    if x < 0.0 or w > 1.0 + 1e-12:
        raise ValueError("sphere profile needs 0 <= x <= 1/H")
    w = min(w, 1.0)
    return (w * math.sqrt(1.0 - w * w) + math.acos(w)) / (2.0 * h * h)


def sphere_slope(h, x):
    """dt/dx = -H x^2 / sqrt(1 - H^2 x^2) along the upper profile half."""
    h = float(h)
    x = float(x)
    if h <= 0.0:
        raise ValueError("sphere slope needs H > 0")
    w = h * x
    if x < 0.0 or w >= 1.0:
        raise ValueError("slope is finite only for 0 <= x < 1/H")
    return -h * x * x / math.sqrt(1.0 - w * w)


def sphere_generating_curve(h, psi):
    """Full profile parameterized by the polar angle psi in [0, pi].

    Returns (x, t, dx, dt, ddx, ddt); psi = 0 is the bottom axis contact,
    psi = pi/2 the equator, psi = pi the top.  Not arclength.
    """
    h = float(h)
    psi = float(psi)
    if h <= 0.0:
        raise ValueError("sphere curve needs H > 0")
    s, c = math.sin(psi), math.cos(psi)
    x = s / h
    t = (psi - 0.5 * math.pi - s * c) / (2.0 * h * h)
    return (x, t, c / h, s * s / (h * h), -s / h, 2.0 * s * c / (h * h))


def catenoid_profile_h1(e, t):
    """Minimal profile for n = 1: x(t) = sqrt(t^2 + E^4)/E, waist x(0) = E."""
    e = float(e)
    if e <= 0.0:
        raise ValueError("catenoid profile needs E > 0")
    t = float(t)
    return math.hypot(t, e * e) / e


def catenoid_generating_curve(e, t):
    """Graph parameterization (x(t), t) of the n = 1 minimal profile.

    Returns (x, t, dx, dt, ddx, ddt) with dt = 1; ddx equals 1/x^3, the
    n = 1 case of x'' = (2n-1)/x^3 + 2(n-1) x'^2 / x.
    """
    e = float(e)
    if e <= 0.0:
        raise ValueError("catenoid curve needs E > 0")
    t = float(t)
    q = math.hypot(t, e * e)
    return (q / e, t, t / (e * q), 1.0, e ** 3 / q ** 3, 0.0)


def catenoid_slab_halfwidth(n, e, *, scheme="substitution",
                            rel_tol=1e-12, abs_tol=1e-14):
    """Half-width t_inf of the slab containing the minimal profile.

    t_inf = int_{x1}^{inf} E x / sqrt(x^{4n-2} - E^2) dx with x1 = E^{1/(2n-1)}.
    The integrand tends to E x^{2-2n}, so the tail converges only for n >= 2;
    for n = 1 the partial integrals E sqrt(X^2 - E^2) grow linearly and a
    DivergentIntegralError reports them.
    """
    n = dimension_index(n)
    e = float(e)
    if e <= 0.0:
        raise ValueError("slab half-width needs E > 0")
    x1 = e ** (1.0 / (2 * n - 1))
    if n == 1:
        partials = ", ".join(
            "P(%g x1) = %.6g" % (m, e * math.sqrt((m * x1) ** 2 - e * e))
            for m in (10.0, 100.0, 1000.0)
        )
        raise DivergentIntegralError(
            "slab half-width diverges for n = 1: the integrand tends to E, so "
            "partial integrals grow linearly in the cutoff (%s)" % partials
        )

    def near(x, da, db):
        # x^{2n-1} - E = (x - x1) sum_i x^i x1^{2n-2-i}
        s = math.fsum(x ** i * x1 ** (2 * n - 2 - i) for i in range(2 * n - 1))
        return e * x / math.sqrt(da * s * (x ** (2 * n - 1) + e))

    cut = 2.0 * x1
    head = singular_quadrature(near, x1, cut, "lower", scheme=scheme,
                               rel_tol=rel_tol, abs_tol=abs_tol)

    def tail(u, da, db):
        # x = 1/u turns the tail into int_0^{1/cut} E u^{2n-4} (...) du
        return e * u ** (2 * n - 4) / math.sqrt(1.0 - e * e * u ** (4 * n - 2))

    far = singular_quadrature(tail, 0.0, 1.0 / cut, "none", scheme=scheme,
                              rel_tol=rel_tol, abs_tol=abs_tol)
    return QuadratureResult(
        value=head.value + far.value,
        error_estimate=head.error_estimate + far.error_estimate,
        evaluations=head.evaluations + far.evaluations,
    )


# ---------------------------------------------------------------------------
# half-period heights of the periodic families


def _nodoid_factors(n, h, x1, x2):
    """Positive cofactors g1, g2 with radicand = (x-x1) g1 (x2-x) g2.

    x^{4n-2} - w^2 factors as (x^{2n-1} + w)(x^{2n-1} - w) with
    w = E + H x^{2n}; dividing out the simple zeros at x1 and x2 leaves
    sums with no cancellation.
    """

    def g1(x):
        return math.fsum(
            x ** i * x1 ** (2 * n - 2 - i) for i in range(2 * n - 1)
        ) + h * math.fsum(x ** i * x1 ** (2 * n - 1 - i) for i in range(2 * n))

    def g2(x):
        return h * math.fsum(
            x ** i * x2 ** (2 * n - 1 - i) for i in range(2 * n)
        ) - math.fsum(x ** i * x2 ** (2 * n - 2 - i) for i in range(2 * n - 1))

    return g1, g2


def _unduloid_cofactor(n, h, e, x1, x2):
    """Polynomial q with x^{2n-1} - w = (x-x1)(x2-x) q(x), q > 0 on the band."""
    coeffs = np.zeros(2 * n + 1)
    coeffs[0] = -h
    coeffs[1] = 1.0
    coeffs[-1] = -e
    q, _ = np.polydiv(coeffs, np.array([1.0, -x1]))
    q, _ = np.polydiv(q, np.array([1.0, -x2]))

    def cofactor(x):
        return -float(np.polyval(q, x))

    return cofactor


def _band_integrands(cls):
    """Half-period integrands across the band of a periodic classification.

    Returns the raw dt/dx = w x / sqrt(x^{4n-2} - w^2) and, for nodoids,
    the regularized form (None for unduloids).  Both take (x, x - x1, x2 - x)
    so the simple zeros of the factored radicand at x1 and x2 come from
    exact offsets.
    """
    n, h, e, x1, x2 = cls.n, cls.h, cls.e, cls.x1, cls.x2
    if cls.family is Family.UNDULOID:
        cofactor = _unduloid_cofactor(n, h, e, x1, x2)

        def raw(x, d1, d2):
            w = e + h * x ** (2 * n)
            f1 = x ** (2 * n - 1) + e + h * x ** (2 * n)
            return w * x / math.sqrt(d1 * d2 * cofactor(x) * f1)

        return raw, None
    g1, g2 = _nodoid_factors(n, h, x1, x2)

    def raw(x, d1, d2):
        w = e + h * x ** (2 * n)
        return w * x / math.sqrt(d1 * d2 * g1(x) * g2(x))

    def regularized(x, d1, d2):
        w = e + h * x ** (2 * n)
        num = 2.0 * (n - 1) * x ** (1 - 2 * n) * w * w + x ** (2 * n - 1)
        return num / (2 * n * h) / math.sqrt(d1 * d2 * g1(x) * g2(x))

    return raw, regularized


def _halfperiod(cls, raw, regularized, kw):
    """t2 = int raw across the band; with a regularized integrand, its
    value is returned after a cross-check against the raw one."""
    a = singular_quadrature(raw, cls.x1, cls.x2, "both", **kw)
    if regularized is None:
        return a
    b = singular_quadrature(regularized, cls.x1, cls.x2, "both", **kw)
    gap = abs(a.value - b.value)
    allowed = max(1e-10 * (1.0 + abs(b.value)),
                  2.0 * (a.error_estimate + b.error_estimate))
    if gap > allowed:
        raise QuadratureError(
            "raw and regularized half-period integrals disagree: "
            "%.17g vs %.17g" % (a.value, b.value)
        )
    return QuadratureResult(
        value=b.value,
        error_estimate=b.error_estimate,
        evaluations=a.evaluations + b.evaluations,
    )


def nodoid_halfperiod(n, h, e, *, scheme="substitution",
                      rel_tol=1e-12, abs_tol=1e-14):
    """Height t2 gained while the profile radius sweeps the band once.

    Evaluates the regularized integrand
        (2(n-1) x^{1-2n} w^2 + x^{2n-1}) / (2nH sqrt(x^{4n-2} - w^2)),
    whose numerator is strictly positive, and cross-checks it against the
    raw form w x / sqrt(x^{4n-2} - w^2); disagreement beyond the combined
    error estimates raises QuadratureError.
    """
    cls = classify(n, h, e)
    if not (cls.h > 0.0 and cls.e < 0.0):
        raise ValueError("nodoid half-period needs EH < 0")
    kw = dict(scheme=scheme, rel_tol=rel_tol, abs_tol=abs_tol)
    return _halfperiod(cls, *_band_integrands(cls), kw)


def unduloid_halfperiod(n, h, e, *, scheme="substitution",
                        rel_tol=1e-12, abs_tol=1e-14):
    """Height t2 of one rising half period, w x / sqrt(x^{4n-2} - w^2)
    integrated across [x1, x2]; zero for the cylinder."""
    cls = classify(n, h, e)
    if not (cls.h > 0.0 and cls.e > 0.0):
        raise ValueError("unduloid half-period needs EH > 0")
    if cls.family is Family.CYLINDER:
        return QuadratureResult(value=0.0, error_estimate=0.0, evaluations=0)
    kw = dict(scheme=scheme, rel_tol=rel_tol, abs_tol=abs_tol)
    return _halfperiod(cls, *_band_integrands(cls), kw)


def halfperiod_heights(n, h, e, *, scheme="substitution",
                       rel_tol=1e-12, abs_tol=1e-14):
    """Heights (t1, t2) at the interior radius x0 and at the far band edge.

    t1 integrates dt/dx from the starting edge of the traversal to x0: from
    x1 for unduloids (x0 is the inflection radius) and from x2 downward for
    nodoids (x0 is the vertical-tangent radius).  t2 is the full half-period
    height.  Cylinders degenerate to (0, 0).
    """
    cls = classify(n, h, e)
    if cls.family is Family.CYLINDER:
        zero = QuadratureResult(value=0.0, error_estimate=0.0, evaluations=0)
        return zero, zero
    if cls.family not in (Family.UNDULOID, Family.NODOID):
        raise ValueError(
            "half-period heights exist only for the periodic families")
    kw = dict(scheme=scheme, rel_tol=rel_tol, abs_tol=abs_tol)
    raw, regularized = _band_integrands(cls)
    x1, x2, x0 = cls.x1, cls.x2, cls.x0
    if cls.family is Family.UNDULOID:
        t1 = singular_quadrature(lambda x, da, db: raw(x, da, x2 - x),
                                 x1, x0, "lower", **kw)
    else:
        t1 = singular_quadrature(lambda x, da, db: raw(x, x - x1, db),
                                 x0, x2, "upper", **kw)
    return t1, _halfperiod(cls, raw, regularized, kw)
