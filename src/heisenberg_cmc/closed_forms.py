"""Closed-form generating curves and the definite integrals attached to them.

The sphere and the n = 1 catenoid admit elementary profiles:

    sphere   t(x) = (1/(2H^2)) (Hx sqrt(1 - H^2 x^2) + arccos(Hx)),
    catenoid x(t) = sqrt(t^2 + E^4) / E.

Between its critical radii an unduloid or nodoid is the graph of
dt/dx = w x / sqrt(x^{4n-2} - w^2), w = E + H x^{2n}, over the band [x1, x2].
One Chebyshev series in the angle theta of x = m - r cos(theta), where the
band edges' inverse square roots cancel, gives t1, t2 and the whole half
period (_HalfPeriod).  The catenoid slab half-width t_inf = int_{x1}^{inf}
E x / sqrt(x^{4n-2} - E^2) dx, finite only for n >= 2, keeps two quadrature
engines with exact endpoint offsets: a u^2 = x - a substitution fed to
adaptive Gauss-Kronrod, and a hand-rolled tanh-sinh rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebval
from scipy.fft import dct
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
    "halfperiod_curve",
]

_SINGULAR_SPECS = ("lower", "upper", "both", "none")
_SCHEMES = ("substitution", "tanh_sinh")
_EPS = float(np.finfo(float).eps)


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
# half periods of the periodic families

_ZERO = QuadratureResult(value=0.0, error_estimate=0.0, evaluations=0)


def _band_cofactor(cls):
    """q > 0 with x^{4n-2} - w^2 = (x - x1)(x2 - x) q(x), taking arrays:
    (x^{2n-1} - w)(x^{2n-1} + w) with the band edges divided out, written
    without cancellation."""
    n, h, e, x1, x2 = cls.n, cls.h, cls.e, cls.x1, cls.x2
    if cls.family is Family.UNDULOID:
        coeffs = np.zeros(2 * n + 1)
        coeffs[0], coeffs[1], coeffs[-1] = -h, 1.0, -e
        rest = np.polydiv(np.polydiv(coeffs, [1.0, -x1])[0], [1.0, -x2])[0]
        return lambda x: (-np.polyval(rest, x)
                          * (x ** (2 * n - 1) + e + h * x ** (2 * n)))

    def powsum(x, a, k):  # (x^k - a^k) / (x - a)
        return sum(x ** i * a ** (k - 1 - i) for i in range(k))

    lift = -e / x2 ** (2 * n - 1)  # H x2 - 1, which cancels as a difference
    return lambda x: ((powsum(x, x1, 2 * n - 1) + h * powsum(x, x1, 2 * n))
                      * (lift * powsum(x, x2, 2 * n - 1) + h * x ** (2 * n - 1)))


def _chop(coeffs, tol):
    """How many Chebyshev coefficients to keep, None while unresolved:
    Aurentz & Trefethen's standardChop ("Chopping a Chebyshev series", 2017),
    which finds where |coeffs| levels off into a plateau, even one that
    roundoff holds well above tol."""
    n = len(coeffs)
    if n < 17:
        return None
    env = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]
    for j in range(2, n + 1):  # 1-based, as in the paper
        j2 = round(1.25 * j + 5)
        if j2 > n:
            return None
        e1 = env[j - 1]
        if e1 == 0.0 or env[j2 - 1] / e1 > 3.0 * (1.0 - math.log(e1) / math.log(tol)):
            break
    if env[j - 2] == 0.0:
        return j - 1
    floor = tol ** (7.0 / 6.0)
    j3 = int(np.sum(env >= floor))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = floor
    # least envelope plus a line that favours short series
    biased = np.log10(env[:j2]) + np.linspace(0.0, -math.log10(tol) / 3.0, j2)
    return max(int(np.argmin(biased)), 1)


class _HalfPeriod:
    """One half period of an unduloid or nodoid as a Chebyshev series.

    x(theta) = m - r cos(theta) runs from x1 at theta = 0 to x2 at pi, and
    the band edges' inverse square roots cancel against dx = r sin(theta)
    dtheta: dt/dtheta = w x / sqrt(q(x)) is analytic on [0, pi].  Its
    Chebyshev interpolant (degree doubled until _chop finds it resolved)
    integrates to T(theta), the height gained from x1 (Trefethen,
    Approximation Theory and Approximation Practice, ch. 3, 7 and 19).
    """

    def __init__(self, cls):
        self.cls = cls
        cofactor = _band_cofactor(cls)
        degree, self.evaluations, keep = 8, 0, None
        while keep is None:
            if degree >= 4096:
                raise QuadratureError(
                    "half-period series unresolved at degree %d" % degree)
            degree *= 2
            y = np.cos(np.arange(degree + 1) * math.pi / degree)
            x = self.radius(0.5 * math.pi * (1.0 + y))
            scale = x / np.sqrt(cofactor(x))
            terms = cls.h * x ** (2 * cls.n)
            samples = (cls.e + terms) * scale
            self.evaluations += degree + 1
            coeffs = dct(samples, type=1) / degree
            coeffs[[0, -1]] *= 0.5
            noise = _EPS * float(np.max((abs(cls.e) + terms) * scale))
            keep = _chop(coeffs, noise / float(np.max(np.abs(samples))))
        # in y = 2 theta / pi - 1, dtheta = (pi / 2) dy; the error is the
        # dropped tail plus the rounding of w's terms, which can exceed w
        self._series = chebint(coeffs[:keep], lbnd=-1.0) * (0.5 * math.pi)
        self.error = math.pi * (float(np.sum(np.abs(coeffs[keep:]))) + noise)

    def radius(self, theta):
        """x(theta), offset from the nearer band edge so it stays exact."""
        x1, x2 = self.cls.x1, self.cls.x2
        d1 = (x2 - x1) * np.sin(0.5 * theta) ** 2
        d2 = (x2 - x1) * np.cos(0.5 * theta) ** 2
        return np.where(d1 <= d2, x1 + d1, x2 - d2)

    def height(self, theta):
        return chebval(2.0 * np.asarray(theta) / math.pi - 1.0, self._series)


def nodoid_halfperiod(n, h, e):
    """Height t2 gained while the profile radius sweeps the band once."""
    if h == 0.0 or not e * math.copysign(1.0, h) < 0.0:
        raise ValueError("nodoid half-period needs EH < 0")
    return halfperiod_heights(n, h, e)[1]


def unduloid_halfperiod(n, h, e):
    """Height t2 of one rising half period; zero for the cylinder."""
    if h == 0.0 or not e * math.copysign(1.0, h) > 0.0:
        raise ValueError("unduloid half-period needs EH > 0")
    return halfperiod_heights(n, h, e)[1]


def halfperiod_heights(n, h, e):
    """Heights (t1, t2) gained from the start of the canonical traversal, x1
    for unduloids and x2 for nodoids, to x0 (the inflection or the vertical
    tangent) and to the far band edge.  Cylinders degenerate to (0, 0)."""
    cls = classify(n, h, e)
    if cls.family is Family.CYLINDER:
        return _ZERO, _ZERO
    if cls.family not in (Family.UNDULOID, Family.NODOID):
        raise ValueError(
            "half-period heights exist only for the periodic families")
    half = _HalfPeriod(cls)
    # x0 sits where tan(theta/2) = sqrt((x0 - x1) / (x2 - x0))
    t0 = float(half.height(2.0 * math.atan2(math.sqrt(cls.x0 - cls.x1),
                                            math.sqrt(cls.x2 - cls.x0))))
    t2 = float(half.height(math.pi))
    t1 = t0 if cls.family is Family.UNDULOID else t2 - t0
    return tuple(QuadratureResult(t, half.error, half.evaluations)
                 for t in (t1, t2))


def halfperiod_curve(cls, count):
    """(x, t) arrays of count + 1 points, evenly spaced in theta, on one half
    period of the periodic cls as its canonical start traverses it: an
    unduloid from x1 out to x2, a nodoid from x2 in to x1, t from 0 to t2."""
    half = _HalfPeriod(cls)
    theta = np.linspace(0.0, math.pi, count + 1)
    x, t = half.radius(theta), half.height(theta)
    if cls.family is Family.NODOID:
        return x[::-1], t[-1] - t[::-1]
    return x, t - t[0]
