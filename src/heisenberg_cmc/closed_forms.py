"""Closed-form generating curves and the definite integrals attached to them.

The sphere and the n = 1 catenoid admit elementary profiles:

    sphere   t(x) = (1/(2H^2)) (Hx sqrt(1 - H^2 x^2) + arccos(Hx)),
    catenoid x(t) = sqrt(t^2 + E^4) / E.

Between its critical radii an unduloid or nodoid is the graph of
dt/dx = w x / sqrt(x^{4n-2} - w^2), w = E + H x^{2n}, over the band [x1, x2].
One Chebyshev series in the angle theta of x = m - r cos(theta), where the
band edges' inverse square roots cancel, gives t1, t2 and the whole half
period (_HalfPeriod).  The minimal (H = 0) profile for n >= 2 is the graph of
dt/dx = E x / sqrt(x^{2p} - E^2), p = 2n - 1, and x = x1 sec^{1/p}(phi),
x1 = E^{1/p}, turns it into dt = (x1^2/p) sec^{2/p}(phi) dphi: the slab
half-width t_inf is a complete Beta function and the height above the waist
an incomplete one.  singular_quadrature, a u^2 = x - a substitution fed to
adaptive Gauss-Kronrod with exact endpoint offsets, stays as the reference
for integrals with inverse-square-root endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebval
from scipy.fft import dct
from scipy.integrate import quad
from scipy.special import beta, betainc

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
    "catenoid_curve",
    "nodoid_halfperiod",
    "unduloid_halfperiod",
    "halfperiod_heights",
    "halfperiod_curve",
]

_SINGULAR_SPECS = ("lower", "upper", "both", "none")
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


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


def singular_quadrature(f, a, b, singular="both", *, rel_tol=1e-12,
                        abs_tol=1e-14):
    """Integrate f over [a, b] allowing inverse-square-root endpoint blowup.

    ``singular`` declares which endpoints are singular ("lower", "upper",
    "both", "none"); u^2 = x - a (or b - x) is substituted there, and each
    half of [a, b] goes to adaptive Gauss-Kronrod quadrature (QUADPACK).
    The integrand is called as f(x, da, db) with da = x - a and db = b - x
    computed without cancellation, so endpoint singularities should be
    evaluated from the offsets, not from x.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("integration interval must be finite with a < b")
    if singular not in _SINGULAR_SPECS:
        raise ValueError("singular must be one of %s" % (_SINGULAR_SPECS,))
    span, mid = b - a, 0.5 * (a + b)
    calls = 0

    def g(x, da, db):
        nonlocal calls
        calls += 1
        return f(x, da, db)

    def left(u):
        da = u * u
        return 2.0 * u * g(a + da, da, span - da)

    def right(u):
        db = u * u
        return 2.0 * u * g(b - db, span - db, db)

    def plain(x):
        return g(x, x - a, b - x)

    halves = (
        (left, 0.0, math.sqrt(mid - a)) if singular in ("lower", "both")
        else (plain, a, mid),
        (right, 0.0, math.sqrt(b - mid)) if singular in ("upper", "both")
        else (plain, mid, b),
    )
    value = err = 0.0
    for fun, lo, hi in halves:
        out = quad(fun, lo, hi, epsabs=abs_tol, epsrel=rel_tol, limit=200,
                   full_output=1)
        if len(out) > 3:
            raise QuadratureError(out[3])
        value += out[0]
        err += out[1]
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


def catenoid_slab_halfwidth(n, e):
    """Half-width t_inf of the slab containing the minimal profile.

    t_inf = int_{x1}^{inf} E x / sqrt(x^{4n-2} - E^2) dx with x1 = E^{1/p},
    p = 2n - 1.  x = x1 sec^{1/p}(phi) turns it into (x1^2/p) times
    int_0^{pi/2} sec^{2/p}(phi) dphi = B(1/2, 1/2 - 1/p) / 2 (DLMF 5.12.2).
    The integrand tends to E x^{2-2n}, so the tail converges only for
    n >= 2; for n = 1 the partial integrals E sqrt(X^2 - E^2) grow linearly
    and a DivergentIntegralError reports them.
    """
    n = dimension_index(n)
    e = float(e)
    if not 0.0 < e < math.inf:
        raise ValueError("slab half-width needs a finite E > 0")
    p = 2 * n - 1
    x1 = e ** (1.0 / p)
    if n == 1:
        partials = ", ".join(
            "P(%g x1) = %.6g" % (m, e * math.sqrt((m * x1) ** 2 - e * e))
            for m in (10.0, 100.0, 1000.0)
        )
        raise DivergentIntegralError(
            "slab half-width diverges for n = 1: the integrand tends to E, so "
            "partial integrals grow linearly in the cutoff (%s)" % partials
        )
    return float(x1 * x1 / (2 * p) * beta(0.5, 0.5 - 1.0 / p))


def catenoid_curve(n, e, count):
    """(x, t) arrays of the n >= 2 minimal profile of energy E > 0: 2 count + 1
    points evenly spaced in phi over [-phi_max, phi_max], where
    x = x1 sec^{1/p}(phi), with the waist (x1, 0) in the middle and
    x = 4 x1 + 3 at both ends.  The height above the waist is
    t = t_inf I_{sin^2 phi}(1/2, 1/2 - 1/p) (DLMF 8.17), t_inf the slab
    half-width.
    """
    t_inf = catenoid_slab_halfwidth(n, e)
    p = 2 * dimension_index(n) - 1
    x1 = float(e) ** (1.0 / p)
    x_end = 4.0 * x1 + 3.0
    # cos(phi_max) = (x1 / x_end)^p, read as sin(psi) of psi = pi/2 - phi so
    # that small cosines keep their digits; the floor keeps it off 0 when E
    # is near the underflow threshold
    psi_min = math.asin(max((x1 / x_end) ** p, _TINY))
    frac = np.linspace(0.0, 1.0, count + 1)
    phi = frac * (0.5 * math.pi - psi_min)
    psi = psi_min + (0.5 * math.pi - psi_min) * (1.0 - frac)
    inner = phi <= psi
    cos = np.where(inner, np.cos(phi), np.sin(psi))
    sin = np.where(inner, np.sin(phi), np.cos(psi))
    b = 0.5 - 1.0 / p
    x = x1 / cos ** (1.0 / p)
    x[-1] = x_end
    # I_y(a, b) = 1 - I_{1-y}(b, a) (DLMF 8.17.4): past phi = pi/4 the small
    # cos^2, not 1 - sin^2, is the argument
    t = t_inf * np.where(inner, betainc(0.5, b, sin * sin),
                         1.0 - betainc(b, 0.5, cos * cos))
    return np.append(x[:0:-1], x), np.append(-t[:0:-1], t)


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
