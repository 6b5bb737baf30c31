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
half-width t_inf is a complete Beta function, from math.gamma, and the
height above the waist an incomplete one, from its continued fraction.
singular_quadrature, a u^2 = x - a substitution with exact endpoint offsets
fed to Gauss-Legendre rules of doubling order, stays as the reference for
integrals with inverse-square-root endpoints.  Nothing here needs SciPy.

canonical_trajectory(cls, config) traces the canonical sphere, cylinder,
unduloid or nodoid of a Classification from these curves, with a second
Chebyshev series for the arclength, mirrored in t when cls.flip, and returns
the profile_ode.Trajectory that the ODE would: no ODE is solved.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .classify import Family, classify
from .core import dimension_index
from .errors import AxisPointError, DivergentIntegralError, QuadratureError
from .profile_ode import (
    CYLINDER_NOTE,
    Event,
    EventKind,
    ProfileState,
    Trajectory,
    initial_state,
    periodic_continuation,
    truncated,
)

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
    "canonical_trajectory",
]

_SINGULAR_SPECS = ("lower", "upper", "both", "none")
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_QUAD_REL_TOL = 1e-12


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


# quad's Gauss-Legendre orders double from the first to the last
_FIRST_ORDER, _LAST_ORDER = 8, 1024
_leggauss = functools.cache(leggauss)  # order -> (nodes, weights)


def quad(fun, a, b, *, epsabs, epsrel):
    """int_a^b fun(x) dx by Gauss-Legendre rules of order N = 8, 16, ...,
    1024, stopping at the first N whose I_N agrees with I_{N/2} to
    max(epsabs, epsrel |I_N|).  Returns (I_N, |I_N - I_{N/2}|, {"neval":
    evaluations over all orders}), the shape of QUADPACK's full output, and
    a fourth element, a message, when no two orders agree."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    order, previous, neval = _FIRST_ORDER, None, 0
    while True:
        nodes, weights = _leggauss(order)
        values = [fun(x) for x in (mid + half * nodes).tolist()]
        neval += order
        value = half * float(np.dot(weights, values))
        if previous is not None:
            err = abs(value - previous)
            if err <= max(epsabs, epsrel * abs(value)):
                return value, err, {"neval": neval}
            if order >= _LAST_ORDER:
                return value, err, {"neval": neval}, (
                    f"Gauss-Legendre orders {order // 2} and {order} differ "
                    f"by {err:.3e}")
        previous = value
        order *= 2


def singular_quadrature(f, a, b, singular="both", *, abs_tol=1e-14):
    """Integrate f over [a, b] allowing inverse-square-root endpoint blowup.

    ``singular`` declares which endpoints are singular ("lower", "upper",
    "both", "none"); u^2 = x - a (or b - x) is substituted there, which
    leaves a smooth integrand, and each half of [a, b] goes to quad's
    Gauss-Legendre rules.  The integrand is called as f(x, da, db) with
    da = x - a and db = b - x computed without cancellation, so endpoint
    singularities should be evaluated from the offsets, not from x.  Raises
    QuadratureError where no two orders agree.
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
        out = quad(fun, lo, hi, epsabs=abs_tol, epsrel=_QUAD_REL_TOL)
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
    int_0^{pi/2} sec^{2/p}(phi) dphi = B(1/2, 1/2 - 1/p) / 2 (DLMF 5.12.2),
    with B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b).
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
    b = 0.5 - 1.0 / p
    beta = math.gamma(0.5) * math.gamma(b) / math.gamma(0.5 + b)
    return x1 * x1 / (2 * p) * beta


_CF_TERMS = 40


def _betainc(a, b, x):
    """Regularized incomplete Beta function I_x(a, b) of an array x in
    [0, 1/2], for a, b in (0, 1]: x^a (1 - x)^b / (a B(a, b)) over the
    continued fraction 1 + d_1 / (1 + d_2 / (1 + ...)) of DLMF 8.17.22,
    d_{2m+1} = -(a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1)) and
    d_{2m} = m (b - m) x / ((a + 2m - 1)(a + 2m)).  It is evaluated from
    d_40 back to d_1: on x <= 1/2 the terms past d_30 change no bit, and
    the backward recurrence, unlike the running product of the forward
    (Lentz) method, keeps the rounding to a few ulps."""
    x = np.asarray(x, dtype=float)
    tail = np.ones_like(x)
    for k in range(_CF_TERMS, 0, -1):
        m = k // 2
        if k % 2:
            d = -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            d = m * (b - m) / ((a + 2 * m - 1) * (a + 2 * m))
        tail = 1.0 + d * x / tail
    scale = math.gamma(a + b) / (a * math.gamma(a) * math.gamma(b))
    return x ** a * (1.0 - x) ** b * scale / tail


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
    # cos^2, not 1 - sin^2, is the argument.  Each branch runs on its own
    # points only: _betainc holds only for arguments up to 1/2
    t = np.empty(count + 1)
    t[inner] = _betainc(0.5, b, sin[inner] ** 2)
    t[~inner] = 1.0 - _betainc(b, 0.5, cos[~inner] ** 2)
    t *= t_inf
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
        # x^{2n-1} - w = -H x^{2n} + x^{2n-1} - E over (x - x1) and (x - x2)
        # by synthetic division, the quotients np.polydiv would return
        rest = [-h, 1.0] + [0.0] * (2 * n - 2) + [-e]
        for root in (x1, x2):
            quotient = [rest[0]]
            for c in rest[1:-1]:
                quotient.append(c + quotient[-1] * root)
            rest = quotient
        return lambda x: (-np.polyval(rest, x)
                          * (x ** (2 * n - 1) + e + h * x ** (2 * n)))

    def powsum(x, a, k):  # (x^k - a^k) / (x - a)
        return sum(x ** i * a ** (k - 1 - i) for i in range(k))

    lift = -e / x2 ** (2 * n - 1)  # H x2 - 1, which cancels as a difference
    return lambda x: ((powsum(x, x1, 2 * n - 1) + h * powsum(x, x1, 2 * n))
                      * (lift * powsum(x, x2, 2 * n - 1) + h * x ** (2 * n - 1)))


def _dct1(samples):
    """Unnormalized DCT-I, y_k = s_0 + (-1)^k s_N + 2 sum s_j cos(pi j k / N),
    as the real FFT of the even extension [s_0..s_N, s_{N-1}..s_1]."""
    return np.fft.rfft(np.concatenate([samples, samples[-2:0:-1]])).real


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
    plateau, log_tol = env.tolist(), math.log(tol)
    for j in range(2, n + 1):  # 1-based, as in the paper
        j2 = round(1.25 * j + 5)
        if j2 > n:
            return None
        e1 = plateau[j - 1]
        if e1 == 0.0 or plateau[j2 - 1] / e1 > 3.0 * (1.0 - math.log(e1) / log_tol):
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


_FIRST_DEGREE, _ONE_PASS_DEGREE, _MAX_DEGREE = 16, 64, 4096
_NEWTON_STEPS = 8


@functools.cache
def _grid(degree):
    """theta = (pi / 2)(1 + y) at the Chebyshev points y = cos(pi k / degree),
    k = 0..degree, with sin^2(theta / 2) and cos^2(theta / 2), as read-only
    arrays built on the first call for each degree."""
    y = np.cos(np.arange(degree + 1) * math.pi / degree)
    theta = 0.5 * math.pi * (1.0 + y)
    grid = (theta, np.sin(0.5 * theta) ** 2, np.cos(0.5 * theta) ** 2)
    for values in grid:
        values.flags.writeable = False
    return grid


def _resolved(sample):
    """Chebyshev series in y on [-1, 1] of the functions that sample(degree)
    returns at the Chebyshev points of that degree, a list of (values,
    bounds) pairs: a function's noise at a degree is the sum, over its bound
    arrays, of eps times the array's maximum on that degree's points.

    The points of degree N are every (64/N)-th point of degree 64, so one
    sample at degree 64 serves degrees 16, 32 and 64; _chop tests every
    function at each in turn, each against its noise on that degree's own
    points, and the first degree that resolves them all wins.  Past 64 the
    degree doubles with a fresh sample, and a series still unresolved at
    degree 4096 raises QuadratureError.  Returns the (coeffs, keep, noise)
    triple of each function and the number of points sampled: 65 when
    degree 64 resolves them, 65 + 129 at degree 128, and so on."""
    degree, sampled, evaluations = _FIRST_DEGREE, 0, 0
    while degree <= _MAX_DEGREE:
        if degree > sampled:
            sampled = max(degree, _ONE_PASS_DEGREE)
            pairs = sample(sampled)
            evaluations += sampled + 1
        stride = sampled // degree
        fits = []
        for values, bounds in pairs:
            values = values[::stride]
            noise = 0.0
            for bound in bounds:
                noise += _EPS * float(np.max(bound[::stride]))
            coeffs = _dct1(values) / degree
            coeffs[[0, -1]] *= 0.5
            keep = _chop(coeffs, noise / float(np.max(np.abs(values))))
            if keep is None:
                break
            fits.append((coeffs, keep, noise))
        else:
            return fits, evaluations
        degree *= 2
    raise QuadratureError(
        "Chebyshev series unresolved at degree %d" % _MAX_DEGREE)


def _chebint(c, scale):
    """chebint(c, lbnd=-1) * scale of numpy.polynomial.chebyshev for a list
    c of floats, by its recurrence, operation for operation.  Like numpy's,
    it leaves the all-zero series (keep 1 from _chop) one term long."""
    n = len(c)
    if n == 1 and c[0] == 0.0:
        return [(c[0] + 0) * scale]
    tmp = [c[0] * 0, c[0]] + [0.0] * (n - 1)
    if n > 1:
        tmp[2] = c[1] / 4
    for j in range(2, n):
        tmp[j + 1] = c[j] / (2 * (j + 1))
        tmp[j - 1] -= c[j] / (2 * (j - 1))
    tmp[0] += 0 - _chebval(-1.0, tmp)
    return [v * scale for v in tmp]


def _chebval(x, c):
    """chebval(x, c) of numpy.polynomial.chebyshev for a list c of floats
    and a float or an array x, by its Clenshaw recurrence, operation for
    operation."""
    if len(c) == 1:
        return c[0] + 0 * x
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        c0, c1 = c[-i] - c1, c0 + c1 * x2
    return c0 + c1 * x


def _sin(theta):
    """sin(theta) on [0, pi], exactly 0 at both ends and accurate near pi."""
    return np.sin(np.minimum(theta, math.pi - theta))


class _HalfPeriod:
    """One half period of an unduloid or nodoid as a Chebyshev series.

    x(theta) = m - r cos(theta) runs from x1 at theta = 0 to x2 at pi, and
    the band edges' inverse square roots cancel against dx = r sin(theta)
    dtheta: dt/dtheta = w x / sqrt(q(x)) is analytic on [0, pi].  Its
    Chebyshev interpolant (resolved by _resolved from one sample at degree
    64, or fresh samples of higher degree) integrates to T(theta), the
    height gained from x1 (Trefethen, Approximation Theory and Approximation
    Practice, ch. 3, 7 and 19).  With arclength=True the same samples give
    a second series, of ds/dtheta = sqrt(r^2 sin^2(theta) + (dt/dtheta)^2),
    which integrates to S(theta), the arclength from x1; the degree then
    grows until both are resolved.
    """

    def __init__(self, cls, arclength=False):
        self.cls = cls
        self._cofactor = _band_cofactor(cls)

        def sample(degree):
            theta, sin2, cos2 = _grid(degree)
            x = self._radius(sin2, cos2)
            scale = x / np.sqrt(self._cofactor(x))
            terms = cls.h * x ** (2 * cls.n)
            rise = (cls.e + terms) * scale
            bound = (abs(cls.e) + terms) * scale
            pairs = [(rise, (bound,))]
            if arclength:
                speed = np.hypot(self.run(theta), rise)
                pairs.append((speed, (bound, speed)))
            return pairs

        fits, self.evaluations = _resolved(sample)
        coeffs, keep, noise = fits[0]
        self.degree = keep - 1
        # in y = 2 theta / pi - 1, dtheta = (pi / 2) dy; the error is the
        # dropped tail plus the rounding of w's terms, which can exceed w
        self._series = _chebint(coeffs[:keep].tolist(), 0.5 * math.pi)
        self.error = math.pi * (float(np.sum(np.abs(coeffs[keep:]))) + noise)
        if arclength:
            coeffs, keep, _ = fits[1]
            self._speed = coeffs[:keep].tolist()
            self._arclength = _chebint(self._speed, 0.5 * math.pi)

    def radius(self, theta):
        """x(theta), offset from the nearer band edge so it stays exact."""
        return self._radius(np.sin(0.5 * theta) ** 2,
                            np.cos(0.5 * theta) ** 2)

    def _radius(self, sin2, cos2):
        """x from sin^2(theta / 2) and cos^2(theta / 2)."""
        x1, x2 = self.cls.x1, self.cls.x2
        d1 = (x2 - x1) * sin2
        d2 = (x2 - x1) * cos2
        return np.where(d1 <= d2, x1 + d1, x2 - d2)

    def height(self, theta):
        return _chebval(2.0 * theta / math.pi - 1.0, self._series)

    def arclength(self, theta):
        return _chebval(2.0 * theta / math.pi - 1.0, self._arclength)

    def speed(self, theta):
        """ds/dtheta from its series, the derivative of arclength."""
        return _chebval(2.0 * theta / math.pi - 1.0, self._speed)

    def run(self, theta):
        """dx/dtheta = r sin(theta)."""
        return 0.5 * (self.cls.x2 - self.cls.x1) * _sin(theta)

    def rise(self, theta):
        """dt/dtheta = w x / sqrt(q(x)) from the formula."""
        x = self.radius(theta)
        w = self.cls.e + self.cls.h * x ** (2 * self.cls.n)
        return w * (x / np.sqrt(self._cofactor(x)))


def _theta0(cls):
    """The theta of x0, where tan(theta/2) = sqrt((x0 - x1) / (x2 - x0))."""
    return 2.0 * math.atan2(math.sqrt(cls.x0 - cls.x1),
                            math.sqrt(cls.x2 - cls.x0))


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
    tangent) and to the far band edge.  Cylinders degenerate to (0, 0).
    Each result's evaluations counts the points of dt/dtheta sampled: 65
    for a series resolved by degree 64, 65 + 129 for one resolved at 128,
    and so on."""
    cls = classify(n, h, e)
    if cls.family is Family.CYLINDER:
        return _ZERO, _ZERO
    if cls.family not in (Family.UNDULOID, Family.NODOID):
        raise ValueError(
            "half-period heights exist only for the periodic families")
    half = _HalfPeriod(cls)
    t0 = float(half.height(_theta0(cls)))
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


# ---------------------------------------------------------------------------
# canonical traces without an ODE solve


class _PeriodicArc:
    """The canonical traversal of one half period, parameterized by theta:
    an unduloid runs from x1 (theta = 0) out to x2, a nodoid from x2
    (theta = pi) in to x1, where it stops early at the axis margin when x1
    lies inside it.  Nodes sit at theta = pi k / m, m the kept degree of the
    height series."""

    def __init__(self, cls, axis_epsilon):
        half = self.half = _HalfPeriod(cls, arclength=True)
        self.nodoid = cls.family is Family.NODOID
        m = max(half.degree, 1)
        theta = np.arange(m + 1) * (math.pi / m)
        self._t0, self._t_pi = half.height(0.0), half.height(math.pi)
        self._s0, self._s_pi = half.arclength(0.0), half.arclength(math.pi)
        self.interior = []
        if not self.nodoid:
            self.nodes, self.end = theta, EventKind.CRITICAL_RADIUS
            return
        theta0 = _theta0(cls)
        stop = 0.0
        self.end = EventKind.CRITICAL_RADIUS
        if cls.x1 < axis_epsilon:
            # x(theta) = x1 + (x2 - x1) sin^2(theta / 2) reaches the margin
            stop = 2.0 * math.asin(math.sqrt(
                (axis_epsilon - cls.x1) / (cls.x2 - cls.x1)))
            self.end = EventKind.AXIS_CONTACT
        if theta0 > stop:
            self.interior.append((EventKind.VERTICAL_TANGENT, theta0))
        self.nodes = np.append(theta[theta > stop][::-1], stop)

    def arclength(self, theta):
        if self.nodoid:
            return self._s_pi - self.half.arclength(theta)
        return self.half.arclength(theta) - self._s0

    def slope(self, theta):
        speed = self.half.speed(theta)
        return -speed if self.nodoid else speed

    def state(self, theta):
        """(x, t, sigma), sigma = atan2(dx, dt) along the traversal; it stays
        within (-pi, 0] on a nodoid's half period, so needs no unwinding."""
        half = self.half
        run, rise = half.run(theta), half.rise(theta)
        if self.nodoid:
            t, run = self._t_pi - half.height(theta), -run
        else:
            t = half.height(theta) - self._t0
        return half.radius(theta), t, np.arctan2(run, rise)


class _SphereArc:
    """The sphere from its equator to the axis margin, parameterized by
    phi = psi - pi/2 of sphere_generating_curve: x = cos(phi) / H,
    t = (phi + sin(phi) cos(phi)) / (2 H^2), with the arclength a Chebyshev
    series of ds/dphi = sqrt(sin^2(phi) / H^2 + cos^4(phi) / H^4) on
    [0, pi/2].  The curve is the same for every n."""

    interior = ()
    end = EventKind.AXIS_CONTACT

    def __init__(self, h, axis_epsilon):
        self.h = h

        def sample(degree):
            # phi = theta / 2 = (pi / 4)(1 + y)
            speed = self.slope(0.5 * _grid(degree)[0])
            return [(speed, (speed,))]

        fits, _ = _resolved(sample)
        coeffs, keep, _ = fits[0]
        self._series = _chebint(coeffs[:keep].tolist(), 0.25 * math.pi)
        m = max(keep - 1, 1)
        phi = np.arange(m + 1) * (0.5 * math.pi / m)
        stop = 0.5 * math.pi - math.asin(h * axis_epsilon)  # x = epsilon
        self.nodes = np.append(phi[phi < stop], stop)

    def slope(self, phi):
        """ds/dphi from the formula."""
        h = self.h
        return np.hypot(np.sin(phi) / h, np.cos(phi) ** 2 / (h * h))

    def arclength(self, phi):
        y = 4.0 * phi / math.pi - 1.0
        return _chebval(y, self._series) - _chebval(-1.0, self._series)

    def state(self, phi):
        h, sin, cos = self.h, np.sin(phi), np.cos(phi)
        return (cos / h, (phi + sin * cos) / (2.0 * h * h),
                np.arctan2(-h * sin, cos * cos))


def canonical_trajectory(cls, config):
    """The trace of integrate(n, h, e=e, config=config), cls = classify(n, h,
    e), from closed forms instead of the ODE, for the sphere, the cylinder,
    the unduloid and the nodoid.

    Samples, events and the dense evaluator come from the curve's closed
    form or Chebyshev series: the dense map s -> state finds the curve
    parameter by Newton's method on the arclength series.  Events are the
    ODE's: CriticalRadius where a half period ends (not at the start),
    VerticalTangent at a nodoid's x0, and a terminal AxisContact where x
    falls to config.axis_epsilon; a start (initial_state(cls)) inside that
    margin raises AxisPointError; a cylinder, (x1, s, 0), records none.
    Half periods are tiled by periodic_continuation, as in integrate;
    cls.flip (H < 0) runs the (x, -t, pi - sigma) mirror.  The samples carry
    no drift gate: their level-set residual is the rounding of E's terms.
    Raises QuadratureError where a series needs a degree above 4096.
    """
    if cls.family in (Family.HYPERPLANE, Family.CATENOID):
        raise ValueError(f"no closed-form trace for the {cls.family.value}")
    start, _, angle = initial_state(cls)
    eps = config.axis_epsilon
    if start <= eps:
        raise AxisPointError(
            f"initial radius {start} is inside the axis margin {eps}")
    h, e = (-cls.h, -cls.e) if cls.flip else (cls.h, cls.e)
    if cls.family is Family.CYLINDER:
        way = -1.0 if cls.flip else 1.0
        end = config.max_arclength
        return truncated(Trajectory(
            n=cls.n, h=h, e=e, s=np.array([0.0, end]),
            states=np.array([[start, 0.0, angle], [start, way * end, angle]]),
            events=[], config=config, dense=lambda u: (start, way * u, angle),
            notes=[CYLINDER_NOTE], engine="closed-form"), config)
    arc = (_SphereArc(cls.h, eps) if cls.family is Family.SPHERE
           else _PeriodicArc(cls, eps))

    def where(p):
        x, t, sigma = arc.state(p)
        # + 0.0 turns the -0.0 of atan2(-0.0, c) into the start's 0
        return (x, -t, math.pi - sigma) if cls.flip else (x, t, sigma + 0.0)

    def dense(s):
        p = float(np.interp(s, s_nodes, arc.nodes))
        for _ in range(_NEWTON_STEPS):
            step = (float(arc.arclength(p)) - s) / float(arc.slope(p))
            p -= step
            if abs(step) <= 4.0 * _EPS:
                break
        return tuple(float(v) for v in where(p))

    s_nodes = arc.arclength(arc.nodes)
    states = np.column_stack(where(arc.nodes))
    events = [Event(kind, float(arc.arclength(p)),
                    ProfileState(*map(float, where(p))))
              for kind, p in arc.interior]
    events.append(Event(arc.end, float(s_nodes[-1]),
                        ProfileState(*map(float, states[-1]))))
    traj = Trajectory(n=cls.n, h=h, e=e, s=s_nodes, states=states,
                      events=events, config=config, dense=dense,
                      engine="closed-form")
    if arc.end is EventKind.CRITICAL_RADIUS:
        return periodic_continuation(traj, config)
    return truncated(traj, config)
