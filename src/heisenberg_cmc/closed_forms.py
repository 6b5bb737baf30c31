"""Closed-form generating curves and the definite integrals attached to them.

The sphere and the n = 1 catenoid admit elementary profiles:

    sphere   t(x) = (1/(2H^2)) (Hx sqrt(1 - H^2 x^2) + arccos(Hx)),
    catenoid x(t) = sqrt(t^2 + E^4) / E.

Between its critical radii an unduloid or nodoid is the graph of
dt/dx = w x / sqrt(x^{4n-2} - w^2), w = E + H x^{2n}, over the band [x1, x2].
For n = 1 it is elementary: with epsilon = sqrt(1 - 4EH) and
x^2 = ((1 - 2EH) - epsilon cos(phi)) / (2H^2), the height above x1 is the
trochoid t(phi) = (phi - epsilon sin(phi)) / (4H^2), so t2 = pi / (4H^2) for
every E; halfperiod_heights and halfperiod_curve evaluate it (_trochoid).
For n >= 2, one Chebyshev series in the angle theta of x = m - r cos(theta),
where the band edges' inverse square roots cancel, gives t1, t2 and the
whole half period (_HalfPeriod); the closed-form traces use it for n = 1
too.  The edges leave the radicand (x^p - w)(x^p + w), p = 2n - 1, by one
factorization for both families, each edge divided out of the factor it is a
root of as a sum of powers (_band_cofactor).  Given many Classifications,
as from sweep, halfperiod_heights fits their series in NumPy stacks that
share n and the family (_half_periods), each bit for bit the series it gets
alone, as a stack of one.  The minimal (H = 0) profile for n >= 2 is the
graph of dt/dx = E x / sqrt(x^{2p} - E^2), and x = x1 sec^{1/p}(phi),
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
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .classify import Family, classify, n1_epsilon
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
_LEAST = 5e-324  # the least subnormal float
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
_STACK_ROWS = 64  # at degree 4096 a stack's arrays take about 2 MB each


class _Band:
    """The scalars of unduloids or nodoids of one n and family: floats for
    one (stacked=False), or (rows, 1) columns stacked from floats, powers
    included, since NumPy's array ** rounds otherwise than Python's **."""

    def __init__(self, clss, stacked=True):
        n = clss[0].n
        p = 2 * n - 1
        self.n, self.nodoid = n, clss[0].family is Family.NODOID
        try:  # x2^p is the largest power and, alone, a divisor
            rows = [[cls.h, cls.e, cls.x1, cls.x2, cls.x2 - cls.x1,
                     -cls.e / cls.x2 ** p,  # H x2 - 1
                     *(cls.x1 ** j for j in range(p + 1)),
                     *(cls.x2 ** j for j in range(p))] for cls in clss]
        except (OverflowError, ZeroDivisionError) as exc:
            how = ("overflows" if isinstance(exc, OverflowError) else
                   "underflows to 0")
            raise OverflowError(f"x2^{p} {how} at x2 = " + ", ".join(
                repr(cls.x2) for cls in clss)) from None
        scalars = np.array(rows).T[:, :, np.newaxis] if stacked else rows[0]
        self.h, self.e, self.x1, self.x2, self.width, self.lift = scalars[:6]
        self.x1_powers, self.x2_powers = scalars[6:p + 7], scalars[p + 7:]


def _band_cofactor(band, x):
    """q(x) > 0 with x^{4n-2} - w^2 = (x - x1)(x2 - x) q(x), at an array x.
    Of (x^p - w)(x^p + w), p = 2n - 1, each edge r leaves the factor f it is
    a root of by f(x) - f(r) = (x - r) P(x, r), and H x2 - 1 = -E / x2^p.
    Only an unduloid's H P_p - (E / x2^p) h_{p-2}(x, x1, x2) subtracts:
    < 1 bit."""
    n, h, x2 = band.n, band.h, band.x2
    p = 2 * n - 1

    def powsums(powers):  # P_j = (x^j - a^j) / (x - a), j = 1..p, by Horner
        sums = [1.0]
        for j in range(1, p):
            sums.append(x * sums[-1] + powers[j])
        return sums

    sums = powsums(band.x1_powers)
    if band.nodoid:
        return ((sums[-1] + h * (x * sums[-1] + band.x1_powers[p]))
                * (band.lift * powsums(band.x2_powers)[-1] + h * x ** p))
    # h_{p-2}(x, x1, x2) by h_k = x2 h_{k-1} + P_{k+1}(x, x1)
    complete = functools.reduce(lambda c, s: x2 * c + s, sums[:-1], 0.0)
    return ((x ** p + band.e + h * x ** (2 * n))
            * (h * sums[-1] + band.lift * complete))


def _radius(band, sin2, cos2):
    """x from sin^2(theta / 2) and cos^2(theta / 2), offset from the nearer
    band edge so it stays exact."""
    d1 = band.width * sin2
    d2 = band.width * cos2
    return np.where(d1 <= d2, band.x1 + d1, band.x2 - d2)


def _scale(band, x):
    """x / sqrt(q(x)).  q is held at the least normal float where it
    underflows, at x1 of a neck near 1e-100 and below, so dt/dtheta, of
    order x1^{3/2} there, rounds to about 0 instead of inf."""
    return x / np.sqrt(np.maximum(_band_cofactor(band, x), _TINY))


def _dct1(samples):
    """Unnormalized DCT-I, y_k = s_0 + (-1)^k s_N + 2 sum s_j cos(pi j k / N),
    as the real FFT of the even extension [s_0..s_N, s_{N-1}..s_1], row by
    row along the last axis, each with the bits of its own 1-D FFT."""
    return np.fft.rfft(
        np.concatenate([samples, samples[..., -2:0:-1]], axis=-1)).real


_FIRST_DEGREES, _MAX_DEGREE = (16, 32, 64), 4096  # one sample serves 16-64
_NEWTON_STEPS = 8
_RAMP = np.arange(_MAX_DEGREE + 2.0)  # 0, 1, ..., N + 1
_EVENS = 2.0 * _RAMP[1:]  # 2, 4, ..., 2 (N + 1)
_DIVISORS = np.append(1.0, _EVENS[1:])  # 1, 4, 6, ..., 2 (N + 1)


@functools.cache
def _plateau_tests(n):
    """The 0-based indices j2 - 1 of standardChop's plateau test pairs
    (j, j2 = round(1.25 j + 5)), j = 2, 3, ... while j2 <= n, on n
    coefficients, as a read-only array; the j - 1 run 1, 2, ..."""
    pairs = (round(1.25 * j + 5) - 1 for j in range(2, n + 1))
    ahead = np.array(list(itertools.takewhile(lambda i: i < n, pairs)))
    ahead.flags.writeable = False
    return ahead


def _standard_chop(coeffs, tols, lengths):
    """How many Chebyshev coefficients of each row of coeffs to keep, None
    while a row is unresolved, where row r holds a series of lengths[r]
    coefficients, zero-padded, and tols[r] in (1e-300, 1) is its noise
    relative to its largest value:
    Aurentz & Trefethen's standardChop ("Chopping a Chebyshev series",
    2017), which finds where |coeffs| levels off into a plateau, even one
    that roundoff holds well above tol.  It runs on the whole stack at once;
    the padding changes no envelope entry, every step rounds elementwise,
    and the per-row scalars log(tol), log10(tol) and tol^{7/6} are
    Python's, so each row keeps the result it gets alone.  (The logs of the
    envelope are NumPy's, which differ from math.log's by an ulp now and
    then; that decides the test only where its two sides tie to rounding.)
    A row of zeros keeps 1."""
    # the envelope max_{k >= j} |c_k| / max |c|, which does not increase;
    # the least subnormal divides a row of zeros and changes no other
    env = np.maximum.accumulate(np.abs(coeffs)[:, ::-1], axis=1)[:, ::-1]
    env = env / np.maximum(env[:, :1], _LEAST)
    # the plateau test at j = 2, 3, ... (1-based, as in the paper) passes
    # where e1 = env_j is 0 or e2 / e1 > 3 (1 - log(e1) / log(tol)), e2 =
    # env_{j2}, over the pairs whose j2 lies within the row.  A zero e1,
    # taken as the least subnormal, passes by the second test: for tol in
    # (1e-300, 1) its right side is below 0 = e2 / e1
    ahead = _plateau_tests(coeffs.shape[1])
    log_tol, floor, stop = np.array([
        [math.log(tol), tol ** (7.0 / 6.0), -math.log10(tol) / 3.0]
        for tol in tols]).T[:, :, np.newaxis]
    e1 = np.maximum(env[:, 1:len(ahead) + 1], _LEAST)
    plateau = env[:, ahead] / e1 > 3.0 * (1.0 - np.log(e1) / log_tol)
    if min(lengths) < coeffs.shape[1]:
        plateau &= ahead < np.array(lengths)[:, np.newaxis]
    hits = plateau.any(axis=1).tolist()
    if not any(hits):
        return [None] * len(hits)
    # at the first j that passes: the entries at or above the floor
    # tol^{7/6} lead the envelope, and where fewer than j2 do, the search
    # ends at the first below, raised to the floor.  The least envelope
    # plus np.linspace(0, -log10(tol) / 3, j2), a line that favours short
    # series (k times its step, ending at its stop), gives the length
    last = np.minimum(ahead[plateau.argmax(axis=1)],
                      (env >= floor).sum(axis=1))  # j2 - 1
    ramp = _RAMP[:int(last.max()) + 1]
    line = ramp * (stop[:, 0] / np.maximum(last, 1))[:, np.newaxis]
    line[np.arange(len(tols)), last] = stop[:, 0]
    biased = np.log10(np.maximum(env[:, :len(ramp)], floor)) + line
    biased[ramp > last[:, np.newaxis]] = np.inf
    keeps = np.maximum(biased.argmin(axis=1), 1).tolist()
    return [keep if hit else None for hit, keep in zip(hits, keeps)]


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


def _resolved(sample, items):
    """Chebyshev series in y on [-1, 1] of the functions of each of items,
    which sample(degree, some) returns for a list some of items at the
    Chebyshev points of that degree: (values, bounds) pairs of arrays with
    one row per item.  A function's noise at a degree is the sum, over its
    bound arrays, of eps times the row's maximum on that degree's points.

    The points of degree N are every (64/N)-th point of degree 64, so one
    sample at degree 64 serves degrees 16, 32 and 64.  One _standard_chop
    (_chopped) tests the first function at each degree a sample serves and
    the others at the degree sampled, and a later function is tested at a
    coarser degree only where the ones before it resolved there; an item's
    degree is the first that resolves all its functions.  (Per call, and
    per degree transformed, the chop costs a stack of one more than the
    series' own arithmetic: the functions share a call, and the later ones
    skip the coarse degrees, which rarely resolve.  Testing every function
    at every degree in one call made an arclength fit of one ~11% slower.)
    Past 64 the items still unresolved are sampled afresh at double the
    degree, and one unresolved at 4096 raises QuadratureError; samples that
    are not all finite, or a function's row of samples that are all 0,
    raise OverflowError.
    Every step rounds elementwise, so an item gets the bits it gets alone.
    Returns, for each item, the (coeffs, keep, noise) triple of each
    function and the number of points sampled: 65 when degree 64 resolves
    it, 65 + 129 at degree 128, and so on."""
    fitted = [None] * len(items)
    pending = list(range(len(items)))
    degrees, evaluations = _FIRST_DEGREES, 0
    while pending:
        sampled = degrees[-1]
        if sampled > _MAX_DEGREE:
            raise QuadratureError(
                "Chebyshev series unresolved at degree %d" % _MAX_DEGREE)
        with np.errstate(all="ignore"):  # refused just below
            pairs = sample(sampled, [items[i] for i in pending])
        if not all(np.isfinite(values).all() for values, _ in pairs):
            raise OverflowError(
                "Chebyshev samples of degree %d overflow a float" % sampled)
        if not all(values.any(axis=1).all() for values, _ in pairs):
            raise OverflowError(
                "Chebyshev samples of degree %d underflow to 0" % sampled)
        evaluations += sampled + 1
        rows, functions = range(len(pending)), range(len(pairs))
        fits = _chopped(pairs, sampled, [
            (0, d, k) for d in degrees for k in rows] + [
            (f, sampled, k) for f in functions[1:] for k in rows])
        for f in functions[1:]:
            fits.update(_chopped(pairs, sampled, [
                (f, d, k) for d in degrees[:-1] for k in rows
                if (f - 1, d, k) in fits]))
        for d in degrees:
            for k in rows:
                if fitted[pending[k]] is None and all(
                        (f, d, k) in fits for f in functions):
                    fitted[pending[k]] = (
                        [fits[f, d, k] for f in functions], evaluations)
        pending = [i for i in pending if fitted[i] is None]
        degrees = (2 * sampled,)
    return fitted


def _chopped(pairs, sampled, series):
    """The series named by (f, degree, k) triples, function f of row k of
    pairs (sampled at degree sampled) on the points of degree, that
    resolve, as {(f, degree, k): (coeffs, keep, noise)}.  Each (f, degree)
    group is transformed on its own rows and points, and one _standard_chop
    tests them all, zero-padded to one width."""
    if not series:
        return {}
    coeffs = np.zeros((len(series), sampled + 1))
    tols, noise, lengths = [], [], []
    for (f, degree), group in itertools.groupby(series, lambda s: s[:2]):
        values, bounds = pairs[f]
        rows = [k for _, _, k in group]
        # a view while the group takes every row
        pick = (slice(None) if len(rows) == len(values) else rows,
                slice(None, None, sampled // degree))
        part = values[pick]
        level = functools.reduce(
            operator.add, [_EPS * bound[pick].max(axis=1) for bound in bounds])
        block = coeffs[len(tols):len(tols) + len(rows), :degree + 1]
        np.divide(_dct1(part), degree, out=block)
        block[:, 0] *= 0.5
        block[:, -1] *= 0.5
        tols += (level / np.abs(part).max(axis=1)).tolist()
        noise += level.tolist()
        lengths += [degree + 1] * len(rows)
    keeps = _standard_chop(coeffs, tols, lengths)
    return {key: (row[:key[1] + 1], keep, level) for key, row, keep, level
            in zip(series, coeffs, keeps, noise) if keep is not None}


def _padded(fits):
    """The kept coefficients of each (coeffs, keep, noise) of fits as the
    rows of one matrix, zero-padded to the longest."""
    matrix = np.zeros((len(fits), max(keep for _, keep, _ in fits)))
    for row, (coeffs, keep, _) in zip(matrix, fits):
        row[:keep] = coeffs[:keep]
    return matrix


def _chebint(coeffs, scale):
    """chebint(c, lbnd=-1) * scale of numpy.polynomial.chebyshev for each
    row c of coeffs, series zero-padded to one length, by its recurrence,
    operation for operation.  Entry m >= 1 is c_{m-1} / 2m - c_{m+1} / 2m
    (c_0 / 1 at m = 1, and no difference past the series), so the padding
    adds only v - 0 and 0 / 2m, and each row gets its own bits followed by
    zeros.  Entry 0 is c_0 * 0 + (0 - v), v the sum at -1, to which that
    first term, +-0, adds nothing; numpy leaves the all-zero series one term
    long, here a row of zeros."""
    rows, k = coeffs.shape
    tmp = np.zeros((rows, k + 1))
    np.divide(coeffs, _DIVISORS[:k], out=tmp[:, 1:])
    tmp[:, 1:k - 1] -= coeffs[:, 2:] / _EVENS[:max(k - 2, 0)]
    tmp[:, 0] = [0 - v for v in _chebvals([[-1.0] * rows], tmp)[0]]
    return tmp * scale


def _chebval(x, c):
    """chebval(x, c) of numpy.polynomial.chebyshev, by its Clenshaw
    recurrence, operation for operation, for a list c of floats and a float
    or an array x, or for the columns c of a matrix of series and an array
    x with an entry per series."""
    if len(c) == 1:
        return c[0] + 0 * x
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        c0, c1 = c[-i] - c1, c0 + c1 * x2
    return c0 + c1 * x


def _chebvals(xs, series):
    """[[_chebval(x[r], series[r]) for each row r] for x in xs] of series,
    a matrix of series zero-padded to one length: across its rows a column
    at a time, bit for bit, since the padding only runs 0 - 0 and 0 + 0 x
    before each row's own terms, or on the Python floats of a single row,
    where NumPy's per-call cost would outweigh the arithmetic."""
    if len(series) == 1:
        c = series[0].tolist()
        return [[_chebval(x[0], c)] for x in xs]
    return _chebval(np.array(xs), np.ascontiguousarray(series.T)).tolist()


def _sin(theta):
    """sin(theta) on [0, pi], exactly 0 at both ends and accurate near pi."""
    return np.sin(np.minimum(theta, math.pi - theta))


def _sample(degree, clss, arclength=False):
    """_resolved's functions of the half periods of clss, of one n and
    family: dt/dtheta and, with arclength, ds/dtheta, with their bounds.  A
    stack of one is sampled on its floats, which round as its columns
    would, and cost NumPy less."""
    band = _Band(clss, stacked=len(clss) > 1)
    theta, sin2, cos2 = _grid(degree)
    x = _radius(band, sin2, cos2)
    scale = _scale(band, x)
    terms = band.h * x ** (2 * band.n)
    rise = (band.e + terms) * scale
    bound = (abs(band.e) + terms) * scale
    shape = (len(clss), degree + 1)
    rise, bound = rise.reshape(shape), bound.reshape(shape)
    pairs = [(rise, (bound,))]
    if arclength:
        speed = np.hypot(0.5 * band.width * _sin(theta), rise)
        pairs.append((speed, (bound, speed)))
    return pairs


class _Stack:
    """The half-period series of a stack of unduloids or nodoids of one n
    and family, fitted together by _resolved: the kept coefficients of each
    function in one zero-padded matrix, a row per classification, which
    _chebint integrates and _chebvals evaluates across its rows."""

    def __init__(self, clss, arclength=False):
        self.clss = clss
        fitted = _resolved(
            functools.partial(_sample, arclength=arclength), clss)
        self.evaluations = [evaluations for _, evaluations in fitted]
        rises = [fits[0] for fits, _ in fitted]
        self.keeps = [keep for _, keep, _ in rises]
        # the dropped tail plus the rounding of w's terms, which can exceed w
        self.errors = [math.pi * (float(np.abs(coeffs[keep:]).sum()) + noise)
                       for coeffs, keep, noise in rises]
        # in y = 2 theta / pi - 1, dtheta = (pi / 2) dy
        self.heights = _chebint(_padded(rises), 0.5 * math.pi)
        if arclength:
            speeds = [fits[1] for fits, _ in fitted]
            self.speed_keeps = [keep for _, keep, _ in speeds]
            self.speeds = _padded(speeds)
            self.arclengths = _chebint(self.speeds, 0.5 * math.pi)

    @functools.cached_property
    def ends(self):
        """The heights (t0, t2) above x1 of x0 and of x2 of each row."""
        thetas = ([_theta0(cls) for cls in self.clss],
                  [math.pi] * len(self.clss))
        return list(zip(*_chebvals(
            [[2.0 * theta / math.pi - 1.0 for theta in row] for row in thetas],
            self.heights)))


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
    grows until both are resolved.  The series are row `row` of a _Stack
    (_half_periods); without one, cls is fitted as a stack of one.
    """

    def __init__(self, cls, arclength=False, stack=None, row=0):
        if stack is None:
            stack = _Stack([cls], arclength)
        self.cls, self._stack, self._row = cls, stack, row
        self.degree = stack.keeps[row] - 1
        self.error = stack.errors[row]
        self.evaluations = stack.evaluations[row]

    @functools.cached_property
    def _series(self):
        return self._stack.heights[self._row, :self.degree + 2].tolist()

    @functools.cached_property
    def _speed(self):
        keep = self._stack.speed_keeps[self._row]
        return self._stack.speeds[self._row, :keep].tolist()

    @functools.cached_property
    def _arclength(self):
        keep = self._stack.speed_keeps[self._row]
        return self._stack.arclengths[self._row, :keep + 1].tolist()

    @functools.cached_property
    def _band(self):
        return _Band([self.cls], stacked=False)

    def radius(self, theta):
        """x(theta), offset from the nearer band edge so it stays exact."""
        return _radius(self._band, np.sin(0.5 * theta) ** 2,
                       np.cos(0.5 * theta) ** 2)

    def height(self, theta):
        return _chebval(2.0 * theta / math.pi - 1.0, self._series)

    def heights(self):
        """Heights (t0, t2) above x1 of x0 and of x2."""
        return self._stack.ends[self._row]

    def arclength(self, theta):
        return _chebval(2.0 * theta / math.pi - 1.0, self._arclength)

    def speed(self, theta):
        """ds/dtheta from its series, the derivative of arclength."""
        return _chebval(2.0 * theta / math.pi - 1.0, self._speed)

    def run(self, theta):
        """dx/dtheta = r sin(theta)."""
        return 0.5 * self._band.width * _sin(theta)

    def rise(self, theta):
        """dt/dtheta = w x / sqrt(q(x)) from the formula."""
        band = self._band
        x = self.radius(theta)
        w = band.e + band.h * x ** (2 * band.n)
        return w * _scale(band, x)


def _half_periods(clss):
    """The _HalfPeriod of each of clss, unduloids and nodoids fitted in
    stacks of up to _STACK_ROWS that share n and the family."""
    groups = {}
    for k, cls in enumerate(clss):
        groups.setdefault((cls.n, cls.family), []).append(k)
    halves = [None] * len(clss)
    for group in groups.values():
        for start in range(0, len(group), _STACK_ROWS):
            rows = group[start:start + _STACK_ROWS]
            stack = _Stack([clss[k] for k in rows])
            for row, k in enumerate(rows):
                halves[k] = _HalfPeriod(clss[k], stack=stack, row=row)
    return halves


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


def _phi0(cls):
    """The phi of x0 on an n = 1 half period, where
    tan(phi/2) = sqrt((x0^2 - x1^2) / (x2^2 - x0^2))."""
    x0, x1, x2 = cls.x0, cls.x1, cls.x2
    return 2.0 * math.atan2(math.sqrt((x0 - x1) * (x0 + x1)),
                            math.sqrt((x2 - x0) * (x2 + x0)))


def _trochoid(cls, phi):
    """(x, t) at phi on an n = 1 half period, where
    x^2 = ((1 - 2EH) - epsilon cos(phi)) / (2H^2) runs from x1 at phi = 0 to
    x2 at pi and t(phi) = (phi - epsilon sin(phi)) / (4H^2) is the height
    gained from x1.  x^2 is offset from the nearer band edge, across which
    it spans x2^2 - x1^2 = epsilon / H^2, so it stays exact.  Raises
    OverflowError where H^2, and so 4H^2, underflows to 0, or where the
    span overflows."""
    h = cls.h
    if h * h == 0.0:
        raise OverflowError(f"H^2 underflows to 0 at H = {h!r}")
    epsilon = n1_epsilon(h, cls.e)
    span = epsilon / (h * h)
    if span == math.inf:
        raise OverflowError(f"epsilon / H^2 overflows at H = {h!r}")
    sin2, cos2 = np.sin(0.5 * phi) ** 2, np.cos(0.5 * phi) ** 2
    x = np.sqrt(np.where(sin2 <= cos2, cls.x1 ** 2 + span * sin2,
                         cls.x2 ** 2 - span * cos2))
    return x, (phi - epsilon * _sin(phi)) / (4.0 * h * h)


def halfperiod_heights(*args):
    """halfperiod_heights(n, h, e) -> (t1, t2), the heights gained from the
    start of the canonical traversal, x1 for unduloids and x2 for nodoids,
    to x0 (the inflection or the vertical tangent) and to the far band
    edge; cylinders degenerate to (0, 0).  halfperiod_heights(clss) returns
    the pair of each of a sequence of Classifications, classifying nothing.

    For n = 1 they are exact (_trochoid): t2 = pi / (4H^2) for every E, and
    t(phi0) gives t1; error estimate 0 and evaluations 0.  The n >= 2 series
    are fitted in stacks (_half_periods), and each result's evaluations
    counts the points of dt/dtheta sampled: 65 for a series resolved by
    degree 64, 65 + 129 for one resolved at 128, and so on."""
    if len(args) != 1:
        return halfperiod_heights([classify(*args)])[0]
    clss = args[0]
    if any(cls.family not in (Family.CYLINDER, Family.UNDULOID, Family.NODOID)
           for cls in clss):
        raise ValueError(
            "half-period heights exist only for the periodic families")
    halves = iter(_half_periods([cls for cls in clss if cls.n > 1 and
                                 cls.family is not Family.CYLINDER]))
    heights = []
    for cls in clss:
        if cls.family is Family.CYLINDER:
            heights.append((_ZERO, _ZERO))
            continue
        if cls.n == 1:
            t0 = float(_trochoid(cls, _phi0(cls))[1])
            t2, error, evaluations = math.pi / (4.0 * cls.h * cls.h), 0.0, 0
        else:
            half = next(halves)
            (t0, t2), error, evaluations = (half.heights(), half.error,
                                            half.evaluations)
        t1 = t0 if cls.family is Family.UNDULOID else t2 - t0
        heights.append((QuadratureResult(t1, error, evaluations),
                        QuadratureResult(t2, error, evaluations)))
    return heights


def halfperiod_curve(cls, count):
    """(x, t) arrays of count + 1 points on one half period of the periodic
    cls as its canonical start traverses it: an unduloid from x1 out to x2, a
    nodoid from x2 in to x1, t from 0 to t2.  The points are evenly spaced in
    phi of the exact n = 1 curve (_trochoid), in theta of the Chebyshev
    series for n >= 2."""
    angle = np.linspace(0.0, math.pi, count + 1)
    if cls.n == 1:
        x, t = _trochoid(cls, angle)
    else:
        half = _HalfPeriod(cls)
        x, t = half.radius(angle), half.height(angle)
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

        def sample(degree, _):
            # phi = theta / 2 = (pi / 4)(1 + y), a stack of one row
            speed = self.slope(0.5 * _grid(degree)[0])[np.newaxis]
            return [(speed, (speed,))]

        ((fits, _),) = _resolved(sample, [h])
        keep = fits[0][1]
        self._series = _chebint(_padded(fits), 0.25 * math.pi)[0].tolist()
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
    parameter by Newton's method on the arclength series, kept within the
    traversal's nodes.  Events are the ODE's: CriticalRadius where a half
    period ends (not at the start), VerticalTangent at a nodoid's x0, and a
    terminal AxisContact where x falls to config.axis_epsilon; a start
    (initial_state(cls)) inside that margin raises AxisPointError; a
    cylinder, (x1, s, 0), records none.
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
        # a root rounded an ulp past an end would leave the half period: past
        # a nodoid's x1, atan2 jumps from sigma = -pi to +pi
        return tuple(float(v) for v in where(min(max(p, lo), hi)))

    s_nodes = arc.arclength(arc.nodes)
    lo, hi = float(np.min(arc.nodes)), float(np.max(arc.nodes))
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
