"""Classification of rotational constant mean curvature profiles by (n, H, E).

A generating curve with mean curvature H in H^n conserves

    E = x^{2n-1} cos(sigma) / sqrt(x^2 sin^2(sigma) + cos^2(sigma)) - H x^{2n},

and the pair (H, E) determines the congruence class of the complete profile.
The admissible radial band is x^{2n-1} >= |E + H x^{2n}|; its boundary radii
are roots of the two polynomials

    f1(x) = x^{2n-1} + E + H x^{2n},    f2(x) = x^{2n-1} - E - H x^{2n},

and sign(cos sigma) = sign(E + H x^{2n}) along the curve.  Everything is
invariant under (H, E) -> (-H, -E), which is just reversing the traversal
direction, so inputs are normalized to H >= 0 and the classification records
in flip whether that mirror was taken.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .core import dimension_index
from .errors import NoAdmissibleRadiusError, RootBracketFailureError

__all__ = [
    "Family",
    "Classification",
    "classify",
    "cylinder_radius",
    "cylinder_energy",
    "admissible_radii",
    "n1_epsilon",
    "inflection_radius",
    "descartes_bound",
]

_CYLINDER_TOL = 1e-12
# tolerances and iteration cap of the bracketed root search, _brentq
_XTOL, _RTOL, _MAXITER = 1e-14, 8.9e-16, 100


class Family(str, enum.Enum):
    HYPERPLANE = "Hyperplane"
    CATENOID = "Catenoid"
    SPHERE = "Sphere"
    CYLINDER = "Cylinder"
    UNDULOID = "Unduloid"
    NODOID = "Nodoid"


@dataclass(frozen=True)
class Classification:
    """Family plus the distinguished radii (normalized so h >= 0).

    x1 <= x2 bound the admissible band where both are defined.  x0 is the
    inflection radius for unduloids, the vertical tangent radius
    (-e/h)^{1/2n} for nodoids, and the common radius for cylinders; None for
    the families without a bounded band.  Catenoids carry their waist radius
    in x1.  flip records that the input had H < 0: the profile is then the
    normalized one traversed with t reversed.  It takes no part in equality,
    so classify(n, h, e) == classify(n, -h, -e).
    """

    family: Family
    n: int
    h: float
    e: float
    x1: float | None = None
    x2: float | None = None
    x0: float | None = None
    flip: bool = field(default=False, compare=False)


def cylinder_radius(n, h):
    """Radius of the constant-x solution, (2n-1)/(2nH)."""
    n = dimension_index(n)
    h = float(h)
    if h <= 0.0:
        raise ValueError("cylinder radius needs H > 0")
    return (2 * n - 1) / (2 * n * h)


def cylinder_energy(n, h):
    """Energy of the cylinder solution, r^{2n-1}/(2n) at r = (2n-1)/(2nH)."""
    cylinder_radius(n, h)  # checks n and H
    return _cylinder(int(n), float(h))[1]


def _cylinder(n, h):
    """(r, E_cyl) for an int n and h > 0; OverflowError names E_cyl."""
    r = (2 * n - 1) / (2 * n * h)
    try:
        return r, r ** (2 * n - 1) / (2 * n)
    except OverflowError:
        raise OverflowError(
            f"the cylinder energy overflows at H = {h!r}") from None


def descartes_bound(coefficients):
    """Descartes bound on positive roots: sign changes, zeros skipped.

    Coefficients are ordered from the leading (highest degree) term down.
    The number of positive roots (with multiplicity) has the same parity and
    does not exceed this count.
    """
    coeffs = [float(c) for c in coefficients]
    if not coeffs or coeffs[0] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    signs = [c > 0.0 for c in coeffs if c != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _brentq(f, xa, xb, xtol=_XTOL, rtol=_RTOL):
    """Root of f bracketed by [xa, xb], by Brent's zeroin as SciPy's
    brentq.c writes it, step for step, so the roots agree to the bit."""

    def nan(x):
        return ValueError(f"f({x}) is NaN; the root search cannot go on")

    xpre, xcur = float(xa), float(xb)
    fpre = f(xpre)
    if fpre != fpre:
        raise nan(xpre)
    fcur = f(xcur)
    if fcur != fcur:
        raise nan(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # brentq.c divides an underflowed denominator to inf or NaN,
                # which fails the step test below: it bisects
                stry = (-fcur * (fblk * dblk - fpre * dpre) / denom
                        if denom != 0.0 else math.inf)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a short interpolation step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if fcur != fcur:
            raise nan(xcur)
    raise RootBracketFailureError(
        f"Brent's method did not converge in {_MAXITER} iterations "
        f"(last x = {xcur})")


def _split(a):
    """Veltkamp's split of a into hi + lo, each of at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def n1_epsilon(h, e):
    """epsilon = sqrt(1 - 4 e h) of the n = 1 band, for h > 0 and e at most
    the cylinder energy 1/(4h): below 1 on unduloids, above 1 on nodoids.

    Near the cylinder 4 e h tends to 1 and 1 - 4 e h keeps only the
    product's rounding, so for e > 0 the product is taken error-free, as
    p + err by Dekker's two-product over Veltkamp's splits (plain floats:
    math.fma needs Python 3.13), after h is scaled to its mantissa so no
    split overflows.  1 - p is then exact (Sterbenz) and the discriminant
    is rounded once.  For e <= 0, 1 - 4 e h does not cancel; OverflowError
    when it overflows.  A discriminant below 0, e past the cylinder energy,
    gives 0.
    """
    if e <= 0.0:
        discriminant = 1.0 - 4.0 * e * h
        if discriminant == math.inf:
            raise OverflowError(f"1 - 4 E H overflows at H = {h!r}, E = {e!r}")
        return math.sqrt(discriminant)
    m, k = math.frexp(h)
    a = math.ldexp(4.0 * e, k)  # a m = 4 e h exactly
    p = a * m
    ah, al = _split(a)
    mh, ml = _split(m)
    err = ((ah * mh - p) + ah * ml + al * mh) + al * ml
    return math.sqrt(max((1.0 - p) - err, 0.0))


def _root(a, b, m):
    """(a / b)^{1/m} for a, b > 0 from their mantissas and exponents: finite
    wherever the root is, and exact under a -> 2^{km} a."""
    (ma, ka), (mb, kb) = math.frexp(a), math.frexp(b)
    j, r = divmod(ka - kb, m)
    return math.ldexp(math.ldexp(ma / mb, r) ** (1.0 / m), j)


def _edge(p, P, Q):
    """1 - a x - b / x^p at P = a x, Q = b / x^p, and its log x derivative."""
    return 1.0 - P - Q, p * Q - P


def _inflection(p, P, Q):
    """The inflection polynomial over y^{3p}, (u + h y)^3 - 2 h y +
    2(n - 1) u, at P = h y and Q = u = e / y^p, and its derivative in log y."""
    s = Q + P
    return (s ** 3 - 2.0 * P + (p - 1) * Q,
            3.0 * s * s * (P - p * Q) - 2.0 * P - (p - 1) * p * Q)


def _terms(p, a, b, x):
    """(a x, b / x^p) from x = 2^k y, y in [1, 2): no power of x or 2^k."""
    k = math.frexp(x)[1] - 1
    y = math.ldexp(x, -k)
    return math.ldexp(a, k) * y, math.ldexp(b, -p * k) / y ** p


def _scaled(f, p, a, b, k):
    """v -> f's value at x = 2^k e^v, b / x^p formed as +-(|b|^{1/p} / x)^p,
    which over- or underflows only where it does."""
    a, root = math.ldexp(a, k), math.ldexp(_root(abs(b), 1.0, p), -k)
    sign = math.copysign(1.0, b)

    def g(v):
        y = math.exp(v)
        return f(p, a * y, sign * (root / y) ** p)[0]
    return g


def _log_root(f, p, a, b, lo, hi, k=None):
    """Root in [lo, hi] of the value of f(p, a x, b / x^p), its derivative
    in log x second: Brent in v = log(x / 2^k), then one Newton step from
    the terms at x's own power of two, as v's rounding moves e^v by ~1e-14
    at |v| ~ 100.  Exact under (a, b, x) -> (a / 2^j, 2^{jp} b, 2^j x)."""
    if k is None:
        k = (math.frexp(lo)[1] + math.frexp(hi)[1] - 1) // 2
    v = _brentq(_scaled(f, p, a, b, k), math.log(math.ldexp(lo, -k)),
                math.log(math.ldexp(hi, -k)))
    x = min(max(math.ldexp(math.exp(v), k), lo), hi)
    value, slope = f(p, *_terms(p, a, b, x))
    x -= x * value / slope if slope else 0.0
    return min(max(x, lo), hi)


def admissible_radii(n, h, e):
    """Boundary radii (x1, x2) of the band x^{2n-1} >= |e + h x^{2n}|.

    For n = 1 the band is the quadratic h^2 u^2 - (1 - 2eh) u + e^2 <= 0 in
    u = x^2, and with epsilon = n1_epsilon(h, e) the radii are
    x1 = 2|e| / (1 + epsilon) and x2 = (1 + epsilon) / (2h), each free of
    cancellation, so an unduloid's band width x2 - x1 = epsilon / h keeps
    its digits up to the cylinder.  For n >= 2 each is the root (_log_root)
    of 1 - a x - b / x^p, p = 2n - 1, (a, b) = (-h, -e) for a nodoid's x1
    and (h, e) otherwise, in a closed-form bracket at whose ends it is of
    order 1.  The signs of h and e fix the Descartes bounds: 2 for f2 when
    e h > 0, 1 for each of f1 and f2 when e h < 0.  Raises
    NoAdmissibleRadiusError when e exceeds the cylinder energy, and
    OverflowError, naming the quantity, where a radius overflows or no
    float lies between x1 and x2.
    """
    n = dimension_index(n)
    h, e = float(h), float(e)
    if h < 0.0:
        h, e = -h, -e
    if h == 0.0 or e == 0.0:
        raise ValueError("the bounded band needs h != 0 and e != 0")
    return _band(n, h, e)


def _band(n, h, e):
    p = 2 * n - 1
    if e > 0.0:
        r, ecyl = _cylinder(n, h)
        if e > ecyl * (1.0 + _CYLINDER_TOL):
            raise NoAdmissibleRadiusError(
                f"energy {e} exceeds the cylinder energy {ecyl}: empty band"
            )
        if e >= ecyl:
            return r, r
    if n == 1:
        epsilon = n1_epsilon(h, e)
        x1, x2 = 2.0 * abs(e) / (1.0 + epsilon), (1.0 + epsilon) / (2.0 * h)
    elif e > 0.0:
        # both edges at c = 2^k <= r, where both searches see g(r) as this does
        k = math.frexp(r)[1] - 1
        if _scaled(_edge, p, h, e, k)(math.log(math.ldexp(r, -k))) <= 0.0:
            return r, r
        x1 = _log_root(_edge, p, h, e, 0.5 * _root(e, 1.0, p), r, k)
        x2 = _log_root(_edge, p, h, e, r, 2.0 / h, k)
    else:
        top = _root(-e, 1.0, p)
        grow, hi = 2.0 * (1.0 + h * top), 2.0 * max(1.0 / h, top)
        if grow == math.inf or hi == math.inf:
            raise OverflowError(
                f"H |E|^(1/{p}) or 2 / H overflows at H = {h!r}, E = {e!r}")
        x1 = _log_root(_edge, p, -h, -e, top / grow ** (1.0 / p), 2.0 * top)
        x2 = _log_root(_edge, p, h, e, 0.5 * _root(-e, h, 2 * n), hi)
    if not math.nextafter(x1, math.inf) < x2:
        raise OverflowError(
            f"the band is narrower than a float resolves: no float lies "
            f"between x1 = {x1!r} and x2 = {x2!r}")
    return x1, x2


def inflection_radius(n, h, e, bracket):
    """Radius where sigma' vanishes on an unduloid, the root of

        p(y) = (e + h y^{2n})^3 - 2 h y^{6n-2} + 2(n-1) e y^{4n-2},

    which must change sign from + to - across the bracket (x1, x2); anything
    else means the bracket does not isolate the inflection.  It is found
    as the band edges are (_log_root), as the root of p(y) / y^{3p} =
    (u + h y)^3 - 2 h y + 2(n-1) u, u = e / y^p and p = 2n - 1.
    """
    x1, x2 = float(bracket[0]), float(bracket[1])
    if not 0.0 < x1 < x2:
        raise ValueError(f"the bracket needs 0 < x1 < x2, got {bracket!r}")
    return _inflection_radius(dimension_index(n), float(h), float(e), x1, x2)


def _inflection_radius(n, h, e, x1, x2):
    p = 2 * n - 1
    q1, q2 = (_inflection(p, *_terms(p, h, e, x))[0] for x in (x1, x2))
    if not (q1 > 0.0 > q2):
        raise RootBracketFailureError(
            f"p / y^{3 * p} is {q1} at x1 = {x1} and {q2} at x2 = {x2}: no sign "
            f"change across the band")
    return _log_root(_inflection, p, h, e, x1, x2)


def classify(n, h, e):
    """Classify the complete profile generated by parameters (n, H, E).

    H = 0 gives the hyperplane (E = 0) or a catenoid-type end-to-end profile;
    H != 0 gives the sphere (E = 0), and otherwise cylinder, unduloid
    (0 < E < E_cyl after normalization) or nodoid (E < 0).  E beyond the
    cylinder energy leaves no admissible radius and raises, and so does a
    non-finite H or E; so does a float overflow, as admissible_radii says.
    """
    n = dimension_index(n)
    h, e = float(h), float(e)
    for name, value in (("H", h), ("E", e)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    flip = h < 0.0
    if flip:
        h, e = -h, -e
    if h == 0.0:
        if e == 0.0:
            return Classification(Family.HYPERPLANE, n, h, e)
        waist = abs(e) ** (1.0 / (2 * n - 1))
        return Classification(Family.CATENOID, n, h, e, x1=waist)
    if e == 0.0:
        return Classification(Family.SPHERE, n, h, e, flip=flip)
    if e > 0.0:
        r, ecyl = _cylinder(n, h)
        if abs(e - ecyl) <= _CYLINDER_TOL * ecyl:
            return Classification(Family.CYLINDER, n, h, e, x1=r, x2=r, x0=r,
                                  flip=flip)
    x1, x2 = _band(n, h, e)
    if e > 0.0:
        family, x0 = Family.UNDULOID, _inflection_radius(n, h, e, x1, x2)
    else:  # (-e / h)^{1/2n}, clamped: it rounds apart from a band ulps wide
        family, x0 = Family.NODOID, min(max(_root(-e, h, 2 * n), x1), x2)
    return Classification(family, n, h, e, x1=x1, x2=x2, x0=x0, flip=flip)
