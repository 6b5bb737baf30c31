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
    n = dimension_index(n)
    return cylinder_radius(n, h) ** (2 * n - 1) / (2 * n)


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


def _polish(f, df, x, lo, hi):
    # a few Newton steps after _brentq, clipped to the bracket
    for _ in range(3):
        d = df(x)
        if d == 0.0:
            break
        x = min(max(x - f(x) / d, lo), hi)
    return x


def _expand_right(f, hi):
    """Nudge hi rightward until f(hi) < 0 (guards endpoint cancellation)."""
    start, delta = hi, 4e-16
    while f(hi) >= 0.0:
        hi = start * (1.0 + delta)
        delta *= 2.0
        if delta > 1e6:
            raise RootBracketFailureError("could not bracket the outer radius")
    return hi


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


def admissible_radii(n, h, e):
    """Boundary radii (x1, x2) of the band x^{2n-1} >= |e + h x^{2n}|.

    For n = 1 the band is the quadratic h^2 u^2 - (1 - 2eh) u + e^2 <= 0 in
    u = x^2, and with epsilon = n1_epsilon(h, e) the radii are
    x1 = 2|e| / (1 + epsilon) and x2 = (1 + epsilon) / (2h), each free of
    cancellation, so an unduloid's band width x2 - x1 = epsilon / h keeps
    its digits up to the cylinder.  For n >= 2 and e h > 0 both radii come
    from f2 bracketed on either side of the cylinder radius; for e h < 0,
    x1 is the root of f1 below |e|^{1/(2n-1)} and x2 the root of f2 above
    1/h.  While |e|^{1/(2n-1)} is below a quarter of the cylinder radius, x1
    is searched within a factor of two of it, to a relative tolerance, so a
    neck of any width keeps its digits.  The signs of h and e fix the
    Descartes bounds: 2 for f2 when e h > 0, 1 for each of f1 and f2 when
    e h < 0.  Raises NoAdmissibleRadiusError when e exceeds the cylinder
    energy (f2 has no positive roots).
    """
    n = dimension_index(n)
    h, e = float(h), float(e)
    if h < 0.0:
        h, e = -h, -e
    if h == 0.0 or e == 0.0:
        raise ValueError("the bounded band needs h != 0 and e != 0")

    p = 2 * n - 1

    def edge(s, m=0):
        """x^p (1 - s h x) - s e, which is f2 for s = 1 and f1 for s = -1,
        and its derivative, both scaled by 2^{m p}; the factored evaluation
        keeps the sign honest near x = 1/h.  The scaling is exact while no
        term is subnormal, and at a neck where |e| is, 2^m x near 1 keeps
        both terms normal."""
        sh, se, scale = s * h, math.ldexp(s * e, m * p), math.ldexp(1.0, m)

        def f(x):
            return (scale * x) ** p * (1.0 - sh * x) - se

        def df(x):
            y = scale * x
            return p * (scale * y ** (p - 1)) - 2 * n * sh * y ** p
        return f, df

    f2, df2 = edge(1.0)
    if e > 0.0:
        ecyl = cylinder_energy(n, h)
        if e > ecyl * (1.0 + _CYLINDER_TOL):
            raise NoAdmissibleRadiusError(
                f"energy {e} exceeds the cylinder energy {ecyl}: empty band"
            )
        r = cylinder_radius(n, h)
        if e >= ecyl or f2(r) <= 0.0:
            return r, r
    if n == 1:
        epsilon = n1_epsilon(h, e)
        return 2.0 * abs(e) / (1.0 + epsilon), (1.0 + epsilon) / (2.0 * h)
    # x1 lies within a factor of two of top = |e|^{1/(2n-1)} while that is
    # far below the cylinder radius, and is searched there as top t, t in
    # [1/2, 2], so Brent's absolute tolerance is relative: in x it would
    # swallow a neck below 1e-14, and the bracket [0, top] loses its sign
    # change once h top < eps
    top = abs(e) ** (1.0 / p)
    sign = 1.0 if e > 0.0 else -1.0
    if 4.0 * top <= cylinder_radius(n, h):
        f, df = edge(sign, -math.frexp(top)[1])
        lo, hi = 0.5 * top, 2.0 * top
        x1 = top * _brentq(lambda t: f(top * t), 0.5, 2.0)
    else:
        f, df = edge(sign)
        lo, hi = 0.0, (r if e > 0.0 else top)
        x1 = _brentq(f, lo, hi)
    x1 = _polish(f, df, x1, lo, hi)
    if e > 0.0:
        hi = _expand_right(f2, 1.0 / h)
        x2 = _brentq(f2, r, hi)
        x2 = _polish(f2, df2, x2, r, hi)
    else:
        # exactly one positive root each: signs (+,+,-) and (-,+,+)
        lo = 1.0 / h
        delta = 4e-16
        while f2(lo) <= 0.0:
            lo = (1.0 - delta) / h
            delta *= 2.0
            if delta > 1e-6:
                raise RootBracketFailureError("could not bracket the outer radius")
        hi = _expand_right(f2, (1.0 + abs(e) * h ** (2 * n - 1)) / h)
        x2 = _brentq(f2, lo, hi)
        x2 = _polish(f2, df2, x2, lo, hi)
    return x1, x2


def inflection_radius(n, h, e, bracket):
    """Radius where sigma' vanishes on an unduloid, the root of

        p(y) = (e + h y^{2n})^3 - 2 h y^{6n-2} + 2(n-1) e y^{4n-2},

    which must change sign from + to - across the bracket (x1, x2); anything
    else means the bracket does not isolate the inflection.  p is evaluated
    as p(y) / y^{3p} = (u + h y)^3 - 2 h y + 2(n-1) u, u = e / y^p and
    p = 2n - 1, which is of order 1 across the band and unchanged by the
    dilation (h, e, y) -> (h / 2^k, 2^{kp} e, 2^k y).  Its root is searched
    in v = log(y / c), c the power of two midway between the exponents of x1
    and x2, and clamped into [x1, x2].  So Brent's tolerances are relative in
    y, a root decades from 1 keeps its digits, and x0 scales by exactly 2^k
    with the band.
    """
    n = dimension_index(n)
    h, e = float(h), float(e)
    x1, x2 = float(bracket[0]), float(bracket[1])
    p = 2 * n - 1
    c = math.ldexp(1.0, (math.frexp(x1)[1] + math.frexp(x2)[1] - 1) // 2)

    def q(y):
        u = e / y ** p
        return (u + h * y) ** 3 - 2.0 * h * y + 2.0 * (n - 1) * u

    def radius(v):
        return min(max(c * math.exp(v), x1), x2)

    if x1 ** p == 0.0:  # u has no value at the neck
        raise RootBracketFailureError(
            f"x1^{p} underflows to 0 at x1 = {x1}: no sign change across the band")
    q1, q2 = q(x1), q(x2)
    if not (q1 > 0.0 > q2):
        raise RootBracketFailureError(
            f"p / y^{3 * p} is {q1} at x1 = {x1} and {q2} at x2 = {x2}: no sign "
            f"change across the band")
    return radius(_brentq(lambda v: q(radius(v)), math.log(x1 / c),
                          math.log(x2 / c)))


def classify(n, h, e):
    """Classify the complete profile generated by parameters (n, H, E).

    H = 0 gives the hyperplane (E = 0) or a catenoid-type end-to-end profile;
    H != 0 gives the sphere (E = 0), and otherwise cylinder, unduloid
    (0 < E < E_cyl after normalization) or nodoid (E < 0).  E beyond the
    cylinder energy leaves no admissible radius and raises, and so does a
    non-finite H or E.
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
        ecyl = cylinder_energy(n, h)
        if abs(e - ecyl) <= _CYLINDER_TOL * ecyl:
            r = cylinder_radius(n, h)
            return Classification(Family.CYLINDER, n, h, e, x1=r, x2=r, x0=r,
                                  flip=flip)
        x1, x2 = admissible_radii(n, h, e)
        x0 = inflection_radius(n, h, e, (x1, x2))
        return Classification(Family.UNDULOID, n, h, e, x1=x1, x2=x2, x0=x0,
                              flip=flip)
    x1, x2 = admissible_radii(n, h, e)
    # (-e / h)^{1/2n} = (-me / mh 2^r)^{1/2n} 2^m for e = me 2^ke, h = mh 2^kh
    # and ke - kh = 2n m + r: finite wherever the band is, exact under 2^k
    (me, ke), (mh, kh) = math.frexp(-e), math.frexp(h)
    m, r = divmod(ke - kh, 2 * n)
    x0 = math.ldexp(math.ldexp(me / mh, r) ** (1.0 / (2 * n)), m)
    return Classification(Family.NODOID, n, h, e, x1=x1, x2=x2, x0=x0,
                          flip=flip)
