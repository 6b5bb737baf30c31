"""Classification of rotational constant mean curvature profiles by (n, H, E).

A generating curve with mean curvature H in H^n conserves

    E = x^{2n-1} cos(sigma) / sqrt(x^2 sin^2(sigma) + cos^2(sigma)) - H x^{2n},

and the pair (H, E) determines the congruence class of the complete profile.
The admissible radial band is x^{2n-1} >= |E + H x^{2n}|; its boundary radii
are roots of the two polynomials

    f1(x) = x^{2n-1} + E + H x^{2n},    f2(x) = x^{2n-1} - E - H x^{2n},

and sign(cos sigma) = sign(E + H x^{2n}) along the curve.  Everything is
invariant under (H, E) -> (-H, -E), which is just reversing the traversal
direction, so inputs are normalized to H >= 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core import dimension_index
from .errors import NoAdmissibleRadiusError, RootBracketFailureError

__all__ = [
    "Family",
    "Classification",
    "classify",
    "cylinder_radius",
    "cylinder_energy",
    "admissible_radii",
    "inflection_radius",
    "descartes_bound",
]


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
    in x1.
    """

    family: Family
    n: int
    h: float
    e: float
    x1: float | None = None
    x2: float | None = None
    x0: float | None = None

    def radii(self):
        return {"x1": self.x1, "x2": self.x2, "x0": self.x0}


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


def _band_polynomials(n, h, e):
    """Coefficient arrays (leading first) of f1 and f2 on degree 2n."""
    f1 = np.zeros(2 * n + 1)
    f2 = np.zeros(2 * n + 1)
    f1[0], f1[1], f1[-1] = h, 1.0, e
    f2[0], f2[1], f2[-1] = -h, 1.0, -e
    return f1, f2


def _polish(f, df, x, lo, hi):
    # a few Newton steps after brentq, clipped to the bracket
    for _ in range(3):
        d = df(x)
        if d == 0.0:
            break
        x = min(max(x - f(x) / d, lo), hi)
    return x


def _expand_right(f, hi, limit_factor=1e6):
    """Nudge hi rightward until f(hi) < 0 (guards endpoint cancellation)."""
    start, delta = hi, 4e-16
    while f(hi) >= 0.0:
        hi = start * (1.0 + delta)
        delta *= 2.0
        if delta > limit_factor:
            raise RootBracketFailureError("could not bracket the outer radius")
    return hi


def admissible_radii(n, h, e, cylinder_tol=1e-12):
    """Boundary radii (x1, x2) of the band x^{2n-1} >= |e + h x^{2n}|.

    For e h > 0 both radii come from f2 bracketed on either side of the
    cylinder radius; for e h < 0, x1 is the root of f1 below |e|^{1/(2n-1)}
    and x2 the root of f2 above 1/h.  Raises NoAdmissibleRadiusError when
    e exceeds the cylinder energy (f2 has no positive roots).
    """
    n = dimension_index(n)
    h, e = float(h), float(e)
    if h < 0.0:
        h, e = -h, -e
    if h == 0.0 or e == 0.0:
        raise ValueError("the bounded band needs h != 0 and e != 0")

    c1, c2 = _band_polynomials(n, h, e)

    # factored evaluation keeps the sign honest near x = 1/h
    def f1(x):
        return x ** (2 * n - 1) * (1.0 + h * x) + e

    def df1(x):
        return (2 * n - 1) * x ** (2 * n - 2) + 2 * n * h * x ** (2 * n - 1)

    def f2(x):
        return x ** (2 * n - 1) * (1.0 - h * x) - e

    def df2(x):
        return (2 * n - 1) * x ** (2 * n - 2) - 2 * n * h * x ** (2 * n - 1)

    if e > 0.0:
        ecyl = cylinder_energy(n, h)
        if e > ecyl * (1.0 + cylinder_tol):
            raise NoAdmissibleRadiusError(
                f"energy {e} exceeds the cylinder energy {ecyl}: empty band"
            )
        assert descartes_bound(c2) == 2
        r = cylinder_radius(n, h)
        if e >= ecyl or f2(r) <= 0.0:
            return r, r
        hi = _expand_right(f2, 1.0 / h)
        x1 = brentq(f2, 0.0, r, xtol=1e-14, rtol=8.9e-16)
        x2 = brentq(f2, r, hi, xtol=1e-14, rtol=8.9e-16)
        x1 = _polish(f2, df2, x1, 0.0, r)
        x2 = _polish(f2, df2, x2, r, hi)
    else:
        # exactly one positive root each: signs (+,+,-) and (-,+,+)
        assert descartes_bound(c1) == 1 and descartes_bound(c2) == 1
        top = abs(e) ** (1.0 / (2 * n - 1))
        x1 = brentq(f1, 0.0, top, xtol=1e-14, rtol=8.9e-16)
        x1 = _polish(f1, df1, x1, 0.0, top)
        lo = 1.0 / h
        delta = 4e-16
        while f2(lo) <= 0.0:
            lo = (1.0 - delta) / h
            delta *= 2.0
            if delta > 1e-6:
                raise RootBracketFailureError("could not bracket the outer radius")
        hi = _expand_right(f2, (1.0 + abs(e) * h ** (2 * n - 1)) / h)
        x2 = brentq(f2, lo, hi, xtol=1e-14, rtol=8.9e-16)
        x2 = _polish(f2, df2, x2, lo, hi)
    return x1, x2


def inflection_radius(n, h, e, bracket):
    """Radius where sigma' vanishes on an unduloid, from

        p(y) = (e + h y^{2n})^3 - 2 h y^{6n-2} + 2(n-1) e y^{4n-2} = 0.

    p must change sign from + to - across the bracket (x1, x2); anything
    else means the bracket does not isolate the inflection.
    """
    n = dimension_index(n)
    h, e = float(h), float(e)
    x1, x2 = float(bracket[0]), float(bracket[1])

    def p(y):
        return (
            (e + h * y ** (2 * n)) ** 3
            - 2.0 * h * y ** (6 * n - 2)
            + 2.0 * (n - 1) * e * y ** (4 * n - 2)
        )

    p1, p2 = p(x1), p(x2)
    if not (p1 > 0.0 > p2):
        raise RootBracketFailureError(
            f"p({x1}) = {p1}, p({x2}) = {p2}: no sign change across the band"
        )
    return brentq(p, x1, x2, xtol=1e-14, rtol=8.9e-16)


def classify(n, h, e, cylinder_tol=1e-12):
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
    if h < 0.0:
        h, e = -h, -e
    if h == 0.0:
        if e == 0.0:
            return Classification(Family.HYPERPLANE, n, h, e)
        waist = abs(e) ** (1.0 / (2 * n - 1))
        return Classification(Family.CATENOID, n, h, e, x1=waist)
    if e == 0.0:
        return Classification(Family.SPHERE, n, h, e)
    if e > 0.0:
        ecyl = cylinder_energy(n, h)
        if abs(e - ecyl) <= cylinder_tol * ecyl:
            r = cylinder_radius(n, h)
            return Classification(Family.CYLINDER, n, h, e, x1=r, x2=r, x0=r)
        x1, x2 = admissible_radii(n, h, e, cylinder_tol)
        x0 = inflection_radius(n, h, e, (x1, x2))
        return Classification(Family.UNDULOID, n, h, e, x1=x1, x2=x2, x0=x0)
    x1, x2 = admissible_radii(n, h, e, cylinder_tol)
    x0 = (-e / h) ** (1.0 / (2 * n))
    return Classification(Family.NODOID, n, h, e, x1=x1, x2=x2, x0=x0)
