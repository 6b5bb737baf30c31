"""Sub-Riemannian perimeter, enclosed volume, and a first-variation check.

A rotational hypersurface is described by its generating curve (x(s), t(s))
in the half plane x >= 0.  Its perimeter is

    P = sigma_{2n-1} int x^{2n-1} sqrt(x^2 x'^2 + t'^2) ds,

the Riemannian area density sqrt(det Gram) times the horizontal norm of the
unit normal; both factors are degree-1 homogeneous jointly in (x', t'), so
any parameterization of the curve gives the same number.  The enclosed
volume of a body of revolution is the signed line integral
V = omega_{2n} int x^{2n} dt; profiles flagged as closed may end on the axis
or on horizontal planes, where the closing segments contribute nothing.
Both integrals run by composite Gauss-Legendre quadrature for any profile;
the compact sphere also has them in closed form (``sphere_measures``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import QuadratureResult, sphere_generating_curve
from .core import dimension_index
from .curvature import mean_curvature_rotational
from .errors import AxisPointError, SingularPointError
from .profile_ode import rhs

__all__ = [
    "RotationalProfile",
    "unit_sphere_area",
    "unit_ball_volume",
    "horizontal_normal_density",
    "perimeter",
    "perimeter_result",
    "enclosed_volume",
    "enclosed_volume_result",
    "first_variation_check",
    "cylinder_band",
    "hyperplane_annulus",
    "sphere_surface",
    "sphere_measures",
]


def unit_sphere_area(n):
    """Area of the unit sphere S^{2n-1} in R^{2n}: 2 pi^n / (n-1)!."""
    n = dimension_index(n)
    return 2.0 * math.pi ** n / math.factorial(n - 1)


def unit_ball_volume(n):
    """Lebesgue volume of the unit ball in R^{2n}: pi^n / n!."""
    n = dimension_index(n)
    return math.pi ** n / math.factorial(n)


def _horizontal_norm(x, dx, dt):
    return math.sqrt(x * x * dx * dx + dt * dt)


@dataclass(frozen=True)
class RotationalProfile:
    """Generating curve of a rotational hypersurface.

    ``evaluate`` maps a parameter s in ``span`` to
    (x, t, dx, dt, ddx, ddt).  ``closed`` declares that the curve bounds a
    body of revolution once completed by axis or horizontal-plane segments
    (which carry no volume flux).  ``arclength`` declares dx^2 + dt^2 = 1;
    it is checked at construction.  ``panels`` is the default quadrature
    resolution.
    """

    n: int
    span: tuple
    evaluate: object = field(repr=False)
    closed: bool = False
    arclength: bool = False
    panels: int = 64

    def __post_init__(self):
        object.__setattr__(self, "n", dimension_index(self.n))
        lo, hi = (float(self.span[0]), float(self.span[1]))
        object.__setattr__(self, "span", (lo, hi))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError("profile span must be a finite interval")
        if self.panels < 2:
            raise ValueError("panels must be at least 2")
        if hi > lo:
            for s in np.linspace(lo, hi, 9):
                x, _, dx, dt, _, _ = self.evaluate(float(s))
                if x < -1e-12:
                    raise ValueError("profile leaves the half plane x >= 0")
                if self.arclength and abs(dx * dx + dt * dt - 1.0) > 1e-8:
                    raise ValueError("profile is declared arclength but is not")

    def at(self, s):
        lo, hi = self.span
        pad = 1e-9 * (1.0 + hi - lo)
        if not lo - pad <= s <= hi + pad:
            raise ValueError("parameter %g outside profile span" % s)
        return self.evaluate(float(s))

    def reversed(self):
        """Same curve traversed backwards (flips the volume orientation)."""
        lo, hi = self.span

        def evaluate(s):
            x, t, dx, dt, ddx, ddt = self.evaluate(lo + hi - s)
            return (x, t, -dx, -dt, ddx, ddt)

        return RotationalProfile(n=self.n, span=(lo, hi), evaluate=evaluate,
                                 closed=self.closed, arclength=self.arclength,
                                 panels=self.panels)

    @classmethod
    def from_trajectory(cls, traj, *, closed=False):
        """Profile backed by an integrated trajectory (arclength by
        construction); curvature data comes from the right-hand side."""
        n, h = traj.n, traj.h

        def evaluate(s):
            state = traj.state_at(s)
            dx, dt, dsigma = rhs(state, n, h)
            return (state.x, state.t, dx, dt, dt * dsigma, -dx * dsigma)

        return cls(n=n, span=(float(traj.s[0]), float(traj.s_end)),
                   evaluate=evaluate, closed=closed, arclength=True,
                   panels=max(64, 2 * (len(traj.s) - 1)))

    @classmethod
    def from_curve(cls, n, evaluate, span, *, closed=False, arclength=False,
                   panels=64):
        return cls(n=n, span=span, evaluate=evaluate, closed=closed,
                   arclength=arclength, panels=panels)


def horizontal_normal_density(x, dx, dt):
    """|N_H| = sqrt(x^2 dx^2 + dt^2)/sqrt(1 + x^2 dx^2) for an arclength
    profile tangent (dx, dt) at radius x > 0."""
    x = float(x)
    dx = float(dx)
    dt = float(dt)
    if x <= 0.0:
        raise AxisPointError("density is defined away from the axis")
    if abs(dx * dx + dt * dt - 1.0) > 1e-8:
        raise ValueError("tangent must be arclength normalized")
    q = x * x * dx * dx + dt * dt
    if q <= 1e-300:  # unreachable under the preconditions; guarded anyway
        raise SingularPointError("horizontal normal vanishes")
    return math.sqrt(q) / math.sqrt(1.0 + x * x * dx * dx)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
_VARIATION_STEP = 1e-4  # first_variation_check's central difference
_AXIS_TOL = 1e-6  # radius below which a perturbation must vanish


def _composite(fun, lo, hi, panels):
    edges = np.linspace(lo, hi, panels + 1)
    terms = []
    for left, right in zip(edges[:-1], edges[1:]):
        center = 0.5 * (left + right)
        halfwidth = 0.5 * (right - left)
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            terms.append(halfwidth * weight * fun(center + halfwidth * node))
    return math.fsum(terms)


def _integral_result(fun, lo, hi, panels):
    if hi == lo:
        return QuadratureResult(value=0.0, error_estimate=0.0, evaluations=0)
    coarse_panels = max(1, panels // 2)
    coarse = _composite(fun, lo, hi, coarse_panels)
    fine = _composite(fun, lo, hi, panels)
    err = max(abs(fine - coarse), 4e-15 * (1.0 + abs(fine)))
    return QuadratureResult(value=fine, error_estimate=err,
                            evaluations=10 * (panels + coarse_panels))


def perimeter_result(profile, *, panels=None):
    """Perimeter with an error estimate from halving the panel count."""
    n = profile.n
    scale = unit_sphere_area(n)

    def integrand(s):
        x, _, dx, dt, _, _ = profile.evaluate(s)
        return x ** (2 * n - 1) * _horizontal_norm(x, dx, dt)

    lo, hi = profile.span
    result = _integral_result(integrand, lo, hi, panels or profile.panels)
    return QuadratureResult(value=scale * result.value,
                            error_estimate=scale * result.error_estimate,
                            evaluations=result.evaluations)


def perimeter(profile, *, panels=None):
    """P = sigma_{2n-1} int x^{2n-1} sqrt(x^2 dx^2 + dt^2) ds."""
    return perimeter_result(profile, panels=panels).value


def enclosed_volume_result(profile, *, panels=None):
    if not profile.closed:
        raise ValueError("enclosed volume needs a closed profile")
    n = profile.n
    scale = unit_ball_volume(n)

    def integrand(s):
        x, _, _, dt, _, _ = profile.evaluate(s)
        return x ** (2 * n) * dt

    lo, hi = profile.span
    result = _integral_result(integrand, lo, hi, panels or profile.panels)
    return QuadratureResult(value=scale * result.value,
                            error_estimate=scale * result.error_estimate,
                            evaluations=result.evaluations)


def enclosed_volume(profile, *, panels=None):
    """Signed volume V = omega_{2n} int x^{2n} dt of the body of revolution."""
    return enclosed_volume_result(profile, panels=panels).value


# ---------------------------------------------------------------------------
# first variation


def _perturbed_profile(profile, u, du, tau):
    """Push the profile a parameter distance tau along u times the
    horizontal unit normal.  In ambient coordinates that direction is
    (t' w + x x' Jw, -x^2 x') / m with m = sqrt(t'^2 + x^2 x'^2), where w is
    the radial unit vector and J the rotation pairing the two horizontal
    families; the image stays rotational, so the displacement projects onto
    the generating curve.  The map degenerates at characteristic points
    (m = 0); u must vanish there and the point is left in place."""

    def evaluate(s):
        x, t, dx, dt, ddx, ddt = profile.evaluate(s)
        us = u(s)
        dus = du(s)
        m = _horizontal_norm(x, dx, dt)
        if m <= 1e-300:
            # characteristic point; the axis-support check keeps u == 0 here
            return (x, t, dx, dt, math.nan, math.nan)
        dm = (dt * ddt + x * dx ** 3 + x * x * dx * ddx) / m
        w = tau * us / m
        dw = tau * (dus * m - us * dm) / (m * m)
        a = x - w * dt
        b = w * x * dx
        da = dx - dw * dt - w * ddt
        db = dw * x * dx + w * dx * dx + w * x * ddx
        x_new = math.hypot(a, b)
        # axis endpoints have a = b = 0 (u vanishes there); the one-sided
        # slope of hypot(a, b) degenerates to da
        dx_new = da if x_new == 0.0 else (a * da + b * db) / x_new
        g = x * x * dx / m
        dg = (2.0 * x * dx * dx + x * x * ddx) / m - x * x * dx * dm / (m * m)
        t_new = t + tau * us * g
        dt_new = dt + tau * (dus * g + us * dg)
        # second derivatives are never consumed by the perimeter integral
        return (x_new, t_new, dx_new, dt_new, math.nan, math.nan)

    return RotationalProfile(n=profile.n, span=profile.span, evaluate=evaluate,
                             closed=False, arclength=False,
                             panels=profile.panels)


def first_variation_check(profile, u, *, du=None):
    """Compare the numeric derivative of the perimeter under a perturbation
    by u along the horizontal unit normal with the first-variation formula
    -2n int H u dP.

    Returns (numeric, formula).  u (and optionally its derivative du) are
    functions of the profile parameter; u must vanish wherever the profile
    touches the axis, since the mean curvature blows up there.
    """
    if du is None:
        def du(s, _u=u):
            delta = 1e-5 * (1.0 + abs(s))
            return (_u(s + delta) - _u(s - delta)) / (2.0 * delta)

    lo, hi = profile.span
    samples = np.linspace(lo, hi, 201)
    magnitudes = [abs(u(float(s))) for s in samples]
    peak = max(magnitudes)
    for s, mag in zip(samples, magnitudes):
        x = profile.at(float(s))[0]
        if x <= _AXIS_TOL and mag > 1e-12 * (1.0 + peak):
            raise AxisPointError("perturbation support touches the axis")

    n = profile.n
    scale = unit_sphere_area(n)

    def formula_integrand(s):
        x, _, dx, dt, ddx, ddt = profile.evaluate(s)
        mean = mean_curvature_rotational(x, dx, ddx, dt, ddt, n)
        return mean * u(s) * x ** (2 * n - 1) * _horizontal_norm(x, dx, dt)

    formula = -2.0 * n * scale * _composite(
        formula_integrand, lo, hi, profile.panels
    )
    plus = perimeter(_perturbed_profile(profile, u, du, _VARIATION_STEP))
    minus = perimeter(_perturbed_profile(profile, u, du, -_VARIATION_STEP))
    return (plus - minus) / (2.0 * _VARIATION_STEP), formula


# ---------------------------------------------------------------------------
# stock profiles


def cylinder_band(n, radius, height):
    """Vertical band x = radius, t from 0 to height; closes to a solid
    cylinder through the top and bottom disks."""
    radius = float(radius)
    height = float(height)
    if radius <= 0.0:
        raise ValueError("cylinder band needs a positive radius")
    if height < 0.0:
        raise ValueError("cylinder band needs a nonnegative height")

    def evaluate(s):
        return (radius, s, 0.0, 1.0, 0.0, 0.0)

    return RotationalProfile.from_curve(n, evaluate, (0.0, height),
                                        closed=True, arclength=True)


def hyperplane_annulus(n, inner, outer):
    """Flat annulus t = 0, x from inner to outer; minimal (H = 0)."""
    inner = float(inner)
    outer = float(outer)
    if not 0.0 <= inner < outer:
        raise ValueError("annulus needs 0 <= inner < outer")

    def evaluate(s):
        return (s, 0.0, 1.0, 0.0, 0.0, 0.0)

    return RotationalProfile.from_curve(n, evaluate, (inner, outer),
                                        closed=False, arclength=True)


def sphere_surface(n, h):
    """Closed profile of the compact constant-mean-curvature sphere; the
    generating curve is the same for every n."""
    h = float(h)
    if h <= 0.0:
        raise ValueError("sphere surface needs H > 0")

    def evaluate(s):
        return sphere_generating_curve(h, s)

    return RotationalProfile.from_curve(n, evaluate, (0.0, math.pi),
                                        closed=True, arclength=False,
                                        panels=128)


def _sine_power_integral(m):
    """W(m) = int_0^pi sin^{2m}(psi) dpsi = pi C(2m, m) / 4^m."""
    return math.pi * math.comb(2 * m, m) / 4 ** m


def sphere_measures(n, h):
    """Exact (perimeter, volume) of the compact sphere of mean curvature H.

    Along sphere_generating_curve the perimeter and volume densities are
    sin^{2n}(psi) / H^{2n+1} and sin^{2n+2}(psi) / H^{2n+2}, so
    P = sigma_{2n-1} W(n) / H^{2n+1} and V = omega_{2n} W(n+1) / H^{2n+2}.
    OverflowError, naming the quantity, where a power of H over- or
    underflows or P or V overflows.
    """
    n = dimension_index(n)
    h = float(h)
    if h <= 0.0:
        raise ValueError("sphere measures need H > 0")
    measures = []
    for name, m, scale in (
            ("perimeter", 2 * n + 1,
             unit_sphere_area(n) * _sine_power_integral(n)),
            ("volume", 2 * n + 2,
             unit_ball_volume(n) * _sine_power_integral(n + 1))):
        try:
            value = scale / h ** m
        except OverflowError:
            raise OverflowError(f"H^{m} overflows at H = {h!r}") from None
        except ZeroDivisionError:
            raise OverflowError(
                f"H^{m} underflows to 0 at H = {h!r}") from None
        if value == math.inf:
            raise OverflowError(f"the sphere's {name} overflows at H = {h!r}")
        measures.append(value)
    return tuple(measures)
