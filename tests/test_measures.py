"""Perimeter, volume, and first-variation checks for rotational profiles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from heisenberg_cmc.closed_forms import (
    catenoid_generating_curve,
    sphere_generating_curve,
    sphere_profile,
)
from heisenberg_cmc.errors import AxisPointError, SingularPointError
from heisenberg_cmc.measures import (
    RotationalProfile,
    cylinder_band,
    enclosed_volume,
    enclosed_volume_result,
    first_variation_check,
    horizontal_normal_density,
    hyperplane_annulus,
    perimeter,
    perimeter_result,
    sphere_measures,
    sphere_surface,
    unit_ball_volume,
    unit_sphere_area,
)
from heisenberg_cmc.profile_ode import (
    EventKind,
    ProfileState,
    SolveConfig,
    integrate,
    reflect_continue,
)


def catenoid_profile(e, lo, hi, n=1):
    return RotationalProfile.from_curve(
        n, lambda s: catenoid_generating_curve(e, s), (lo, hi),
        closed=False, arclength=False)


def half_sphere_trajectory(n, h, axis_epsilon):
    cfg = SolveConfig(stop_event=(EventKind.AXIS_CONTACT, 1),
                      axis_epsilon=axis_epsilon)
    return integrate(n, h, initial=ProfileState(1.0 / h, 0.0, 0.0), config=cfg)


# ---------------------------------------------------------------------------
# constants and the density


def test_unit_constants():
    assert unit_sphere_area(1) == pytest.approx(2.0 * math.pi, abs=1e-15)
    assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi ** 2, abs=1e-14)
    assert unit_ball_volume(1) == pytest.approx(math.pi, abs=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi ** 2 / 2.0, abs=1e-14)


def test_density_cylinder_direction():
    for x in (0.3, 1.0, 2.5):
        assert horizontal_normal_density(x, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_density_horizontal_tangent():
    for x in (0.5, 1.0, 3.0):
        expected = x / math.sqrt(1.0 + x * x)
        assert horizontal_normal_density(x, 1.0, 0.0) == pytest.approx(expected, rel=1e-14)


@given(x=st.floats(1e-3, 50.0), theta=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=120, deadline=None)
def test_density_formula_and_bounds(x, theta):
    dx = math.sin(theta)
    dt = math.cos(theta)
    value = horizontal_normal_density(x, dx, dt)
    expected = math.sqrt(x * x * dx * dx + dt * dt) / math.sqrt(1.0 + x * x * dx * dx)
    assert value == pytest.approx(expected, rel=1e-13)
    assert 0.0 < value <= 1.0 + 1e-15


def test_density_errors():
    with pytest.raises(AxisPointError):
        horizontal_normal_density(0.0, 0.0, 1.0)
    with pytest.raises(AxisPointError):
        horizontal_normal_density(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        horizontal_normal_density(1.0, 1.0, 1.0)
    # radicand underflows to zero while the arclength constraint still holds
    with pytest.raises(SingularPointError):
        horizontal_normal_density(1e-200, 1.0, 0.0)


# ---------------------------------------------------------------------------
# profile construction


def test_profile_rejects_negative_radius():
    with pytest.raises(ValueError):
        RotationalProfile.from_curve(
            1, lambda s: (s, 0.0, 1.0, 0.0, 0.0, 0.0), (-1.0, 1.0),
            closed=False, arclength=True)


def test_profile_rejects_false_arclength_claim():
    with pytest.raises(ValueError):
        RotationalProfile.from_curve(
            1, lambda s: (1.0, 2.0 * s, 0.0, 2.0, 0.0, 0.0), (0.0, 1.0),
            closed=False, arclength=True)


def test_profile_rejects_bad_span_and_panels():
    curve = lambda s: (1.0, s, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        RotationalProfile.from_curve(1, curve, (1.0, 0.0), closed=False,
                                     arclength=True)
    with pytest.raises(ValueError):
        RotationalProfile.from_curve(1, curve, (0.0, 1.0), closed=False,
                                     arclength=True, panels=1)


def test_profile_at_pads_roundoff_but_rejects_outside():
    prof = hyperplane_annulus(1, 0.5, 1.5)
    assert prof.at(0.5 - 1e-10)[0] == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(ValueError):
        prof.at(1.6)


def test_profile_reversed_flips_tangent():
    prof = catenoid_profile(1.0, -1.0, 2.0)
    rev = prof.reversed()
    x, t, dx, dt, _, _ = prof.at(2.0)
    xr, tr, dxr, dtr, _, _ = rev.at(-1.0)
    assert (xr, tr) == pytest.approx((x, t), rel=1e-12)
    assert (dxr, dtr) == pytest.approx((-dx, -dt), rel=1e-12)


# ---------------------------------------------------------------------------
# perimeter


def test_perimeter_cylinder_band_frozen():
    # density x^{2n-1} * t' = 1 at r = 1, so P is the side area 2*pi*r*L
    assert perimeter(cylinder_band(1, 1.0, 1.0)) == pytest.approx(2.0 * math.pi, abs=1e-12)
    expected = unit_sphere_area(2) * 1.3 ** 3 * 0.9
    assert perimeter(cylinder_band(2, 1.3, 0.9)) == pytest.approx(expected, rel=1e-13)


def test_perimeter_zero_length_profile():
    prof = RotationalProfile.from_curve(
        1, lambda s: (1.0, s, 0.0, 1.0, 0.0, 0.0), (0.5, 0.5),
        closed=False, arclength=True)
    result = perimeter_result(prof)
    assert result.value == 0.0
    assert result.error_estimate == 0.0


def test_perimeter_positive_and_additive():
    whole = catenoid_profile(1.0, -2.0, 3.0)
    left = catenoid_profile(1.0, -2.0, 0.5)
    right = catenoid_profile(1.0, 0.5, 3.0)
    p_whole = perimeter(whole)
    assert p_whole > 0.0
    assert perimeter(left) + perimeter(right) == pytest.approx(p_whole, abs=1e-10)


@given(frac=st.floats(0.15, 0.85))
@settings(max_examples=25, deadline=None)
def test_perimeter_additivity_property(frac):
    lo, hi = -2.0, 3.0
    mid = lo + frac * (hi - lo)
    whole = perimeter(catenoid_profile(1.0, lo, hi))
    parts = perimeter(catenoid_profile(1.0, lo, mid)) + perimeter(
        catenoid_profile(1.0, mid, hi))
    assert parts == pytest.approx(whole, abs=1e-10 * (1.0 + whole))


def test_partition_independence():
    prof = catenoid_profile(1.0, -2.0, 3.0)
    sphere = sphere_surface(1, 1.0)
    for k in (32, 64):
        coarse = perimeter_result(prof, panels=k)
        fine = perimeter_result(prof, panels=2 * k)
        assert abs(fine.value - coarse.value) <= coarse.error_estimate
        vc = enclosed_volume_result(sphere, panels=k)
        vf = enclosed_volume_result(sphere, panels=2 * k)
        assert abs(vf.value - vc.value) <= vc.error_estimate


def test_perimeter_two_pipeline_sphere():
    """Quadrature along the ODE trace and along the closed form must agree."""
    for n, h, eps in ((1, 1.0, 1e-6), (2, 0.8, 1e-3)):
        traj = half_sphere_trajectory(n, h, eps)
        p_ode = perimeter(RotationalProfile.from_trajectory(traj))
        half = RotationalProfile.from_curve(
            n, lambda s: sphere_generating_curve(h, s),
            (math.pi / 2.0, math.pi), closed=False, arclength=False,
            panels=128)
        assert p_ode == pytest.approx(perimeter(half), abs=1e-5)


def test_perimeter_from_trajectory_cylinder():
    n, r = 1, 0.8
    h = (2 * n - 1) / (2.0 * n * r)
    traj = integrate(n, h, initial=ProfileState(r, 0.0, 0.0),
                     config=SolveConfig(max_arclength=2.0))
    prof = RotationalProfile.from_trajectory(traj)
    expected = unit_sphere_area(n) * r ** (2 * n - 1) * traj.s_end
    assert perimeter(prof) == pytest.approx(expected, rel=1e-10)


def test_perimeter_result_reports_work():
    result = perimeter_result(cylinder_band(1, 1.0, 1.0))
    assert result.error_estimate >= 0.0
    assert result.evaluations >= 64 * 10


def _gram_density(n, x, dx, dt):
    """sqrt(det Gram) |N_H| / |N|, with Gram the 2n x 2n matrix of the
    coordinate tangents of the rotational hypersurface."""
    gram = np.diag([dx * dx + dt * dt, x * x + x ** 4]
                   + [x * x] * (2 * n - 2))
    gram[0, 1] = gram[1, 0] = dt * x * x
    horizontal = math.sqrt(x * x * dx * dx + dt * dt)
    full = math.sqrt(dx * dx + dt * dt + x * x * dx * dx)
    return math.sqrt(np.linalg.det(gram)) * horizontal / full


def _unduloid_profile():
    cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1))
    return RotationalProfile.from_trajectory(integrate(1, 0.5, e=0.3,
                                                       config=cfg))


@pytest.mark.parametrize("make_profile", [
    lambda: sphere_surface(1, 1.0),
    lambda: sphere_surface(2, 1.0),
    lambda: sphere_surface(3, 1.0),
    lambda: cylinder_band(2, 1.3, 0.9),
    _unduloid_profile,
], ids=["sphere-n1", "sphere-n2", "sphere-n3", "cylinder", "unduloid"])
def test_gram_area_density(make_profile):
    """The perimeter density x^{2n-1} |N_H| is the Gram-matrix area density
    times |N_H| / |N|."""
    profile = make_profile()
    n = profile.n
    lo, hi = profile.span
    for s in np.linspace(lo, hi, 11)[1:-1]:
        x, _, dx, dt, _, _ = profile.at(float(s))
        closed_form = x ** (2 * n - 1) * math.sqrt(x * x * dx * dx + dt * dt)
        assert abs(_gram_density(n, x, dx, dt) - closed_form) <= 1e-12 * (
            1.0 + abs(closed_form))


# ---------------------------------------------------------------------------
# enclosed volume


def test_volume_solid_cylinder():
    band = cylinder_band(1, 1.0, 1.0)
    assert enclosed_volume(band) == pytest.approx(math.pi, abs=1e-12)
    assert enclosed_volume(band.reversed()) == pytest.approx(-math.pi, abs=1e-12)


def test_volume_requires_closed_profile():
    with pytest.raises(ValueError):
        enclosed_volume(hyperplane_annulus(1, 0.5, 1.5))


def test_volume_unit_sphere_frozen():
    # int x^2 dt over the closed profile is 3*pi/8, scaled by omega_2 = pi
    assert enclosed_volume(sphere_surface(1, 1.0)) == pytest.approx(
        3.0 * math.pi ** 2 / 8.0, abs=1e-10)


def test_volume_slicing_oracle():
    """Stacking horizontal disks must reproduce the signed line integral."""
    for n, h in ((1, 1.0), (2, 0.8)):
        top = sphere_profile(h, 0.0)

        def radius(t):
            return brentq(lambda x: sphere_profile(h, x) - abs(t),
                          0.0, 1.0 / h, xtol=1e-14)

        sliced, _ = quad(lambda t: radius(t) ** (2 * n), -top, top,
                         epsabs=1e-11, limit=200)
        expected = unit_ball_volume(n) * sliced
        assert enclosed_volume(sphere_surface(n, h)) == pytest.approx(
            expected, abs=1e-6)


def test_volume_two_pipeline_half_ball():
    for n, h, eps in ((1, 1.0, 1e-6), (2, 0.8, 1e-3)):
        traj = half_sphere_trajectory(n, h, eps)
        half = RotationalProfile.from_trajectory(traj, closed=True)
        doubled = 2.0 * enclosed_volume(half)
        assert doubled == pytest.approx(enclosed_volume(sphere_surface(n, h)),
                                        abs=1e-5)


def test_reflected_sphere_matches_closed_form():
    # the mirrored half keeps the solver's dense output, so the closed
    # reflection measures the same sphere as the closed form
    closed = reflect_continue(half_sphere_trajectory(1, 1.0, 1e-6))
    profile = RotationalProfile.from_trajectory(closed, closed=True)
    sphere = sphere_surface(1, 1.0)
    assert perimeter(profile) == pytest.approx(perimeter(sphere), rel=1e-8)
    assert enclosed_volume(profile) == pytest.approx(enclosed_volume(sphere),
                                                     rel=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("h", [0.25, 1.0, 1.75])
def test_sphere_measures_match_quadrature(n, h):
    surface = sphere_surface(n, h)
    per = perimeter_result(surface)
    vol = enclosed_volume_result(surface)
    exact_perimeter, exact_volume = sphere_measures(n, h)
    assert abs(exact_perimeter - per.value) <= per.error_estimate
    assert abs(exact_volume - vol.value) <= vol.error_estimate


def test_cylinder_radius_derivative():
    """d/dr of the quadrature P matches the analytic sigma*(2n-1)*r^{2n-2}*L."""
    delta = 1e-5
    for n, r, length in ((1, 1.0, 1.0), (2, 0.8, 0.7)):
        plus = perimeter(cylinder_band(n, r + delta, length))
        minus = perimeter(cylinder_band(n, r - delta, length))
        numeric = (plus - minus) / (2.0 * delta)
        analytic = unit_sphere_area(n) * (2 * n - 1) * r ** (2 * n - 2) * length
        assert numeric == pytest.approx(analytic, rel=1e-6)


# ---------------------------------------------------------------------------
# first variation


def test_first_variation_hyperplane():
    prof = hyperplane_annulus(1, 0.5, 1.5)
    numeric, formula = first_variation_check(
        prof, lambda s: math.exp(-8.0 * (s - 1.0) ** 2))
    assert formula == 0.0
    assert abs(numeric) <= 1e-6


def test_first_variation_cylinder():
    for n, r, length in ((1, 1.0, 1.0), (2, 0.8, 0.7)):
        band = cylinder_band(n, r, length)
        numeric, formula = first_variation_check(
            band, lambda s: 1.0, du=lambda s: 0.0)
        assert numeric == pytest.approx(formula, rel=1e-3)
        analytic = -unit_sphere_area(n) * (2 * n - 1) * r ** (2 * n - 2) * length
        assert formula == pytest.approx(analytic, rel=1e-9)
        assert numeric == pytest.approx(analytic, rel=1e-6)


def bump(s):
    return math.sin(s) ** 4


def bump_prime(s):
    return 4.0 * math.sin(s) ** 3 * math.cos(s)


def test_first_variation_sphere_bump():
    for n, h in ((1, 1.0), (2, 0.8)):
        sphere = sphere_surface(n, h)
        numeric, formula = first_variation_check(sphere, bump, du=bump_prime)
        assert formula < 0.0
        assert numeric == pytest.approx(formula, rel=1e-3)


def test_first_variation_sphere_bump_frozen():
    # n = 1, h = 1, u = sin^4: formula is -4*pi*int sin^6 = -5*pi^2/4
    _, formula = first_variation_check(sphere_surface(1, 1.0), bump,
                                       du=bump_prime)
    assert formula == pytest.approx(-5.0 * math.pi ** 2 / 4.0, rel=1e-10)


def test_first_variation_difference_quotient_du():
    sphere = sphere_surface(1, 1.0)
    with_du = first_variation_check(sphere, bump, du=bump_prime)
    without_du = first_variation_check(sphere, bump)
    assert without_du[0] == pytest.approx(with_du[0], rel=1e-8)
    assert without_du[1] == pytest.approx(with_du[1], rel=1e-12)


def test_first_variation_rejects_axis_support():
    with pytest.raises(AxisPointError):
        first_variation_check(sphere_surface(1, 1.0), lambda s: 1.0,
                              du=lambda s: 0.0)


# ---------------------------------------------------------------------------
# stock profile validation


def test_stock_profile_validation():
    with pytest.raises(ValueError):
        cylinder_band(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        cylinder_band(1, 1.0, -0.5)
    with pytest.raises(ValueError):
        hyperplane_annulus(1, -0.1, 1.0)
    with pytest.raises(ValueError):
        hyperplane_annulus(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        sphere_surface(1, 0.0)
    with pytest.raises(ValueError):
        sphere_measures(1, 0.0)


@pytest.mark.parametrize("n, h, cause", [
    (1, 1e-120, "H^3 underflows to 0 at H = 1e-120"),
    (3, 2.0696921704666884e-46,
     "the sphere's perimeter overflows at H = 2.0696921704666884e-46"),
    (1, 1e200, "H^3 overflows at H = 1e+200"),
])
def test_sphere_measures_name_what_overflows(n, h, cause):
    # a power of H that underflowed to 0 was a ZeroDivisionError, one that
    # overflowed Python's errno tuple, and a perimeter past the largest
    # float came out inf
    with pytest.raises(OverflowError, match=f"^{re.escape(cause)}$"):
        sphere_measures(n, h)
