"""Closed-form profiles and singular quadrature against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from heisenberg_cmc.classify import classify, cylinder_energy
from heisenberg_cmc.closed_forms import (
    QuadratureResult,
    catenoid_curve,
    catenoid_generating_curve,
    catenoid_profile_h1,
    catenoid_slab_halfwidth,
    halfperiod_heights,
    nodoid_halfperiod,
    singular_quadrature,
    sphere_generating_curve,
    sphere_profile,
    sphere_slope,
    unduloid_halfperiod,
)
from heisenberg_cmc.errors import DivergentIntegralError, QuadratureError
from heisenberg_cmc.profile_ode import (
    EventKind,
    ProfileState,
    SolveConfig,
    integrate,
)
from heisenberg_cmc.verify import slab_halfwidth_quadrature

# singular_quadrature has one engine; the parameter names it in the test ids
SCHEMES = ("substitution",)


# ---------------------------------------------------------------------------
# singular quadrature


@pytest.mark.parametrize("scheme", SCHEMES)
def test_quadrature_frozen_integrals(scheme):
    r = singular_quadrature(lambda x, da, db: 1.0 / math.sqrt(da), 0.0, 1.0,
                            "lower")
    assert r.value == pytest.approx(2.0, abs=1e-10)
    assert r.evaluations > 0
    assert r.error_estimate >= 0.0

    r = singular_quadrature(lambda x, da, db: 1.0 / math.sqrt(da * db),
                            0.0, 1.0, "both")
    assert r.value == pytest.approx(math.pi, abs=1e-10)

    # sphere half-height: int_0^1 x^2/sqrt(1-x^2) dx with 1-x^2 = db (1+x)
    r = singular_quadrature(lambda x, da, db: x * x / math.sqrt(db * (1.0 + x)),
                            0.0, 1.0, "upper")
    assert r.value == pytest.approx(math.pi / 4.0, abs=1e-10)
    assert r.value == pytest.approx(sphere_profile(1.0, 0.0), abs=1e-10)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_quadrature_smooth_integrand(scheme):
    r = singular_quadrature(lambda x, da, db: math.exp(x), 0.0, 1.0, "none")
    assert r.value == pytest.approx(math.e - 1.0, rel=1e-12)


def test_quadrature_validation():
    f = math.sqrt
    with pytest.raises(ValueError):
        singular_quadrature(f, 1.0, 0.0)
    with pytest.raises(ValueError):
        singular_quadrature(f, 0.0, math.inf)
    with pytest.raises(ValueError):
        singular_quadrature(f, 0.0, 1.0, "sideways")
    with pytest.raises(ValueError):
        QuadratureResult(value=1.0, error_estimate=-1e-3, evaluations=4)


def test_quadrature_budget_exhaustion():
    # a genuine 1/x blowup is not integrable; the adaptive rule gives up
    with pytest.raises(QuadratureError):
        singular_quadrature(lambda x, da, db: 1.0 / da, 0.0, 1.0, "lower")


# ---------------------------------------------------------------------------
# sphere closed form


def test_sphere_profile_frozen_values():
    assert sphere_profile(1.0, 0.0) == pytest.approx(math.pi / 4.0, abs=1e-15)
    assert sphere_profile(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    expected = 0.5 * (0.5 * math.sqrt(0.75) + math.acos(0.5))
    assert sphere_profile(1.0, 0.5) == pytest.approx(expected, abs=1e-15)


def test_sphere_profile_domain():
    with pytest.raises(ValueError):
        sphere_profile(0.0, 0.5)
    with pytest.raises(ValueError):
        sphere_profile(1.0, -0.1)
    with pytest.raises(ValueError):
        sphere_profile(1.0, 1.5)
    with pytest.raises(ValueError):
        sphere_slope(1.0, 1.0)


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
def test_sphere_slope_matches_profile(h):
    step = 1e-6
    for x in np.linspace(0.05, 0.9, 9) / h:
        fd = (sphere_profile(h, x + step) - sphere_profile(h, x - step)) / (2 * step)
        assert fd == pytest.approx(sphere_slope(h, x), abs=1e-6)


def test_sphere_generating_curve_consistency():
    h = 1.5
    for psi in np.linspace(0.15, math.pi - 0.15, 17):
        x, t, dx, dt, ddx, ddt = sphere_generating_curve(h, psi)
        want = sphere_profile(h, x)
        if psi >= math.pi / 2:
            assert t == pytest.approx(want, abs=1e-13)
        else:
            assert t == pytest.approx(-want, abs=1e-13)
        # derivatives against central differences in psi
        step = 1e-5
        xp, tp = sphere_generating_curve(h, psi + step)[:2]
        xm, tm = sphere_generating_curve(h, psi - step)[:2]
        assert dx == pytest.approx((xp - xm) / (2 * step), abs=1e-8)
        assert dt == pytest.approx((tp - tm) / (2 * step), abs=1e-8)
        assert ddx == pytest.approx((xp - 2 * x + xm) / step ** 2, abs=1e-4)
        assert ddt == pytest.approx((tp - 2 * t + tm) / step ** 2, abs=1e-4)


# ---------------------------------------------------------------------------
# catenoid closed form


def test_catenoid_profile_frozen_values():
    assert catenoid_profile_h1(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert catenoid_profile_h1(1.0, math.sqrt(3.0)) == pytest.approx(2.0, abs=1e-14)
    assert catenoid_profile_h1(2.0, 0.0) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        catenoid_profile_h1(0.0, 1.0)
    with pytest.raises(ValueError):
        catenoid_generating_curve(-1.0, 0.0)


@pytest.mark.parametrize("e", [0.5, 1.0, 2.0])
def test_catenoid_curve_derivatives(e):
    step = 1e-5
    for t in np.linspace(-4.0, 4.0, 21):
        x, _, dx, dt, ddx, ddt = catenoid_generating_curve(e, t)
        assert dt == 1.0 and ddt == 0.0
        xp = catenoid_profile_h1(e, t + step)
        xm = catenoid_profile_h1(e, t - step)
        assert dx == pytest.approx((xp - xm) / (2 * step), abs=1e-8)
        assert ddx == pytest.approx((xp - 2 * x + xm) / step ** 2, abs=1e-4)


@pytest.mark.parametrize("e", [0.5, 1.0, 2.0])
def test_catenoid_satisfies_profile_ode(e):
    # x'' = (2n-1)/x^3 + 2(n-1) x'^2/x collapses to x'' = 1/x^3 at n = 1
    for t in np.linspace(-5.0, 5.0, 11):
        x, _, dx, _, ddx, _ = catenoid_generating_curve(e, t)
        assert abs(ddx - 1.0 / x ** 3) <= 1e-8


# ---------------------------------------------------------------------------
# slab half-width


def test_slab_diverges_for_n1():
    with pytest.raises(DivergentIntegralError) as info:
        catenoid_slab_halfwidth(1, 1.0)
    assert "linearly" in str(info.value)
    with pytest.raises(ValueError):
        catenoid_slab_halfwidth(2, -1.0)


def test_slab_matches_quadrature():
    a = catenoid_slab_halfwidth(2, 1.0)
    b = slab_halfwidth_quadrature(2, 1.0)
    assert a > 0.0
    assert a == pytest.approx(b, rel=1e-12)
    # B(1/2, 1/6) / 6 = Gamma(1/2) Gamma(1/6) / (6 Gamma(2/3))
    assert a == pytest.approx(math.gamma(0.5) * math.gamma(1.0 / 6.0)
                              / (6.0 * math.gamma(2.0 / 3.0)), rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), k=st.floats(-12.0, 12.0))
def test_slab_closed_form_matches_quadrature(n, k):
    e = 10.0 ** k
    a = catenoid_slab_halfwidth(n, e)
    assert math.isfinite(a) and a > 0.0
    assert a == pytest.approx(slab_halfwidth_quadrature(n, e),
                              rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("e", [0.5, 2.0])
def test_catenoid_curve_matches_ode(n, e):
    x, t = catenoid_curve(n, e, 100)
    x1 = e ** (1.0 / (2 * n - 1))
    cfg = SolveConfig(max_arclength=x[-1] + t[-1] + 1.0,
                      rel_tol=1e-12, abs_tol=1e-14)
    traj = integrate(n, 0.0, initial=ProfileState(x1, 0.0, 0.0), config=cfg)
    assert traj.states[-1, 0] > x[-1]
    worst = 0.0
    for xk, tk in zip(x[101:], t[101:]):
        # the ODE point at the same height, and the gap along the normal
        s = brentq(lambda s: traj.state_at(s).t - tk, 0.0, traj.s_end,
                   xtol=1e-15)
        at = traj.state_at(s)
        worst = max(worst, abs(at.x - xk) * abs(math.cos(at.sigma)))
    assert worst <= 1e-9


@pytest.mark.parametrize("e", [1e-300, 5e-324])
def test_catenoid_curve_tiny_energy(e):
    # cos(phi_max) = (x1 / x_end)^3 underflows for the subnormal E, yet the
    # ends stay at x = 4 x1 + 3 and t = +-t_inf
    x, t = catenoid_curve(2, e, 10)
    assert np.all(np.isfinite(x)) and np.all(x > 0.0)
    assert x[0] == x[-1] == 4.0 * e ** (1.0 / 3.0) + 3.0
    assert t[-1] == -t[0] == catenoid_slab_halfwidth(2, e)
    assert np.all(np.diff(t) > 0.0)


def test_slab_partial_integrals_increase_to_limit():
    e = 1.0
    total = catenoid_slab_halfwidth(2, e)

    def near(x, da, db):
        s = math.fsum(x ** i for i in range(3))
        return e * x / math.sqrt(da * s * (x ** 3 + e))

    previous = 0.0
    for cutoff in (1.5, 2.0, 4.0, 8.0):
        partial = singular_quadrature(near, 1.0, cutoff, "lower").value
        assert partial > previous
        assert partial < total
        previous = partial


def test_slab_matches_ode_tail():
    e = 1.0
    tinf = catenoid_slab_halfwidth(2, e)
    cfg = SolveConfig(max_arclength=60.0, rel_tol=1e-12, abs_tol=1e-14)
    traj = integrate(2, 0.0, e=e, config=cfg)
    x_end, t_end = traj.states[-1, 0], traj.states[-1, 1]

    # partial integral to a finite radius equals the ODE height there
    cut = 3.0

    def near(x, da, db):
        s = math.fsum(x ** i for i in range(3))
        return e * x / math.sqrt(da * s * (x ** 3 + e))

    partial = singular_quadrature(near, 1.0, cut, "lower").value
    s_cross = brentq(lambda s: traj.state_at(s).x - cut, 0.0, traj.s_end, xtol=1e-13)
    assert partial == pytest.approx(traj.state_at(s_cross).t, abs=1e-8)

    # the remaining tail behaves like the comparison integral E/x_end
    gap = tinf - t_end
    assert 0.9 * e / x_end < gap < 1.1 * e / x_end


# ---------------------------------------------------------------------------
# half-period heights


NODOID_CASES = [(1, 1.0, -0.1), (2, 0.75, -0.3), (3, 1.0, -1.0), (1, 2.0, -0.05)]


@pytest.mark.parametrize("n,h,e", NODOID_CASES)
def test_nodoid_halfperiod_matches_ode(n, h, e):
    t2 = nodoid_halfperiod(n, h, e)
    assert t2.value > 0.0
    cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1),
                      rel_tol=1e-12, abs_tol=1e-14)
    traj = integrate(n, h, e=e, config=cfg)
    assert t2.value == pytest.approx(traj.states[-1, 1], abs=1e-8)

    # t1 is the height of the vertical-tangent contact at x0
    t1, t2_again = halfperiod_heights(n, h, e)
    assert t2_again.value == pytest.approx(t2.value, abs=1e-12)
    vertical = [ev for ev in traj.events if ev.kind is EventKind.VERTICAL_TANGENT]
    assert vertical, "nodoid sweep must cross its vertical tangent"
    assert t1.value == pytest.approx(vertical[0].state.t, abs=1e-8)


def test_nodoid_halfperiod_frozen():
    # independently verified: t2(1, 1, -0.1) = pi/4
    r = nodoid_halfperiod(1, 1.0, -0.1)
    assert r.value == pytest.approx(math.pi / 4.0, abs=1e-11)
    assert r.error_estimate < 1e-8
    assert r.evaluations > 0


def test_nodoid_sign_normalization():
    direct = nodoid_halfperiod(2, 0.75, -0.3)
    mirrored = nodoid_halfperiod(2, -0.75, 0.3)
    assert mirrored.value == pytest.approx(direct.value, abs=1e-14)


UNDULOID_CASES = [(1, 1.0, 0.4), (2, 0.75, 0.7), (1, 0.5, 0.9)]


@pytest.mark.parametrize("n,h,frac", UNDULOID_CASES)
def test_unduloid_halfperiod_matches_ode(n, h, frac):
    e = frac * cylinder_energy(n, h)
    t2 = unduloid_halfperiod(n, h, e)
    assert t2.value > 0.0
    cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1),
                      rel_tol=1e-12, abs_tol=1e-14)
    traj = integrate(n, h, e=e, config=cfg)
    assert t2.value == pytest.approx(traj.states[-1, 1], abs=1e-8)

    # t1 is the height where the profile crosses the inflection radius x0
    cls = classify(n, h, e)
    t1, _ = halfperiod_heights(n, h, e)
    s_cross = brentq(lambda s: traj.state_at(s).x - cls.x0, 0.0, traj.s_end,
                     xtol=1e-13)
    assert t1.value == pytest.approx(traj.state_at(s_cross).t, abs=1e-8)


def test_halfperiod_heights_degenerate_and_invalid():
    t1, t2 = halfperiod_heights(1, 0.5, cylinder_energy(1, 0.5))
    assert t1.value == 0.0 and t2.value == 0.0
    with pytest.raises(ValueError):
        unduloid_halfperiod(1, 1.0, -0.1)
    with pytest.raises(ValueError):
        nodoid_halfperiod(1, 1.0, 0.1)
    with pytest.raises(ValueError):
        nodoid_halfperiod(1, 0.0, -0.1)
    with pytest.raises(ValueError):
        halfperiod_heights(1, 0.0, 0.5)  # catenoid has no period
    with pytest.raises(ValueError):
        halfperiod_heights(1, 1.0, 0.0)  # sphere has no period


@pytest.mark.parametrize("h,e", [(1.0, -5.0), (1.0, -0.1), (1.0, 0.1),
                                 (1.0, 0.2499), (3.0, -0.7), (0.5, 0.45)])
def test_n1_halfperiod_height_is_parameter_free(h, e):
    # for n = 1 the half-period height collapses to pi/(4H^2) for every E
    if e > 0:
        value = unduloid_halfperiod(1, h, e).value
    else:
        value = nodoid_halfperiod(1, h, e).value
    assert value == pytest.approx(math.pi / (4.0 * h * h), abs=1e-10)


# E over E_cyl, log-spaced across each band: an unduloid toward its thin neck
# (down to 1e-12) and toward the cylinder (up to 1 - 1e-10), a nodoid from
# -1e-12 to -1e3
BAND_FRACTIONS = st.one_of(
    st.floats(-12.0, -0.3).map(lambda v: 10.0 ** v),
    st.floats(-10.0, -0.3).map(lambda v: 1.0 - 10.0 ** v),
    st.floats(-12.0, 3.0).map(lambda v: -(10.0 ** v)),
)


@given(n=st.integers(1, 3), u=st.floats(-3.0, 3.0),
       sign=st.sampled_from((1.0, -1.0)), frac=BAND_FRACTIONS)
@settings(max_examples=40, deadline=None)
def test_halfperiod_property(n, u, sign, frac):
    h = sign * 10.0 ** u
    e = frac * cylinder_energy(n, abs(h)) * sign
    heights = halfperiod_heights(n, h, e)
    assert heights == halfperiod_heights(n, -h, -e)
    t1, t2 = heights
    assert t2.value > 0.0
    assert math.isfinite(t1.value)
    assert math.isfinite(t2.error_estimate)
    if n == 1:
        assert t2.value == pytest.approx(math.pi / (4.0 * h * h), rel=1e-9)
