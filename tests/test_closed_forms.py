"""Closed-form profiles and singular quadrature against independent oracles."""

import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebint
from scipy.fft import dct
from scipy.optimize import brentq
from scipy.special import beta, betainc

from heisenberg_cmc.classify import Family, classify, cylinder_energy
from heisenberg_cmc.closed_forms import (
    QuadratureResult,
    _Band,
    _band_cofactor,
    _betainc,
    _chebint,
    _dct1,
    _grid,
    _STACK_ROWS,
    _HalfPeriod,
    _half_periods,
    _resolved,
    _sample,
    _SphereArc,
    _standard_chop,
    canonical_trajectory,
    catenoid_curve,
    catenoid_generating_curve,
    catenoid_profile_h1,
    catenoid_slab_halfwidth,
    halfperiod_heights,
    nodoid_halfperiod,
    quad,
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


def test_quad_returns_quadpacks_shape():
    # (value, error estimate, {"neval": ...}) as QUADPACK's full output, and
    # a fourth element, a message, where no two Gauss-Legendre orders agree
    value, err, info = quad(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-12)
    assert value == pytest.approx(math.e - 1.0, rel=1e-15)
    assert 0.0 <= err <= 1e-12 * value
    assert info == {"neval": 8 + 16}
    out = quad(lambda u: 1.0 / u, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12)
    assert len(out) == 4 and "differ" in out[3]
    assert out[2]["neval"] == sum(2 ** k for k in range(3, 11))


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


def test_slab_gamma_route_matches_scipy_beta():
    # B(1/2, b) = Gamma(1/2) Gamma(b) / Gamma(1/2 + b) and scipy.special.beta
    # agree to 2.5e-16 for n = 2..8; the product with x1^2 / (2p) rounds
    # once more, so the half-widths of the two routes lie within 3 ulp
    for n in range(2, 9):
        p = 2 * n - 1
        for e in np.logspace(-3.0, 3.0, 61):
            x1 = e ** (1.0 / p)
            old = float(x1 * x1 / (2 * p) * beta(0.5, 0.5 - 1.0 / p))
            assert abs(catenoid_slab_halfwidth(n, e) - old) <= 3 * math.ulp(old)


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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_betainc_matches_scipy(n):
    # both argument orders catenoid_curve uses, p = 2n - 1, on x in [0, 1/2]
    b = 0.5 - 1.0 / (2 * n - 1)
    x = np.linspace(0.0, 0.5, 2001)
    for args in ((0.5, b), (b, 0.5)):
        assert np.max(np.abs(_betainc(*args, x) - betainc(*args, x))) <= 2e-15


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_catenoid_curve_tiny_energy_warns_nothing(n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, t = catenoid_curve(n, 1e-300, 50)
    assert np.all(np.isfinite(x)) and np.all(np.diff(t) > 0.0)
    assert t[-1] == catenoid_slab_halfwidth(n, 1e-300)


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


def test_dct1_matches_scipy_dct():
    # the half-period series doubles its degree from 16 to 4096; a stride
    # covers the degrees between
    rng = np.random.default_rng(13)
    degrees = sorted({2 ** k for k in range(4, 13)} | set(range(16, 4097, 37)))
    for degree in degrees:
        samples = rng.standard_normal(degree + 1)
        assert np.array_equal(_dct1(samples), dct(samples, type=1)), degree


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
    # independently verified: t2(1, 1, -0.1) = pi/4, from the n = 1 formula
    r = nodoid_halfperiod(1, 1.0, -0.1)
    assert r.value == pytest.approx(math.pi / 4.0, abs=1e-11)
    assert r.error_estimate < 1e-8
    assert r.evaluations == 0
    # n = 2 from the Chebyshev series, against the ODE at rel_tol 1e-12
    r = nodoid_halfperiod(2, 0.75, -0.3)
    assert r.value == pytest.approx(1.06564481712286, abs=1e-11)
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


def test_halfperiod_evaluations_count_the_points_sampled():
    # one sample at degree 64 serves degrees 16, 32 and 64; past 64 every
    # degree takes a fresh sample
    at_64 = halfperiod_heights(2, 1.0, 0.5 * cylinder_energy(2, 1.0))
    at_128 = halfperiod_heights(2, 1.0, 0.05 * cylinder_energy(2, 1.0))
    assert [r.evaluations for r in at_64] == [65, 65]
    assert [r.evaluations for r in at_128] == [65 + 129, 65 + 129]


def _series_heights(cls):
    """(t1, t2) of the theta series at x0 and the far band edge, and the
    series, as halfperiod_heights computes them for n >= 2."""
    half = _HalfPeriod(cls)
    t0, t2 = half.heights()
    return (t0 if cls.family is Family.UNDULOID else t2 - t0), t2, half


N1_PERIODIC = dict(u=st.floats(-2.0, 2.0), sign=st.sampled_from((1.0, -1.0)),
                   frac=BAND_FRACTIONS)


@given(**N1_PERIODIC)
@settings(max_examples=60, deadline=None)
def test_n1_t2_is_pi_over_4h2(u, sign, frac):
    # the trochoid t(phi) = (phi - epsilon sin(phi)) / (4H^2) reaches
    # pi / (4H^2) at phi = pi whatever E is: exact, with nothing sampled
    h = sign * 10.0 ** u
    e = frac * cylinder_energy(1, abs(h)) * sign
    heights = halfperiod_heights(1, h, e)
    assert [(r.error_estimate, r.evaluations) for r in heights] == [(0.0, 0)] * 2
    t2 = heights[1].value
    assert abs(t2 - math.pi / (4.0 * h * h)) <= math.ulp(t2)


@given(**N1_PERIODIC)
@settings(max_examples=40, deadline=None)
def test_n1_t1_is_within_the_series_error(u, sign, frac):
    h = sign * 10.0 ** u
    e = frac * cylinder_energy(1, abs(h)) * sign
    t1, _, half = _series_heights(classify(1, h, e))
    assert abs(halfperiod_heights(1, h, e)[0].value - t1) <= half.error


@pytest.mark.parametrize("n, h, e, t1, t2", [
    (2, 1.0, 0.052734375, 0.16471864636785014, 0.939254204926196),
    (2, 0.75, -0.25, 1.176424853588151, 1.0874522240787614),
    (3, 1.0, -0.26791838134430734, 0.511474719704422, 0.4481115919226698),
    (3, 2.0, 0.00010465561771262006, 0.01548670402205838,
     0.20860938624766628),
    (2, -1.5, -0.0003125, 0.004040790463458517, 0.3545913862999065),
])
def test_series_halfperiod_heights_unchanged(n, h, e, t1, t2):
    # n >= 2 keeps the theta series, whose bits the one-pass tests pin
    # against the doubling loop; the values are frozen from before the
    # n = 1 closed forms
    heights = halfperiod_heights(n, h, e)
    *series, half = _series_heights(classify(n, h, e))
    assert [r.value for r in heights] == series
    for r in heights:
        assert (r.error_estimate, r.evaluations) == (half.error,
                                                     half.evaluations)
    assert [r.value for r in heights] == pytest.approx([t1, t2], rel=1e-13)


# ---------------------------------------------------------------------------
# the band cofactor


def _exact_cofactor(cls, x):
    """(x^{4n-2} - w^2) / ((x - x1)(x2 - x)) in exact rationals, at the
    float radii."""
    n = cls.n
    h, e, x1, x2, x = map(Fraction, (cls.h, cls.e, cls.x1, cls.x2, x))
    w = e + h * x ** (2 * n)
    return (x ** (4 * n - 2) - w * w) / ((x - x1) * (x2 - x))


@given(n=st.integers(1, 4), u=st.floats(-2.0, 2.0), nodoid=st.booleans(),
       k=st.floats(-15.0, 3.0), where=st.floats(0.01, 0.99))
@settings(max_examples=150, deadline=None)
def test_band_cofactor_matches_the_exact_quotient(n, u, nodoid, k, where):
    # E / E_cyl from 1e-15 up for unduloids, -E / E_cyl up to 1e3 for
    # nodoids, on bands at least a tenth of x2 wide: nearer the cylinder the
    # rounding of the float radii dominates the exact quotient.  The
    # synthetic division the unduloid's cofactor once used was off by 5.7e-6
    # here
    h = 10.0 ** u
    frac = -(10.0 ** k) if nodoid else 10.0 ** min(k, 0.0)
    cls = classify(n, h, frac * cylinder_energy(n, h))
    assume(cls.family in (Family.UNDULOID, Family.NODOID))
    assume(cls.x2 - cls.x1 >= 0.1 * cls.x2)
    x = cls.x1 + where * (cls.x2 - cls.x1)
    exact = _exact_cofactor(cls, x)
    band = _Band([cls], stacked=False)
    assert abs(Fraction(float(_band_cofactor(band, x))) - exact) <= (
        Fraction(1e-11) * exact), (n, h, cls.e, x)


@pytest.mark.parametrize("n, h, e, t1, t2", [
    (4, 1.0, 1e-15, 1.5623253396232351041e-05, 0.78541283180580981939),
    (4, 0.25, 1e-14, None, 12.566399081838334274),
    (3, 1.0, 1e-15, None, 0.78539861857574007608),
    (3, 10.0, 1e-50, None, 0.0078539816339744794747),
])
def test_thin_neck_heights_hold_their_references(n, h, e, t1, t2):
    # 40-digit references.  With the unduloid cofactor deflated by synthetic
    # division these t2 were off by 2.5e-10, 5.0e-10 and 7.4e-13 relative
    # against error estimates near 3e-15, and the last did not resolve
    for got, ref in zip(halfperiod_heights(n, h, e), (t1, t2)):
        if ref is not None:
            assert abs(got.value - ref) <= (got.error_estimate
                                            + 4.0 * math.ulp(ref))


def test_sample_grid_is_cached_read_only_and_nested():
    theta, sin2, cos2 = _grid(64)
    assert _grid(64)[0] is theta
    for values in (theta, sin2, cos2):
        with pytest.raises(ValueError):
            values[0] = 1.0
    # the points of degree 16 and 32 are every 4th and 2nd point of 64
    for degree, stride in ((16, 4), (32, 2)):
        for coarse, fine in zip(_grid(degree), _grid(64)):
            assert coarse.tobytes() == fine[::stride].tobytes()


# ---------------------------------------------------------------------------
# one sampling pass against the per-degree doubling loop
#
# The reference is the plain doubling loop: a fresh sample at each degree
# 16, 32, 64, ..., its noise yielded with the values, standardChop on numpy
# scalars and numpy's chebint, all over the production band cofactor.  One
# pass must give the same bits.  A numpy build whose SIMD ufuncs round a
# strided subsample of the degree-64 grid otherwise than a fresh grid of
# degree 16 or 32 fails here.

_EPS = float(np.finfo(float).eps)


def _reference_chop(coeffs, tol):
    n = len(coeffs)
    if n < 17:
        return None
    env = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]
    for j in range(2, n + 1):
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
    biased = np.log10(env[:j2]) + np.linspace(0.0, -math.log10(tol) / 3.0, j2)
    return max(int(np.argmin(biased)), 1)


def _reference_path(coeffs, tol):
    """How _reference_chop decides coeffs: "zero" (a row of zeros),
    "unresolved", or, at the first j that passes, "zero-e1" (a zero
    envelope passed it), "cut" (the floor ended the search before j2) or
    "plateau"."""
    env = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if env[0] == 0.0:
        return "zero"
    env = env / env[0]
    for j in range(2, len(coeffs) + 1):
        j2 = round(1.25 * j + 5)
        if j2 > len(coeffs):
            return "unresolved"
        e1 = env[j - 1]
        if e1 == 0.0:
            return "zero-e1"
        if env[j2 - 1] / e1 > 3.0 * (1.0 - math.log(e1) / math.log(tol)):
            floor = tol ** (7.0 / 6.0)
            return "cut" if np.sum(env >= floor) < j2 else "plateau"
    return "unresolved"


def _chop_rows(rng, n):
    """A random series of n coefficients of one of six kinds, with its
    tolerance: decay onto a noise plateau, pure geometric decay (its floor
    ends the search), slow algebraic decay (never a plateau), noise, zeros
    and a finite series followed by exact zeros."""
    k = np.arange(n)
    kind = int(rng.integers(6))
    tol = 10.0 ** rng.uniform(-15.0, -4.0)
    if kind == 0:
        noise = 10.0 ** rng.uniform(-17.0, -6.0)
        row = (10.0 ** (-rng.uniform(0.1, 1.5) * k)
               + noise * rng.standard_normal(n)) * rng.choice([-1.0, 1.0], n)
    elif kind == 1:
        row = 10.0 ** (-rng.uniform(0.3, 2.0) * k)
    elif kind == 2:
        row = 1.0 / (k + 1.0) ** rng.uniform(0.5, 2.0)
    elif kind == 3:
        row = rng.standard_normal(n)
    elif kind == 4:
        row = np.zeros(n)
    else:
        row = rng.standard_normal(n) * 10.0 ** (-0.5 * k)
        row[int(rng.integers(2, n - 1)):] = 0.0
    return row, tol


def test_standard_chop_matches_the_reference_row_by_row():
    # stacks of series of 17 to 129 coefficients, zero-padded to one width
    # as _resolved pads its degrees, each row against the one-row
    # reference.  The j - 1 return after a zero envelope at j - 2 is
    # reached only by a row of zeros: normalized, env_0 = 1, and a zero
    # env_{j-2} past j = 2 would have passed the test at j - 1
    rng = np.random.default_rng(26)
    paths = set()
    for _ in range(40):
        lengths = rng.choice([17, 33, 65, 129], int(rng.integers(1, 40)))
        stack = np.zeros((len(lengths), max(lengths)))
        tols = []
        for row, n in zip(stack, lengths):
            row[:n], tol = _chop_rows(rng, n)
            tols.append(tol)
        keeps = _standard_chop(stack, tols, lengths.tolist())
        for row, n, tol, keep in zip(stack, lengths, tols, keeps):
            assert keep == _reference_chop(row[:n], tol), (row[:n], tol)
            paths.add(_reference_path(row[:n], tol))
    assert paths == {"zero", "unresolved", "zero-e1", "cut", "plateau"}


def _reference_resolved(sample):
    """(fits, the degree that resolved them) of the doubling loop, where
    sample(y) yields (values, noise) at the Chebyshev points y."""
    degree = 8
    while True:
        if degree >= 4096:
            raise QuadratureError("Chebyshev series unresolved at degree 4096")
        degree *= 2
        y = np.cos(np.arange(degree + 1) * math.pi / degree)
        fits = []
        for values, noise in sample(y):
            coeffs = _dct1(values) / degree
            coeffs[[0, -1]] *= 0.5
            keep = _reference_chop(coeffs, noise / float(np.max(np.abs(values))))
            if keep is None:
                break
            fits.append((coeffs, keep, noise))
        else:
            return fits, degree


def _reference_half_period(cls, arclength):
    n, h, e, x1, x2 = cls.n, cls.h, cls.e, cls.x1, cls.x2
    band = _Band([cls], stacked=False)

    def sample(y):
        theta = 0.5 * math.pi * (1.0 + y)
        d1 = (x2 - x1) * np.sin(0.5 * theta) ** 2
        d2 = (x2 - x1) * np.cos(0.5 * theta) ** 2
        x = np.where(d1 <= d2, x1 + d1, x2 - d2)
        scale = x / np.sqrt(_band_cofactor(band, x))
        terms = h * x ** (2 * n)
        rise = (e + terms) * scale
        noise = _EPS * float(np.max((abs(e) + terms) * scale))
        yield rise, noise
        if arclength:
            run = 0.5 * (x2 - x1) * np.sin(np.minimum(theta, math.pi - theta))
            speed = np.hypot(run, rise)
            yield speed, noise + _EPS * float(np.max(speed))

    fits, resolved_at = _reference_resolved(sample)
    coeffs, keep, noise = fits[0]
    ref = {"degree": keep - 1,
           "error": math.pi * (float(np.sum(np.abs(coeffs[keep:]))) + noise),
           "_series": chebint(coeffs[:keep], lbnd=-1.0) * (0.5 * math.pi)}
    if arclength:
        coeffs, keep, _ = fits[1]
        ref["_arclength"] = chebint(coeffs[:keep], lbnd=-1.0) * (0.5 * math.pi)
    return ref, resolved_at


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _one_pass_cases():
    """(n, H, E) on n = 1..4 across both bands, seeded, plus near-cylinder
    unduloids and far nodoids, which resolve at degree 32."""
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(60):
        n = int(rng.integers(1, 5))
        h = 10.0 ** rng.uniform(-2.0, 2.0)
        ecyl = cylinder_energy(n, h)
        neck = 10.0 ** rng.uniform(-10.0, -0.3)
        near_cylinder = 1.0 - 10.0 ** rng.uniform(-9.0, -0.3)
        nodoid = -(10.0 ** rng.uniform(-10.0, 3.0))
        cases.append((n, h, (neck, near_cylinder)[int(rng.integers(2))] * ecyl))
        cases.append((n, h, nodoid * ecyl))
    for n in (1, 2, 3, 4):
        cases.append((n, 1.0, 0.9999 * cylinder_energy(n, 1.0)))
        cases.append((n, 1.0, -1e6 * cylinder_energy(n, 1.0)))
    return cases


def test_one_pass_half_periods_match_the_doubling_loop():
    resolved = set()
    families = set()
    for n, h, e in _one_pass_cases():
        cls = classify(n, h, e)
        families.add((n, cls.family))
        for arclength in (False, True):
            try:
                ref, degree = _reference_half_period(cls, arclength)
            except QuadratureError:
                with pytest.raises(QuadratureError, match="degree 4096"):
                    _HalfPeriod(cls, arclength=arclength)
                continue
            resolved.add(degree)
            half = _HalfPeriod(cls, arclength=arclength)
            where = (n, h, e, arclength)
            assert (half.degree, half.error) == (ref["degree"], ref["error"]), where
            assert _bits(half._series) == _bits(ref["_series"]), where
            if arclength:
                assert _bits(half._arclength) == _bits(ref["_arclength"]), where
            # 65 points, then 129, 257, ... up to the resolving degree
            assert half.evaluations == 65 + sum(
                2 ** k + 1 for k in range(7, 13) if 2 ** k <= degree)
    assert families == {(n, f) for n in (1, 2, 3, 4)
                        for f in (Family.UNDULOID, Family.NODOID)}
    assert {32, 64, 128} <= resolved and max(resolved) > 128


def test_stacked_dct1_rows_match_their_own():
    # the half-period series of a stack share one 2-D rfft; each row must
    # get the bits of its own 1-D one at every length from 17 to 4097 points
    rng = np.random.default_rng(24)
    degrees = sorted({2 ** k for k in range(4, 13)} | set(range(16, 4097, 37)))
    for degree in degrees:
        stack = rng.standard_normal((3, degree + 1))
        rows = _dct1(stack)
        for samples, row in zip(stack, rows):
            assert _bits(row) == _bits(_dct1(samples)), degree


def test_stacked_half_periods_match_each_alone():
    # stacks of up to _STACK_ROWS classifications of one (n, family),
    # resolved at 32, 64 and past 128, give each the series, degree, error
    # and evaluations it gets alone; the cases are shuffled so the stacks
    # interleave, and repeated so some stacks run past the row limit
    clss = [classify(*case) for case in _one_pass_cases()] * 5
    np.random.default_rng(24).shuffle(clss)
    counts = {}
    for cls in clss:
        counts[cls.n, cls.family] = counts.get((cls.n, cls.family), 0) + 1
    assert max(counts.values()) > _STACK_ROWS
    evaluations = set()
    for cls, half in zip(clss, _half_periods(clss)):
        alone = _HalfPeriod(cls)
        assert half.cls is cls
        assert (half.degree, half.error, half.evaluations) == (
            alone.degree, alone.error, alone.evaluations), cls
        assert _bits(half._series) == _bits(alone._series), cls
        evaluations.add(half.evaluations)
    assert 65 in evaluations and max(evaluations) > 65 + 129


def test_a_stack_with_an_unresolved_row_raises():
    # the arclength series of an n = 2 neck at 1e-8 E_cyl needs a degree
    # above the cap; its stack raises as it would alone
    clss = [classify(2, 1.0, 0.05), classify(2, 1.0, 1.0546875e-09)]
    with pytest.raises(QuadratureError, match="unresolved at degree 4096"):
        _resolved(functools.partial(_sample, arclength=True), clss)


def test_halfperiod_heights_of_classifications():
    # the sequence form classifies nothing and returns, in order, the pair
    # the (n, h, e) form returns for each
    cases = _one_pass_cases()[:40] + [(1, 0.5, cylinder_energy(1, 0.5)),
                                      (3, -1.0, 0.2), (2, -1.5, -0.0003125)]
    clss = [classify(*case) for case in cases]
    assert halfperiod_heights(clss) == [halfperiod_heights(*case)
                                        for case in cases]
    assert halfperiod_heights([]) == []
    with pytest.raises(ValueError, match="periodic families"):
        halfperiod_heights([clss[0], classify(2, 1.0, 0.0)])


# (n, H, E) across both bands, H of either sign, for the stacked heights:
# unduloids from 1e-12 E_cyl up to 1 - 1e-10 of it, nodoids from -1e-6 to
# -1e3 E_cyl, where t1 / t2 lies in (1, 32.4] (nearer the sphere t1 - t2
# falls below the series' rounding)
PERIODIC_CASES = st.tuples(
    st.integers(1, 4), st.floats(-2.0, 2.0), st.sampled_from((1.0, -1.0)),
    st.one_of(
        st.floats(-12.0, -0.3).map(lambda v: 10.0 ** v),
        st.floats(-10.0, -0.3).map(lambda v: 1.0 - 10.0 ** v),
        st.floats(-6.0, 3.0).map(lambda v: -(10.0 ** v)),
    ),
).map(lambda c: (c[0], c[2] * 10.0 ** c[1],
                 c[2] * c[3] * cylinder_energy(c[0], 10.0 ** c[1])))


@given(cases=st.lists(PERIODIC_CASES, min_size=1, max_size=12),
       order=st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_stacked_heights_keep_the_half_period_facts(cases, order):
    # one halfperiod_heights call over a shuffled mix of dimensions,
    # families and signs: t2 > 0, an unduloid's inflection lies inside its
    # half period (0 < t1 < t2), and a nodoid overshoots t2 at its vertical
    # tangent (t1 > t2), where its curve turns back
    clss = [classify(*case) for case in cases]
    order.shuffle(clss)
    for cls, (t1, t2) in zip(clss, halfperiod_heights(clss)):
        assert t2.value > 0.0, cls
        if cls.family is Family.UNDULOID:
            assert 0.0 < t1.value < t2.value, cls
        else:
            assert cls.family is Family.NODOID
            assert t1.value > t2.value, cls


def test_non_finite_samples_raise_at_once():
    # the arclength series of an n = 1 nodoid at H = 1e-300 samples x^2 =
    # inf; it used to be fitted up to degree 4096 with three NumPy
    # warnings on the way
    cls = classify(1, 1e-300, -1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OverflowError, match="degree 64 overflow"):
            _HalfPeriod(cls, arclength=True)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("coeffs", [[2.5], [2.5, -1.0], [2.5, -1.0, 0.25]])
def test_chebint_of_short_series_matches_numpy(coeffs):
    # a series kept at one coefficient, as a constant dt/dtheta is, sliced
    # _EVENS[:-1] against no coefficients and raised a broadcast ValueError
    got = _chebint(np.array([coeffs]), 0.5 * math.pi)[0]
    assert _bits(got) == _bits(chebint(coeffs, lbnd=-1.0) * (0.5 * math.pi))


def test_resolved_refuses_a_row_of_zeros():
    # dt/dtheta of a shallow nodoid whose x^(4n-2) overflows is 0 at every
    # point; its noise over its largest value was 0 / 0, which printed
    # NumPy's "invalid value encountered in divide", and it ran to degree
    # 4096.  The row beside it is 1 + y, which resolves alone
    def sample(degree, some):
        values = np.zeros((len(some), degree + 1))
        values[0] = 1.0 + np.cos(np.arange(degree + 1) * math.pi / degree)
        return [(values, (np.abs(values),))]

    with pytest.raises(OverflowError,
                       match="Chebyshev samples of degree 64 underflow to 0"):
        _resolved(sample, [0, 1])


@pytest.mark.parametrize("h", [0.01, 0.5, 1.0, 3.0, 100.0])
def test_one_pass_sphere_arcs_match_the_doubling_loop(h):
    def sample(y):
        phi = 0.25 * math.pi * (1.0 + y)
        speed = np.hypot(np.sin(phi) / h, np.cos(phi) ** 2 / (h * h))
        yield speed, _EPS * float(np.max(speed))

    fits, _ = _reference_resolved(sample)
    coeffs, keep, _ = fits[0]
    series = chebint(coeffs[:keep], lbnd=-1.0) * (0.25 * math.pi)
    assert _bits(_SphereArc(h, 1e-6)._series) == _bits(series)


@pytest.mark.parametrize("f, degree", [
    (lambda y: y ** 3 + 2.0, 16),
    (np.exp, 32),
    (lambda y: 1.0 / (1.0 + 4.0 * y * y), 128),
])
def test_one_pass_resolves_at_the_degree_of_the_doubling_loop(f, degree):
    # no half period or sphere tried resolves at degree 16, where
    # standardChop must find the plateau by index 9 (the n = 2 unduloid at
    # (1 - 1e-12) E_cyl still has coefficients of 4e-13 there), so these
    # series cover the degrees one pass serves.  The bound's peak at
    # y = 0.3 lies between the points of degree 16, so each degree's noise
    # must come from that degree's own points
    def bound(y, values):
        return np.abs(values) + np.exp(-50.0 * (y - 0.3) ** 2)

    def reference(y):
        values = f(y)
        yield values, _EPS * float(np.max(bound(y, values)))

    def sample(n, _):  # a stack of one row
        y = np.cos(np.arange(n + 1) * math.pi / n)
        values = f(y)
        return [(values[np.newaxis], (bound(y, values)[np.newaxis],))]

    ref, resolved_at = _reference_resolved(reference)
    ((fits, evaluations),) = _resolved(sample, [f])
    assert resolved_at == degree
    assert evaluations == (65 if degree <= 64 else 65 + 129)
    (coeffs, keep, noise), = fits
    (ref_coeffs, ref_keep, ref_noise), = ref
    assert (keep, noise) == (ref_keep, ref_noise)
    assert _bits(coeffs) == _bits(ref_coeffs)


# ---------------------------------------------------------------------------
# closed-form canonical traces


@pytest.mark.parametrize("n, h, frac", [(1, 1.0, 0.5), (2, 0.75, -1.0),
                                        (3, 1.5, 0.5), (2, 0.5, -3.0)])
def test_arclength_series_matches_ode_half_period(n, h, frac):
    e = frac * cylinder_energy(n, h)
    half = _HalfPeriod(classify(n, h, e), arclength=True)
    s_half = float(half.arclength(math.pi) - half.arclength(0.0))
    cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1),
                      rel_tol=1e-12, abs_tol=1e-14)
    ode = integrate(n, h, e=e, config=cfg)
    assert ode.events[-1].kind is EventKind.CRITICAL_RADIUS
    assert s_half == pytest.approx(ode.s_end, rel=1e-10)


def test_arclength_series_cap_leaves_the_height_series():
    # an n = 2 neck at 1e-8 E_cyl: the height series resolves, the
    # arclength series would need a degree above the cap
    cls = classify(2, 1.0, 1.0546875e-09)
    assert _HalfPeriod(cls).degree < 4096
    with pytest.raises(QuadratureError, match="unresolved at degree 4096"):
        _HalfPeriod(cls, arclength=True)


@pytest.mark.parametrize("n, h, e, stop", [
    (1, 1.0, 0.0, (EventKind.AXIS_CONTACT, 1)),
    (3, -2.0, 0.0, None),
    (2, 0.75, -0.25, None),
    (1, -0.5, -0.3, (EventKind.VERTICAL_TANGENT, 3)),
    (3, 1.0, 0.02, (EventKind.CRITICAL_RADIUS, 5)),
])
def test_canonical_trajectory_dense_states_are_exact(n, h, e, stop):
    traj = canonical_trajectory(classify(n, h, e),
                                SolveConfig(stop_event=stop))
    assert traj.engine == "closed-form"
    assert traj.stats.rhs_evals == 0 and traj.energy_correction == 0.0
    assert traj.s[0] == 0.0 and tuple(traj.states[0, 1:]) == (
        0.0, 0.0 if h > 0.0 else math.pi)
    assert np.all(np.diff(traj.s) > 0.0)
    # the dense map inverts the arclength series at every node, also across
    # the mirror joints
    for s, state in zip(traj.s[::7], traj.states[::7]):
        assert np.max(np.abs(np.subtract(list(traj.state_at(s)), state))) \
            <= 1e-11 * (1.0 + np.max(np.abs(state)))
    for ev in traj.events:
        # sigma winds by pi per nodoid half period; allow its rounding
        slack = 4.0 * np.finfo(float).eps * (1.0 + abs(ev.state.sigma))
        if ev.kind is EventKind.CRITICAL_RADIUS:
            assert abs(math.sin(ev.state.sigma)) <= slack
        if ev.kind is EventKind.VERTICAL_TANGENT:
            assert abs(math.cos(ev.state.sigma)) <= 1e-12
    assert traj.energy_drift() <= 1e-13


def test_canonical_trajectory_negative_h_is_the_mirror():
    cfg = SolveConfig(max_arclength=20.0)
    up = canonical_trajectory(classify(2, 1.0, -0.05), cfg)
    down = canonical_trajectory(classify(2, -1.0, 0.05), cfg)
    assert (down.h, down.e) == (-1.0, 0.05)
    assert np.array_equal(up.s, down.s)
    assert np.array_equal(up.states[:, 0], down.states[:, 0])
    assert np.array_equal(up.states[:, 1], -down.states[:, 1])
    assert np.allclose(math.pi - up.states[:, 2], down.states[:, 2],
                       rtol=0.0, atol=1e-13)
    assert [ev.kind for ev in up.events] == [ev.kind for ev in down.events]


def test_canonical_trajectory_stops_at_the_axis_margin():
    # n = 1 nodoid with neck x1 ~ 2.5e-9, inside the margin: the trace ends
    # at x = 1e-6 on a terminal AxisContact, after the vertical tangent
    e = -1e-8 * cylinder_energy(1, 1.0)
    cls = classify(1, 1.0, e)
    assert cls.x1 < 1e-6
    traj = canonical_trajectory(cls, SolveConfig())
    assert [ev.kind for ev in traj.events] == [EventKind.VERTICAL_TANGENT,
                                              EventKind.AXIS_CONTACT]
    assert traj.states[-1, 0] == pytest.approx(1e-6, rel=1e-9)
    assert traj.s_end == traj.events[-1].s < 50.0


def test_canonical_trajectory_rejects_other_families():
    with pytest.raises(ValueError, match="Catenoid"):
        canonical_trajectory(classify(2, 0.0, 0.5), SolveConfig())
