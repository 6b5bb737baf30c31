"""Integration of the generating-curve system and its conserved quantity."""

import io
import logging
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heisenberg_cmc.profile_ode as pode
from heisenberg_cmc.classify import classify, cylinder_energy
from heisenberg_cmc.closed_forms import canonical_trajectory, sphere_profile
from heisenberg_cmc.errors import (
    AxisPointError,
    EnergyDriftError,
    NoCriticalPointError,
)
from heisenberg_cmc.profile_ode import (
    Event,
    EventKind,
    ProfileState,
    SolveConfig,
    Trajectory,
    energy,
    initial_state,
    integrate,
    reflect_continue,
    rhs,
    sigma_at_radius,
    trajectory_to_csv,
    trajectory_to_json,
)


# ---------------------------------------------------------------------------
# right-hand side and energy, frozen values


def test_rhs_frozen_examples():
    # hyperplane: radial ray, sigma stays at pi/2
    assert rhs((1.0, 0.0, math.pi / 2), 1, 0.0) == pytest.approx(
        (1.0, 0.0, 0.0), abs=1e-15
    )
    # cylinders sit at equilibria of sigma
    assert rhs((1.0, 0.0, 0.0), 1, 0.5) == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)
    assert rhs((1.0, 0.0, 0.0), 2, 0.75) == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)
    # sphere of curvature 1 at its equator turns inward
    assert rhs((1.0, 0.0, 0.0), 1, 1.0) == pytest.approx((0.0, 1.0, -1.0), abs=1e-15)


def test_energy_frozen_examples():
    assert energy((1.0, 0.0, 0.0), 1, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert energy((1.0, 0.0, 0.0), 2, 0.75) == pytest.approx(0.25, abs=1e-15)
    assert energy((1.0, 0.0, 0.0), 1, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert energy((2.0, 5.0, 0.0), 1, 0.0) == pytest.approx(2.0, abs=1e-15)
    # vertical tangent kills the first term
    assert energy((2.0, 0.0, math.pi / 2), 1, 0.5) == pytest.approx(-2.0, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("x", [1e-3, 0.5, 1.0, 37.0])
@pytest.mark.parametrize("sigma", [math.pi / 2, -math.pi / 2,
                                   3 * math.pi / 2, -5 * math.pi / 2])
def test_vertical_state_has_zero_energy_on_a_hyperplane(n, x, sigma):
    # math.cos(pi / 2) is 6.1e-17, which made E ~ 1e-17 x^(2n-2)
    assert energy(ProfileState(x, 0.0, sigma), n, 0.0) == 0.0


def test_quarter_turns_map_exactly():
    for quarter in range(-12, 13):
        sigma = quarter * (math.pi / 2.0)
        cos, sin = pode._cos_sin(sigma)
        assert (cos, sin) == (round(math.cos(sigma)), round(math.sin(sigma)))
    assert pode._cos_sin(1.0) == (math.cos(1.0), math.sin(1.0))
    assert pode._cos_sin(math.pi / 2 + 1e-15) == (
        math.cos(math.pi / 2 + 1e-15), math.sin(math.pi / 2 + 1e-15))
    # rhs reads the same pair: a vertical ray stays vertical
    assert rhs((0.5, 0.0, -math.pi / 2), 3, 0.0) == (-1.0, 0.0, 0.0)


def test_rhs_axis_guard():
    with pytest.raises(AxisPointError):
        rhs((0.0, 0.0, 0.0), 1, 1.0)
    with pytest.raises(AxisPointError):
        energy((-1.0, 0.0, 0.0), 1, 1.0)


@pytest.mark.parametrize("n, h, e", [
    (1, 0.0, 0.0), (2, 0.0, 0.3), (2, 1.0, 0.0), (1, 0.5, 0.5),
    (2, 0.7, 0.05), (3, 1.0, -0.2),
])
def test_initial_state_of_negative_h_is_the_mirror(n, h, e):
    # hyperplane, catenoid, sphere, cylinder, unduloid, nodoid
    up = initial_state(classify(n, h, e))
    down = initial_state(classify(n, -h, -e))
    assert down == ProfileState(up.x, 0.0, math.pi - up.sigma)


def test_initial_states_have_requested_energy():
    cases = [
        (1, 0.0, 0.0),
        (1, 0.0, 1.0),
        (1, 0.0, -2.0),
        (2, 0.0, 0.7),
        (1, 0.5, 0.3),
        (1, 1.0, -0.1),
        (1, 0.5, 0.5),
        (2, 0.75, 0.25),
        (1, 2.0, 0.0),
        (3, 0.4, -0.7),
        (1, -0.5, -0.3),
        (1, -1.0, 0.1),
        (2, -0.75, -0.25),
    ]
    for n, h, e in cases:
        st = initial_state(classify(n, h, e))
        assert energy(st, n, h) == pytest.approx(e, abs=1e-12)


def test_sigma_at_radius_roundtrip():
    n, h, e = 1, 0.5, 0.3
    c = classify(n, h, e)
    for x in np.linspace(c.x1, c.x2, 7):
        sig = sigma_at_radius(n, h, e, float(x), rising=True)
        assert energy((x, 0.0, sig), n, h) == pytest.approx(e, abs=1e-12)
        assert math.sin(sig) >= -1e-12
    with pytest.raises(ValueError):
        sigma_at_radius(n, h, e, c.x2 + 0.5)


def test_inflection_is_sigma_equilibrium():
    # at the inflection radius the energy-compatible angle makes sigma' = 0
    for n, h, e in ((1, 0.5, 0.3), (2, 0.8, 0.05)):
        c = classify(n, h, e)
        sig = sigma_at_radius(n, h, e, c.x0, rising=True)
        dsig = rhs((c.x0, 0.0, sig), n, h)[2]
        assert abs(dsig) < 1e-9


# ---------------------------------------------------------------------------
# integration against closed-form solutions


def test_cylinder_stays_put():
    traj = integrate(1, 0.5, e=0.5, config=SolveConfig(max_arclength=10.0))
    _, x, t, sig = traj.arrays()
    assert np.max(np.abs(x - 1.0)) < 1e-9
    assert np.max(np.abs(sig)) < 1e-9
    assert np.allclose(t, traj.s, atol=1e-9)
    assert traj.energy_drift() < 1e-10


def test_cylinder_records_no_critical_radius():
    # sin sigma is exactly 0 at every node, and the inclusive sign test once
    # found a root in every step: n = 1, H = 0.5 to s = 20 reported
    # CriticalRadius at s = 0.014, 0.092, 0.512, 2.759 and 14.768
    cfg = SolveConfig(max_arclength=20.0,
                      stop_event=(EventKind.CRITICAL_RADIUS, 8))
    traj = integrate(1, 0.5, e=cylinder_energy(1, 0.5), config=cfg)
    assert traj.s_end == 20.0
    assert [ev.kind for ev in traj.events] == []
    assert any("no CriticalRadius event" in note for note in traj.notes)
    unduloid = integrate(1, 0.5, e=0.3, config=SolveConfig(max_arclength=5.0))
    assert not any("no CriticalRadius event" in note
                   for note in unduloid.notes)


def test_hyperplane_ray():
    traj = integrate(1, 0.0, e=0.0, config=SolveConfig(max_arclength=5.0))
    _, x, t, sig = traj.arrays()
    assert np.max(np.abs(t)) < 1e-12
    assert np.allclose(x, 1.0 + traj.s, atol=1e-10)
    assert np.max(np.abs(sig - math.pi / 2)) < 1e-12


# projected onto energy(initial_state), whose roundoff is ~1e-16 H^-(2n-1),
# instead of E = 0, the spheres of the two jittered H values turn back short
# of the axis
@pytest.mark.parametrize("n, h", [(1, 1.0), (2, 1.0), (3, 1.0),
                                  (2, 1.0475908149008875),
                                  (3, 0.9569630462633789)])
def test_sphere_reaches_axis(n, h):
    cfg = SolveConfig(axis_epsilon=1e-6, max_arclength=10.0)
    traj = integrate(n, h, e=0.0, config=cfg)
    contacts = [ev for ev in traj.events if ev.kind is EventKind.AXIS_CONTACT]
    assert len(contacts) == 1
    assert traj.s_end == contacts[0].s
    end = contacts[0].state
    # the closed form gives t = pi/(4 H^2) at the pole, for every n
    assert end.t == pytest.approx(math.pi / (4.0 * h * h), abs=1e-5)
    assert abs(math.sin(end.sigma)) > 1.0 - 1e-6
    assert len(traj.s) < 200


@pytest.mark.parametrize("h", [0.5, math.nextafter(math.nextafter(1.0, 2.0),
                                                  2.0)])
def test_sphere_ends_at_the_axis_on_its_level_set(h):
    # the last step once ran past the axis, where the rhs is clamped, and
    # its dense output put the AxisContact state off the level set: by
    # 5.8e-7 at H = 0.5, which cost a retry, and 2.6e-9 at H = 1 + 2 ulps
    traj = integrate(1, h, e=0.0, config=SolveConfig(max_arclength=5.0))
    assert traj.events[-1].kind is EventKind.AXIS_CONTACT
    assert abs(energy(traj.states[-1], 1, h)) <= 1e-15
    assert traj.stats.retries == 0


def _sphere_to_axis(n, h):
    cfg = SolveConfig(stop_event=(EventKind.AXIS_CONTACT, 1))
    return integrate(n, h, e=0.0, config=cfg)


@settings(max_examples=15, deadline=None)
@given(n=st.sampled_from([2, 3]), h=st.floats(0.2, 5.0))
def test_sphere_profile_is_the_same_for_every_n(n, h):
    traj = _sphere_to_axis(n, h)
    assert traj.events[-1].kind is EventKind.AXIS_CONTACT
    for x, t in traj.states[:, :2]:
        assert abs(t - sphere_profile(h, min(x, 1.0 / h))) <= 1e-6
    assert traj.s_end == pytest.approx(_sphere_to_axis(1, h).s_end, abs=1e-8)


def test_catenoid_matches_closed_form():
    # x(t) = sqrt(t^2 + E^4)/E for n = 1
    e = 1.0
    traj = integrate(1, 0.0, e=e, config=SolveConfig(max_arclength=10.0))
    _, x, t, sig = traj.arrays()
    assert np.max(np.abs(x - np.sqrt(t * t + e**4) / e)) < 1e-9


def test_stop_event_truncation():
    cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1))
    traj = integrate(1, 0.5, e=0.3, config=cfg)
    c = classify(1, 0.5, 0.3)
    crits = [ev for ev in traj.events if ev.kind is EventKind.CRITICAL_RADIUS]
    # the start sits on the event; the phantom hit at s = 0 must not appear
    assert all(ev.s > 1e-6 for ev in crits)
    assert len(crits) == 1
    assert traj.s_end == pytest.approx(crits[0].s)
    assert traj.states[-1, 0] == pytest.approx(c.x2, abs=1e-8)
    assert abs(traj.states[-1, 2]) < 1e-9  # sigma returned to 0


def test_stop_event_second_occurrence():
    cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 2))
    traj = integrate(1, 0.5, e=0.3, config=cfg)
    c = classify(1, 0.5, 0.3)
    assert traj.states[-1, 0] == pytest.approx(c.x1, abs=1e-8)
    # one full period: t advanced by 2 t2 where t2 is the half-period height
    crits = [ev for ev in traj.events if ev.kind is EventKind.CRITICAL_RADIUS]
    assert len(crits) == 2
    assert crits[1].state.t == pytest.approx(2.0 * crits[0].state.t, rel=1e-7)


def test_unduloid_band_and_monotone_x():
    c = classify(1, 0.5, 0.3)
    cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1))
    traj = integrate(1, 0.5, e=0.3, config=cfg)
    x = traj.states[:, 0]
    assert np.all(x >= c.x1 - 1e-9)
    assert np.all(x <= c.x2 + 1e-9)
    assert np.all(np.diff(x) > -1e-12)  # rising half-period
    assert np.max(np.abs(np.diff(traj.states[:, 1]))) > 0.0


def test_nodoid_kinematics():
    n, h, e = 1, 1.0, -0.1
    c = classify(n, h, e)
    cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1), max_arclength=20.0)
    traj = integrate(n, h, e=e, config=cfg)
    sig = traj.states[:, 2]
    assert np.all(np.diff(sig) < 1e-12)  # sigma strictly decreasing
    verts = [ev for ev in traj.events if ev.kind is EventKind.VERTICAL_TANGENT]
    crits = [ev for ev in traj.events if ev.kind is EventKind.CRITICAL_RADIUS]
    assert len(verts) == 1 and len(crits) == 1
    assert verts[0].state.x == pytest.approx(c.x0, abs=1e-8)
    assert verts[0].state.t > 0.0
    assert crits[0].state.x == pytest.approx(c.x1, abs=1e-8)
    assert crits[0].state.t > 0.0
    assert crits[0].state.sigma == pytest.approx(-math.pi, abs=1e-8)


def test_dense_output_consistency():
    traj = integrate(1, 0.5, e=0.3, config=SolveConfig(max_arclength=4.0))
    for s in np.linspace(0.1, 3.9, 11):
        st = traj.state_at(float(s))
        h = 1e-6
        a = traj.state_at(float(s) - h)
        b = traj.state_at(float(s) + h)
        assert (b.x - a.x) / (2 * h) == pytest.approx(math.sin(st.sigma), abs=1e-6)
        assert (b.t - a.t) / (2 * h) == pytest.approx(math.cos(st.sigma), abs=1e-6)


def test_translation_symmetry():
    base = initial_state(classify(1, 0.5, 0.3))
    cfg = SolveConfig(max_arclength=5.0)
    a = integrate(1, 0.5, initial=base, config=cfg)
    b = integrate(
        1, 0.5, initial=ProfileState(base.x, base.t + 5.0, base.sigma), config=cfg
    )
    # the right-hand side never reads t, but step-size control sees it, so
    # the two runs agree only to the integration tolerance
    grid = np.linspace(0.0, 5.0, 23)
    for s in grid:
        sa, sb = a.state_at(float(s)), b.state_at(float(s))
        assert sb.x == pytest.approx(sa.x, abs=1e-8)
        assert sb.t == pytest.approx(sa.t + 5.0, abs=1e-8)
        assert sb.sigma == pytest.approx(sa.sigma, abs=1e-8)


def test_traversal_sign_symmetry():
    # the (-H, -E) profile is the t-mirror of the (H, E) profile
    cfg = SolveConfig(max_arclength=6.0)
    fwd = integrate(1, 1.0, e=-0.1, config=cfg)
    rev = integrate(1, -1.0, e=0.1, config=cfg)
    for s in np.linspace(0.0, 6.0, 25):
        a, b = fwd.state_at(float(s)), rev.state_at(float(s))
        assert b.x == pytest.approx(a.x, abs=1e-8)
        assert b.t == pytest.approx(-a.t, abs=1e-8)
        assert math.sin(b.sigma) == pytest.approx(math.sin(a.sigma), abs=1e-8)
        assert math.cos(b.sigma) == pytest.approx(-math.cos(a.sigma), abs=1e-8)


@pytest.mark.parametrize("n, h, e", [(1, 1.0, -0.1), (2, 0.75, 0.2),
                                     (3, 1.0, -1.0)])
def test_mirrored_start_stops_at_first_critical_radius(n, h, e):
    # the (-H, -E) start has sigma = pi; its sin must be exactly 0, or the
    # solver misses the phantom event at s = 0 and integrates a whole extra
    # half period past the requested stop
    cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1))
    fwd = integrate(n, h, e=e, config=cfg)
    rev = integrate(n, -h, e=-e, config=cfg)
    assert rev.stats == fwd.stats
    assert rev.s_end == pytest.approx(fwd.s_end, abs=1e-12)


# ---------------------------------------------------------------------------
# reflection


def test_reflection_matches_direct_integration():
    cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1))
    half = integrate(1, 0.5, e=0.3, config=cfg)
    full = reflect_continue(half)
    direct = integrate(
        1, 0.5, initial=initial_state(classify(1, 0.5, 0.3)),
        config=SolveConfig(max_arclength=full.s_end + 0.5),
    )
    # compare the reflected trajectory's own nodes against the direct run's
    # dense solution
    for s, (x, t, sig) in zip(full.s, full.states):
        b = direct.state_at(float(s))
        assert x == pytest.approx(b.x, abs=1e-8)
        assert t == pytest.approx(b.t, abs=1e-8)
        assert sig == pytest.approx(b.sigma, abs=1e-8)
    # between nodes the reflected dense evaluator must stay as exact
    for s in 0.5 * (full.s[1:] + full.s[:-1]):
        a, b = full.state_at(float(s)), direct.state_at(float(s))
        assert a.x == pytest.approx(b.x, abs=1e-8)
        assert a.t == pytest.approx(b.t, abs=1e-8)
        assert a.sigma == pytest.approx(b.sigma, abs=1e-8)
    assert full.energy_drift() < 1e-9


def test_reflection_prepends_for_sphere():
    cfg = SolveConfig(axis_epsilon=1e-6, max_arclength=10.0)
    half = integrate(1, 1.0, e=0.0, config=cfg)
    closed = reflect_continue(half)
    assert closed.s[0] == 0.0
    assert closed.s_end == pytest.approx(2.0 * half.s_end)
    # closed profile runs pole to pole through the equator at t = 0,
    # spanning t in [-pi/4, pi/4] for H = 1
    t = closed.states[:, 1]
    x = closed.states[:, 0]
    assert t[0] == pytest.approx(-math.pi / 4.0, abs=1e-5)
    assert t[-1] == pytest.approx(math.pi / 4.0, abs=1e-5)
    assert x[0] == pytest.approx(1e-6, abs=1e-5)
    assert x[-1] == pytest.approx(1e-6, abs=1e-5)
    assert np.max(x) == pytest.approx(1.0, abs=1e-8)
    assert np.all(np.diff(t) > -1e-12)
    # equator sits at the joint
    mid = closed.state_at(half.s_end)
    assert mid.t == pytest.approx(0.0, abs=1e-9)
    assert mid.x == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n, h, e, waist",
                         [(1, 1.0, 0.0, 1.0), (2, 0.0, 0.5, 0.5 ** (1.0 / 3.0))],
                         ids=["sphere", "catenoid"])
def test_reflection_records_joint(n, h, e, waist):
    # the sphere's equator and the catenoid's waist are critical radii at the
    # start of the forward solve, which the solver does not report; the
    # prepended mirror must record the joint there
    half = integrate(n, h, e=e, config=SolveConfig(max_arclength=6.0))
    closed = reflect_continue(half)
    joints = [ev for ev in closed.events
              if ev.kind is EventKind.CRITICAL_RADIUS]
    assert len(joints) == 1
    assert joints[0].s == half.s_end
    assert tuple(joints[0].state) == pytest.approx((waist, 0.0, 0.0),
                                                   abs=1e-12)


def test_reflection_cylinder_note():
    traj = integrate(1, 0.5, e=0.5, config=SolveConfig(max_arclength=3.0))
    out = reflect_continue(traj)
    assert out.s_end == traj.s_end
    assert any("cylinder" in note for note in out.notes)


def test_reflection_requires_critical_point():
    # start mid-band at a generic angle, stop at a vertical tangent:
    # neither end is a critical radius
    n, h, e = 1, 1.0, -0.1
    c = classify(n, h, e)
    x_start = 0.5 * (c.x0 + c.x2)
    sig = sigma_at_radius(n, h, e, x_start, rising=False)
    cfg = SolveConfig(stop_event=(EventKind.VERTICAL_TANGENT, 1))
    traj = integrate(n, h, initial=ProfileState(x_start, 0.0, sig), config=cfg)
    assert abs(math.sin(traj.states[0, 2])) > 1e-3
    assert abs(math.sin(traj.states[-1, 2])) > 1e-3
    with pytest.raises(NoCriticalPointError):
        reflect_continue(traj)


def test_reflection_doubles_per_copy():
    cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1))
    half = integrate(1, 0.5, e=0.3, config=cfg)
    quad = reflect_continue(half, copies=2)
    assert quad.s_end == pytest.approx(4.0 * half.s_end)


# ---------------------------------------------------------------------------
# canonical periodic profiles: one half period, mirrored


def _is_tiling_note(note):
    return note.startswith("periodic: one half period")


@pytest.mark.parametrize("n, h, e", [
    (1, 0.5, 0.3),
    (2, 2.0, -0.0066),
    (3, 0.25, -0.5 * cylinder_energy(3, 0.25)),
    (1, -1.0, 0.1),
], ids=["unduloid", "nodoid-n2", "nodoid-n3", "mirrored-nodoid"])
def test_canonical_periodic_is_mirrored_half_period(n, h, e):
    cfg = SolveConfig(max_arclength=200.0,
                      stop_event=(EventKind.CRITICAL_RADIUS, 8))
    tiled = integrate(n, h, e=e, config=cfg)
    half = integrate(n, h, e=e, config=replace(
        cfg, stop_event=(EventKind.CRITICAL_RADIUS, 1)))
    assert tiled.stats == half.stats
    assert tiled.config == cfg
    assert [note for note in tiled.notes if _is_tiling_note(note)] == [
        f"periodic: one half period (arclength {half.s_end:.12g}) "
        f"mirrored to arclength {tiled.s_end:.12g}"]
    # the turns alternate between the band roots, starting at the one the
    # canonical start is not on
    c = classify(n, h, e)
    start = initial_state(classify(n, h, e)).x
    other = c.x2 if start == c.x1 else c.x1
    crits = [ev.state.x for ev in tiled.events
             if ev.kind is EventKind.CRITICAL_RADIUS]
    assert crits == pytest.approx([other, start] * 4, rel=1e-6)
    assert tiled.s_end == pytest.approx(8.0 * half.s_end, rel=1e-12)
    # every node sits on the direct solve of every period
    direct = integrate(n, h, initial=initial_state(classify(n, h, e)),
                       config=SolveConfig(max_arclength=tiled.s_end + 0.5))
    assert direct.stats.rhs_evals > 5 * tiled.stats.rhs_evals
    for s, state in zip(tiled.s, tiled.states):
        assert np.max(np.abs(state - list(direct.state_at(s)))) <= 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_direct_solve_conserves_energy_over_eight_half_periods(n):
    # the nodoids of verify's energy grid that cost the direct solve most;
    # verify mirrors their half periods, so the long-run conservation of the
    # ODE itself is held here
    h = 2.0
    e = -0.5 * cylinder_energy(n, h)
    cfg = SolveConfig(max_arclength=50.0, drift_tolerance=1e-9,
                      stop_event=(EventKind.CRITICAL_RADIUS, 8))
    traj = integrate(n, h, initial=initial_state(classify(n, h, e)), config=cfg)
    c = classify(n, h, e)
    crits = [ev.state.x for ev in traj.events
             if ev.kind is EventKind.CRITICAL_RADIUS]
    assert crits == pytest.approx([c.x1, c.x2] * 4, rel=1e-6)
    assert traj.s_end == traj.events[-1].s
    assert traj.energy_drift() / (1.0 + abs(traj.e)) <= 1e-9


def test_canonical_periodic_without_critical_radius_in_limit():
    # the first turn of the (1, 0.5, 0.3) unduloid lies at s = 3.53: within
    # 0.5 the half-period solve is the direct one, cut as requested
    cfg = SolveConfig(max_arclength=0.5)
    traj = integrate(1, 0.5, e=0.3, config=cfg)
    assert traj.notes == []
    assert traj.config == cfg
    assert traj.s_end == 0.5
    assert not traj.events
    direct = integrate(1, 0.5, initial=initial_state(classify(1, 0.5, 0.3)),
                       config=cfg)
    assert traj.stats == direct.stats
    assert np.max(np.abs(traj.states - direct.states)) <= 1e-12
    # only the caller's own unreached stop event is noted
    cfg = SolveConfig(max_arclength=0.5,
                      stop_event=(EventKind.CRITICAL_RADIUS, 2))
    assert integrate(1, 0.5, e=0.3, config=cfg).notes == [
        "stop event CriticalRadius x2 not reached within arclength 0.5"]


# ---------------------------------------------------------------------------
# drift detection and serialization


def _break_rhs(monkeypatch, line):
    """Swap in a broken copy of the rhs: line runs after sigma' is made."""
    monkeypatch.setattr(pode, "_SIGMA_PRIME", f"{pode._SIGMA_PRIME}\n{line}")


def test_energy_drift_detected(monkeypatch):
    _break_rhs(monkeypatch, "dsigma *= 1.01")
    with pytest.raises(EnergyDriftError) as err:
        integrate(1, 0.5, e=0.3, config=SolveConfig(max_arclength=10.0))
    assert err.value.trajectory is not None
    assert err.value.trajectory.energy_drift() > 1e-8


def test_energy_drift_message_without_rounding(monkeypatch):
    # |H| x^{2n} stays below 10 on this unduloid, so rounding cannot explain
    # the drift and the message adds no rounding clause
    _break_rhs(monkeypatch, "dsigma *= 1.01")
    with pytest.raises(EnergyDriftError) as err:
        integrate(1, 0.5, e=0.3, config=SolveConfig(max_arclength=10.0))
    assert str(err.value).startswith("energy drifted by")
    assert "rounding" not in str(err.value)


def test_broken_rhs_reaches_every_evaluation(monkeypatch):
    # the swapped source reaches the generated stages, the solver's own rhs
    # and rhs(state) alike, and leaves them as they were once swapped back
    state, y = (0.8, 0.0, 0.3), (0.8, 0.0, math.cos(0.3), math.sin(0.3))
    sound = rhs(state, 2, 0.5)
    trial, dense, fun = _solver_steps(2, 0.5)
    f = fun(0.8, y[2], y[3])
    step = trial(y, f, 0.01, 1e-10, 1e-12)
    _, y_new, f_new, kept = step
    coefficients = dense(y, f, 0.01, y_new, f_new, kept)
    _break_rhs(monkeypatch, "dsigma *= 1.01")
    assert rhs(state, 2, 0.5)[2] == sound[2] * 1.01
    broken_trial, broken_dense, broken_fun = _solver_steps(2, 0.5)
    assert broken_fun(0.8, y[2], y[3])[3] == pytest.approx(
        f[3] * 1.01, rel=1e-15)
    assert broken_trial(y, f, 0.01, 1e-10, 1e-12)[1] != y_new
    assert broken_dense(y, f, 0.01, y_new, f_new, kept) != coefficients
    monkeypatch.undo()
    assert rhs(state, 2, 0.5) == sound
    assert _solver_steps(2, 0.5)[0](y, f, 0.01, 1e-10, 1e-12) == step


def test_start_where_the_rhs_overflows_is_refused():
    # the nodoid starts at x2 = 1e300, where x^2 overflows: y' is NaN there
    with pytest.raises(OverflowError, match="overflows a float at x = 9.99"):
        integrate(1, 1e-300, e=-1.0)


def test_axis_start_rejected():
    with pytest.raises(AxisPointError):
        integrate(1, 0.5, initial=ProfileState(1e-9, 0.0, 0.0))


def test_drift_retry_tightens_tolerance():
    # the n = 3 sphere of H = 0.25 is the hardest case of the energy grid:
    # its approach to the axis makes the projection's corrections sum past
    # 1e-9 at the first attempt, and the retry at tighter tolerance must
    # bring them back under
    cfg = SolveConfig(max_arclength=50.0, drift_tolerance=1e-9)
    traj = integrate(3, 0.25, e=0.0, config=cfg)
    assert any("retrying" in note for note in traj.notes)
    assert traj.energy_drift() <= 1e-9

    easy = integrate(1, 0.5, e=0.3, config=SolveConfig(max_arclength=5.0))
    assert not any("retrying" in note for note in easy.notes)


def _sample_drift(traj):
    return max(abs(energy(row, traj.n, traj.h) - traj.e) for row in traj.states)


def test_projection_keeps_samples_on_level_set():
    # n = 1 sphere and a nodoid: the projected samples sit on the level set
    # to roundoff (those near critical radii are left alone), and the gate
    # reads the corrections the projection applied
    for n, h, e in ((1, 1.0, 0.0), (2, 0.75, -0.3)):
        traj = integrate(n, h, e=e, config=SolveConfig(max_arclength=5.0))
        assert traj.e == e
        drifts = [abs(energy(row, n, h) - e) for row in traj.states]
        assert np.median(drifts) < 1e-15
        assert traj.energy_correction > max(drifts)
        assert traj.energy_drift() == traj.energy_correction


def test_energy_drift_reads_samples_and_corrections():
    traj = integrate(1, 0.5, e=0.3, config=SolveConfig(max_arclength=5.0))
    bumped = traj.states.copy()
    bumped[len(bumped) // 2, 2] += 1e-3
    for candidate in (replace(traj, states=bumped),
                      replace(traj, energy_correction=1.0)):
        assert candidate.energy_drift() >= _sample_drift(candidate)
        assert candidate.energy_drift() >= candidate.energy_correction
        assert candidate.energy_drift() > 1e-6
    # truncation and reflection keep the correction sum of the solve
    half = integrate(1, 0.5, e=0.3, config=SolveConfig(
        stop_event=(EventKind.CRITICAL_RADIUS, 1)))
    assert half.energy_correction > 0.0
    assert reflect_continue(half).energy_correction == half.energy_correction
    cut = pode.truncated(traj, SolveConfig(max_arclength=2.0))
    assert cut.energy_correction == traj.energy_correction


def test_dense_output_continuous_at_projected_nodes():
    traj = integrate(2, 1.0, e=0.0, config=SolveConfig(max_arclength=10.0))
    assert traj.energy_correction > 0.0
    for s, row in zip(traj.s[1:-1], traj.states[1:-1]):
        for side in (np.nextafter(s, -np.inf), s, np.nextafter(s, np.inf)):
            assert tuple(traj.state_at(side)) == pytest.approx(tuple(row),
                                                               abs=1e-12)


def _off_level(project):
    """The level-set projection, onto E + 1e-15 instead of E."""

    def off(level, y, f):
        n, h, e = level
        return project((n, h, e + 1e-15), y, f)

    return off


def test_off_band_critical_radius_raises(monkeypatch):
    # an n = 3 sphere projected onto E + 1e-15 turns at the neck x = 1e-3 of
    # that unduloid, as the unprojected solve did at its own drift; the band
    # of E = 0 has 1/H as its only root, so the solve must be refused
    monkeypatch.setattr(pode, "_project", _off_level(pode._project))
    cfg = SolveConfig(max_arclength=6.0)
    with pytest.raises(EnergyDriftError, match="off the band roots") as err:
        integrate(3, 0.5, e=0.0, config=cfg)
    crits = [ev for ev in err.value.trajectory.events
             if ev.kind is EventKind.CRITICAL_RADIUS]
    assert crits and crits[0].state.x < 2e-3
    # explicit starts have no band to check
    traj = integrate(3, 0.5, initial=ProfileState(2.0, 0.0, 0.0), config=cfg)
    assert traj.s_end == 6.0


def test_projection_accurate_at_large_radius():
    # an n = 3 nodoid reaching x2 = 28, where the terms of E are ~1e7: taking
    # sin^2 from 1 - cos^2 there leaves errors ~1e-6 in E that no retry cures
    traj = integrate(3, 0.0357, e=-4.36e-4,
                     config=SolveConfig(max_arclength=50.0))
    assert traj.energy_drift() <= 1e-8
    assert traj.energy_correction <= 1e-8


def test_projection_skips_thin_neck():
    # an unduloid with neck x1 = 0.066 where sigma' ~ 3000: resetting sigma
    # from x there turns the solver's error in x into 4e-6 of error in the
    # state; left alone, the solve stays within 1e-7 of a tight reference
    n, h = 1, 1.15625
    e = 0.28125 * cylinder_energy(n, h)
    traj = integrate(n, h, e=e, config=SolveConfig(max_arclength=5.0))
    ref = integrate(n, h, e=e, config=SolveConfig(
        max_arclength=5.0, rel_tol=1e-13, abs_tol=1e-15))
    for s in np.linspace(0.0, 5.0, 501):
        assert tuple(traj.state_at(s)) == pytest.approx(
            tuple(ref.state_at(s)), abs=1e-7)


def test_retries_are_counted_and_logged(caplog):
    cfg = SolveConfig(max_arclength=50.0, drift_tolerance=1e-9)
    with caplog.at_level(logging.INFO, logger="heisenberg_cmc"):
        traj = integrate(3, 0.25, e=0.0, config=cfg)
    retries = [note for note in traj.notes if "retrying" in note]
    assert traj.stats.retries == len(retries) >= 1
    logged = [rec.getMessage() for rec in caplog.records]
    assert len(logged) == len(retries)
    for note, message in zip(retries, logged):
        assert note in message
    # the note reports the gated drift, which is the correction sum here
    first = float(retries[0].split()[2])
    assert first > 1e-9
    single = integrate(3, 0.25, e=0.0, config=SolveConfig(max_arclength=50.0))
    assert single.stats.retries == 0
    assert first == pytest.approx(single.energy_drift(), rel=1e-3)
    assert traj.stats.rhs_evals > single.stats.rhs_evals
    assert traj.stats.steps > single.stats.steps


# ---------------------------------------------------------------------------
# the scalar DOP853 loop against the SciPy solve_ivp loop it replaced

# (n, H, start, config, accepted steps, rhs evaluations, end state) as the
# SciPy DOP853 loop with the same projection gave them: same tableau, same
# step control, same dense output, so the same steps.  Rounding differs (the
# SciPy loop sums stages by BLAS), hence the 1e-12 on the end state
_NODOID_E = -0.5 * cylinder_energy(3, 1.0)
PINNED_SOLVES = [
    (1, 0.5, initial_state(classify(1, 0.5, 0.3)),
     SolveConfig(max_arclength=10.0),
     95, 1773, (1.60728526041326, 8.840337958138559, 0.0871062829216548)),
    (3, 1.0, initial_state(classify(3, 1.0, _NODOID_E)),
     SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 4)),
     144, 2813, (1.029025624693551, 2.4100345766669053, -12.566370614359172)),
]


def _solver_steps(n, h):
    """(trial, dense, fun) as the solver makes them for (n, h)."""
    return pode._steps(pode._SIGMA_PRIME)(*pode._constants(n, h))


@pytest.fixture
def dense_builds(monkeypatch):
    """The argument tuples of every dense step the solves make from here on:
    a spy on the dense step of _steps."""
    builds, steps = [], pode._steps

    def spied(sigma_prime):
        make = steps(sigma_prime)

        def spied_make(a, b, g):
            trial, dense, fun = make(a, b, g)

            def counted(*args):
                builds.append(args)
                return dense(*args)

            return trial, counted, fun

        return spied_make

    monkeypatch.setattr(pode, "_steps", spied)
    return builds


def _rhs_count_fits(stats, built):
    # 2 evaluations pick the first step, 12 make each trial step, 3 each
    # dense output the solve built, and 1 refreshes f after each projection,
    # which most steps take
    low = 2 + 12 * (stats.steps + stats.rejected) + 3 * built
    return low <= stats.rhs_evals <= low + stats.steps


@pytest.mark.parametrize("n, h, start, cfg, steps, rhs_evals, end",
                         PINNED_SOLVES)
def test_solve_repeats_the_scipy_loop(n, h, start, cfg, steps, rhs_evals, end,
                                      dense_builds):
    # the SciPy loop built the dense output of every step; this one builds
    # those the events read, and saves 3 evaluations on each of the others
    traj = integrate(n, h, initial=start, config=cfg)
    built = len(dense_builds)
    assert 0 < built < steps
    assert traj.stats.steps == steps
    assert traj.stats.rhs_evals == rhs_evals - 3 * (steps - built)
    assert traj.stats.retries == 0
    assert _rhs_count_fits(traj.stats, built)
    assert tuple(traj.states[-1]) == pytest.approx(end, abs=1e-12)


def test_sphere_to_axis_agrees_with_the_scipy_loop(dense_builds):
    # the SciPy loop took the n = 2 sphere to AxisContact in 53 steps and
    # 1281 evaluations, ending at s = 1.4674612093530306 on (1e-6,
    # 0.7853981634119803, -1.5707963267950076).  Near the axis the error
    # estimate is a cancellation at the rounding level, so its steps are
    # noise: H moved by one ulp took that loop through 53 to 60 steps and
    # its end sigma through pi/2 +- 2.2e-12
    traj = integrate(2, 1.0, e=0.0, config=SolveConfig(
        stop_event=(EventKind.AXIS_CONTACT, 1)))
    assert traj.s_end == pytest.approx(1.4674612093530306, abs=1e-12)
    assert tuple(traj.states[-1]) == pytest.approx(
        (1e-6, 0.7853981634119803, -1.5707963267950076), abs=1e-11)
    assert abs(traj.stats.steps - 53) <= 8
    assert _rhs_count_fits(traj.stats, len(dense_builds))


def test_rejected_steps_and_final_tolerance():
    # DOP853's controller rejects a share of trial steps on periodic
    # profiles; the count is summed over attempts, and the trajectory keeps
    # the tolerance of the attempt that passed the gate
    traj = integrate(1, 0.5, initial=initial_state(classify(1, 0.5, 0.3)),
                     config=SolveConfig(max_arclength=10.0))
    assert traj.stats.rejected > 0
    assert traj.rel_tol == 1e-10
    diagnostics = trajectory_to_json(traj)["diagnostics"]
    assert diagnostics["rejected_steps"] == traj.stats.rejected
    assert diagnostics["rel_tol"] == 1e-10
    cfg = SolveConfig(max_arclength=50.0, drift_tolerance=1e-9)
    retried = integrate(3, 0.25, e=0.0, config=cfg)
    assert retried.stats.retries == 1
    assert retried.rel_tol == 1e-12
    first = integrate(3, 0.25, e=0.0, config=SolveConfig(max_arclength=50.0))
    assert retried.stats.rejected > first.stats.rejected > 0
    # a closed-form trace ran no solver
    closed = canonical_trajectory(classify(1, 0.5, 0.3), SolveConfig())
    diagnostics = trajectory_to_json(closed)["diagnostics"]
    assert (diagnostics["rejected_steps"], diagnostics["rel_tol"]) == (0, None)


def test_tableau_is_scipys_bit_for_bit():
    from scipy.integrate._ivp import dop853_coefficients as co

    def bits(row):
        return [float(w).hex() for w in row]

    assert [bits(row) for row in pode._A] == [
        bits(co.A[i, :i]) for i in range(1, co.N_STAGES_EXTENDED)]
    assert bits(pode._A[co.N_STAGES - 1]) == bits(co.B)
    assert bits(pode._E5) == bits(co.E5)
    assert bits(pode._E3) == bits(co.E3)
    assert [bits(row) for row in pode._D] == [bits(row) for row in co.D]


class _EagerPiece(pode._Piece):
    """A step whose dense output is built as the step is accepted."""

    __slots__ = ()

    def __init__(self, *args):
        super().__init__(*args)
        self.coefficients()


def _sphere_cap():
    # the equator-to-axis quarter of the n = 2 sphere, mirrored before its
    # start into the whole meridian: tiled backwards
    return reflect_continue(integrate(2, 1.0, e=0.0, config=SolveConfig(
        stop_event=(EventKind.AXIS_CONTACT, 1))))


@pytest.mark.parametrize("solve", [
    # a canonical half period tiled forwards
    lambda: integrate(1, 0.5, e=0.3, config=SolveConfig(max_arclength=10.0)),
    # the pinned solves: events all along, one ending on a terminal root
    *(lambda start=start, cfg=cfg, n=n, h=h: integrate(n, h, initial=start,
                                                       config=cfg)
      for n, h, start, cfg, *_ in PINNED_SOLVES),
    _sphere_cap,
], ids=["tiled", "unduloid", "nodoid", "sphere-cap"])
def test_lazy_dense_output_reads_as_the_eager_one(monkeypatch, solve):
    # the dense states at nodes, midpoints, event roots and either side of
    # each tiling joint (each an event) are those of coefficients built as
    # each step is accepted, bit for bit; read latest first, so the steps
    # are built in another order than they were solved in
    lazy = solve()
    monkeypatch.setattr(pode, "_Piece", _EagerPiece)
    eager = solve()
    assert _bits(lazy.s) == _bits(eager.s)
    assert _bits(lazy.states) == _bits(eager.states)
    assert lazy.events == eager.events and lazy.events
    # the eager steps cost 3 evaluations more for each step the solve left
    # unread
    extra = eager.stats.rhs_evals - lazy.stats.rhs_evals
    assert extra > 0 and extra % 3 == 0
    lo, hi = lazy.s[0], lazy.s_end
    roots = [ev.s for ev in lazy.events]
    points = sorted({*lazy.s, *(0.5 * (lazy.s[1:] + lazy.s[:-1])), *roots,
                     *(min(max(s + d, lo), hi) for s in roots
                       for d in (-1e-9, 1e-9))}, reverse=True)
    assert _bits([tuple(lazy.state_at(u)) for u in points]) == _bits(
        [tuple(eager.state_at(u)) for u in points])


# ---------------------------------------------------------------------------
# the generated straight-line steps against the generic loop they replaced


def _combine(k, row):
    """sum_j w_j k_j over the nonzero weights of row, per component."""
    x = t = c = s = 0.0
    for j, w in enumerate(row):
        if w != 0.0:
            kx, kt, kc, ks = k[j]
            x += w * kx
            t += w * kt
            c += w * kc
            s += w * ks
    return x, t, c, s


def _oracle_trial(fun, y, f, h, rtol, atol):
    """The error norm, y_new and stages 0..12 of one trial step, as the
    generic loop made them."""
    x, t, c, s = y
    k = [f]
    for row in pode._A[:11]:
        dx, _, dc, ds = _combine(k, row)
        k.append(fun(x + dx * h, c + dc * h, s + ds * h))
    bx, bt, bc, bs = _combine(k, pode._A[11])
    y_new = (x + h * bx, t + h * bt, c + h * bc, s + h * bs)
    k.append(fun(y_new[0], y_new[2], y_new[3]))
    norm5 = norm3 = 0.0
    for v, w, a5, a3 in zip(y, y_new, _combine(k, pode._E5),
                            _combine(k, pode._E3)):
        scale = atol + max(abs(v), abs(w)) * rtol
        norm5 += (a5 / scale) ** 2
        norm3 += (a3 / scale) ** 2
    if norm5 == 0.0 and norm3 == 0.0:
        err = 0.0
    else:
        err = h * norm5 / math.sqrt((norm5 + 0.01 * norm3) * 4.0)
    return err, y_new, k


def _oracle_dense(fun, y, f, h, y_new, f_new, k):
    """The interpolant coefficients of one accepted step, as the generic
    loop made them."""
    x, _, c, s = y
    k = list(k)
    for row in pode._A[12:]:
        dx, _, dc, ds = _combine(k, row)
        k.append(fun(x + dx * h, c + dc * h, s + ds * h))
    coefficients = []
    for i, high in enumerate(zip(*(_combine(k, row) for row in pode._D))):
        delta = y_new[i] - y[i]
        coefficients.append((y[i], delta, h * f[i] - delta,
                             2.0 * delta - h * (f_new[i] + f[i]),
                             *(h * v for v in high)))
    return coefficients


def _bits(values):
    return [float(v).hex() for v in np.ravel(values)]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3),
       h=st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
       x=st.floats(0.3, 20.0),
       t=st.floats(-5.0, 5.0),
       sigma=st.floats(-7.0, 7.0),
       radius=st.floats(1.0 - 1e-9, 1.0 + 1e-9),
       step=st.floats(1e-6, 0.2),
       projected=st.booleans())
@example(n=1, h=0.5, x=1.0, t=0.0, sigma=0.0, radius=1.0, step=0.1,
         projected=False)
@example(n=2, h=-1.0, x=2.0, t=1.0, sigma=math.pi / 2, radius=1.0,
         step=0.01, projected=True)
def test_generated_steps_repeat_the_generic_loop(n, h, x, t, sigma, radius,
                                                 step, projected):
    # y_new, f_new, the error norm, both error estimates and the dense
    # coefficients, bit for bit, against the loop calling the solver's rhs
    trial, dense, fun = _solver_steps(n, h)
    y = (x, t, radius * math.cos(sigma), radius * math.sin(sigma))
    f = fun(y[0], y[2], y[3])
    rtol, atol = 1e-10, 1e-12

    err, y_new, f_new, kept = trial(y, f, step, rtol, atol)
    err_o, y_new_o, k = _oracle_trial(fun, y, f, step, rtol, atol)
    assert _bits(y_new) == _bits(y_new_o)
    assert _bits(f_new) == _bits(k[12])
    assert float(err).hex() == float(err_o).hex()
    for row in (pode._E5, pode._E3):
        for i, part in enumerate("xtcs"):
            inlined = eval(pode._total(row, part), {}, {
                f"k{j}{part}": stage[i] for j, stage in enumerate(k)})
            assert inlined.hex() == _combine(k, row)[i].hex()

    if projected:  # the step's end moved, as the projection moves it
        y_new = (y_new[0], y_new[1], y_new[2] * (1.0 + 1e-12), y_new[3])
        f_new = fun(y_new[0], y_new[2], y_new[3])
    coefficients = dense(y, f, step, y_new, f_new, kept)
    oracle = _oracle_dense(fun, y, f, step, y_new, f_new, k)
    assert _bits(coefficients) == _bits(oracle)


# ---------------------------------------------------------------------------
# the solver's rhs on (cos sigma, sin sigma) against rhs(state)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3),
       h=st.floats(-10.0, 10.0),
       x=st.floats(1e-12, 1e4),
       sigma=st.floats(-math.pi, math.pi),
       radius=st.floats(1.0 - 1e-9, 1.0 + 1e-9))
@example(n=1, h=1.0, x=1e-12, sigma=-math.pi / 2, radius=1.0)
@example(n=3, h=-2.0, x=1e-12, sigma=3.0, radius=1.0 + 1e-9)
@example(n=2, h=0.5, x=1e4, sigma=math.pi, radius=1.0 - 1e-9)
def test_solver_rhs_agrees_with_rhs_of_the_angle(n, h, x, sigma, radius):
    # the solver normalises (c, s) by hypot where rhs(state) takes cos and
    # sin of sigma = atan2(s, c); the two pairs differ by a few ulps of 1,
    # and sigma' by what that and its own rounding move it.  The pair is made
    # as the solver's start makes it, exact at quarter turns, where rhs(state)
    # is exact too
    c, s = (radius * v for v in pode._cos_sin(sigma))
    dx, dt, dc, ds = _solver_steps(n, h)[2](x, c, s)
    sin, cos, dsigma = rhs((x, 0.0, math.atan2(s, c)), n, h)
    eps = np.finfo(float).eps
    assert abs(dx - sin) <= 4 * eps and abs(dt - cos) <= 4 * eps
    q = x * x * sin * sin + cos * cos
    terms = (abs((2 * n - 1) * cos**3 / x**3)
             + abs(2 * (n - 1) * sin * sin * cos / x)
             + abs(2 * n * h * q**1.5 / x**2))
    # d sigma' / d(cos, sin), times the 4 eps the pair may move
    slope = (3 * (2 * n - 1) * cos * cos / x**3
             + 2 * (n - 1) * (sin * sin + 2 * abs(sin * cos)) / x
             + 6 * n * abs(h) * math.sqrt(q) * (abs(cos) + x * x * abs(sin))
             / x**2)
    # sigma' back from (cos sigma sigma', -sin sigma sigma') by the larger of
    # cos and sin, which adds 2 ulps of sigma'
    solver = ds / dt if abs(dt) > 0.5 else -dc / dx
    assert abs(solver - dsigma) <= 8 * eps * terms + 4 * eps * slope


def test_start_on_an_event_is_not_reported():
    # the canonical unduloid starts on a critical radius (sin sigma = 0
    # exactly); its first CriticalRadius event is the next one
    traj = integrate(1, 0.5, initial=initial_state(classify(1, 0.5, 0.3)),
                     config=SolveConfig(
                         stop_event=(EventKind.CRITICAL_RADIUS, 1)))
    assert traj.events[0].s > 1.0
    assert traj.s_end == traj.events[0].s


def test_tiling_refuses_past_the_sample_cap(monkeypatch):
    # n = 1, H = 1000, E = 0.5 E_cyl: s = 50 holds 70,711 half periods of
    # arclength 7.1e-4, which the doubling would tile to 2^17 of ~210 nodes
    def tiled(*args, **kwargs):
        raise AssertionError("the tiling ran")

    monkeypatch.setattr(pode, "_tiled", tiled)
    e = 0.5 * cylinder_energy(1, 1000.0)
    with pytest.raises(ValueError, match=r"would take \d+ samples, more than "
                       r"the 4194304 allowed; lower the arclength limit"):
        integrate(1, 1000.0, e=e)
    # a stop event ends the tiling early, and the count knows it
    cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 3))
    monkeypatch.undo()
    traj = integrate(1, 1000.0, e=e, config=cfg)
    assert sum(ev.kind is EventKind.CRITICAL_RADIUS for ev in traj.events) == 3


def test_reflect_refuses_past_the_sample_cap(monkeypatch):
    # 2^64 copies of a half period: refused from the count alone, before any
    # array is allocated
    def tiled(*args, **kwargs):
        raise AssertionError("the tiling ran")

    half = canonical_trajectory(classify(1, 1.0, -0.1), SolveConfig(
        stop_event=(EventKind.CRITICAL_RADIUS, 1)))
    monkeypatch.setattr(pode, "_tiled", tiled)
    with pytest.raises(ValueError, match=r"would take \d+ samples, more than "
                       r"the 4194304 allowed;.*--reflect"):
        reflect_continue(half, copies=64)


def test_stop_event_is_parsed_once():
    cfg = SolveConfig(stop_event=("VerticalTangent", 2.0))
    assert cfg.stop_event == (EventKind.VERTICAL_TANGENT, 2)
    assert cfg.stop_event[0] is EventKind.VERTICAL_TANGENT
    assert type(cfg.stop_event[1]) is int
    with pytest.raises(ValueError):
        SolveConfig(stop_event=("CriticalRadius", 0))
    with pytest.raises(ValueError):
        SolveConfig(stop_event=("NoSuchEvent", 1))


def _mirror_tiles(traj, halves):
    """Oracle for _tiled: rows (s, x, t, sigma) and events (kind, s, x, t,
    sigma) of halves tiles, each the mirror of the one before about its end,
    with a CriticalRadius joint at each interior boundary."""
    tile = np.column_stack((traj.s, traj.states))
    events = [(ev.kind, ev.s, *ev.state) for ev in traj.events]
    rows, every = [tile], list(events)
    flip = np.array([-1.0, 1.0, -1.0, -1.0])
    for _ in range(halves - 1):
        pivot = tile[-1] * np.array([2.0, 0.0, 2.0, 2.0])
        every.append((EventKind.CRITICAL_RADIUS, *tile[-1]))
        tile = pivot + flip * tile[::-1]
        events = [(kind, *(pivot + flip * v)) for kind, *v in events[::-1]]
        rows.append(tile[1:])
        every += events
    return np.concatenate(rows), list(dict.fromkeys(every))


def _assert_close(a, b, slack=0.0):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(b)) + slack)


_PERIODIC = st.tuples(
    st.sampled_from([1, 2, 3]),
    st.sampled_from([1.0, -1.0]),
    st.floats(0.5, 2.0),
    st.one_of(st.floats(0.05, 0.95), st.floats(-3.0, -0.05)),  # E / E_cyl
)


def _half_period(n, sign, h, spec):
    e = sign * spec * cylinder_energy(n, h)
    return canonical_trajectory(classify(n, sign * h, e), SolveConfig(
        stop_event=(EventKind.CRITICAL_RADIUS, 1)))


@settings(max_examples=30, deadline=None)
@given(curve=_PERIODIC, halves=st.integers(1, 12))
@example(curve=(1, 1.0, 1.0, 0.25), halves=6)  # a neck of radius 0.067
# the last tile's end, less the period, rounds an ulp short of the nodoid's x1
@example(curve=(2, 1.0, 1.8196455919635035, -1.0914122950827938), halves=3)
def test_tiling_matches_repeated_mirrors(curve, halves):
    half = _half_period(*curve)
    tiled = pode._tiled(half, halves)
    rows, events = _mirror_tiles(half, halves)
    _assert_close(np.column_stack((tiled.s, tiled.states)), rows)
    assert [ev.kind for ev in tiled.events] == [ev[0] for ev in events]
    _assert_close([(ev.s, *ev.state) for ev in tiled.events],
                  [ev[1:] for ev in events])
    # a tile's arclength carries a rounding of its own, which the slope of
    # the state carries into the dense value: sigma' ~ 1/x^3 at a thin neck
    n, h = half.n, half.h
    slope = np.abs([rhs(state, n, h) for state in tiled.states])
    _assert_close([tiled.dense(s) for s in tiled.s], tiled.states,
                  8.0 * np.finfo(float).eps * np.abs(tiled.s)[:, None] * slope)


@settings(max_examples=30, deadline=None)
@given(curve=_PERIODIC, limit=st.floats(0.3, 6.0), stop=st.one_of(
    st.none(), st.tuples(st.sampled_from([EventKind.CRITICAL_RADIUS,
                                          EventKind.VERTICAL_TANGENT]),
                         st.integers(1, 7))))
def test_continuation_builds_the_halves_it_needs(curve, limit, stop):
    # the fewest half periods whose repeated mirrors reach the arclength
    # limit or hold the stop event, not a power of two
    half = _half_period(*curve)
    config = SolveConfig(max_arclength=limit * half.s_end, stop_event=stop)
    needed = 1
    while True:
        rows, events = _mirror_tiles(half, needed)
        held = stop is not None and sum(
            ev[0] is stop[0] for ev in events) >= stop[1]
        if rows[-1, 0] >= config.max_arclength or held:
            break
        needed += 1
    with mock.patch.object(pode, "_tiled", wraps=pode._tiled) as spy:
        out = pode.periodic_continuation(half, config)
    built = [call.args[1] for call in spy.call_args_list]
    assert len(built) <= 1 and 1 not in built
    halves = built[0] if built else 1
    # a limit of a whole number k of half periods is a tie: L / s_end and the
    # tiles' ends may round to either side of it, and k or k + 1 halves end
    # the same curve within an ulp of it
    k = round(limit)
    tie = abs(limit - k) <= 4.0 * np.finfo(float).eps * limit
    assert halves == needed or tie and {halves, needed} == {k, k + 1}
    assert out.s_end <= config.max_arclength + 1e-12


def test_sigma_winding_conserves_energy():
    # sigma falls by 2 pi per nodoid period; the conserved quantity must not
    # degrade with the accumulated winding, nodes and dense output alike
    # the explicit start solves every period; a canonical one would mirror
    traj = integrate(1, 2.0, initial=initial_state(classify(1, 2.0, -0.125)),
                     config=SolveConfig(max_arclength=25.0))
    assert not traj.notes
    sig = traj.states[:, 2]
    assert sig[-1] < -100.0
    assert np.all(np.diff(sig) < 1e-12)
    assert traj.energy_drift() < 1e-9 * (1.0 + 0.125)
    for s in np.linspace(0.3, 24.7, 41):
        st = traj.state_at(float(s))
        assert energy(st, 1, 2.0) == pytest.approx(-0.125, abs=1e-9)


def test_explicit_start_keeps_sigma_branch():
    st = ProfileState(0.5, 0.0, 2.0 * math.pi)
    traj = integrate(1, 2.0, initial=st, config=SolveConfig(max_arclength=2.0))
    assert traj.states[0, 2] == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert traj.state_at(0.0).sigma == pytest.approx(2.0 * math.pi, abs=1e-9)


def test_far_branch_nodoid_keeps_sigma_and_event_order():
    # an explicit n = 3 nodoid start three turns below the canonical branch,
    # solved directly over three periods (six critical radii)
    start = initial_state(classify(3, 1.0, _NODOID_E))
    assert start.sigma == 0.0
    traj = integrate(3, 1.0, initial=ProfileState(start.x, 0.0, -6 * math.pi),
                     config=SolveConfig(
                         stop_event=(EventKind.CRITICAL_RADIUS, 6)))
    assert not traj.notes
    sig = traj.states[:, 2]
    assert sig[0] == -6 * math.pi
    assert np.all(np.abs(np.diff(sig)) < math.pi)
    assert sig[-1] == pytest.approx(-12 * math.pi) == sig.min()
    for s, node in zip(traj.s, sig):
        assert abs(traj.state_at(s).sigma - node) <= 1e-12
    # events in arclength order, the stop event last and at the end
    assert [ev.s for ev in traj.events] == sorted(ev.s for ev in traj.events)
    critical = [ev for ev in traj.events
                if ev.kind is EventKind.CRITICAL_RADIUS]
    assert traj.events[-1] is critical[-1] and len(critical) == 6
    assert traj.s_end == critical[-1].s
    # the k-th critical radius sits at sigma = -6 pi - k pi exactly, and
    # every event on the branch of the nodes around it
    assert [ev.state.sigma for ev in critical] == [
        math.pi * (-6 - k) for k in range(1, 7)]
    assert [ev.kind for ev in traj.events] == [
        EventKind.VERTICAL_TANGENT, EventKind.CRITICAL_RADIUS] * 6
    for ev in traj.events:
        i = np.searchsorted(traj.s, ev.s)
        around = sig[max(i - 1, 0):i + 1]
        assert np.all(np.abs(ev.state.sigma - around) < math.pi / 2)
        assert ev.state.sigma == pytest.approx(traj.state_at(ev.s).sigma,
                                               abs=1e-6)


def test_serialization_roundtrip():
    cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1))
    traj = integrate(1, 0.5, e=0.3, config=cfg)
    doc = trajectory_to_json(traj)
    assert doc["n"] == 1
    assert doc["e"] == pytest.approx(0.3, abs=1e-12)
    assert len(doc["samples"]) == len(traj.s)
    assert doc["events"][0]["kind"] == "CriticalRadius"

    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "s,x,t,sigma"
    assert len(lines) == len(traj.s) + 1
    back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(back[:, 0], traj.s, rtol=0, atol=0)
    assert np.allclose(back[:, 1:], traj.states, rtol=0, atol=0)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_csv_blocks_write_the_bytes_of_one_block(monkeypatch, block):
    traj = integrate(1, 0.5, e=0.3, config=SolveConfig(max_arclength=5.0))
    assert len(traj.s) > 2 * 7
    whole = io.StringIO()
    monkeypatch.setattr(pode, "_CSV_BLOCK_ROWS", len(traj.s))
    trajectory_to_csv(traj, whole)
    blocks = io.StringIO()
    monkeypatch.setattr(pode, "_CSV_BLOCK_ROWS", block)
    trajectory_to_csv(traj, blocks)
    assert blocks.getvalue() == whole.getvalue()
    assert whole.getvalue().count("\r\n") == len(traj.s) + 1
