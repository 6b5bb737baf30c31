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


def test_rhs_axis_guard():
    with pytest.raises(AxisPointError):
        rhs((0.0, 0.0, 0.0), 1, 1.0)
    with pytest.raises(AxisPointError):
        energy((-1.0, 0.0, 0.0), 1, 1.0)


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
        st = initial_state(n, h, e)
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
    base = initial_state(1, 0.5, 0.3)
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
        1, 0.5, initial=initial_state(1, 0.5, 0.3),
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
    start = initial_state(n, h, e).x
    other = c.x2 if start == c.x1 else c.x1
    crits = [ev.state.x for ev in tiled.events
             if ev.kind is EventKind.CRITICAL_RADIUS]
    assert crits == pytest.approx([other, start] * 4, rel=1e-6)
    assert tiled.s_end == pytest.approx(8.0 * half.s_end, rel=1e-12)
    # every node sits on the direct solve of every period
    direct = integrate(n, h, initial=initial_state(n, h, e),
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
    traj = integrate(n, h, initial=initial_state(n, h, e), config=cfg)
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
    direct = integrate(1, 0.5, initial=initial_state(1, 0.5, 0.3), config=cfg)
    assert traj.stats == direct.stats
    assert np.max(np.abs(traj.states - direct.states)) <= 1e-12
    # only the caller's own unreached stop event is noted
    cfg = SolveConfig(max_arclength=0.5,
                      stop_event=(EventKind.CRITICAL_RADIUS, 2))
    assert integrate(1, 0.5, e=0.3, config=cfg).notes == [
        "stop event CriticalRadius x2 not reached within arclength 0.5"]


# ---------------------------------------------------------------------------
# drift detection and serialization


def test_energy_drift_detected(monkeypatch):
    def broken(x, sigma, n, h):
        sin, cos, dsig = pode.__dict__["_rhs_orig"](x, sigma, n, h)
        return sin, cos, dsig * 1.01

    pode.__dict__["_rhs_orig"] = pode._rhs_scalars
    monkeypatch.setattr(pode, "_rhs_scalars", broken)
    with pytest.raises(EnergyDriftError) as err:
        integrate(1, 0.5, e=0.3, config=SolveConfig(max_arclength=10.0))
    assert err.value.trajectory is not None
    assert err.value.trajectory.energy_drift() > 1e-8


def test_energy_drift_message_without_rounding(monkeypatch):
    # |H| x^{2n} stays below 10 on this unduloid, so rounding cannot explain
    # the drift and the message adds no rounding clause
    original = pode._rhs_scalars

    def broken(x, sigma, n, h):
        sin, cos, dsig = original(x, sigma, n, h)
        return sin, cos, dsig * 1.01

    monkeypatch.setattr(pode, "_rhs_scalars", broken)
    with pytest.raises(EnergyDriftError) as err:
        integrate(1, 0.5, e=0.3, config=SolveConfig(max_arclength=10.0))
    assert str(err.value).startswith("energy drifted by")
    assert "rounding" not in str(err.value)


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
    (1, 0.5, initial_state(1, 0.5, 0.3), SolveConfig(max_arclength=10.0),
     95, 1773, (1.60728526041326, 8.840337958138559, 0.0871062829216548)),
    (3, 1.0, initial_state(3, 1.0, _NODOID_E),
     SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 4)),
     144, 2813, (1.029025624693551, 2.4100345766669053, -12.566370614359172)),
]


def _rhs_count_fits(stats):
    # 2 evaluations pick the first step, 12 make each trial step, 3 the
    # dense output of each accepted one, and 1 refreshes f after each
    # projection, which most steps take
    low = 2 + 12 * (stats.steps + stats.rejected) + 3 * stats.steps
    return low <= stats.rhs_evals <= low + stats.steps


@pytest.mark.parametrize("n, h, start, cfg, steps, rhs_evals, end",
                         PINNED_SOLVES)
def test_solve_repeats_the_scipy_loop(n, h, start, cfg, steps, rhs_evals, end):
    traj = integrate(n, h, initial=start, config=cfg)
    assert (traj.stats.steps, traj.stats.rhs_evals) == (steps, rhs_evals)
    assert traj.stats.retries == 0
    assert _rhs_count_fits(traj.stats)
    assert tuple(traj.states[-1]) == pytest.approx(end, abs=1e-12)


def test_sphere_to_axis_agrees_with_the_scipy_loop():
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
    assert _rhs_count_fits(traj.stats)


def test_rejected_steps_and_final_tolerance():
    # DOP853's controller rejects a share of trial steps on periodic
    # profiles; the count is summed over attempts, and the trajectory keeps
    # the tolerance of the attempt that passed the gate
    traj = integrate(1, 0.5, initial=initial_state(1, 0.5, 0.3),
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
    closed = canonical_trajectory(classify(1, 0.5, 0.3), 0.5, SolveConfig())
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


def test_start_on_an_event_is_not_reported():
    # the canonical unduloid starts on a critical radius (sin sigma = 0
    # exactly); its first CriticalRadius event is the next one
    traj = integrate(1, 0.5, initial=initial_state(1, 0.5, 0.3),
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

    half = canonical_trajectory(classify(1, 1.0, -0.1), 1.0, SolveConfig(
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
    return canonical_trajectory(classify(n, sign * h, e), sign * h, SolveConfig(
        stop_event=(EventKind.CRITICAL_RADIUS, 1)))


@settings(max_examples=30, deadline=None)
@given(curve=_PERIODIC, halves=st.integers(1, 12))
@example(curve=(1, 1.0, 1.0, 0.25), halves=6)  # a neck of radius 0.067
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
    traj = integrate(1, 2.0, initial=initial_state(1, 2.0, -0.125),
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
