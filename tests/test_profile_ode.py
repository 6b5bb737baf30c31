"""Integration of the generating-curve system and its conserved quantity."""

import io
import math

import numpy as np
import pytest

import heisenberg_cmc.profile_ode as pode
from heisenberg_cmc.classify import classify, cylinder_energy
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


def test_hyperplane_ray():
    traj = integrate(1, 0.0, e=0.0, config=SolveConfig(max_arclength=5.0))
    _, x, t, sig = traj.arrays()
    assert np.max(np.abs(t)) < 1e-12
    assert np.allclose(x, 1.0 + traj.s, atol=1e-10)
    assert np.max(np.abs(sig - math.pi / 2)) < 1e-12


def test_sphere_reaches_axis():
    h = 1.0
    cfg = SolveConfig(axis_epsilon=1e-6, max_arclength=10.0)
    traj = integrate(1, h, e=0.0, config=cfg)
    contacts = [ev for ev in traj.events if ev.kind is EventKind.AXIS_CONTACT]
    assert len(contacts) == 1
    end = contacts[0].state
    # the closed form gives t = pi/(4 H^2) at the pole
    assert end.t == pytest.approx(math.pi / 4.0, abs=1e-5)
    assert abs(math.sin(end.sigma)) > 1.0 - 1e-6


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


# ---------------------------------------------------------------------------
# reflection


def test_reflection_matches_direct_integration():
    cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1))
    half = integrate(1, 0.5, e=0.3, config=cfg)
    full = reflect_continue(half)
    direct = integrate(
        1, 0.5, e=0.3, config=SolveConfig(max_arclength=full.s_end + 0.5)
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


def test_axis_start_rejected():
    with pytest.raises(AxisPointError):
        integrate(1, 0.5, initial=ProfileState(1e-9, 0.0, 0.0))


def test_drift_retry_tightens_tolerance():
    # e = 0 at n = 3 bounces off the axis repeatedly, the hardest stretch
    # for the solver; the first attempt drifts past 1e-9 and the retry at
    # tighter tolerance must bring it back under
    cfg = SolveConfig(max_arclength=50.0, drift_tolerance=1e-9)
    traj = integrate(3, 0.25, e=0.0, config=cfg)
    assert any("retrying" in note for note in traj.notes)
    assert traj.energy_drift() <= 1e-9

    easy = integrate(1, 0.5, e=0.3, config=SolveConfig(max_arclength=5.0))
    assert not any("retrying" in note for note in easy.notes)


def test_sigma_winding_conserves_energy():
    # sigma falls by 2 pi per nodoid period; the conserved quantity must not
    # degrade with the accumulated winding, nodes and dense output alike
    traj = integrate(1, 2.0, e=-0.125, config=SolveConfig(max_arclength=25.0))
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
