"""Generating-curve ODE for rotational constant mean curvature hypersurfaces.

The profile (x(s), t(s)) is tracked by arclength together with the turning
angle sigma, where x' = sin(sigma), t' = cos(sigma) and

    sigma' = (2n-1) cos^3(sigma) / x^3
             + 2(n-1) sin^2(sigma) cos(sigma) / x
             - 2n H (x^2 sin^2(sigma) + cos^2(sigma))^{3/2} / x^2.

Solutions conserve E = x^{2n-1} cos(sigma)/sqrt(x^2 sin^2 sigma + cos^2 sigma)
- H x^{2n}; the integrator checks that invariant after the fact, retries at
tighter tolerance when it drifted, and refuses to return a drifting
trajectory.  Events mark critical radii (sin sigma = 0), vertical tangents
(cos sigma = 0) and axis contact (x falling to the configured epsilon).

Internally the angle is carried as the pair (cos sigma, sin sigma).  Nodoids
wind sigma down by 2 pi per period, and a solver controlling relative error
against the grown |sigma| loses absolute accuracy with every turn; the pair
stays on the unit circle no matter how far the curve winds.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import solve_ivp

from .classify import Family, classify, cylinder_radius
from .core import dimension_index
from .errors import AxisPointError, EnergyDriftError, NoCriticalPointError

__all__ = [
    "ProfileState",
    "SolveConfig",
    "EventKind",
    "Event",
    "Trajectory",
    "rhs",
    "energy",
    "sigma_at_radius",
    "initial_state",
    "integrate",
    "reflect_continue",
    "trajectory_to_csv",
    "trajectory_to_json",
]


@dataclass(frozen=True)
class ProfileState:
    x: float
    t: float
    sigma: float

    def __iter__(self):
        return iter((self.x, self.t, self.sigma))


class EventKind(str, enum.Enum):
    CRITICAL_RADIUS = "CriticalRadius"
    VERTICAL_TANGENT = "VerticalTangent"
    AXIS_CONTACT = "AxisContact"


@dataclass(frozen=True)
class Event:
    kind: EventKind
    s: float
    state: ProfileState


@dataclass(frozen=True)
class SolveConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    axis_epsilon: float = 1e-6
    max_arclength: float = 50.0
    drift_tolerance: float = 1e-8
    stop_event: tuple | None = None  # (EventKind, count)


def _rhs_scalars(x, sigma, n, h):
    # kept module-level so a deliberately broken copy can be swapped in to
    # prove the drift detector notices
    sin = math.sin(sigma)
    cos = math.cos(sigma)
    dsigma = (
        (2 * n - 1) * cos**3 / x**3
        + 2 * (n - 1) * sin * sin * cos / x
        - 2 * n * h * (x * x * sin * sin + cos * cos) ** 1.5 / (x * x)
    )
    return sin, cos, dsigma


def rhs(state, n, h):
    """Right-hand side (x', t', sigma') of the profile system."""
    n = dimension_index(n)
    x, _, sigma = state
    if x <= 0.0:
        raise AxisPointError(f"profile equation needs x > 0, got x = {x}")
    return _rhs_scalars(float(x), float(sigma), n, float(h))


def energy(state, n, h):
    """Conserved quantity E of a profile state."""
    n = dimension_index(n)
    x, _, sigma = state
    x = float(x)
    if x <= 0.0:
        raise AxisPointError(f"energy needs x > 0, got x = {x}")
    sin = math.sin(float(sigma))
    cos = math.cos(float(sigma))
    return x ** (2 * n - 1) * cos / math.sqrt(
        x * x * sin * sin + cos * cos
    ) - float(h) * x ** (2 * n)


def sigma_at_radius(n, h, e, x, rising=True):
    """Invert the energy relation for sigma at radius x.

    cos(sigma) is pinned by E and x up to the sign of sin(sigma); rising
    selects sin >= 0.  Raises ValueError outside the admissible band.
    """
    n = dimension_index(n)
    x, h, e = float(x), float(h), float(e)
    if x <= 0.0:
        raise AxisPointError(f"needs x > 0, got x = {x}")
    k = (e + h * x ** (2 * n)) / x ** (2 * n - 1)
    if abs(k) > 1.0 + 1e-12:
        raise ValueError(f"radius {x} lies outside the admissible band (|k|={abs(k)})")
    k = min(max(k, -1.0), 1.0)
    c2 = k * k * x * x / (1.0 + k * k * (x * x - 1.0))
    c2 = min(c2, 1.0)
    c = math.copysign(math.sqrt(c2), k) if k != 0.0 else 0.0
    s = math.sqrt(max(1.0 - c2, 0.0))
    if not rising:
        s = -s
    return math.atan2(s, c)


def initial_state(n, h, e):
    """Canonical starting state of the (n, H, E) profile.

    Bounded-band families start at a critical radius with t = 0; the sphere
    starts at its equator x = 1/H, the catenoid at its waist, the hyperplane
    at x = 1.  For H < 0 the state is the mirror (x, 0, pi - sigma) of the
    (-H, -E) profile, which traverses the same curve with t reversed.
    """
    n = dimension_index(n)
    h, e = float(h), float(e)
    if h < 0.0:
        base = initial_state(n, -h, -e)
        return ProfileState(base.x, base.t, math.pi - base.sigma)
    c = classify(n, h, e)
    if c.family is Family.HYPERPLANE:
        return ProfileState(1.0, 0.0, math.pi / 2.0)
    if c.family is Family.CATENOID:
        return ProfileState(c.x1, 0.0, 0.0 if e > 0.0 else math.pi)
    if c.family is Family.SPHERE:
        return ProfileState(1.0 / h, 0.0, 0.0)
    if c.family is Family.CYLINDER:
        return ProfileState(cylinder_radius(n, h), 0.0, 0.0)
    if c.family is Family.UNDULOID:
        return ProfileState(c.x1, 0.0, 0.0)
    return ProfileState(c.x2, 0.0, 0.0)  # nodoid, outer radius


@dataclass
class Trajectory:
    """Integrated profile with event record and dense evaluation.

    states holds rows (x, t, sigma) at the arclength nodes s.  dense maps an
    arclength in [s[0], s[-1]] to (x, t, sigma): the solver's dense output,
    composed with the mirror maps for reflected trajectories, so state_at(s)
    is exact between nodes too.
    """

    n: int
    h: float
    e: float
    s: np.ndarray
    states: np.ndarray  # shape (m, 3): x, t, sigma
    events: list
    config: SolveConfig
    dense: object
    notes: list = field(default_factory=list)

    @property
    def s_end(self):
        return float(self.s[-1])

    def state_at(self, s):
        s = float(s)
        if s < self.s[0] - 1e-9 or s > self.s[-1] + 1e-9:
            raise ValueError(f"s = {s} outside [{self.s[0]}, {self.s[-1]}]")
        x, t, sigma = self.dense(min(max(s, self.s[0]), self.s[-1]))
        return ProfileState(float(x), float(t), float(sigma))

    def arrays(self):
        return self.s, self.states[:, 0], self.states[:, 1], self.states[:, 2]

    def energy_drift(self):
        x, sig = self.states[:, 0], self.states[:, 2]
        return float(np.max(np.abs(_energy_arr(x, sig, self.n, self.h) - self.e)))


def _energy_arr(x, sigma, n, h):
    sin, cos = np.sin(sigma), np.cos(sigma)
    return x ** (2 * n - 1) * cos / np.sqrt(x * x * sin * sin + cos * cos) - h * x ** (
        2 * n
    )


def _check_invariants(traj):
    drift = traj.energy_drift()
    tol = traj.config.drift_tolerance * (1.0 + abs(traj.e))
    if drift > tol:
        raise EnergyDriftError(
            f"energy drifted by {drift:.3e} (tolerance {tol:.3e})", trajectory=traj
        )
    # the admissible band is conserved too; allow slack an order above drift
    x = traj.states[:, 0]
    margin = x ** (2 * traj.n - 1) - np.abs(traj.e + traj.h * x ** (2 * traj.n))
    slack = -10.0 * traj.config.drift_tolerance * (1.0 + abs(traj.e))
    worst = float(np.min(margin))
    if worst < slack:
        raise EnergyDriftError(
            f"trajectory left the admissible band by {-worst:.3e}", trajectory=traj
        )


_TWO_PI = 2.0 * math.pi
_REL_FLOOR = 2.3e-14  # just above the solver's own clip at 100*eps


class _DenseCurve:
    """Dense evaluator returning (x, t, sigma).

    The solver carries the angle as (cos sigma, sin sigma) and atan2 only
    recovers the principal branch; the continuous angle is picked by rounding
    to the branch of the interpolated node values.
    """

    def __init__(self, raw, s_nodes, sigma_nodes):
        self._raw = raw
        self._s = s_nodes
        self._sigma = sigma_nodes

    def __call__(self, s):
        x, t, c, si = self._raw(s)
        raw = math.atan2(si, c)
        guess = float(np.interp(s, self._s, self._sigma))
        return (x, t, raw + _TWO_PI * round((guess - raw) / _TWO_PI))


def _solve_attempt(n, h, initial, config, rel_tol, abs_tol, notes):
    def fun(s, y):
        x = y[0] if y[0] > 1e-12 else 1e-12  # trial steps may undershoot
        sigma = math.atan2(y[3], y[2])
        sin, cos, dsigma = _rhs_scalars(x, sigma, n, h)
        return (sin, cos, -sin * dsigma, cos * dsigma)

    def ev_critical(s, y):
        return y[3]

    def ev_vertical(s, y):
        return y[2]

    def ev_axis(s, y):
        return y[0] - config.axis_epsilon

    ev_axis.terminal = True
    ev_axis.direction = -1.0
    y0 = [initial.x, initial.t, math.cos(initial.sigma), math.sin(initial.sigma)]
    kinds = {
        EventKind.CRITICAL_RADIUS: ev_critical,
        EventKind.VERTICAL_TANGENT: ev_vertical,
        EventKind.AXIS_CONTACT: ev_axis,
    }
    if config.stop_event is not None:
        kind, count = config.stop_event
        kind = EventKind(kind)
        if count < 1:
            raise ValueError("stop_event count must be >= 1")
        gev = kinds[kind]
        # the solver reports an event at s = 0 whenever the start state sits
        # on it; bump the terminal count so that phantom hit is not counted
        at_start = abs(gev(0.0, np.array(y0))) < 1e-9
        gev.terminal = int(count) + (1 if at_start else 0)

    events = [ev_critical, ev_vertical, ev_axis]
    sol = solve_ivp(
        fun,
        (0.0, config.max_arclength),
        y0,
        method="DOP853",
        rtol=rel_tol,
        atol=abs_tol,
        dense_output=True,
        events=events,
    )
    if not sol.success and sol.status != 1:
        raise RuntimeError(f"integration failed: {sol.message}")

    sigma_nodes = np.unwrap(np.arctan2(sol.y[3], sol.y[2]))
    # an explicit start may sit outside the principal branch
    sigma_nodes += _TWO_PI * round((initial.sigma - sigma_nodes[0]) / _TWO_PI)
    s_nodes = sol.t

    def aligned(raw, s_ev):
        guess = float(np.interp(s_ev, s_nodes, sigma_nodes))
        return raw + _TWO_PI * round((guess - raw) / _TWO_PI)

    recorded = []
    for kind, idx in (
        (EventKind.CRITICAL_RADIUS, 0),
        (EventKind.VERTICAL_TANGENT, 1),
        (EventKind.AXIS_CONTACT, 2),
    ):
        for s_ev, y_ev in zip(sol.t_events[idx], sol.y_events[idx]):
            if s_ev > 1e-12:  # drop the phantom hit at the start state
                sig = aligned(math.atan2(y_ev[3], y_ev[2]), float(s_ev))
                state = ProfileState(float(y_ev[0]), float(y_ev[1]), sig)
                recorded.append(Event(kind, float(s_ev), state))
    recorded.sort(key=lambda ev: ev.s)

    states = np.column_stack([sol.y[0], sol.y[1], sigma_nodes])
    notes = list(notes)
    if config.stop_event is not None:
        kind, count = EventKind(config.stop_event[0]), config.stop_event[1]
        matching = [ev for ev in recorded if ev.kind is kind]
        if len(matching) >= count:
            s_stop = matching[count - 1].s
            keep = s_nodes < s_stop - 1e-15
            s_cut = np.append(s_nodes[keep], s_stop)
            states = np.vstack([states[keep], list(matching[count - 1].state)])
            recorded = [ev for ev in recorded if ev.s <= s_stop + 1e-15]
        else:
            s_cut = s_nodes
            notes.append(
                f"stop event {kind.value} x{count} not reached "
                f"within arclength {config.max_arclength}"
            )
    else:
        s_cut = s_nodes

    return Trajectory(
        n=n,
        h=h,
        e=energy(initial, n, h),
        s=np.asarray(s_cut, dtype=float),
        states=np.asarray(states, dtype=float),
        events=recorded,
        config=config,
        notes=notes,
        dense=_DenseCurve(sol.sol, np.asarray(s_nodes, dtype=float), sigma_nodes),
    )


def integrate(n, h, e=None, initial=None, config=None):
    """Integrate the profile system from a canonical or explicit start.

    Either pass e (energy) to start from initial_state(n, h, e), or pass an
    explicit initial ProfileState (e is then derived from it).  Integration
    runs to config.max_arclength unless an axis contact or the configured
    stop_event ends it earlier.  When the conserved quantity drifts beyond
    tolerance the solve is retried at tolerances tightened a hundredfold,
    twice at most; EnergyDriftError is raised only once that fails too.
    """
    n = dimension_index(n)
    h = float(h)
    config = config or SolveConfig()
    if initial is None:
        if e is None:
            raise ValueError("pass either e or an initial state")
        initial = initial_state(n, h, e)
    initial = ProfileState(*map(float, initial))
    if initial.x <= config.axis_epsilon:
        raise AxisPointError(
            f"initial radius {initial.x} is inside the axis margin "
            f"{config.axis_epsilon}"
        )

    rel, abs_ = config.rel_tol, config.abs_tol
    retry_notes = []
    while True:
        traj = _solve_attempt(n, h, initial, config, rel, abs_, retry_notes)
        try:
            _check_invariants(traj)
            return traj
        except EnergyDriftError:
            if len(retry_notes) >= 2 or rel <= _REL_FLOOR * 1.01:
                raise
            retry_notes.append(
                f"energy drift {traj.energy_drift():.3e} at rtol {rel:.1e}; "
                "retrying at tighter tolerance"
            )
            rel = max(rel * 1e-2, _REL_FLOOR)
            abs_ = abs_ * 1e-2


def _mirrored(traj, at_end):
    """traj joined to its mirror image about its end (or start) state.

    At a critical radius the profile is symmetric under the reflection
    (s, x, t, sigma) -> (2 s0 - s, x, 2 t0 - t, 2 sigma0 - sigma); samples,
    events and the dense evaluator are all carried across it, and the joint
    is recorded as a CriticalRadius event.  A mirror about the start is
    shifted so the result begins where traj began.
    """
    k = -1 if at_end else 0
    s0 = float(traj.s[k])
    x0, t0, sig0 = traj.states[k]

    def mirror(s, x, t, sig):
        return s0 + (s0 - s), x, 2.0 * t0 - t, 2.0 * sig0 - sig

    s_m, *columns = mirror(traj.s[::-1], *traj.states[::-1].T)
    events_m = []
    for ev in reversed(traj.events):
        s, *state = mirror(ev.s, *ev.state)
        events_m.append(Event(ev.kind, s, ProfileState(*state)))
    original = (traj.s, traj.states, traj.events)
    mirrored = (s_m, np.column_stack(columns), events_m)
    first, second = (original, mirrored) if at_end else (mirrored, original)
    shift = 0.0 if at_end else traj.s_end - s0
    joint = Event(EventKind.CRITICAL_RADIUS, s0, ProfileState(x0, t0, sig0))
    # dict.fromkeys drops the joint's duplicates in a fixed order; a set
    # would order tied events by the string hash seed
    events = dict.fromkeys(first[2] + second[2] + [joint])
    events = [Event(ev.kind, ev.s + shift, ev.state) for ev in events]
    events.sort(key=lambda ev: ev.s)
    base = traj.dense

    def dense(s):
        u = s - shift
        if (u > s0) == at_end:  # u lies on the mirror image
            return mirror(u, *base(s0 + (s0 - u)))[1:]
        return base(u)

    return Trajectory(
        n=traj.n,
        h=traj.h,
        e=traj.e,
        s=np.concatenate([first[0], second[0][1:]]) + shift,
        states=np.vstack([first[1], second[1][1:]]),
        events=events,
        config=traj.config,
        dense=dense,
        notes=list(traj.notes),
    )


def reflect_continue(traj, copies=1):
    """Extend a trajectory by mirror reflection at a critical radius.

    When the trajectory ends where sin(sigma) = 0, the continuation is the
    t-mirror of the whole curve, appended; when instead it starts there, the
    mirror is prepended (a profile integrated away from its only critical
    point, like the closed sphere cap, gets completed backwards).  Each joint
    is recorded as a CriticalRadius event, and the result keeps an exact
    dense evaluator.  Cylinders are their own reflection and are returned
    unchanged with a note.  Raises NoCriticalPointError when neither end
    qualifies.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if float(np.max(np.abs(np.sin(traj.states[:, 2])))) < 1e-9:
        return replace(traj, notes=traj.notes + ["cylinder: self-mirrored"])
    out = traj
    for i in range(copies):
        if abs(math.sin(out.states[-1, 2])) <= 1e-9:
            out = _mirrored(out, at_end=True)
        elif abs(math.sin(out.states[0, 2])) <= 1e-9:
            out = _mirrored(out, at_end=False)
        elif i == 0:
            raise NoCriticalPointError(
                "trajectory neither starts nor ends at a critical radius"
            )
        else:
            break
    return out


def trajectory_to_json(traj):
    """JSON-ready dict of a trajectory (samples, events, notes)."""
    return {
        "n": traj.n,
        "h": traj.h,
        "e": traj.e,
        "samples": [
            [float(s), float(x), float(t), float(sig)]
            for s, (x, t, sig) in zip(traj.s, traj.states)
        ],
        "events": [
            {
                "kind": ev.kind.value,
                "s": ev.s,
                "state": [ev.state.x, ev.state.t, ev.state.sigma],
            }
            for ev in traj.events
        ],
        "notes": list(traj.notes),
    }


def trajectory_to_csv(traj, stream):
    """Write sample rows (s, x, t, sigma) to a text stream, 17 significant
    digits so the values survive a round trip."""
    writer = csv.writer(stream)
    writer.writerow(["s", "x", "t", "sigma"])
    for s, (x, t, sig) in zip(traj.s, traj.states):
        writer.writerow(["%.17g" % v for v in (s, x, t, sig)])
