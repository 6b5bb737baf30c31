"""Generating-curve ODE for rotational constant mean curvature hypersurfaces.

The profile (x(s), t(s)) is tracked by arclength together with the turning
angle sigma, where x' = sin(sigma), t' = cos(sigma) and

    sigma' = (2n-1) cos^3(sigma) / x^3
             + 2(n-1) sin^2(sigma) cos(sigma) / x
             - 2n H (x^2 sin^2(sigma) + cos^2(sigma))^{3/2} / x^2.

Solutions conserve E = x^{2n-1} cos(sigma)/sqrt(x^2 sin^2 sigma + cos^2 sigma)
- H x^{2n}.  After every accepted step the solver projects the state back
onto that level set (the standard projection method for first integrals,
Hairer, Lubich & Wanner, Geometric Numerical Integration, IV.4): sigma is
reset to the angle the energy relation gives at the new x, except near
critical radii and thin necks, where that reset is ill-conditioned.  Without
it an energy error dE makes cos(sigma) ~ dE / x^{2n-1} near the axis, and
every n >= 2 sphere turns back before reaching it.  The projection hides the
integrator's error from the samples, so the gate reads the sum of the
corrections it applied as well: when that or the sample drift exceeds the
tolerance, the solve is retried at tighter tolerance, and a drifting
trajectory is refused.  Events mark critical radii (sin sigma = 0), vertical
tangents (cos sigma = 0) and axis contact (x falling to the configured
epsilon).

Internally the angle is carried as the pair (cos sigma, sin sigma).  Nodoids
wind sigma down by 2 pi per period, and a solver controlling relative error
against the grown |sigma| loses absolute accuracy with every turn; the pair
stays on the unit circle no matter how far the curve winds.
"""

from __future__ import annotations

import csv
import enum
import functools
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .classify import Family, classify, cylinder_radius
from .core import dimension_index
from .errors import (
    AxisPointError,
    EnergyDriftError,
    IntegrationError,
    NoCriticalPointError,
)

__all__ = [
    "ProfileState",
    "SolveConfig",
    "SolveStats",
    "EventKind",
    "Event",
    "Trajectory",
    "rhs",
    "energy",
    "sigma_at_radius",
    "initial_state",
    "integrate",
    "periodic_continuation",
    "reflect_continue",
    "truncated",
    "trajectory_to_csv",
    "trajectory_to_json",
]

_LOG = logging.getLogger("heisenberg_cmc")


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

    def __post_init__(self):
        if self.stop_event is not None and self.stop_event[1] < 1:
            raise ValueError("stop_event count must be >= 1")
        if not 0.0 < self.max_arclength < math.inf:
            raise ValueError("max_arclength must be finite and positive, "
                             f"got {self.max_arclength!r}")


@dataclass(frozen=True)
class SolveStats:
    """What the solve behind a trajectory cost, summed over its attempts."""

    rhs_evals: int = 0
    steps: int = 0  # accepted steps
    retries: int = 0


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
    c, s = _level_pair(min(max(k, -1.0), 1.0), x)
    return math.atan2(s if rising else -s, c)


def _level_pair(k, x):
    """(cos sigma, |sin sigma|) where cos / sqrt(x^2 sin^2 + cos^2) = k.

    sin^2 is taken from 1 - k^2 = (1 - k)(1 + k), not from 1 - cos^2: near
    |k| = 1 at large x that difference would cancel, and the error it leaves
    in sin is amplified x^{2n+1}-fold in E.
    """
    kx2 = k * k * x * x
    rest = (1.0 - k) * (1.0 + k)
    q = rest + kx2
    return math.copysign(math.sqrt(kx2 / q), k), math.sqrt(rest / q)


def initial_state(n, h, e):
    """Canonical starting state of the (n, H, E) profile.

    Bounded-band families start at a critical radius with t = 0; the sphere
    starts at its equator x = 1/H, the catenoid at its waist, the hyperplane
    at x = 1.  For H < 0 the state is the mirror (x, 0, pi - sigma) of the
    (-H, -E) profile, which traverses the same curve with t reversed.
    """
    n = dimension_index(n)
    return _start(classify(n, h, e), float(h), float(e))


def _start(c, h, e):
    """initial_state(c.n, h, e), given c = classify(c.n, h, e)."""
    if h < 0.0:
        base = _start(c, -h, -e)
        return ProfileState(base.x, base.t, math.pi - base.sigma)
    if c.family is Family.HYPERPLANE:
        return ProfileState(1.0, 0.0, math.pi / 2.0)
    if c.family is Family.CATENOID:
        return ProfileState(c.x1, 0.0, 0.0 if e > 0.0 else math.pi)
    if c.family is Family.SPHERE:
        return ProfileState(1.0 / h, 0.0, 0.0)
    if c.family is Family.CYLINDER:
        return ProfileState(cylinder_radius(c.n, h), 0.0, 0.0)
    if c.family is Family.UNDULOID:
        return ProfileState(c.x1, 0.0, 0.0)
    return ProfileState(c.x2, 0.0, 0.0)  # nodoid, outer radius


def _band_roots(c):
    """Radii at which the canonical profile of c may turn (sin sigma = 0)."""
    if c.family is Family.SPHERE:
        return (1.0 / c.h,)
    return tuple(x for x in (c.x1, c.x2) if x is not None)


@dataclass
class Trajectory:
    """Integrated profile with event record and dense evaluation.

    states holds rows (x, t, sigma) at the arclength nodes s.  dense maps an
    arclength in [s[0], s[-1]] to (x, t, sigma): the solver's dense output,
    composed with the mirror maps for reflected trajectories, so state_at(s)
    is exact between nodes too.  energy_correction is the sum of the
    |E(y) - E| the level-set projection removed during the solve, and stats
    its cost.  engine names what produced the curve: "ode" for the solver,
    "closed-form" for closed_forms.canonical_trajectory.
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
    energy_correction: float = 0.0
    stats: SolveStats = field(default_factory=SolveStats)
    engine: str = "ode"

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
        """The larger of the samples' drift from E and the projection's
        correction sum: the samples sit on the level set by construction, so
        the corrections are what measure the integrator."""
        x, sig = self.states[:, 0], self.states[:, 2]
        sampled = np.max(np.abs(_energy_arr(x, sig, self.n, self.h) - self.e))
        return float(max(sampled, self.energy_correction))


def _energy_arr(x, sigma, n, h):
    sin, cos = np.sin(sigma), np.cos(sigma)
    return x ** (2 * n - 1) * cos / np.sqrt(x * x * sin * sin + cos * cos) - h * x ** (
        2 * n
    )


def _check_invariants(traj, roots=None):
    """Raise EnergyDriftError when traj drifted off its level set.

    roots, given for a canonical start, are the radii where the profile may
    turn; a CriticalRadius event anywhere else is a spurious turn.
    """
    drift = traj.energy_drift()
    tol = traj.config.drift_tolerance * (1.0 + abs(traj.e))
    if drift > tol:
        terms = float(np.max(abs(traj.h) * traj.states[:, 0] ** (2 * traj.n)))
        rounding = terms * np.finfo(float).eps
        why = (f"; the terms of E reach {terms:.3e}, so their rounding alone "
               f"is ~{rounding:.3e}" if rounding > 0.1 * tol else "")
        raise EnergyDriftError(
            f"energy drifted by {drift:.3e} (tolerance {tol:.3e}){why}", trajectory=traj
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
    if roots is None:
        return
    for ev in traj.events:
        x = ev.state.x
        if ev.kind is EventKind.CRITICAL_RADIUS and not any(
            abs(x - r) <= 1e-6 * x for r in roots
        ):
            raise EnergyDriftError(
                f"critical radius at x = {x:.6g} (s = {ev.s:.6g}) is off the "
                f"band roots {', '.join(f'{r:.6g}' for r in roots) or '(none)'}",
                trajectory=traj,
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
        return (x, t, self.branch(s, math.atan2(si, c)))

    def branch(self, s, raw):
        """The angle raw moved by a multiple of 2 pi onto the branch of the
        interpolated node sigma at s."""
        guess = float(np.interp(s, self._s, self._sigma))
        return raw + _TWO_PI * round((guess - raw) / _TWO_PI)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call so that
    importing this module loads no SciPy."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


@functools.cache
def _level_set_dop853():
    """The level-set solver class.  It subclasses SciPy's DOP853, so it is
    built on the first call rather than when this module is imported."""
    from scipy.integrate import DOP853

    class _LevelSetDOP853(DOP853):
        """DOP853 that puts every accepted step back on the level set of E.

        level = (n, h, e) names the level set.  After each accepted step
        (cos sigma, sin sigma) is reset to the values the energy relation
        gives at the new x, as sigma_at_radius computes them, keeping the
        sign of sin sigma, and |E(y) - e| is added to tally[0].  The stored
        derivative is then refreshed, so the step's dense output, built from
        y and f at both ends, stays continuous through the projected node.

        Moving sigma at fixed x turns an error dx in x into an error
        (x sigma' / sin sigma) dx / x in sigma.  Where that factor exceeds 10
        the step is left alone: around every critical radius, where dE/dsigma
        vanishes, and at the thin necks where sigma turns fast, the
        projection would amplify the integrator's error instead of removing
        it.
        """

        def __init__(self, fun, t0, y0, t_bound, level, tally, **options):
            super().__init__(fun, t0, y0, t_bound, **options)
            self.level = level
            self.tally = tally

        def _step_impl(self):
            accepted, message = super()._step_impl()
            if accepted and self._project():
                self.f = self.fun(self.t, self.y)
            return accepted, message

        def _project(self):
            n, h, e = self.level
            x, t, c, s = self.y
            if x <= 0.0:
                return False
            p = x ** (2 * n - 1)
            u = (e + h * x * p) / p
            # (c, s) = r (cos, sin) and f[2:] = (-sin, cos) sigma', so
            # x_dsigma / s = x sigma' / sin sigma.  u = 0 throughout is the
            # hyperplane, vertical everywhere: cos sigma reset to exactly 0
            # would put every node on the VerticalTangent event
            x_dsigma = x * (c * self.f[3] - s * self.f[2])
            if abs(u) >= 1.0 or u == 0.0 or abs(x_dsigma) >= 10.0 * abs(s):
                return False
            self.tally[0] += abs(p * c / math.sqrt(x * x * s * s + c * c)
                                 - h * x * p - e)
            c, sin = _level_pair(u, x)
            self.y = np.array([x, t, c, math.copysign(sin, s)])
            return True

    return _LevelSetDOP853


def _solve_attempt(n, h, e, initial, config, rel_tol, abs_tol, notes):
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
    if h == 0.0 and e == 0.0:
        # H = E = 0 is the vertical ray: through sigma = atan2(1, c) the rhs
        # would give cos sigma = 6e-17 and let it dither about 0, and a curve
        # vertical everywhere has no isolated VerticalTangent event
        fun, ev_vertical = lambda s, y: (y[3], y[2], 0.0, 0.0), lambda s, y: 1.0
    # at a multiple of pi/2 the pair is exact: sin(pi) = 1.2e-16 would put a
    # start on a critical radius beside its event instead of on it
    quarter = round(initial.sigma / (math.pi / 2.0))
    if quarter * (math.pi / 2.0) == initial.sigma:
        c0, s0 = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[quarter % 4]
    else:
        c0, s0 = math.cos(initial.sigma), math.sin(initial.sigma)
    y0 = [initial.x, initial.t, c0, s0]
    kinds = {
        EventKind.CRITICAL_RADIUS: ev_critical,
        EventKind.VERTICAL_TANGENT: ev_vertical,
        EventKind.AXIS_CONTACT: ev_axis,
    }
    if config.stop_event is not None:
        kind, count = config.stop_event
        gev = kinds[EventKind(kind)]
        # the solver reports an event at s = 0 exactly when the start state
        # sits on it; bump the terminal count so that phantom hit is not
        # counted
        at_start = gev(0.0, np.array(y0)) == 0.0
        gev.terminal = int(count) + (1 if at_start else 0)

    events = [ev_critical, ev_vertical, ev_axis]
    tally = [0.0]
    sol = solve_ivp(
        fun,
        (0.0, config.max_arclength),
        y0,
        method=_level_set_dop853(),
        rtol=rel_tol,
        atol=abs_tol,
        dense_output=True,
        events=events,
        level=(n, h, e),
        tally=tally,
    )
    if not sol.success and sol.status != 1:
        raise IntegrationError(f"integration failed: {sol.message}")

    sigma_nodes = np.unwrap(np.arctan2(sol.y[3], sol.y[2]))
    # an explicit start may sit outside the principal branch
    sigma_nodes += _TWO_PI * round((initial.sigma - sigma_nodes[0]) / _TWO_PI)
    s_nodes = np.asarray(sol.t, dtype=float)
    dense = _DenseCurve(sol.sol, s_nodes, sigma_nodes)

    recorded = []
    for kind, idx in (
        (EventKind.CRITICAL_RADIUS, 0),
        (EventKind.VERTICAL_TANGENT, 1),
        (EventKind.AXIS_CONTACT, 2),
    ):
        for s_ev, y_ev in zip(sol.t_events[idx], sol.y_events[idx]):
            if s_ev > 1e-12:  # drop the phantom hit at the start state
                sig = dense.branch(float(s_ev), math.atan2(y_ev[3], y_ev[2]))
                if kind is EventKind.CRITICAL_RADIUS:
                    # sin sigma = 0 defines the event; at a thin neck sigma
                    # turns so fast that the located root keeps sin ~ 1e-8,
                    # and a mirror about it would not join exactly
                    sig = math.pi * round(sig / math.pi)
                state = ProfileState(float(y_ev[0]), float(y_ev[1]), sig)
                recorded.append(Event(kind, float(s_ev), state))
    recorded.sort(key=lambda ev: ev.s)

    return Trajectory(
        n=n,
        h=h,
        e=e,
        s=s_nodes,
        states=np.column_stack([sol.y[0], sol.y[1], sigma_nodes]),
        events=recorded,
        config=config,
        notes=list(notes),
        dense=dense,
        energy_correction=tally[0],
        stats=SolveStats(rhs_evals=sol.nfev, steps=len(sol.t) - 1),
    )


def truncated(traj, config):
    """traj cut at config's k-th stop_event or at its max_arclength.

    Whichever comes first ends the curve: the samples before it are kept and
    the state there (the event's own, or the dense one at the arclength
    limit) closes them.  An unreached stop event adds a note.  The result
    carries config.
    """
    s_cut, last = config.max_arclength, None
    notes = list(traj.notes)
    if config.stop_event is not None:
        kind, count = EventKind(config.stop_event[0]), config.stop_event[1]
        matching = [ev for ev in traj.events if ev.kind is kind]
        if len(matching) >= count and matching[count - 1].s <= s_cut:
            s_cut, last = matching[count - 1].s, matching[count - 1].state
        else:
            notes.append(
                f"stop event {kind.value} x{count} not reached "
                f"within arclength {config.max_arclength}"
            )
    if last is None:
        if traj.s_end <= s_cut:
            return replace(traj, config=config, notes=notes)
        last = traj.state_at(s_cut)
    keep = traj.s < s_cut - 1e-15
    return replace(
        traj,
        s=np.append(traj.s[keep], s_cut),
        states=np.vstack([traj.states[keep], list(last)]),
        events=[ev for ev in traj.events if ev.s <= s_cut + 1e-15],
        config=config,
        notes=notes,
    )


def integrate(n, h, e=None, initial=None, config=None):
    """Integrate the profile system from a canonical or explicit start.

    Either pass e (energy) to start from initial_state(n, h, e), or pass an
    explicit initial ProfileState (e is then derived from it).  Every step is
    projected onto the level set of e; a canonical start projects onto the
    requested e itself, whose start state carries roundoff.  Integration
    runs to config.max_arclength unless an axis contact or the configured
    stop_event ends it earlier.  When energy_drift() exceeds tolerance, or a
    canonical start turns at a radius that is not a root of its band, the
    solve is retried at tolerances tightened a hundredfold, twice at most;
    EnergyDriftError is raised only once that fails too.

    A canonical unduloid or nodoid is periodic and symmetric about each
    critical radius, so only its first half period is solved (and gated);
    periodic_continuation mirrors it until it covers the arclength limit or
    holds the stop event, and a note records the tiling.  The direct long solve
    would pay for, and accumulate error over, every period.  Explicit starts
    and the other families are solved directly.
    """
    n = dimension_index(n)
    h = float(h)
    config = config or SolveConfig()
    c = roots = None
    if initial is None:
        if e is None:
            raise ValueError("pass either e or an initial state")
        e = float(e)
        c = classify(n, h, e)
        initial, roots = _start(c, h, e), _band_roots(c)
    else:
        initial = ProfileState(*map(float, initial))
        # a non-finite H or state would leave E non-finite
        if not all(map(math.isfinite, (h, *initial))):
            raise ValueError(
                f"an explicit start needs finite H, x, t and sigma, got "
                f"H = {h!r} and {tuple(initial)}")
        e = energy(initial, n, h)
    if initial.x <= config.axis_epsilon:
        raise AxisPointError(
            f"initial radius {initial.x} is inside the axis margin "
            f"{config.axis_epsilon}"
        )
    if c is None or c.family not in (Family.UNDULOID, Family.NODOID):
        return _solve(n, h, e, initial, roots, config)
    half = _solve(n, h, e, initial, roots, replace(
        config, stop_event=(EventKind.CRITICAL_RADIUS, 1)))
    if not any(ev.kind is EventKind.CRITICAL_RADIUS for ev in half.events):
        # no critical radius within the limit: the solve is the direct one,
        # and its last note is the half period's own "not reached"
        return truncated(replace(half, notes=half.notes[:-1]), config)
    return periodic_continuation(half, config)


def periodic_continuation(half, config):
    """half, a canonical half period ending at a critical radius, mirrored
    there until it reaches config's arclength limit or holds its stop event,
    then cut by truncated; a note records the tiling."""
    tiled = half
    while tiled.s_end < config.max_arclength and not _holds(tiled, config):
        tiled = reflect_continue(tiled)
    out = truncated(tiled, config)
    if tiled is not half:
        out.notes.append(
            f"periodic: one half period (arclength {half.s_end:.12g}) "
            f"mirrored to arclength {out.s_end:.12g}"
        )
    return out


def _holds(traj, config):
    """Whether traj holds the k-th event of config's stop_event."""
    if config.stop_event is None:
        return False
    kind, count = EventKind(config.stop_event[0]), config.stop_event[1]
    return sum(ev.kind is kind for ev in traj.events) >= count


def _solve(n, h, e, initial, roots, config):
    """The direct solve behind integrate, with its drift gate and retries."""
    rel, abs_ = config.rel_tol, config.abs_tol
    retry_notes = []
    rhs_evals = steps = 0
    while True:
        traj = truncated(
            _solve_attempt(n, h, e, initial, config, rel, abs_, retry_notes),
            config,
        )
        rhs_evals += traj.stats.rhs_evals
        steps += traj.stats.steps
        traj = replace(traj, stats=SolveStats(rhs_evals, steps, len(retry_notes)))
        try:
            _check_invariants(traj, roots)
            return traj
        except EnergyDriftError as exc:
            if len(retry_notes) >= 2 or rel <= _REL_FLOOR * 1.01:
                raise
            note = (
                f"energy drift {traj.energy_drift():.3e} at rtol {rel:.1e}; "
                "retrying at tighter tolerance"
            )
            _LOG.info("n = %d, H = %r, E = %r: %s (%s)", n, h, e, note, exc)
            retry_notes.append(note)
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
    events = list(dict.fromkeys(first[2] + second[2] + [joint]))
    if shift:
        events = [Event(ev.kind, ev.s + shift, ev.state) for ev in events]
    events.sort(key=lambda ev: ev.s)
    base = traj.dense

    def dense(s):
        u = s - shift
        if (u > s0) == at_end:  # u lies on the mirror image
            return mirror(u, *base(s0 + (s0 - u)))[1:]
        return base(u)

    return replace(
        traj,
        s=np.concatenate([first[0], second[0][1:]]) + shift,
        states=np.vstack([first[1], second[1][1:]]),
        events=events,
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
    """JSON-ready dict of a trajectory (samples, events, notes and the
    solve's diagnostics)."""
    return {
        "n": traj.n,
        "h": traj.h,
        "e": traj.e,
        "samples": np.column_stack((traj.s, traj.states)).tolist(),
        "events": [
            {
                "kind": ev.kind.value,
                "s": ev.s,
                "state": [ev.state.x, ev.state.t, ev.state.sigma],
            }
            for ev in traj.events
        ],
        "notes": list(traj.notes),
        "diagnostics": {
            "engine": traj.engine,
            "energy_drift": traj.energy_drift(),
            "rhs_evals": traj.stats.rhs_evals,
            "steps": traj.stats.steps,
            "energy_correction": traj.energy_correction,
            "retries": traj.stats.retries,
        },
    }


def trajectory_to_csv(traj, stream):
    """Write sample rows (s, x, t, sigma) to a text stream, 17 significant
    digits so the values survive a round trip."""
    writer = csv.writer(stream)
    writer.writerow(["s", "x", "t", "sigma"])
    rows = np.column_stack((traj.s, traj.states)).tolist()
    writer.writerows(["%.17g" % v for v in row] for row in rows)
