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

import bisect
import csv
import enum
import logging
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .classify import Family, _brentq, classify, cylinder_radius
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
CYLINDER_NOTE = ("sin sigma is exactly 0 at every node: the radius is constant "
                 "and critical throughout, so no CriticalRadius event is "
                 "recorded")


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
        if self.stop_event is not None:
            kind, count = self.stop_event
            if count < 1:
                raise ValueError("stop_event count must be >= 1")
            object.__setattr__(self, "stop_event", (EventKind(kind), int(count)))
        if not 0.0 < self.max_arclength < math.inf:
            raise ValueError("max_arclength must be finite and positive, "
                             f"got {self.max_arclength!r}")


@dataclass(frozen=True)
class SolveStats:
    """What the solve behind a trajectory cost, summed over its attempts."""

    rhs_evals: int = 0
    steps: int = 0  # accepted steps
    retries: int = 0
    rejected: int = 0  # rejected trial steps


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
    rel_tol: float | None = None

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
_REL_FLOOR = 2.3e-14  # just above 100*eps, where step control meets rounding


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


class _Tableau(NamedTuple):
    """Dormand-Prince 8(5,3) as rows of nonzero (stage, weight) pairs."""

    stages: tuple  # stages 1..11 from the stages before them
    b: tuple  # the 8th-order solution
    e5: tuple  # the 5th- and 3rd-order error estimates
    e3: tuple
    extra: tuple  # stages 13..15, for the dense output only
    d: tuple  # the dense output's four highest coefficients


# Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, Solving ODEs I, II.10),
# every float the shortest repr of the one in SciPy's dop853_coefficients,
# so the two tableaus are equal bit for bit.  _A[i - 1] is row i of the
# Butcher matrix left of its diagonal: rows 1..11 give the stages, row 12
# the 8th-order weights (its stage is the step's end), rows 13..15 the dense
# output's extra stages.  No abscissa is kept: the profile system does not
# depend on arclength.
_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
       -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
       0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0)
_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
       1.8915178993145003, -5.801203960010585, -0.4226823213237919,
       -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0)
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)


def _nonzero(row):
    return tuple((j, w) for j, w in enumerate(row) if w != 0.0)


_TABLEAU = _Tableau(
    stages=tuple(map(_nonzero, _A[:11])),
    b=_nonzero(_A[11]),
    e5=_nonzero(_E5),
    e3=_nonzero(_E3),
    extra=tuple(map(_nonzero, _A[12:])),
    d=tuple(map(_nonzero, _D)),
)


# step control as SciPy's RungeKutta: a step grows or shrinks by
# SAFETY * err^(-1/8), within [MIN, MAX], and never grows right after a
# rejection
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / 8.0  # -1 / (order of the error estimator + 1)
_ROOT_TOL = 4.0 * math.ulp(1.0)  # event roots, xtol = rtol


def _combine(k, row):
    """sum_j w_j k_j over the (j, w) of row, per component of the k_j."""
    x = t = c = s = 0.0
    for j, w in row:
        kx, kt, kc, ks = k[j]
        x += w * kx
        t += w * kt
        c += w * kc
        s += w * ks
    return x, t, c, s


def _rms(values):
    return math.sqrt(sum(v * v for v in values)) / 2.0


def _initial_step(fun, y, f, s_end, rtol, atol):
    """SciPy's select_initial_step (Hairer, Norsett & Wanner, Solving ODEs I,
    II.4) for an error estimator of order 7."""
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / w for v, w in zip(y, scale)])
    d1 = _rms([v / w for v, w in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, s_end)
    x, _, c, s = (v + h0 * dv for v, dv in zip(y, f))
    d2 = _rms([(b - a) / w for a, b, w in zip(f, fun(x, c, s), scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    return min(100.0 * h0, h1, s_end)


def _interpolate(piece, u):
    """The dense output of one step at arclength u."""
    s0, h, coefficients = piece
    r = (u - s0) / h
    q = 1.0 - r
    return tuple(
        ((((((f6 * r + f5) * q + f4) * r + f3) * q + f2) * r + f1) * q + f0) * r
        + y0
        for y0, f0, f1, f2, f3, f4, f5, f6 in coefficients
    )


class _DenseOutput:
    """Piecewise dense output; at a node the step before it is used."""

    def __init__(self, nodes, pieces):
        self._nodes = nodes
        self._pieces = pieces

    def __call__(self, u):
        i = bisect.bisect_left(self._nodes, u) - 1
        return _interpolate(
            self._pieces[min(max(i, 0), len(self._pieces) - 1)], u)


@dataclass
class _OdeResult:
    """What solve_ivp returns: the nodes t (arclengths) and y (states), the
    event roots and states per event, the dense output sol, the right-hand
    side evaluations nfev, the rejected trial steps, and the sum of the
    corrections the projection reported."""

    t: list
    y: list
    t_events: list
    y_events: list
    sol: _DenseOutput
    nfev: int
    rejected: int
    correction: float


def solve_ivp(fun, y0, s_end, rtol, atol, events, project):
    """Integrate y = (x, t, cos sigma, sin sigma) from s = 0 to s_end.

    The method is Dormand-Prince 8(5,3) with SciPy's DOP853 step control,
    initial step, error norm and dense output, run on Python floats.  fun(x,
    c, s) gives y'; t enters no derivative.  project(y, f) sees every
    accepted step and returns None or the pair (moved y, correction); f is
    then refreshed at the moved y, the step's dense output is built from
    both, and the corrections are summed.

    events holds (g, direction, terminal) triples.  As in SciPy, an event
    occurs in a step whose end nodes give g(y) opposite signs or a 0,
    falling only for direction < 0, rising only for direction > 0; unlike
    SciPy, a g that is exactly 0 at s = 0 is no event, so a start state on
    an event does not report it, and neither is a g exactly 0 at both ends
    of a step, as sin sigma is all along a cylinder.  The root is found by
    Brent's method on the step's dense output, and the solve ends at the
    terminal-th root of an event with terminal > 0.  Raises IntegrationError
    when the step falls below ten ulps of s.
    """
    stages, b, e5, e3, extra, d = _TABLEAU
    y = tuple(map(float, y0))
    f = fun(y[0], y[2], y[3])
    h_abs = _initial_step(fun, y, f, s_end, rtol, atol)
    nfev, rejected, correction = 2, 0, 0.0
    # NaN fails every comparison below: a g that is 0 at the start finds no
    # event in the first step
    g_old = [g(y) or math.nan for g, _, _ in events]
    counts = [0] * len(events)
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]
    nodes, states, pieces = [0.0], [y], []
    s_old = 0.0
    while True:
        x, t, c, s = y
        min_step = 10.0 * (math.nextafter(s_old, math.inf) - s_old)
        h_abs = max(h_abs, min_step)
        retried = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(
                    "integration failed: Required step size is less than "
                    "spacing between numbers.")
            s_new = min(s_old + h_abs, s_end)
            h = s_new - s_old
            k = [f]
            for row in stages:
                dx, _, dc, ds = _combine(k, row)
                k.append(fun(x + dx * h, c + dc * h, s + ds * h))
            bx, bt, bc, bs = _combine(k, b)
            y_new = (x + h * bx, t + h * bt, c + h * bc, s + h * bs)
            k.append(fun(y_new[0], y_new[2], y_new[3]))
            nfev += 12
            norm5 = norm3 = 0.0
            for v, w, a5, a3 in zip(y, y_new, _combine(k, e5), _combine(k, e3)):
                scale = atol + max(abs(v), abs(w)) * rtol
                norm5 += (a5 / scale) ** 2
                norm3 += (a3 / scale) ** 2
            if norm5 == 0.0 and norm3 == 0.0:
                err = 0.0
            else:
                err = h * norm5 / math.sqrt((norm5 + 0.01 * norm3) * 4.0)
            if err < 1.0:
                factor = (_MAX_FACTOR if err == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT))
                h_abs = h * (min(1.0, factor) if retried else factor)
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            retried = True
            rejected += 1

        f_new = k[12]
        moved = project(y_new, f_new)
        if moved is not None:
            y_new, step_correction = moved
            correction += step_correction
            f_new = fun(y_new[0], y_new[2], y_new[3])
            nfev += 1
        for row in extra:
            dx, _, dc, ds = _combine(k, row)
            k.append(fun(x + dx * h, c + dc * h, s + ds * h))
        nfev += 3
        coefficients = []
        for i, high in enumerate(zip(*(_combine(k, row) for row in d))):
            delta = y_new[i] - y[i]
            coefficients.append((
                y[i],
                delta,
                h * f[i] - delta,
                2.0 * delta - h * (f_new[i] + f[i]),
                *(h * v for v in high),
            ))
        piece = (s_old, h, coefficients)
        pieces.append(piece)

        g_new = [g(y_new) for g, _, _ in events]
        hits = []
        for i, (g, direction, _) in enumerate(events):
            if g_old[i] == 0.0 == g_new[i]:
                continue  # g vanishes along the step: no isolated root
            rising = g_old[i] <= 0.0 <= g_new[i]
            falling = g_old[i] >= 0.0 >= g_new[i]
            if rising and direction >= 0 or falling and direction <= 0:
                root = _brentq(lambda u, g=g: g(_interpolate(piece, u)),
                               s_old, s_new, _ROOT_TOL, _ROOT_TOL)
                counts[i] += 1
                hits.append((root, i))
        hits.sort()
        # the first terminal root ends the solve; the roots after it are lost
        end = next((n for n, (_, i) in enumerate(hits)
                    if 0 < events[i][2] <= counts[i]), None)
        if end is not None:
            hits = hits[:end + 1]
        for root, i in hits:
            t_events[i].append(root)
            y_events[i].append(_interpolate(piece, root))
        if end is not None:
            root, i = hits[-1]
            if root == nodes[-1]:  # ended on the last node: no new segment
                pieces.pop()
            else:
                nodes.append(root)
                states.append(y_events[i][-1])
            break
        nodes.append(s_new)
        states.append(y_new)
        if s_new >= s_end:
            break
        s_old, y, f, g_old = s_new, y_new, f_new, g_new

    return _OdeResult(t=nodes, y=states, t_events=t_events, y_events=y_events,
                     sol=_DenseOutput(nodes, pieces), nfev=nfev,
                     rejected=rejected, correction=correction)


def _project(level, y, f):
    """y put back on the level set level = (n, h, e) of E, with the |E(y) -
    e| that removed, or None where y is left alone.

    (cos sigma, sin sigma) is reset to the values the energy relation gives
    at y's x, as sigma_at_radius computes them, keeping the sign of sin
    sigma.  Moving sigma at fixed x turns an error dx in x into an error
    (x sigma' / sin sigma) dx / x in sigma.  Where that factor exceeds 10
    the step is left alone: around every critical radius, where dE/dsigma
    vanishes, and at the thin necks where sigma turns fast, the projection
    would amplify the integrator's error instead of removing it.
    """
    n, h, e = level
    x, t, c, s = y
    if x <= 0.0:
        return None
    p = x ** (2 * n - 1)
    u = (e + h * x * p) / p
    # (c, s) = r (cos, sin) and f[2:] = (-sin, cos) sigma', so x_dsigma / s =
    # x sigma' / sin sigma.  u = 0 throughout is the hyperplane, vertical
    # everywhere: cos sigma reset to exactly 0 would put every node on the
    # VerticalTangent event
    x_dsigma = x * (c * f[3] - s * f[2])
    if abs(u) >= 1.0 or u == 0.0 or abs(x_dsigma) >= 10.0 * abs(s):
        return None
    correction = abs(p * c / math.sqrt(x * x * s * s + c * c) - h * x * p - e)
    c, sin = _level_pair(u, x)
    return (x, t, c, math.copysign(sin, s)), correction


def _solve_attempt(n, h, e, initial, config, rel_tol, abs_tol, notes):
    def fun(x, c, s):
        sigma = math.atan2(s, c)
        # trial steps may undershoot the axis
        sin, cos, dsigma = _rhs_scalars(x if x > 1e-12 else 1e-12, sigma, n, h)
        return sin, cos, -sin * dsigma, cos * dsigma

    def vertical(y):
        return y[2]

    if h == 0.0 and e == 0.0:
        # H = E = 0 is the vertical ray: through sigma = atan2(1, c) the rhs
        # would give cos sigma = 6e-17 and let it dither about 0, and a curve
        # vertical everywhere has no isolated VerticalTangent event
        def fun(x, c, s):
            return s, c, 0.0, 0.0

        def vertical(y):
            return 1.0

    # (kind, event function, direction); reaching the axis ends every solve
    watched = (
        (EventKind.CRITICAL_RADIUS, lambda y: y[3], 0),
        (EventKind.VERTICAL_TANGENT, vertical, 0),
        (EventKind.AXIS_CONTACT, lambda y: y[0] - config.axis_epsilon, -1),
    )
    terminal = {EventKind.AXIS_CONTACT: 1}
    if config.stop_event is not None:
        terminal[config.stop_event[0]] = config.stop_event[1]
    events = [(g, direction, terminal.get(kind, 0))
              for kind, g, direction in watched]
    # at a multiple of pi/2 the pair is exact: sin(pi) = 1.2e-16 would put a
    # start on a critical radius beside its event instead of on it
    quarter = round(initial.sigma / (math.pi / 2.0))
    if quarter * (math.pi / 2.0) == initial.sigma:
        c0, s0 = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[quarter % 4]
    else:
        c0, s0 = math.cos(initial.sigma), math.sin(initial.sigma)
    level = (n, h, e)
    sol = solve_ivp(fun, (initial.x, initial.t, c0, s0), config.max_arclength,
                    rel_tol, abs_tol, events,
                    project=lambda y, f: _project(level, y, f))

    nodes = np.array(sol.y)
    notes = list(notes)
    if not nodes[:, 3].any():
        notes.append(CYLINDER_NOTE)
    sigma_nodes = np.unwrap(np.arctan2(nodes[:, 3], nodes[:, 2]))
    # an explicit start may sit outside the principal branch
    sigma_nodes += _TWO_PI * round((initial.sigma - sigma_nodes[0]) / _TWO_PI)
    s_nodes = np.array(sol.t)
    dense = _DenseCurve(sol.sol, s_nodes, sigma_nodes)

    recorded = []
    for (kind, _, _), roots, states in zip(watched, sol.t_events,
                                           sol.y_events):
        for s_ev, y_ev in zip(roots, states):
            sig = dense.branch(s_ev, math.atan2(y_ev[3], y_ev[2]))
            if kind is EventKind.CRITICAL_RADIUS:
                # sin sigma = 0 defines the event; at a thin neck sigma
                # turns so fast that the located root keeps sin ~ 1e-8,
                # and a mirror about it would not join exactly
                sig = math.pi * round(sig / math.pi)
            recorded.append(
                Event(kind, s_ev, ProfileState(y_ev[0], y_ev[1], sig)))
    recorded.sort(key=lambda ev: ev.s)

    return Trajectory(
        n=n,
        h=h,
        e=e,
        s=s_nodes,
        states=np.column_stack([nodes[:, 0], nodes[:, 1], sigma_nodes]),
        events=recorded,
        config=config,
        notes=notes,
        dense=dense,
        energy_correction=sol.correction,
        stats=SolveStats(rhs_evals=sol.nfev, steps=len(sol.t) - 1,
                         rejected=sol.rejected),
        rel_tol=rel_tol,
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
        kind, count = config.stop_event
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
    periodic_continuation tiles it to the fewest half periods that cover the
    arclength limit or hold the stop event, and a note records the tiling.
    The direct long solve would pay for, and accumulate error over, every
    period.  Explicit starts and the other families are solved directly.
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
    """half, a canonical half period, tiled to the fewest half periods that
    reach config's arclength limit or hold its stop event, then cut by
    truncated; a note records the tiling.  half starts on a critical radius,
    where no event is recorded, and ends at its first turn, so every joint
    turns, and so does the end of each tile that is not a mirror image.
    Raises ValueError, before tiling, past 2^22 samples."""
    halves = math.ceil(config.max_arclength / half.s_end)
    if config.stop_event is not None:
        kind, count = config.stop_event
        if kind is EventKind.CRITICAL_RADIUS:
            # h halves turn h times for odd h, h - 1 times for even h
            halves = min(halves, count + 1 - count % 2)
        elif per_half := sum(ev.kind is kind for ev in half.events):
            halves = min(halves, -(-count // per_half))
    if halves <= 1:
        return truncated(half, config)
    _check_tiling(half, halves)
    out = truncated(_tiled(half, halves), config)
    out.notes.append(f"periodic: one half period (arclength {half.s_end:.12g}) "
                     f"mirrored to arclength {out.s_end:.12g}")
    return out


def _solve(n, h, e, initial, roots, config):
    """The direct solve behind integrate, with its drift gate and retries."""
    rel, abs_ = config.rel_tol, config.abs_tol
    retry_notes = []
    rhs_evals = steps = rejected = 0
    while True:
        traj = truncated(
            _solve_attempt(n, h, e, initial, config, rel, abs_, retry_notes),
            config,
        )
        rhs_evals += traj.stats.rhs_evals
        steps += traj.stats.steps
        rejected += traj.stats.rejected
        traj = replace(traj, stats=SolveStats(
            rhs_evals, steps, len(retry_notes), rejected))
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


# the most samples _tiled builds: 2^22 rows of (s, x, t, sigma) take 128 MB
_MAX_TILED_SAMPLES = 2**22


def _check_tiling(traj, halves):
    """Raise ValueError where _tiled(traj, halves) would build more than
    _MAX_TILED_SAMPLES samples."""
    samples = (len(traj.s) - 1) * halves + 1
    if samples > _MAX_TILED_SAMPLES:
        raise ValueError(
            f"tiling {halves} copies of a curve of arclength "
            f"{traj.s_end - traj.s[0]:.6g} would take {samples} samples, more "
            f"than the {_MAX_TILED_SAMPLES} allowed; lower the arclength limit "
            "(trace --max-arclength) or the reflections (trace --reflect)")


def _tiled(traj, halves, at_end=True):
    """halves copies of traj in a row, built in one pass: tile j is traj
    mirrored (j mod 2) times about its end, then moved by floor(j / 2)
    periods (ds, dt, dsigma), twice traj's advance from start to end.

    The mirror (s, x, t, sigma) -> (2 s0 - s, x, 2 t0 - t, 2 sigma0 - sigma)
    about a critical radius is a symmetry of the profile, so past two tiles
    traj must start and end on one.  Events are carried across, each joint
    becomes a CriticalRadius event, and the dense evaluator finds its tile by
    one division by the period.  at_end False tiles backwards from the start,
    shifted to begin where traj began.  Callers size it by _check_tiling.
    """
    rows, events = np.column_stack((traj.s, traj.states)), traj.events
    if not at_end:  # tile backwards: the start is the end of the reversal
        rows, events = rows[::-1], events[::-1]
    # the critical radius mirrored about, and the period, as Python floats
    s0, _, t0, sig0 = rows[-1].tolist()
    ps, _, pt, psig = (2.0 * (rows[-1] - rows[0])).tolist()
    shift = 0.0 if at_end else (halves - 1) * (traj.s_end - s0)

    def mirror(s, x, t, sig):
        return s0 + (s0 - s), x, 2.0 * t0 - t, 2.0 * sig0 - sig

    out = np.empty((1 + halves * (len(rows) - 1), 4))
    out[0] = rows[0]
    tiles = out[1:].reshape(halves, -1, 4)  # each tile without its first row
    tiles[0::2] = rows[1:]
    tiles[1::2] = np.column_stack(mirror(*rows[-2::-1].T))
    tiles[2:] += np.arange(2, halves)[:, None, None] // 2 * [ps, 0.0, pt, psig]
    # each tile's events and the joint at its end but the last one, as (kind,
    # s, x, t, sigma); dict.fromkeys drops duplicates in a fixed order, where
    # a set would order ties by the string hash seed
    cr = EventKind.CRITICAL_RADIUS
    images = ([(ev.kind, ev.s, *ev.state) for ev in events]
              + [(cr, *rows[-1].tolist())],
              [(ev.kind, *mirror(ev.s, *ev.state)) for ev in events[::-1]]
              + [(cr, *mirror(*rows[0].tolist()))])
    moved = [(kind, s + (i // 2) * ps + shift, x, t + (i // 2) * pt,
              sig + (i // 2) * psig)
             for i in range(halves) for kind, s, x, t, sig in images[i % 2]]
    tiled_events = [Event(kind, s, ProfileState(x, t, sig))
                    for kind, s, x, t, sig in dict.fromkeys(moved[:-1])]
    if not at_end:
        out, tiled_events = out[::-1], tiled_events[::-1]
    out[:, 0] += shift
    base, start, last = traj.dense, float(rows[0, 0]), (halves - 1) // 2

    def dense(s):
        u = s - shift
        k = min(max(int((u - start) // ps), 0), last)
        u -= k * ps
        if (u > s0) == at_end:  # u lies on a mirror image
            _, x, t, sig = mirror(u, *base(s0 + (s0 - u)))
        else:
            x, t, sig = base(u)
        return x, t + k * pt, sig + k * psig

    return replace(traj, s=out[:, 0], states=out[:, 1:], events=tiled_events,
                   dense=dense, notes=list(traj.notes))


def reflect_continue(traj, copies=1):
    """Extend a trajectory by mirror reflection at a critical radius.

    A trajectory that starts and ends where sin(sigma) = 0 becomes 2^copies
    alternately t-mirrored copies of itself.  One with only its end there
    gets its mirror appended once, one with only its start there gets it
    prepended once (completing, say, the closed sphere cap).  Joints are
    recorded as CriticalRadius events, and the dense evaluator stays exact.
    Cylinders are their own reflection and come back unchanged with a note.
    Raises NoCriticalPointError when neither end qualifies, and ValueError,
    before building anything, past 2^22 samples.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if float(np.max(np.abs(np.sin(traj.states[:, 2])))) < 1e-9:
        return replace(traj, notes=traj.notes + ["cylinder: self-mirrored"])
    at_start, at_end = np.abs(np.sin(traj.states[[0, -1], 2])) <= 1e-9
    if not (at_start or at_end):
        raise NoCriticalPointError(
            "trajectory neither starts nor ends at a critical radius")
    halves = 2**copies if at_start and at_end else 2
    _check_tiling(traj, halves)
    return _tiled(traj, halves, at_end)


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
            "rejected_steps": traj.stats.rejected,
            "rel_tol": traj.rel_tol,
        },
    }


def trajectory_to_csv(traj, stream):
    """Write sample rows (s, x, t, sigma) to a text stream, 17 significant
    digits so the values survive a round trip."""
    writer = csv.writer(stream)
    writer.writerow(["s", "x", "t", "sigma"])
    rows = np.column_stack((traj.s, traj.states)).tolist()
    writer.writerows(["%.17g" % v for v in row] for row in rows)
