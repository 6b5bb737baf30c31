"""Self-check suites behind the verify subcommand.

Each suite runs a battery of numeric checks against independent references
(closed forms, conserved quantities, cross-validated pipelines) and reports
them in a machine-readable structure.  Checks trap exceptions, so a broken
build fails its checks instead of crashing the runner.

On a host with two or more usable CPUs, and while the caller runs no other
Python thread, "all" forks one worker for the curvature, classification and
measures suites while the caller runs energy and closed-forms; every suite
draws from its own generator, so the report is the serial one, byte for byte.
"""

import logging
import math
import os
import pickle
import threading

import numpy as np

from .classify import Family, classify, cylinder_energy
from .closed_forms import (
    _HalfPeriod,
    canonical_trajectory,
    catenoid_generating_curve,
    catenoid_slab_halfwidth,
    halfperiod_heights,
    nodoid_halfperiod,
    singular_quadrature,
    sphere_generating_curve,
    sphere_profile,
    unduloid_halfperiod,
)
from .curvature import (
    GraphSurface,
    RotationalSurface,
    chmy_identity_residual,
    graph_jet,
    mean_curvature_general,
    mean_curvature_graph_h1,
    mean_curvature_rotational,
)
from .errors import DivergentIntegralError, NoAdmissibleRadiusError
from .measures import (
    RotationalProfile,
    cylinder_band,
    enclosed_volume,
    first_variation_check,
    perimeter,
    sphere_surface,
)
from .profile_ode import (
    EventKind,
    ProfileState,
    SolveConfig,
    integrate,
)

__all__ = ["SUITES", "energy_grid_drift", "run_suite",
           "slab_halfwidth_quadrature"]

SUITES = ("energy", "closed-forms", "curvature", "classification",
          "measures", "all")


def _check(checks, name, error, tolerance, detail=""):
    checks.append({
        "name": name,
        "passed": bool(error <= tolerance),
        "error": float(error),
        "tolerance": float(tolerance),
        "detail": detail,
    })


def _failed(checks, name, exc):
    checks.append({
        "name": name,
        "passed": False,
        "error": None,
        "tolerance": None,
        "detail": f"{type(exc).__name__}: {exc}",
    })


def _guard(checks, name):
    """Decorator running one named check body, trapping exceptions."""

    def wrap(body):
        try:
            body()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            _failed(checks, name, exc)

    return wrap


# ---------------------------------------------------------------------------
# suites


# the energy grid's solves: arclength 50, the eighth critical radius or the
# axis, whichever comes first; a drift tolerance of 1e-9 makes the solver
# retry at tighter tolerances before it returns
_GRID_CONFIG = SolveConfig(
    max_arclength=50.0,
    drift_tolerance=1e-9,
    stop_event=(EventKind.CRITICAL_RADIUS, 8),
)


# the grid's H whose solves the closed-forms suite compares closed-form
# traces against
_TRACE_H = 1.0


def _energy_grid(n):
    """(h, e, trajectory) over the 5x5 grid of H and E / E_cyl for one n."""
    for h in (0.25, 0.5, 1.0, 1.5, 2.0):
        ecyl = cylinder_energy(n, h)
        for frac in (-0.5, 0.0, 0.4, 0.8, 1.0):
            e = frac * ecyl
            yield h, e, integrate(n, h, e=e, config=_GRID_CONFIG)


def _relative_drift(e, traj):
    return traj.energy_drift() / (1.0 + abs(e))


def energy_grid_drift(n):
    """Worst relative energy drift, energy_drift() / (1 + |E|), over the
    5x5 grid of H and E / E_cyl for one n."""
    return max(_relative_drift(e, traj) for _, e, traj in _energy_grid(n))


def slab_halfwidth_quadrature(n, e):
    """Reference for the closed-form slab half-width: the x-integral
    t_inf = int_{x1}^{inf} E x / sqrt(x^{4n-2} - E^2) dx by singular_quadrature,
    with u^2 = x - x1 up to 2 x1 and x = 1/u beyond.  Relative tolerance
    only, so small E keeps every digit."""
    p = 2 * n - 1
    x1 = e ** (1.0 / p)

    def near(x, da, db):
        # x^p - E = (x - x1) sum_i x^i x1^{p-1-i}
        s = math.fsum(x ** i * x1 ** (p - 1 - i) for i in range(p))
        return e * x / math.sqrt(da * s * (x ** p + e))

    def tail(u, da, db):
        # x = 1/u turns the tail into int_0^{1/cut} E u^{2n-4} (...) du
        return e * u ** (2 * n - 4) / math.sqrt(1.0 - e * e * u ** (2 * p))

    cut = 2.0 * x1
    return (singular_quadrature(near, x1, cut, "lower", abs_tol=0.0).value
            + singular_quadrature(tail, 0.0, 1.0 / cut, "none",
                                  abs_tol=0.0).value)


def _sphere_shape_error(h, traj):
    """Worst |t - sphere_profile| over the samples of a sphere traced from
    its equator; raises when the trace never reaches the axis."""
    if not any(ev.kind is EventKind.AXIS_CONTACT for ev in traj.events):
        raise AssertionError(
            f"H = {h}: no AxisContact within arclength {traj.s_end:.6g}")
    return max(abs(t - sphere_profile(h, min(x, 1.0 / h)))
               for x, t in traj.states[:, :2])


def _suite_energy(checks, rng, solved):
    for n in (1, 2, 3):
        spheres = []
        name = f"energy-drift-n{n}"

        @_guard(checks, name)
        def body(n=n, name=name):
            worst = 0.0
            for h, e, traj in _energy_grid(n):
                worst = max(worst, _relative_drift(e, traj))
                if h == _TRACE_H:
                    solved[n, e] = traj.events
                if e == 0.0:
                    spheres.append((h, traj))
            _check(checks, name, worst, 1e-9,
                   "max relative drift over the (H, E) grid")

        name = f"sphere-shape-n{n}"

        @_guard(checks, name)
        def body(name=name):
            if len(spheres) < 5:
                raise AssertionError("the energy grid did not complete")
            worst = max(_sphere_shape_error(h, traj) for h, traj in spheres)
            _check(checks, name, worst, 1e-6,
                   "E = 0 grid spheres reach the axis on sphere_profile")


def _events_up_to(events, kind, count):
    """events through the count-th of kind (all when there are fewer)."""
    seen = 0
    for i, ev in enumerate(events):
        seen += ev.kind is kind
        if seen == count:
            return events[:i + 1]
    return events


def _suite_closed_forms(checks, rng, solved):
    @_guard(checks, "closed-form-trace-vs-ode")
    def body():
        # the sphere, unduloid and nodoid of the energy grid at H = 1, whose
        # solves' events a run of the energy suite leaves in solved
        worst = 0.0
        for n in (1, 2, 3):
            ecyl = cylinder_energy(n, _TRACE_H)
            for e in (0.0, 0.4 * ecyl, -0.5 * ecyl):
                stop = ((EventKind.AXIS_CONTACT, 1) if e == 0.0
                        else (EventKind.CRITICAL_RADIUS, 4))
                events = solved.get((n, e))
                if events is None:
                    events = integrate(n, _TRACE_H, e=e,
                                       config=_GRID_CONFIG).events
                reference = _events_up_to(events, *stop)
                trace = canonical_trajectory(
                    classify(n, _TRACE_H, e),
                    SolveConfig(max_arclength=50.0, stop_event=stop))
                if [ev.kind for ev in trace.events] != [
                        ev.kind for ev in reference]:
                    raise AssertionError(
                        f"n = {n}, E = {e!r}: event kinds differ from the ODE")
                for ev, ref in zip(trace.events, reference):
                    worst = max(worst, abs(ev.s - ref.s), *(
                        abs(a - b) for a, b in zip(ev.state, ref.state)))
        _check(checks, "closed-form-trace-vs-ode", worst, 1e-6,
               "event arclengths and states, n = 1, 2, 3 at H = 1")

    @_guard(checks, "sphere-ode-vs-closed-form")
    def body():
        worst = 0.0
        for h in (0.5, 1.0, 2.0):
            cfg = SolveConfig(stop_event=(EventKind.AXIS_CONTACT, 1),
                              axis_epsilon=1e-3)
            traj = integrate(1, h, initial=ProfileState(1.0 / h, 0.0, 0.0),
                             config=cfg)
            for x, t in traj.states[:, :2]:
                worst = max(worst, abs(t - sphere_profile(h, min(x, 1.0 / h))))
        _check(checks, "sphere-ode-vs-closed-form", worst, 1e-6)

    @_guard(checks, "catenoid-ode-vs-closed-form")
    def body():
        worst = 0.0
        for e in (0.5, 1.0, 2.0):
            cfg = SolveConfig(max_arclength=12.0)
            traj = integrate(1, 0.0, e=e, config=cfg)
            for x, t in traj.states[:, :2]:
                worst = max(worst, abs(x - catenoid_generating_curve(e, t)[0]))
        _check(checks, "catenoid-ode-vs-closed-form", worst, 1e-6)

    @_guard(checks, "nodoid-halfperiod-vs-ode")
    def body():
        worst = 0.0
        for n, h, e in ((1, 1.0, -0.1), (2, 0.75, -0.3), (1, 2.0, -0.05)):
            reg = nodoid_halfperiod(n, h, e).value
            cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1))
            traj = integrate(n, h, e=e, config=cfg)
            worst = max(worst, abs(reg - abs(traj.states[-1, 1])))
        _check(checks, "nodoid-halfperiod-vs-ode", worst, 1e-6)

    @_guard(checks, "n1-halfperiod-formula-vs-series")
    def body():
        # the exact n = 1 heights against the theta series they replaced,
        # each difference over the series' error estimate plus 4 ulps of t2
        worst = 0.0
        for h, frac in ((1.0, -0.4), (2.0, -0.2), (0.5, -12.0),
                        (1.0, 0.4), (0.5, 0.9), (3.0, 0.01)):
            e = frac * cylinder_energy(1, h)
            cls = classify(1, h, e)
            half = _HalfPeriod(cls)
            t0, t2 = half.heights()
            t1 = t0 if cls.family is Family.UNDULOID else t2 - t0
            exact = halfperiod_heights(1, h, e)
            gate = half.error + 4.0 * math.ulp(t2)
            worst = max(worst, *(abs(r.value - t) / gate
                                 for r, t in zip(exact, (t1, t2))))
        _check(checks, "n1-halfperiod-formula-vs-series", worst, 1.0,
               "t1, t2 = t(phi0), pi/(4 H^2) against the Chebyshev series, "
               "in units of its error estimate plus 4 ulps of t2")

    @_guard(checks, "unduloid-halfperiod-vs-ode")
    def body():
        worst = 0.0
        for n, h, frac in ((1, 1.0, 0.4), (2, 0.75, 0.7)):
            e = frac * cylinder_energy(n, h)
            reg = unduloid_halfperiod(n, h, e).value
            cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1))
            traj = integrate(n, h, e=e, config=cfg)
            worst = max(worst, abs(reg - traj.states[-1, 1]))
        _check(checks, "unduloid-halfperiod-vs-ode", worst, 1e-6)

    @_guard(checks, "slab-halfwidth-vs-quadrature")
    def body():
        worst = max(abs(catenoid_slab_halfwidth(n, 1.0)
                        / slab_halfwidth_quadrature(n, 1.0) - 1.0)
                    for n in (2, 3))
        _check(checks, "slab-halfwidth-vs-quadrature", worst, 1e-12,
               "Beta closed form against the x-integral, n = 2, 3, E = 1")
        try:
            catenoid_slab_halfwidth(1, 1.0)
            _failed(checks, "slab-divergence-detected",
                    AssertionError("n=1 slab halfwidth did not diverge"))
        except DivergentIntegralError:
            _check(checks, "slab-divergence-detected", 0.0, 1.0,
                   "n=1 integral correctly reported divergent")


def _suite_curvature(checks, rng, solved):
    @_guard(checks, "graph-vs-general")
    def body():
        worst = 0.0
        used = 0
        while used < 100:
            c = rng.uniform(-1.0, 1.0, size=6)
            x, y = rng.uniform(-2.0, 2.0, size=2)
            grad = (2 * c[0] * x + c[1] * y + c[3],
                    c[1] * x + 2 * c[2] * y + c[4])
            hess = ((2 * c[0], c[1]), (c[1], 2 * c[2]))
            a, b = grad[0] - y, grad[1] + x
            if a * a + b * b < 1e-2:
                continue
            used += 1
            hg = mean_curvature_graph_h1(grad, hess, (x, y))
            hj = mean_curvature_general(graph_jet((x, y), grad, hess))
            worst = max(worst, abs(hg - hj))
        _check(checks, "graph-vs-general", worst, 1e-8,
               "100 random radial-graph jets")

    @_guard(checks, "rotational-vs-general")
    def body():
        worst = 0.0
        for psi in (0.4, 1.0, 2.2):
            x, t, dx, dt, ddx, ddt = sphere_generating_curve(1.0, psi)
            hr = mean_curvature_rotational(x, dx, ddx, dt, ddt, 2)
            surf = RotationalSurface(
                2, lambda s: sphere_generating_curve(1.0, s))
            hj = mean_curvature_general(surf.jet([psi, 0.1, 0.0, -0.2]))
            worst = max(worst, abs(hr - hj))
        _check(checks, "rotational-vs-general", worst, 1e-8)

    @_guard(checks, "characteristic-identity-residual")
    def body():
        worst = chmy_identity_residual(
            RotationalSurface(1, lambda s: (1.0, s, 0.0, 1.0, 0.0, 0.0)),
            [0.3, 0.2])
        plane = GraphSurface(lambda x, y: 0.0,
                             lambda x, y: (0.0, 0.0),
                             lambda x, y: ((0.0, 0.0), (0.0, 0.0)))
        worst = max(worst, chmy_identity_residual(plane, [1.0, 0.5]))

        def catenoid(s):
            r = math.sqrt(s * s + 1.0)
            return (r, s, s / r, 1.0, 1.0 / r ** 3, 0.0)

        surf = RotationalSurface(1, catenoid)
        for s in (-2.0, 0.0, 1.5):
            worst = max(worst, chmy_identity_residual(surf, [s, 0.1]))
        _check(checks, "characteristic-identity-residual", worst, 1e-6,
               "cylinder, plane, catenoid")


def _expected_family(n, h, e):
    """Independent sign table; None encodes no admissible radius."""
    if h < 0.0 or (h == 0.0 and e < 0.0):
        h, e = -h, -e
    if h == 0.0:
        return Family.HYPERPLANE if e == 0.0 else Family.CATENOID
    if e == 0.0:
        return Family.SPHERE
    if e < 0.0:
        return Family.NODOID
    ecyl = cylinder_energy(n, h)
    if abs(e - ecyl) <= 1e-12 * max(1.0, ecyl):
        return Family.CYLINDER
    return Family.UNDULOID if e < ecyl else None


def _suite_classification(checks, rng, solved):
    @_guard(checks, "classification-truth-table")
    def body():
        mismatches = 0
        bad_radii = 0
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            pick = rng.uniform()
            h = 0.0 if pick < 0.15 else float(rng.uniform(-2.0, 2.0))
            pick = rng.uniform()
            if pick < 0.15:
                e = 0.0
            elif pick < 0.3 and h != 0.0:
                e = cylinder_energy(n, abs(h)) * (1.0 if h > 0.0 else -1.0)
            else:
                e = float(rng.uniform(-1.5, 1.5))
            expected = _expected_family(n, h, e)
            try:
                got = classify(n, h, e)
            except NoAdmissibleRadiusError:
                got = None
            if (got.family if got else None) is not expected:
                mismatches += 1
                continue
            if got and got.family in (Family.UNDULOID, Family.NODOID):
                if not got.x1 <= got.x0 <= got.x2:
                    bad_radii += 1
        _check(checks, "classification-truth-table", float(mismatches), 0.0,
               "1000 sampled (n, H, E) against the sign table")
        _check(checks, "classification-radii-ordered", float(bad_radii), 0.0)

    @_guard(checks, "classification-sign-normalization")
    def body():
        flips = 0
        for _ in range(200):
            n = int(rng.integers(1, 4))
            h = float(rng.uniform(-2.0, 2.0))
            e = float(rng.uniform(-1.5, 1.5))
            try:
                a = classify(n, h, e).family
            except NoAdmissibleRadiusError:
                a = None
            try:
                b = classify(n, -h, -e).family
            except NoAdmissibleRadiusError:
                b = None
            if a is not b:
                flips += 1
        _check(checks, "classification-sign-normalization", float(flips), 0.0,
               "(H, E) -> (-H, -E) leaves the family unchanged")


def _suite_measures(checks, rng, solved):
    @_guard(checks, "cylinder-measures-exact")
    def body():
        band = cylinder_band(1, 1.0, 1.0)
        err = abs(perimeter(band) - 2.0 * math.pi)
        err = max(err, abs(enclosed_volume(band) - math.pi))
        _check(checks, "cylinder-measures-exact", err, 1e-12)

    @_guard(checks, "sphere-volume-frozen")
    def body():
        err = abs(enclosed_volume(sphere_surface(1, 1.0))
                  - 3.0 * math.pi ** 2 / 8.0)
        _check(checks, "sphere-volume-frozen", err, 1e-10)

    @_guard(checks, "sphere-perimeter-two-pipeline")
    def body():
        cfg = SolveConfig(stop_event=(EventKind.AXIS_CONTACT, 1))
        traj = integrate(1, 1.0, initial=ProfileState(1.0, 0.0, 0.0),
                         config=cfg)
        p_ode = perimeter(RotationalProfile.from_trajectory(traj))
        half = RotationalProfile.from_curve(
            1, lambda s: sphere_generating_curve(1.0, s),
            (math.pi / 2.0, math.pi), closed=False, arclength=False,
            panels=128)
        _check(checks, "sphere-perimeter-two-pipeline",
               abs(p_ode - perimeter(half)), 1e-5)

    @_guard(checks, "first-variation-cylinder")
    def body():
        numeric, formula = first_variation_check(
            cylinder_band(1, 1.0, 1.0), lambda s: 1.0, du=lambda s: 0.0)
        _check(checks, "first-variation-cylinder",
               abs(numeric - formula) / abs(formula), 1e-3)

    @_guard(checks, "first-variation-sphere")
    def body():
        numeric, formula = first_variation_check(
            sphere_surface(1, 1.0), lambda s: math.sin(s) ** 4,
            du=lambda s: 4.0 * math.sin(s) ** 3 * math.cos(s))
        _check(checks, "first-variation-sphere",
               abs(numeric - formula) / abs(formula), 1e-3)


_SUITE_BODIES = {
    "energy": _suite_energy,
    "closed-forms": _suite_closed_forms,
    "curvature": _suite_curvature,
    "classification": _suite_classification,
    "measures": _suite_measures,
}


# the suites a forked worker runs for "all"; closed-forms reads the solves
# that energy leaves, so those two stay in the caller's process
_FORKED = ("curvature", "classification", "measures")

_LOG = logging.getLogger("heisenberg_cmc")


def _usable_cpus():
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _run_suites(names, seed):
    """{suite: its checks} for names, run one after another."""
    found = {}
    solved = {}  # (n, e) -> events of the energy grid's solve at H = _TRACE_H
    for suite_name in names:
        found[suite_name] = []
        _SUITE_BODIES[suite_name](found[suite_name],
                                  np.random.default_rng(seed), solved)
    return found


def _fell_back(exc):
    _LOG.info("verify worker delivered nothing (%s: %s); running %s in this "
              "process", type(exc).__name__, exc, ", ".join(_FORKED))


def _reap(pid):
    """The worker's exit code; None if it was reaped elsewhere (a caller
    that ignores SIGCHLD)."""
    try:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except ChildProcessError:
        return None


def _run_forked(names, seed):
    """_run_suites(names, seed), with the _FORKED suites in a forked worker
    that pickles its checks down a pipe; if the worker delivers nothing,
    they run here after the others.  The read has no timeout: a worker that
    hangs blocks the caller, which is why run_suite forks only while this
    is the process's one Python thread (no lock held by another thread can
    be copied into the worker)."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read)
        os.close(write)
        _fell_back(exc)
        return _run_suites(names, seed)
    if pid == 0:  # the worker never returns into the caller
        code = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(_run_suites(_FORKED, seed), pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        with os.fdopen(read, "rb") as pipe:
            found = _run_suites([s for s in names if s not in _FORKED], seed)
            payload = pipe.read()
    finally:
        code = _reap(pid)
    try:
        if code != 0:
            raise ChildProcessError(
                "reaped elsewhere" if code is None else f"exit code {code}")
        found.update(pickle.loads(payload))
    except Exception as exc:  # noqa: BLE001 - any failure means run them here
        _fell_back(exc)
        found.update(_run_suites(_FORKED, seed))
    return found


def run_suite(name, seed=0):
    """Run one verification suite (or "all"); returns the report dict.  The
    seed is an integer in [0, 2^64): NumPy's generators refuse a negative
    seed, and the JSON writer holds no larger integer."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"the seed must be in [0, 2^64), got {seed}")
    names = [s for s in SUITES if s != "all"] if name == "all" else [name]
    forks = (name == "all" and _usable_cpus() >= 2
             and threading.active_count() == 1)
    run = _run_forked if forks else _run_suites
    found = run(names, seed)
    checks = [c for suite_name in names for c in found[suite_name]]
    return {
        "suite": name,
        "seed": int(seed),
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
