"""Acceptance gate: ten numbered criteria, one test and one verdict line each.

Every test measures its quantities, prints a single line

    [criterion NN] name: PASS (detail; elapsed)

and fails through that same line, so ``pytest tests/test_acceptance.py -v -s``
doubles as the acceptance report.  The final criterion also enforces the
whole-file runtime budget, summed from the earlier tests, which is why the
tests must run in definition order.
"""

import math
import time

import numpy as np
from scipy.optimize import brentq

from heisenberg_cmc.classify import Family, classify, cylinder_energy
from heisenberg_cmc.closed_forms import (
    catenoid_slab_halfwidth,
    nodoid_halfperiod,
    singular_quadrature,
    sphere_profile,
)
from heisenberg_cmc.curvature import (
    GraphSurface,
    RotationalSurface,
    chmy_identity_residual,
    graph_jet,
    mean_curvature_general,
    mean_curvature_graph_h1,
    mean_curvature_rotational,
)
from heisenberg_cmc.errors import DivergentIntegralError, NoAdmissibleRadiusError
from heisenberg_cmc.measures import (
    RotationalProfile,
    cylinder_band,
    first_variation_check,
    sphere_surface,
)
from heisenberg_cmc.profile_ode import (
    EventKind,
    ProfileState,
    SolveConfig,
    integrate,
    reflect_continue,
)
from heisenberg_cmc.verify import energy_grid_drift, slab_halfwidth_quadrature

_DURATIONS = []


def _report(num, name, ok, detail, elapsed):
    _DURATIONS.append(elapsed)
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {name}: {verdict} ({detail}; {elapsed:.2f} s)"
    print(line)
    assert ok, line


def test_criterion_01_energy_conservation():
    start = time.perf_counter()
    # 3 x 25 (n, H, E) cases through the body behind `verify energy`
    worst = max(energy_grid_drift(n) for n in (1, 2, 3))
    elapsed = time.perf_counter() - start
    _report(1, "energy conservation over the (n, H, E) grid",
            worst <= 1e-9 and elapsed < 10.0,
            f"worst relative drift {worst:.3e} <= 1e-09", elapsed)


def test_criterion_02_sphere_reproduction():
    start = time.perf_counter()
    worst = 0.0
    worst_sin = 1.0
    for n in (1, 2):
        for h in (0.5, 1.0, 2.0):
            cfg = SolveConfig(stop_event=(EventKind.AXIS_CONTACT, 1),
                              axis_epsilon=1e-3)
            traj = integrate(n, h, initial=ProfileState(1.0 / h, 0.0, 0.0),
                             config=cfg)
            for x, t in traj.states[:, :2]:
                worst = max(worst, abs(t - sphere_profile(h, min(x, 1.0 / h))))
            assert traj.states[-1, 0] <= 1e-3 + 1e-9
            worst_sin = min(worst_sin, abs(math.sin(traj.states[-1, 2])))
    elapsed = time.perf_counter() - start
    _report(2, "sphere profiles from the equator down to the axis",
            worst <= 1e-6 and worst_sin >= 1.0 - 1e-3 and elapsed < 5.0,
            f"sup error {worst:.3e} <= 1e-06, contact |sin sigma| {worst_sin:.6f}",
            elapsed)


def test_criterion_03_catenoid_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for e in (0.5, 1.0, 2.0):
        traj = reflect_continue(
            integrate(1, 0.0, e=e, config=SolveConfig(max_arclength=26.0)))
        ts = traj.states[:, 1]
        assert ts.min() <= -10.0 and ts.max() >= 10.0
        for x, t in traj.states[np.abs(ts) <= 10.0][:, :2]:
            worst = max(worst, abs(x - math.sqrt(t * t + e ** 4) / e))
    elapsed = time.perf_counter() - start
    _report(3, "minimal profiles against x(t) = sqrt(t^2 + E^4) / E",
            worst <= 1e-6 and elapsed < 5.0,
            f"sup error {worst:.3e} <= 1e-06 over t in [-10, 10]", elapsed)


def test_criterion_04_cylinder_exactness():
    start = time.perf_counter()
    worst = 0.0
    families_ok = True
    for n in (1, 2, 3, 4):
        for r in (0.3, 0.7, 1.0, 1.9, 2.6):
            got = mean_curvature_rotational(r, 0.0, 0.0, 1.0, 0.0, n)
            h = (2 * n - 1) / (2 * n * r)
            worst = max(worst, abs(got - h))
            cls = classify(n, h, cylinder_energy(n, h))
            families_ok = families_ok and cls.family is Family.CYLINDER
    elapsed = time.perf_counter() - start
    _report(4, "cylinder curvature (2n-1)/(2nr) and exact classification",
            worst <= 1e-12 and families_ok,
            f"20 pairs, worst curvature error {worst:.3e} <= 1e-12, "
            f"family Cylinder at E_cyl: {families_ok}", elapsed)


def _powsum(p, q, k):
    """(p^k - q^k) / (p - q) written as a sum, stable when p is near q."""
    return math.fsum(p ** i * q ** (k - 1 - i) for i in range(k))


def test_criterion_05_nodoid_halfperiod():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst_ode = 0.0
    worst_pair = 0.0
    min_t2 = math.inf
    for _ in range(20):
        n = int(rng.integers(1, 4))
        h = float(rng.uniform(0.3, 2.0))
        e = -float(rng.uniform(0.02, 0.9))  # EH < 0
        t2 = nodoid_halfperiod(n, h, e)
        min_t2 = min(min_t2, t2.value)
        cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1))
        traj = integrate(n, h, e=e, config=cfg)
        worst_ode = max(worst_ode, abs(t2.value - abs(traj.states[-1, 1])))

        cls = classify(n, h, e)
        x1, x2, m = cls.x1, cls.x2, 2 * n

        def radicand(x, da, db):
            # x^{4n-2} - w^2 with the simple zeros at the band edges divided
            # out through the exact endpoint offsets
            left = _powsum(x, x1, m - 1) + h * _powsum(x, x1, m)
            right = h * _powsum(x, x2, m) - _powsum(x, x2, m - 1)
            return da * db * left * right

        def raw(x, da, db):
            w = e + h * x ** (2 * n)
            return w * x / math.sqrt(radicand(x, da, db))

        def regularized(x, da, db):
            w = e + h * x ** (2 * n)
            num = 2.0 * (n - 1) * x ** (1 - 2 * n) * w * w + x ** (2 * n - 1)
            return num / (2 * n * h * math.sqrt(radicand(x, da, db)))

        a = singular_quadrature(raw, x1, x2, "both")
        b = singular_quadrature(regularized, x1, x2, "both")
        worst_pair = max(worst_pair, abs(a.value - b.value))
    elapsed = time.perf_counter() - start
    _report(5, "nodoid half-period quadrature against the profile flow",
            worst_ode <= 1e-6 and worst_pair <= 1e-8 and min_t2 > 0.0,
            f"20 draws, ode gap {worst_ode:.3e} <= 1e-06, raw/regularized gap "
            f"{worst_pair:.3e} <= 1e-08, min t2 {min_t2:.3f} > 0", elapsed)


def test_criterion_06_unduloid_structure():
    start = time.perf_counter()
    monotone = True
    in_band = True
    one_flip = True
    worst_loc = 0.0
    cases = ((1, 1.0, 0.4), (2, 0.75, 0.7), (3, 1.5, 0.25),
             (1, 0.5, 0.9), (2, 2.0, 0.55))
    for n, h, frac in cases:
        e = frac * cylinder_energy(n, h)
        cls = classify(n, h, e)
        cfg = SolveConfig(stop_event=(EventKind.CRITICAL_RADIUS, 1))
        traj = integrate(n, h, e=e, config=cfg)
        s_hi = traj.s[-1]

        sweep = np.array([tuple(traj.state_at(s))
                          for s in np.linspace(0.0, s_hi, 2001)])
        monotone = monotone and bool(np.all(np.diff(sweep[:, 1]) > 0.0)
                                     and np.all(np.diff(sweep[:, 0]) > 0.0))
        radii = np.concatenate([sweep[:, 0], traj.states[:, 0]])
        in_band = in_band and (radii.min() >= cls.x1 - 1e-6
                               and radii.max() <= cls.x2 + 1e-6)

        hs = 1e-3 * s_hi

        def second(s, traj=traj, hs=hs):
            # d^2 x / dt^2 through central differences of the dense output
            pm, p0, pp = (traj.state_at(s - hs), traj.state_at(s),
                          traj.state_at(s + hs))
            xs = (pp.x - pm.x) / (2.0 * hs)
            ts = (pp.t - pm.t) / (2.0 * hs)
            xss = (pp.x - 2.0 * p0.x + pm.x) / hs ** 2
            tss = (pp.t - 2.0 * p0.t + pm.t) / hs ** 2
            return (xss * ts - xs * tss) / ts ** 3

        grid = np.linspace(hs, s_hi - hs, 801)
        vals = np.array([second(s) for s in grid])
        signs = np.sign(vals)
        signs = signs[signs != 0.0]
        one_flip = one_flip and int(np.count_nonzero(np.diff(signs))) == 1
        i = int(np.nonzero(vals[:-1] * vals[1:] < 0.0)[0][0])
        s_star = brentq(second, grid[i], grid[i + 1], xtol=1e-12)
        worst_loc = max(worst_loc, abs(traj.state_at(s_star).x - cls.x0))
    elapsed = time.perf_counter() - start
    _report(6, "unduloid half-periods: growth, band, single inflection",
            monotone and in_band and one_flip and worst_loc <= 1e-5,
            f"x(t) strictly increasing: {monotone}, radii in band: {in_band}, "
            f"one d2x/dt2 sign change: {one_flip}, inflection off x0 by "
            f"{worst_loc:.3e} <= 1e-05", elapsed)


def test_criterion_07_slab_behavior():
    start = time.perf_counter()
    a = catenoid_slab_halfwidth(2, 1.0)
    gap = abs(a / slab_halfwidth_quadrature(2, 1.0) - 1.0)
    finite = math.isfinite(a) and a > 0.0

    diverged = False
    try:
        catenoid_slab_halfwidth(1, 1.0)
    except DivergentIntegralError:
        diverged = True

    # for n = 1, E = 1 the height integrand is x / sqrt(x^2 - 1), so the
    # partial integral up to a cutoff X is sqrt(X^2 - 1): linear growth
    def height(cut):
        return singular_quadrature(
            lambda x, da, db: x / math.sqrt(da * (x + 1.0)),
            1.0, cut, "lower").value

    t10, t20, t40 = height(10.0), height(20.0), height(40.0)
    ratio = (t40 - t20) / (t20 - t10)
    linear = abs(ratio - 2.0) <= 0.02 and abs(t40 - math.sqrt(1599.0)) <= 1e-9
    elapsed = time.perf_counter() - start
    _report(7, "slab half-width finite for n = 2 and divergent for n = 1",
            gap <= 1e-12 and finite and diverged and linear,
            f"closed form vs quadrature, relative gap {gap:.3e} <= 1e-12, "
            f"half-width {a:.6f}, "
            f"n = 1 divergence raised: {diverged}, cutoff growth ratio "
            f"{ratio:.4f}", elapsed)


def test_criterion_08_curvature_cross_validation():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_graph = 0.0
    used = 0
    while used < 100:
        c = rng.uniform(-1.0, 1.0, size=6)
        x, y = rng.uniform(-2.0, 2.0, size=2)
        grad = (2 * c[0] * x + c[1] * y + c[3], c[1] * x + 2 * c[2] * y + c[4])
        hess = ((2 * c[0], c[1]), (c[1], 2 * c[2]))
        a, b = grad[0] - y, grad[1] + x
        if a * a + b * b < 1e-2:
            continue  # too close to a characteristic point
        used += 1
        hg = mean_curvature_graph_h1(grad, hess, (x, y))
        hj = mean_curvature_general(graph_jet((x, y), grad, hess))
        worst_graph = max(worst_graph, abs(hg - hj))

    worst_id = chmy_identity_residual(
        RotationalSurface(1, lambda s: (1.0, s, 0.0, 1.0, 0.0, 0.0)),
        [0.3, 0.2])
    plane = GraphSurface(lambda x, y: 0.0,
                         lambda x, y: (0.0, 0.0),
                         lambda x, y: ((0.0, 0.0), (0.0, 0.0)))
    worst_id = max(worst_id, chmy_identity_residual(plane, [1.0, 0.5]))

    def catenoid(s):
        r = math.sqrt(s * s + 1.0)
        return (r, s, s / r, 1.0, 1.0 / r ** 3, 0.0)

    surf = RotationalSurface(1, catenoid)
    for s in (-2.0, 0.0, 1.5):
        worst_id = max(worst_id, chmy_identity_residual(surf, [s, 0.1]))
    elapsed = time.perf_counter() - start
    _report(8, "graph curvature against the general pipeline",
            worst_graph <= 1e-8 and worst_id <= 1e-6,
            f"100 random graph points, gap {worst_graph:.3e} <= 1e-08, "
            f"identity residual {worst_id:.3e} <= 1e-06", elapsed)


def test_criterion_09_first_variation():
    start = time.perf_counter()
    worst = 0.0
    # central-difference step is the first_variation_check default, 1e-4
    numeric, formula = first_variation_check(
        cylinder_band(1, 1.0, 1.0), lambda s: 1.0, du=lambda s: 0.0)
    worst = max(worst, abs(numeric - formula) / max(abs(formula), 1.0))
    numeric, formula = first_variation_check(
        sphere_surface(1, 1.0), lambda s: math.sin(s) ** 4,
        du=lambda s: 4.0 * math.sin(s) ** 3 * math.cos(s))
    worst = max(worst, abs(numeric - formula) / max(abs(formula), 1.0))
    flat = RotationalProfile.from_curve(
        1, lambda s: (s, 0.0, 1.0, 0.0, 0.0, 0.0), (0.5, 2.0),
        closed=False, arclength=True)
    numeric, formula = first_variation_check(
        flat, lambda s: (s - 0.5) ** 2 * (2.0 - s) ** 2,
        du=lambda s: 2.0 * (s - 0.5) * (2.0 - s) ** 2
                   - 2.0 * (s - 0.5) ** 2 * (2.0 - s))
    worst = max(worst, abs(numeric - formula) / max(abs(formula), 1.0))
    elapsed = time.perf_counter() - start
    _report(9, "perimeter first variation against -2n * integral of H u",
            worst <= 1e-3,
            f"cylinder, sphere, flat plane; worst relative gap {worst:.3e} "
            f"<= 1e-03", elapsed)


def _expected_family(n, h, e):
    """Sign table; None encodes an empty admissible band."""
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


def _family_or_none(n, h, e):
    try:
        return classify(n, h, e).family
    except NoAdmissibleRadiusError:
        return None


def test_criterion_10_classification_table():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    mismatches = 0
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
        if _family_or_none(n, h, e) is not expected:
            mismatches += 1
        elif _family_or_none(n, -h, -e) is not expected:
            mismatches += 1
    elapsed = time.perf_counter() - start
    total = sum(_DURATIONS) + elapsed
    _report(10, "classification truth table with sign normalization",
            mismatches == 0 and total < 60.0,
            f"{mismatches} mismatches in 1000 draws (mirror included), "
            f"acceptance file total {total:.1f} s < 60 s", elapsed)
