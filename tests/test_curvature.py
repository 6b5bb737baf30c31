"""Second fundamental form assembly and the three mean curvature routes."""

import math

import numpy as np
import pytest

from heisenberg_cmc.core import FrameVector, Point, frame_to_euclidean
from heisenberg_cmc.curvature import (
    GraphSurface,
    ImmersionJet,
    RotationalSurface,
    chmy_identity_residual,
    covariant_tangent_derivative,
    graph_jet,
    mean_curvature_general,
    mean_curvature_graph_h1,
    mean_curvature_rotational,
    rotational_jet,
    second_fundamental_form,
)
from heisenberg_cmc.errors import (
    AxisPointError,
    DegenerateTangentsError,
    DimensionMismatchError,
    SingularPointError,
)

from oracles import second_fundamental_form_fd


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def closed_ii_table(n, x, dx, dt, ddx, ddt):
    """The rotational second fundamental form in closed form (chart basis)."""
    q = math.sqrt(dx * dx + dt * dt + x * x * dx * dx)
    m = 2 * n
    tab = np.zeros((m, m))
    tab[0, 0] = (dx * ddt - ddx * dt - 2.0 * x * dx * dx * dt) / q
    tab[0, 1] = tab[1, 0] = (x * dt * dt - x**3 * dx * dx) / q
    tab[1, 1] = x * dt * (1.0 + 2.0 * x * x) / q
    for i in range(2, m):
        tab[i, i] = x * dt / q
    return tab


# ---------------------------------------------------------------------------
# frozen tables


def test_cylinder_jet_frozen_table():
    jet = rotational_jet(1, [1.0, 0.0], x=1.0, t=0.0, dx=0.0, dt=1.0, ddx=0.0, ddt=0.0)
    ii = second_fundamental_form(jet)
    assert np.allclose(ii, [[0.0, 1.0], [1.0, 3.0]], atol=1e-14)
    assert mean_curvature_general(jet) == pytest.approx(0.5, abs=1e-12)
    assert mean_curvature_rotational(1.0, 0.0, 0.0, 1.0, 0.0, 1) == pytest.approx(
        0.5, abs=1e-15
    )


def test_cylinder_vertical_entries_n2():
    # unit cylinder in H^2: the orbit directions u_3, u_4 contribute x t'/Q = 1
    # on the diagonal, and H = 3/4
    jet = rotational_jet(
        2, [1.0, 0.0, 0.0, 0.0], x=1.0, t=0.0, dx=0.0, dt=1.0, ddx=0.0, ddt=0.0
    )
    ii = second_fundamental_form(jet)
    expect = np.zeros((4, 4))
    expect[0, 1] = expect[1, 0] = 1.0
    expect[1, 1] = 3.0
    expect[2, 2] = expect[3, 3] = 1.0
    assert np.allclose(ii, expect, atol=1e-14)
    assert mean_curvature_general(jet) == pytest.approx(0.75, abs=1e-12)
    assert mean_curvature_rotational(1.0, 0.0, 0.0, 1.0, 0.0, 2) == pytest.approx(
        0.75, abs=1e-15
    )


def test_plane_graph_frozen_table():
    jet = graph_jet((1.0, 0.0), (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(
        second_fundamental_form(jet), [[0.0, s], [s, 0.0]], atol=1e-14
    )
    assert jet.normal.as_array() == pytest.approx([0.0, s, -s])
    assert mean_curvature_general(jet) == pytest.approx(0.0, abs=1e-14)


def test_plane_origin_is_singular():
    jet = graph_jet((0.0, 0.0), (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(SingularPointError):
        mean_curvature_general(jet)
    with pytest.raises(SingularPointError):
        mean_curvature_graph_h1((0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)), (0.0, 0.0))


# ---------------------------------------------------------------------------
# independent finite-difference oracle


def test_cylinder_against_fd_oracle():
    jet = rotational_jet(1, [1.0, 0.0], x=1.0, t=0.0, dx=0.0, dt=1.0, ddx=0.0, ddt=0.0)

    def phi(p):
        s, v = p
        return np.array([math.cos(v), math.sin(v), s])

    ref = frame_to_euclidean(jet.normal, jet.point)
    ii_fd, n_fd = second_fundamental_form_fd(phi, [0.0, 0.0], 1, reference_normal=ref)
    assert np.allclose(ii_fd, second_fundamental_form(jet), atol=1e-6)
    assert np.allclose(n_fd, ref, atol=1e-9)


def test_generic_rotational_jet_against_fd_oracle():
    n = 2
    om = unit([0.3, -0.5, 0.7, 0.4])
    x, t, dx, dt, ddx, ddt = 1.3, 0.2, 0.4, 0.9, -0.25, 0.6
    jet = rotational_jet(n, om, x, t, dx, dt, ddx, ddt)
    surf = RotationalSurface(
        n,
        lambda s: (
            x + dx * s + 0.5 * ddx * s * s,
            t + dt * s + 0.5 * ddt * s * s,
            dx + ddx * s,
            dt + ddt * s,
            ddx,
            ddt,
        ),
        base_omega=om,
    )

    def phi(p):
        s, v = p[0], p[1:]
        xx = x + dx * s + 0.5 * ddx * s * s
        tt = t + dt * s + 0.5 * ddt * s * s
        o = surf.omega_at(v)
        return np.concatenate([xx * o, [tt]])

    ref = frame_to_euclidean(jet.normal, jet.point)
    ii_fd, n_fd = second_fundamental_form_fd(
        phi, np.zeros(2 * n), n, reference_normal=ref
    )
    ii = second_fundamental_form(jet)
    assert np.allclose(ii, ii_fd, atol=5e-7)
    assert np.allclose(n_fd, ref, atol=1e-9)
    # nonzero orbit diagonal at a generic point, matching x t'/Q
    q = math.sqrt(dx * dx + dt * dt + x * x * dx * dx)
    assert ii[2, 2] == pytest.approx(x * dt / q, abs=1e-13)
    assert ii_fd[2, 2] == pytest.approx(x * dt / q, abs=5e-7)


def test_graph_jet_against_fd_oracle():
    def f(x, y):
        return x * x + y * y

    jet = graph_jet((1.0, 0.0), (2.0, 0.0), ((2.0, 0.0), (0.0, 2.0)), f=f(1.0, 0.0))

    def phi(p):
        return np.array([p[0], p[1], f(p[0], p[1])])

    ref = frame_to_euclidean(jet.normal, jet.point)
    ii_fd, _ = second_fundamental_form_fd(phi, [1.0, 0.0], 1, reference_normal=ref)
    assert np.allclose(ii_fd, second_fundamental_form(jet), atol=1e-6)


# ---------------------------------------------------------------------------
# closed rotational table and cross-route agreement


def test_assembly_matches_closed_table():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for _ in range(10):
            om = unit(rng.normal(size=2 * n))
            x = float(rng.uniform(0.2, 2.0))
            dx, dt = rng.uniform(-1.0, 1.0, size=2)
            ddx, ddt = rng.uniform(-1.0, 1.0, size=2)
            if dx * dx + dt * dt < 1e-2:
                dt += 0.5
            jet = rotational_jet(n, om, x, 0.0, dx, dt, ddx, ddt)
            ii = second_fundamental_form(jet)
            tab = closed_ii_table(n, x, dx, dt, ddx, ddt)
            assert np.allclose(ii, tab, atol=1e-12 * (1.0 + np.abs(tab).max()))
            assert np.allclose(ii, ii.T, atol=1e-12)


def test_general_vs_rotational_formula():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for _ in range(10):
            om = unit(rng.normal(size=2 * n))
            x = float(rng.uniform(0.3, 2.0))
            dx, dt = rng.uniform(-1.0, 1.0, size=2)
            ddx, ddt = rng.uniform(-1.0, 1.0, size=2)
            if x * x * dx * dx + dt * dt < 1e-2:
                dt += 0.7
            jet = rotational_jet(n, om, x, 0.3, dx, dt, ddx, ddt)
            hg = mean_curvature_general(jet)
            hr = mean_curvature_rotational(x, dx, ddx, dt, ddt, n)
            assert hg == pytest.approx(hr, rel=1e-9, abs=1e-11)


def test_graph_vs_general():
    rng = np.random.default_rng(3)
    for _ in range(50):
        c = rng.uniform(-1.0, 1.0, size=6)
        x, y = rng.uniform(-2.0, 2.0, size=2)
        grad = (
            2 * c[0] * x + c[1] * y + c[3],
            c[1] * x + 2 * c[2] * y + c[4],
        )
        hess = ((2 * c[0], c[1]), (c[1], 2 * c[2]))
        a, b = grad[0] - y, grad[1] + x
        if a * a + b * b < 1e-2:
            continue
        hg = mean_curvature_graph_h1(grad, hess, (x, y))
        jet = graph_jet((x, y), grad, hess)
        assert hg == pytest.approx(mean_curvature_general(jet), rel=1e-10, abs=1e-12)


def test_sphere_profile_constant_curvature():
    # the closed sphere profile has the same constant H for every n
    for n in (1, 2):
        for hval in (0.5, 1.0, 2.0):
            om = np.zeros(2 * n)
            om[0] = 1.0
            for psi in (0.3, math.pi / 6, 1.2, 2.0, 2.8):
                x = math.sin(psi) / hval
                dx = math.cos(psi) / hval
                ddx = -math.sin(psi) / hval
                dt = math.sin(psi) ** 2 / hval**2
                ddt = math.sin(2 * psi) / hval**2
                hr = mean_curvature_rotational(x, dx, ddx, dt, ddt, n)
                assert hr == pytest.approx(hval, rel=1e-11)
                t = (psi - math.pi / 2 - math.sin(2 * psi) / 2) / (2 * hval**2)
                jet = rotational_jet(n, om, x, t, dx, dt, ddx, ddt)
                assert mean_curvature_general(jet) == pytest.approx(hval, rel=1e-9)


def test_catenoid_profile_is_minimal():
    # x(t) = sqrt(t^2 + E^4)/E satisfies x'' = 1/x^3, the zero-curvature law
    for e in (0.5, 1.0, 2.0):
        for t in (-3.0, -0.4, 0.0, 1.7):
            x = math.sqrt(t * t + e**4) / e
            dx = t / (e * math.sqrt(t * t + e**4))
            ddx = e**3 / (t * t + e**4) ** 1.5
            assert ddx == pytest.approx(1.0 / x**3, rel=1e-12)
            h = mean_curvature_rotational(x, dx, ddx, 1.0, 0.0, 1)
            assert h == pytest.approx(0.0, abs=1e-13)


def test_orientation_flip():
    om = unit([0.6, 0.8])
    jet = rotational_jet(1, om, 1.2, 0.1, 0.3, 0.8, -0.2, 0.4)
    flipped = ImmersionJet(jet.point, jet.tangents, jet.dtangents, -1.0 * jet.normal)
    assert np.allclose(
        second_fundamental_form(flipped), -second_fundamental_form(jet), atol=1e-14
    )
    assert mean_curvature_general(flipped) == pytest.approx(
        -mean_curvature_general(jet), rel=1e-12
    )


def _recharted(jet, a):
    """The jet in the chart u = A u': tangents T A and second derivatives
    dtangents'[i][j] = sum_lk A_li A_kj dtangents[l][k]."""
    m = len(jet.tangents)
    tm = jet.tangent_matrix() @ a
    raw = np.array([[v.as_array() for v in row] for row in jet.dtangents])
    raw = np.einsum("li,kj,lkc->ijc", a, a, raw)
    return ImmersionJet(
        jet.point,
        [FrameVector.from_array(tm[:, j]) for j in range(m)],
        [[FrameVector.from_array(raw[i, j]) for j in range(m)] for i in range(m)],
        jet.normal,
    )


def test_mean_curvature_is_chart_invariant():
    # H is a trace over the horizontal tangent space, so no chart may change
    # it; II transforms as the bilinear form A^T II A
    rng = np.random.default_rng(5)
    jets = []
    for n in (1, 2, 3):
        for _ in range(8):
            om = unit(rng.normal(size=2 * n))
            x = float(rng.uniform(0.3, 2.0))
            dx, dt, ddx, ddt = rng.uniform(-1.0, 1.0, size=4)
            if x * x * dx * dx + dt * dt < 1e-2:
                dt += 0.7
            jets.append(rotational_jet(n, om, x, 0.2, dx, dt, ddx, ddt))
    while len(jets) < 32:
        c = rng.uniform(-1.0, 1.0, size=6)
        x, y = rng.uniform(-2.0, 2.0, size=2)
        grad = (2 * c[0] * x + c[1] * y + c[3], c[1] * x + 2 * c[2] * y + c[4])
        hess = ((2 * c[0], c[1]), (c[1], 2 * c[2]))
        if (grad[0] - y) ** 2 + (grad[1] + x) ** 2 >= 1e-2:
            jets.append(graph_jet((x, y), grad, hess))
    for jet in jets:
        m = len(jet.tangents)
        a = rng.normal(size=(m, m))
        if np.linalg.cond(a) > 1e3:
            a += 3.0 * np.eye(m)
        recharted = _recharted(jet, a)
        h = mean_curvature_general(jet)
        assert mean_curvature_general(recharted) == pytest.approx(
            h, rel=1e-10, abs=1e-10)
        ii = a.T @ second_fundamental_form(jet) @ a
        assert np.allclose(second_fundamental_form(recharted), ii,
                           rtol=1e-10, atol=1e-10 * np.abs(ii).max())


def test_normal_off_the_tangents_is_rejected():
    # tangents X and Y span the horizontal plane at the origin of H^1, whose
    # normal is T; (0.6, 0, 0.8) is not normal to them
    zero = FrameVector.zero(1)
    jet = ImmersionJet(
        Point.origin(1),
        (FrameVector.unit_x(1), FrameVector.unit_y(1)),
        ((zero, zero), (zero, zero)),
        FrameVector((0.6,), (0.0,), 0.8),
    )
    with pytest.raises(ValueError, match="not orthogonal"):
        mean_curvature_general(jet)


def test_covariant_tangent_derivative_symmetry():
    # torsion-free connection + honest chart jets: D_{e_i} e_j = D_{e_j} e_i
    jet = rotational_jet(2, unit([1.0, 2.0, -1.0, 0.5]), 0.9, 0.0, 0.5, 0.5, 0.1, -0.3)
    m = len(jet.tangents)
    for i in range(m):
        for j in range(m):
            d_ij = covariant_tangent_derivative(jet, i, j)
            d_ji = covariant_tangent_derivative(jet, j, i)
            assert np.allclose(d_ij.as_array(), d_ji.as_array(), atol=1e-13)


# ---------------------------------------------------------------------------
# identity D_Z Z = 2 H nu_H along the characteristic direction (H^1)


def test_identity_residual_cylinder():
    surf = RotationalSurface(1, lambda s: (1.0, s, 0.0, 1.0, 0.0, 0.0))
    assert chmy_identity_residual(surf, [0.3, 0.2]) < 1e-8


def test_identity_residual_plane():
    surf = GraphSurface(
        lambda x, y: 0.0,
        lambda x, y: (0.0, 0.0),
        lambda x, y: ((0.0, 0.0), (0.0, 0.0)),
    )
    assert chmy_identity_residual(surf, [1.0, 0.5]) < 1e-8


def test_identity_residual_catenoid():
    e = 1.0

    def prof(s):
        r = math.sqrt(s * s + e**4)
        return (r / e, s, s / (e * r), 1.0, e**3 / r**3, 0.0)

    surf = RotationalSurface(1, prof)
    for s in (-2.0, 0.0, 1.5):
        assert chmy_identity_residual(surf, [s, 0.1]) < 1e-6


# ---------------------------------------------------------------------------
# validation and error paths


def test_rotational_formula_errors():
    with pytest.raises(AxisPointError):
        mean_curvature_rotational(0.0, 1.0, 0.0, 1.0, 0.0, 1)
    with pytest.raises(AxisPointError):
        mean_curvature_rotational(-1.0, 1.0, 0.0, 1.0, 0.0, 1)
    with pytest.raises(ValueError):
        mean_curvature_rotational(1.0, 0.0, 0.0, 0.0, 0.0, 1)


def test_rotational_jet_validation():
    with pytest.raises(DimensionMismatchError):
        rotational_jet(2, [1.0, 0.0], 1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        rotational_jet(1, [2.0, 0.0], 1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(AxisPointError):
        rotational_jet(1, [1.0, 0.0], 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def test_degenerate_tangents_detected():
    good = rotational_jet(1, [1.0, 0.0], 1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    bad = ImmersionJet(
        good.point,
        (good.tangents[0], good.tangents[0]),
        good.dtangents,
        good.normal,
    )
    with pytest.raises(DegenerateTangentsError):
        mean_curvature_general(bad)


def test_jet_grid_validation():
    good = rotational_jet(1, [1.0, 0.0], 1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ImmersionJet(good.point, good.tangents, (good.dtangents[0],), good.normal)
    zero2 = FrameVector.zero(2)
    with pytest.raises(DimensionMismatchError):
        ImmersionJet(good.point, (good.tangents[0], zero2), good.dtangents, good.normal)
