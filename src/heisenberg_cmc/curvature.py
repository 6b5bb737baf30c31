"""Second fundamental forms and mean curvature of hypersurfaces in H^n.

An ImmersionJet is the 2-jet data of an immersed hypersurface at one point,
everything written in the left-invariant frame: the chart tangent vectors,
the raw directional derivatives of their frame coefficient functions, and a
unit normal.  The covariant derivative D_{e_i} e_j is assembled from those
raw derivatives through the connection, so the second fundamental form picks
up the frame rotation terms automatically.

Mean curvature is computed three independent ways that the tests compare
against each other: the frame assembly (mean_curvature_general), the graph
formula for n = 1 (mean_curvature_graph_h1), and the closed rotational
formula (mean_curvature_rotational).  The frame assembly is the paper's
definition, the sum of II over an orthonormal basis of the horizontal tangent
space divided by 2n |N_H|.  That sum is the trace tr(II P), where
P = sum_i Z_i Z_i^T in chart coordinates has a closed form in the Gram matrix
of the tangents, so no basis is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    SINGULAR_TOL,
    FrameVector,
    Point,
    connection,
    dimension_index,
    g_operator,
    horizontal_part,
    horizontal_unit_normal,
)
from .errors import (
    AxisPointError,
    DegenerateTangentsError,
    DimensionMismatchError,
    SingularPointError,
)

__all__ = [
    "ImmersionJet",
    "covariant_tangent_derivative",
    "second_fundamental_form",
    "mean_curvature_general",
    "mean_curvature_graph_h1",
    "mean_curvature_rotational",
    "chmy_identity_residual",
    "graph_jet",
    "rotational_jet",
    "GraphSurface",
    "RotationalSurface",
]

_DEGENERATE_TOL = 1e-10
_IDENTITY_STEP = 1e-5


@dataclass(frozen=True)
class ImmersionJet:
    """2-jet of an immersed hypersurface at a point.

    tangents: chart tangent vectors d/du_i in frame coefficients.
    dtangents: dtangents[i][j] holds the raw directional derivatives, along
        d/du_i, of the frame coefficient functions of d/du_j.  These are NOT
        covariant derivatives; the connection terms are added on assembly.
    normal: unit normal in frame coefficients.
    """

    point: Point
    tangents: tuple
    dtangents: tuple
    normal: FrameVector

    def __post_init__(self):
        object.__setattr__(self, "tangents", tuple(self.tangents))
        object.__setattr__(self, "dtangents", tuple(tuple(r) for r in self.dtangents))
        m = len(self.tangents)
        if m == 0:
            raise ValueError("jet needs at least one tangent vector")
        if len(self.dtangents) != m or any(len(r) != m for r in self.dtangents):
            raise ValueError("dtangents must be an m-by-m grid of frame vectors")
        n = self.point.n
        for v in (*self.tangents, self.normal, *(v for r in self.dtangents for v in r)):
            if v.n != n:
                raise DimensionMismatchError("jet mixes different Heisenberg indices")

    @property
    def n(self):
        return self.point.n

    def tangent_matrix(self):
        """Columns are the tangent vectors as arrays, shape (2n+1, m)."""
        return np.column_stack([v.as_array() for v in self.tangents])


def covariant_tangent_derivative(jet, i, j):
    """D_{e_i} e_j in frame coefficients."""
    return connection(jet.tangents[i], jet.tangents[j], jet.dtangents[i][j])


def second_fundamental_form(jet):
    """Matrix of <N, D_{e_i} e_j> in the chart basis of the jet."""
    m = len(jet.tangents)
    out = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            out[i, j] = jet.normal.dot(covariant_tangent_derivative(jet, i, j))
    return out


def mean_curvature_general(jet):
    """Mean curvature from the frame assembly.

    H = tr(II P) / (2n |N_H|), the trace of the second fundamental form over
    the horizontal tangent space.  II is second_fundamental_form / |N| and
    |N_H| is taken from the unit normal.  With T the tangent matrix, G = T^T T
    and a the vertical row of T,

        P = G^-1 - G^-1 a a^T G^-1 / (a^T G^-1 a)

    is sum_i Z_i Z_i^T over any orthonormal basis Z_i of the horizontal chart
    directions {c : a.c = 0}, so no basis is built.  Raises SingularPointError
    where |N_H| vanishes or the tangent hyperplane is horizontal.
    """
    n = jet.n
    m = len(jet.tangents)
    if m != 2 * n:
        raise ValueError(f"hypersurface in H^{n} needs 2n = {2 * n} tangents, got {m}")
    tm = jet.tangent_matrix()
    r = np.linalg.qr(tm, mode="r")
    diag = np.abs(np.diag(r))
    if diag.min() <= _DEGENERATE_TOL * max(diag.max(), 1.0):
        raise DegenerateTangentsError("tangent vectors are numerically dependent")

    nrm = jet.normal.norm()
    if nrm == 0.0:
        raise ValueError("jet normal is zero")
    unit_normal = jet.normal * (1.0 / nrm)
    if np.any(
        np.abs(unit_normal.as_array() @ tm)
        > _DEGENERATE_TOL * np.linalg.norm(tm, axis=0)
    ):
        raise ValueError("jet normal is not orthogonal to the tangents")
    horizontal_unit_normal(unit_normal)  # SingularPointError where |N_H| vanishes
    nh = horizontal_part(unit_normal).norm()

    rinv = np.linalg.inv(r)
    ginv = rinv @ rinv.T  # G^-1, with G = R^T R
    ga = ginv @ tm[-1]
    aga = float(tm[-1] @ ga)
    if aga <= 0.0:
        raise SingularPointError("tangent hyperplane is horizontal")
    proj = ginv - np.outer(ga, ga) / aga
    ii = second_fundamental_form(jet) / nrm
    return float(np.sum(ii * proj)) / (2.0 * n * nh)


def mean_curvature_graph_h1(grad, hess, at):
    """Mean curvature of the vertical graph t = f(x, y) in H^1.

    grad = (f_x, f_y) and hess = ((f_xx, f_xy), (f_xy, f_yy)) at the point
    (x, y).  With a = f_x - y and b = f_y + x (the horizontal normal
    direction up to scale),

        2 H = -(b^2 f_xx - 2 a b f_xy + a^2 f_yy) / (a^2 + b^2)^{3/2},

    the sign matching the downward unit normal (a, b, -1)/sqrt(1+a^2+b^2).
    Raises SingularPointError where a = b = 0.
    """
    x, y = float(at[0]), float(at[1])
    fx, fy = float(grad[0]), float(grad[1])
    fxx = float(hess[0][0])
    fyy = float(hess[1][1])
    fxy = 0.5 * (float(hess[0][1]) + float(hess[1][0]))
    a = fx - y
    b = fy + x
    d = a * a + b * b
    if d <= SINGULAR_TOL * SINGULAR_TOL * (1.0 + d):
        raise SingularPointError("graph point is singular: f_x = y and f_y = -x")
    num = b * b * fxx - 2.0 * a * b * fxy + a * a * fyy
    return -0.5 * num / d**1.5


def mean_curvature_rotational(x, dx, ddx, dt, ddt, n):
    """Mean curvature of a rotationally invariant hypersurface in H^n.

    The generating curve s -> (x(s), t(s)) need not be parameterized by
    arclength; pass the raw derivatives.  The sign convention pairs with the
    inward-pointing normal of rotational_jet, so an upward cylinder traversal
    (dt > 0) gives H > 0.

        2n H = (x^3 (x' t'' - x'' t') + (2n-1) t'^3 + 2(n-1) x^2 x'^2 t')
               / (x (x^2 x'^2 + t'^2)^{3/2})
    """
    n = dimension_index(n)
    x, dx, ddx, dt, ddt = (float(v) for v in (x, dx, ddx, dt, ddt))
    if x <= 0.0:
        raise AxisPointError(f"rotational formula needs x > 0, got x = {x}")
    speed2 = dx * dx + dt * dt
    if speed2 == 0.0:
        raise ValueError("generating curve has zero velocity")
    horiz2 = x * x * dx * dx + dt * dt
    if horiz2 <= SINGULAR_TOL * SINGULAR_TOL * (speed2 + horiz2):
        raise SingularPointError("horizontal normal vanishes at this point")
    num = (
        x**3 * (dx * ddt - ddx * dt)
        + (2 * n - 1) * dt**3
        + 2 * (n - 1) * x * x * dx * dx * dt
    )
    return num / (2.0 * n * x * horiz2**1.5)


# ---------------------------------------------------------------------------
# jet constructors


def graph_jet(at, grad, hess, f=None):
    """Jet of the vertical graph t = f(x, y) in H^1 at (x, y).

    Only the 2-jet of f enters; pass f itself just to place the point at the
    right height (the frame geometry is translation invariant, so curvature
    results do not depend on it).
    """
    x, y = float(at[0]), float(at[1])
    fx, fy = float(grad[0]), float(grad[1])
    fxx = float(hess[0][0])
    fyy = float(hess[1][1])
    fxy = 0.5 * (float(hess[0][1]) + float(hess[1][0]))
    t = float(f(x, y)) if callable(f) else (float(f) if f is not None else 0.0)
    a = fx - y
    b = fy + x
    point = Point((x,), (y,), t)
    tangents = (
        FrameVector((1.0,), (0.0,), a),
        FrameVector((0.0,), (1.0,), b),
    )
    dt = (
        (
            FrameVector((0.0,), (0.0,), fxx),
            FrameVector((0.0,), (0.0,), fxy + 1.0),
        ),
        (
            FrameVector((0.0,), (0.0,), fxy - 1.0),
            FrameVector((0.0,), (0.0,), fyy),
        ),
    )
    q = math.sqrt(1.0 + a * a + b * b)
    normal = FrameVector((a / q,), (b / q,), -1.0 / q)
    return ImmersionJet(point, tangents, dt, normal)


def _sphere_frame(omega):
    """Orthonormal frame [J omega, u_3, ..., u_{2n}] of T_omega S^{2n-1}."""
    omega = np.asarray(omega, dtype=float)
    n = omega.size // 2
    j_omega = np.concatenate([-omega[n:], omega[:n]])
    q = np.linalg.qr(np.column_stack([omega, j_omega, np.eye(2 * n)]))[0]
    return [j_omega, *q[:, 2:].T]


def rotational_jet(n, omega, x, t, dx, dt, ddx, ddt):
    """Jet of the rotational immersion (x(s) omega, t(s)) at profile point s.

    omega is a unit vector of R^{2n}; the chart directions are arclength s
    followed by geodesic normal coordinates on the orbit sphere along the
    frame [J omega, u_3, ..., u_{2n}].  The normal is the inward unit normal
    (horizontal part opposite omega for an upward traversal).
    """
    n = dimension_index(n)
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (2 * n,):
        raise DimensionMismatchError(f"omega must have length 2n = {2 * n}")
    onorm = float(np.linalg.norm(omega))
    if abs(onorm - 1.0) > 1e-9:
        raise ValueError("omega must be a unit vector")
    omega = omega / onorm
    x, t, dx, dt, ddx, ddt = (float(v) for v in (x, t, dx, dt, ddx, ddt))
    if x <= 0.0:
        raise AxisPointError(f"rotational jet needs x > 0, got x = {x}")

    sphere = _sphere_frame(omega)  # [J omega, u_3, ..., u_{2n}]
    j_omega = sphere[0]

    def fv(horiz, c):
        return FrameVector(tuple(horiz[:n]), tuple(horiz[n:]), c)

    point = Point(tuple(x * omega[:n]), tuple(x * omega[n:]), t)
    tangents = [fv(dx * omega, dt), fv(x * j_omega, x * x)]
    tangents += [fv(x * u, 0.0) for u in sphere[1:]]

    m = 2 * n
    zero = FrameVector.zero(n)
    raw = [[zero] * m for _ in range(m)]
    raw[0][0] = fv(ddx * omega, ddt)
    raw[0][1] = fv(dx * j_omega, 2.0 * x * dx)
    raw[1][0] = fv(dx * j_omega, 0.0)
    for jj in range(2, m):
        u = sphere[jj - 1]
        raw[0][jj] = fv(dx * u, 0.0)
        raw[jj][0] = fv(dx * u, 0.0)

    def jmap(v):
        return np.concatenate([-v[n:], v[:n]])

    for i in range(1, m):
        ui = sphere[i - 1]
        jui = jmap(ui)
        for jj in range(1, m):
            uj = sphere[jj - 1]
            c = x * x * float(uj @ jui)
            horiz = -x * omega if i == jj else np.zeros(2 * n)
            raw[i][jj] = fv(horiz, c)

    q = math.sqrt(dx * dx + dt * dt + x * x * dx * dx)
    if q == 0.0:
        raise ValueError("generating curve has zero velocity")
    n_h = np.concatenate(
        [x * dx * omega[n:] - dt * omega[:n], -x * dx * omega[:n] - dt * omega[n:]]
    )
    normal = fv(n_h / q, dx / q)
    return ImmersionJet(point, tuple(tangents), tuple(tuple(r) for r in raw), normal)


# ---------------------------------------------------------------------------
# surfaces with a jet() chart, used by the identity check


class GraphSurface:
    """Vertical graph t = f(x, y) in H^1 described by callables."""

    def __init__(self, f, grad, hess):
        self.f = f
        self.grad = grad
        self.hess = hess
        self.n = 1

    def jet(self, params):
        x, y = float(params[0]), float(params[1])
        return graph_jet((x, y), self.grad(x, y), self.hess(x, y), f=self.f(x, y))


class RotationalSurface:
    """Rotationally invariant hypersurface from a profile callable.

    profile(s) returns (x, t, dx, dt, ddx, ddt).  Chart parameters are
    (s, v_1, ..., v_{2n-1}) with v the geodesic normal coordinates on the
    orbit sphere around base_omega.  Each jet() call recenters the sphere
    chart at omega(v), which leaves every chart-free quantity (normal, mean
    curvature, second fundamental form of the recentered chart) unchanged.
    """

    def __init__(self, n, profile, base_omega=None):
        self.n = dimension_index(n)
        self.profile = profile
        if base_omega is None:
            base_omega = np.zeros(2 * self.n)
            base_omega[0] = 1.0
        self.base_omega = np.asarray(base_omega, dtype=float)
        self.base_omega /= np.linalg.norm(self.base_omega)
        self._frame = _sphere_frame(self.base_omega)

    def omega_at(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (2 * self.n - 1,):
            raise DimensionMismatchError(
                f"expected {2 * self.n - 1} sphere coordinates"
            )
        vec = sum(vi * ui for vi, ui in zip(v, self._frame))
        r = float(np.linalg.norm(v))
        if r < 1e-300:
            return self.base_omega.copy()
        return math.cos(r) * self.base_omega + math.sin(r) * (vec / r)

    def jet(self, params):
        params = np.asarray(params, dtype=float)
        s, v = float(params[0]), params[1:]
        x, t, dx, dt, ddx, ddt = self.profile(s)
        return rotational_jet(self.n, self.omega_at(v), x, t, dx, dt, ddx, ddt)


def chmy_identity_residual(surface, params):
    """Residual |D_Z Z - 2 H nu_H| of the characteristic direction identity.

    Z = G(nu_H) spans the horizontal tangent line of a surface in H^1.  The
    derivative is taken along the surface curve through the point with
    velocity Z; because Z is horizontal, the connection corrections vanish
    and the raw coefficient derivative is the covariant one.
    """
    if surface.n != 1:
        raise ValueError("the identity check is for surfaces in H^1")
    params = np.asarray(params, dtype=float)
    jet = surface.jet(params)
    nrm = jet.normal.norm()
    unit_normal = jet.normal * (1.0 / nrm)
    nu = horizontal_unit_normal(unit_normal)
    z = g_operator(nu)
    h = mean_curvature_general(jet)

    tm = jet.tangent_matrix()
    du, *_ = np.linalg.lstsq(tm, z.as_array(), rcond=None)

    def z_coeffs(eps):
        j = surface.jet(params + eps * du)
        un = j.normal * (1.0 / j.normal.norm())
        return g_operator(horizontal_unit_normal(un)).as_array()

    eps = _IDENTITY_STEP * (1.0 + float(np.linalg.norm(params)))
    dz = (z_coeffs(eps) - z_coeffs(-eps)) / (2.0 * eps)
    target = 2.0 * h * nu.as_array()
    return float(np.linalg.norm(dz - target))
