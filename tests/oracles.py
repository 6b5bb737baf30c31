"""Independent numerical oracles used by the test suite.

Everything here works purely in Euclidean coordinates (x_1..x_n, y_1..y_n, t)
from the metric tensor

    g = sum dx_k^2 + sum dy_k^2 + theta (x) theta,
    theta = dt - sum y_k dx_k + sum x_k dy_k,

computing Christoffel symbols by finite differences.  No code is shared with
the package's frame-based connection, so agreement is a real check rather
than a tautology.
"""

from fractions import Fraction

import numpy as np


def band_edge_within(n, h, e, x, rel, outer=False):
    """A root of the band polynomial whose root x approximates lies within
    rel of x, decided in exact rationals: f2 = x^{2n-1} (1 - h x) - e for
    the outer edge and for both edges when e > 0, f1 = x^{2n-1} (1 + h x) + e
    for the inner edge when e < 0 (h > 0)."""
    p, h, e = 2 * n - 1, Fraction(h), Fraction(e)

    def f(x):
        if outer or e > 0:
            return x ** p * (1 - h * x) - e
        return x ** p * (1 + h * x) + e

    lo, hi = Fraction(x) * (1 - rel), Fraction(x) * (1 + rel)
    return f(Fraction(x)) == 0 or (f(lo) < 0) != (f(hi) < 0)


def metric_matrix(coords, n):
    """Metric tensor at a point, in d/dx, d/dy, d/dt coordinates."""
    coords = np.asarray(coords, dtype=float)
    x, y = coords[:n], coords[n : 2 * n]
    theta = np.concatenate([-y, x, [1.0]])
    g = np.zeros((2 * n + 1, 2 * n + 1))
    g[: 2 * n, : 2 * n] = np.eye(2 * n)
    return g + np.outer(theta, theta)


def christoffels_fd(coords, n, h=1e-2):
    """Gamma[k, i, j] by central differences of the metric.

    The metric entries are quadratic polynomials in the coordinates, so the
    central difference is exact up to roundoff regardless of h.
    """
    coords = np.asarray(coords, dtype=float)
    dim = 2 * n + 1
    dg = np.zeros((dim, dim, dim))
    for l in range(dim):
        e = np.zeros(dim)
        e[l] = h
        dg[l] = (metric_matrix(coords + e, n) - metric_matrix(coords - e, n)) / (
            2.0 * h
        )
    ginv = np.linalg.inv(metric_matrix(coords, n))
    # gamma[k, i, j] = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    gamma = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            v = dg[i][j, :] + dg[j][i, :] - dg[:, i, j]
            gamma[:, i, j] = 0.5 * (ginv @ v)
    return gamma


def covariant_derivative_field_fd(direction, v_field, coords, n, h=1e-6):
    """(D_u V) at coords, Euclidean components.

    direction: Euclidean components of u at the point.
    v_field: callable coords -> Euclidean components of V.
    """
    coords = np.asarray(coords, dtype=float)
    direction = np.asarray(direction, dtype=float)
    dv = (v_field(coords + h * direction) - v_field(coords - h * direction)) / (
        2.0 * h
    )
    gamma = christoffels_fd(coords, n)
    corr = np.einsum("kij,i,j->k", gamma, direction, v_field(coords))
    return dv + corr


def second_fundamental_form_fd(phi, params, n, reference_normal=None, h=1e-4):
    """Second fundamental form of an immersion by finite differences.

    phi: callable params -> Euclidean coordinates in R^{2n+1}.
    params: array of chart parameters (length 2n).
    reference_normal: Euclidean components used only to fix the sign of the
        computed unit normal; None keeps whatever sign the solver produced.

    Returns (II matrix, unit normal Euclidean components).
    """
    params = np.asarray(params, dtype=float)
    m = params.size
    dim = 2 * n + 1
    p = phi(params)
    g = metric_matrix(p, n)
    gamma = christoffels_fd(p, n)

    tangents = np.zeros((m, dim))
    hd = 1e-6
    for i in range(m):
        e = np.zeros(m)
        e[i] = hd
        tangents[i] = (phi(params + e) - phi(params - e)) / (2.0 * hd)

    second = np.zeros((m, m, dim))
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        second[i, i] = (phi(params + ei) - 2.0 * p + phi(params - ei)) / (h * h)
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h
            mixed = (
                phi(params + ei + ej)
                - phi(params + ei - ej)
                - phi(params - ei + ej)
                + phi(params - ei - ej)
            ) / (4.0 * h * h)
            second[i, j] = mixed
            second[j, i] = mixed

    # unit normal: g-orthogonal complement of the tangent space
    a = tangents @ g
    _, _, vt = np.linalg.svd(a)
    normal = vt[-1]
    normal = normal / np.sqrt(normal @ g @ normal)
    if reference_normal is not None and normal @ g @ np.asarray(
        reference_normal, dtype=float
    ) < 0.0:
        normal = -normal

    ii = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            cov = second[i, j] + np.einsum(
                "klm,l,m->k", gamma, tangents[i], tangents[j]
            )
            ii[i, j] = normal @ g @ cov
    return ii, normal
