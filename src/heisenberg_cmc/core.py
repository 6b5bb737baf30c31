"""Heisenberg group primitives.

The group H^n is R^{2n+1} with coordinates (x_1..x_n, y_1..y_n, t) and the
product

    (x, y, t) * (x', y', t') = (x + x', y + y', t + t' + sum_k (y_k x'_k - x_k y'_k)),

which is Im<z, z'> in complex notation z = x + iy.  Left translations are
isometries of the metric g in which the left-invariant frame

    X_k = d/dx_k + y_k d/dt,   Y_k = d/dy_k - x_k d/dt,   T = d/dt

is orthonormal.  FrameVector always stores coefficients with respect to this
frame, never Euclidean components; euclidean_to_frame and frame_to_euclidean
convert explicitly.  The frame bracket is [X_k, Y_k] = -2T, so the horizontal
distribution span{X_k, Y_k} is non-integrable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SingularPointError

__all__ = [
    "Point",
    "FrameVector",
    "dimension_index",
    "group_product",
    "group_inverse",
    "connection",
    "g_operator",
    "horizontal_part",
    "horizontal_unit_normal",
    "euclidean_to_frame",
    "frame_to_euclidean",
]

SINGULAR_TOL = 1e-12


def dimension_index(n):
    """Validate the Heisenberg index n (an integer >= 1) and return it as int.

    Integral floats are accepted; anything fractional is rejected because the
    exponents 2n-1, 4n-2, 6n-2 used throughout are tied to the group dimension.
    """
    if isinstance(n, bool):
        raise ValueError("n must be an integer >= 1")
    if isinstance(n, float):
        if not n.is_integer():
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        n = int(n)
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    return n


def _as_floats(values, label):
    try:
        out = tuple(float(v) for v in values)
    except TypeError:
        raise TypeError(f"{label} must be a sequence of reals") from None
    if not out:
        raise ValueError(f"{label} must have length n >= 1")
    return out


@dataclass(frozen=True)
class Point:
    """A point (x_1..x_n, y_1..y_n, t) of H^n."""

    x: tuple
    y: tuple
    t: float

    def __post_init__(self):
        object.__setattr__(self, "x", _as_floats(self.x, "x"))
        object.__setattr__(self, "y", _as_floats(self.y, "y"))
        object.__setattr__(self, "t", float(self.t))
        if len(self.x) != len(self.y):
            raise DimensionMismatchError(
                f"x has length {len(self.x)} but y has length {len(self.y)}"
            )

    @property
    def n(self):
        return len(self.x)

    @classmethod
    def origin(cls, n):
        n = dimension_index(n)
        return cls((0.0,) * n, (0.0,) * n, 0.0)

    def coords(self):
        """Euclidean coordinate vector (x_1..x_n, y_1..y_n, t), shape (2n+1,)."""
        return np.array(self.x + self.y + (self.t,))


@dataclass(frozen=True)
class FrameVector:
    """A tangent vector written in the left-invariant orthonormal frame.

    ``a`` are the X_k coefficients, ``b`` the Y_k coefficients, ``c`` the T
    coefficient.  The metric makes the frame orthonormal, so inner products
    and norms are the Euclidean ones on (a, b, c).
    """

    a: tuple
    b: tuple
    c: float

    def __post_init__(self):
        object.__setattr__(self, "a", _as_floats(self.a, "a"))
        object.__setattr__(self, "b", _as_floats(self.b, "b"))
        object.__setattr__(self, "c", float(self.c))
        if len(self.a) != len(self.b):
            raise DimensionMismatchError(
                f"a has length {len(self.a)} but b has length {len(self.b)}"
            )

    @property
    def n(self):
        return len(self.a)

    @classmethod
    def zero(cls, n):
        n = dimension_index(n)
        return cls((0.0,) * n, (0.0,) * n, 0.0)

    @classmethod
    def unit_x(cls, n, k=0):
        n = dimension_index(n)
        a = [0.0] * n
        a[k] = 1.0
        return cls(tuple(a), (0.0,) * n, 0.0)

    @classmethod
    def unit_y(cls, n, k=0):
        n = dimension_index(n)
        b = [0.0] * n
        b[k] = 1.0
        return cls((0.0,) * n, tuple(b), 0.0)

    @classmethod
    def unit_t(cls, n):
        n = dimension_index(n)
        return cls((0.0,) * n, (0.0,) * n, 1.0)

    @classmethod
    def from_array(cls, arr):
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 1 or arr.size < 3 or arr.size % 2 == 0:
            raise ValueError("frame coefficient array must have length 2n+1")
        n = (arr.size - 1) // 2
        return cls(tuple(arr[:n]), tuple(arr[n : 2 * n]), float(arr[2 * n]))

    def as_array(self):
        return np.array(self.a + self.b + (self.c,))

    def dot(self, other):
        self._check(other)
        return (
            math.fsum(p * q for p, q in zip(self.a, other.a))
            + math.fsum(p * q for p, q in zip(self.b, other.b))
            + self.c * other.c
        )

    def norm(self):
        return math.sqrt(self.dot(self))

    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatchError(
                f"frame vectors have n={self.n} and n={other.n}"
            )

    def __add__(self, other):
        self._check(other)
        return FrameVector(
            tuple(p + q for p, q in zip(self.a, other.a)),
            tuple(p + q for p, q in zip(self.b, other.b)),
            self.c + other.c,
        )

    def __sub__(self, other):
        self._check(other)
        return FrameVector(
            tuple(p - q for p, q in zip(self.a, other.a)),
            tuple(p - q for p, q in zip(self.b, other.b)),
            self.c - other.c,
        )

    def __mul__(self, scalar):
        s = float(scalar)
        return FrameVector(
            tuple(s * p for p in self.a),
            tuple(s * p for p in self.b),
            s * self.c,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


def _check_points(p, q):
    if p.n != q.n:
        raise DimensionMismatchError(f"points have n={p.n} and n={q.n}")


def group_product(p, q):
    """The group product p * q.

    The vertical coordinate picks up sum_k (p.y_k q.x_k - p.x_k q.y_k), the
    imaginary part of <z, z'> for z = p.x + i p.y.  The origin is the identity
    and (-x, -y, -t) the inverse.
    """
    _check_points(p, q)
    twist = math.fsum(
        py * qx - px * qy for px, py, qx, qy in zip(p.x, p.y, q.x, q.y)
    )
    return Point(
        tuple(px + qx for px, qx in zip(p.x, q.x)),
        tuple(py + qy for py, qy in zip(p.y, q.y)),
        p.t + q.t + twist,
    )


def group_inverse(p):
    """The group inverse (-x, -y, -t)."""
    return Point(tuple(-v for v in p.x), tuple(-v for v in p.y), -p.t)


def connection(u, v, dv=None):
    """Covariant derivative D_u v in frame coefficients.

    ``u`` is the value of the direction field at the point and ``v`` the value
    of the differentiated field there.  ``dv``, when given, holds the
    directional derivatives u(alpha_j), u(beta_j), u(gamma) of v's coefficient
    functions along u; omit it for a field with constant frame coefficients.

    The expansion over the frame table (D_{X_k} Y_j = -delta_{kj} T,
    D_{X_k} T = Y_k, D_T X_k = Y_k and companions, all other frame derivatives
    zero) collapses to

        X_j part: u(alpha_j) - c beta_j - gamma b_j
        Y_j part: u(beta_j)  + c alpha_j + gamma a_j
        T  part: u(gamma)   + sum_j (alpha_j b_j - beta_j a_j)

    with u = (a, b, c) and v = (alpha, beta, gamma).
    """
    u._check(v)
    if dv is None:
        dv = FrameVector.zero(u.n)
    else:
        u._check(dv)
    c, gamma = u.c, v.c
    out_a = tuple(
        da - c * be - gamma * b
        for da, be, b in zip(dv.a, v.b, u.b)
    )
    out_b = tuple(
        db + c * al + gamma * a
        for db, al, a in zip(dv.b, v.a, u.a)
    )
    out_c = dv.c + math.fsum(
        al * b - be * a for al, be, a, b in zip(v.a, v.b, u.a, u.b)
    )
    return FrameVector(out_a, out_b, out_c)


def g_operator(u):
    """The linear map G(U) = D_U T: sends X_k to Y_k, Y_k to -X_k, T to 0.

    G is skew (<G(U), V> = -<U, G(V)>) and restricts to an isometry of the
    horizontal distribution.
    """
    return FrameVector(tuple(-q for q in u.b), u.a, 0.0)


def horizontal_part(u):
    """Projection onto the horizontal distribution: zero the T coefficient."""
    return FrameVector(u.a, u.b, 0.0)


def horizontal_unit_normal(normal):
    """Normalized horizontal projection N_H / |N_H| of a normal vector.

    Raises SingularPointError when |N_H| <= SINGULAR_TOL * |N|; those are the
    points where the tangent hyperplane coincides with the horizontal
    distribution and no horizontal normal exists.
    """
    nh = horizontal_part(normal)
    m = nh.norm()
    if m <= SINGULAR_TOL * normal.norm():
        raise SingularPointError(
            f"|N_H| = {m:.3e} is below the singular tolerance"
        )
    return nh * (1.0 / m)


def euclidean_to_frame(components, at):
    """Rewrite a Euclidean tangent vector in frame coefficients.

    ``components`` is (a_1..a_n, b_1..b_n, c_E) against (d/dx, d/dy, d/dt) at
    the point ``at``.  The horizontal coefficients agree; the T coefficient is
    c_E - sum_k a_k y_k + sum_k b_k x_k.
    """
    comp = np.asarray(components, dtype=float)
    n = at.n
    if comp.shape != (2 * n + 1,):
        raise DimensionMismatchError(
            f"expected {2 * n + 1} Euclidean components, got shape {comp.shape}"
        )
    a = comp[:n]
    b = comp[n : 2 * n]
    c = comp[2 * n] - float(a @ np.asarray(at.y)) + float(b @ np.asarray(at.x))
    return FrameVector(tuple(a), tuple(b), c)


def frame_to_euclidean(u, at):
    """Inverse of euclidean_to_frame; returns an array of length 2n+1."""
    if u.n != at.n:
        raise DimensionMismatchError(f"vector has n={u.n}, point has n={at.n}")
    ce = u.c + math.fsum(a * y for a, y in zip(u.a, at.y)) - math.fsum(
        b * x for b, x in zip(u.b, at.x)
    )
    return np.array(u.a + u.b + (ce,))
