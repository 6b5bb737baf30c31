"""Deterministic SVG rendering of generating curves.

Profiles are drawn in the half-plane {x >= 0} with x horizontal and t
vertical.  Every emitted byte is a pure function of the inputs: coordinates
are formatted with a fixed precision, curves keep their sampling order, and
no timestamps or environment state enter the output.
"""

import math

import numpy as np

from .classify import Family, classify, cylinder_energy
from .closed_forms import (
    catenoid_curve,
    catenoid_generating_curve,
    halfperiod_curve,
    sphere_generating_curve,
)
from .core import dimension_index
# unused here; kept bound because perfbench/tracer.py wraps render's name
from .profile_ode import integrate  # noqa: F401

__all__ = [
    "PANEL_WIDTH",
    "PANEL_HEIGHT",
    "family_polyline",
    "render_panel",
    "render_gallery",
    "gallery_parameters",
]

PANEL_WIDTH = 800
PANEL_HEIGHT = 600

_CURVE_STYLE = 'fill="none" stroke="#004488" stroke-width="2"'
_AXIS_STYLE = 'stroke="#444444" stroke-width="1"'


def _fmt(value):
    out = format(float(value), ".3f")
    return "0.000" if out == "-0.000" else out


def family_polyline(cls, samples=400):
    """Generating curve of the classified profile cls as a list of (x, t)
    pairs.

    Closed-form families are sampled uniformly in their natural parameter;
    the n >= 2 catenoid takes 2 floor(samples/2) + 1 points from
    catenoid_curve, out to x = 4 x1 + 3.  Unduloids and nodoids take one half
    period from its Chebyshev series, mirrored at the critical radii into two
    full periods from the canonical start to t = 4 t2 (-4 t2 when cls.flip),
    so the nodoid's self-intersections are visible.
    """
    sign = -1.0 if cls.flip else 1.0  # H < 0 runs the same curve down in t
    if cls.family is Family.HYPERPLANE:
        return [(2.0 * k / (samples - 1), 0.0) for k in range(samples)]
    if cls.family is Family.SPHERE:
        pts = []
        for k in range(samples):
            psi = math.pi * k / (samples - 1)
            x, t = sphere_generating_curve(cls.h, psi)[:2]
            pts.append((x, sign * t))
        return pts
    if cls.family is Family.CYLINDER:
        r = cls.x1
        return [(r, 3.0 * r * k / (samples - 1)) for k in range(samples)]
    if cls.family is Family.CATENOID:
        ee = abs(cls.e)
        if cls.n == 1:
            span = 2.5 * max(ee * ee, ee)
            pts = []
            for k in range(samples):
                t = -span + 2.0 * span * k / (samples - 1)
                x = catenoid_generating_curve(ee, t)[0]
                pts.append((x, t))
            return pts
        x, t = catenoid_curve(cls.n, ee, max(samples // 2, 1))
        return [(float(a), float(b)) for a, b in zip(x, t)]
    # mirrored about the critical radius ending it, a half period continues
    # as the next, t -> 2 t2 - t; four of them span two full periods
    x, t = halfperiod_curve(cls, max(samples // 4, 1))
    x, t = np.append(x, x[-2::-1]), np.append(t, 2.0 * t[-1] - t[-2::-1])
    x, t = np.append(x, x[1:]), np.append(t, t[-1] + t[1:])
    return [(float(a), sign * float(b)) for a, b in zip(x, t)]


def _bounds(lines):
    """Padded window (lo_x, hi_x, lo_t, hi_t) around (k, 2) point arrays."""
    xy = np.concatenate(lines)
    lo_x, hi_x = min(0.0, float(xy[:, 0].min())), float(xy[:, 0].max())
    lo_t, hi_t = float(xy[:, 1].min()), float(xy[:, 1].max())
    if hi_x - lo_x < 1e-12:
        lo_x, hi_x = lo_x - 0.5, hi_x + 0.5
    if hi_t - lo_t < 1e-12:
        lo_t, hi_t = lo_t - 0.5, hi_t + 0.5
    pad_x = 0.08 * (hi_x - lo_x)
    pad_t = 0.08 * (hi_t - lo_t)
    return lo_x - pad_x, hi_x + pad_x, lo_t - pad_t, hi_t + pad_t


def render_panel(polylines, title, width=PANEL_WIDTH, height=PANEL_HEIGHT,
                 standalone=True, origin=(0, 0)):
    """One fixed-size SVG panel; standalone=False nests it in a gallery.

    Each polyline is a sequence of (x, t) pairs or a (k, 2) array.
    """
    lines = [np.asarray(line, dtype=float) for line in polylines]
    lo_x, hi_x, lo_t, hi_t = _bounds(lines)
    margin_l, margin_r, margin_t, margin_b = 50, 20, 46, 34
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    # sx and sy map a float or, elementwise, an array to panel coordinates
    def sx(v):
        return margin_l + (v - lo_x) / (hi_x - lo_x) * plot_w

    def sy(v):
        return height - margin_b - (v - lo_t) / (hi_t - lo_t) * plot_h

    parts = []
    if standalone:
        parts.append(
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">')
    else:
        parts.append(
            f'<svg x="{origin[0]}" y="{origin[1]}" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')
    parts.append(
        f'<rect x="0" y="0" width="{width}" height="{height}" '
        'fill="#ffffff" stroke="#999999" stroke-width="1"/>')
    parts.append(
        f'<text x="{width // 2}" y="28" text-anchor="middle" '
        'font-family="sans-serif" font-size="20" fill="#000000">'
        f'{title}</text>')
    # t-axis at x = 0 and, when the window crosses it, the line t = 0
    parts.append(f'<line x1="{_fmt(sx(0.0))}" y1="{margin_t}" '
                 f'x2="{_fmt(sx(0.0))}" y2="{height - margin_b}" '
                 f'{_AXIS_STYLE}/>')
    if lo_t < 0.0 < hi_t:
        parts.append(f'<line x1="{margin_l}" y1="{_fmt(sy(0.0))}" '
                     f'x2="{width - margin_r}" y2="{_fmt(sy(0.0))}" '
                     f'{_AXIS_STYLE}/>')
    parts.append(f'<text x="{width - margin_r - 14}" '
                 f'y="{height - margin_b - 8}" font-family="sans-serif" '
                 'font-size="14" fill="#444444">x</text>')
    parts.append(f'<text x="{_fmt(sx(0.0) + 6)}" y="{margin_t + 14}" '
                 'font-family="sans-serif" font-size="14" '
                 'fill="#444444">t</text>')
    # the margins keep every curve point positive, so no -0.000 to mend
    for xy in lines:
        flat = np.column_stack((sx(xy[:, 0]), sy(xy[:, 1]))).ravel().tolist()
        coords = " ".join(["%.3f,%.3f"] * len(xy)) % tuple(flat)
        parts.append(f'<polyline {_CURVE_STYLE} points="{coords}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + ("\n" if standalone else "")


def gallery_parameters(n):
    """(label, H, E) of one representative profile per family for dimension
    index n; the cylinder sits at the cylinder energy of H = 1/2, which is
    exactly 1/2 for n = 1."""
    return (
        ("Hyperplane", 0.0, 0.0),
        ("Catenoid", 0.0, 1.0),
        ("Sphere", 1.0, 0.0),
        ("Cylinder", 0.5, cylinder_energy(n, 0.5)),
        ("Unduloid", 0.5, 0.3),
        ("Nodoid", 1.0, -0.1),
    )


def render_gallery(n=1):
    """Six labeled panels, one per family, in two rows of three."""
    n = dimension_index(n)
    cols, rows = 3, 2
    width, height = cols * PANEL_WIDTH, rows * PANEL_HEIGHT
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for index, (label, h, e) in enumerate(gallery_parameters(n)):
        col, row = index % cols, index // cols
        line = family_polyline(classify(n, h, e))
        title = f"{label} (H={_fmt(h)}, E={_fmt(e)})"
        parts.append(render_panel([line], title, standalone=False,
                                  origin=(col * PANEL_WIDTH,
                                          row * PANEL_HEIGHT)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
