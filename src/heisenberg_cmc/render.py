"""Deterministic SVG rendering of generating curves.

Profiles are drawn in the half-plane {x >= 0} with x horizontal and t
vertical.  Every emitted byte is a pure function of the inputs: coordinates
are formatted with a fixed precision, curves keep their sampling order, and
no timestamps or environment state enter the output.
"""

import math

from .classify import Family, classify, cylinder_radius
from .closed_forms import (
    catenoid_generating_curve,
    halfperiod_heights,
    sphere_generating_curve,
)
from .core import dimension_index
from .errors import NoCriticalPointError
from .profile_ode import EventKind, SolveConfig, integrate, reflect_continue

__all__ = [
    "PANEL_WIDTH",
    "PANEL_HEIGHT",
    "family_polyline",
    "trace_polyline",
    "render_panel",
    "render_gallery",
    "GALLERY_PARAMETERS",
]

PANEL_WIDTH = 800
PANEL_HEIGHT = 600

# one representative parameter set per family, n = 1; the cylinder energy at
# H = 1/2 is exactly 1/2, so (0.5, 0.5) sits on the cylinder locus
GALLERY_PARAMETERS = (
    ("Hyperplane", 0.0, 0.0),
    ("Catenoid", 0.0, 1.0),
    ("Sphere", 1.0, 0.0),
    ("Cylinder", 0.5, 0.5),
    ("Unduloid", 0.5, 0.3),
    ("Nodoid", 1.0, -0.1),
)

_CURVE_STYLE = 'fill="none" stroke="#004488" stroke-width="2"'
_AXIS_STYLE = 'stroke="#444444" stroke-width="1"'


def _fmt(value):
    out = format(float(value), ".3f")
    return "0.000" if out == "-0.000" else out


def family_polyline(n, h, e, samples=400):
    """Generating curve of the (n, H, E) profile as a list of (x, t) pairs.

    Closed-form families are sampled uniformly in their natural parameter.
    Unduloids and nodoids are integrated over one half period and mirrored
    at the critical radii into two full periods, so the nodoid's
    self-intersections are visible; the n >= 2 catenoid's forward branch is
    mirrored at its waist.
    """
    n = dimension_index(n)
    h, e = float(h), float(e)
    c = classify(n, h, e)
    if c.family is Family.HYPERPLANE:
        return [(2.0 * k / (samples - 1), 0.0) for k in range(samples)]
    if c.family is Family.SPHERE:
        hh = abs(h)
        pts = []
        for k in range(samples):
            psi = math.pi * k / (samples - 1)
            x, t = sphere_generating_curve(hh, psi)[:2]
            pts.append((x, math.copysign(1.0, h) * t))
        return pts
    if c.family is Family.CYLINDER:
        r = cylinder_radius(n, abs(h))
        return [(r, 3.0 * r * k / (samples - 1)) for k in range(samples)]
    if c.family is Family.CATENOID:
        if n == 1:
            ee = abs(e)
            span = 2.5 * max(ee * ee, ee)
            pts = []
            for k in range(samples):
                t = -span + 2.0 * span * k / (samples - 1)
                x = catenoid_generating_curve(ee, t)[0]
                pts.append((x, t))
            return pts
        # the waist is a critical radius: mirror the forward branch there
        branch = integrate(n, h, e=e,
                           config=SolveConfig(max_arclength=3.0 * c.x1 + 3.0))
        return trace_polyline(reflect_continue(branch))
    # ds <= |dx| + |dt|, x is monotone between the critical radii and t
    # turns at most once, at x0: this bounds the half period's arclength
    t1, t2 = (q.value for q in halfperiod_heights(n, h, e))
    bound = (c.x2 - c.x1) + abs(t1) + abs(t2 - t1)
    # each mirror doubles the curve, so two copies of one half period span
    # two full periods
    cfg = SolveConfig(max_arclength=1.05 * bound + 1.0,
                      stop_event=(EventKind.CRITICAL_RADIUS, 1))
    half = integrate(n, h, e=e, config=cfg)
    if not any(ev.kind is EventKind.CRITICAL_RADIUS for ev in half.events):
        raise NoCriticalPointError(
            "one half period is longer than the arclength limit "
            f"{cfg.max_arclength}"
        )
    return trace_polyline(reflect_continue(half, copies=2))


def trace_polyline(traj):
    """Recorded solver nodes of a trajectory as (x, t) pairs."""
    return [(float(x), float(t)) for x, t in traj.states[:, :2]]


def _bounds(polylines):
    xs = [p[0] for line in polylines for p in line]
    ts = [p[1] for line in polylines for p in line]
    lo_x, hi_x = min(0.0, min(xs)), max(xs)
    lo_t, hi_t = min(ts), max(ts)
    if hi_x - lo_x < 1e-12:
        lo_x, hi_x = lo_x - 0.5, hi_x + 0.5
    if hi_t - lo_t < 1e-12:
        lo_t, hi_t = lo_t - 0.5, hi_t + 0.5
    pad_x = 0.08 * (hi_x - lo_x)
    pad_t = 0.08 * (hi_t - lo_t)
    return lo_x - pad_x, hi_x + pad_x, lo_t - pad_t, hi_t + pad_t


def render_panel(polylines, title, width=PANEL_WIDTH, height=PANEL_HEIGHT,
                 standalone=True, origin=(0, 0)):
    """One fixed-size SVG panel; standalone=False nests it in a gallery."""
    lo_x, hi_x, lo_t, hi_t = _bounds(polylines)
    margin_l, margin_r, margin_t, margin_b = 50, 20, 46, 34
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

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
    for line in polylines:
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(t))}" for x, t in line)
        parts.append(f'<polyline {_CURVE_STYLE} points="{coords}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + ("\n" if standalone else "")


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
    for index, (label, h, e) in enumerate(GALLERY_PARAMETERS):
        col, row = index % cols, index // cols
        line = family_polyline(n, h, e)
        title = f"{label} (H={_fmt(h)}, E={_fmt(e)})"
        parts.append(render_panel([line], title, standalone=False,
                                  origin=(col * PANEL_WIDTH,
                                          row * PANEL_HEIGHT)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
