"""SVG output: determinism, panel geometry, and curve content."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenberg_cmc.classify import classify
from heisenberg_cmc.closed_forms import (
    catenoid_generating_curve,
    halfperiod_heights,
    sphere_generating_curve,
)
from heisenberg_cmc.profile_ode import SolveConfig, integrate
from heisenberg_cmc.render import (
    PANEL_HEIGHT,
    PANEL_WIDTH,
    _fmt,
    family_polyline,
    gallery_parameters,
    render_gallery,
    render_panel,
    trace_polyline,
)


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_cross(p, q, r, s):
    d1, d2 = _orient(p, q, r), _orient(p, q, s)
    d3, d4 = _orient(r, s, p), _orient(r, s, q)
    return d1 * d2 < 0.0 and d3 * d4 < 0.0


def _self_intersects(polyline):
    segments = list(zip(polyline[:-1], polyline[1:]))
    for i in range(len(segments)):
        # skip the neighbor segment, which always shares an endpoint
        for j in range(i + 2, len(segments)):
            if _segments_cross(*segments[i], *segments[j]):
                return True
    return False


# ---------------------------------------------------------------------------
# polylines


def test_sphere_polyline_matches_closed_form():
    line = family_polyline(1, 1.0, 0.0, samples=101)
    assert len(line) == 101
    for k, (x, t) in enumerate(line):
        psi = math.pi * k / 100
        xr, tr = sphere_generating_curve(1.0, psi)[:2]
        assert x == pytest.approx(xr, abs=1e-12)
        assert t == pytest.approx(tr, abs=1e-12)


def test_negative_h_sphere_mirrors_t():
    up = family_polyline(1, 1.0, 0.0, samples=51)
    down = family_polyline(1, -1.0, 0.0, samples=51)
    for (xa, ta), (xb, tb) in zip(up, down):
        assert xb == pytest.approx(xa, abs=1e-12)
        assert tb == pytest.approx(-ta, abs=1e-12)


def test_hyperplane_and_cylinder_polylines():
    flat = family_polyline(1, 0.0, 0.0, samples=64)
    assert all(t == 0.0 for _, t in flat)
    assert flat[0][0] == 0.0 and flat[-1][0] == 2.0

    tube = family_polyline(1, 0.5, 0.5, samples=64)
    assert all(x == pytest.approx(1.0, abs=1e-12) for x, _ in tube)


def test_catenoid_polyline_symmetric():
    line = family_polyline(1, 0.0, 1.0, samples=101)
    for (xa, ta), (xb, tb) in zip(line, reversed(line)):
        assert xa == pytest.approx(xb, abs=1e-12)
        assert ta == pytest.approx(-tb, abs=1e-12)
    waist = min(x for x, _ in line)
    assert waist == pytest.approx(1.0, abs=1e-9)
    x_end, t_end = line[-1]
    assert x_end == pytest.approx(catenoid_generating_curve(1.0, t_end)[0],
                                  abs=1e-12)


def test_nodoid_self_intersects():
    assert _self_intersects(family_polyline(1, 1.0, -0.1))


def test_unduloid_does_not_self_intersect():
    assert not _self_intersects(family_polyline(1, 0.5, 0.3))


@pytest.mark.parametrize("n, h, e", [(1, 0.5, 0.3), (1, 1.0, -0.1),
                                     (2, 1.0, 0.05), (2, 0.75, -0.25)])
def test_periodic_polyline_spans_two_periods(n, h, e):
    t2 = halfperiod_heights(n, h, e)[1].value
    line = family_polyline(n, h, e)
    assert line[0][1] == 0.0
    assert line[-1][1] == pytest.approx(4.0 * t2, abs=1e-8)


def test_trace_polyline_is_node_sequence():
    traj = integrate(1, 0.5, e=0.3, config=SolveConfig(max_arclength=4.0))
    line = trace_polyline(traj)
    assert len(line) == len(traj.s)
    assert line[0] == (traj.states[0, 0], traj.states[0, 1])


# ---------------------------------------------------------------------------
# SVG documents


def test_panel_fixed_viewbox_and_style():
    svg = render_panel([family_polyline(1, 1.0, 0.0)], "Sphere")
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                          'version="1.1"')
    assert f'viewBox="0 0 {PANEL_WIDTH} {PANEL_HEIGHT}"' in svg
    assert ">Sphere</text>" in svg
    assert svg.count("<polyline") == 1


def test_gallery_structure():
    svg = render_gallery(1)
    assert svg.count('<svg x="') == 6  # six nested panels
    for label, _, _ in gallery_parameters(1):
        assert label in svg
    assert f'viewBox="0 0 {3 * PANEL_WIDTH} {2 * PANEL_HEIGHT}"' in svg


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gallery_titles_name_the_drawn_family(n):
    titles = re.findall(r'font-size="20" fill="#000000">(\w+) \(H=',
                        render_gallery(n))
    assert titles == [classify(n, h, e).family.value
                      for _, h, e in gallery_parameters(n)]
    assert titles == [label for label, _, _ in gallery_parameters(n)]


def test_gallery_deterministic():
    assert render_gallery(1) == render_gallery(1)
    assert render_gallery(2) == render_gallery(2)


def test_panel_handles_degenerate_window():
    # a single point must not divide by a zero-size window
    svg = render_panel([[(1.0, 0.0)]], "point")
    assert "<polyline" in svg
    assert "nan" not in svg


def _reference_points(polylines, width=PANEL_WIDTH, height=PANEL_HEIGHT):
    """Points attributes as render_panel formatted them one point at a time."""
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
    lo_x, hi_x = lo_x - pad_x, hi_x + pad_x
    lo_t, hi_t = lo_t - pad_t, hi_t + pad_t
    margin_l, margin_r, margin_t, margin_b = 50, 20, 46, 34
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    def sx(v):
        return margin_l + (v - lo_x) / (hi_x - lo_x) * plot_w

    def sy(v):
        return height - margin_b - (v - lo_t) / (hi_t - lo_t) * plot_h

    return [" ".join(f"{_fmt(sx(x))},{_fmt(sy(t))}" for x, t in line)
            for line in polylines]


# 0 and spans under 1e-12 take the +-0.5 window
_SPANS = (0.0, 1e-13, 9e-13, 1e-6, 1.0, 300.0)


@st.composite
def _polylines(draw):
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        # x0 = 0 puts points exactly on the window's left bound
        x0 = draw(st.sampled_from((0.0, 1.0)) | st.floats(-5.0, 50.0))
        t0 = draw(st.floats(-50.0, 50.0))
        span_x, span_t = draw(st.sampled_from(_SPANS)), draw(
            st.sampled_from(_SPANS))
        unit = draw(st.lists(st.tuples(st.floats(0.0, 1.0),
                                       st.floats(-1.0, 1.0)),
                             min_size=1, max_size=30))
        lines.append([(x0 + span_x * u, t0 + span_t * v) for u, v in unit])
    return lines


# a panel ~1e13 wide prints ~16 significant digits at three decimals, so a
# change in the last bit of a mapped coordinate shows in the bytes
@given(polylines=_polylines(),
       size=st.sampled_from([(PANEL_WIDTH, PANEL_HEIGHT),
                             (10 ** 13, 3 * 10 ** 12)]))
@settings(max_examples=300, deadline=None)
def test_panel_points_match_per_point_formatting(polylines, size):
    width, height = size
    expected = _reference_points(polylines, width, height)
    svg = render_panel(polylines, "curve", width, height)
    assert re.findall(r'points="([^"]*)"', svg) == expected
    assert render_panel([np.array(line) for line in polylines], "curve",
                        width, height) == svg
