"""SVG output: determinism, panel geometry, and curve content."""

import math

import pytest

from heisenberg_cmc.closed_forms import (
    catenoid_generating_curve,
    halfperiod_heights,
    sphere_generating_curve,
)
from heisenberg_cmc.profile_ode import SolveConfig, integrate
from heisenberg_cmc.render import (
    GALLERY_PARAMETERS,
    PANEL_HEIGHT,
    PANEL_WIDTH,
    family_polyline,
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
    for label, _, _ in GALLERY_PARAMETERS:
        assert label in svg
    assert f'viewBox="0 0 {3 * PANEL_WIDTH} {2 * PANEL_HEIGHT}"' in svg


def test_gallery_deterministic():
    assert render_gallery(1) == render_gallery(1)
    assert render_gallery(2) == render_gallery(2)


def test_panel_handles_degenerate_window():
    # a single point must not divide by a zero-size window
    svg = render_panel([[(1.0, 0.0)]], "point")
    assert "<polyline" in svg
    assert "nan" not in svg
