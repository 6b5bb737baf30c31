"""Family classification and the admissible radial band."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

import heisenberg_cmc.classify as classify_module
from heisenberg_cmc.classify import (
    Classification,
    Family,
    admissible_radii,
    classify,
    cylinder_energy,
    cylinder_radius,
    descartes_bound,
    inflection_radius,
)
from heisenberg_cmc.errors import NoAdmissibleRadiusError, RootBracketFailureError


def band_margin(n, h, e, x):
    """x^{2n-1} - |e + h x^{2n}|, zero exactly on the band boundary."""
    return x ** (2 * n - 1) - abs(e + h * x ** (2 * n))


# ---------------------------------------------------------------------------
# frozen values


def test_cylinder_constants():
    assert cylinder_radius(1, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert cylinder_energy(1, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert cylinder_radius(1, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert cylinder_energy(1, 1.0) == pytest.approx(0.25, abs=1e-15)
    assert cylinder_radius(2, 0.75) == pytest.approx(1.0, abs=1e-15)
    assert cylinder_energy(2, 0.75) == pytest.approx(0.25, abs=1e-15)


def test_unduloid_frozen_radii():
    c = classify(1, 0.5, 0.3)
    assert c.family is Family.UNDULOID
    assert c.x1 == pytest.approx(1.0 - math.sqrt(0.4), abs=1e-12)
    assert c.x2 == pytest.approx(1.0 + math.sqrt(0.4), abs=1e-12)
    # inflection radius frozen from exact rational bisection of p
    assert c.x0 == pytest.approx(0.5511495059565402, abs=1e-12)
    assert c.x1 < c.x0 < c.x2


def test_nodoid_frozen_radii():
    c = classify(1, 1.0, -0.1)
    assert c.family is Family.NODOID
    assert c.x1 == pytest.approx((-1.0 + math.sqrt(1.4)) / 2.0, abs=1e-12)
    assert c.x2 == pytest.approx((1.0 + math.sqrt(1.4)) / 2.0, abs=1e-12)
    assert c.x0 == pytest.approx(math.sqrt(0.1), abs=1e-14)


def test_cylinder_at_exact_energy():
    c = classify(1, 0.5, 0.5)
    assert c.family is Family.CYLINDER
    assert c.x1 == c.x2 == c.x0 == pytest.approx(1.0, abs=1e-15)
    c = classify(1, 1.0, 0.25)
    assert c.family is Family.CYLINDER
    assert c.x1 == pytest.approx(0.5, abs=1e-15)
    # inside the relative tolerance collar still counts as the cylinder
    assert classify(1, 0.5, 0.5 * (1.0 + 1e-13)).family is Family.CYLINDER
    assert classify(1, 0.5, 0.5 * (1.0 - 1e-13)).family is Family.CYLINDER


def test_degenerate_families():
    assert classify(1, 0.0, 0.0).family is Family.HYPERPLANE
    assert classify(3, 0.0, 0.0).family is Family.HYPERPLANE
    c = classify(1, 0.0, 2.0)
    assert c.family is Family.CATENOID
    assert c.x1 == pytest.approx(2.0, abs=1e-15)
    c = classify(2, 0.0, 8.0)
    assert c.x1 == pytest.approx(2.0, abs=1e-12)
    assert classify(1, 0.0, -1.5).family is Family.CATENOID
    c = classify(1, 2.0, 0.0)
    assert c.family is Family.SPHERE
    assert c.x1 is None and c.x2 is None and c.x0 is None


def test_no_admissible_radius():
    with pytest.raises(NoAdmissibleRadiusError):
        classify(1, 0.5, 0.6)
    with pytest.raises(NoAdmissibleRadiusError):
        admissible_radii(1, 0.5, 0.51)


def test_descartes_bound():
    assert descartes_bound([1.0, -1.0, 1.0]) == 2
    assert descartes_bound([-1.0, -2.0, 3.0]) == 1
    assert descartes_bound([1.0, 0.0, 1.0]) == 0
    with pytest.raises(ValueError):
        descartes_bound([0.0, 1.0])
    with pytest.raises(ValueError):
        descartes_bound([])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("h, e", [(0.5, 0.1), (2.0, 1e-9), (0.5, -0.3),
                                  (1e-3, -50.0)])
def test_band_polynomial_sign_patterns(n, h, e):
    # f1 = h x^{2n} + x^{2n-1} + e and f2 = -h x^{2n} + x^{2n-1} - e, leading
    # first, for the normalized h > 0: the signs of h and e alone fix how
    # many positive roots admissible_radii may bracket
    zeros = [0.0] * (2 * n - 2)
    f1, f2 = [h, 1.0, *zeros, e], [-h, 1.0, *zeros, -e]
    if e > 0.0:
        assert descartes_bound(f2) == 2
    else:
        assert descartes_bound(f1) == 1 and descartes_bound(f2) == 1


@pytest.mark.parametrize("n, h, e", [
    (1, 0.0, 0.0), (2, 0.0, 0.3), (2, 0.0, -0.3), (2, 1.0, 0.0),
    (1, 0.5, 0.5), (2, 0.7, 0.05), (3, 1.0, -0.2),
])
def test_flip_records_negative_h(n, h, e):
    for sign in (1.0, -1.0):
        cls = classify(n, sign * h, sign * e)
        assert cls.flip is (sign * h < 0.0)
        assert cls.h >= 0.0
    # flip takes no part in equality; a catenoid keeps the sign of its E
    if h != 0.0:
        assert classify(n, h, e) == classify(n, -h, -e)


def test_inflection_bracket_failure():
    # a bracket strictly inside the band on one side has no sign change
    with pytest.raises(RootBracketFailureError):
        inflection_radius(1, 0.5, 0.3, (1.0, 1.5))


def test_dimension_validation():
    with pytest.raises(ValueError):
        classify(1.5, 0.5, 0.1)
    with pytest.raises(ValueError):
        classify(0, 0.5, 0.1)
    assert classify(2.0, 0.0, 0.0).n == 2


# ---------------------------------------------------------------------------
# structural properties


def test_band_boundary_equality():
    # the admissible band margin vanishes at x1 and x2 and is positive inside
    cases = [(1, 0.5, 0.3), (1, 1.0, -0.1), (2, 0.8, 0.05), (3, 0.4, -0.7)]
    for n, h, e in cases:
        x1, x2 = admissible_radii(n, h, e)
        scale = x2 ** (2 * n - 1)
        assert abs(band_margin(n, h, e, x1)) <= 1e-12 * scale
        assert abs(band_margin(n, h, e, x2)) <= 1e-12 * scale
        mid = 0.5 * (x1 + x2)
        assert band_margin(n, h, e, mid) > 0.0


def test_unduloid_radii_straddle_cylinder():
    for n, h in ((1, 0.5), (2, 0.7), (3, 1.2)):
        r = cylinder_radius(n, h)
        ecyl = cylinder_energy(n, h)
        for frac in (0.1, 0.5, 0.9):
            x1, x2 = admissible_radii(n, h, frac * ecyl)
            assert 0.0 < x1 < r < x2 < 1.0 / h


def test_nodoid_radii_ordering():
    for n, h, e in ((1, 1.0, -0.1), (2, 0.5, -0.3), (3, 0.25, -2.0)):
        c = classify(n, h, e)
        assert 0.0 < c.x1 < c.x0 < c.x2
        assert c.x2 > 1.0 / h


@given(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.05, max_value=4.0),
    st.one_of(
        st.just(0.0),
        st.floats(min_value=-3.0, max_value=1.2).filter(lambda v: abs(v) > 1e-8),
    ),
)
def test_sign_normalization(n, h, e_frac):
    # e scaled against the cylinder energy so every family is reachable
    e = e_frac * cylinder_energy(n, h)
    try:
        a = classify(n, h, e)
    except NoAdmissibleRadiusError:
        with pytest.raises(NoAdmissibleRadiusError):
            classify(n, -h, -e)
        return
    b = classify(n, -h, -e)
    assert a == b


@given(st.integers(min_value=1, max_value=3), st.floats(min_value=0.05, max_value=4.0))
def test_family_ladder(n, h):
    # sweeping e from negative through E_cyl walks Nodoid -> Sphere ->
    # Unduloid -> Cylinder
    ecyl = cylinder_energy(n, h)
    assert classify(n, h, -0.5 * ecyl).family is Family.NODOID
    assert classify(n, h, 0.0).family is Family.SPHERE
    assert classify(n, h, 0.5 * ecyl).family is Family.UNDULOID
    assert classify(n, h, ecyl).family is Family.CYLINDER


# ---------------------------------------------------------------------------
# the Brent root search, pinned against scipy.optimize.brentq


def test_brent_port_matches_scipy(monkeypatch):
    # every root search of a classify grid, repeated by SciPy on the same
    # function and bracket, must return the same float
    pairs = []
    port = classify_module._brentq

    def both(f, a, b):
        root = port(f, a, b)
        pairs.append((root, brentq(f, a, b, xtol=1e-14, rtol=8.9e-16)))
        return root

    monkeypatch.setattr(classify_module, "_brentq", both)
    for n in range(1, 5):
        for h in (-2.0, -0.3, 0.05, 0.7, 3.0):
            ecyl = cylinder_energy(n, abs(h)) * math.copysign(1.0, h)
            for frac in (-40.0, -3.0, -0.5, -1e-6, 1e-9, 0.01, 0.3, 0.9,
                         1.0 - 1e-9):
                classify(n, h, frac * ecyl)
    assert len(pairs) > 300
    assert [a for a, _ in pairs] == [b for _, b in pairs]


def test_brent_port_out_of_iterations():
    # a step function on a bracket 1e314 times xtol needs ~1000 bisections
    def step(x):
        return -1.0 if x < 1.0 else 1.0

    with pytest.raises(RuntimeError):
        brentq(step, 0.0, 1e300, xtol=1e-14, rtol=8.9e-16)
    with pytest.raises(RootBracketFailureError, match="100 iterations"):
        classify_module._brentq(step, 0.0, 1e300)
    assert classify_module._brentq(step, 0.0, 2.0) == pytest.approx(1.0)


def test_brent_port_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        classify_module._brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
