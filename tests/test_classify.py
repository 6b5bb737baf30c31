"""Family classification and the admissible radial band."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heisenberg_cmc.classify as classify_module
import heisenberg_cmc.profile_ode as profile_ode
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
from heisenberg_cmc.closed_forms import halfperiod_heights
from heisenberg_cmc.errors import NoAdmissibleRadiusError, RootBracketFailureError
from heisenberg_cmc.measures import sphere_measures
from heisenberg_cmc.profile_ode import ProfileState, SolveConfig, integrate

from oracles import band_edge_within


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


@given(n=st.sampled_from((2, 3)), u=st.floats(-1.0, 1.0),
       sign=st.sampled_from((1.0, -1.0)), where=st.floats(0.0, 1.0))
@settings(max_examples=200)
def test_neck_radius_holds_to_4_eps(n, u, sign, where):
    # |H| log-uniform up to 1e±100 for n = 2 and 1e±60 for n = 3, where the
    # cylinder energy stays a normal float, and |E| log-uniform over the 300
    # decades below a tenth of it (from 1e-320 at most).  Brent's absolute
    # tolerance of 1e-14 in x swallowed a neck below it (x1 came out 0.0 at
    # E = 1e-45, n = 2, and at H = 1e20 for n = 3), and the nodoid bracket
    # [0, |E|^{1/p}] lost its sign change once H |E|^{1/p} < eps
    h = 10.0 ** (u * 300.0 / (2 * n - 1))
    top = math.log10(0.1 * cylinder_energy(n, h))
    e = sign * 10.0 ** max(top - where * 300.0, -320.0)
    x1, x2 = admissible_radii(n, h, e)
    rel = Fraction(4 * 2.0 ** -52)
    assert band_edge_within(n, h, e, x1, rel), (n, h, e)
    assert band_edge_within(n, h, e, x2, rel, outer=True), (n, h, e)


@pytest.mark.parametrize("n, h, e", [
    (2, 1.0, 1e-45), (2, 3.0, 1e-50), (3, 1.0, 1e-75), (3, 1.0, -1e-75),
    (3, 1.0, -1e-300),
    # E = E_cyl / 2: in x, to an absolute 1e-14, x1 came out 0.0 (exact
    # 6.13e-21) at H = 1e20 and 2.9e15 ulps off at H = 1e15
    (3, 1e20, 0.5 * cylinder_energy(3, 1e20)),
    (2, 1e15, 0.5 * cylinder_energy(2, 1e15)),
    # Brent's method in x ran out of iterations on the nodoid's x2
    (4, 100.0, -50.0), (4, 88.17440334258984, -146.34261514947937),
])
def test_neck_radius_frozen_cases(n, h, e):
    x1, x2 = admissible_radii(n, h, e)
    rel = Fraction(4 * 2.0 ** -52)
    assert band_edge_within(n, h, e, x1, rel)
    assert band_edge_within(n, h, e, x2, rel, outer=True)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("e", [1e-320, -1e-320, 5e-324, -5e-324])
def test_neck_radius_at_subnormal_e(n, e):
    # f near x1 took subnormal values, and x1 held to ~2e-5 at E = 1e-320;
    # both terms are now scaled by a power of two into the normal range
    x1, _ = admissible_radii(n, 3.0, e)
    assert band_edge_within(n, 3.0, e, x1, Fraction(4 * 2.0 ** -52))


def _inflection_p(n, h, e, y):
    h, e, y = Fraction(h), Fraction(e), Fraction(y)
    return ((e + h * y ** (2 * n)) ** 3 - 2 * h * y ** (6 * n - 2)
            + 2 * (n - 1) * e * y ** (4 * n - 2))


def _inflection_within(cls, rel):
    """p changes sign from + to - across x0 (1 -+ rel), in exact rationals."""
    x0 = Fraction(cls.x0)
    return (_inflection_p(cls.n, cls.h, cls.e, x0 * (1 - rel)) > 0
            > _inflection_p(cls.n, cls.h, cls.e, x0 * (1 + rel)))


@pytest.mark.parametrize("n, h, e", [
    (2, 3.0, 1e-50), (3, 1.0, 1e-75), (2, 1.0, 1.0546875e-09),
    (2, 0.01, 1.0546875e-50), (3, 100.0, 6.697959533607681e-22),
    (1, 1e-20, 1.0), (1, -2.15e-57, -677.6),
])
def test_inflection_at_thin_necks(n, h, e):
    # Brent's absolute tolerance of 1e-14 left x0 = 2.38e-13 at (2, 3, 1e-50)
    # with p of one sign across x0 (1 -+ 1e-3), and at H = 0.01 the search
    # ran out of iterations, as it did at the two n = 1 draws, whose roots
    # lie near 1e5 and 1e16; the root is now searched in log y
    cls = classify(n, h, e)
    assert _inflection_within(cls, Fraction(1, 10 ** 12)), cls


@given(n=st.integers(2, 4), u=st.floats(-2.0, 2.0), k=st.floats(-300.0, 0.0))
@settings(max_examples=60, deadline=None)
def test_inflection_holds_12_digits(n, u, k):
    # E from 1e-300 of the cylinder energy up to it: thin necks, whose x0
    # lies below 1e-2, and the rest, which keep Brent's method
    h = 10.0 ** u
    cls = classify(n, h, 10.0 ** k * cylinder_energy(n, h))
    if cls.family is Family.UNDULOID:
        assert _inflection_within(cls, Fraction(1, 10 ** 12)), cls


@pytest.mark.parametrize("n, h, e", [
    (1, 3.0, 1e-320), (1, 1e300, 1e-310), (2, 3.0, 1e-320),
])
def test_inflection_where_p_underflows(n, h, e):
    # p underflowed to 0.0 at x1 (and, at H = 1e300, at x2) and the search
    # raised "no sign change across the band"; its sign now comes from
    # p / y^{3(2n-1)}, whose root is searched in log y
    cls = classify(n, h, e)
    assert cls.x1 < cls.x0 < cls.x2
    rel = Fraction(1, 10 ** 12)
    assert _inflection_p(n, h, e, Fraction(cls.x0) * (1 - rel)) > 0
    assert _inflection_p(n, h, e, Fraction(cls.x0) * (1 + rel)) < 0


# exact oracles where the search is weakest: near the cylinder the band
# edges close in on a double root, whose slope tends to 0; at thin necks
# the bracket spans hundreds of e-folds; deep nodoids


_EDGE_REL, _X0_REL = Fraction(4 * 2.0 ** -52), Fraction(1, 10 ** 12)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", range(1, 16))
def test_near_cylinder_radii_hold(n, k):
    # E = E_cyl (1 - 10^-k): classify calls k >= 12 a cylinder, so the band
    # and x0 are asked of admissible_radii and inflection_radius.  With g
    # rounded in floats the edges held to ~eps / sqrt(10^-k) only, over
    # 2,600 ulps from k = 10, and at k = 15, n = 3 the band came out
    # [1.18775, 1.19554], 6e5 times as wide as it is
    h = 0.7
    e = cylinder_energy(n, h) * (1.0 - 10.0 ** -k)
    x1, x2 = admissible_radii(n, h, e)
    assert band_edge_within(n, h, e, x1, _EDGE_REL), (n, k)
    assert band_edge_within(n, h, e, x2, _EDGE_REL, outer=True), (n, k)
    x0 = inflection_radius(n, h, e, (x1, x2))
    cls = Classification(Family.UNDULOID, n, h, e, x1=x1, x2=x2, x0=x0)
    assert _inflection_within(cls, _X0_REL), (n, k)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 10, 50, 100, 200, 300])
def test_thin_neck_radii_hold(n, k):
    h = 0.7
    cls = classify(n, h, cylinder_energy(n, h) * 10.0 ** -k)
    assert cls.family is Family.UNDULOID
    assert band_edge_within(n, h, cls.e, cls.x1, _EDGE_REL), cls
    assert band_edge_within(n, h, cls.e, cls.x2, _EDGE_REL, outer=True), cls
    assert _inflection_within(cls, _X0_REL), cls


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("e", [-1e-3, -1.0, -10.0, -100.0, -1000.0])
def test_deep_nodoid_radii_hold(n, e):
    cls = classify(n, 0.7, e)
    assert cls.family is Family.NODOID
    assert band_edge_within(n, 0.7, e, cls.x1, _EDGE_REL), cls
    assert band_edge_within(n, 0.7, e, cls.x2, _EDGE_REL, outer=True), cls
    assert cls.x1 < cls.x0 < cls.x2


@pytest.mark.parametrize("n, h, e", [
    (2, 1e-200, -1e200), (3, 0.7, 0.05), (3, 0.7, -2.0),
    (2, 0.7, cylinder_energy(2, 0.7) * (1.0 - 1e-12)), (4, 1.0, 1e-15),
    (3, 1e20, 0.5 * cylinder_energy(3, 1e20)), (4, 100.0, -50.0),
])
def test_band_edges_are_the_nearest_floats(n, h, e):
    # the last Newton step takes the band polynomial's exact value, so each
    # edge lies within half an ulp of its root.  With the value rounded in
    # floats x2 came out 0.72 ulps from it at H = 1e-200, E = -1e200
    x1, x2 = admissible_radii(n, h, e)
    for x, outer in ((x1, False), (x2, True)):
        half_ulp = Fraction(math.ulp(x)) / 2 / Fraction(x)
        assert band_edge_within(n, h, e, x, half_ulp, outer=outer), (x, outer)


@given(n=st.integers(1, 4), u=st.floats(-2.0, 2.0),
       sign=st.sampled_from((1.0, -1.0)),
       frac=st.one_of(
           st.floats(-12.0, math.log10(1.0 - 1e-6)).map(lambda v: 10.0 ** v),
           st.floats(-12.0, 4.0).map(lambda v: -(10.0 ** v))),
       k=st.sampled_from((-20, -7, -1, 1, 5, 30)))
@settings(max_examples=300, deadline=None)
def test_dilation_by_2_to_the_k(n, u, sign, frac, k):
    # delta(z, t) = (2^k z, 4^k t) carries the (n, H, E) profile onto the
    # (n, H / 2^k, 2^{k(2n-1)} E) one: radii scale by 2^k, heights by 4^k,
    # P and V by 2^{k(2n+1)} and 2^{k(2n+2)}.  frac = E / E_cyl, an unduloid
    # from 1e-12 to 1 - 1e-6, a nodoid from -1e-12 to -1e4.  The radii scale
    # exactly: every root is searched in log x of a function unchanged by the
    # dilation.  Tolerances, with the worst seen in seeded scans of this
    # region:
    # - heights, on bands that are dilations of each other, so they test
    #   halfperiod_heights alone: t2 0.019 and t1 0.050 of their allowances
    #   over 9,000 draws;
    # - P and V divide by h^m, which pow rounds apart from (h / 2^k)^m in
    #   ~5e-4 of draws: 4 ulps (1 or 2 ulps off in 30 of 30,000).
    h = sign * 10.0 ** u
    e = sign * frac * cylinder_energy(n, 10.0 ** u)
    a = classify(n, h, e)
    b = classify(n, math.ldexp(h, -k), math.ldexp(e, k * (2 * n - 1)))
    assert [math.ldexp(x, k) for x in (a.x1, a.x0, a.x2)] == [
        b.x1, b.x0, b.x2], (a, b)
    (t1a, t2a), (t1b, t2b) = halfperiod_heights([a, b])
    error = max(math.ldexp(t2a.error_estimate, 2 * k), t2b.error_estimate)
    ulp = math.ulp(t2b.value)
    assert abs(math.ldexp(t2a.value, 2 * k) - t2b.value) <= error + 4 * ulp
    assert abs(math.ldexp(t1a.value, 2 * k) - t1b.value) <= 2 * error + 4 * ulp
    (pa, va), (pb, vb) = sphere_measures(n, abs(h)), sphere_measures(
        n, math.ldexp(abs(h), -k))
    assert abs(math.ldexp(pa, k * (2 * n + 1)) - pb) <= 4 * math.ulp(pb)
    assert abs(math.ldexp(va, k * (2 * n + 2)) - vb) <= 4 * math.ulp(vb)


def test_nodoid_x0_past_an_overflowing_quotient():
    # -E / H = 8.2e570 overflowed, and x0 came out inf
    cls = classify(1, 5.68e-296, -4.68e275)
    assert math.isfinite(cls.x0) and cls.x1 <= cls.x0 <= cls.x2, cls


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


def _n1_band_exact(h, e):
    """(x1, x2, epsilon) of the n = 1 band as Decimals, from the float
    inputs taken exactly: epsilon = sqrt(1 - 4 e h), x1 = 2|e| / (1 + epsilon),
    x2 = (1 + epsilon) / (2 h), at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        d = 1 - 4 * Fraction(e) * Fraction(h)
        epsilon = (Decimal(d.numerator) / Decimal(d.denominator)).sqrt()
        return (2 * abs(Decimal(e)) / (1 + epsilon),
                (1 + epsilon) / (2 * Decimal(h)), epsilon)


@given(u=st.floats(-2.0, 2.0), sign=st.sampled_from((1.0, -1.0)),
       frac=st.one_of(
           st.floats(-12.0, math.log10(0.5)).map(lambda v: 1.0 - 10.0 ** v),
           st.floats(-12.0, 3.0).map(lambda v: -(10.0 ** v))))
@settings(max_examples=200)
def test_n1_radii_match_the_exact_band(u, sign, frac):
    # frac = E / E_cyl: an unduloid from half the cylinder energy to 1e-12
    # below it, a nodoid from -1e-12 to -1e3.  The radii and epsilon, so the
    # unduloid's band width epsilon / H, must hold to 4 eps up to the
    # cylinder; at 1 - E/E_cyl = 1e-12 Brent's roots of f2 were off by 4e-11
    # (4e-5 of the band width) and epsilon from 1 - 4EH in floats by 1.4e-5.
    # x2 - x1 of the two rounded radii cannot be finer than their ulps
    h = sign * 10.0 ** u
    e = frac * cylinder_energy(1, abs(h)) * sign
    x1, x2 = admissible_radii(1, h, e)
    ref1, ref2, epsilon = _n1_band_exact(abs(h), e * sign)
    eps = Decimal(2.0 ** -52)
    assert abs(Decimal(x1) - ref1) <= 4 * eps * ref1
    assert abs(Decimal(x2) - ref2) <= 4 * eps * ref2
    assert abs(Decimal(x2) - Decimal(x1) - (ref2 - ref1)) <= 4 * eps * ref2
    got = classify_module.n1_epsilon(abs(h), e * sign)
    assert abs(Decimal(got) - epsilon) <= 4 * eps * epsilon


# ---------------------------------------------------------------------------
# the ODE's event roots, found by classify._newton on each step's dense output


def _interpolant_exact(coefficients, s0, h, level, u):
    """The dense output component with these coefficients, less level, at
    arclength u, in exact rationals: the polynomial _interpolate rounds."""
    r = (Fraction(u) - Fraction(s0)) / Fraction(h)
    q = 1 - r
    y0, f0, f1, f2, f3, f4, f5, f6 = map(Fraction, coefficients)
    return (((((((f6 * r + f5) * q + f4) * r + f3) * q + f2) * r + f1) * q
             + f0) * r + y0 - Fraction(level))


def test_event_roots_are_within_an_ulp_of_the_interpolants(monkeypatch):
    # every event-root search of a few open ODE solves returns a float
    # whose two neighbours bracket a sign change of the step's interpolant,
    # taken exactly: each root lies within 1 ulp of the interpolant's exact
    # root.  Explicit starts are solved directly, through every turn and
    # critical radius up to the arclength limit
    searches = []
    event_root = profile_ode._event_root

    def spy(piece, j, level, end):
        root = event_root(piece, j, level, end)
        searches.append((piece.coefficients()[j], piece.s0, piece.h, level,
                         root))
        return root

    monkeypatch.setattr(profile_ode, "_event_root", spy)
    for n in (1, 2):
        for h in (0.5, 2.0):
            for sigma in (-2.0, 0.0, 1.0):
                integrate(n, h, initial=ProfileState(0.7 / h, 0.0, sigma),
                          config=SolveConfig(max_arclength=20.0))
    assert len(searches) > 300
    for coefficients, s0, h, level, root in searches:
        below, above = (
            _interpolant_exact(coefficients, s0, h, level,
                               math.nextafter(root, toward))
            for toward in (-math.inf, math.inf))
        assert below * above <= 0, (s0, h, level, root)


def test_newton_rejects_ends_of_one_sign():
    with pytest.raises(ValueError, match="different signs"):
        classify_module._newton(lambda r: (r * r + 1.0, 2.0 * r),
                                lambda r: f"s = {2.0 + r}",
                                -1.0, 2.0, 1.0, 2.0)


@pytest.mark.parametrize("fa, where", [(math.nan, "2.0"), (-1.0, "2.5")],
                         ids=["at-an-end", "inside"])
def test_newton_names_a_nan_point(fa, where):
    # the secant point of the ends (0, -1) and (1, 1) is r = 0.5
    with pytest.raises(ValueError,
                       match=rf"^f is NaN at s = {where}; the root search"):
        classify_module._newton(lambda r: (math.nan, 1.0),
                                lambda r: f"s = {2.0 + r}", 0.0, fa, 1.0, 1.0)
