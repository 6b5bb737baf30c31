"""Command-line interface: exit codes, file formats, and schemas."""

import csv
import io
import json
import logging
import math
import re
import struct
import sys
import warnings
from fractions import Fraction
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heisenberg_cmc.classify as classify_module
import heisenberg_cmc.cli as cli
import heisenberg_cmc.closed_forms as closed_forms
import heisenberg_cmc.profile_ode as pode
import heisenberg_cmc.render as render
import heisenberg_cmc.verify as verify
from heisenberg_cmc.classify import (
    classify,
    cylinder_energy,
    cylinder_radius,
)
from heisenberg_cmc.cli import SWEEP_COLUMNS, main, run_report, sweep_rows
from heisenberg_cmc.closed_forms import (
    catenoid_generating_curve,
    halfperiod_heights,
    sphere_profile,
)
from heisenberg_cmc.errors import NoAdmissibleRadiusError, QuadratureError

from oracles import band_edge_within


def _schema(name):
    path = resources.files("heisenberg_cmc") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strict_loads(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_success(capsys):
    code, out, _ = run_cli(["classify", "--n", "1", "--h", "1", "--e", "0"],
                           capsys)
    assert code == 0
    assert "family: Sphere" in out


def test_exit_code_usage(capsys):
    code, _, err = run_cli(["classify", "--n", "1"], capsys)
    assert code == 1
    code, _, err = run_cli(["bogus-subcommand"], capsys)
    assert code == 1
    code, _, err = run_cli(["verify", "no-such-suite"], capsys)
    assert code == 1
    code, _, err = run_cli(
        ["sweep", "--n", "1", "--h", "1", "--e", "0:1"], capsys)
    assert code == 1


def test_exit_code_invalid_params(capsys):
    # energy beyond the cylinder energy leaves no admissible radius
    code, _, err = run_cli(
        ["classify", "--n", "1", "--h", "0.5", "--e", "0.6"], capsys)
    assert code == 2
    assert "cylinder energy" in err

    code, _, err = run_cli(
        ["trace", "--n", "1", "--h", "0.5", "--x0", "1e-9",
         "--sigma0", "0"], capsys)
    assert code == 2

    code, _, err = run_cli(["trace", "--n", "1", "--h", "0.5"], capsys)
    assert code == 2  # neither --e nor an explicit start


@pytest.mark.parametrize("command", ["classify", "sweep", "render"])
def test_nan_energy_exits_2(command, capsys):
    # used to end in an AssertionError traceback from classify's Descartes
    # sign count
    code, _, err = run_cli(
        [command, "--n", "1", "--h", "0.5", "--e", "nan"], capsys)
    assert code == 2
    assert "E must be finite" in err


def test_infinite_h_exits_2(capsys):
    # used to report a sphere with t2 = 0 and volume 0
    code, out, err = run_cli(
        ["classify", "--n", "1", "--h", "inf", "--e", "0"], capsys)
    assert code == 2
    assert "H must be finite" in err
    assert out == ""


def test_trace_nan_h_explicit_start_exits_2(capsys):
    # used to run forever
    code, _, err = run_cli(
        ["trace", "--n", "1", "--h", "nan", "--x0", "1", "--sigma0", "0"],
        capsys)
    assert code == 2
    assert "finite H" in err


@pytest.mark.parametrize("limit", ["nan", "inf"])
def test_trace_non_finite_arclength_exits_2(limit, capsys):
    # used to run forever, the inf case mirroring half periods without end
    code, _, err = run_cli(
        ["trace", "--n", "1", "--h", "1", "--e", "0.1",
         "--max-arclength", limit], capsys)
    assert code == 2
    assert "max_arclength must be finite" in err


@pytest.mark.parametrize("limit", ["-5", "0"])
def test_trace_non_positive_arclength_exits_2(limit, capsys):
    # -5 used to integrate backwards and then fail in state_at; 0 wrote two
    # identical samples
    code, out, err = run_cli(
        ["trace", "--n", "1", "--h", "1", "--e", "0.1",
         f"--max-arclength={limit}"], capsys)
    assert code == 2
    assert "max_arclength must be finite and positive" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["classify", "--n", "2", "--h", "1e-300", "--e", "1"],
    ["classify", "--n", "3", "--h", "1", "--e=-1e300"],
    ["trace", "--n", "1", "--h", "1", "--x0", "1e200", "--sigma0", "0"],
], ids=["classify-cylinder-energy", "classify-band", "trace-energy"])
def test_float_overflow_exits_2(argv, capsys):
    # each used to end in an OverflowError traceback, exit 1
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: the parameters overflow a float")
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["classify", "--n", "1", "--h", "1e-300", "--e=-1"],
    ["classify", "--n", "1", "--h", "1e-170", "--e=-1"],
    ["render", "--n", "1", "--h", "1e-300", "--e=-1"],
    ["classify", "--n", "1", "--h", "5.68e-296", "--e=-4.68e275"],
], ids=["classify-1e-300", "classify-1e-170", "render", "classify-deep-nodoid"])
def test_n1_half_period_past_underflowing_h2_exits_2(argv, capsys):
    # 4H^2 underflows to 0, and t2 = pi / (4H^2) used to end in a
    # ZeroDivisionError traceback, exit 1
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err == (f"error: the parameters overflow a float (H^2 underflows "
                   f"to 0 at H = {float(argv[4])!r})\n")
    assert out == ""


@pytest.mark.parametrize("h", ["1e-300", "1e-170"])
def test_trace_past_underflowing_n1_h2_exits_2(h, capsys):
    # the half-period series does not resolve, and the ODE fallback starts
    # at x2 = 1/H, where x^2 overflows: its first step was NaN, and the solve
    # never ended
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, out, err = run_cli(
            ["trace", "--n", "1", "--h", h, "--e=-1", "--max-arclength", "5"],
            capsys)
    assert code == 2
    assert err.startswith("error: the parameters overflow a float (the "
                          "profile equation overflows a float at x = ")
    assert out == ""


@pytest.mark.parametrize("argv, cause", [
    (["trace", "--n", "1", "--h", "1e-300", "--e=-1", "--max-arclength", "5"],
     "the profile equation overflows a float at x = "),
    (["classify", "--n", "1", "--h", "1e-155", "--e=-1"],
     "epsilon / H^2 overflows at H = 1e-155"),
    (["render", "--n", "1", "--h", "1e-155", "--e=-1"],
     "epsilon / H^2 overflows at H = 1e-155"),
    (["trace", "--n", "3", "--h", "1e-60", "--e", "0", "--format", "json"],
     "the terms of E overflow at x = 1e+60"),
    (["classify", "--n", "2", "--h", "1e-300", "--e", "1"],
     "the cylinder energy overflows at H = 1e-300"),
    (["classify", "--n", "2", "--h", "1e-200", "--e=-1e200"],
     "x2^3 overflows at x2 = 1.0000000000000001e+200"),
    (["classify", "--n", "2", "--h", "1e100", "--e=-1e200"],
     "the band is narrower than a float resolves: no float lies between "
     "x1 = 1e+25 and x2 = 1e+25"),
    (["classify", "--n", "1", "--h", "9.697742017407323",
      "--e=-6.851539861587087e113"],
     "the band is narrower than a float resolves: no float lies between "
     "x1 = 2.658023284227227e+56 and x2 = 2.6580232842272265e+56"),
    (["classify", "--n", "3", "--h", "1", "--e=-1e300"],
     "the band is narrower than a float resolves"),
    (["classify", "--n", "3", "--h=-2.0696921704666884e-46",
      "--e=-1.6739607329403806e196"],
     "Chebyshev samples of degree 64 underflow to 0"),
], ids=["trace-1e-300", "classify-1e-155", "render-1e-155", "trace-drift",
        "cylinder-energy", "x2-power", "ulp-narrow-band", "ulp-narrow-n1",
        "ulp-narrow-deep", "zero-samples"])
def test_overflow_exits_2_with_the_error_line_alone(argv, cause, capsys):
    # under the CLI's default warning filters.  The trace used to fit its
    # arclength series on non-finite samples up to degree 4096 and print
    # three NumPy RuntimeWarnings (square, rfft, divide) before the ODE
    # fallback refused it; at H = 1e-155, where H^2 is subnormal, the
    # trochoid's span epsilon / H^2 was inf and inf * 0 warned.  The
    # cylinder energy and x2^3 printed Python's errno tuple, which names no
    # quantity.  Where no float lies between x1 and x2, Brent's method in x
    # ran out of iterations (n = 2), and n = 1 ended in "math domain error"
    with warnings.catch_warnings(record=True) as caught:
        warnings.resetwarnings()
        code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert [str(w.message) for w in caught] == []
    assert err.startswith("error: the parameters overflow a float (")
    assert cause in err and err.count("\n") == 1
    assert out == ""


def test_unresolved_series_exits_3_with_the_error_line_alone(capsys):
    # a thin neck whose dt/dtheta spikes past every degree up to 4096; some
    # of its samples are 0, and none may print NumPy's divide warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.resetwarnings()
        code, out, err = run_cli(
            ["classify", "--n", "3", "--h", "3.398348647757604e-47", "--e",
             "6.036020735851016e+39"], capsys)
    assert code == 3
    assert [str(w.message) for w in caught] == []
    assert err == "error: Chebyshev series unresolved at degree 4096\n"
    assert out == ""


def test_sweep_finishes_past_underflowing_n1_h2(capsys):
    code, out, err = run_cli(
        ["sweep", "--n", "1", "--h=1e-300:1:2", "--e=-1:0.1:2"], capsys)
    assert code == 2
    assert err.startswith("error: the parameters overflow a float (n = 1, "
                          "H = 1e-300, E = -1.0: H^2 underflows to 0")
    rows = [dict(zip(SWEEP_COLUMNS, line.split(",")))
            for line in out.splitlines()[1:]]
    assert [(r["h"], r["family"]) for r in rows] == [
        ("1e-300", ""), ("1e-300", ""), ("1", "Nodoid"), ("1", "Unduloid")]
    # the rows that do not underflow keep t2 = pi / (4H^2) to the bit
    assert {r["t2"] for r in rows[2:]} == {"%.17g" % (math.pi / 4.0)}


def test_catenoid_closed_form_note(capsys):
    # the n >= 2 report used to name the n = 1 formula
    for n, curve in ((1, "catenoid_generating_curve"), (2, "catenoid_curve"),
                     (3, "catenoid_curve")):
        code, out, err = run_cli(
            ["classify", "--n", str(n), "--h", "0", "--e", "1"], capsys)
        assert code == 0, err
        assert f"note: closed-form profile: closed_forms.{curve}\n" in out


@pytest.mark.parametrize("e", ["1e-300", "1e-200"])
def test_catenoid_tiny_energy(e, capsys):
    # classify used to divide by zero in the slab integrand, and render's
    # ODE start fell inside the axis margin
    code, out, err = run_cli(
        ["classify", "--n", "2", "--h", "0", "--e", e, "--json"], capsys)
    assert code == 0, err
    report = json.loads(out)
    x1 = report["radii"]["x1"]
    # (x1^2 / 2p) B(1/2, 1/2 - 1/p) at p = 3
    expected = (x1 * x1 / 6.0 * math.gamma(0.5) * math.gamma(1.0 / 6.0)
                / math.gamma(2.0 / 3.0))
    assert report["summary"]["t2"] == pytest.approx(expected, rel=1e-14)
    assert report["diagnostics"]["error_estimates"]["t2"] == 0.0
    code, out, err = run_cli(
        ["render", "--n", "2", "--h", "0", "--e", e], capsys)
    assert code == 0, err
    assert out.count("<polyline") == 1


def test_exit_code_numerical_failure(capsys):
    # reflection needs a critical-radius endpoint; start mid-band and stop
    # at a vertical tangent so neither end qualifies
    code, _, err = run_cli(
        ["trace", "--n", "1", "--h", "1", "--x0", "0.7", "--sigma0", "-2.0",
         "--stop-event", "VerticalTangent", "--reflect", "1"], capsys)
    assert code == 3
    assert "critical" in err


def test_root_search_out_of_iterations_exits_3(capsys, monkeypatch):
    # a root search that runs out of iterations is a numerical failure, not
    # a traceback
    monkeypatch.setattr(classify_module, "_MAXITER", 2)
    code, _, err = run_cli(
        ["classify", "--n", "2", "--h", "1", "--e", "0.05"], capsys)
    assert code == 3
    assert "did not converge in 2 iterations" in err


def test_exit_code_io_failure(capsys):
    code, _, err = run_cli(
        ["classify", "--n", "1", "--h", "1", "--e", "0",
         "--out", "/no-such-directory/report.json"], capsys)
    assert code == 3


# ---------------------------------------------------------------------------
# classify


def test_classify_named_examples(capsys):
    code, out, _ = run_cli(["classify", "--n", "1", "--h", "1", "--e", "0"],
                           capsys)
    assert code == 0 and "Sphere" in out
    code, out, _ = run_cli(["classify", "--n", "1", "--h", "0", "--e", "0"],
                           capsys)
    assert code == 0 and "Hyperplane" in out


def test_classify_report_schema(capsys):
    schema = _schema("report")
    for argv in (
        ["classify", "--n", "1", "--h", "1", "--e", "0"],
        ["classify", "--n", "2", "--h", "0", "--e", "0.7"],
        ["classify", "--n", "1", "--h", "0", "--e", "1"],
        ["classify", "--n", "1", "--h", "0.5", "--e", "0.5"],
        ["classify", "--n", "1", "--h", "0.5", "--e", "0.3"],
        ["classify", "--n", "3", "--h", "1", "--e", "-0.2"],
        ["classify", "--n", "1", "--h", "-1", "--e", "0.1"],
    ):
        code, out, _ = run_cli(argv + ["--json"], capsys)
        assert code == 0
        jsonschema.validate(json.loads(out), schema)


def test_classify_report_spells_non_utf8_argv(tmp_path, capsys):
    # a path byte that is not UTF-8 reaches argv as a lone surrogate
    out = str(tmp_path / "\udcff.json")
    code, _, err = run_cli(["classify", "--n", "1", "--h", "1", "--e", "0",
                            "--json", "--out", out], capsys)
    assert code == 0, err
    with open(out, encoding="utf-8") as handle:
        doc = _strict_loads(handle.read())
    assert doc["command"][-1] == out.replace("\udcff", "\\xff")


def test_classify_report_content():
    report = run_report(["classify"], 1, 0.5, 0.3)
    assert report["family"] == "Unduloid"
    assert report["summary"]["t2"] == pytest.approx(math.pi, abs=1e-9)
    assert report["summary"]["period"] == pytest.approx(2 * math.pi, abs=1e-8)
    assert report["diagnostics"]["error_estimates"]["t2"] < 1e-9

    report = run_report(["classify"], 1, 0.0, 1.0)
    assert report["family"] == "Catenoid"
    assert report["summary"]["t2"] is None  # n = 1: unbounded in t
    assert any("unbounded" in note for note in
               report["diagnostics"]["notes"])

    report = run_report(["classify"], 2, 0.0, 1.0)
    assert report["summary"]["t2"] == pytest.approx(1.2143253239437908,
                                                    rel=1e-10)

    # the mirror profile reports the same magnitudes
    plus = run_report(["classify"], 1, 1.0, -0.1)
    minus = run_report(["classify"], 1, -1.0, 0.1)
    assert minus["family"] == plus["family"] == "Nodoid"
    assert minus["summary"]["t2"] == pytest.approx(plus["summary"]["t2"])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("h", ["0.001", "-0.001"])
def test_classify_large_sphere(n, h, capsys):
    # radius 1/|H| = 1000: the report must not depend on quadrature there
    code, out, err = run_cli(
        ["classify", "--n", str(n), f"--h={h}", "--e", "0", "--json"], capsys)
    assert code == 0, err
    report = json.loads(out)
    jsonschema.validate(report, _schema("report"))
    assert report["family"] == "Sphere"
    estimates = report["diagnostics"]["error_estimates"]
    assert estimates["perimeter"] == estimates["volume"] == 0.0


# admissible periodic points where the band quadratures once failed: a
# QUADPACK roundoff flag, or a false alarm of the raw/regularized cross-check
HALFPERIOD_REGRESSIONS = [
    (1, "0.25", "-0.6052631578947368"),
    (1, "1", "-2.5e-09"),
    (2, "1", "-1.0546875e-09"),
    (3, "0.001", "-66979595336076.836"),
    (3, "1", "-6.697959533607684e-10"),
]


@pytest.mark.parametrize("n, h, e", HALFPERIOD_REGRESSIONS)
def test_classify_halfperiod_regressions(n, h, e, capsys):
    code, out, err = run_cli(
        ["classify", "--n", str(n), f"--h={h}", f"--e={e}", "--json"], capsys)
    assert code == 0, err
    report = json.loads(out)
    t2 = report["summary"]["t2"]
    cls = classify(n, float(h), float(e))
    if n == 1:
        reference = math.pi / (4.0 * float(h) ** 2)
        assert t2 == pytest.approx(reference, rel=1e-12)
    elif cls.x1 >= 1e-3:
        cfg = pode.SolveConfig(stop_event=(pode.EventKind.CRITICAL_RADIUS, 1),
                               rel_tol=1e-12, abs_tol=1e-14,
                               max_arclength=10.0 * t2)
        traj = pode.integrate(n, float(h), e=float(e), config=cfg)
        assert traj.events[-1].kind is pode.EventKind.CRITICAL_RADIUS
        assert t2 == pytest.approx(traj.states[-1, 1], rel=1e-8)


@pytest.mark.parametrize("h", ["4", "10", "100"])
def test_classify_inflection_underflow_exits_cleanly(h, capsys):
    # Brent's inverse-quadratic step on the inflection polynomial divided by
    # a denominator that underflows to 0, and classify died with a
    # ZeroDivisionError traceback.  Run under the CLI's default warning
    # filters: the band cofactor stays positive, so every H resolves its
    # series (exit 0)
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        code, _, err = run_cli(
            ["classify", "--n", "3", "--h", h, "--e", "1e-50"], capsys)
    assert code == 0, err


def test_classify_large_h_neck_holds_to_4_eps(capsys):
    # admissible_radii returned x1 = 0.0 at this H, since Brent's method in
    # x stopped at an absolute 1e-14, and the report exited 3 with "no sign
    # change across the band"; both edges are now searched in log x
    code, out, err = run_cli(["classify", "--n", "3", "--h",
                              "1.7707690497454343e26", "--e",
                              "2.0416154308151617e-134", "--json"], capsys)
    assert code == 0, err
    assert err == ""
    radii = json.loads(out)["radii"]
    rel = Fraction(4 * 2.0 ** -52)
    h, e = 1.7707690497454343e26, 2.0416154308151617e-134
    assert band_edge_within(3, h, e, radii["x1"], rel)
    assert band_edge_within(3, h, e, radii["x2"], rel, outer=True)


@pytest.mark.parametrize("argv", [
    ["--n", "3", "--h", "10", "--e", "1e-50"],
    ["--n", "4", "--h", "1", "--e", "1e-15"],
    ["--n", "2", "--h", "1", "--e", "1e-45"],
    ["--n", "3", "--h", "1", "--e=-1e-75"],
    ["--n", "1", "--h", "1e-20", "--e", "1"],
    ["--n", "1", "--h=-2.15e-57", "--e=-677.6"],
    ["--n", "1", "--h", "3", "--e", "1e-320"],
    ["--n", "1", "--h", "1e300", "--e", "1e-310"],
    ["--n", "2", "--h", "3", "--e", "1e-320"],
    ["--n", "3", "--h", "1e20", "--e", "3.3489797668038396e-102"],
    ["--n", "4", "--h", "100", "--e=-50"],
    ["--n", "4", "--h", "88.17440334258984", "--e=-146.34261514947937"],
])
def test_classify_thin_necks_exit_0_without_warnings(argv, capsys):
    # the first sampled a negative band cofactor near x1 and exited 3 after
    # a NaN RuntimeWarning; at E = 1e-45 the neck radius came out 0.0 (exit
    # 3); at E = -1e-75 the f1 bracket lost its sign change (exit 2); the
    # next three raised from an inflection polynomial underflowed to 0.  At
    # H = 1e20, E = E_cyl / 2, x1 came out 0.0 (exit 3, "x1^5 underflows"),
    # and Brent's method in x ran out of iterations on the two nodoids' x2
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["classify", *argv, "--json"], capsys)
    assert code == 0, err
    radii = json.loads(out)["radii"]
    assert radii["x1"] < radii["x0"] < radii["x2"]


@given(n=st.sampled_from((1, 2, 3)), u=st.floats(-3.0, 3.0),
       sign=st.sampled_from((1.0, -1.0)))
@settings(max_examples=60, deadline=None)
def test_sphere_report_scales_with_h(n, u, sign):
    """P |H|^{2n+1} and V |H|^{2n+2} do not depend on H."""
    h = sign * 10.0 ** u
    unit = run_report(("classify",), n, 1.0, 0.0)["summary"]
    summary = run_report(("classify",), n, h, 0.0)["summary"]
    assert summary["perimeter"] * abs(h) ** (2 * n + 1) == pytest.approx(
        unit["perimeter"], rel=1e-13)
    assert summary["volume"] * abs(h) ** (2 * n + 2) == pytest.approx(
        unit["volume"], rel=1e-13)


# ---------------------------------------------------------------------------
# trace


def _csv_rows(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [[float(v) for v in row] for row in reader]


def test_trace_sphere_matches_closed_form(capsys):
    code, out, _ = run_cli(
        ["trace", "--n", "1", "--h", "1", "--e", "0",
         "--stop-event", "AxisContact"], capsys)
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["s", "x", "t", "sigma"]
    worst = max(abs(t - sphere_profile(1.0, min(x, 1.0)))
                for _, x, t, _ in rows)
    assert worst < 1e-6


def test_trace_cylinder_constant_radius(capsys):
    code, out, _ = run_cli(
        ["trace", "--n", "1", "--h", "0.5", "--e", "0.5",
         "--max-arclength", "5"], capsys)
    assert code == 0
    _, rows = _csv_rows(out)
    assert all(x == pytest.approx(1.0, abs=1e-9) for _, x, _, _ in rows)


def test_trace_catenoid_matches_closed_form(capsys):
    code, out, _ = run_cli(
        ["trace", "--n", "1", "--h", "0", "--e", "1",
         "--max-arclength", "8"], capsys)
    assert code == 0
    _, rows = _csv_rows(out)
    worst = max(abs(x - catenoid_generating_curve(1.0, t)[0])
                for _, x, t, _ in rows)
    assert worst < 1e-6


def test_trace_json_schema_and_reflect(tmp_path, capsys):
    out_file = tmp_path / "sphere.json"
    code, _, _ = run_cli(
        ["trace", "--n", "1", "--h", "1", "--e", "0",
         "--stop-event", "AxisContact", "--reflect", "1",
         "--format", "json", "--out", str(out_file)], capsys)
    assert code == 0
    doc = json.loads(out_file.read_text())
    jsonschema.validate(doc, _schema("trajectory"))
    ts = [row[2] for row in doc["samples"]]
    # reflection closes the sphere cap: t spans the full pole-to-pole height
    assert min(ts) == pytest.approx(-math.pi / 4, abs=1e-5)
    assert max(ts) == pytest.approx(math.pi / 4, abs=1e-5)


def test_trace_csv_roundtrip_precision(capsys):
    code, out, _ = run_cli(
        ["trace", "--n", "1", "--h", "0.5", "--e", "0.3",
         "--stop-event", "CriticalRadius"], capsys)
    assert code == 0
    header, rows = _csv_rows(out)
    traj = cli.canonical_trace(
        1, 0.5, 0.3,
        pode.SolveConfig(stop_event=(pode.EventKind.CRITICAL_RADIUS, 1)))
    assert len(rows) == len(traj.s)
    for row, s, state in zip(rows, traj.s, traj.states):
        assert row[0] == s  # 17 significant digits survive the round trip
        assert tuple(row[1:]) == tuple(state)


def _trace_json(argv, tmp_path, capsys):
    out_file = tmp_path / "trace.json"
    code, _, err = run_cli(
        ["trace", *argv, "--format", "json", "--out", str(out_file)], capsys)
    assert code == 0, err
    return json.loads(out_file.read_text())


def _is_tiling_note(note):
    return note.startswith("periodic: one half period")


@given(n=st.sampled_from((1, 2, 3)), nodoid=st.booleans(),
       sign=st.sampled_from((1.0, -1.0)), h=st.floats(0.5, 1.5),
       spec=st.floats(0.1, 1.0), limit=st.floats(1.0, 30.0),
       stop=st.sampled_from(
           [None] + [("CriticalRadius", k) for k in range(1, 7)]
           + [("VerticalTangent", k) for k in range(1, 5)]))
@settings(max_examples=20, deadline=None)
def test_periodic_trace_matches_direct_solve(n, nodoid, sign, h, spec, limit,
                                             stop, tmp_path_factory):
    # unduloids lie in 0 < E < E_cyl, nodoids at every E < 0
    e = sign * (-spec if nodoid else 0.9 * spec) * cylinder_energy(n, h)
    h = sign * h
    argv = ["--n", str(n), f"--h={h!r}", f"--e={e!r}",
            "--max-arclength", repr(limit)]
    if stop is not None:
        argv += ["--stop-event", stop[0], "--stop-count", str(stop[1])]
    tmp_path = tmp_path_factory.mktemp("trace")
    out_file = tmp_path / "trace.json"
    assert main(["trace", *argv, "--format", "json",
                 "--out", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    config = pode.SolveConfig(
        max_arclength=limit,
        stop_event=None if stop is None else (pode.EventKind(stop[0]), stop[1]))
    # an explicit start takes the direct solve over the whole limit
    direct = pode.integrate(
        n, h, initial=pode.initial_state(classify(n, h, e)), config=config)

    samples = np.asarray(doc["samples"])
    at_event = stop is not None and not any(
        "not reached" in note for note in direct.notes)
    assert samples[-1, 0] == pytest.approx(
        direct.s_end, abs=1e-6 if at_event else 0.0)
    assert [ev["kind"] for ev in doc["events"]] == [
        ev.kind.value for ev in direct.events]
    for ev, ref in zip(doc["events"], direct.events):
        assert ev["s"] == pytest.approx(ref.s, abs=1e-6)
    for s, *state in samples[samples[:, 0] <= direct.s_end]:
        ref = direct.state_at(s)
        # sigma turns fast at a thin neck: allow what a shift of 1e-9 in s
        # changes there
        slack = 1e-9 * abs(pode.rhs(ref, n, h)[2])
        assert np.max(np.abs(np.subtract(state, list(ref)))) <= 5e-6 + slack
    drift = max(abs(pode.energy(row[1:], n, h) - doc["e"]) for row in samples)
    assert drift <= 1e-8 * (1.0 + abs(e))
    assert [note for note in doc["notes"] if not _is_tiling_note(note)] \
        == direct.notes


def test_trace_critical_radius_gaps_are_halfperiod(tmp_path, capsys):
    doc = _trace_json(["--n", "2", "--h", "0.75", "--e", "-0.25"],
                      tmp_path, capsys)
    assert sum(_is_tiling_note(note) for note in doc["notes"]) == 1
    assert doc["samples"][-1][0] == 50.0
    heights = [ev["state"][1] for ev in doc["events"]
               if ev["kind"] == "CriticalRadius"]
    t2 = halfperiod_heights(2, 0.75, -0.25)[1].value
    assert len(heights) > 10
    assert np.max(np.abs(np.abs(np.diff(heights)) - t2)) <= 1e-8


def test_trace_stop_count_needs_stop_event(capsys):
    # a count alone used to be dropped, and the trace ran to --max-arclength
    argv = ["trace", "--n", "1", "--h", "1", "--e", "-0.1"]
    code, out, err = run_cli([*argv, "--stop-count", "3"], capsys)
    assert code == 1
    assert out == ""
    assert "--stop-count needs --stop-event" in err
    # an event alone stops at its first occurrence
    code, alone, _ = run_cli([*argv, "--stop-event", "CriticalRadius"], capsys)
    assert code == 0
    code, first, _ = run_cli([*argv, "--stop-event", "CriticalRadius",
                              "--stop-count", "1"], capsys)
    assert code == 0
    assert alone == first
    _, rows = _csv_rows(alone)
    traj = pode.integrate(1, 1.0, e=-0.1, config=pode.SolveConfig(
        stop_event=(pode.EventKind.CRITICAL_RADIUS, 1)))
    assert rows[-1][0] == pytest.approx(traj.s_end, abs=1e-6)
    assert traj.s_end < 50.0


def test_trace_fallback_to_the_ode_is_logged(monkeypatch, caplog, capsys):
    def fail(cls, config):
        raise QuadratureError("series unresolved at degree 4096")

    monkeypatch.setattr(cli, "canonical_trajectory", fail)
    config = pode.SolveConfig(max_arclength=2.0)
    with caplog.at_level(logging.INFO, logger="heisenberg_cmc"):
        traj = cli.canonical_trace(1, 1.0, 0.1, config)
    assert traj.s_end == 2.0
    assert [rec.levelno for rec in caplog.records] == [logging.INFO]
    message = caplog.records[0].getMessage()
    assert message.startswith("n = 1, H = 1.0, E = 0.1: tracing by the ODE")
    assert "QuadratureError: series unresolved at degree 4096" in message
    # stderr stays clean unless INFO is enabled
    caplog.clear()
    code, _, err = run_cli(["trace", "--n", "1", "--h", "1", "--e", "0.1",
                            "--max-arclength", "2"], capsys)
    assert code == 0
    assert err == ""


def test_trace_reflect_after_stop_count(tmp_path, capsys):
    argv = ["--n", "1", "--h", "1", "--e", "-0.1",
            "--stop-event", "CriticalRadius", "--stop-count", "3"]
    cut = _trace_json(argv, tmp_path, capsys)
    doc = _trace_json([*argv, "--reflect", "1"], tmp_path, capsys)
    s_cut = cut["samples"][-1][0]
    t_cut = cut["samples"][-1][2]
    kinds = [ev["kind"] for ev in cut["events"]]
    assert kinds.count("CriticalRadius") == 3
    assert doc["samples"][-1][0] == pytest.approx(2.0 * s_cut, rel=1e-12)
    # the mirror at the third critical radius doubles the height reached
    assert doc["samples"][-1][2] == pytest.approx(2.0 * t_cut, rel=1e-12)
    assert len(doc["samples"]) == 2 * len(cut["samples"]) - 1


# the two jittered H values are where projecting onto energy(initial_state)
# instead of the requested E turns the sphere back short of the axis
@pytest.mark.parametrize("n, h", [(2, 1.0), (3, 1.0),
                                  (2, 1.0475908149008875),
                                  (3, 0.9569630462633789)])
def test_trace_sphere_reaches_axis(n, h, tmp_path, capsys):
    doc = _trace_json(["--n", str(n), f"--h={h!r}", "--e", "0",
                       "--stop-event", "AxisContact"], tmp_path, capsys)
    jsonschema.validate(doc, _schema("trajectory"))
    assert [ev["kind"] for ev in doc["events"]] == ["AxisContact"]
    assert not any("not reached" in note for note in doc["notes"])
    assert len(doc["samples"]) < 200
    for _, x, t, _ in doc["samples"]:
        assert abs(t - sphere_profile(h, min(x, 1.0 / h))) <= 1e-6
    diag = doc["diagnostics"]
    assert diag["engine"] == "closed-form"
    assert diag["rhs_evals"] == diag["steps"] == diag["retries"] == 0
    assert diag["energy_correction"] == 0.0
    assert diag["energy_drift"] <= 1e-15
    # the ODE, which the trace no longer runs, reaches the axis as well
    traj = pode.integrate(n, h, e=0.0, config=pode.SolveConfig(
        stop_event=(pode.EventKind.AXIS_CONTACT, 1)))
    assert [ev.kind for ev in traj.events] == [pode.EventKind.AXIS_CONTACT]
    assert not any("not reached" in note for note in traj.notes)
    assert len(traj.s) < 200
    for x, t, _ in traj.states:
        assert abs(t - sphere_profile(h, min(x, 1.0 / h))) <= 1e-6
    diag = pode.trajectory_to_json(traj)["diagnostics"]
    assert diag["engine"] == "ode"
    assert diag["retries"] == 0
    assert diag["steps"] == len(traj.s) - 1
    assert diag["rhs_evals"] > 12 * diag["steps"]
    assert 0.0 < diag["energy_correction"] <= 1e-8


# a downward start inside an n >= 2 hyperplane: cos(-pi/2) = 6.1e-17 used to
# make E ~ 1e-17, a catenoid whose waist ~2e-6 sits just outside the axis
# margin; n = 2 then exited 3 at that neck and n = 3 turned at x = 3.3e-4
# and ran back out to x = 49.5
@pytest.mark.parametrize("n", [2, 3])
def test_trace_vertical_ray_reaches_axis(n, tmp_path, capsys):
    doc = _trace_json(["--n", str(n), "--h", "0", "--x0", "0.5",
                       f"--sigma0={-math.pi / 2!r}"], tmp_path, capsys)
    assert doc["e"] == 0.0
    assert [ev["kind"] for ev in doc["events"]] == ["AxisContact"]
    s_end, x_end, t_end, sigma_end = doc["samples"][-1]
    assert s_end == doc["events"][0]["s"] == pytest.approx(0.5 - 1e-6,
                                                            abs=1e-12)
    assert (x_end, t_end, sigma_end) == pytest.approx(
        (1e-6, 0.0, -math.pi / 2), abs=1e-12)
    assert all(x <= 0.5 for _, x, _, _ in doc["samples"])


def test_trace_diagnostics_are_optional(tmp_path, capsys):
    doc = _trace_json(["--n", "1", "--h", "0.5", "--e", "0.3",
                       "--stop-event", "CriticalRadius", "--reflect", "1"],
                      tmp_path, capsys)
    assert set(doc["diagnostics"]) == {"engine", "energy_drift", "rhs_evals",
                                       "steps", "energy_correction", "retries",
                                       "rejected_steps", "rel_tol"}
    # a trace written before the diagnostics existed still loads
    del doc["diagnostics"]
    jsonschema.validate(doc, _schema("trajectory"))
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    code, out, _ = run_cli(["render", "--trace", str(old)], capsys)
    assert code == 0
    assert "<polyline" in out


def test_trace_off_band_turn_exits_3(monkeypatch, capsys):
    # a turn away from every band root is refused as a numerical failure;
    # here the roots are moved off the unduloid's true critical radii, and
    # the trace takes the ODE fallback of a series that does not resolve
    monkeypatch.setattr(pode, "_band_roots", lambda c: (123.0,))

    def unresolved(*args):
        raise QuadratureError("series unresolved")

    monkeypatch.setattr(cli, "canonical_trajectory", unresolved)
    code, _, err = run_cli(["trace", "--n", "1", "--h", "0.5", "--e", "0.3",
                            "--stop-event", "CriticalRadius"], capsys)
    assert code == 3
    assert "off the band roots" in err


def test_trace_thin_neck_turns_on_band_roots(tmp_path, capsys):
    # n = 3 nodoid with neck x1 = 5.7e-3: sigma turns so fast there that the
    # located root of sin sigma is ~4e-9 off; the event records sin = 0, so
    # the half period mirrors, and every turn sits on a band root
    n, h, e = 3, 0.44641783236878757, -6.239398605445121e-12
    doc = _trace_json(["--n", "3", f"--h={h!r}", f"--e={e!r}",
                       "--max-arclength", "20"], tmp_path, capsys)
    c = classify(n, h, e)
    turns = [ev["state"] for ev in doc["events"]
             if ev["kind"] == "CriticalRadius"]
    assert len(turns) >= 3
    for x, _, sigma in turns:
        assert min(abs(x - c.x1), abs(x - c.x2)) <= 1e-6 * x
        assert math.sin(sigma) == pytest.approx(0.0, abs=1e-15)


def test_trace_refuses_tiling_past_the_sample_cap(monkeypatch, capsys):
    # n = 1, H = 2000, E = 0.5 E_cyl: s = 50 holds 141,422 half periods,
    # which the closed-form trace would tile to 4.9M samples; it refuses
    # before tiling, and exits 2 like other parameters the program cannot
    # serve (test_profile_ode checks integrate's ODE tiling)
    def tiled(*args, **kwargs):
        raise AssertionError("the tiling ran")

    e = repr(0.5 * cylinder_energy(1, 2000.0))
    argv = ["trace", "--n", "1", "--h", "2000", f"--e={e}"]
    monkeypatch.setattr(pode, "_tiled", tiled)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert "samples, more than the 4194304 allowed" in err
    assert "--max-arclength" in err
    # the limit the message suggests lowering traces
    monkeypatch.undo()
    code, out, _ = run_cli(argv + ["--max-arclength", "0.5"], capsys)
    assert code == 0
    assert out.count("\n") > 10000


def test_trace_reflect_refuses_past_the_sample_cap(monkeypatch, capsys):
    # 2^17 copies of the 41-sample half period would take 5,373,953
    # samples; the count refuses them before anything is built
    def tiled(*args, **kwargs):
        raise AssertionError("the tiling ran")

    monkeypatch.setattr(pode, "_tiled", tiled)
    code, out, err = run_cli(
        ["trace", "--n", "1", "--h", "1", "--e=-0.1", "--stop-event",
         "CriticalRadius", "--reflect", "17"], capsys)
    assert (code, out) == (2, "")
    assert "5373953 samples, more than the 4194304 allowed" in err
    assert "--reflect" in err


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("h", [1.5, -1.5])
def test_trace_cylinder_is_the_closed_form_line(n, h, tmp_path, capsys):
    # the ODE's rounding let sin sigma dither about 0 along these cylinders
    # and record spurious turns (135 for n = 1, 26 for n = 3 at H = 1.5);
    # the closed form is the line x = x_cyl, t = s, sigma = 0, mirrored to
    # (x, -s, pi) for H < 0
    e = math.copysign(cylinder_energy(n, abs(h)), h)
    doc = _trace_json(["--n", str(n), f"--h={h!r}", f"--e={e!r}"],
                      tmp_path, capsys)
    assert doc["events"] == []
    assert doc["diagnostics"]["engine"] == "closed-form"
    assert pode.CYLINDER_NOTE in doc["notes"]
    up = h > 0.0
    for s, x, t, sigma in doc["samples"]:
        assert x == cylinder_radius(n, abs(h))
        assert (t, sigma) == ((s, 0.0) if up else (-s, math.pi))
    assert doc["samples"][-1][0] == 50.0


def test_trace_unresolvable_neck_exits_3(capsys):
    # a nodoid neck of radius ~1.4e-6 turns sigma by pi within the spacing of
    # floats in s; the solver gives up, and that is a numerical failure, not
    # a traceback.  The canonical start (E = -1.4288568145075227e-06) is
    # traced from closed forms; the explicit start at its outer radius x2
    # still takes the ODE
    code, _, err = run_cli(["trace", "--n", "1", "--h=0.5160190784461397",
                            "--x0=1.9379142731080432", "--sigma0", "0"],
                           capsys)
    assert code == 3
    assert "integration failed" in err


def test_trace_drift_message_names_rounding(capsys):
    # n = 3, small H: the terms of E reach ~6e7, so rounding alone is ~1e-8,
    # the size of the drift bound; the gate still fails, and says why.  The
    # start is two ulps inside the outer radius x2 = 35.703161293988195 of
    # the nodoid E = -0.0008021832421422288, explicit so that the ODE runs.
    # The drift reads one or more ulps of the terms (7.5e-9, 1.5e-8, ...)
    # depending on rounding, which any change to the solver's arithmetic
    # reshuffles among nearby starts; from this start it reads two
    code, out, err = run_cli(
        ["trace", "--n", "3", "--h=0.02800872426336685",
         "--x0=35.70316129398818", "--sigma0", "0", "--max-arclength", "50"],
        capsys)
    assert code == 3
    assert out == ""
    assert "energy drifted by" in err
    match = re.search(r"the terms of E reach (\S+), so their rounding alone "
                      r"is ~(\S+)\n", err)
    assert match, err
    terms, rounding = float(match[1]), float(match[2])
    assert 5e7 < terms < 7e7
    assert rounding == pytest.approx(terms * np.finfo(float).eps, rel=1e-3)


def _critical_gaps(doc, start=None):
    """|t| gained between CriticalRadius events, and from the start height
    when one is given."""
    heights = [ev["state"][1] for ev in doc["events"]
               if ev["kind"] == "CriticalRadius"]
    return np.abs(np.diff(([] if start is None else [start]) + heights))


def test_trace_small_h_n3_nodoid_from_closed_form(tmp_path, capsys):
    # the canonical start of the case above: the closed form carries no drift
    # gate, and its samples sit on the level set to the rounding of E's terms
    n, h, e = 3, 0.02800872426336685, -0.0008021832421422288
    argv = ["--n", "3", f"--h={h!r}", f"--e={e!r}"]
    doc = _trace_json([*argv, "--max-arclength", "50"], tmp_path, capsys)
    assert doc["diagnostics"]["engine"] == "closed-form"
    samples = np.asarray(doc["samples"])
    assert samples[-1, 0] == 50.0
    x = samples[:, 1]
    residual = max(abs(pode.energy(row[1:], n, h) - e) for row in samples)
    bound = 4.0 * np.finfo(float).eps * float(np.max(abs(h) * x ** (2 * n)))
    assert residual <= bound
    assert doc["diagnostics"]["energy_drift"] == residual
    # a half period rises t2 ~ 1001 over an arclength of ~1008
    doc = _trace_json([*argv, "--max-arclength", "4000", "--stop-event",
                       "CriticalRadius", "--stop-count", "3"],
                      tmp_path, capsys)
    t2 = halfperiod_heights(n, h, e)[1].value
    gaps = _critical_gaps(doc, start=0.0)
    assert len(gaps) == 3
    assert np.max(np.abs(gaps - t2)) <= 1e-8 * t2


@pytest.mark.parametrize("h, e", [("1", "-2.5e-06"),
                                  ("0.5160190784461397",
                                   "-1.4288568145075227e-06")])
def test_trace_n1_thin_neck_from_closed_form(h, e, tmp_path, capsys):
    # nodoid necks the ODE cannot resolve (x1 ~ 1e-6) trace from the series;
    # for n = 1 every half period rises t2 = pi / (4 H^2)
    doc = _trace_json(["--n", "1", f"--h={h}", f"--e={e}"], tmp_path, capsys)
    assert doc["diagnostics"]["engine"] == "closed-form"
    t2 = halfperiod_heights(1, float(h), float(e))[1].value
    assert t2 == pytest.approx(math.pi / (4.0 * float(h) ** 2), rel=1e-9)
    gaps = _critical_gaps(doc)
    assert len(gaps) >= 2
    assert np.max(np.abs(gaps - t2)) <= 1e-8 * t2


def test_trace_unresolved_series_falls_back_to_the_ode(tmp_path, capsys):
    # n = 2 unduloid at 1e-8 E_cyl: the arclength series of its thin neck
    # needs a degree above 4096, so the trace takes the ODE
    doc = _trace_json(["--n", "2", "--h", "1", "--e=1.0546875e-09"],
                      tmp_path, capsys)
    assert doc["diagnostics"]["engine"] == "ode"
    assert doc["diagnostics"]["rhs_evals"] > 0


def test_trace_unduloid_neck_inside_axis_margin_exits_2(capsys):
    # n = 1, H = 1: x1 ~ E = 1e-7 lies inside the axis margin 1e-6
    assert classify(1, 1.0, 1e-7).x1 < 1e-6
    code, out, err = run_cli(["trace", "--n", "1", "--h", "1", "--e=1e-07"],
                             capsys)
    assert code == 2
    assert out == ""
    assert "is inside the axis margin 1e-06" in err


@given(n=st.sampled_from((1, 2, 3)), sign=st.sampled_from((1.0, -1.0)),
       h=st.floats(0.25, 4.0),
       limit=st.one_of(st.none(), st.floats(0.05, 5.0)))
@settings(max_examples=20, deadline=None)
def test_sphere_trace_matches_direct_solve(n, sign, h, limit,
                                           tmp_path_factory):
    # stop at the axis, or at a random arclength that may cut the curve
    # short of it.  The reference is integrate's canonical sphere, a direct
    # solve from the equator onto E = 0: an explicit equator start projects
    # onto the rounding energy of its state, and for n >= 2 that turns some
    # spheres back short of the axis
    h *= sign
    argv = ["--n", str(n), f"--h={h!r}", "--e", "0"]
    if limit is None:
        argv += ["--stop-event", "AxisContact"]
        config = pode.SolveConfig(stop_event=(pode.EventKind.AXIS_CONTACT, 1))
    else:
        argv += ["--max-arclength", repr(limit)]
        config = pode.SolveConfig(max_arclength=limit)
    out_file = tmp_path_factory.mktemp("trace") / "trace.json"
    assert main(["trace", *argv, "--format", "json",
                 "--out", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    direct = pode.integrate(n, h, e=0.0, config=config)
    assert direct.stats.rhs_evals > 0
    samples = np.asarray(doc["samples"])
    assert samples[-1, 0] == pytest.approx(direct.s_end, abs=1e-6)
    assert [ev["kind"] for ev in doc["events"]] == [
        ev.kind.value for ev in direct.events]
    for ev, ref in zip(doc["events"], direct.events):
        assert ev["s"] == pytest.approx(ref.s, abs=1e-6)
        assert np.max(np.abs(np.subtract(ev["state"], list(ref.state)))) \
            <= 5e-6
    for s, *state in samples[samples[:, 0] <= direct.s_end]:
        ref = direct.state_at(s)
        assert np.max(np.abs(np.subtract(state, list(ref)))) <= 5e-6
    # the closed form has no solver to retry
    assert doc["notes"] == [note for note in direct.notes
                            if not note.endswith("at tighter tolerance")]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trace_hyperplane_has_no_vertical_tangent(n, capsys):
    # the ray is vertical everywhere; cos sigma must not dither across 0
    code, out, _ = run_cli(["trace", "--n", str(n), "--h", "0", "--e", "0",
                            "--max-arclength", "5", "--format", "json"],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    assert not [ev for ev in doc["events"] if ev["kind"] == "VerticalTangent"]
    assert all(row[2] == 0.0 for row in doc["samples"])


# (trace arguments, the same trajectory solved in-process)
EXPORT_CASES = {
    "periodic": (
        ["--n", "1", "--h", "0.5", "--e", "0.3"],
        lambda: cli.canonical_trace(1, 0.5, 0.3, pode.SolveConfig())),
    "sphere": (
        ["--n", "1", "--h", "1", "--e", "0", "--stop-event", "AxisContact"],
        lambda: cli.canonical_trace(1, 1.0, 0.0, pode.SolveConfig(
            stop_event=(pode.EventKind.AXIS_CONTACT, 1)))),
    "catenoid": (
        ["--n", "1", "--h", "0", "--e", "1", "--max-arclength", "8"],
        lambda: pode.integrate(1, 0.0, e=1.0, config=pode.SolveConfig(
            max_arclength=8.0))),
    "catenoid-n2": (
        ["--n", "2", "--h", "0", "--e", "0.5"],
        lambda: pode.integrate(2, 0.0, e=0.5)),
    "explicit": (
        ["--n", "1", "--h", "1", "--x0", "0.7", "--sigma0", "-2.0",
         "--stop-event", "VerticalTangent"],
        lambda: pode.integrate(
            1, 1.0, initial=pode.ProfileState(0.7, 0.0, -2.0),
            config=pode.SolveConfig(
                stop_event=(pode.EventKind.VERTICAL_TANGENT, 1)))),
}


@pytest.mark.parametrize("case", sorted(EXPORT_CASES))
def test_trace_json_is_one_line_of_exact_samples(case, capsys):
    argv, solve = EXPORT_CASES[case]
    code, out, err = run_cli(["trace", *argv, "--format", "json"], capsys)
    assert code == 0, err
    assert out.endswith("\n") and out.count("\n") == 1
    doc = _strict_loads(out)
    jsonschema.validate(doc, _schema("trajectory"))
    traj = solve()
    assert doc == pode.trajectory_to_json(traj)
    samples = np.array(doc["samples"])
    expected = np.column_stack((traj.s, traj.states))
    assert samples.dtype == expected.dtype
    assert samples.shape == expected.shape
    assert samples.tobytes() == expected.tobytes()


def _per_sample_csv(traj):
    """trajectory_to_csv as it formatted one zipped sample at a time."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["s", "x", "t", "sigma"])
    for s, (x, t, sig) in zip(traj.s, traj.states):
        writer.writerow(["%.17g" % v for v in (s, x, t, sig)])
    return buffer.getvalue()


@pytest.mark.parametrize("case",
                         ["sphere", "periodic", "catenoid", "explicit"])
def test_trace_csv_matches_per_sample_rows(case, capsys):
    argv, solve = EXPORT_CASES[case]
    code, out, err = run_cli(["trace", *argv], capsys)
    assert code == 0, err
    assert out == _per_sample_csv(solve())


# one process, parser built once: no call may see state an earlier call left
PARSER_SEQUENCE = (
    ["trace", "--n", "1", "--h", "0.5", "--e", "0.3", "--max-arclength", "3",
     "--format", "json"],
    ["trace", "--n", "1", "--h", "0.5", "--e", "0.3", "--max-arclength", "3"],
    ["classify", "--n", "1"],
    ["classify", "--n", "1", "--h", "1", "--e", "0"],
)


def test_main_calls_leak_no_parser_state(capsys):
    warm = [run_cli(argv, capsys) for argv in PARSER_SEQUENCE]
    fresh = []
    for argv in PARSER_SEQUENCE:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(argv, capsys))
    assert warm == fresh
    assert [code for code, _, _ in warm] == [0, 0, 1, 0]
    assert json.loads(warm[0][1])["samples"]
    assert warm[1][1].startswith("s,x,t,sigma\r\n")
    assert "required" in warm[2][2]
    assert "family: Sphere" in warm[3][1]


# ---------------------------------------------------------------------------
# render


def test_render_gallery_cli(tmp_path, capsys):
    out_file = tmp_path / "gallery.svg"
    code, _, _ = run_cli(
        ["render", "--panel", "all", "--n", "1", "--out", str(out_file)],
        capsys)
    assert code == 0
    svg = out_file.read_text()
    assert svg.count('<svg x="') == 6
    code, out, _ = run_cli(["render", "--panel", "all", "--n", "1"], capsys)
    assert out == svg  # stdout and file emission agree byte for byte


def test_render_single_family(capsys):
    code, out, _ = run_cli(
        ["render", "--n", "1", "--h", "1", "--e", "-0.1"], capsys)
    assert code == 0
    assert ">Nodoid</text>" in out
    assert 'viewBox="0 0 800 600"' in out


def test_render_rejects_truncated_half_period(capsys):
    # the half period comes from its series, with no arclength limit to
    # exceed: the unduloid is drawn whole
    code, out, _ = run_cli(
        ["render", "--n", "1", "--h", "0.5", "--e", "0.3"], capsys)
    assert code == 0
    assert ">Unduloid</text>" in out


def test_render_long_half_period(capsys):
    # t2 = pi / (4 H^2) ~ 314: the limit follows the half period's heights
    code, out, _ = run_cli(
        ["render", "--n", "1", "--h", "0.05", "--e", "0.01"], capsys)
    assert code == 0
    assert ">Unduloid</text>" in out
    line = render.family_polyline(classify(1, 0.05, 0.01))
    assert line[-1][1] == pytest.approx(math.pi / 0.05**2, rel=1e-8)


def _count_classify(monkeypatch):
    """Route every module's binding of classify through a counter; returns
    the list of the calls' arguments."""
    calls = []

    def counted(*args):
        calls.append(args)
        return classify(*args)

    for module in (cli, closed_forms, pode, render, verify):
        monkeypatch.setattr(module, "classify", counted)
    return calls


@pytest.mark.parametrize("h, e", [(0.7, 0.05), (-0.7, -0.05)])
def test_render_classifies_once(monkeypatch, capsys, h, e):
    calls = _count_classify(monkeypatch)
    code, out, _ = run_cli(
        ["render", "--n", "2", f"--h={h!r}", f"--e={e!r}"], capsys)
    assert code == 0
    assert ">Unduloid</text>" in out
    assert calls == [(2, h, e)]


@pytest.mark.parametrize("h, e", [(1.0, -0.2), (-1.0, 0.2)])
def test_closed_form_trace_classifies_once(monkeypatch, tmp_path, capsys,
                                           h, e):
    calls = _count_classify(monkeypatch)
    doc = _trace_json(["--n", "3", f"--h={h!r}", f"--e={e!r}"], tmp_path,
                      capsys)
    assert doc["diagnostics"]["engine"] == "closed-form"
    assert calls == [(3, h, e)]


def test_render_requires_selector(capsys):
    code, _, err = run_cli(["render", "--n", "1"], capsys)
    assert code == 2
    assert "--panel" in err


def test_render_trace_file(tmp_path, capsys):
    trace_file = tmp_path / "curve.json"
    code, _, _ = run_cli(
        ["trace", "--n", "1", "--h", "0.5", "--e", "0.3", "--format", "json",
         "--out", str(trace_file)], capsys)
    assert code == 0
    code, out, _ = run_cli(["render", "--trace", str(trace_file)], capsys)
    assert code == 0
    assert "<polyline" in out
    code, out2, _ = run_cli(["render", "--trace", str(trace_file)], capsys)
    assert out2 == out


def test_render_trace_csv_default_format(tmp_path, capsys):
    # the trace command writes CSV by default; render must accept it back
    trace_file = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        ["trace", "--n", "1", "--h", "0.5", "--e", "0.3",
         "--out", str(trace_file)], capsys)
    assert code == 0
    code, out, _ = run_cli(["render", "--trace", str(trace_file)], capsys)
    assert code == 0
    assert "<polyline" in out and "curve.csv" in out


def test_render_trace_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "junk.csv"
    bad.write_text("a,b\n1,2\n", encoding="utf-8")
    code, _, err = run_cli(["render", "--trace", str(bad)], capsys)
    assert code == 2
    assert "x and t columns" in err
    short = tmp_path / "short.json"
    short.write_text('{"n": 1, "h": 1, "samples": [[0, 1], [1, 2]]}',
                     encoding="utf-8")
    code, _, err = run_cli(["render", "--trace", str(short)], capsys)
    assert code == 2
    assert "samples need s, x, t" in err
    # a non-finite sample used to draw every vertex at NaN, exit 0
    for name, text in [
        ("null.json", '{"n": 1, "h": 1, "samples": [[0, null, 1], [1, 2, 3]]}'),
        ("nan.json", '{"n": 1, "h": 1, "samples": [[0, NaN, 1], [1, 2, 3]]}'),
        ("nan.csv", "s,x,t\n0,nan,1\n1,2,3\n"),
        # NumPy's dtype=float would parse "1.5"; a sample must be a number
        ("str.json", '{"n": 1, "h": 1, "samples": [[0, "1.5", 1], [1, 2, 3]]}'),
        ("ragged.json", '{"n": 1, "h": 1, "samples": [[0, [1], 1], [1, 2, 3]]}'),
        ("nested.json", '{"n": 1, "h": 1, "samples": [[0, [1], [2]]]}'),
    ]:
        bad = tmp_path / name
        bad.write_text(text, encoding="utf-8")
        code, out, err = run_cli(["render", "--trace", str(bad)], capsys)
        assert code == 2, name
        assert "samples must be finite numbers" in err
        assert out == ""


@pytest.mark.parametrize("samples", ["5", "true"])
def test_render_trace_samples_must_be_a_list(samples, tmp_path, capsys):
    # a number or a boolean used to end in a TypeError traceback, exit 1
    bad = tmp_path / "scalar.json"
    bad.write_text('{"n": 1, "h": 1, "samples": %s}' % samples,
                   encoding="utf-8")
    code, out, err = run_cli(["render", "--trace", str(bad)], capsys)
    assert code == 2
    assert err == f"error: {bad}: trace samples need s, x, t\n"
    assert out == ""


# (n, H, E, stop event) of the traces render --trace reads back
LOADER_CASES = {
    "sphere-n1": (1, 1.0, 0.0, pode.EventKind.AXIS_CONTACT),
    "sphere-n2": (2, 1.0, 0.0, pode.EventKind.AXIS_CONTACT),
    "sphere-n3": (3, 1.0, 0.0, pode.EventKind.AXIS_CONTACT),
    "unduloid": (2, 1.0, 0.05, None),
    "nodoid": (2, 1.0, -0.1, None),
    "catenoid-n2": (2, 0.0, 0.5, None),
}


def _saved_trace(case, tmp_path, capsys, fmt):
    n, h, e, stop = LOADER_CASES[case]
    argv = ["trace", "--n", str(n), "--h", repr(h), "--e", repr(e)]
    if stop is not None:
        argv += ["--stop-event", stop.value]
    path = tmp_path / f"{case}.{fmt}"
    code, _, err = run_cli([*argv, "--format", fmt, "--out", str(path)],
                           capsys)
    assert code == 0, err
    return path


@pytest.mark.parametrize("case", sorted(LOADER_CASES))
def test_render_trace_draws_the_saved_samples(case, tmp_path, capsys):
    n, h, e, stop = LOADER_CASES[case]
    config = pode.SolveConfig(stop_event=None if stop is None else (stop, 1))
    traj = cli.canonical_trace(n, h, e, config)
    json_file = _saved_trace(case, tmp_path, capsys, "json")
    code, out, err = run_cli(["render", "--trace", str(json_file)], capsys)
    assert code == 0, err
    assert out == render.render_panel([traj.states[:, :2]],
                                      f"trace (n = {n}, H = {h:.6g})")
    # %.17g round-trips every float, so the CSV draws the same points
    csv_file = _saved_trace(case, tmp_path, capsys, "csv")
    code, out_csv, err = run_cli(["render", "--trace", str(csv_file)], capsys)
    assert code == 0, err
    points = re.compile(r'points="([^"]*)"')
    assert points.findall(out_csv) == points.findall(out)


def test_render_trace_parses_written_files_with_orjson(tmp_path, capsys,
                                                       monkeypatch):
    # json is the fallback for files orjson refuses; a file trace writes
    # must not reach it
    json_file = _saved_trace("unduloid", tmp_path, capsys, "json")

    def refuse(*args, **kwargs):
        raise AssertionError("render --trace fell back to json")

    monkeypatch.setattr(cli.json, "load", refuse)
    monkeypatch.setattr(cli.json, "loads", refuse)
    code, out, err = run_cli(["render", "--trace", str(json_file)], capsys)
    assert code == 0, err
    assert "<polyline" in out


def test_render_trace_reads_x_and_t_of_rows_of_any_length(tmp_path, capsys):
    trace_file = tmp_path / "rows.json"
    trace_file.write_text(
        '{"n": 1, "h": 1, "samples": [[0, 1, 2], [1, 2, 3, 4, 5], '
        '[2, 3.5, 1, 0]]}', encoding="utf-8")
    code, out, err = run_cli(["render", "--trace", str(trace_file)], capsys)
    assert code == 0, err
    assert out == render.render_panel([[(1, 2), (2, 3), (3.5, 1)]],
                                      "trace (n = 1, H = 1)")


# ---------------------------------------------------------------------------
# verify


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(
        ["verify", "classification", "--json", "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("verify"))
    assert doc["passed"] is True
    assert doc["seed"] == 7


def test_verify_seed_is_bounded_to_64_bits(capsys):
    # NumPy takes any seed >= 0, the JSON writer integers below 2^64
    last = 2 ** 64 - 1
    code, out, err = run_cli(
        ["verify", "classification", "--json", f"--seed={last}"], capsys)
    assert code == 0, err
    assert _strict_loads(out)["seed"] == last
    for seed in (2 ** 64, -1):
        code, out, err = run_cli(
            ["verify", "classification", "--json", f"--seed={seed}"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: the seed must be in [0, 2^64), got {seed}\n"


def test_verify_writes_a_nan_error_as_null(monkeypatch, capsys):
    def nan_check(checks, rng, solved):
        verify._check(checks, "nan-check", math.nan, 1e-9)

    monkeypatch.setitem(verify._SUITE_BODIES, "classification", nan_check)
    code, out, err = run_cli(["verify", "classification", "--json"], capsys)
    assert code == 3, err
    doc = _strict_loads(out)
    jsonschema.validate(doc, _schema("verify"))
    assert doc["checks"] == [{"name": "nan-check", "passed": False,
                              "error": None, "tolerance": 1e-9,
                              "detail": ""}]
    assert doc["passed"] is False


def test_verify_human_output(capsys):
    code, out, _ = run_cli(["verify", "measures"], capsys)
    assert code == 0
    assert "suite 'measures'" in out
    assert "passed" in out
    assert "FAIL" not in out


def test_verify_detects_broken_dynamics(monkeypatch, capsys):
    # flip the sign of the turning-rate term: every integration drifts, the
    # retry ladder cannot save it, and the energy suite must go red
    monkeypatch.setattr(pode, "_SIGMA_PRIME",
                        pode._SIGMA_PRIME + "\ndsigma = -dsigma")
    code, out, _ = run_cli(["verify", "energy"], capsys)
    assert code == 3
    assert "FAIL" in out


def test_verify_closed_form_trace_check(monkeypatch):
    def check():
        report = verify.run_suite("closed-forms")
        return {c["name"]: c for c in report["checks"]}[
            "closed-form-trace-vs-ode"]

    assert check()["passed"]
    # an arclength series off by 1e-5 moves every periodic event
    orig = closed_forms._HalfPeriod.arclength
    monkeypatch.setattr(closed_forms._HalfPeriod, "arclength",
                        lambda self, theta: orig(self, theta) * (1.0 + 1e-5))
    failed = check()
    assert not failed["passed"]
    assert failed["error"] > 1e-6


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "forked"])
def test_verify_all_reuses_the_grid_solves(cpus, monkeypatch):
    # closed-form-trace-vs-ode takes its nine ODE references from the energy
    # grid when the energy suite ran first, and solves them when it did not;
    # with two CPUs the measures suite's solve runs in the forked worker,
    # where this process does not count it
    calls = []
    orig = verify.integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(verify, "integrate", counted)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    counts = {}
    for suite in ("energy", "closed-forms", "measures", "all"):
        calls.clear()
        assert verify.run_suite(suite)["passed"]
        counts[suite] = len(calls)
    here = counts["measures"] if cpus == 1 else 0
    assert counts["all"] == (counts["energy"] + counts["closed-forms"]
                             + here - 9)


def _sphere_grid(n, limit):
    """Stand-in for verify._energy_grid: its five E = 0 spheres only."""
    cfg = pode.SolveConfig(max_arclength=limit, drift_tolerance=1e-9,
                           stop_event=(pode.EventKind.CRITICAL_RADIUS, 8))
    for h in (0.25, 0.5, 1.0, 1.5, 2.0):
        yield h, 0.0, pode.integrate(n, h, e=0.0, config=cfg)


def test_verify_energy_checks_sphere_shape(monkeypatch):
    monkeypatch.setattr(verify, "_energy_grid",
                        lambda n: _sphere_grid(n, 50.0))
    checks = verify.run_suite("energy")["checks"]
    assert [c["name"] for c in checks] == [
        "energy-drift-n1", "sphere-shape-n1", "energy-drift-n2",
        "sphere-shape-n2", "energy-drift-n3", "sphere-shape-n3"]
    assert all(c["passed"] for c in checks)

    # a sphere cut short of the axis fails its shape check
    monkeypatch.setattr(verify, "_energy_grid",
                        lambda n: _sphere_grid(n, 10.0))
    report = verify.run_suite("energy")
    assert not report["passed"]
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["sphere-shape-n1",
                                           "sphere-shape-n2",
                                           "sphere-shape-n3"]
    assert all("no AxisContact" in c["detail"] for c in failed)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_family_transition(capsys):
    code, out, _ = run_cli(
        ["sweep", "--n", "1", "--h", "0.5", "--e", "0:0.5:6"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    families = [line.split(",")[3] for line in lines[1:]]
    assert families[0] == "Sphere"
    assert families[-1] == "Cylinder"
    assert set(families[1:-1]) == {"Unduloid"}


def test_sweep_nodoids_positive_halfperiod(capsys):
    # a range starting with a minus needs the = form, or argparse reads a flag
    code, out, _ = run_cli(
        ["sweep", "--n", "1", "--h", "1", "--e=-1:-0.2:5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 5
    for line in lines:
        cells = line.split(",")
        assert cells[3] == "Nodoid"
        assert float(cells[7]) > 0.0  # t2 column


def test_sweep_deep_nodoids_fill_every_row(capsys):
    # Brent's method in x ran out of iterations on the E = -50 row's x2, and
    # the sweep exited 3 without writing a row
    code, out, err = run_cli(
        ["sweep", "--n", "4", "--h", "100", "--e=-50:-1:3"], capsys)
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["e"] for row in rows] == ["-50", "-25.5", "-1"]
    for row in rows:
        assert row["family"] == "Nodoid"
        assert all(row[key] for key in ("x1", "x2", "x0", "t2", "t2_error"))


def test_sweep_roadmap_grid_completes(capsys):
    # the grid used to abort on a QUADPACK roundoff flag at n = 1, H = 0.25
    code, out, err = run_cli(
        ["sweep", "--n", "1,2,3", "--h", "0.25:2:8", "--e=-1:0.5:20"], capsys)
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 480
    for row in rows:
        if row["n"] == "1" and row["family"] in ("Unduloid", "Nodoid"):
            reference = math.pi / (4.0 * float(row["h"]) ** 2)
            assert float(row["t2"]) == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_finishes_past_overflowing_row(fmt, capsys):
    # the H = 1e-300 row's cylinder energy overflows a float; it used to end
    # the sweep with exit 2 before any row was written
    code, out, err = run_cli(
        ["sweep", "--n", "2", "--h", "1e-300:1:2", "--e", "1", "--format", fmt],
        capsys)
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("error: the parameters overflow a float")
    assert "n = 2, H = 1e-300, E = 1.0" in err
    if fmt == "json":
        doc = json.loads(out)
        jsonschema.validate(doc, _schema("sweep"))
        rows = doc["rows"]
    else:
        header, *lines = out.splitlines()
        assert header == ",".join(SWEEP_COLUMNS)
        rows = [dict(zip(SWEEP_COLUMNS, line.split(","))) for line in lines]
    assert [(float(r["h"]), float(r["e"])) for r in rows] == [
        (1e-300, 1.0), (1.0, 1.0)]
    assert all(r["family"] in (None, "") for r in rows)
    with pytest.raises(OverflowError) as info:
        sweep_rows([2], [1e-300, 1.0], [1.0])
    assert len(info.value.rows) == 2


def test_sweep_empty_grid(capsys):
    code, out, _ = run_cli(
        ["sweep", "--n", "1", "--h", "1", "--e", "0:1:0"], capsys)
    assert code == 0
    assert out.strip() == ",".join(SWEEP_COLUMNS)


def test_sweep_json_schema_with_inadmissible_rows(capsys):
    code, out, _ = run_cli(
        ["sweep", "--n", "1,2", "--h", "0.5", "--e", "0.4:0.7:4",
         "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("sweep"))
    # E > E_cyl rows stay in the table with empty numerics
    empty = [row for row in doc["rows"] if row["family"] is None]
    assert empty
    assert all(row["x1"] is None and row["t2"] is None for row in empty)


def test_sweep_rows_in_grid_order():
    ns, hs, es = [2, 1], [1.0, 0.5], [0.3, -0.1, 0.0]
    keys = [(r["n"], r["h"], r["e"]) for r in sweep_rows(ns, hs, es)]
    expected = [(n, h, e) for n in ns for h in hs for e in es]
    assert keys == expected


@pytest.mark.parametrize("n, h, e, family", [
    (1, 0.0, 0.0, "Hyperplane"),
    (2, 0.0, -0.7, "Catenoid"),
    (1, 0.0, 1.0, "Catenoid"),
    (2, -1.0, 0.0, "Sphere"),
    (1, 0.5, 0.5, "Cylinder"),
    (2, 1.0, 0.05, "Unduloid"),
    (3, -1.0, 0.2, "Nodoid"),
    (1, 0.5, 0.6, None),
])
def test_sweep_row_is_report_projection(n, h, e, family):
    (row,) = sweep_rows([n], [h], [e])
    assert list(row) == list(SWEEP_COLUMNS)
    assert (row["n"], row["h"], row["e"], row["family"]) == (n, h, e, family)
    if family is None:  # no admissible radius: numerics stay empty
        assert all(row[col] is None for col in SWEEP_COLUMNS[4:])
        return
    report = run_report(["classify"], n, h, e)
    estimates = report["diagnostics"]["error_estimates"]
    assert report["family"] == family
    assert {k: row[k] for k in ("x1", "x2", "x0")} == report["radii"]
    for key in ("t2", "perimeter", "volume"):
        assert row[key] == report["summary"][key]
        assert row[f"{key}_error"] == estimates.get(key)
    if family == "Cylinder":
        assert row["t2"] == row["t2_error"] == 0.0
        assert estimates["t1"] == estimates["t2"] == 0.0


def test_sweep_row_content_against_modules():
    rows = sweep_rows([1], [1.0], [0.0, -0.1])
    sphere, nodoid = rows
    assert sphere["family"] == "Sphere"
    assert sphere["t2"] == pytest.approx(math.pi / 4, abs=1e-12)
    assert sphere["perimeter"] == pytest.approx(math.pi ** 2, rel=1e-10)
    assert nodoid["family"] == "Nodoid"
    assert nodoid["t2"] == pytest.approx(math.pi / 4, abs=1e-9)
    assert nodoid["perimeter"] is None


# ---------------------------------------------------------------------------
# the batched sweep against one report per row


def _report_row(n, h, e):
    """The sweep row of (n, H, E) projected from its own run_report."""
    row = dict.fromkeys(SWEEP_COLUMNS)
    row.update({"n": n, "h": h, "e": e})
    try:
        report = run_report(("sweep",), n, h, e)
    except (NoAdmissibleRadiusError, OverflowError):
        return row
    row["family"] = report["family"]
    row.update(report["radii"])
    estimates = report["diagnostics"]["error_estimates"]
    for key in ("t2", "perimeter", "volume"):
        row[key] = report["summary"][key]
        row[f"{key}_error"] = estimates.get(key)
    return row


def _seeded_axes(seed):
    """H and E axes: H = 0 and both signs of H and E, |E| log-uniform from
    1e-7 to 10, so the grid holds thin necks, near-cylinder unduloids, far
    nodoids, inadmissible rows and all six families."""
    rng = np.random.default_rng(seed)
    signs = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    hs = [0.0] + (signs * 10.0 ** rng.uniform(-0.7, 0.7, 6)).tolist()
    es = [0.0] + (np.tile([1.0, -1.0], 11)
                  * 10.0 ** rng.uniform(-7.0, 1.0, 22)).tolist()
    return hs, es


def _chop_degrees(monkeypatch):
    """Record the degree at which each half-period series resolves: its
    first function's coefficients are degree + 1 long."""
    degrees = []
    resolved = closed_forms._resolved

    def spy(sample, items):
        fitted = resolved(sample, items)
        degrees.extend(len(fits[0][0]) - 1 for fits, _ in fitted)
        return fitted

    monkeypatch.setattr(closed_forms, "_resolved", spy)
    return degrees


@pytest.mark.parametrize("seed", [3, 11])
def test_sweep_rows_equal_one_report_per_row(seed, monkeypatch):
    # the batch fits n >= 2 series in stacks per (n, family); every row must
    # carry the bits its own report gives, whatever degree its series needs
    # and however large its stack
    hs, es = _seeded_axes(seed)
    ns = [1, 2, 3, 4]
    degrees = _chop_degrees(monkeypatch)
    rows = sweep_rows(ns, hs, es)
    assert {32, 64} <= set(degrees) and max(degrees) >= 128
    expected = [_report_row(n, h, e) for n in ns for h in hs for e in es]
    assert [repr(row) for row in rows] == [repr(row) for row in expected]
    families = [(row["n"], row["family"]) for row in rows]
    assert families.count((2, "Nodoid")) > closed_forms._STACK_ROWS
    assert {f for _, f in families} == {
        None, "Hyperplane", "Catenoid", "Sphere", "Unduloid", "Nodoid"}


@pytest.mark.parametrize("ns, hs, first, more", [
    # H = 1e-300 overflows while classifying; the n = 1 nodoid at
    # H = 1e-155 classifies and then overflows in its closed-form height,
    # inside the one halfperiod_heights call of the whole grid
    ([2, 3], [1e-300, 0.7, -2.0], "n = 2, H = 1e-300, E = -0.3: ", 5),
    ([1, 2], [0.7, 1e-155, -2.0], "n = 1, H = 1e-155, E = -0.3: ", 5),
])
def test_sweep_rows_equal_one_report_per_row_past_an_overflow(ns, hs, first,
                                                               more):
    es = [-0.3, 1e-3, 0.02]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(OverflowError) as info:
            sweep_rows(ns, hs, es)
        expected = [_report_row(n, h, e) for n in ns for h in hs for e in es]
    assert [repr(row) for row in info.value.rows] == [
        repr(row) for row in expected]
    assert str(info.value).startswith(first)
    assert str(info.value).endswith(f"; {more} more rows overflow")


def test_sweep_classifies_each_grid_point_once(monkeypatch, capsys):
    calls = _count_classify(monkeypatch)
    code, out, _ = run_cli(
        ["sweep", "--n", "1,2,3", "--h=-1:2:4", "--e=-0.5:0.25:7"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 1 + 84
    grid = [(n, h, e) for n in (1, 2, 3) for h in cli._axis("-1:2:4")
            for e in cli._axis("-0.5:0.25:7")]
    assert calls == grid


# ---------------------------------------------------------------------------
# the JSON writer

_EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                2.2250738585072014e-308, 1e-5, 1e16, 1e22, sys.float_info.max,
                -sys.float_info.max)


def test_write_json_spelling():
    stream = io.StringIO()
    cli._write_json({"a": [1e16, 1e-5, -0.0, 2], "b": None}, stream)
    assert stream.getvalue() == '{"a":[1e16,0.00001,-0.0,2],"b":null}\n'


@given(floats=st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS),
                                 st.floats(allow_nan=False,
                                           allow_infinity=False)),
                       max_size=16),
       ints=st.lists(st.integers(-2 ** 63, 2 ** 64 - 1), max_size=16))
@settings(max_examples=200, deadline=None)
def test_write_json_round_trips_floats_and_ints(floats, ints):
    stream = io.StringIO()
    cli._write_json({"floats": floats, "ints": ints}, stream)
    text = stream.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1
    doc = _strict_loads(text)
    assert all(type(v) is float for v in doc["floats"])
    packed = f"<{len(floats)}d"
    assert struct.pack(packed, *doc["floats"]) == struct.pack(packed, *floats)
    assert all(type(v) is int for v in doc["ints"])
    assert doc["ints"] == ints
