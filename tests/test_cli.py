"""Command-line interface: exit codes, file formats, and schemas."""

import csv
import io
import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heisenberg_cmc.cli as cli
import heisenberg_cmc.profile_ode as pode
import heisenberg_cmc.render as render
import heisenberg_cmc.verify as verify
from heisenberg_cmc.classify import classify, cylinder_energy
from heisenberg_cmc.cli import SWEEP_COLUMNS, main, run_report, sweep_rows
from heisenberg_cmc.closed_forms import (
    catenoid_generating_curve,
    halfperiod_heights,
    sphere_profile,
)


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
    traj = pode.integrate(
        1, 0.5, e=0.3,
        config=pode.SolveConfig(
            stop_event=(pode.EventKind.CRITICAL_RADIUS, 1)))
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
    direct = pode.integrate(n, h, initial=pode.initial_state(n, h, e),
                            config=config)

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
    assert diag["retries"] == 0
    assert diag["steps"] == len(doc["samples"]) - 1
    assert diag["rhs_evals"] > 12 * diag["steps"]
    assert 0.0 < diag["energy_correction"] <= 1e-8


def test_trace_diagnostics_are_optional(tmp_path, capsys):
    doc = _trace_json(["--n", "1", "--h", "0.5", "--e", "0.3",
                       "--stop-event", "CriticalRadius", "--reflect", "1"],
                      tmp_path, capsys)
    assert set(doc["diagnostics"]) == {"rhs_evals", "steps",
                                       "energy_correction", "retries"}
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
    # here the roots are moved off the unduloid's true critical radii
    monkeypatch.setattr(pode, "_band_roots", lambda c: (123.0,))
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


def test_trace_unresolvable_neck_exits_3(capsys):
    # a nodoid neck of radius ~1.4e-6 turns sigma by pi within the spacing of
    # floats in s; the solver gives up, and that is a numerical failure, not
    # a traceback
    code, _, err = run_cli(["trace", "--n", "1", "--h=0.5160190784461397",
                            "--e=-1.4288568145075227e-06"], capsys)
    assert code == 3
    assert "integration failed" in err


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
        lambda: pode.integrate(1, 0.5, e=0.3)),
    "sphere": (
        ["--n", "1", "--h", "1", "--e", "0", "--stop-event", "AxisContact"],
        lambda: pode.integrate(1, 1.0, e=0.0, config=pode.SolveConfig(
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


@pytest.mark.parametrize("case", ["periodic", "sphere", "catenoid-n2"])
def test_trace_json_is_one_line_of_exact_samples(case, capsys):
    argv, solve = EXPORT_CASES[case]
    code, out, err = run_cli(["trace", *argv, "--format", "json"], capsys)
    assert code == 0, err
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("trajectory"))
    traj = solve()
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
    line = render.family_polyline(1, 0.05, 0.01)
    assert line[-1][1] == pytest.approx(math.pi / 0.05**2, rel=1e-8)


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


def test_verify_human_output(capsys):
    code, out, _ = run_cli(["verify", "measures"], capsys)
    assert code == 0
    assert "suite 'measures'" in out
    assert "passed" in out
    assert "FAIL" not in out


def test_verify_detects_broken_dynamics(monkeypatch, capsys):
    # flip the sign of the turning-rate term: every integration drifts, the
    # retry ladder cannot save it, and the energy suite must go red
    orig = pode._rhs_scalars

    def broken(x, sigma, n, h):
        sin, cos, dsigma = orig(x, sigma, n, h)
        return sin, cos, -dsigma

    monkeypatch.setattr(pode, "_rhs_scalars", broken)
    code, out, _ = run_cli(["verify", "energy"], capsys)
    assert code == 3
    assert "FAIL" in out


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
