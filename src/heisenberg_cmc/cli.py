"""Command-line front end.

Subcommands classify parameters, trace and render generating curves, sweep
parameter grids, and run the verification suites.  All output is
deterministic given the flags: reports carry the producing module's error
estimates, CSV numbers use 17 significant digits, and SVG bytes are a pure
function of the inputs.

Exit codes: 0 success, 1 usage error, 2 invalid parameters, 3 numerical
failure.
"""

import argparse
import contextlib
import csv
import functools
import json
import logging
import os
import sys

import numpy as np
import orjson

from .classify import Classification, Family, classify, cylinder_energy
from .closed_forms import (
    canonical_trajectory,
    catenoid_slab_halfwidth,
    halfperiod_heights,
    sphere_profile,
)
from .errors import (
    AxisPointError,
    DivergentIntegralError,
    GeometryError,
    NoAdmissibleRadiusError,
    QuadratureError,
)
# unused here; kept bound because perfbench/tracer.py wraps cli's two names
from .measures import enclosed_volume_result, perimeter_result  # noqa: F401
from .measures import sphere_measures
from .profile_ode import (
    EventKind,
    ProfileState,
    SolveConfig,
    integrate,
    reflect_continue,
    trajectory_to_csv,
    trajectory_to_json,
)
from .render import render_gallery, render_panel, family_polyline
from .verify import SUITES, run_suite

__all__ = ["main", "canonical_trace", "run_report", "sweep_rows",
           "SWEEP_COLUMNS"]

_LOG = logging.getLogger("heisenberg_cmc")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARAMS = 2
EXIT_NUMERICAL = 3

SWEEP_COLUMNS = (
    "n", "h", "e", "family", "x1", "x2", "x0",
    "t2", "t2_error", "perimeter", "perimeter_error",
    "volume", "volume_error",
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text):
    return [int(part) for part in text.split(",") if part != ""]


def _axis(text):
    """Either a single value or lo:hi:count, inclusive linear spacing: lo +
    step k, whose last point is hi itself.  Where hi - lo overflows, the
    step is hi / (count - 1) - lo / (count - 1)."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"expected VALUE or LO:HI:COUNT, got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 0:
        raise ValueError("grid count must be >= 0")
    if count == 0:
        return []
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    if abs(step) == float("inf"):  # hi - lo overflows
        step = hi / (count - 1) - lo / (count - 1)
    return [lo + step * k for k in range(count - 1)] + [hi]


# ---------------------------------------------------------------------------
# report assembly


_PERIODIC = (Family.UNDULOID, Family.NODOID)


def run_report(command, n, h, e):
    """Structural report of the (n, H, E) profile, with error estimates.

    The closed forms assume H >= 0; the classification carries the
    normalized (H, E), and the t-mirror (H, E) -> (-H, -E) leaves every
    reported magnitude unchanged.
    """
    cls = classify(n, h, e)
    heights = halfperiod_heights([cls])[0] if cls.family in _PERIODIC else None
    return _report(command, n, h, e, cls, heights)


def _report(command, n, h, e, cls, heights):
    """run_report's body, given cls = classify(n, h, e) and, for the periodic
    families, its halfperiod_heights pair."""
    summary = dict.fromkeys(("t1", "t2", "period", "perimeter", "volume"))
    estimates = {}
    notes = []
    if cls.family is Family.SPHERE:
        summary["t2"] = sphere_profile(cls.h, 0.0)
        notes.append("t2 is the pole height above the equator plane")
        summary["perimeter"], summary["volume"] = sphere_measures(n, cls.h)
        estimates["perimeter"] = estimates["volume"] = 0.0
        notes.append("closed-form profile: closed_forms.sphere_profile")
    elif cls.family is Family.CATENOID:
        try:
            summary["t2"] = catenoid_slab_halfwidth(n, abs(cls.e))
            estimates["t2"] = 0.0
            notes.append("t2 is the slab half-width t_inf")
            curve = "catenoid_curve"
        except DivergentIntegralError:
            notes.append("n = 1: the profile is unbounded in t, no slab")
            curve = "catenoid_generating_curve"
        notes.append(f"closed-form profile: closed_forms.{curve}")
    elif cls.family is Family.CYLINDER:
        summary["t1"] = estimates["t1"] = 0.0
        summary["t2"] = estimates["t2"] = 0.0
        notes.append(
            f"cylinder radius {cls.x0:.17g} at the "
            f"cylinder energy {cylinder_energy(n, cls.h):.17g}"
        )
    elif cls.family in _PERIODIC:
        t1, t2 = heights
        summary["t1"] = t1.value
        estimates["t1"] = t1.error_estimate
        summary["t2"] = t2.value
        estimates["t2"] = t2.error_estimate
        summary["period"] = 2.0 * t2.value
        estimates["period"] = 2.0 * t2.error_estimate
        if cls.family is Family.NODOID:
            notes.append("the generating curve self-intersects")
    else:
        notes.append("flat profile: the hyperplane t = const")
    return {
        "command": list(command),
        "params": {"n": n, "h": h, "e": e},
        "family": cls.family.value,
        "radii": {"x1": cls.x1, "x2": cls.x2, "x0": cls.x0},
        "summary": summary,
        "diagnostics": {
            "energy_drift": None,
            "events": [],
            "error_estimates": estimates,
            "notes": notes,
        },
    }


def _print_report(report, stream):
    params = report["params"]
    print(f"family: {report['family']}", file=stream)
    print(
        f"n = {params['n']}, H = {params['h']:.17g}, E = {params['e']:.17g}",
        file=stream,
    )
    radii = report["radii"]
    shown = ", ".join(
        f"{k} = {v:.17g}" for k, v in radii.items() if v is not None
    )
    if shown:
        print(f"radii: {shown}", file=stream)
    estimates = report["diagnostics"]["error_estimates"]
    for key, value in report["summary"].items():
        if value is None:
            continue
        err = estimates.get(key)
        tail = f" (error estimate {err:.3g})" if err is not None else ""
        print(f"{key} = {value:.17g}{tail}", file=stream)
    for note in report["diagnostics"]["notes"]:
        print(f"note: {note}", file=stream)


def _text(arg):
    """A command-line argument as valid Unicode, which JSON text must be: a
    byte that is not UTF-8 reaches argv as a lone surrogate and is spelled
    \\xNN here."""
    return arg.encode("utf-8", "surrogateescape").decode("utf-8",
                                                         "backslashreplace")


def cmd_classify(args):
    command = [_text(arg) for arg in args.raw_argv]
    report = run_report(command, args.n, args.h, args.e)
    with _out_stream(args.out) as stream:
        if args.json:
            _write_json(report, stream)
        else:
            _print_report(report, stream)
    return EXIT_OK


# ---------------------------------------------------------------------------
# trace


# the canonical starts that closed_forms.canonical_trajectory traces
_CLOSED_FORM = (Family.SPHERE, Family.CYLINDER, Family.UNDULOID,
                Family.NODOID)


def canonical_trace(n, h, e, config):
    """The trace of the canonical (n, H, E) start: spheres, cylinders,
    unduloids and nodoids from closed forms, the other families, and any
    series that needs a degree above closed_forms' cap or overflows a float,
    from integrate; that fallback is logged at INFO."""
    cls = classify(n, h, e)
    if cls.family in _CLOSED_FORM:
        try:
            return canonical_trajectory(cls, config)
        except (QuadratureError, OverflowError) as exc:
            _LOG.info("n = %d, H = %r, E = %r: tracing by the ODE, the "
                      "closed forms failed (%s: %s)", n, h, e,
                      type(exc).__name__, exc)
    return integrate(n, h, e=e, config=config)


def cmd_trace(args):
    if args.stop_count is not None and args.stop_event is None:
        args.usage_error("--stop-count needs --stop-event")
    count = 1 if args.stop_count is None else args.stop_count
    stop = (args.stop_event, count) if args.stop_event else None
    config = SolveConfig(max_arclength=args.max_arclength, stop_event=stop)
    explicit = [v is not None for v in (args.x0, args.t0, args.sigma0)]
    if any(explicit):
        if args.x0 is None or args.sigma0 is None:
            raise ValueError("an explicit start needs both --x0 and --sigma0")
        initial = ProfileState(args.x0, args.t0 or 0.0, args.sigma0)
        traj = integrate(args.n, args.h, initial=initial, config=config)
    else:
        if args.e is None:
            raise ValueError("pass either --e or an explicit start")
        traj = canonical_trace(args.n, args.h, args.e, config)
    if args.reflect:
        traj = reflect_continue(traj, copies=args.reflect)
    with _out_stream(args.out) as stream:
        if args.format == "json":
            _write_json(trajectory_to_json(traj), stream)
        else:
            trajectory_to_csv(traj, stream)
    return EXIT_OK


# ---------------------------------------------------------------------------
# render


def _load_trace(path):
    """Polyline, as a (k, 2) array, and default title from a saved trace,
    JSON or CSV."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:1] == b"{":
        xy, title = _json_trace(path, data)
    else:
        with open(path, "r", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            if (reader.fieldnames is None
                    or not {"x", "t"} <= set(reader.fieldnames)):
                raise ValueError(f"{path}: trace CSV needs x and t columns")
            polyline = [(float(row["x"]), float(row["t"])) for row in reader]
            if not polyline:
                raise ValueError(f"{path}: no samples in trace")
            title = f"trace ({os.path.basename(path)})"
        xy = np.array(polyline)
    # one NaN or infinity would turn every vertex of the drawing into NaN
    if (xy is None or xy.ndim != 2 or xy.dtype.kind not in "biuf"
            or not np.isfinite(xy).all()):
        raise ValueError(f"{path}: trace samples must be finite numbers")
    return xy, title


def _json_trace(path, data):
    """_load_trace of the JSON trace at path, whose bytes are data: the
    array of its samples' x and t, None where they are nested lists of
    unequal length, and its default title.

    orjson parses every file trace writes, and one array holds its uniform
    rows.  A file orjson refuses, such as one with the NaN or Infinity
    literals, is read again by json, and ragged rows are checked one by one,
    so either gets the error it names."""
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    samples = doc.get("samples")
    if not samples:
        raise ValueError(f"{path}: no samples in trace")
    if not isinstance(samples, list):
        raise ValueError(f"{path}: trace samples need s, x, t")
    # without a dtype NumPy keeps a string or null sample as a string or
    # object array, where dtype=float would parse "1.5"
    try:
        table = np.array(samples)
    except ValueError:  # nested lists of unequal length
        table = None
    if (table is not None and table.ndim == 2 and table.shape[1] >= 3
            and table.dtype.kind in "biuf"):
        xy = table[:, 1:3]
    elif not all(isinstance(row, list) and len(row) >= 3 for row in samples):
        raise ValueError(f"{path}: trace samples need s, x, t")
    else:
        try:
            xy = np.array([row[1:3] for row in samples])
        except ValueError:
            xy = None
    try:
        title = f"trace (n = {doc['n']}, H = {doc['h']:.6g})"
    except (KeyError, TypeError, ValueError):
        title = f"trace ({os.path.basename(path)})"
    return xy, title


def cmd_render(args):
    if args.panel:
        document = render_gallery(args.n)
    elif args.trace:
        xy, title = _load_trace(args.trace)
        document = render_panel([xy], title)
    else:
        if args.h is None or args.e is None:
            raise ValueError("pass --panel all, --trace FILE, or --h and --e")
        cls = classify(args.n, args.h, args.e)
        polyline = family_polyline(cls)
        document = render_panel([polyline], cls.family.value)
    with _out_stream(args.out) as stream:
        stream.write(document)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    report = run_suite(args.suite, seed=args.seed)
    with _out_stream(args.out) as stream:
        if args.json:
            _write_json(report, stream)
        else:
            for check in report["checks"]:
                mark = "ok  " if check["passed"] else "FAIL"
                if check["error"] is None:
                    body = check["detail"]
                else:
                    body = (
                        f"error {check['error']:.3e} <= "
                        f"tolerance {check['tolerance']:.1e}"
                    )
                    if not check["passed"]:
                        body = body.replace("<=", ">")
                print(f"{mark} {check['name']}: {body}", file=stream)
            verdict = "passed" if report["passed"] else "FAILED"
            print(
                f"suite {report['suite']!r} ({len(report['checks'])} checks):"
                f" {verdict}",
                file=stream,
            )
    return EXIT_OK if report["passed"] else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# sweep


def _classified(n, h, e):
    """classify(n, h, e) for a sweep row: None where no radius is admissible,
    the OverflowError where the parameters overflow a float."""
    try:
        return classify(n, h, e)
    except NoAdmissibleRadiusError:
        return None
    except OverflowError as exc:
        return exc


def _sweep_row(n, h, e, cls, pairs, failures):
    """The sweep columns of run_report, from the row's _classified result and
    an iterator over the heights of the grid's periodic rows, or None to
    compute this row's own; inadmissible rows keep only n, h, e, and so do
    rows that overflow a float or whose half-period series is unresolved,
    which are added to failures, named, with their error."""
    row = dict.fromkeys(SWEEP_COLUMNS)
    row.update({"n": n, "h": h, "e": e})
    if cls is None:
        return row
    try:
        if isinstance(cls, OverflowError):
            raise cls
        heights = None
        if cls.family in _PERIODIC:
            heights = (next(pairs) if pairs is not None
                       else halfperiod_heights([cls])[0])
        report = _report(("sweep",), n, h, e, cls, heights)
    except (OverflowError, QuadratureError) as exc:
        failures.append((f"n = {n}, H = {h!r}, E = {e!r}: {exc}", exc))
        return row
    row["family"] = report["family"]
    row.update(report["radii"])
    estimates = report["diagnostics"]["error_estimates"]
    for key in ("t2", "perimeter", "volume"):
        row[key] = report["summary"][key]
        row[f"{key}_error"] = estimates.get(key)
    return row


def sweep_rows(ns, hs, es):
    """Sweep the grid; rows come back in grid order (n outer, e inner).

    Every grid point is classified once, and the half-period heights of all
    periodic rows come from one halfperiod_heights call, which fits their
    series in stacks, unless a row overflows a float or leaves its series
    unresolved there; then each row makes its own call.  Such a row keeps
    only n, h and e.  The grid is still finished; then the first such row's
    error, an OverflowError or a QuadratureError, is raised naming it, with
    the rows in its rows attribute.
    """
    grid = [(n, h, e) for n in ns for h in hs for e in es]
    found = [_classified(*point) for point in grid]
    try:
        pairs = iter(halfperiod_heights(
            [cls for cls in found
             if isinstance(cls, Classification) and cls.family in _PERIODIC]))
    except (OverflowError, QuadratureError):
        pairs = None  # a row fails: each row computes its own, alone
    failures = []
    rows = [_sweep_row(*point, cls, pairs, failures)
            for point, cls in zip(grid, found)]
    if not failures:
        return rows
    (message, first), more = failures[0], len(failures) - 1
    if more:
        overflow = all(isinstance(exc, OverflowError) for _, exc in failures)
        message += f"; {more} more rows {'overflow' if overflow else 'failed'}"
    failure = (OverflowError if isinstance(first, OverflowError)
               else QuadratureError)(message)
    failure.rows = rows
    raise failure


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return "%.17g" % value


def cmd_sweep(args):
    try:
        rows, failure = sweep_rows(args.n, args.h, args.e), None
    except (OverflowError, QuadratureError) as exc:
        rows, failure = exc.rows, exc
    with _out_stream(args.out) as stream:
        if args.format == "json":
            _write_json({"rows": rows}, stream)
        else:
            print(",".join(SWEEP_COLUMNS), file=stream)
            for row in rows:
                print(
                    ",".join(_csv_cell(row[col]) for col in SWEEP_COLUMNS),
                    file=stream,
                )
    if failure is not None:
        raise failure
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _write_json(doc, stream):
    """doc as one compact JSON line, written by orjson: no spaces after ':'
    and ',', the shortest digits that read back to the same float, exponents
    spelled 1e16 and 0.00001, and null for a NaN or an infinity, which are
    not JSON."""
    stream.write(orjson.dumps(doc, option=orjson.OPT_APPEND_NEWLINE).decode())


def _out_stream(path):
    """stdout by default, a file when --out is passed."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it
    unchanged, so every main call reuses it."""
    parser = _Parser(
        prog="heisenberg-cmc",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("classify", parents=[], help="name the profile family")
    p.add_argument("--n", type=int, required=True, help="Heisenberg index")
    p.add_argument("--h", type=float, required=True, help="mean curvature H")
    p.add_argument("--e", type=float, required=True, help="energy E")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("trace", help="integrate and export a profile")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--e", type=float, help="energy of the canonical start")
    p.add_argument("--x0", type=float, help="explicit start radius")
    p.add_argument("--t0", type=float, help="explicit start height")
    p.add_argument("--sigma0", type=float, help="explicit start angle")
    p.add_argument("--max-arclength", type=float,
                   default=SolveConfig.max_arclength)
    p.add_argument(
        "--stop-event",
        choices=[kind.value for kind in EventKind],
        help="stop at the k-th occurrence of this event",
    )
    p.add_argument("--stop-count", type=int,
                   help="which occurrence of --stop-event ends the trace "
                        "(default 1)")
    p.add_argument(
        "--reflect", type=int, default=0, metavar="K",
        help="extend by K mirror reflections at a critical radius",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_trace, usage_error=p.error)

    p = sub.add_parser("render", help="draw generating curves as SVG")
    p.add_argument(
        "--panel", choices=("all",),
        help="render the six-family gallery",
    )
    p.add_argument("--trace", help="render a saved trace (JSON or CSV)")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--h", type=float)
    p.add_argument("--e", type=float)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="tabulate a parameter grid")
    p.add_argument(
        "--n", type=_int_list, required=True,
        help="comma-separated dimension indices",
    )
    p.add_argument(
        "--h", type=_axis, required=True,
        help="H axis: VALUE or LO:HI:COUNT",
    )
    p.add_argument(
        "--e", type=_axis, required=True,
        help="E axis: VALUE or LO:HI:COUNT",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = argv
    try:
        return args.func(args)
    except (NoAdmissibleRadiusError, AxisPointError, ValueError) as exc:
        code, failure = EXIT_PARAMS, exc
    except OverflowError as exc:
        code, failure = EXIT_PARAMS, f"the parameters overflow a float ({exc})"
    except (GeometryError, OSError) as exc:
        code, failure = EXIT_NUMERICAL, exc
    print(f"error: {failure}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
