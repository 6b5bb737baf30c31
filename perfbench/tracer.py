"""Spans at the program's module boundaries, recorded from outside it.

Modules import each other with `from .x import y`, so a function is wrapped
under every name an importing module bound, not only where it is defined.
Spans live in memory (name, start, end, parent, thread, operation, counts)
and are written out once the run ends; the per-layer metrics are computed
from them.  Worker threads of the sweep pool have no span of their own on
their stack, so their outermost spans hang under the main thread's current
span.
"""

import functools
import itertools
import threading
import time

# (module, bound name, span name); one span name is one layer quantity
PATCHES = (
    ("cli", "classify", "classify"),
    ("closed_forms", "classify", "classify"),
    ("profile_ode", "classify", "classify"),
    ("render", "classify", "classify"),
    ("verify", "classify", "classify"),
    ("cli", "halfperiod_heights", "closed_forms.halfperiod"),
    ("closed_forms", "nodoid_halfperiod", "closed_forms.halfperiod"),
    ("closed_forms", "unduloid_halfperiod", "closed_forms.halfperiod"),
    ("verify", "halfperiod_heights", "closed_forms.halfperiod"),
    ("verify", "nodoid_halfperiod", "closed_forms.halfperiod"),
    ("verify", "unduloid_halfperiod", "closed_forms.halfperiod"),
    ("cli", "catenoid_slab_halfwidth", "closed_forms.slab"),
    ("verify", "catenoid_slab_halfwidth", "closed_forms.slab"),
    ("closed_forms", "singular_quadrature", "closed_forms.quadrature"),
    ("closed_forms", "quad", "closed_forms.quadpack"),
    ("cli", "integrate", "profile_ode.integrate"),
    ("render", "integrate", "profile_ode.integrate"),
    ("verify", "integrate", "profile_ode.integrate"),
    ("profile_ode", "solve_ivp", "profile_ode.solve_ivp"),
    ("cli", "trajectory_to_json", "profile_ode.export"),
    ("cli", "trajectory_to_csv", "profile_ode.export"),
    ("cli", "perimeter_result", "measures"),
    ("cli", "enclosed_volume_result", "measures"),
    ("measures", "perimeter_result", "measures"),
    ("measures", "enclosed_volume_result", "measures"),
    ("verify", "perimeter", "measures"),
    ("verify", "enclosed_volume", "measures"),
    ("verify", "first_variation_check", "measures"),
    ("verify", "mean_curvature_general", "curvature"),
    ("verify", "mean_curvature_graph_h1", "curvature"),
    ("verify", "mean_curvature_rotational", "curvature"),
    ("verify", "chmy_identity_residual", "curvature"),
    ("verify", "graph_jet", "curvature"),
    ("measures", "mean_curvature_rotational", "curvature"),
    ("cli", "render_panel", "render.svg"),
    ("render", "render_panel", "render.svg"),
    ("cli", "family_polyline", "render.polyline"),
    ("render", "family_polyline", "render.polyline"),
    ("cli", "run_suite", "verify.suite"),
)


def _counts(name, args, result):
    """Counts read off a call's arguments and result."""
    if name in ("closed_forms.quadrature", "measures"):
        evaluations = getattr(result, "evaluations", None)
        return {} if evaluations is None else {"evaluations": evaluations}
    if name == "closed_forms.quadpack":
        # quad(..., full_output=1) appends a message when it gives up
        return {"neval": result[2]["neval"], "aborts": int(len(result) > 3)}
    if name == "profile_ode.solve_ivp":
        return {"nfev": int(result.nfev), "steps": len(result.t) - 1}
    if name == "profile_ode.integrate":
        return {"s_end": result.s_end}
    if name == "render.svg":
        return {"points": sum(len(line) for line in args[0])}
    if name == "verify.suite":
        return {"suite": args[0]}
    return {}


class Span:
    __slots__ = ("id", "name", "parent", "thread", "op", "start", "end",
                 "counts")

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = self._stack()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, /, *args, **kwargs):
        """Run fn inside a span called name."""
        stack = self._stack()
        span = Span()
        span.id = next(self._ids)
        span.name = name
        if stack:
            span.parent = stack[-1].id
        elif threading.get_ident() != self._main and self._main_stack:
            span.parent = self._main_stack[-1].id
        else:
            span.parent = None
        span.thread = threading.get_ident()
        span.op = self.op
        span.counts = {}
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.counts["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
        span.counts.update(_counts(name, args, result))
        return result

    def install(self, modules):
        """Patch every PATCHES entry; modules maps short names to modules."""
        for module_name, attr, span_name in PATCHES:
            module = modules[module_name]
            original = getattr(module, attr)
            setattr(module, attr,
                    functools.partial(self.call, span_name, original))
            self._undo.append((module, attr, original))

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _union(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class _Index:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {span.id: span for span in spans}
        self.children = {}
        for span in spans:
            self.children.setdefault(span.parent, []).append(span)

    def named(self, name):
        return [span for span in self.spans if span.name == name]

    def outermost(self, name):
        """Spans of name with no ancestor of the same name."""
        out = []
        for span in self.named(name):
            parent = self.by_id.get(span.parent)
            while parent is not None and parent.name != name:
                parent = self.by_id.get(parent.parent)
            if parent is None:
                out.append(span)
        return out

    def busy(self, name):
        return sum(s.end - s.start for s in self.outermost(name))

    def self_time(self, name):
        total = 0.0
        for span in self.named(name):
            kids = [(max(k.start, span.start), min(k.end, span.end))
                    for k in self.children.get(span.id, ())]
            total += (span.end - span.start) - _union(
                [(lo, hi) for lo, hi in kids if hi > lo])
        return total

    def total(self, name, key):
        return sum(s.counts.get(key, 0) for s in self.named(name))


# per-layer metric name -> unit, in the order they are reported
LAYER_UNITS = {
    "cli.self_s": "s",
    "classify.calls": "count",
    "classify.s": "s",
    "classify.calls_per_row": "ratio",
    "closed_forms.halfperiod_s": "s",
    "closed_forms.slab_s": "s",
    "closed_forms.quadrature_calls": "count",
    "closed_forms.quadrature_s": "s",
    "closed_forms.integrand_evals": "count",
    "closed_forms.quadpack_calls": "count",
    "closed_forms.quadpack_neval": "count",
    "closed_forms.quadrature_errors": "count",
    "profile_ode.integrate_calls": "count",
    "profile_ode.integrate_s": "s",
    "profile_ode.solve_ivp_calls": "count",
    "profile_ode.retry_ratio": "ratio",
    "profile_ode.solve_ivp_s": "s",
    "profile_ode.rhs_evals": "count",
    "profile_ode.accepted_steps": "count",
    "profile_ode.us_per_rhs": "us",
    "profile_ode.arclength": "arclength",
    "profile_ode.post_s": "s",
    "profile_ode.export_s": "s",
    "measures.calls": "count",
    "measures.s": "s",
    "measures.evaluations": "count",
    "curvature.calls": "count",
    "curvature.s": "s",
    "render.svg_s": "s",
    "render.polyline_s": "s",
    "render.points": "count",
    "verify.energy_s": "s",
    "verify.closed_forms_s": "s",
    "verify.curvature_s": "s",
    "verify.classification_s": "s",
    "verify.measures_s": "s",
}


def layer_metrics(spans, units):
    """Per-layer metric values; units, the base of classify.calls_per_row,
    counts the items that passed: rows, requests or verify runs."""
    ix = _Index(spans)
    classify_calls = len(ix.outermost("classify"))
    integrate_calls = len(ix.outermost("profile_ode.integrate"))
    solve_calls = len(ix.named("profile_ode.solve_ivp"))
    solve_s = ix.busy("profile_ode.solve_ivp")
    rhs = ix.total("profile_ode.solve_ivp", "nfev")
    integrate_s = ix.busy("profile_ode.integrate")
    suites = ix.named("verify.suite")

    def suite_s(suite):
        return sum(s.end - s.start for s in suites
                   if s.counts.get("suite") == suite)

    values = {
        "cli.self_s": ix.self_time("cli.main"),
        "classify.calls": classify_calls,
        "classify.s": ix.busy("classify"),
        "classify.calls_per_row": classify_calls / units if units else 0.0,
        "closed_forms.halfperiod_s": ix.busy("closed_forms.halfperiod"),
        "closed_forms.slab_s": ix.busy("closed_forms.slab"),
        "closed_forms.quadrature_calls": len(
            ix.named("closed_forms.quadrature")),
        "closed_forms.quadrature_s": ix.busy("closed_forms.quadrature"),
        "closed_forms.integrand_evals": ix.total(
            "closed_forms.quadrature", "evaluations"),
        "closed_forms.quadpack_calls": len(ix.named("closed_forms.quadpack")),
        "closed_forms.quadpack_neval": ix.total(
            "closed_forms.quadpack", "neval"),
        "closed_forms.quadrature_errors": ix.total(
            "closed_forms.quadpack", "aborts"),
        "profile_ode.integrate_calls": integrate_calls,
        "profile_ode.integrate_s": integrate_s,
        "profile_ode.solve_ivp_calls": solve_calls,
        "profile_ode.retry_ratio": (solve_calls / integrate_calls
                                    if integrate_calls else 0.0),
        "profile_ode.solve_ivp_s": solve_s,
        "profile_ode.rhs_evals": rhs,
        "profile_ode.accepted_steps": ix.total(
            "profile_ode.solve_ivp", "steps"),
        "profile_ode.us_per_rhs": 1e6 * solve_s / rhs if rhs else 0.0,
        "profile_ode.arclength": sum(
            s.counts.get("s_end", 0.0)
            for s in ix.outermost("profile_ode.integrate")),
        "profile_ode.post_s": integrate_s - solve_s,
        "profile_ode.export_s": ix.busy("profile_ode.export"),
        "measures.calls": len(ix.outermost("measures")),
        "measures.s": ix.busy("measures"),
        "measures.evaluations": ix.total("measures", "evaluations"),
        "curvature.calls": len(ix.outermost("curvature")),
        "curvature.s": ix.busy("curvature"),
        "render.svg_s": ix.self_time("render.svg"),
        "render.polyline_s": ix.busy("render.polyline"),
        "render.points": ix.total("render.svg", "points"),
        "verify.energy_s": suite_s("energy"),
        "verify.closed_forms_s": suite_s("closed-forms"),
        "verify.curvature_s": suite_s("curvature"),
        "verify.classification_s": suite_s("classification"),
        "verify.measures_s": suite_s("measures"),
    }
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
