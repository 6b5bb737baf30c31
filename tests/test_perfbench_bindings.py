"""The benchmark tracer wraps program functions by the names that modules
bind; a renamed or dropped import would silently lose its spans."""

import importlib
import importlib.util
from pathlib import Path

import heisenberg_cmc.profile_ode as pode

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_patched_name_is_bound():
    patches = _tracer().PATCHES
    assert patches
    unbound = [
        f"{module_name}.{attr}"
        for module_name, attr, _ in patches
        if not callable(getattr(
            importlib.import_module(f"heisenberg_cmc.{module_name}"),
            attr, None))
    ]
    assert unbound == []


def test_tracer_reads_the_solve_counts(monkeypatch):
    # the tracer's profile_ode.solve_ivp span reads nfev and len(t) off the
    # result; they must be the counts integrate reports
    counts = _tracer()._counts
    solve = pode.solve_ivp
    seen = []

    def spy(*args, **kwargs):
        result = solve(*args, **kwargs)
        seen.append(counts("profile_ode.solve_ivp", args, result))
        return result

    monkeypatch.setattr(pode, "solve_ivp", spy)
    traj = pode.integrate(1, 0.5, initial=pode.ProfileState(0.8, 0.0, 0.0),
                          config=pode.SolveConfig(max_arclength=5.0))
    assert seen == [{"nfev": traj.stats.rhs_evals, "steps": traj.stats.steps}]
    assert traj.stats.steps > 0
