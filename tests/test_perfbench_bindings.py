"""The benchmark tracer wraps program functions by the names that modules
bind; a renamed or dropped import would silently lose its spans."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PATCHES


def test_every_patched_name_is_bound():
    patches = _tracer_patches()
    assert patches
    unbound = [
        f"{module_name}.{attr}"
        for module_name, attr, _ in patches
        if not callable(getattr(
            importlib.import_module(f"heisenberg_cmc.{module_name}"),
            attr, None))
    ]
    assert unbound == []
