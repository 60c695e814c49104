"""The benchmark's tracer wraps library functions by ``module:qualname``;
each of those names must still resolve, or a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    tracer = _load_tracer()
    targets = [t for targets in tracer.LAYERS.values() for t in targets] + list(tracer.HOT)
    assert targets
    missing = []
    for target in targets:
        module_name, qualname = target.split(":")
        obj = importlib.import_module(f"gmalie.{module_name}")
        for attr in qualname.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(target)
    assert missing == []
