"""The benchmark's tracer wraps kiqa functions by module and attribute name;
a rename or move that breaks one of those bindings should fail here, fast."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_trace_points_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACE_POINTS
    for module_name, attr, *_ in tracing.TRACE_POINTS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"
