"""The library names the benchmark in ``perfbench/`` wraps must keep resolving.

The traced benchmark patches functions by module attribute lookup, so renaming
one of them would break it; this keeps such a rename from passing the suite.
"""
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports its sibling tracer.py
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_benchmark_hooks_resolve():
    workloads = _load_workloads()
    hooks = [(module, attr) for module, attr, _ in workloads.TRACE_POINTS]
    hooks += [(module, attr) for module, attr, _ in workloads._SimProbe().targets()]
    missing = [f"{module.__name__}.{attr}" for module, attr in hooks if not callable(getattr(module, attr, None))]
    assert not missing, f"benchmark hooks no longer resolve: {missing}"
