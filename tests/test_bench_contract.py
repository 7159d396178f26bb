"""The benchmark's tracer wraps pairvar module attributes by name.

bench/tracing.py reports every per-layer metric whose entry point no
longer resolves as absent, so a renamed or removed attribute silently
drops metrics from a traced run. This test keeps every wrapped name
resolvable.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_entry_point_resolves():
    entries = _load_tracing().ENTRIES
    assert entries
    for e in entries:
        target = getattr(importlib.import_module(e.module), e.attr, None)
        assert callable(target), f"{e.module}.{e.attr} ({e.name})"
