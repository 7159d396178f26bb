"""The benchmark's tracer wraps pairvar module attributes by name.

bench/tracing.py reports every per-layer metric whose entry point no
longer resolves as absent, so a renamed or removed attribute silently
drops metrics from a traced run. These tests keep every wrapped name
resolvable and run each workload once, traced, at its quick size.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["pipeline-control", "pipeline-experiment",
                                      "studies"])
def test_traced_quick_run_prints_every_per_layer_metric(workload):
    # the benchmark's result is the last line of a traced run: strict JSON,
    # a correct run, and exactly the per-layer metrics BENCHMARK.json names
    root = TRACING.parents[1]
    names = [m["name"] for m in
             json.loads((root / "BENCHMARK.json").read_text())["per_layer"]]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--size", "quick", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1],
                        parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stdout
    assert sorted(result["metrics"]) == sorted(names)
