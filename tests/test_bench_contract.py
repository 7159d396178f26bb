"""The benchmark's tracer wraps pairvar module attributes by name.

bench/tracing.py reports every per-layer metric whose entry point no
longer resolves as absent, so a renamed or removed attribute silently
drops metrics from a traced run, and one that resolves but is no longer
called reads zero. These tests keep every wrapped name resolvable and
called, but a listed few, and run each workload once, traced, at its
quick size.
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
SRC = TRACING.parents[1] / "src"

# entries whose module still has the wrapped name but calls it nowhere, so
# their per-layer metrics read zero whatever the program does; the next
# revision of the benchmark retires them
STALE_ENTRIES = {"cli.pvalue_naive", "cli.pvalue_conservative",
                 "cli.pvalue_berger_boos", "pvalues.ci_mu_exact",
                 "mixture_em.minimize"}


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


def _called_names(module: str) -> set:
    """The bare names module's source calls, name(...), as a pairvar
    module calls what it imported."""
    path = SRC.joinpath(*module.split(".")).with_suffix(".py")
    return {n.func.id for n in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def test_every_traced_entry_point_is_called():
    # a refactor that stops calling a wrapped name fails here, instead of
    # zeroing its per-layer metrics
    uncalled = {f"{e.module.rpartition('.')[2]}.{e.attr}"
                for e in _load_tracing().ENTRIES
                if e.attr not in _called_names(e.module)}
    assert uncalled == STALE_ENTRIES


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
