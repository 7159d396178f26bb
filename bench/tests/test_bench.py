"""Tests of the benchmark itself, on its quick size.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import pairvar.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import (END_TO_END, PROBE_REF_S, at_reference_speed,  # noqa: E402
                 running_wall)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _quick(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "0",
                "--size", "quick", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_quick_run_prints_every_end_to_end_metric(workload):
    lines, result = _quick(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    text = "\n".join(lines)
    for name, unit in END_TO_END + (("fail_ratio", "1"),):
        row = next(line for line in lines if line.split()[:1] == [name])
        assert row.split()[2] == unit, row
    fail_row = next(line for line in lines if line.split()[:1] == ["fail_ratio"])
    assert float(fail_row.split()[1]) == 0.0
    assert "metadata " in text


def test_quick_traced_run_prints_every_per_layer_metric():
    lines, result = _quick("pipeline-experiment", 1)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    assert result["metrics"]["intervals.region_calls"]["value"] == 3
    assert result["metrics"]["mixture_em.em_maps"]["value"] > 0


def test_benchmark_json_names_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    layer = [(n, u) for n, u, _, _ in tracing.PER_LAYER] + [tracing.OVERHEAD]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layer
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("wall, cpu, steal, want", [
    (10.0, 6.0, 3.0, 7.0),       # steal removed from a single-thread wall
    (10.0, 6.0, 5.0, 6.0),       # never below the CPU time
    (5.0, 10.0, 2.0, 5.0),       # two busy CPUs share the steal
    (5.0, 4.9, 0.0, 5.0),        # no steal, wall unchanged
])
def test_running_wall_leaves_out_steal(wall, cpu, steal, want):
    record = {"wall_s": wall, "cpu_s": cpu, "steal_s": steal}
    assert running_wall(record) == pytest.approx(want)


def test_times_are_scaled_by_the_probe_around_neighbouring_iterations():
    def record(*probes):
        return {"commands": [{"wall_s": 4.0, "cpu_s": 3.0, "steal_s": 0.0,
                              "probe_s": p * PROBE_REF_S} for p in probes]}

    # the probe ran twice as slow: halved, one odd probe set outvoted
    scaled = at_reference_speed([record(2, 2), record(2, 2), record(2, 9)])
    assert scaled[0] == pytest.approx((4.0, 3.0))
    assert scaled[1] == pytest.approx((4.0, 3.0))
    # at the reference speed: unchanged
    assert at_reference_speed([record(1)]) == [pytest.approx((4.0, 3.0))]


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.build("pipeline-experiment", 7, "quick", tmp_path / "a")
    b = workloads.build("pipeline-experiment", 7, "quick", tmp_path / "b")
    c = workloads.build("pipeline-experiment", 8, "quick", tmp_path / "c")
    digest = lambda w: [checks.sha256(f) for f in w.files]  # noqa: E731
    assert digest(a) == digest(b)
    # the control set is fixed; the seed draws the experiment pairs
    assert digest(a)[0] == digest(c)[0] and digest(a)[1] != digest(c)[1]
    rows = list(csv.DictReader(open(a.commands[0].expect["experiment"])))
    assert sum(r["y1"] == r["y2"] for r in rows) == 1


def _pipeline_output(tmp_path):
    workload = workloads.build("pipeline-experiment", 1, "quick", tmp_path)
    out = tmp_path / "out.csv"
    assert pairvar.cli.main(workload.commands[0].argv + ["--out", str(out)]) == 0
    record = {"phase": "plain", "iter": 0, "codes": [0], "outs": [str(out)]}
    return workload, out, record


def _rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("column, value", [
    ("p_berger_boos", "1e-9"),        # below beta
    ("p_naive", "0.5"),               # differs from the batch kernel
    ("ratio_hi", "1e6"),              # off the region boundary
])
def test_corrupted_pipeline_row_is_a_failure(tmp_path, column, value):
    workload, out, record = _pipeline_output(tmp_path)
    tally, _ = checks.check_run(workload.commands, [record], None)
    assert tally.failed == 0, tally.problems
    good = tally.attempted

    def corrupt(rows):
        rows[1][column] = value
        return rows

    _rewrite(out, corrupt)
    tally, _ = checks.check_run(workload.commands, [record], None)
    assert (tally.attempted, tally.failed) == (good, 1), tally.problems


def test_missing_row_and_failed_command_are_failures(tmp_path):
    workload, out, record = _pipeline_output(tmp_path)
    _rewrite(out, lambda rows: rows[:-1])
    tally, _ = checks.check_run(workload.commands, [record], None)
    # the command (row count) and the missing row
    assert tally.failed == 2
    failed = dict(record, codes=[3])
    tally, _ = checks.check_run(workload.commands, [failed], None)
    assert tally.failed == tally.attempted == 1 + len(
        workload.commands[0].expect["ids"])


def test_corrupted_study_row_is_a_failure(tmp_path):
    workload = workloads.build("studies", 1, "quick", tmp_path)
    cmd = workload.commands[0]           # coverage, single mode
    out = tmp_path / "cov.csv"
    assert pairvar.cli.main(cmd.argv + ["--out", str(out)]) == 0
    record = {"phase": "plain", "iter": 0, "codes": [0], "outs": [str(out)]}
    tally, _ = checks.check_run([cmd], [record], None)
    assert tally.failed == 0, tally.problems

    def corrupt(rows):
        rows[0]["coverage"] = "0.90"     # exact coverage must be 0.95
        return rows

    _rewrite(out, corrupt)
    tally, _ = checks.check_run([cmd], [record], None)
    assert tally.failed == 1, tally.problems


def test_missing_entry_point_is_absent_not_zero(monkeypatch):
    monkeypatch.delattr(pairvar.cli, "fit_mixture")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.missing == [tracing.FIT]
    metrics = tracing.layer_metrics([], tracer.missing, 1)
    assert "mixture_em.fit_s" not in metrics
    assert "cli.self_s" not in metrics
    assert metrics["intervals.region_s"]["value"] == 0.0


def test_tracer_restores_the_originals():
    before = pairvar.cli.ci_diff_region
    tracer = tracing.Tracer()
    tracer.install()
    assert pairvar.cli.ci_diff_region is not before
    tracer.restore()
    assert pairvar.cli.ci_diff_region is before


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("--workload", "studies", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_catches_a_small_change_on_the_reference_seed(tmp_path):
    seed = workloads.REFERENCE_SEED
    workload = workloads.build("pipeline-experiment", seed, "quick", tmp_path)
    out = tmp_path / "out.csv"
    assert pairvar.cli.main(workload.commands[0].argv + ["--out", str(out)]) == 0
    record = {"phase": "plain", "iter": 0, "codes": [0], "outs": [str(out)]}
    reference = json.loads(
        (BENCH / "reference" / "pipeline-experiment-quick.json").read_text())
    tally, _ = checks.check_run(workload.commands, [record], reference)
    assert tally.failed == 0, tally.problems

    def nudge(rows):                     # too small for the boundary check
        rows[0]["ratio_lo"] = repr(float(rows[0]["ratio_lo"]) * (1 + 1e-5))
        return rows

    _rewrite(out, nudge)
    tally, _ = checks.check_run(workload.commands, [record], reference)
    assert tally.failed == 1
    assert "differs from the reference" in tally.problems[0]
