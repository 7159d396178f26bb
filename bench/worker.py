"""Run one workload's CLI commands in-process and record what they cost.

run.py starts this file as its own process, so the peak resident memory it
reports belongs to the workload alone. It reads a plan written by run.py
and writes the per-iteration records back as JSON:

    python3 bench/worker.py PLAN.json RESULT.json
"""

from __future__ import annotations

import io
import json
import mmap
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr
from pathlib import Path


def steal_seconds():
    """CPU time the hypervisor gave to other guests, all CPUs (0 if unknown)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


PROBE_SIZE = 350_000     # 2.8 MB arrays: past a core's L2, as the program's are
PROBE_LOOPS = 100_000
PROBE_REPS = 8


class Probe:
    """Times a fixed kernel: how fast this CPU runs the program's kind of work now.

    On a shared host the same code runs up to ~50% slower while neighbours
    load the core, its caches or its memory bus, for tens of seconds at a
    time, in CPU time as well as wall time. The kernel mixes what the
    program spends its time on: an interpreted loop, and numpy exp and
    arithmetic over arrays larger than L2, written into fresh anonymous
    pages so that it pays page faults as the program's temporaries do.
    It uses no code of the program and none of its heap, so no change to
    the program moves it; only the machine does. Each command is
    bracketed by PROBE_REPS timings before and after it; run.py scales
    each iteration's times by the probe times of it and its neighbours.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.linspace(0.0, 1.0, PROBE_SIZE)
        self.last = None

    def _once(self) -> float:
        np, x = self.np, self.x
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        pages = [mmap.mmap(-1, x.nbytes) for _ in range(3)]
        h, d, s = (np.frombuffer(m, dtype=np.float64) for m in pages)
        for _ in range(2):
            np.exp(np.multiply(x, -0.9, out=h), out=h)
            np.subtract(x, h, out=d)
            np.sqrt(np.add(x, h, out=s), out=s)
            np.divide(d, s, out=d)
        del h, d, s
        for m in pages:
            m.close()
        return time.perf_counter() - t0

    def sample(self) -> list[float]:
        self.last = [self._once() for _ in range(PROBE_REPS)]
        return self.last

    def around(self, before: list[float]) -> float:
        """Median probe time of the samples before and after a command."""
        return statistics.median(before + self.sample())


def _run_phase(phase, commands, outdir, tracer, cli_main, probe):
    """Repeat the workload's commands until the phase's time is up (once at least).

    Each command is timed on its own, between two sets of probes (the
    set after one command is the set before the next). No iteration
    starts that the previous one says would end past the phase's time.
    """
    records = []
    start = time.perf_counter()
    k, last = 0, 0.0
    probe.sample()
    while k == 0 or time.perf_counter() - start + last < phase["seconds"]:
        tracer.iteration = k
        t_iter = time.perf_counter()
        outs, codes, errors, timed = [], [], [], []
        for j, argv in enumerate(commands):
            before = probe.last
            out = outdir / f"{phase['name']}-{k:03d}-{j}.csv"
            stderr = io.StringIO()
            t0, c0, s0 = time.perf_counter(), time.process_time(), steal_seconds()
            try:
                with tracer.span("bench/cli.main"), redirect_stderr(stderr):
                    code = cli_main(argv + ["--out", str(out)])
            except Exception:
                # A crash counts as a failed command; the run goes on.
                code = -1
                stderr.write(traceback.format_exc(limit=3))
            timed.append({"wall_s": time.perf_counter() - t0,
                          "cpu_s": time.process_time() - c0,
                          "steal_s": steal_seconds() - s0})
            timed[-1]["probe_s"] = probe.around(before)
            if code != 0:
                errors.append(stderr.getvalue()[-2000:])
            outs.append(str(out))
            codes.append(code)
        records.append({
            "phase": phase["name"], "iter": k, "commands": timed,
            "codes": codes, "outs": outs, "errors": errors,
        })
        last = time.perf_counter() - t_iter
        k += 1
    return records


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path[:0] = [plan["src"], plan["bench"]]
    import pairvar.cli
    from tracing import FIT, Tracer

    outdir = Path(plan["outdir"])
    probe = Probe()
    records, fits, missing = [], [], []
    for phase in plan["phases"]:
        # Untraced phases wrap only the fit, to read its EM map count.
        tracer = Tracer(None if phase["traced"] else {FIT})
        tracer.install()
        try:
            records += _run_phase(phase, plan["commands"], outdir, tracer,
                                  pairvar.cli.main, probe)
        finally:
            tracer.restore()
        fits += [dict(s["attrs"], phase=phase["name"], iter=s["iter"])
                 for s in tracer.spans if s["name"] == FIT]
        if phase["traced"]:
            tracer.dump(plan["spans"])
            missing = tracer.missing
    result = {
        "records": records,
        "fits": fits,
        "missing": missing,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
