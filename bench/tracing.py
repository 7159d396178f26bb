"""Spans around the calls each pairvar module makes into the next one.

The tracer replaces module attributes that callers look up at call time
(for example `pairvar.cli.fit_mixture`, which `cli` calls) with wrappers
that record a span, and puts the originals back on `restore()`. Nothing
in `src/` is changed. A span is named `<caller>/<callee>`, so the same
function reached from two modules gives two span names.

Spans stay in memory and are written out when the run ends. A layer's
self time is the duration of its spans minus the time of their direct
child spans. If an entry point no longer exists (a later refactor), every
metric that needs it is reported as absent, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _rows(args, kwargs, result):
    return {"rows": int(np.size(args[0]))}


def _fit(args, kwargs, result):
    est, grid = result
    return {"maps": est.iterations, "J": grid.J, "converged": est.converged}


def _batch(args, kwargs, result):
    method = args[3] if len(args) > 3 else kwargs["method"]
    return {"rows": int(np.size(args[0])), "method": method.value}


def _coverage(args, kwargs, result):
    mode = args[6] if len(args) > 6 else kwargs.get("mode", "single")
    return {"mode": mode, "failures": result.failures}


@dataclass(frozen=True)
class Entry:
    """One wrapped attribute: where callers find it and what to record."""

    module: str
    attr: str
    name: str
    extract: Callable | None = None


FIT = "cli/mixture_em.fit_mixture"
EM = "mixture_em/mixture_em.em_fit"
START = "mixture_em/macl.macl_fit"
SUPPORT = "mixture_em/mixture_em.build_support"
MSTEP = "mixture_em/macl.solve_weighted_equations"
FALLBACK = "mixture_em/scipy.optimize.minimize"
SIM_MACL = "simulate/macl.macl_fit"
LOAD = "cli/model.load_csv"
REGION = "cli/intervals.ci_diff_region"
DIFF_NAIVE = "cli/intervals.ci_diff_naive"
EXACT = "pvalues/intervals.ci_mu_exact"
CROSSINGS = "simulate/intervals.exact_pivot_crossings"
HULLS_SIM = "simulate/intervals.bounded_hulls"
HULLS_PV = "pvalues/intervals.bounded_hulls"
P_NAIVE = "cli/pvalues.pvalue_naive"
P_CONS = "cli/pvalues.pvalue_conservative"
P_BB = "cli/pvalues.pvalue_berger_boos"
BATCH = "simulate/pvalues.batch_pvalues"
COVERAGE = "cli/simulate.coverage_study"
POWER = "cli/simulate.power_study"
ESTIMATOR = "cli/simulate.estimator_study"
CLI = "bench/cli.main"

ENTRIES = (
    Entry("pairvar.cli", "load_csv", LOAD),
    Entry("pairvar.cli", "fit_mixture", FIT, _fit),
    Entry("pairvar.mixture_em", "em_fit", EM),
    Entry("pairvar.mixture_em", "macl_fit", START,
          lambda a, k, r: {"newton": r.iterations}),
    Entry("pairvar.mixture_em", "build_support", SUPPORT),
    Entry("pairvar.mixture_em", "solve_weighted_equations", MSTEP),
    Entry("pairvar.mixture_em", "minimize", FALLBACK),
    Entry("pairvar.cli", "ci_diff_region", REGION,
          lambda a, k, r: {"disconnected": r.disconnected}),
    Entry("pairvar.cli", "ci_diff_naive", DIFF_NAIVE),
    Entry("pairvar.pvalues", "ci_mu_exact", EXACT),
    Entry("pairvar.cli", "pvalue_naive", P_NAIVE),
    Entry("pairvar.cli", "pvalue_conservative", P_CONS),
    Entry("pairvar.cli", "pvalue_berger_boos", P_BB,
          lambda a, k, r: {"degenerate": r.degenerate}),
    Entry("pairvar.simulate", "exact_pivot_crossings", CROSSINGS, _rows),
    Entry("pairvar.simulate", "bounded_hulls", HULLS_SIM, _rows),
    Entry("pairvar.pvalues", "bounded_hulls", HULLS_PV, _rows),
    Entry("pairvar.simulate", "batch_pvalues", BATCH, _batch),
    Entry("pairvar.simulate", "macl_fit", SIM_MACL,
          lambda a, k, r: {"newton": r.iterations}),
    Entry("pairvar.cli", "coverage_study", COVERAGE, _coverage),
    Entry("pairvar.cli", "power_study", POWER,
          lambda a, k, r: {"failures": r.failures}),
    Entry("pairvar.cli", "estimator_study", ESTIMATOR,
          lambda a, k, r: {"failures": r.failures}),
)


class Tracer:
    """Records spans from wrappers it installs on pairvar module attributes."""

    def __init__(self, names: set[str] | None = None):
        self.entries = [e for e in ENTRIES if names is None or e.name in names]
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.iteration = 0
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        for entry in self.entries:
            try:
                module = importlib.import_module(entry.module)
            except ImportError:
                module = None
            original = getattr(module, entry.attr, None)
            if original is None:
                self.missing.append(entry.name)
                continue
            setattr(module, entry.attr, self._wrap(entry, original))
            self._originals.append((module, entry.attr, original))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "iter": self.iteration,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["attrs"]
        except BaseException as exc:
            record["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, entry: Entry, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(entry.name) as attrs:
                result = fn(*args, **kwargs)
                if entry.extract is not None:
                    attrs.update(entry.extract(args, kwargs, result))
                return result
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)


class _Spans:
    """Queries over one run's spans; totals are divided by the iterations."""

    def __init__(self, spans: list[dict], iterations: int):
        self.n = max(iterations, 1)
        self.by_name: dict[str, list[dict]] = {}
        child_time: dict[int, float] = {}
        for s in spans:
            self.by_name.setdefault(s["name"], []).append(s)
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        self.child_time = child_time

    def get(self, name):
        return self.by_name.get(name, [])

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.get(name)]

    def per_iter(self, *names):
        return sum(sum(self.durations(n)) for n in names) / self.n

    def calls(self, *names):
        return sum(len(self.get(n)) for n in names) / self.n

    def self_time(self, *names):
        return sum(s["end"] - s["start"] - self.child_time.get(s["id"], 0.0)
                   for n in names for s in self.get(n)) / self.n

    def attr_sum(self, names, key):
        return sum(float(s["attrs"].get(key, 0)) for n in names
                   for s in self.get(n))

    def attr_mean(self, names, key):
        vals = [float(s["attrs"][key]) for n in names for s in self.get(n)
                if key in s["attrs"]]
        return sum(vals) / len(vals) if vals else 0.0

    def pct_ms(self, name, q):
        d = self.durations(name)
        return 1e3 * float(np.percentile(d, q)) if d else 0.0

    def count_where(self, names, pred):
        return sum(1 for n in names for s in self.get(n) if pred(s)) / self.n

    def mode_time(self, mode):
        return sum(s["end"] - s["start"] for s in self.get(COVERAGE)
                   if s["attrs"].get("mode") == mode) / self.n

    def method_time(self, method):
        return sum(s["end"] - s["start"] for s in self.get(BATCH)
                   if s["attrs"].get("method") == method) / self.n


def _ms_per_map(q: _Spans) -> float:
    maps = q.attr_sum([FIT], "maps")
    return 1e3 * sum(q.durations(EM)) / maps if maps else 0.0


_STUDIES = (COVERAGE, POWER, ESTIMATOR)
_CLI_CHILDREN = (LOAD, FIT, REGION, DIFF_NAIVE, P_NAIVE, P_CONS, P_BB) + _STUDIES
_MACL = (START, SIM_MACL)

# name, unit, spans it needs, value. Times and counts are per iteration.
PER_LAYER = (
    ("mixture_em.fit_s", "s", (FIT,), lambda q: q.per_iter(FIT)),
    ("mixture_em.em_maps", "count", (FIT,), lambda q: q.attr_mean([FIT], "maps")),
    ("mixture_em.ms_per_map", "ms", (FIT, EM), _ms_per_map),
    ("mixture_em.grid_J", "count", (FIT,), lambda q: q.attr_mean([FIT], "J")),
    ("mixture_em.converged", "1", (FIT,),
     lambda q: q.attr_mean([FIT], "converged")),
    ("mixture_em.mstep_s", "s", (MSTEP,), lambda q: q.per_iter(MSTEP)),
    ("mixture_em.mstep_calls", "count", (MSTEP,), lambda q: q.calls(MSTEP)),
    ("mixture_em.mstep_fallbacks", "count", (FALLBACK,),
     lambda q: q.calls(FALLBACK)),
    ("mixture_em.self_s", "s", (FIT, EM, START, SUPPORT, MSTEP, FALLBACK),
     lambda q: q.self_time(FIT, EM)),
    ("macl.fit_s", "s", _MACL, lambda q: q.per_iter(*_MACL)),
    ("macl.fit_calls", "count", _MACL, lambda q: q.calls(*_MACL)),
    ("macl.newton_iters", "count", _MACL,
     lambda q: q.attr_mean(_MACL, "newton")),
    ("macl.failures", "count", _MACL,
     lambda q: q.count_where(_MACL, lambda s: "error" in s["attrs"])),
    ("intervals.region_s", "s", (REGION,), lambda q: q.per_iter(REGION)),
    ("intervals.region_calls", "count", (REGION,), lambda q: q.calls(REGION)),
    ("intervals.region_ms.p50", "ms", (REGION,), lambda q: q.pct_ms(REGION, 50)),
    ("intervals.region_ms.p90", "ms", (REGION,), lambda q: q.pct_ms(REGION, 90)),
    ("intervals.region_disconnected", "count", (REGION,),
     lambda q: q.count_where([REGION],
                             lambda s: s["attrs"].get("disconnected"))),
    ("intervals.exact_s", "s", (EXACT,), lambda q: q.per_iter(EXACT)),
    ("intervals.exact_calls", "count", (EXACT,), lambda q: q.calls(EXACT)),
    ("intervals.pivot_crossings_s", "s", (CROSSINGS,),
     lambda q: q.per_iter(CROSSINGS)),
    ("intervals.pivot_crossings_rows", "count", (CROSSINGS,),
     lambda q: q.attr_sum([CROSSINGS], "rows") / q.n),
    ("intervals.bounded_hulls_s", "s", (HULLS_SIM, HULLS_PV),
     lambda q: q.per_iter(HULLS_SIM, HULLS_PV)),
    ("intervals.bounded_hulls_rows", "count", (HULLS_SIM, HULLS_PV),
     lambda q: q.attr_sum([HULLS_SIM, HULLS_PV], "rows") / q.n),
    ("pvalues.naive_s", "s", (P_NAIVE,), lambda q: q.per_iter(P_NAIVE)),
    ("pvalues.conservative_s", "s", (P_CONS,), lambda q: q.per_iter(P_CONS)),
    ("pvalues.berger_boos_s", "s", (P_BB,), lambda q: q.per_iter(P_BB)),
    ("pvalues.berger_boos_ms.p50", "ms", (P_BB,), lambda q: q.pct_ms(P_BB, 50)),
    ("pvalues.berger_boos_degenerate", "count", (P_BB,),
     lambda q: q.count_where([P_BB], lambda s: s["attrs"].get("degenerate"))),
    ("pvalues.batch_s", "s", (BATCH,), lambda q: q.per_iter(BATCH)),
    ("pvalues.batch_rows", "count", (BATCH,),
     lambda q: q.attr_sum([BATCH], "rows") / q.n),
    ("pvalues.batch_berger_boos_s", "s", (BATCH,),
     lambda q: q.method_time("berger-boos")),
    ("simulate.coverage_single_s", "s", (COVERAGE,),
     lambda q: q.mode_time("single")),
    ("simulate.coverage_difference_s", "s", (COVERAGE,),
     lambda q: q.mode_time("difference")),
    ("simulate.power_s", "s", (POWER,), lambda q: q.per_iter(POWER)),
    ("simulate.estimator_s", "s", (ESTIMATOR,), lambda q: q.per_iter(ESTIMATOR)),
    ("simulate.self_s", "s",
     _STUDIES + (CROSSINGS, HULLS_SIM, HULLS_PV, BATCH, SIM_MACL),
     lambda q: q.self_time(*_STUDIES)),
    ("simulate.failures", "count", _STUDIES,
     lambda q: q.attr_sum(_STUDIES, "failures") / q.n),
    ("model.load_csv_s", "s", (LOAD,), lambda q: q.per_iter(LOAD)),
    ("cli.self_s", "s", _CLI_CHILDREN, lambda q: q.self_time(CLI)),
)

OVERHEAD = ("trace.overhead_ratio", "1")


def layer_metrics(spans: list[dict], missing: list[str],
                  iterations: int) -> dict[str, dict]:
    """Per-layer metrics from one traced phase, absent where spans are missing."""
    q = _Spans(spans, iterations)
    gone = set(missing)
    return {name: {"value": float(fn(q)), "unit": unit}
            for name, unit, needs, fn in PER_LAYER if not gone & set(needs)}
