"""Output checks behind `pass_ratio` (and `fail_ratio`).

An operation is one CLI command or one expected output row. A command
fails on a nonzero exit code, a missing or unreadable output, extra rows,
output that differs between two runs of the same inputs, or a fitted
theta outside the reference tolerance. A row fails when it is missing or
breaks a check below. Rows of a failed command count as failed.

Checks that hold for any correct version, on every seed:
  pipeline rows  ids and inputs echoed; p-values in [0, 1];
                 p_berger_boos >= beta; p_conservative >= p_berger_boos - beta;
                 naive CI and all three p-values equal an independent
                 recomputation at the run's own theta_hat (the p-values via
                 the vectorised batch kernel, rtol 1e-9); the region hull
                 holds the observed ratio and each finite end lies on the
                 projection boundary (inside at +-1e-4 in log ratio, outside
                 at -+1e-4), with the quadratic form recomputed here as
                 (y1-mu1)^2/h(mu1) + (y2-mu2)^2/h(mu2).
  study rows     rates in [0, 1]; exact single-mode coverage within 5 MC
                 standard errors of 0.95 (theta_fit = theta_true); region
                 and Bonferroni coverage at least 0.95 - 5 SE; conservative
                 and Berger-Boos rejection at k = 0 at most 0.05 + 5 SE.
Checks against the reference recorded at the benchmark's commit:
  pipeline       for the reference's control file (pipeline-control's is
                 the same on every seed): theta_hat within the EM's own
                 convergence accuracy (|dt1| <= 5e-3, |dt2| <= 5e-4; a fit
                 stopped at tol 1e-8 and one at 1e-10 differ by ~1e-3 and
                 ~1e-4), J within 1; for the reference's experiment file
                 too, with theta_hat bit-identical: every row value within
                 rtol 1e-9 (region ends 1e-6).
  studies        for the reference's config, on every seed: each rate
                 within 5*sqrt(2) MC standard errors of the reference rate
                 (two independent estimates); estimator bias and std within
                 5*sqrt(2) of their standard errors. At 5 sigma the chance
                 of any false alarm over 22 runs of `studies` is below 1e-3.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

from pairvar import TestMethod, VarianceForm, VarianceModel
from pairvar.pvalues import batch_pvalues

Z = 5.0
ALPHA = 0.05
THETA_TOL = (5e-3, 5e-4)
BOUNDARY_STEP = 1e-4
P_COLUMNS = ("p_naive", "p_conservative", "p_berger_boos")


class Tally:
    """Counts operations and keeps the first few problems for the report."""

    def __init__(self):
        self.flags: list[bool] = []
        self.problems: list[str] = []
        self.compared: list[str] = []    # what was held against the reference

    @property
    def attempted(self) -> int:
        return len(self.flags)

    @property
    def failed(self) -> int:
        return self.flags.count(False)

    def op(self, ok: bool, what: str) -> None:
        self.flags.append(bool(ok))
        if not ok and len(self.problems) < 20:
            self.problems.append(what)

    def merge(self, other: "Tally") -> None:
        self.flags += other.flags
        self.problems += other.problems[:max(0, 20 - len(self.problems))]
        self.compared += other.compared


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------- pipeline


def _min_quad(y1, y2, model, nu1, a, b):
    """Smallest chi-squared(2) form over the nuisance sum at difference nu1."""
    lo, hi = 2.0 * a + abs(nu1), 2.0 * b - abs(nu1)
    if hi < lo:
        return math.inf

    def quad(nu2):
        mu1, mu2 = (nu2 + nu1) / 2.0, (nu2 - nu1) / 2.0
        return (y1 - mu1) ** 2 / model(mu1) + (y2 - mu2) ** 2 / model(mu2)

    grid = np.linspace(lo, hi, 4001)
    k = int(np.argmin(quad(grid)))
    left, right = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    res = minimize_scalar(quad, bounds=(left, right), method="bounded",
                          options={"xatol": 1e-12})
    return min(float(res.fun), float(quad(grid[k])))


def _region_ok(y1, y2, lo_ratio, hi_ratio, model, bounds) -> bool:
    a, b = bounds
    lo, hi = math.log(lo_ratio), math.log(hi_ratio)
    d = y1 - y2
    if not lo <= hi:
        return False
    if a <= min(y1, y2) and max(y1, y2) <= b and not lo <= d <= hi:
        return False
    q = -2.0 * math.log(ALPHA)
    span = b - a
    for end, inward in ((lo, 1.0), (hi, -1.0)):
        if _min_quad(y1, y2, model, end + inward * BOUNDARY_STEP, a, b) > q:
            return False
        out = end - inward * BOUNDARY_STEP
        if abs(out) < span and _min_quad(y1, y2, model, out, a, b) <= q:
            return False
    return True


def _pipeline_rows_ok(rows, expect, model) -> list[tuple[bool, str]]:
    """(ok, reason) per expected row, checked at the run's own theta_hat."""
    beta = expect["beta"]
    bounds = tuple(expect["bounds"])
    y1 = np.array(expect["y1"])
    y2 = np.array(expect["y2"])
    batch = {col: batch_pvalues(y1, y2, model, method, bounds, beta)
             for col, method in zip(P_COLUMNS, TestMethod)}
    z = 1.959963984540054
    out = []
    for i, pid in enumerate(expect["ids"]):
        if i >= len(rows):
            out.append((False, f"{pid}: missing row"))
            continue
        r = rows[i]
        try:
            p = {c: float(r[c]) for c in P_COLUMNS}
            vals = {c: float(r[c]) for c in ("y1", "y2", "ratio_lo", "ratio_hi",
                                             "ratio_naive_lo",
                                             "ratio_naive_hi")}
        except (KeyError, TypeError, ValueError):
            out.append((False, f"{pid}: unreadable row"))
            continue
        a, b = y1[i], y2[i]
        half = z * math.sqrt(float(model(a)) + float(model(b)))
        reason = None
        if r["id"] != pid or vals["y1"] != a or vals["y2"] != b:
            reason = "id or inputs not echoed"
        elif not all(0.0 <= v <= 1.0 for v in p.values()):
            reason = "p-value outside [0, 1]"
        elif p["p_berger_boos"] < beta:
            reason = "p_berger_boos < beta"
        elif p["p_conservative"] < p["p_berger_boos"] - beta:
            reason = "p_conservative < p_berger_boos - beta"
        elif not (_close(vals["ratio_naive_lo"], math.exp(a - b - half), 1e-9)
                  and _close(vals["ratio_naive_hi"], math.exp(a - b + half),
                             1e-9)):
            reason = "naive CI differs from recomputation"
        elif not all(_close(p[c], float(batch[c][i]), 1e-9) for c in P_COLUMNS):
            reason = "p-value differs from the batch kernel"
        elif not _region_ok(a, b, vals["ratio_lo"], vals["ratio_hi"], model,
                            bounds):
            reason = "region CI not on the projection boundary"
        out.append((reason is None, f"{pid}: {reason}"))
    return out


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _pipeline_reference(rows, theta, J, expect, ref, tally) -> tuple[str, dict]:
    """Why the command differs from the reference ('' if not), and bad rows.

    theta_hat and J are compared when the control file is the reference's;
    rows when both files are and theta_hat is bit-identical.
    """
    if ref is None or ref["control_sha256"] != sha256(expect["control"]):
        return "", {}
    tally.compared.append("pipeline theta_hat")
    dt = [abs(t - r) for t, r in zip(theta, ref["theta_hat"])]
    if not (all(d <= tol for d, tol in zip(dt, THETA_TOL))
            and abs(J - ref["J"]) <= 1):
        return (f"theta_hat {theta}, J {J} vs reference {ref['theta_hat']}, "
                f"{ref['J']}"), {}
    if (ref["experiment_sha256"] != sha256(expect["experiment"])
            or list(theta) != list(ref["theta_hat"])):
        return "", {}
    tally.compared.append("pipeline rows")
    bad = {}
    for i, (r, want) in enumerate(zip(rows, ref["rows"])):
        for col, value in want.items():
            if col in ("id", "ci_disconnected"):
                same = r.get(col) == value
            else:
                tol = 1e-6 if col in ("ratio_lo", "ratio_hi") else 1e-9
                same = _close(float(r[col]), float(value), tol)
            if not same:
                bad[i] = f"{r.get('id')}: {col} differs from the reference"
                break
    return "", bad


def check_pipeline(out, expect, tally: Tally, ref: dict | None):
    """Check one pipeline output; returns (theta_hat, J) or None."""
    try:
        rows = read_csv(out)
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text(
            encoding="utf-8"))
        theta = tuple(float(t) for t in manifest["config"]["theta_hat"])
        J = int(manifest["config"]["J"])
        model = VarianceModel(VarianceForm.EXP_LINEAR, theta)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        tally.op(False, f"{out}: unreadable output ({exc})")
        for pid in expect["ids"]:
            tally.op(False, f"{pid}: no output")
        return None
    bad_cmd, bad_rows = _pipeline_reference(rows, theta, J, expect, ref, tally)
    if len(rows) != len(expect["ids"]):
        bad_cmd = f"{len(rows)} rows for {len(expect['ids'])} pairs"
    elif not theta[1] < 0:
        bad_cmd = f"fitted slope {theta[1]} not negative"
    tally.op(not bad_cmd, f"pipeline: {bad_cmd}")
    for i, (ok, reason) in enumerate(_pipeline_rows_ok(rows, expect, model)):
        if ok and i in bad_rows:
            ok, reason = False, bad_rows[i]
        tally.op(ok, reason)
    return theta, J


# ----------------------------------------------------------------- studies


def _se(p: float, reps: int) -> float:
    p = min(max(p, 1.0 / reps), 1.0 - 1.0 / reps)
    return math.sqrt(p * (1.0 - p) / reps)


def _study_row_ok(name, row, reps, ref_row) -> str | None:
    if name == "estimator":
        bias, std = float(row["bias"]), float(row["std"])
        if ref_row is None:
            return None
        rb, rs = float(ref_row["bias"]), float(ref_row["std"])
        k = Z * math.sqrt(2.0)
        if abs(bias - rb) > k * rs / math.sqrt(reps):
            return f"{row['param']} bias {bias} vs reference {rb}"
        if abs(std - rs) > k * rs / math.sqrt(2.0 * (reps - 1)):
            return f"{row['param']} std {std} vs reference {rs}"
        return None
    key = "rejection_rate" if name == "power" else "coverage"
    rate = float(row[key])
    method = row["method"]
    if not 0.0 <= rate <= 1.0:
        return f"{key} {rate} outside [0, 1]"
    if name == "coverage-single" and method == "exact":
        if abs(rate - (1.0 - ALPHA)) > Z * _se(1.0 - ALPHA, reps):
            return f"exact coverage {rate} at mu={row['mu']} not 0.95"
    if name == "coverage-difference" and method in ("region", "bonferroni"):
        if rate < 1.0 - ALPHA - Z * _se(1.0 - ALPHA, reps):
            return f"{method} coverage {rate} below 0.95"
    if (name == "power" and float(row["k"]) == 0.0
            and method in ("conservative", "berger-boos")):
        if rate > ALPHA + Z * _se(ALPHA, reps):
            return f"{method} level {rate} above 0.05"
    if ref_row is not None:
        ref = float(ref_row[key])
        if abs(rate - ref) > Z * math.sqrt(2.0) * _se(ref, reps):
            return f"{method} {key} {rate} vs reference {ref}"
    return None


def check_study(out, expect, tally: Tally, ref: dict | None):
    """Check one study output; reference rates apply when the config matches."""
    name, reps = expect["name"], expect["reps"]
    n = expect["rows"]
    ref_rows = None
    if ref is not None and ref["config_sha256"] == sha256(expect["config"]):
        ref_rows = ref["rows"]
        tally.compared.append(f"{name} rates")
    try:
        rows = read_csv(out)
    except OSError as exc:
        tally.op(False, f"{out}: unreadable output ({exc})")
        rows = None
    if rows is None:
        for i in range(n):
            tally.op(False, f"{name} row {i}: no output")
        return
    tally.op(len(rows) == n, f"{name}: {len(rows)} rows, expected {n}")
    for i in range(n):
        if i >= len(rows):
            tally.op(False, f"{name} row {i}: missing")
            continue
        ref_row = ref_rows[i] if ref_rows is not None else None
        try:
            why = _study_row_ok(name, rows[i], reps, ref_row)
        except (KeyError, TypeError, ValueError) as exc:
            why = f"unreadable row ({exc})"
        tally.op(why is None, f"{name} row {i}: {why}")


# ------------------------------------------------------------------- a run


def check_run(commands, records, reference) -> tuple[Tally, list]:
    """Check every iteration's outputs; returns the tally and fitted thetas.

    Repeated runs of the same inputs must give identical output files; each
    command's first output is checked in full and its verdicts reused.
    reference is a list aligned with commands, or None.
    """
    tally = Tally()
    first: dict[int, tuple[bytes, list[bool]]] = {}
    fitted = [None] * len(commands)
    for rec in records:
        for j, (cmd, code, out) in enumerate(zip(commands, rec["codes"],
                                                 rec["outs"])):
            what = f"iteration {rec['phase']}:{rec['iter']} command {j}"
            n_rows = cmd.expect["rows"]
            text = Path(out).read_bytes() if Path(out).is_file() else None
            if code != 0 or text is None:
                tally.op(False, f"{what}: exit {code}")
                for i in range(n_rows):
                    tally.op(False, f"{what} row {i}: no output")
                continue
            if j in first:
                first_text, flags = first[j]
                tally.op(flags[0] and text == first_text,
                         f"{what}: output differs between runs of the same "
                         "inputs")
                for i, ok in enumerate(flags[1:]):
                    tally.op(ok, f"{what} row {i}")
                continue
            sub = Tally()
            ref = reference[j] if reference is not None else None
            if cmd.argv[0] == "pipeline":
                fitted[j] = check_pipeline(out, cmd.expect, sub, ref)
            else:
                check_study(out, cmd.expect, sub, ref)
            first[j] = (text, sub.flags)
            tally.merge(sub)
    return tally, fitted
