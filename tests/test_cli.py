import csv
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from pairvar.cli import main
from pairvar.intervals import (
    ci_diff_region,
    ci_mu_exact,
    normal_quantile,
    ratio_scale,
)
from pairvar.mixture_em import fit_mixture
from pairvar.model import load_csv
from pairvar.model import VarianceForm, VarianceModel
from pairvar.pvalues import (
    pvalue_berger_boos,
    pvalue_conservative,
    pvalue_naive,
)
from pairvar.simulate import Scenario, ScenarioKind, generate_dataset

EXP51 = VarianceModel(VarianceForm.EXP_LINEAR, (5.0, -1.0))


def write_pairs_csv(path, pairs):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "y1", "y2"])
        w.writerows(pairs)


def simulated_csv(path, n, theta=(5.0, -1.0), seed=0):
    ds = generate_dataset(
        Scenario(kind=ScenarioKind.UNIFORM_CONTINUOUS, n=n, seed=seed,
                 lo=8.0, hi=12.0),
        VarianceModel(VarianceForm.EXP_LINEAR, theta))
    write_pairs_csv(path, [(pid, repr(float(a)), repr(float(b)))
                           for pid, a, b in zip(ds.ids(), ds.y1, ds.y2)])
    return ds


class TestFitCommands:
    def test_fit_macl_record(self, tmp_path, capsys):
        inp = tmp_path / "control.csv"
        simulated_csv(inp, 800, seed=1)
        assert main(["fit-macl", "--input", str(inp)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["converged"]
        assert rec["fallback"] is False
        assert rec["residual_norm"] <= 1e-9
        assert abs(rec["theta_hat"][1] + 1.0) < 0.15

    def test_fit_mixture_record(self, tmp_path, capsys):
        inp = tmp_path / "control.csv"
        simulated_csv(inp, 300, seed=2)
        assert main(["fit-mixture", "--input", str(inp), "--no-weights"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["J"] >= 2
        assert "pi_hat" not in rec
        assert rec["converged"]
        assert rec["kkt_gap"] <= 1e-8
        assert rec["inner_iterations"] >= rec["iterations"] > 0
        assert rec["mstep_fallbacks"] == 0
        assert 0 < rec["active_points"] < rec["J"]

    def test_fit_mixture_weights_sum_to_one(self, tmp_path, capsys):
        inp = tmp_path / "control.csv"
        simulated_csv(inp, 200, seed=3)
        assert main(["fit-mixture", "--input", str(inp)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert sum(rec["pi_hat"]) == pytest.approx(1.0, abs=1e-9)


    @pytest.mark.parametrize("option,value", [("--max-iter", "0"),
                                              ("--max-iter", "-3"),
                                              ("--tol", "0"), ("--tol", "-1e-9"),
                                              ("--tol", "nan")])
    @pytest.mark.parametrize("command", ["fit-macl", "fit-mixture"])
    def test_unusable_fit_settings_are_usage_errors(self, capsys, command,
                                                    option, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", "unread.csv", f"{option}={value}"])
        assert exc.value.code == 2
        assert f"argument {option}: must be positive" in capsys.readouterr().err


class TestCiCommand:
    def test_naive_single_ratio_scale(self, capsys):
        assert main(["ci", "--theta", "4.84,-0.927", "--y1", "10.21",
                     "--y2", "10.78", "--method", "naive",
                     "--scale", "ratio"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["lo"] == pytest.approx(0.4428, abs=0.001)
        assert rec["hi"] == pytest.approx(0.7223, abs=0.001)

    def test_exact_single(self, capsys):
        assert main(["ci", "--theta", "4.84,-0.927", "--y1", "8.0",
                     "--method", "exact"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["lo"] == 7.3
        assert not rec["disconnected"]

    def test_region_single(self, capsys):
        assert main(["ci", "--theta", "4.84,-0.927", "--y1", "10.21",
                     "--y2", "10.78", "--method", "region",
                     "--scale", "ratio", "--grid-res", "0.01"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["lo"] == pytest.approx(0.41, abs=0.01)
        assert rec["hi"] == pytest.approx(0.76, abs=0.01)

    def test_region_with_a_steep_variance_is_whole_and_quiet(self, capsys):
        # h(mu1)/h(mu2) passes 2^53 in this region; the set is all of
        # [a - b, b - a], found without a RuntimeWarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["ci", "--method", "region", "--theta=-45,6.5",
                         "--y1", "7.5", "--y2", "13.5", "--quiet"]) == 0
        assert not [w for w in caught if w.category is RuntimeWarning]
        rec = json.loads(capsys.readouterr().out)
        assert not rec["disconnected"]
        assert (rec["lo"], rec["hi"]) == pytest.approx((-6.6, 6.6), abs=1e-12)

    def test_batch_appends_columns(self, tmp_path, capsys):
        inp = tmp_path / "pairs.csv"
        write_pairs_csv(inp, [("a", 10.21, 10.78), ("b", 11.45, 13.36)])
        assert main(["ci", "--theta", "4.84,-0.927", "--input", str(inp),
                     "--method", "naive", "--scale", "ratio"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["id"] for r in rows] == ["a", "b"]
        assert {"lo", "hi", "disconnected", "method"} <= set(rows[0])
        assert float(rows[1]["lo"]) == pytest.approx(0.1316, abs=0.001)

    def test_batch_honours_format(self, tmp_path, capsys):
        inp = tmp_path / "pairs.csv"
        write_pairs_csv(inp, [("a", 10.21, 10.78), ("b", 11.45, 13.36)])
        base = ["ci", "--theta", "4.84,-0.927", "--input", str(inp),
                "--method", "naive"]
        assert main(base) == 0
        default = capsys.readouterr().out
        assert main(base + ["--format", "csv"]) == 0
        assert capsys.readouterr().out == default
        assert default.splitlines()[0] == "id,y1,y2,lo,hi,disconnected,method"
        assert main(base + ["--format", "jsonl"]) == 0
        recs = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        rows = list(csv.DictReader(io.StringIO(default)))
        assert [r["id"] for r in recs] == ["a", "b"]
        assert recs[1]["lo"] == float(rows[1]["lo"])
        assert recs[0]["disconnected"] is False


class TestPvalueCommand:
    def test_equal_pairs_all_unity(self, tmp_path, capsys):
        inp = tmp_path / "equalpairs.csv"
        write_pairs_csv(inp, [("a", 9.0, 9.0), ("b", 10.5, 10.5),
                              ("c", 12.0, 12.0)])
        assert main(["pvalue", "--theta", "4.84,-0.927", "--input", str(inp),
                     "--method", "naive"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 3
        assert all(float(r["p_value"]) == 1.0 for r in rows)

    def test_bonferroni_column(self, tmp_path, capsys):
        inp = tmp_path / "pairs.csv"
        write_pairs_csv(inp, [("a", 10.21, 10.78), ("b", 10.0, 10.01)])
        assert main(["pvalue", "--theta", "4.84,-0.927", "--input", str(inp),
                     "--method", "naive", "--bonferroni", "--quiet"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows[0]["significant_bonferroni"] == "True"
        assert rows[1]["significant_bonferroni"] == "False"

    def test_batch_honours_format(self, tmp_path, capsys):
        inp = tmp_path / "pairs.csv"
        write_pairs_csv(inp, [("a", 10.21, 10.78), ("b", 10.0, 10.01)])
        base = ["pvalue", "--theta", "4.84,-0.927", "--input", str(inp),
                "--method", "berger-boos", "--bonferroni", "--quiet"]
        assert main(base) == 0
        default = capsys.readouterr().out
        assert main(base + ["--format", "csv"]) == 0
        assert capsys.readouterr().out == default
        rows = list(csv.DictReader(io.StringIO(default)))
        assert rows[0]["statistic"] == ""
        assert main(base + ["--format", "jsonl"]) == 0
        recs = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert [r["id"] for r in recs] == ["a", "b"]
        assert recs[0]["statistic"] is None
        assert recs[0]["significant_bonferroni"] is True
        assert [r["p_value"] for r in recs] == [float(r["p_value"])
                                               for r in rows]

    def test_single_pair_mode(self, capsys):
        assert main(["pvalue", "--theta", "4.84,-0.927", "--y1", "10.21",
                     "--y2", "10.78", "--method", "berger-boos",
                     "--beta", "1e-6"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert 1e-6 <= rec["p_value"] < 1e-3


class TestSimulateCommand:
    def test_estimator_study_deterministic_csv(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("theta=5,-1\nform=exp-linear\nscenario=uniform:8,12\n"
                       "n=150\nreps=5\nseed=11\nmethod=macl\n")
        args = ["simulate", "--study", "estimator", "--config", str(cfg),
                "--quiet"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        rows = list(csv.DictReader(io.StringIO(first)))
        assert [r["param"] for r in rows] == ["theta1", "theta2"]

    def test_estimator_manifest_counts_failures_by_type(self, tmp_path,
                                                        monkeypatch):
        import pairvar.simulate as sim
        from pairvar.errors import ConvergenceError, DomainError

        calls = {"n": 0}
        real = sim.macl_fit

        def flaky(data, form):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ConvergenceError("synthetic non-convergence")
            if calls["n"] == 4:
                raise DomainError("synthetic domain failure")
            return real(data, form)

        monkeypatch.setattr(sim, "macl_fit", flaky)
        cfg = tmp_path / "study.cfg"
        cfg.write_text("theta=5,-1\nscenario=uniform:8,12\n"
                       "n=150\nreps=20\nseed=11\nmethod=macl\n")
        out = tmp_path / "study.csv"
        assert main(["simulate", "--study", "estimator", "--config", str(cfg),
                     "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((tmp_path / "study.csv.manifest.json").read_text())
        assert manifest["diagnostics"] == {
            "failures": 2,
            "failure_types": {"ConvergenceError": 1, "DomainError": 1}}

    def test_power_study_csv(self, tmp_path, capsys):
        cfg = tmp_path / "power.cfg"
        cfg.write_text("theta=5,-1\nmu_grid=10\nk_grid=0,2\nreps=400\n"
                       "seed=3\nbeta=1e-3\n")
        assert main(["simulate", "--study", "power", "--config", str(cfg),
                     "--quiet"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 6  # 1 mu x 2 k x 3 methods
        assert all(0.0 <= float(r["rejection_rate"]) <= 1.0 for r in rows)

    def test_coverage_study_with_resample_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "cov.cfg"
        cfg.write_text("theta=5,-1\nmu_grid=10\nreps=2000\nmethods=exact\n"
                       "mode=single\nseed=5\n")
        assert main(["simulate", "--study", "coverage", "--config", str(cfg),
                     "--quiet"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert float(rows[0]["coverage"]) == pytest.approx(0.95, abs=0.02)


class TestBiasOracle:
    def test_exact_values(self, capsys):
        assert main(["bias-oracle", "--theta", "5,-0.5", "--mus", "8"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["first"] == pytest.approx(-0.18517757333797590, rel=1e-10)

    def test_with_mc_check(self, capsys):
        assert main(["bias-oracle", "--theta", "5,-1", "--mus", "9,10,11",
                     "--mc-reps", "20000", "--seed", "1"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert abs(rec["mc_first"] - rec["first"]) < 4 * rec["mc_se_first"]


class TestPipeline:
    def test_null_pipeline_counts(self, tmp_path, capsys):
        control = tmp_path / "control.csv"
        experiment = tmp_path / "exp.csv"
        simulated_csv(control, 400, seed=21)
        ds = simulated_csv(experiment, 30, seed=22)
        # shift one pair apart by 6 null standard deviations, placed in the
        # low-intensity region where even the blunt conservative test has
        # power (at high intensity its worst-case variance swamps the gap)
        pairs = list(zip(ds.ids(), ds.y1.tolist(), ds.y2.tolist()))
        mu = 7.5
        sd = float(np.sqrt(EXP51(mu)))
        pairs[0] = ("shifted", mu, mu + 6 * sd)
        write_pairs_csv(experiment, pairs)
        out = tmp_path / "report.csv"
        assert main(["pipeline", "--control", str(control),
                     "--experiment", str(experiment), "--out", str(out),
                     "--grid-res", "0.02", "--quiet"]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 30
        flagged = [r for r in rows if r["id"] == "shifted"][0]
        assert float(flagged["p_naive"]) < 0.01
        assert float(flagged["p_berger_boos"]) < 0.01
        assert float(flagged["p_conservative"]) < 0.05
        null_bb = [float(r["p_berger_boos"]) for r in rows
                   if r["id"] != "shifted"]
        assert sum(1 for p in null_bb if p <= 0.05 / 30) <= 1
        manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "pipeline"
        assert len(manifest["input_digests"]) == 2
        est, _ = fit_mixture(load_csv(control))
        model = VarianceModel(VarianceForm.EXP_LINEAR, est.theta_hat)
        region = dict.fromkeys(("decisions", "polishes", "evaluations"), 0)
        for _, y1, y2 in pairs:
            counts = ci_diff_region(y1, y2, model, 0.05, (7.3, 13.9),
                                    0.02).diagnostics
            region = {key: region[key] + counts[key] for key in region}
        assert region["polishes"] > 0
        assert manifest["diagnostics"] == {
            "region_disconnected": sum(r["ci_disconnected"] == "True"
                                       for r in rows),
            "berger_boos_degenerate": 0,
            "region": region,
            "mixture": {"iterations": est.iterations,
                        "converged": True,
                        "inner_iterations": est.inner_iterations,
                        "kkt_gap": est.kkt_gap,
                        "mstep_fallbacks": est.mstep_fallbacks,
                        "active_points": est.active_points}}
        assert est.active_points == np.count_nonzero(est.pi_hat)
        assert est.kkt_gap <= 1e-8 and est.mstep_fallbacks == 0

    def test_manifest_counts_degenerate_berger_boos(self, tmp_path):
        control = tmp_path / "control.csv"
        experiment = tmp_path / "exp.csv"
        simulated_csv(control, 150, seed=24)
        # at beta = 0.5 the Berger-Boos set for the mean of the pair 0.3
        # below a is too narrow to reach [a, b]; its region is not empty
        write_pairs_csv(experiment, [("edge", 7.0, 7.0),
                                     ("null", 10.0, 10.05)])
        out = tmp_path / "report.csv"
        assert main(["pipeline", "--control", str(control),
                     "--experiment", str(experiment), "--out", str(out),
                     "--grid-res", "0.02", "--beta", "0.5", "--quiet"]) == 0
        rows = list(csv.DictReader(out.open()))
        assert float(rows[0]["p_berger_boos"]) == 0.5
        manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
        diagnostics = manifest["diagnostics"]
        assert diagnostics["berger_boos_degenerate"] == 1
        assert diagnostics["region_disconnected"] == sum(
            r["ci_disconnected"] == "True" for r in rows)
        assert manifest["config"]["J"] >= 2
        assert len(manifest["config"]["theta_hat"]) == 2

    def test_empty_experiment_is_data_error(self, tmp_path):
        control = tmp_path / "control.csv"
        experiment = tmp_path / "exp.csv"
        simulated_csv(control, 100, seed=23)
        experiment.write_text("id,y1,y2\n")
        assert main(["pipeline", "--control", str(control),
                     "--experiment", str(experiment), "--quiet"]) == 3


# The per-pair path the CLI took before its array calls, kept as the oracle:
# ci_mu_exact for exact sets and Bonferroni hulls, the plug-in formulas on
# Python floats, one ci_diff_region call and one scalar test per pair.
ORACLE_FORMS = {
    "exp-linear": "5,-1",
    "power": "3.9,-3",
    "exp-linear-const": "5,-1,-4",
}


def _model(form, theta):
    return VarianceModel(VarianceForm.from_name(form),
                         [float(t) for t in theta.split(",")])


def _ci_oracle(method, model, y1, y2, alpha, bounds, scale, grid_res=0.02):
    z = normal_quantile(1.0 - alpha / 2.0)
    disconnected = False
    if method == "exact":
        cs = ci_mu_exact(y1, model, alpha, bounds)
        (lo, hi), disconnected = cs.hull, cs.disconnected
    elif method == "region":
        cs = ci_diff_region(y1, y2, model, alpha, bounds, grid_res)
        (lo, hi), disconnected = cs.hull, cs.disconnected
    elif method == "bonferroni":
        lo1, hi1 = ci_mu_exact(y1, model, alpha / 2.0, bounds).hull
        lo2, hi2 = ci_mu_exact(y2, model, alpha / 2.0, bounds).hull
        lo, hi = lo1 - hi2, hi1 - lo2
    elif y2 is None:
        half = z * math.sqrt(float(model(y1)))
        lo, hi = y1 - half, y1 + half
    else:
        half = z * math.sqrt(float(model(y1)) + float(model(y2)))
        lo, hi = y1 - y2 - half, y1 - y2 + half
    if scale == "ratio":
        lo, hi = ratio_scale((lo, hi))
    return {"lo": lo, "hi": hi, "disconnected": disconnected}


def _pvalue_oracle(method, model, y1, y2, bounds, beta, pivot):
    if method == "naive":
        r = pvalue_naive(y1, y2, model)
    elif method == "conservative":
        r = pvalue_conservative(y1, y2, model, bounds)
    else:
        r = pvalue_berger_boos(y1, y2, model, bounds, beta, pivot)
    return {"statistic": r.statistic, "p_value": r.p_value,
            "mu_sup": r.mu_sup}, r.degenerate


def _spread_pairs(seed, count, lo, hi, extra=()):
    rng = np.random.default_rng(seed)
    y1 = rng.uniform(lo, hi, count)
    y2 = y1 + rng.normal(0.0, 0.3, count)
    return [(f"r{k}", a, b) for k, (a, b) in
            enumerate(zip(y1.tolist(), y2.tolist()))] + list(extra)


def _jsonl(argv, capsys):
    assert main(argv + ["--format", "jsonl", "--quiet"]) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


class TestBatchRowsEqualPerPairOracle:
    """--input rows, single-pair records and pipeline rows against the
    per-pair path, bit for bit."""

    @pytest.mark.parametrize("form", sorted(ORACLE_FORMS))
    @pytest.mark.parametrize("method, bounds", [
        ("exact", (7.3, 13.9)), ("exact", (0.5, 20.0)), ("naive", (7.3, 13.9)),
        ("bonferroni", (7.3, 13.9)), ("bonferroni", (0.5, 20.0)),
        ("region", (7.3, 13.9))])
    def test_ci(self, tmp_path, capsys, form, method, bounds):
        theta = ORACLE_FORMS[form]
        model = _model(form, theta)
        wide = bounds == (0.5, 20.0)
        count = 4 if method == "region" else 60
        pairs = _spread_pairs(sum(map(ord, form + method)) + wide, count,
                              *((1.0, 19.0) if wide else (7.6, 13.6)),
                              extra=[("tie", 10.0, 10.0)])
        inp = tmp_path / "pairs.csv"
        write_pairs_csv(inp, [(i, repr(a), repr(b)) for i, a, b in pairs])
        base = ["ci", "--form", form, f"--theta={theta}", "--method", method,
                "--a", repr(bounds[0]), "--b", repr(bounds[1]),
                "--grid-res", "0.02"]
        for scale in ("log", "ratio"):
            recs = _jsonl(base + ["--input", str(inp), "--scale", scale],
                          capsys)
            expected = [{"id": i, "y1": a, "y2": b,
                         **_ci_oracle(method, model, a,
                                      None if method == "exact" else b,
                                      0.05, bounds, scale),
                         "method": method} for i, a, b in pairs]
            assert recs == expected
        if method == "exact" and wide:
            assert any(r["disconnected"] for r in expected)
        _, y1, y2 = pairs[0]
        for single in ([y1], [y1, y2]):
            if method in ("region", "bonferroni") and len(single) == 1:
                continue
            argv = base + [f"--y{k + 1}={v!r}" for k, v in enumerate(single)]
            rec, = _jsonl(argv, capsys)
            assert rec == {"method": method, "level": 0.95,
                           **_ci_oracle(method, model, y1,
                                        (single + [None])[1], 0.05, bounds,
                                        "log"),
                           "scale": "log"}

    @pytest.mark.parametrize("form", sorted(ORACLE_FORMS))
    @pytest.mark.parametrize("method, pivot", [
        ("naive", "mean"), ("conservative", "mean"), ("berger-boos", "mean"),
        ("berger-boos", "pair")])
    def test_pvalue(self, tmp_path, capsys, form, method, pivot):
        theta = ORACLE_FORMS[form]
        model = _model(form, theta)
        pairs = _spread_pairs(sum(map(ord, form + method + pivot)), 40,
                              7.0, 14.2, extra=[("tie", 10.0, 10.0),
                                                ("far", 25.0, 25.3)])
        inp = tmp_path / "pairs.csv"
        write_pairs_csv(inp, [(i, repr(a), repr(b)) for i, a, b in pairs])
        base = ["pvalue", "--form", form, f"--theta={theta}", "--method",
                method, "--cbeta-pivot", pivot, "--beta", "1e-3"]
        recs = _jsonl(base + ["--input", str(inp), "--bonferroni"], capsys)
        expected, degenerate = [], 0
        for i, a, b in pairs:
            columns, deg = _pvalue_oracle(method, model, a, b, (7.3, 13.9),
                                          1e-3, pivot)
            degenerate += deg
            expected.append({"id": i, "y1": a, "y2": b, **columns,
                             "significant_bonferroni":
                                 columns["p_value"] <= 0.05 / len(pairs)})
        assert recs == expected
        assert (degenerate > 0) == (method == "berger-boos")
        _, y1, y2 = pairs[-1]
        rec, = _jsonl(base + [f"--y1={y1!r}", f"--y2={y2!r}"], capsys)
        assert rec == {"method": method, **_pvalue_oracle(
            method, model, y1, y2, (7.3, 13.9), 1e-3, pivot)[0]}

    def test_pipeline(self, tmp_path):
        control = tmp_path / "control.csv"
        experiment = tmp_path / "exp.csv"
        simulated_csv(control, 150, seed=25)
        pairs = _spread_pairs(26, 6, 7.6, 13.6, extra=[("tie", 10.0, 10.0),
                                                       ("edge", 7.0, 7.0)])
        write_pairs_csv(experiment, [(i, repr(a), repr(b))
                                     for i, a, b in pairs])
        out = tmp_path / "report.csv"
        assert main(["pipeline", "--control", str(control),
                     "--experiment", str(experiment), "--out", str(out),
                     "--grid-res", "0.02", "--beta", "0.5", "--quiet"]) == 0
        manifest = json.loads((tmp_path / "report.csv.manifest.json")
                              .read_text())
        model = VarianceModel(VarianceForm.EXP_LINEAR,
                              manifest["config"]["theta_hat"])
        expected, degenerate = [], 0
        for i, a, b in pairs:
            region = _ci_oracle("region", model, a, b, 0.05, (7.3, 13.9),
                                "ratio")
            naive = _ci_oracle("naive", model, a, b, 0.05, (7.3, 13.9),
                               "ratio")
            tests = {m: _pvalue_oracle(m, model, a, b, (7.3, 13.9), 0.5,
                                       "mean")
                     for m in ("naive", "conservative", "berger-boos")}
            degenerate += tests["berger-boos"][1]
            expected.append({
                "id": i, "y1": a, "y2": b, "ratio_lo": region["lo"],
                "ratio_hi": region["hi"],
                "ci_disconnected": region["disconnected"],
                "ratio_naive_lo": naive["lo"], "ratio_naive_hi": naive["hi"],
                **{f"p_{m.replace('-', '_')}": t[0]["p_value"]
                   for m, t in tests.items()}})
        assert degenerate == 1
        assert manifest["diagnostics"]["berger_boos_degenerate"] == 1
        assert list(csv.DictReader(out.open())) == [
            {k: str(v) for k, v in row.items()} for row in expected]


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_data_error_is_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,y1,y2\np1,8.0,oops\n")
        assert main(["fit-macl", "--input", str(bad)]) == 3

    def test_numerical_error_is_4(self, capsys):
        # both observations far above the allowed mean range: the projected
        # region is empty
        assert main(["ci", "--theta", "4.84,-0.927", "--y1", "20.0",
                     "--y2", "20.5", "--method", "region"]) == 4

    def test_exact_coverage_with_power_fit_is_4(self, tmp_path):
        cfg = tmp_path / "cov.cfg"
        cfg.write_text("theta=3.9,-3.0\nform=power\nmu_grid=9\nreps=200\n"
                       "methods=exact\nmode=single\n")
        assert main(["simulate", "--study", "coverage", "--config", str(cfg),
                     "--quiet"]) == 4

    @pytest.mark.parametrize("command", ["ci", "pvalue", "pipeline",
                                         "simulate"])
    @pytest.mark.parametrize("a", ["0", "-1"])
    def test_power_form_bounds_reaching_zero_are_3(self, tmp_path, capsys,
                                                   command, a):
        # the power variance is not finite at mu = 0
        pairs = tmp_path / "pairs.csv"
        write_pairs_csv(pairs, [("p1", 1.0, 1.3), ("p2", 2.0, 2.1)])
        cfg = tmp_path / "power.cfg"
        cfg.write_text(f"theta=0,-1\nform=power\na={a}\nb=3\nmu_grid=1\n"
                       "k_grid=0\nreps=50\n")
        power = ["--form", "power", f"--a={a}", "--b", "3"]
        pair = ["--theta", "0,-1", "--y1", "1.0", "--y2", "1.3"]
        argv = {
            "ci": ["ci", *power, *pair, "--method", "region"],
            "pvalue": ["pvalue", *power, *pair, "--method", "conservative"],
            "pipeline": ["pipeline", "--control", str(pairs),
                         "--experiment", str(pairs), *power],
            "simulate": ["simulate", "--study", "power", "--config", str(cfg)],
        }[command]
        assert main(argv + ["--quiet"]) == 3
        assert "a > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("theta", ["1,-1.5", "1,-1"])
    @pytest.mark.parametrize("command", ["ci", "pvalue"])
    def test_naive_outside_power_domain_is_4(self, capsys, theta, command):
        # h = e * mu^t2 is nan (t2 = -1.5) or negative (t2 = -1) at mu < 0
        argv = [command, "--theta", theta, "--form", "power", "--a", "0.5",
                "--y1", "-0.5", "--method", "naive"]
        if command == "pvalue":
            argv += ["--y2", "-0.4"]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite and positive" in captured.err

    def test_const_term_past_exp_overflow_is_4(self, capsys):
        # exp(800) overflows float64: h is infinite, not a traceback
        assert main(["ci", "--form", "exp-linear-const", "--theta", "1,-1,800",
                     "--method", "naive", "--y1", "10", "--y2", "10.5"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite and positive" in captured.err

    def test_naive_batch_outside_power_domain_is_4(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        write_pairs_csv(pairs, [("p1", 1.0, 1.3), ("p2", -0.5, 1.0)])
        assert main(["ci", "--theta", "1,-1.5", "--form", "power", "--a",
                     "0.5", "--input", str(pairs), "--method", "naive"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mu = -0.5" in captured.err

    def test_missing_file_is_3(self):
        assert main(["fit-macl", "--input", "/nonexistent.csv"]) == 3

    @pytest.mark.parametrize("command", ["ci", "pvalue"])
    def test_input_without_pairs_is_3(self, tmp_path, capsys, command):
        empty = tmp_path / "empty.csv"
        empty.write_text("id,y1,y2\n")
        assert main([command, "--theta", "4.84,-0.927", "--input", str(empty),
                     "--method", "naive", "--quiet"]) == 3
        assert "no pairs" in capsys.readouterr().err

    def test_unparseable_list_names_its_option(self, capsys):
        with pytest.raises(SystemExit):
            main(["bias-oracle", "--theta", "5,-1", "--mus", "8,x"])
        err = capsys.readouterr().err
        assert "argument --mus: must be comma-separated reals" in err
        assert "theta" not in err.splitlines()[-1]

    @pytest.mark.parametrize("study, text, message", [
        ("estimator", "scenario=uniform:12,8\n", "lo < hi"),
        ("estimator", "scenario=uniform:8,x\n", "scenario"),
        ("estimator", "reps=1\n", "at least 2 replicates"),
        ("estimator", "reps=ten\n", "reps"),
        ("estimator", "method=bogus\n", "method"),
        ("estimator", "n=2\n", "at least 3 pairs"),
        ("coverage", "methods=exact,region\nmode=single\n", "region"),
        ("coverage", "mode=paired\n", "unknown mode"),
        ("coverage", "theta=5\n", "coefficients"),
        ("power", "alpha=0.x\n", "alpha"),
        ("power", "alpha=1.5\n", "alpha"),
        ("power", "beta=0\n", "beta"),
        ("coverage", "alpha=-0.5\nmode=difference\nmethods=region\n",
         "alpha"),
        ("power", "k_grid=0,one\n", "k_grid"),
        ("power", "a=13.9\nb=7.3\n", "a < b"),
        ("coverage", "a=nan\n", "finite"),
        ("estimator", "b=inf\n", "finite"),
        ("power", "a=10\nb=10\n", "a < b"),
    ])
    def test_bad_simulate_config_is_3(self, tmp_path, capsys, study, text,
                                      message):
        cfg = tmp_path / "bad.cfg"
        small = {"reps": 5, "n": 20, "mu_grid": 9, "k_grid": 0}
        cfg.write_text(text + "".join(f"{key}={value}\n"
                                      for key, value in small.items()
                                      if key + "=" not in text))
        assert main(["simulate", "--study", study, "--config", str(cfg),
                     "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and message in err

    @pytest.mark.parametrize("argv", [
        ["bias-oracle", "--theta", "5,-1", "--mus", "9", "--mc-reps", "-1"],
        ["bias-oracle", "--theta", "5,-1", "--mus", "9", "--mc-reps", "1"],
        ["fit-mixture", "--input", "pairs.csv", "--d", "0"],
        ["pipeline", "--control", "c.csv", "--experiment", "e.csv", "--d",
         "-0.25"],
        ["ci", "--theta", "4.84,-0.927", "--y1", "10", "--y2", "10.5",
         "--method", "region", "--grid-res", "0"],
        ["ci", "--theta", "4.84,-0.927", "--y1", "10", "--y2", "10.5",
         "--method", "region", "--alpha", "1"],
        ["ci", "--theta", "4.84,-0.927", "--input", "pairs.csv",
         "--method", "naive", "--alpha", "0"],
        ["pvalue", "--theta", "4.84,-0.927", "--input", "pairs.csv",
         "--method", "berger-boos", "--beta", "0"],
        ["pvalue", "--theta", "4.84,-0.927", "--y1", "10", "--y2", "10.5",
         "--method", "berger-boos", "--beta", "1.5"],
        ["pipeline", "--control", "c.csv", "--experiment", "e.csv",
         "--grid-res", "-0.005"],
        ["pipeline", "--control", "c.csv", "--experiment", "e.csv",
         "--alpha", "1.5"],
        ["pipeline", "--control", "c.csv", "--experiment", "e.csv",
         "--beta", "nan"],
        ["pvalue", "--theta", "4.84,-0.927", "--y1", "9", "--y2", "10",
         "--method", "conservative", "--a", "13.9", "--b", "7.3"],
        ["ci", "--theta", "4.84,-0.927", "--y1", "10", "--method", "exact",
         "--a", "nan"],
        ["ci", "--theta", "4.84,-0.927", "--y1", "10", "--y2", "10.3",
         "--method", "region", "--a", "13.9", "--b", "7.3"],
        ["ci", "--theta", "4.84,-0.927", "--input", "pairs.csv",
         "--method", "naive", "--b", "inf"],
        ["pipeline", "--control", "c.csv", "--experiment", "e.csv",
         "--a", "10", "--b", "10"],
        ["fit-mixture", "--input", "pairs.csv", "--a=-inf"],
        ["ci", "--theta", "4.84,-0.927", "--y1", "nan", "--method", "exact"],
        ["pvalue", "--theta", "4.84,-0.927", "--y1", "nan", "--y2", "10",
         "--method", "conservative"],
        ["ci", "--theta", "4.84,-0.927", "--y1", "10", "--y2", "inf",
         "--method", "naive"],
    ])
    def test_non_positive_counts_and_spacings_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_value_error_inside_a_kernel_is_not_a_data_error(
            self, tmp_path, monkeypatch):
        # only DataError is a data error: a ValueError from a bug surfaces
        def broken(*args, **kwargs):
            raise ValueError("bug")

        monkeypatch.setattr("pairvar.cli.power_study", broken)
        cfg = tmp_path / "power.cfg"
        cfg.write_text("mu_grid=9\nk_grid=0\nreps=50\n")
        with pytest.raises(ValueError, match="bug"):
            main(["simulate", "--study", "power", "--config", str(cfg),
                  "--quiet"])


class TestManifest:
    def test_outputs_reproducible_with_manifest(self, tmp_path):
        inp = tmp_path / "pairs.csv"
        write_pairs_csv(inp, [("a", 10.21, 10.78), ("b", 9.0, 9.4)])
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        for out in (out1, out2):
            assert main(["pvalue", "--theta", "4.84,-0.927", "--input",
                         str(inp), "--method", "conservative",
                         "--out", str(out), "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        m1 = json.loads((tmp_path / "r1.csv.manifest.json").read_text())
        m2 = json.loads((tmp_path / "r2.csv.manifest.json").read_text())
        for key in ("subcommand", "config", "seed", "version",
                    "input_digests", "rng"):
            assert m1[key] == m2[key]
        assert m1["config"]["beta"] == 1e-6
        assert m1["config"]["a"] == 7.3

    def test_csv_roundtrip(self, tmp_path):
        inp = tmp_path / "pairs.csv"
        write_pairs_csv(inp, [("a", "10.25", "10.5")])
        out = tmp_path / "out.csv"
        assert main(["ci", "--theta", "4.84,-0.927", "--input", str(inp),
                     "--method", "naive", "--out", str(out),
                     "--quiet"]) == 0
        rows = list(csv.DictReader(out.open()))
        assert float(rows[0]["y1"]) == 10.25
        assert float(rows[0]["y2"]) == 10.5


class TestConsoleScript:
    def test_entry_point_version(self):
        res = subprocess.run([sys.executable, "-m", "pairvar.cli",
                              "--version"], capture_output=True, text=True)
        assert res.returncode == 0

    def test_import_leaves_scipy_optimize_and_linalg_unloaded(self):
        code = ("import sys, pairvar.cli; pairvar.cli.build_parser(); "
                "print(sorted(m for m in ('scipy.optimize', 'scipy.linalg') "
                "if m in sys.modules))")
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"
