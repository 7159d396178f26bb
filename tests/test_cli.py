import argparse
import csv
import io
import json
import math
import subprocess
import sys
import warnings

from pathlib import Path

import numpy as np
import pytest

from pairvar.cli import build_parser, main
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


def strict_json(text):
    """json.loads that rejects the non-standard tokens Infinity and NaN."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


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
    @pytest.mark.parametrize("command, method", [("ci", "naive"),
                                                 ("pvalue", "berger-boos")])
    def test_raw_takes_logs_of_the_one_pair(self, capsys, command, method):
        argv = [command, "--method", method, "--theta", "4.84,-0.927"]
        assert main(argv + ["--raw", "--y1", "20000", "--y2", "25000"]) == 0
        raw = capsys.readouterr().out
        assert main(argv + ["--y1", "9.903487552536127",
                            "--y2", "10.126631103850338"]) == 0
        assert raw == capsys.readouterr().out

    @pytest.mark.parametrize("y1, y2", [("0", "25000"), ("20000", "-3")])
    def test_raw_one_pair_needs_positive_values(self, capsys, y1, y2):
        assert main(["ci", "--method", "naive", "--theta", "4.84,-0.927",
                     "--raw", "--y1", y1, "--y2", y2]) == 3
        assert "must be positive to take logs" in capsys.readouterr().err

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

    @pytest.mark.parametrize("y1, y2, grid_res, message", [
        # inside the bounds the set holds y1 - y2, but a 0.5 grid misses it
        ("11.4443", "11.4162", "0.5", "grid_res 0.5 is too coarse"),
        ("20.0", "20.5", "0.5", "maps outside the bounded parameter region"),
        ("20.0", "20.5", "0.005", "maps outside the bounded parameter region"),
    ])
    def test_empty_region_names_its_cause(self, capsys, y1, y2, grid_res,
                                          message):
        assert main(["ci", "--theta", "4.84,-0.927", "--y1", y1, "--y2", y2,
                     "--method", "region", "--grid-res", grid_res]) == 4
        err = capsys.readouterr().err
        assert err.startswith("pairvar: numerical failure: ")
        assert message in err

    def test_grid_beyond_the_point_cap_is_a_numerical_failure(self, capsys):
        # 2(b - a) / 1e-9 is 1.3e10 points: refused before any is allocated
        assert main(["ci", "--theta", "4.84,-0.927", "--y1", "10.2", "--y2",
                     "10.8", "--method", "region", "--grid-res", "1e-9"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("pairvar: numerical failure: grid_res 1e-09 ")
        assert "10^6 points" in err

    def test_ratio_end_past_the_float_range_is_null(self, capsys):
        # exp(709.96) overflows a double: that end is inf, null in JSON
        assert main(["ci", "--method", "naive", "--theta", "0,0", "--y1",
                     "708", "--y2", "0", "--scale", "ratio"]) == 0
        out, err = capsys.readouterr()
        rec = strict_json(out)
        assert math.isfinite(rec["lo"]) and rec["lo"] > 0
        assert rec["hi"] is None and err == ""

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
    def test_one_far_pair_gets_beta_and_leaves_the_others(self, tmp_path,
                                                          capsys):
        # its Berger-Boos set for the mean misses [a, b]; its crossings are
        # not finite and are not solved
        pairs = [("a", 10.21, 10.78), ("b", 9.0, 9.4)]
        near, mixed = tmp_path / "near.csv", tmp_path / "mixed.csv"
        write_pairs_csv(near, pairs)
        write_pairs_csv(mixed, pairs + [("far", "1e300", "11")])
        argv = ["pvalue", "--method", "berger-boos", "--theta", "4.84,-0.927",
                "--quiet", "--input"]
        assert main(argv + [str(near)]) == 0
        expected = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + [str(mixed)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows[:2] == expected
        assert float(rows[2]["p_value"]) == 1e-6
        assert rows[2]["mu_sup"] == ""

    def test_exact_set_of_a_far_value_is_empty(self, capsys):
        assert main(["ci", "--method", "exact", "--theta", "4.84,-0.927",
                     "--y1=1e300"]) == 4
        assert "empty after bounding" in capsys.readouterr().err

    def test_infinite_statistic_is_null_in_json(self, tmp_path):
        out = tmp_path / "p.jsonl"
        assert main(["pvalue", "--method", "naive", "--theta", "4.84,-0.927",
                     "--y1=1e200", "--y2=-1e200", "--out", str(out),
                     "--quiet"]) == 0
        rec = strict_json(out.read_text())
        assert rec["statistic"] is None and rec["p_value"] == 0.0
        strict_json((tmp_path / "p.jsonl.manifest.json").read_text())

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

    @pytest.mark.parametrize("quiet", [[], ["--quiet"]], ids=["loud", "quiet"])
    def test_bonferroni_of_the_one_pair(self, capsys, quiet):
        # N = 1: the cutoff is 0.05 itself
        assert main(["pvalue", "--theta", "4.84,-0.927", "--y1", "10.21",
                     "--y2", "10.78", "--method", "naive", "--bonferroni"]
                    + quiet) == 0
        captured = capsys.readouterr()
        rec = json.loads(captured.out)
        assert rec["p_value"] < 0.05 and rec["significant_bonferroni"] is True
        assert captured.err == ("" if quiet else
                                "pairvar: 1 of 1 p-values below 0.05/N = 0.05\n")

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

    def test_unknown_config_key_is_a_data_error(self, tmp_path, capsys,
                                                monkeypatch):
        def run(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr("pairvar.cli.coverage_study", run)
        cfg = tmp_path / "cov.cfg"
        cfg.write_text("mu_grid=10\nrep=20\ngrid_res=0.5\nk_grid=0\n")
        assert main(["simulate", "--study", "coverage", "--config", str(cfg),
                     "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("pairvar: data error: ")
        assert err.rstrip().endswith("unknown keys grid_res, rep")

    def test_coverage_of_the_exact_single_mean_set(self, tmp_path, capsys):
        cfg = tmp_path / "cov.cfg"
        cfg.write_text("theta=5,-1\nmu_grid=10\nreps=2000\nmethods=exact\n"
                       "mode=single\nseed=5\n")
        assert main(["simulate", "--study", "coverage", "--config", str(cfg),
                     "--quiet"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert float(rows[0]["coverage"]) == pytest.approx(0.95, abs=0.02)


    def test_fixed_resample_reads_pair_means_or_a_means_file(self, tmp_path,
                                                              capsys):
        # a pairs CSV gives its pair means; a plain file of those means, one
        # per line, gives the same study
        pairs = tmp_path / "pairs.csv"
        means = tmp_path / "means.txt"
        simulated_csv(pairs, 40, seed=9)
        means.write_text("".join(f"{m!r}\n" for m in
                                 load_csv(pairs).ybar.tolist()))
        outputs = []
        for source in (pairs, means):
            cfg = tmp_path / "study.cfg"
            cfg.write_text(f"scenario=fixed-resample:{source}\nn=60\n"
                           "reps=4\nseed=2\n")
            assert main(["simulate", "--study", "estimator", "--config",
                         str(cfg), "--quiet"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert [r["param"] for r in csv.DictReader(io.StringIO(
            outputs[0]))] == ["theta1", "theta2"]

    @pytest.mark.parametrize("text, message", [
        ("9.5\n\n10.x\n", "row 3: unparseable mean value"),
        ("\n\n", "is empty"),
    ], ids=["non-numeric", "empty"])
    def test_bad_means_file_is_3(self, tmp_path, capsys, text, message):
        means = tmp_path / "means.txt"
        means.write_text(text)
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"scenario=fixed-resample:{means}\nn=20\nreps=3\n")
        assert main(["simulate", "--study", "estimator", "--config", str(cfg),
                     "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("pairvar: data error: ") and message in err

    def test_config_skips_comments_and_blank_lines(self, tmp_path, capsys):
        plain, commented = tmp_path / "plain.cfg", tmp_path / "commented.cfg"
        plain.write_text("mu_grid=9\nk_grid=0\nreps=50\n")
        commented.write_text("# a power study\n\nmu_grid=9\n  \n"
                             "  # reps below\nk_grid=0\nreps=50\n")
        outputs = []
        for cfg in (plain, commented):
            assert main(["simulate", "--study", "power", "--config", str(cfg),
                         "--quiet"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


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

    @pytest.mark.parametrize("mc", [[], ["--mc-reps", "10"]],
                             ids=["analytic", "mc"])
    @pytest.mark.parametrize("mus, first", [("-800", "-800.0"),
                                            ("-3,9", "-3.0")])
    def test_overflow_is_a_domain_error(self, capsys, mus, first, mc):
        # h = exp(805) overflows at mu = -800, exp(h / 4) at mu = -3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bias-oracle", "--theta", "5,-1", f"--mus={mus}",
                         *mc]) == 4
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("pairvar: ") and f"mu = {first}" in err


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
        region = dict.fromkeys(("decisions", "evaluations"), 0)
        for _, y1, y2 in pairs:
            counts = ci_diff_region(y1, y2, model, 0.05, (7.3, 13.9),
                                    0.02).diagnostics
            region = {key: region[key] + counts[key] for key in region}
        assert region["evaluations"] > region["decisions"] > 0
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


class TestStderr:
    """Every stderr line a run writes comes through the pairvar logger."""

    @pytest.fixture
    def argv(self, tmp_path):
        control = tmp_path / "control.csv"
        experiment = tmp_path / "exp.csv"
        ds = simulated_csv(control, 150, seed=25)
        write_pairs_csv(control, list(zip(ds.ids(), ds.y1.tolist(),
                                          ds.y2.tolist()))
                        + [("tie1", 9.5, 9.5), ("tie2", 10.0, 10.0)])
        write_pairs_csv(experiment, [("a", 10.21, 10.78), ("b", 9.0, 9.4)])
        return ["pipeline", "--control", str(control), "--experiment",
                str(experiment), "--grid-res", "0.02",
                "--out", str(tmp_path / "report.csv")]

    @staticmethod
    def check_loud(err):
        lines = err.splitlines()
        assert lines and all(line.startswith("pairvar: ") for line in lines)
        assert lines[0] == ("pairvar: dropped 2 pair(s) with identical "
                            "measurements")
        assert any(line.startswith("pairvar: fitted theta_hat = (")
                   and line.endswith(" on 150 control pairs")
                   for line in lines)
        assert any(line.startswith("pairvar: significant at 0.05/N=0.025: ")
                   for line in lines)

    def test_through_main(self, argv, capsys):
        assert main(argv) == 0
        self.check_loud(capsys.readouterr().err)
        assert main(argv + ["--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_through_the_module(self, argv):
        # the cli logger is named, not __name__, which is "__main__" here
        runs = [subprocess.run([sys.executable, "-m", "pairvar.cli", *argv,
                                *quiet], capture_output=True, text=True)
                for quiet in ([], ["--quiet"])]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        self.check_loud(runs[0].stderr)
        assert runs[1].stderr == ""

    @pytest.mark.parametrize("argv, code, err", [
        (["pvalue", "--theta", "4.84,-0.927", "--y1", "10.21", "--y2", "10.78",
          "--method", "naive", "--bonferroni"], 0,
         "pairvar: 1 of 1 p-values below 0.05/N = 0.05\n"),
        (["ci", "--method", "exact", "--theta", "4.84,-0.927", "--y1", "100"],
         4, "pairvar: numerical failure: confidence set empty after bounding "
            "to [7.3, 13.9]\n"),
    ], ids=["info", "error"])
    def test_each_line_once_under_root_logging(self, argv, code, err):
        # a caller's root handler prints none of main's lines a second time,
        # and the logger propagates again once main returns
        script = ("import logging, sys; from pairvar.cli import main; "
                  "logging.basicConfig(); code = main(sys.argv[1:]); "
                  "print(logging.getLogger('pairvar').propagate); "
                  "sys.exit(code)")
        res = subprocess.run([sys.executable, "-c", script, *argv],
                             capture_output=True, text=True)
        assert res.returncode == code, res.stderr
        assert res.stdout.splitlines()[-1] == "True"
        assert res.stderr == err

    @pytest.mark.parametrize("argv", [
        ["ci", "--method", "exact", "--form", "power", "--y1", "1e300",
         "--theta=3.9,-3"],
        ["ci", "--method", "bonferroni", "--form", "exp-linear-const",
         "--y1", "1e300", "--y2", "10", "--theta=4.84,-0.927,-6"],
    ], ids=["exact-power", "bonferroni-const"])
    def test_far_observation_on_the_bracketed_path(self, argv):
        # its set is empty without squaring it: no numpy warning leaks out
        res = subprocess.run([sys.executable, "-m", "pairvar.cli", *argv],
                             capture_output=True, text=True)
        assert res.returncode == 4
        lines = res.stderr.splitlines()
        assert lines and all(line.startswith("pairvar: ") for line in lines)
        assert "confidence set empty after bounding" in res.stderr


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

    def test_pi_solve_failure_is_4(self, tmp_path, capsys, monkeypatch):
        def capped(A, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr("scipy.optimize.nnls", capped)
        inp = tmp_path / "pairs.csv"
        simulated_csv(inp, 60)
        assert main(["fit-mixture", "--input", str(inp)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("pairvar: numerical failure: NNLS failed on ")
        assert "Maximum number of iterations reached." in err

    @pytest.mark.parametrize("form, theta", [
        ("power", "3.9,-3"), ("exp-linear-const", "4.84,-0.927,-6"),
        ("exp-linear", "-8,0.4")])
    def test_exact_coverage_under_every_form_is_0(self, tmp_path, capsys,
                                                  form, theta):
        # theta_fit is theta: the bounded set covers at its level
        cfg = tmp_path / "cov.cfg"
        cfg.write_text(f"theta={theta}\nform={form}\nmu_grid=9\n"
                       "reps=20000\nmethods=exact\nmode=single\nseed=3\n")
        assert main(["simulate", "--study", "coverage", "--config", str(cfg),
                     "--quiet"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1 and rows[0]["method"] == "exact"
        se = math.sqrt(0.05 * 0.95 / 20000)
        assert abs(float(rows[0]["coverage"]) - 0.95) <= 5 * se

    def test_exact_coverage_of_a_mean_outside_the_bounds_is_3(self, tmp_path,
                                                              capsys):
        cfg = tmp_path / "cov.cfg"
        cfg.write_text("mu_grid=40\nreps=200\nmethods=exact\nmode=single\n")
        assert main(["simulate", "--study", "coverage", "--config", str(cfg),
                     "--quiet"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "pairvar: data error: exact coverage needs every mean in the "
            "bounds (7.3, 13.9); got mu = 40.0"]

    @pytest.mark.parametrize("methods", ["region,bonferroni,naive",
                                         "bonferroni,naive"])
    def test_difference_coverage_of_a_mean_outside_the_bounds_is_3(
            self, tmp_path, capsys, methods):
        cfg = tmp_path / "cov.cfg"
        cfg.write_text(f"mu_grid=40,5,10\nreps=200\nmethods={methods}\n"
                       "mode=difference\n")
        assert main(["simulate", "--study", "coverage", "--config", str(cfg),
                     "--quiet"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"pairvar: data error: {methods.split(',')[0]} coverage needs "
            "every mean in the bounds (7.3, 13.9); got mu = 40.0"]

    def test_naive_difference_coverage_outside_the_bounds_is_0(self, tmp_path,
                                                               capsys):
        cfg = tmp_path / "cov.cfg"
        cfg.write_text("mu_grid=40,10\nreps=200\nmethods=naive\n"
                       "mode=difference\n")
        assert main(["simulate", "--study", "coverage", "--config", str(cfg),
                     "--quiet"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [(float(r["mu"]), r["method"]) for r in rows] == [
            (40.0, "naive"), (10.0, "naive")]

    @pytest.mark.parametrize("form, theta", [
        ("power", "3.9,-3"), ("exp-linear-const", "4.84,-0.927,-6")])
    def test_region_difference_coverage_under_other_forms_is_0(
            self, tmp_path, capsys, form, theta):
        # theta_fit is theta: the projected region covers at its level
        reps = 20000
        cfg = tmp_path / "cov.cfg"
        cfg.write_text(f"theta={theta}\nform={form}\nmu_grid=9,12\n"
                       f"reps={reps}\nmethods=region\nmode=difference\n"
                       "seed=3\n")
        assert main(["simulate", "--study", "coverage", "--config", str(cfg),
                     "--quiet"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["method"] for r in rows] == ["region", "region"]
        se = math.sqrt(0.05 * 0.95 / reps)
        for row in rows:
            assert float(row["coverage"]) >= 0.95 - 5 * se

    @pytest.mark.parametrize("study, config, where", [
        pytest.param("coverage", "mu_grid=-1\nmethods=naive\n", "-1.0",
                     id="single-naive"),
        pytest.param("coverage", "a=0.5\nmu_grid=-1\nmethods=naive\n"
                     "mode=difference\n", "-1.0", id="difference"),
        pytest.param("power", "a=0.5\nmu_grid=-1\nk_grid=0\n", "-1.0",
                     id="power"),
        pytest.param("power", "mu_grid=9\nk_grid=-40\n", "-", id="power-k"),
        pytest.param("coverage", "mu_grid=0\nmethods=naive\n", "0.0",
                     id="mean-zero"),
        pytest.param("estimator", "scenario=uniform:-1,1\nn=50\n", "-",
                     id="estimator"),
    ])
    def test_true_variance_outside_power_domain_is_4(self, tmp_path, capsys,
                                                     study, config, where):
        # the draws take sqrt of h(theta, mu), negative or infinite here
        cfg = tmp_path / "study.cfg"
        cfg.write_text("theta=3.9,-3\nform=power\nreps=50\n" + config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--study", study, "--config", str(cfg),
                         "--quiet"]) == 4
        assert not [w for w in caught if w.category is RuntimeWarning]
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "pairvar: numerical failure: variance not finite and positive at "
            f"mu = {where}")

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

    @pytest.mark.parametrize("mode", ["single", "difference"])
    def test_naive_coverage_outside_power_domain_is_4(self, tmp_path, capsys,
                                                      mode):
        # draws at mu = 1 with sd 1 fall below 0, where h is negative
        cfg = tmp_path / "cov.cfg"
        cfg.write_text("theta=0,-1\nform=power\na=0.5\nb=3\nmu_grid=1\n"
                       f"reps=2000\nmethods=naive\nmode={mode}\n")
        assert main(["simulate", "--study", "coverage", "--config", str(cfg),
                     "--quiet"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite and positive" in captured.err

    @pytest.mark.parametrize("argv, code, out", [
        *[pytest.param(["ci", "--method", "region", "--form", form,
                        f"--theta={theta}", "--y1=-1e300", "--y2", "11"],
                       4, None, id=f"region-{form}")
          for form, theta in ORACLE_FORMS.items()],
        pytest.param(["pvalue", "--method", "naive", "--theta", "4.84,-0.927",
                      "--y1=1e200", "--y2=-1e200"], 0, 0.0, id="naive"),
        pytest.param(["pvalue", "--method", "conservative", "--theta",
                      "4.84,-0.927", "--y1=1e300", "--y2", "11"], 0, 0.0,
                     id="conservative"),
    ])
    def test_extreme_intensities_are_quiet(self, capsys, argv, code, out):
        # squares of these overflow to inf, which decides the result
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        assert not [w for w in caught if w.category is RuntimeWarning]
        captured = capsys.readouterr()
        if code:
            assert "maps outside the bounded parameter region" in captured.err
        else:
            assert json.loads(captured.out)["p_value"] == out

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
        ("power", "k_grid=\n", "k_grid"),
        ("power", "k_grid=0,1,\n", "k_grid"),
        ("coverage", "mu_grid=\n", "mu_grid"),
        ("power", "mu_grid=8,,10\n", "mu_grid"),
        ("power", "a=13.9\nb=7.3\n", "a < b"),
        ("coverage", "a=nan\n", "finite"),
        ("estimator", "b=inf\n", "finite"),
        ("power", "a=10\nb=10\n", "a < b"),
        ("power", "reps 50\n", "row 1: expected key=value in config"),
        ("power", "reps=50\n\n# again\n reps = 70\n",
         "row 4: config key 'reps' given again (first on row 1)"),
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

    @pytest.mark.parametrize("command", ["pipeline", "simulate"])
    def test_format_is_not_an_option_of_csv_only_commands(self, capsys,
                                                          command):
        argv = {"pipeline": ["pipeline", "--control", "c.csv",
                             "--experiment", "e.csv"],
                "simulate": ["simulate", "--study", "power", "--config",
                             "power.cfg"]}[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "jsonl"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err

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


def _declared_options(command: str) -> set:
    """The dest of every option the subcommand's parser declares."""
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions} - {"help"}


SEEDLESS = {
    "fit-macl": ["fit-macl", "--input", "p.csv"],
    "fit-mixture": ["fit-mixture", "--input", "p.csv"],
    "ci": ["ci", "--theta", "4.84,-0.927", "--method", "naive", "--y1", "9"],
    "pvalue": ["pvalue", "--theta", "4.84,-0.927", "--method", "naive",
               "--y1", "9", "--y2", "10"],
    "pipeline": ["pipeline", "--control", "c.csv", "--experiment", "e.csv"],
}


class TestManifest:
    @pytest.fixture
    def files(self, tmp_path):
        control = tmp_path / "control.csv"
        simulated_csv(control, 150, seed=6)
        experiment = tmp_path / "experiment.csv"
        write_pairs_csv(experiment, [("a", 10.21, 10.78), ("b", 9.0, 9.4)])
        means = tmp_path / "means.txt"
        means.write_text("9\n10\n11\n")
        study = tmp_path / "study.cfg"
        study.write_text(f"n=40\nreps=3\nscenario=fixed-resample:{means}\n")
        return {"control": str(control), "experiment": str(experiment),
                "means": str(means), "study": str(study)}

    @pytest.mark.parametrize("argv, seed, read", [
        pytest.param(["fit-macl", "--input", "{control}"], None, ["control"],
                     id="fit-macl"),
        pytest.param(["fit-mixture", "--input", "{control}"], None,
                     ["control"], id="fit-mixture"),
        pytest.param(["ci", "--theta", "4.84,-0.927", "--method", "naive",
                      "--y1", "10.2", "--y2", "10.7"], None, [], id="ci"),
        pytest.param(["pvalue", "--theta", "4.84,-0.927", "--method",
                      "berger-boos", "--input", "{experiment}"], None,
                     ["experiment"], id="pvalue"),
        pytest.param(["simulate", "--study", "estimator", "--config",
                      "{study}"], 0, ["study", "means"], id="simulate"),
        pytest.param(["simulate", "--study", "estimator", "--config",
                      "{study}", "--seed", "9"], 9, ["study", "means"],
                     id="simulate-seed"),
        pytest.param(["bias-oracle", "--theta", "5,-1", "--mus", "9,10",
                      "--mc-reps", "20"], 0, [], id="bias-oracle-mc"),
        pytest.param(["bias-oracle", "--theta", "5,-1", "--mus", "9,10"],
                     None, [], id="bias-oracle"),
        pytest.param(["pipeline", "--control", "{control}", "--experiment",
                      "{experiment}"], None, ["control", "experiment"],
                     id="pipeline"),
    ])
    def test_manifest_records_every_option_seed_and_file(
            self, tmp_path, files, argv, seed, read):
        out = tmp_path / "out"
        assert main([a.format(**files) for a in argv]
                    + ["--out", str(out), "--quiet"]) == 0
        manifest = strict_json((tmp_path / "out.manifest.json").read_text())
        config = manifest["config"]
        assert _declared_options(argv[0]) - {"out", "quiet"} <= set(config)
        assert manifest["seed"] == seed
        assert set(manifest["input_digests"]) == {files[k] for k in read}

    @pytest.mark.parametrize("argv, inversion", [
        (["ci", "--method", "exact"], {"lambert-w": 2}),
        (["ci", "--method", "bonferroni"], {"lambert-w": 4}),
        (["ci", "--method", "exact", "--form", "power",
          "--theta=3.9,-3"], {"bracketed": 2}),
        (["pvalue", "--method", "berger-boos"], {"lambert-w": 2}),
        (["pvalue", "--method", "berger-boos", "--cbeta-pivot", "pair"],
         {"bracketed": 2}),
        (["ci", "--method", "region", "--grid-res", "0.02"], None),
        (["pvalue", "--method", "conservative"], None),
    ])
    def test_manifest_names_the_inversion_and_its_rows(self, tmp_path, files,
                                                       argv, inversion):
        out = tmp_path / "out.csv"
        theta = [] if "--theta=3.9,-3" in argv else ["--theta", "4.84,-0.927"]
        assert main([*argv, *theta, "--input", files["experiment"],
                     "--out", str(out), "--quiet"]) == 0
        diagnostics = strict_json(Path(f"{out}.manifest.json").read_text())[
            "diagnostics"]
        assert diagnostics == ({"inversion": inversion} if inversion else {})

    def test_manifest_records_the_one_pair_and_the_results(self, tmp_path,
                                                           files):
        out = tmp_path / "one.jsonl"
        assert main(["ci", "--theta", "4.84,-0.927", "--method", "region",
                     "--raw", "--y1", "20000", "--y2", "25000", "--no-refine",
                     "--out", str(out), "--quiet"]) == 0
        config = strict_json(Path(f"{out}.manifest.json").read_text())[
            "config"]
        assert (config["y1"], config["y2"], config["raw"]) == (20000, 25000,
                                                               True)
        assert config["no_refine"] is True and config["input"] is None
        out = tmp_path / "report.csv"
        assert main(["pipeline", "--control", files["control"],
                     "--experiment", files["experiment"], "--out", str(out),
                     "--quiet"]) == 0
        config = strict_json(Path(f"{out}.manifest.json").read_text())[
            "config"]
        assert len(config["theta_hat"]) == 2 and config["J"] >= 2
        assert config["bonferroni_cutoff"] == 0.025
        assert set(config["significant_counts"]) == {
            "p_naive", "p_berger_boos", "p_conservative"}

    @pytest.mark.parametrize("command", sorted(SEEDLESS))
    def test_seed_is_a_usage_error_where_nothing_is_drawn(self, command):
        parser = build_parser()
        parser.parse_args(SEEDLESS[command])
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(SEEDLESS[command] + ["--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("study, settings", [
        pytest.param("power", "mu_grid=9,11\nk_grid=0,2\nreps=300\n",
                     id="power"),
        pytest.param("coverage",
                     "mu_grid=9.5\nreps=300\nmethods=exact,naive\n",
                     id="coverage"),
        pytest.param("estimator", "n=60\nreps=3\n", id="estimator"),
    ])
    def test_simulate_config_written_back_reproduces_the_csv(
            self, tmp_path, monkeypatch, study, settings):
        # every setting is recorded, defaults included: the rerun does not
        # depend on the program's defaults
        cfg = tmp_path / "study.cfg"
        cfg.write_text(settings)
        first = tmp_path / "first.csv"
        assert main(["simulate", "--study", study, "--config", str(cfg),
                     "--seed", "7", "--out", str(first), "--quiet"]) == 0
        config = strict_json(Path(f"{first}.manifest.json").read_text())[
            "config"]
        again = tmp_path / "again.cfg"
        again.write_text("".join(f"{k}={v}\n" for k, v in config.items()))
        monkeypatch.setattr("pairvar.cli.DEFAULT_ALPHA", 0.2)
        second = tmp_path / "second.csv"
        assert main(["simulate", "--study", study, "--config", str(again),
                     "--out", str(second), "--quiet"]) == 0
        assert second.read_bytes() == first.read_bytes()

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

    def test_record_csv_cells_parse_back_to_jsonl_values(self, tmp_path,
                                                         capsys):
        # a list-valued field is one cell of comma-separated reals
        inp = tmp_path / "pairs.csv"
        simulated_csv(inp, 150, seed=4)
        for argv in (["fit-macl", "--input", str(inp)],
                     ["fit-mixture", "--input", str(inp), "--quiet"],
                     ["bias-oracle", "--theta", "5,-1", "--mus", "9,10",
                      "--mc-reps", "20", "--seed", "1"]):
            assert main(argv + ["--format", "jsonl"]) == 0
            rec = json.loads(capsys.readouterr().out)
            assert main(argv + ["--format", "csv"]) == 0
            row, = csv.DictReader(io.StringIO(capsys.readouterr().out))
            rec.pop("pi_hat", None)  # csv leaves the weights out
            assert list(row) == list(rec)
            for key, value in rec.items():
                if isinstance(value, list):
                    assert [float(v) for v in row[key].split(",")] == value
                elif isinstance(value, bool):
                    assert row[key] == str(value)
                else:
                    assert float(row[key]) == value


# one pairs file serves ci, pvalue and pipeline's experiment; each simulate
# study is run on a small config
@pytest.mark.parametrize("argv, study", [
    pytest.param(["ci", "--theta", "4.84,-0.927", "--method", "naive",
                  "--input", "{pairs}"], None, id="ci"),
    pytest.param(["pvalue", "--theta", "4.84,-0.927", "--method",
                  "berger-boos", "--input", "{pairs}"], None, id="pvalue"),
    pytest.param(["pipeline", "--control", "{control}", "--experiment",
                  "{pairs}", "--grid-res", "0.02"], None, id="pipeline"),
    pytest.param(["simulate", "--study", "estimator"], "n=60\nreps=3\n",
                 id="estimator"),
    pytest.param(["simulate", "--study", "coverage"],
                 "mu_grid=9,11\nreps=200\n", id="coverage-single"),
    pytest.param(["simulate", "--study", "coverage"],
                 "mu_grid=9,11\nreps=200\nmode=difference\n"
                 "methods=region,bonferroni,naive\n", id="coverage-difference"),
    pytest.param(["simulate", "--study", "power"],
                 "mu_grid=10\nk_grid=0,2\nreps=200\n", id="power"),
])
def test_every_csv_has_one_line_terminator(tmp_path, monkeypatch, argv,
                                           study):
    import pairvar.cli as cli

    pairs, control = tmp_path / "pairs.csv", tmp_path / "control.csv"
    write_pairs_csv(pairs, [("a", 10.21, 10.78), ("b", 9.0, 9.4)])
    simulated_csv(control, 150, seed=6)
    argv = [a.format(pairs=pairs, control=control) for a in argv]
    reports = []
    if study is not None:
        cfg = tmp_path / "study.cfg"
        cfg.write_text(study)
        argv += ["--config", str(cfg)]
        name = f"{argv[2]}_study"
        real = getattr(cli, name)

        def keep(*args, **kwargs):
            reports.append(real(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, name, keep)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out), "--quiet"]) == 0
    text = out.read_bytes().decode("utf-8")
    *lines, last = text.split("\r\n")
    assert lines and last == "" and not any("\n" in line or "\r" in line
                                            for line in lines)
    if reports:
        report, = reports
        assert list(csv.reader(lines)) == [list(report.rows[0])] + [
            [v if isinstance(v, str) else repr(v) for v in row.values()]
            for row in report.rows]


class TestConsoleScript:
    def test_entry_point_version(self):
        res = subprocess.run([sys.executable, "-m", "pairvar.cli",
                              "--version"], capture_output=True, text=True)
        assert res.returncode == 0

    @pytest.mark.parametrize("first, second", [
        pytest.param("", "--quiet", id="loud-then-quiet"),
        pytest.param("--quiet", "", id="quiet-then-loud"),
    ])
    def test_quiet_is_decided_by_each_call(self, first, second):
        # two calls in one interpreter, each printing its own warnings, and
        # neither leaving a level or a handler on the pairvar logger
        code = (
            "import logging, sys; from pairvar.cli import main; "
            "argv = ['pvalue', '--method', 'berger-boos', '--theta', "
            "'4.84,-0.927', '--y1=1e300', '--y2', '11']; "
            f"main(argv + {[first] if first else []}); "
            "print('--', file=sys.stderr, flush=True); "
            f"main(argv + {[second] if second else []}); "
            "log = logging.getLogger('pairvar'); "
            "print(log.level, len(log.handlers), file=sys.stderr)")
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        before, after = res.stderr.split("--\n")
        loud, quiet = (after, before) if first else (before, after)
        assert "Berger-Boos confidence set for the mean misses" in loud
        assert "Berger-Boos" not in quiet
        assert res.stderr.endswith("0 0\n")

    def test_start_up_and_one_shot_commands_load_no_scipy(self, tmp_path):
        # only the mixture fit's pi solve imports scipy, and only when it runs
        single, difference = tmp_path / "single.cfg", tmp_path / "diff.cfg"
        single.write_text("theta=5,-1\nmu_grid=10\nreps=200\n"
                          "methods=exact,naive\nmode=single\nseed=5\n")
        difference.write_text("theta=5,-1\nmu_grid=10\nreps=50\n"
                              "methods=region,bonferroni,naive\n"
                              "mode=difference\nseed=5\n")
        pair = ["--theta", "4.84,-0.927", "--y1", "10.21", "--y2", "10.78"]
        runs = [["ci", "--method", "exact", *pair[:4]],
                ["ci", "--method", "region", *pair],
                *(["pvalue", "--method", m, *pair]
                  for m in ("naive", "conservative", "berger-boos")),
                *(["simulate", "--study", "coverage", "--config", str(cfg)]
                  for cfg in (single, difference))]
        code = "\n".join([
            "import json, sys, pairvar.cli",
            "def scipy():",
            "    return [m for m in sorted(sys.modules) if m.startswith('scipy')]",
            "pairvar.cli.build_parser()",
            "loaded = [scipy()]",
            "for argv in json.loads(sys.argv[1]):",
            "    assert pairvar.cli.main(argv + ['--quiet']) == 0, argv",
            "    loaded.append(scipy())",
            "print(json.dumps(loaded))"])
        res = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout.splitlines()[-1]) == [[]] * (len(runs) + 1)
