"""Command-line interface: one executable, one subcommand per operation.

Every line a run writes to stderr goes through the pairvar logger as
"pairvar: <message>", at INFO and above (ERROR under --quiet). With --out,
every run writes <out>.manifest.json beside its output: its parsed options
(for simulate, every setting it resolved), results, seed and input
digests, so results can be traced back to exact inputs and settings. JSON
holds a non-finite float as null. Exit codes: 0 success, 2 usage error,
3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, macl, mixture_em
from .errors import DataError, DomainError, NumericalError
from .intervals import (
    DEFAULT_GRID_RES,
    bounded_hulls,
    ci_diff_bonferroni,
    ci_diff_naive,
    ci_diff_region,
    ci_mu_naive,
    inversion,
    ratio_scale,
)
from .macl import macl_fit
from .mixture_em import fit_mixture
from .model import (
    DEFAULT_BOUNDS,
    VarianceForm,
    VarianceModel,
    estimating_equation_bias,
    load_csv,
    log_raw,
)
from .pvalues import (
    DEFAULT_BETA_ANALYSIS,
    DEFAULT_BETA_POWER,
    TestMethod,
    pvalue_kernel,
)
# bench/tracing.py wraps pairvar.cli.pvalue_*; keep the names here.
from .pvalues import pvalue_berger_boos, pvalue_conservative  # noqa: F401
from .pvalues import pvalue_naive  # noqa: F401
from .simulate import (
    RNG_ID,
    EstimatorMethod,
    Scenario,
    ScenarioKind,
    coverage_study,
    estimator_study,
    power_study,
)

DEFAULT_ALPHA = 0.05
FORMS = [f.value for f in VarianceForm]
logger = logging.getLogger("pairvar.cli")  # __name__ is __main__ under -m


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _json(value, **kwargs) -> str:
    """value as strict JSON: a non-finite float becomes null."""
    def safe(v):
        if isinstance(v, dict):
            return {k: safe(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [safe(x) for x in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v
    return json.dumps(safe(value), allow_nan=False, **kwargs)


def _build_manifest(args, results: dict | None = None,
                    diagnostics: dict | None = None,
                    seed: int | None = None) -> dict:
    """Everything needed to reproduce one run's outputs: as config, every
    parsed option but output routing, then the results the command passes
    in; the seed the run drew from (None if it drew none) and the digest of
    every file the config names. diagnostics holds counts of special cases
    the run met, such as disconnected sets and degenerate p-values, the
    pivot inversion, the mixture fit's path and the region search's work."""
    config = {k: v for k, v in vars(args).items()
              if k not in ("command", "func", "out", "quiet")}
    config.update(results or {})
    files = [config[k] for k in ("input", "control", "experiment", "config")
             if config.get(k) is not None]
    kind, _, means = config.get("scenario", "").partition(":")
    if kind.endswith("-resample"):
        files.append(means)
    return {"subcommand": args.command, "config": config, "seed": seed,
            "version": __version__,
            "input_digests": {str(p): _sha256(p) for p in files},
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "rng": RNG_ID, "diagnostics": diagnostics or {}}


def _emit(args, text: str, manifest: dict) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        Path(f"{args.out}.manifest.json").write_text(
            _json(manifest, indent=2) + "\n", encoding="utf-8")
        logger.info("wrote %s (+ manifest)", args.out)
    else:
        sys.stdout.write(text)


def _reals(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated reals, got {text!r}") from None


def _checked(cast, accept, what: str):
    """An argparse type: text through cast, rejected unless accept(value)."""
    def parse(text: str):
        value = cast(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value
    parse.__name__ = cast.__name__  # argparse names the type in errors
    return parse


def _positive(cast):
    return _checked(cast, lambda v: v > 0, "positive")


_level = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")
_finite = _checked(float, math.isfinite, "finite")


def _check_bounds(form: VarianceForm, a: float) -> None:
    """Reject mean bounds reaching mu <= 0, where the power form is not finite."""
    if form is VarianceForm.POWER and a <= 0:
        raise DataError(f"the power form needs bounds with a > 0, got a = {a}")


def _model_from_args(args) -> VarianceModel:
    form = VarianceForm.from_name(args.form)
    _check_bounds(form, args.a)
    return VarianceModel(form, args.theta)


def _record_text(records: list[dict], fmt: str) -> str:
    """The records as jsonl lines or csv rows; csv joins a list-valued field
    into one comma-separated cell."""
    if fmt == "jsonl":
        return "".join(_json(r) + "\n" for r in records)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(records[0].keys()))
    writer.writeheader()
    writer.writerows({k: ",".join(map(str, v)) if isinstance(v, list) else v
                      for k, v in r.items()} for r in records)
    return buf.getvalue()


def _read_pairs(args, bounds, need_y2: bool):
    """ids, y1 and y2 of --input's pairs, or of the one --y1/--y2 pair as
    arrays of length one (ids None, y2 None without --y2); --raw takes logs
    of either."""
    if args.input is None:
        if args.y1 is None or need_y2 and args.y2 is None:
            raise DataError(f"provide --y1{' and --y2' if need_y2 else ''} "
                            "or --input")
        given = [y for y in (args.y1, args.y2) if y is not None]
        y1, *y2 = (np.array([y]) for y in (log_raw(*given) if args.raw
                                             else given))
        return None, y1, (y2[0] if y2 else None)
    data = load_csv(args.input, bounds=bounds, raw=args.raw, drop_ties=False)
    if data.n == 0:
        raise DataError(f"input file {args.input} has no pairs")
    return data.ids(), data.y1, data.y2


def _pair_rows(ids, y1, y2, columns: dict) -> list[dict]:
    """One record per pair: id, y1 and y2 echoed exactly, then the columns."""
    return [{"id": pid, "y1": a, "y2": b, **dict(zip(columns, values))}
            for pid, a, b, *values in zip(ids, y1.tolist(), y2.tolist(),
                                          *columns.values())]


def _emit_pairs(args, ids, y1, y2, columns: dict, record: dict,
                diagnostics: dict | None = None) -> int:
    """Write record for the one --y1/--y2 pair (jsonl by default), or the
    columns as --input's rows (csv by default)."""
    text = (_record_text([record], args.format or "jsonl") if ids is None
            else _record_text(_pair_rows(ids, y1, y2, columns),
                              args.format or "csv"))
    _emit(args, text, _build_manifest(args, diagnostics=diagnostics))
    return 0


# ---------------------------------------------------------------- fit-macl


def _cmd_fit_macl(args) -> int:
    data = load_csv(args.input, raw=args.raw)
    result = macl_fit(data, VarianceForm.from_name(args.form),
                      init=args.init, tol=args.tol, max_iter=args.max_iter)
    record = {
        "theta_hat": list(result.theta_hat),
        "iterations": result.iterations,
        "residual_norm": result.residual_norm,
        "converged": result.converged,
        "fallback": result.fallback,
        "n": data.n,
    }
    _emit(args, _record_text([record], args.format), _build_manifest(args))
    return 0


# ------------------------------------------------------------- fit-mixture


def _mixture_diagnostics(est) -> dict:
    """Iteration counts, KKT certificate and fallbacks of a mixture fit."""
    return {"iterations": est.iterations, "converged": est.converged,
            "inner_iterations": est.inner_iterations,
            "kkt_gap": est.kkt_gap,
            "mstep_fallbacks": est.mstep_fallbacks,
            "active_points": est.active_points}


def _cmd_fit_mixture(args) -> int:
    data = load_csv(args.input, bounds=(args.a, args.b), raw=args.raw)
    est, grid = fit_mixture(data, VarianceForm.from_name(args.form),
                            d=args.d, init=args.init, tol=args.tol,
                            max_iter=args.max_iter)
    record = {
        "theta_hat": list(est.theta_hat),
        "J": grid.J,
        "log_lik": est.log_lik,
        **_mixture_diagnostics(est),
        "n": data.n,
    }
    if not args.no_weights and args.format == "jsonl":
        record["pi_hat"] = list(est.pi_hat)
    _emit(args, _record_text([record], args.format), _build_manifest(args))
    return 0


# --------------------------------------------------------------------- ci


def _ci_columns(args, model, y1, y2, bounds) -> dict:
    """The lo, hi and disconnected columns, each from one array call; region
    calls ci_diff_region once per pair, as its scan and its boundary
    search are batched over the rows of one pair."""
    method = args.method
    disconnected = [False] * y1.size
    if method == "exact":
        lo, hi, parts = bounded_hulls(y1, model, args.alpha, *bounds)
        if (parts == 0).any():
            raise NumericalError("confidence set empty after bounding to "
                                 f"[{bounds[0]}, {bounds[1]}]")
        disconnected = (parts > 1).tolist()
    elif method == "region":
        sets = [ci_diff_region(a, b, model, args.alpha, bounds, args.grid_res,
                               refine_boundaries=not args.no_refine)
                for a, b in zip(y1.tolist(), y2.tolist())]
        lo, hi = np.array([cs.hull for cs in sets]).T
        disconnected = [cs.disconnected for cs in sets]
    elif method == "bonferroni":
        lo, hi = ci_diff_bonferroni(y1, y2, model, args.alpha, bounds)
    elif y2 is None:  # naive: single-mean without --y2, difference with it
        lo, hi = ci_mu_naive(y1, model, args.alpha)
    else:
        lo, hi = ci_diff_naive(y1, y2, model, args.alpha)
    lo, hi = (ratio_scale((lo, hi)) if args.scale == "ratio"
              else (lo.tolist(), hi.tolist()))
    return {"lo": lo, "hi": hi, "disconnected": disconnected}


def _cmd_ci(args) -> int:
    model = _model_from_args(args)
    bounds = (args.a, args.b)
    ids, y1, y2 = _read_pairs(
        args, bounds, need_y2=args.method in ("region", "bonferroni"))
    columns = _ci_columns(args, model, y1, y2, bounds)
    record = {"method": args.method, "level": 1 - args.alpha,
              **{k: v[0] for k, v in columns.items()}, "scale": args.scale}
    rows = {"exact": y1.size, "bonferroni": 2 * y1.size}.get(args.method)
    return _emit_pairs(args, ids, y1, y2,
                       dict(columns, method=[args.method] * y1.size), record,
                       rows and {"inversion": {inversion(model): rows}})


# ------------------------------------------------------------------ pvalue


def _cmd_pvalue(args) -> int:
    model = _model_from_args(args)
    bounds = (args.a, args.b)
    ids, y1, y2 = _read_pairs(args, bounds, need_y2=True)
    p, mu, _, stat = pvalue_kernel(
        y1, y2, model, TestMethod(args.method), bounds, args.beta,
        args.cbeta_pivot)
    columns = {"statistic": [None] * p.size if stat is None else stat.tolist(),
               "p_value": p.tolist(),
               "mu_sup": [None if math.isnan(m) else m for m in mu.tolist()]}
    if args.bonferroni:
        cutoff = 0.05 / p.size
        columns["significant_bonferroni"] = significant = [
            v <= cutoff for v in columns["p_value"]]
        logger.info("%d of %d p-values below 0.05/N = %.3g",
                    sum(significant), p.size, cutoff)
    record = {"method": args.method, **{k: v[0] for k, v in columns.items()}}
    inverted = args.method == "berger-boos" and {"inversion": {
        inversion(model, args.cbeta_pivot == "pair"): p.size}}
    return _emit_pairs(args, ids, y1, y2, columns, record, inverted)


# ---------------------------------------------------------------- simulate


def _read_config_file(path) -> dict:
    cfg, first_row = {}, {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from None
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError("expected key=value in config", row=i)
        key, _, value = (part.strip() for part in line.partition("="))
        if key in cfg:
            raise DataError(f"config key {key!r} given again (first on row "
                            f"{first_row[key]})", row=i)
        cfg[key], first_row[key] = value, i
    return cfg


def _scenario(text: str, n: int, seed: int) -> Scenario:
    kind_name, _, rest = text.partition(":")
    try:
        kind = ScenarioKind(kind_name)
    except ValueError:
        raise DataError(f"unknown scenario kind {kind_name!r}") from None
    if kind in (ScenarioKind.UNIFORM_CONTINUOUS, ScenarioKind.UNIFORM_DISCRETE):
        lo, hi = (float(v) for v in rest.split(","))
        return Scenario(kind=kind, n=n, seed=seed, lo=lo, hi=hi)
    means = _read_means_file(rest)
    return Scenario(kind=kind, n=n, seed=seed, source_means=means)


def _read_means_file(path) -> tuple[float, ...]:
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if text and text[0].strip().lower().startswith("id,"):
        data = load_csv(path)
        return tuple(float(v) for v in data.ybar)
    means = []
    for i, line in enumerate(text, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            means.append(float(line))
        except ValueError:
            raise DataError("unparseable mean value", row=i) from None
    if not means:
        raise DataError(f"means file {path} is empty")
    return tuple(means)


# every key a study reads; study and config are in a written-back manifest
_STUDY_KEYS = frozenset({
    "seed", "form", "theta", "alpha", "a", "b",  # every study
    "n", "method", "scenario", "reps", "d",  # estimator
    "theta_fit", "mu_grid", "methods", "mode",  # coverage
    "k_grid", "beta",  # power
    "study", "config"})


def _cmd_simulate(args) -> int:
    cfg = _read_config_file(args.config)
    unknown = sorted(set(cfg) - _STUDY_KEYS)
    if unknown:
        raise DataError(f"config file {args.config}: unknown keys "
                        f"{', '.join(unknown)}")
    settings = {}  # every setting read, defaults included, for the manifest

    def get(key: str, default, cast=float):
        """cfg[key], else default, through cast; DataError if it fails."""
        value = settings[key] = cfg.get(key, default)
        try:
            return cast(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DataError(f"{key} = {value!r}: {exc}") from None

    seed = args.seed if args.seed is not None else get("seed", 0, int)
    form = get("form", "exp-linear", VarianceForm.from_name)

    def model(text):
        return VarianceModel(form, _reals(text))

    theta = get("theta", "5,-1", model)
    alpha = get("alpha", DEFAULT_ALPHA, _level)
    bounds = (get("a", DEFAULT_BOUNDS[0], _finite),
              get("b", DEFAULT_BOUNDS[1], _finite))
    if not bounds[0] < bounds[1]:
        raise DataError(f"the bounds need a < b, got a, b = {bounds}")
    _check_bounds(form, bounds[0])

    if args.study == "estimator":
        n = get("n", 2000, int)
        method = get("method", "macl", EstimatorMethod)
        report = estimator_study(
            get("scenario", "uniform:8,12", lambda t: _scenario(t, n, seed)),
            theta, get("reps", 200 if method is EstimatorMethod.MIXTURE
                       else 1000, int), method,
            d=get("d", mixture_em.DEFAULT_SPACING, _positive(float)),
            bounds=bounds)
    elif args.study == "coverage":
        report = coverage_study(
            theta, get("theta_fit", cfg.get("theta", "5,-1"), model),
            get("mu_grid", "7.5,9,11,13", _reals), alpha,
            get("reps", 100_000, _positive(int)),
            get("methods", "exact,naive",
                lambda t: [m.strip() for m in t.split(",")]),
            mode=get("mode", "single", str), seed=seed, bounds=bounds)
    else:
        report = power_study(
            theta, get("mu_grid", "8,10,12", _reals),
            get("k_grid", "0,1,2,3", _reals),
            get("reps", 10_000, _positive(int)),
            beta=get("beta", DEFAULT_BETA_POWER, _level),
            alpha=alpha, bounds=bounds, seed=seed)

    diagnostics = {"failures": report.failures,
                   "failure_types": report.failure_types}
    _emit(args, _record_text(report.rows, "csv"),
          _build_manifest(args, settings, diagnostics, seed))
    logger.info("%s study: %d replicates, %d failures, %.1fs", args.study,
                report.replicates, report.failures, report.wall_clock)
    return 0


# ------------------------------------------------------------- bias-oracle


def _cmd_bias_oracle(args) -> int:
    first, second = estimating_equation_bias(args.theta, args.mus)
    record = {"theta": list(args.theta), "mus": list(args.mus),
              "first": first, "second": second}
    if args.mc_reps:
        rng = np.random.default_rng(args.seed)
        t1, t2 = args.theta
        mus = np.asarray(args.mus)
        h = np.exp(t1 + t2 * mus)
        y1 = rng.normal(mus, np.sqrt(h), size=(args.mc_reps, mus.size))
        y2 = rng.normal(mus, np.sqrt(h), size=(args.mc_reps, mus.size))
        ybar = (y1 + y2) / 2
        w = (y1 - y2) ** 2 / 2 * np.exp(-t1 - t2 * ybar)
        eq1 = 1.0 - np.mean(w, axis=1)
        eq2 = np.mean(ybar, axis=1) - np.mean(ybar * w, axis=1)
        record.update(
            mc_first=float(eq1.mean()), mc_second=float(eq2.mean()),
            mc_se_first=float(eq1.std(ddof=1) / np.sqrt(args.mc_reps)),
            mc_se_second=float(eq2.std(ddof=1) / np.sqrt(args.mc_reps)),
        )
    _emit(args, _record_text([record], args.format),
          _build_manifest(args, seed=args.seed if args.mc_reps else None))
    return 0


# ---------------------------------------------------------------- pipeline


def _cmd_pipeline(args) -> int:
    form = VarianceForm.from_name(args.form)
    _check_bounds(form, args.a)
    bounds = (args.a, args.b)
    control = load_csv(args.control, bounds=bounds, raw=args.raw)
    experiment = load_csv(args.experiment, bounds=bounds, raw=args.raw,
                          drop_ties=False)
    if experiment.n == 0:
        raise DataError(f"experiment file {args.experiment} has no usable pairs")
    est, grid = fit_mixture(control, form, d=args.d)
    model = VarianceModel(form, est.theta_hat)
    y1, y2 = experiment.y1, experiment.y2
    regions = [ci_diff_region(a, b, model, args.alpha, bounds, args.grid_res)
               for a, b in zip(y1.tolist(), y2.tolist())]
    ratio_lo, ratio_hi = ratio_scale(list(zip(*(r.hull for r in regions))))
    naive_lo, naive_hi = ratio_scale(ci_diff_naive(y1, y2, model, args.alpha))
    tests = {f"p_{m.name.lower()}": pvalue_kernel(y1, y2, model, m, bounds,
                                                  args.beta)
             for m in TestMethod}
    columns = {"ratio_lo": ratio_lo, "ratio_hi": ratio_hi,
               "ci_disconnected": [r.disconnected for r in regions],
               "ratio_naive_lo": naive_lo, "ratio_naive_hi": naive_hi,
               **{name: t[0].tolist() for name, t in tests.items()}}
    rows = _pair_rows(experiment.ids(), y1, y2, columns)
    cutoff = 0.05 / experiment.n
    counts = {m: sum(1 for p in columns[m] if p <= cutoff)
              for m in ("p_naive", "p_berger_boos", "p_conservative")}
    results = {"theta_hat": list(est.theta_hat), "J": grid.J,
               "bonferroni_cutoff": cutoff, "significant_counts": counts}
    diagnostics = {
        "region_disconnected": sum(r.disconnected for r in regions),
        "berger_boos_degenerate": int(np.count_nonzero(
            tests["p_berger_boos"][2])),
        "mixture": _mixture_diagnostics(est),
        "region": {key: sum(r.diagnostics[key] for r in regions)
                   for key in ("decisions", "evaluations")}}
    _emit(args, _record_text(rows, "csv"),
          _build_manifest(args, results, diagnostics))
    logger.info("fitted theta_hat = %s on %d control pairs",
                tuple(round(t, 4) for t in est.theta_hat), control.n)
    logger.info("significant at 0.05/N=%.3g: naive %d, berger-boos %d, "
                "conservative %d", cutoff, counts["p_naive"],
                counts["p_berger_boos"], counts["p_conservative"])
    return 0


# ------------------------------------------------------------------ parser


def _common_options() -> argparse.ArgumentParser:
    """Options every subcommand takes."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="output path (stdout if omitted); a manifest "
                             "JSON is written alongside")
    common.add_argument("--quiet", action="store_true",
                        help="suppress informational messages")
    return common


def _format_option(default: str | None) -> argparse.ArgumentParser:
    """--format of the subcommands that write records; pipeline and
    simulate always write csv and do not take it."""
    records = argparse.ArgumentParser(add_help=False)
    records.add_argument("--format", choices=["jsonl", "csv"],
                         default=default, help="record output format")
    return records


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairvar",
        description="Variance-function estimation and inference for "
                    "paired-replicate log intensities.")
    parser.add_argument("--version", action="version", version=__version__)
    common = _common_options()
    records = _format_option("jsonl")
    # ci and pvalue take one pair or a pairs CSV, and write a jsonl record
    # for one pair and csv rows for --input unless --format is given
    per_pair = argparse.ArgumentParser(
        add_help=False, parents=[common, _format_option(None)])
    per_pair.add_argument("--y1", type=_finite, default=None)
    per_pair.add_argument("--y2", type=_finite, default=None)
    per_pair.add_argument("--input", default=None,
                          help="a pairs CSV (exact uses its y1)")
    data = argparse.ArgumentParser(add_help=False)  # how pairs are modelled
    data.add_argument("--form", default="exp-linear", choices=FORMS)
    data.add_argument("--raw", action="store_true",
                      help="input intensities are raw; take natural logs")
    bounds = argparse.ArgumentParser(add_help=False)  # the mean support
    bounds.add_argument("--a", type=_finite, default=DEFAULT_BOUNDS[0])
    bounds.add_argument("--b", type=_finite, default=DEFAULT_BOUNDS[1])
    # argparse takes "-45,6.5" after a space for an option
    theta = argparse.ArgumentParser(add_help=False)
    theta.add_argument("--theta", type=_reals, required=True,
                       help="comma-separated coefficients; write a negative "
                            "first one as --theta=-45,6.5")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-macl", parents=[common, records, data],
                       help="fit the variance function by approximate "
                            "conditional likelihood")
    p.add_argument("--input", required=True)
    p.add_argument("--init", type=_reals, default=None)
    p.add_argument("--tol", type=_positive(float), default=macl.DEFAULT_TOL)
    p.add_argument("--max-iter", type=_positive(int),
                   default=macl.DEFAULT_MAX_ITER)
    p.set_defaults(func=_cmd_fit_macl)

    spacing = {"type": _positive(float), "default": mixture_em.DEFAULT_SPACING}
    p = sub.add_parser("fit-mixture", parents=[common, records, data, bounds],
                       help="fit the latent-mean mixture model")
    p.add_argument("--input", required=True)
    p.add_argument("--d", **spacing,
                   help="support spacing in estimated standard deviations")
    p.add_argument("--tol", type=_positive(float),
                   default=mixture_em.DEFAULT_TOL,
                   help="bound on the final KKT gap of the weights and on "
                        "the last theta step; the gap has a rounding floor "
                        "(~4e-12 on 100 pairs), and a bound below it "
                        "cannot be met")
    p.add_argument("--max-iter", type=_positive(int),
                   default=mixture_em.DEFAULT_MAX_ITER,
                   help="cap on outer iterations (weight solve + theta step)")
    p.add_argument("--init", type=_reals, default=None)
    p.add_argument("--no-weights", action="store_true",
                   help="omit the fitted mixing weights from the output")
    p.set_defaults(func=_cmd_fit_mixture)

    p = sub.add_parser("ci", parents=[per_pair, data, bounds, theta],
                       help="confidence sets for a mean or a difference")
    p.add_argument("--alpha", type=_level, default=DEFAULT_ALPHA)
    p.add_argument("--method", required=True,
                   choices=["exact", "naive", "region", "bonferroni"])
    p.add_argument("--grid-res", type=_positive(float),
                   default=DEFAULT_GRID_RES)
    p.add_argument("--no-refine", action="store_true",
                   help="report region endpoints at the accepted grid "
                        "extremes instead of the refined boundary")
    p.add_argument("--scale", choices=["log", "ratio"], default="log")
    p.set_defaults(func=_cmd_ci)

    p = sub.add_parser("pvalue", parents=[per_pair, data, bounds, theta],
                       help="equal-means p-values for measurement pairs")
    p.add_argument("--method", required=True,
                   choices=[m.value for m in TestMethod])
    p.add_argument("--beta", type=_level, default=DEFAULT_BETA_ANALYSIS)
    p.add_argument("--cbeta-pivot", choices=["mean", "pair"], default="mean",
                   help="nuisance-set pivot for the Berger-Boos method")
    p.add_argument("--bonferroni", action="store_true",
                   help="also report significance against 0.05/N")
    p.set_defaults(func=_cmd_pvalue)

    p = sub.add_parser("simulate", parents=[common],
                       help="seeded Monte Carlo studies")
    p.add_argument("--study", required=True,
                   choices=["estimator", "coverage", "power"])
    p.add_argument("--config", required=True,
                   help="flat key=value configuration file")
    p.add_argument("--seed", type=int, default=None,
                   help="root seed of the study, over the config's seed "
                        "(default 0)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bias-oracle", parents=[common, records, theta],
                       help="analytic bias of the exp-linear estimating "
                            "equations at the true coefficients")
    p.add_argument("--mus", type=_reals, required=True)
    p.add_argument("--mc-reps", type=_checked(int, lambda v: v >= 2,
                                              "at least 2"), default=None,
                   help="optionally cross-check by Monte Carlo with this "
                        "many replicates (at least 2)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the Monte Carlo cross-check")
    p.set_defaults(func=_cmd_bias_oracle)

    p = sub.add_parser("pipeline", parents=[common, data, bounds],
                       help="fit on control data, then per-peptide intervals "
                            "and p-values on experiment data")
    p.add_argument("--control", required=True)
    p.add_argument("--experiment", required=True)
    p.add_argument("--alpha", type=_level, default=DEFAULT_ALPHA)
    p.add_argument("--beta", type=_level, default=DEFAULT_BETA_ANALYSIS)
    p.add_argument("--d", **spacing)
    p.add_argument("--grid-res", type=_positive(float),
                   default=DEFAULT_GRID_RES)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "a" in args and not args.a < args.b:
        parser.error(f"the bounds need a < b, got --a {args.a} --b {args.b}")
    # this call's --quiet decides, and only this handler writes (not a root
    # handler too); the level, handler and propagation go back on return
    package = logging.getLogger("pairvar")
    level, propagate = package.level, package.propagate
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("pairvar: %(message)s"))
    package.setLevel(logging.ERROR if args.quiet else logging.INFO)
    package.addHandler(handler)
    package.propagate = False
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        logger.error("data error: %s", exc)
        return 3
    except (DomainError, NumericalError) as exc:
        logger.error("numerical failure: %s", exc)
        return 4
    finally:
        package.removeHandler(handler)
        package.setLevel(level)
        package.propagate = propagate


if __name__ == "__main__":
    sys.exit(main())
