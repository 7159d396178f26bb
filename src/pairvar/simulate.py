"""Seeded Monte Carlo studies: estimator bias, interval coverage, test power.

Every study is a pure function of its configuration and seed. Replicate
randomness comes from spawned child streams of one root seed sequence, so
reports are identical regardless of how replicates are scheduled; the
generator family is RNG_ID, which the CLI's --out manifest records as rng.
"""

from __future__ import annotations

import enum
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, DomainError, NumericalError, StudyError
from .intervals import (
    _positive_h,
    bounded_hulls,
    chi2_1_quantile,
    ci_diff_naive,
    ci_mu_naive,
    exact_pivot_crossings,
    region_covers_zero,
)
from .macl import macl_fit, mle_homoscedastic
from .mixture_em import fit_mixture
from .model import DEFAULT_BOUNDS, PairedDataset, VarianceModel
from .pvalues import DEFAULT_BETA_POWER, TestMethod, batch_pvalues

RNG_ID = "numpy-pcg64/seedseq-spawn"
# an estimator study aborts when more than this share of its fits fail
MAX_FAILURE_FRACTION = 0.10


class ScenarioKind(enum.Enum):
    FIXED_RESAMPLE = "fixed-resample"      # one mean set per study
    RANDOM_RESAMPLE = "random-resample"    # fresh resample per replicate
    UNIFORM_CONTINUOUS = "uniform"
    UNIFORM_DISCRETE = "uniform-discrete"


@dataclass(frozen=True)
class Scenario:
    """How latent means are generated for simulated datasets."""

    kind: ScenarioKind
    n: int
    seed: int = 0
    lo: float | None = None
    hi: float | None = None
    source_means: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DataError("scenario needs n >= 1")
        if self.kind in (ScenarioKind.FIXED_RESAMPLE, ScenarioKind.RANDOM_RESAMPLE):
            if not self.source_means:
                raise DataError(f"{self.kind.value} scenario needs source_means")
            object.__setattr__(self, "source_means",
                               tuple(float(m) for m in self.source_means))
        elif self.lo is None or self.hi is None or not self.lo < self.hi:
            raise DataError(f"{self.kind.value} scenario needs lo < hi")

    def draw_means(self, rng: np.random.Generator) -> np.ndarray:
        if self.kind is ScenarioKind.UNIFORM_CONTINUOUS:
            return rng.uniform(self.lo, self.hi, self.n)
        if self.kind is ScenarioKind.UNIFORM_DISCRETE:
            return rng.integers(int(self.lo), int(self.hi) + 1, self.n).astype(float)
        return rng.choice(np.asarray(self.source_means), self.n, replace=True)


@dataclass(frozen=True)
class StudyReport:
    """Rows of study output, with the replicate count, time and failures."""

    rows: tuple[dict, ...]
    replicates: int
    wall_clock: float
    failures: int = 0
    # failed replicates by exception class name; sums to failures
    failure_types: dict = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            for key in ("coverage", "non_coverage", "rejection_rate"):
                if key in row and not 0.0 <= row[key] <= 1.0:
                    raise ValueError(f"{key}={row[key]} outside [0,1]")


def _pairs_from_means(mus: np.ndarray, theta: VarianceModel,
                      rng: np.random.Generator,
                      bounds=DEFAULT_BOUNDS) -> PairedDataset:
    sd = np.sqrt(_positive_h(theta, mus))
    y1 = rng.normal(mus, sd)
    y2 = rng.normal(mus, sd)
    return PairedDataset("sim-%06d", y1, y2, bounds)


def generate_dataset(scenario: Scenario, theta: VarianceModel,
                     bounds=DEFAULT_BOUNDS) -> PairedDataset:
    """One synthetic dataset; bit-identical for identical scenario and seed."""
    means_ss, pairs_ss = np.random.SeedSequence(scenario.seed).spawn(2)
    mus = scenario.draw_means(np.random.default_rng(means_ss))
    return _pairs_from_means(mus, theta, np.random.default_rng(pairs_ss), bounds)


class EstimatorMethod(enum.Enum):
    MACL = "macl"
    MIXTURE = "mixture"


def estimator_study(
    scenario: Scenario,
    theta: VarianceModel,
    reps: int,
    method: EstimatorMethod = EstimatorMethod.MACL,
    d: float = 0.25,
    bounds=DEFAULT_BOUNDS,
) -> StudyReport:
    """Bias and spread of the fitted coefficients over simulated datasets.

    Numerical and domain failures of the fits are counted and reported (a
    DataError, such as too few pairs, stops the study); more than
    MAX_FAILURE_FRACTION of failed replicates aborts it.
    """
    if reps < 2:
        raise DataError("need at least 2 replicates")
    t0 = time.perf_counter()
    root = np.random.SeedSequence(scenario.seed)
    means_ss, *rep_ss = root.spawn(reps + 1)
    fixed_means = None
    if scenario.kind is ScenarioKind.FIXED_RESAMPLE:
        fixed_means = scenario.draw_means(np.random.default_rng(means_ss))

    estimates = []
    failure_types = Counter()
    for r in range(reps):
        rng = np.random.default_rng(rep_ss[r])
        mus = fixed_means if fixed_means is not None else scenario.draw_means(rng)
        data = _pairs_from_means(mus, theta, rng, bounds)
        try:
            if method is EstimatorMethod.MACL:
                estimates.append(macl_fit(data, theta.form).theta_hat)
            else:
                est, _ = fit_mixture(data, theta.form, d=d)
                estimates.append(est.theta_hat)
        except (DomainError, NumericalError) as exc:
            failure_types[type(exc).__name__] += 1
    failures = sum(failure_types.values())
    if failures > MAX_FAILURE_FRACTION * reps:
        raise StudyError(
            f"{failures}/{reps} replicates failed to fit; study aborted")
    arr = np.asarray(estimates)
    rows = []
    for k, true_k in enumerate(theta.theta):
        rows.append({
            "param": f"theta{k + 1}",
            "true": float(true_k),
            "bias": float(np.mean(arr[:, k]) - true_k),
            "std": float(np.std(arr[:, k], ddof=1)),
        })
    return StudyReport(tuple(rows), reps, time.perf_counter() - t0,
                       failures, dict(failure_types))


def coverage_study(
    theta_true: VarianceModel,
    theta_fit: VarianceModel,
    mu_values: Sequence[float],
    alpha: float,
    reps: int,
    methods: Iterable[str],
    mode: str = "single",
    seed: int = 0,
    bounds=DEFAULT_BOUNDS,
) -> StudyReport:
    """Empirical coverage of the interval constructions at each true mean.

    Single mode draws one observation per replicate and covers mu itself;
    difference mode draws a null pair (both means equal) and covers the
    zero difference. Data are generated under theta_true while intervals
    are built from theta_fit, mirroring the use of estimates from one
    experiment on another. The region method is region_covers_zero. The
    exact, region and bonferroni methods build sets on bounds, under every
    form, so a mean outside them is a DataError. DomainError where
    h(theta_true, mu), or h(theta_fit, y) for the naive methods, is not
    finite and positive.
    """
    methods = list(methods)
    valid = {"single": {"exact", "naive"},
             "difference": {"region", "bonferroni", "naive"}}
    if mode not in valid:
        raise DataError(f"unknown mode {mode!r}")
    unknown = set(methods) - valid[mode]
    if unknown:
        raise DataError(f"methods {sorted(unknown)} not available in "
                        f"{mode} mode")
    outside = [mu for mu in mu_values if not bounds[0] <= mu <= bounds[1]]
    bounded = [m for m in methods if m != "naive"]
    if bounded and outside:
        raise DataError(f"{bounded[0]} coverage needs every mean in the "
                        f"bounds {tuple(bounds)}; got mu = {outside[0]}")
    t0 = time.perf_counter()
    root = np.random.SeedSequence(seed)
    streams = root.spawn(len(mu_values))

    rows = []
    for mu, ss in zip(mu_values, streams):
        rng = np.random.default_rng(ss)
        sd = math.sqrt(float(_positive_h(theta_true, mu)))
        if mode == "single":
            y = rng.normal(mu, sd, reps)
            for m in methods:
                if m == "exact":
                    e = exact_pivot_crossings(
                        y, theta_fit, chi2_1_quantile(1.0 - alpha), *bounds)
                    covered = ((e[::2] <= mu) & (mu <= e[1::2])).any(axis=0)
                else:
                    lo, hi = ci_mu_naive(y, theta_fit, alpha)
                    covered = (lo <= mu) & (mu <= hi)
                rows.append(_coverage_row(mu, m, alpha, covered))
        else:
            y1 = rng.normal(mu, sd, reps)
            y2 = rng.normal(mu, sd, reps)
            for m in methods:
                if m == "region":
                    covered = region_covers_zero(y1, y2, theta_fit, alpha,
                                                 *bounds)
                elif m == "bonferroni":
                    lo1, hi1, n1 = bounded_hulls(y1, theta_fit, alpha / 2.0,
                                                 *bounds)
                    lo2, hi2, n2 = bounded_hulls(y2, theta_fit, alpha / 2.0,
                                                 *bounds)
                    covered = ((n1 > 0) & (n2 > 0)
                               & (lo1 - hi2 <= 0.0) & (0.0 <= hi1 - lo2))
                else:
                    lo, hi = ci_diff_naive(y1, y2, theta_fit, alpha)
                    covered = (lo <= 0.0) & (0.0 <= hi)
                rows.append(_coverage_row(mu, m, alpha, covered))
    return StudyReport(tuple(rows), reps, time.perf_counter() - t0)


def _coverage_row(mu, method, alpha, covered):
    c = float(np.mean(covered))
    return {"mu": float(mu), "method": method, "level": 1.0 - alpha,
            "coverage": c, "non_coverage": 1.0 - c}


def power_study(
    theta: VarianceModel,
    mu_grid: Sequence[float],
    k_grid: Sequence[float],
    reps: int,
    beta: float = DEFAULT_BETA_POWER,
    alpha: float = 0.05,
    bounds=DEFAULT_BOUNDS,
    seed: int = 0,
) -> StudyReport:
    """Rejection rates of the three tests with means k standard deviations apart.

    The second observation is centered at mu + k * sd(mu), with its own
    variance evaluated at that shifted mean; k = 0 is the null.
    """
    t0 = time.perf_counter()
    root = np.random.SeedSequence(seed)
    streams = iter(root.spawn(len(mu_grid) * len(k_grid)))
    rows = []
    for mu in mu_grid:
        sd1 = math.sqrt(float(_positive_h(theta, mu)))
        for k in k_grid:
            rng = np.random.default_rng(next(streams))
            mu_k = mu + k * sd1
            sd2 = math.sqrt(float(_positive_h(theta, mu_k)))
            y1 = rng.normal(mu, sd1, reps)
            y2 = rng.normal(mu_k, sd2, reps)
            for method in TestMethod:
                p = batch_pvalues(y1, y2, theta, method, bounds, beta)
                rows.append({
                    "mu": float(mu), "k": float(k), "method": method.value,
                    "rejection_rate": float(np.mean(p <= alpha)),
                })
    return StudyReport(tuple(rows), reps, time.perf_counter() - t0)


def neyman_scott_check(theta_value: float, n: int, seed: int = 0,
                       mu_range=(8.0, 12.0)) -> float:
    """Homoscedastic MLE on constant-variance pairs; converges to half the truth."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    mus = rng.uniform(mu_range[0], mu_range[1], n)
    sd = math.sqrt(theta_value)
    y1 = rng.normal(mus, sd)
    y2 = rng.normal(mus, sd)
    return mle_homoscedastic(PairedDataset("ns-%06d", y1, y2))
