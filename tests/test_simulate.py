import math
from dataclasses import dataclass

import numpy as np
import pytest

from pairvar.cli import main
from pairvar.errors import (ConvergenceError, DataError, DomainError,
                            NumericalError, StudyError)
from pairvar.intervals import (_region_form, chi2_1_quantile, chi2_2_quantile,
                               ci_diff_region, exact_pivot_crossings,
                               region_covers_zero)
from pairvar.model import PairedDataset, VarianceForm, VarianceModel
from pairvar.pvalues import pvalue_berger_boos, pvalue_conservative
from pairvar.simulate import (
    EstimatorMethod,
    Scenario,
    ScenarioKind,
    StudyReport,
    coverage_study,
    estimator_study,
    generate_dataset,
    neyman_scott_check,
    power_study,
)

EXP51 = VarianceModel(VarianceForm.EXP_LINEAR, (5.0, -1.0))
EXP505 = VarianceModel(VarianceForm.EXP_LINEAR, (5.0, -0.5))

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def uniform_scenario(n, seed=0, lo=8.0, hi=12.0):
    return Scenario(kind=ScenarioKind.UNIFORM_CONTINUOUS, n=n, seed=seed,
                    lo=lo, hi=hi)


class TestScenario:
    def test_resample_needs_source_means(self):
        with pytest.raises(ValueError):
            Scenario(kind=ScenarioKind.FIXED_RESAMPLE, n=10, seed=0)

    def test_uniform_needs_range(self):
        with pytest.raises(ValueError):
            Scenario(kind=ScenarioKind.UNIFORM_CONTINUOUS, n=10, seed=0)

    def test_discrete_uniform_frequencies(self):
        sc = Scenario(kind=ScenarioKind.UNIFORM_DISCRETE, n=10**5, seed=1,
                      lo=8, hi=12)
        mus = sc.draw_means(np.random.default_rng(1))
        for v in range(8, 13):
            assert np.mean(mus == v) == pytest.approx(0.2, abs=0.005)


@dataclass(frozen=True)
class _Pair:
    id: str
    y1: float
    y2: float


def _object_dataset(scenario, theta, bounds=(7.3, 13.9)):
    """generate_dataset as built from one object per pair; the oracle."""
    means_ss, pairs_ss = np.random.SeedSequence(scenario.seed).spawn(2)
    mus = scenario.draw_means(np.random.default_rng(means_ss))
    rng = np.random.default_rng(pairs_ss)
    sd = np.sqrt(theta(mus))
    y1 = rng.normal(mus, sd)
    y2 = rng.normal(mus, sd)
    pairs = tuple(_Pair(f"sim-{i:06d}", float(a), float(b))
                  for i, (a, b) in enumerate(zip(y1, y2)))
    return ([p.id for p in pairs], np.array([p.y1 for p in pairs]),
            np.array([p.y2 for p in pairs]), bounds)


class TestGenerateDataset:
    @pytest.mark.parametrize("kind", list(ScenarioKind))
    @pytest.mark.parametrize("n, seed", [(1, 0), (2, 5), (37, 1), (2000, 9)])
    def test_bit_identical_to_object_construction(self, kind, n, seed):
        if kind in (ScenarioKind.FIXED_RESAMPLE, ScenarioKind.RANDOM_RESAMPLE):
            sc = Scenario(kind=kind, n=n, seed=seed,
                          source_means=(8.1, 9.7, 10.2, 12.9))
        else:
            sc = Scenario(kind=kind, n=n, seed=seed, lo=8.0, hi=12.0)
        bounds = (7.0, 14.5)
        ds = generate_dataset(sc, EXP505, bounds=bounds)
        ids, y1, y2, oracle_bounds = _object_dataset(sc, EXP505, bounds)
        assert ds.n == n
        assert ds.ids() == ids
        assert ds.bounds == oracle_bounds
        assert np.array_equal(ds.y1.view(np.int64), y1.view(np.int64))
        assert np.array_equal(ds.y2.view(np.int64), y2.view(np.int64))

    def test_ids_are_built_only_when_asked_for(self, monkeypatch):
        # neither generating a dataset nor fitting one builds pair names
        def refuse(self):
            raise AssertionError("pair ids built")

        monkeypatch.setattr(PairedDataset, "ids", refuse)
        ds = generate_dataset(uniform_scenario(50, seed=4), EXP51)
        estimator_study(uniform_scenario(200, seed=4), EXP51, reps=3)
        estimator_study(uniform_scenario(60, seed=4), EXP51, reps=2,
                        method=EstimatorMethod.MIXTURE)
        monkeypatch.undo()
        assert ds.ids()[49] == "sim-000049"

    def test_deterministic_for_fixed_seed(self):
        sc = uniform_scenario(100, seed=7)
        a = generate_dataset(sc, EXP51)
        b = generate_dataset(sc, EXP51)
        assert np.array_equal(a.y1, b.y1)
        assert np.array_equal(a.y2, b.y2)

    def test_different_seeds_differ(self):
        a = generate_dataset(uniform_scenario(100, seed=1), EXP51)
        b = generate_dataset(uniform_scenario(100, seed=2), EXP51)
        assert not np.array_equal(a.y1, b.y1)

    def test_vanishing_noise_pins_observations_to_means(self):
        m = VarianceModel(VarianceForm.EXP_LINEAR, (-50.0, 0.0))
        ds = generate_dataset(uniform_scenario(500, seed=3), m)
        assert np.max(np.abs(ds.y1 - ds.y2)) < 1e-8

    def test_standardized_differences_are_standard_normal(self):
        # moment check of the sampler: (y1-y2)/sqrt(2h) ~ N(0,1)
        sc = uniform_scenario(10**6, seed=11)
        ds = generate_dataset(sc, EXP505)
        # recover the latent means' variance through the pair structure is
        # not possible; instead run the check at a single fixed mean
        rng = np.random.default_rng(13)
        mu = 9.0
        h = float(EXP505(mu))
        y1 = rng.normal(mu, np.sqrt(h), 10**6)
        y2 = rng.normal(mu, np.sqrt(h), 10**6)
        z = (y1 - y2) / np.sqrt(2 * h)
        assert abs(np.mean(z)) < 0.004
        assert np.var(z) == pytest.approx(1.0, abs=0.005)
        assert ds.n == 10**6


class TestEstimatorStudy:
    def test_macl_study_structure_and_determinism(self):
        sc = uniform_scenario(200, seed=5)
        a = estimator_study(sc, EXP51, reps=10, method=EstimatorMethod.MACL)
        b = estimator_study(sc, EXP51, reps=10, method=EstimatorMethod.MACL)
        assert a.rows == b.rows
        assert a.replicates == 10
        assert [r["param"] for r in a.rows] == ["theta1", "theta2"]
        assert a.rows[0]["true"] == 5.0
        assert a.failures == 0

    def test_fixed_resample_reuses_means(self):
        pool = tuple(np.linspace(8, 12, 50))
        sc = Scenario(kind=ScenarioKind.FIXED_RESAMPLE, n=100, seed=9,
                      source_means=pool)
        rep = estimator_study(sc, EXP51, reps=5, method=EstimatorMethod.MACL)
        assert rep.replicates == 5

    def test_failures_counted_and_bounded(self, monkeypatch):
        import pairvar.simulate as sim

        calls = {"n": 0}
        real = sim.macl_fit

        def flaky(data, form):
            calls["n"] += 1
            if calls["n"] % 10 == 0:
                raise NumericalError("synthetic failure")
            return real(data, form)

        monkeypatch.setattr(sim, "macl_fit", flaky)
        rep = estimator_study(uniform_scenario(100, seed=2), EXP51, reps=20)
        assert rep.failures == 2

        calls["n"] = 0

        def always_fail(data, form):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(sim, "macl_fit", always_fail)
        with pytest.raises(StudyError):
            estimator_study(uniform_scenario(100, seed=2), EXP51, reps=10)

    def test_failures_counted_by_type(self, monkeypatch):
        import pairvar.simulate as sim

        calls = {"n": 0}
        real = sim.macl_fit

        def flaky(data, form):
            calls["n"] += 1
            if calls["n"] in (3, 9, 15):
                raise ConvergenceError("synthetic non-convergence")
            if calls["n"] == 7:
                raise DomainError("synthetic domain failure")
            return real(data, form)

        monkeypatch.setattr(sim, "macl_fit", flaky)
        rep = estimator_study(uniform_scenario(100, seed=2), EXP51, reps=40)
        assert rep.failures == 4
        assert rep.failure_types == {"ConvergenceError": 3, "DomainError": 1}
        assert estimator_study(uniform_scenario(100, seed=2), EXP51,
                               reps=5).failure_types == {}

    @pytest.mark.slow
    def test_macl_small_variance_consistency_trend(self):
        # bias shrinks with N for the small-variance model
        biases = []
        for n in (200, 2000):
            sc = uniform_scenario(n, seed=31)
            rep = estimator_study(sc, EXP51, reps=60)
            biases.append(abs(rep.rows[0]["bias"]))
        se = 0.9 / np.sqrt(60)
        assert biases[1] <= biases[0] + 2 * se

    @pytest.mark.slow
    def test_macl_large_variance_bias_plateaus(self):
        # the large-variance failure mode does not wash out with sample
        # size: the intercept bias stays pinned near its asymptote
        # (about -1.48 under this scenario) instead of shrinking
        biases = []
        for n in (200, 2000):
            sc = uniform_scenario(n, seed=37)
            rep = estimator_study(sc, EXP505, reps=60)
            biases.append(rep.rows[0]["bias"])
        assert all(b < -1.2 for b in biases)

    @pytest.mark.slow
    def test_mixture_bias_shrinks_with_sample_size(self):
        # the mixture route is consistent where the plug-in fit is not:
        # its intercept bias at N=2000 is no worse than at N=200
        biases = []
        for n, reps in ((200, 16), (2000, 16)):
            sc = uniform_scenario(n, seed=41)
            rep = estimator_study(sc, EXP505, reps=reps,
                                  method=EstimatorMethod.MIXTURE)
            biases.append((abs(rep.rows[0]["bias"]),
                           rep.rows[0]["std"] / np.sqrt(reps)))
        assert biases[1][0] <= biases[0][0] + 2 * (biases[0][1] + biases[1][1])


class TestCoverageStudy:
    def test_exact_pivot_nominal_coverage(self):
        rep = coverage_study(EXP51, EXP51, [10.0], alpha=0.05, reps=20000,
                             methods=["exact"], mode="single", seed=3)
        row = rep.rows[0]
        assert row["coverage"] == pytest.approx(0.95, abs=0.006)

    def test_naive_undercovers_at_small_mean_high_level(self):
        rep = coverage_study(EXP505, EXP505, [7.0], alpha=0.01, reps=20000,
                             methods=["naive"], mode="single", seed=4)
        assert rep.rows[0]["coverage"] < 0.985

    def test_difference_mode_region_conservative(self):
        rep = coverage_study(EXP51, EXP51, [10.0], alpha=0.05, reps=3000,
                             methods=["region", "bonferroni", "naive"],
                             mode="difference", seed=5)
        rows = {r["method"]: r for r in rep.rows}
        se = np.sqrt(0.05 * 0.95 / 3000)
        assert rows["region"]["non_coverage"] <= 0.05 + 3 * se
        assert rows["bonferroni"]["non_coverage"] <= rows["region"]["non_coverage"] + 2 * se
        assert abs(rows["naive"]["non_coverage"] - 0.05) < 5 * se + 0.02

    @pytest.mark.parametrize("model", [
        VarianceModel(VarianceForm.POWER, (3.9, -3.0)),
        VarianceModel(VarianceForm.EXP_LINEAR_CONST, (4.84, -0.927, -6.0)),
        VarianceModel(VarianceForm.EXP_LINEAR, (-8.0, 0.4))],
        ids=["power", "exp-linear-const", "positive-slope"])
    def test_exact_nominal_coverage_under_every_form(self, model):
        # the bracketed set on the bounds holds mu exactly where the pivot
        # at mu is at or under q
        reps = 20000
        rep = coverage_study(model, model, [9.0, 12.0], 0.05, reps,
                             ["exact"], seed=3)
        se = math.sqrt(0.05 * 0.95 / reps)
        for row in rep.rows:
            assert abs(row["coverage"] - 0.95) <= 5 * se

    def test_bounded_exact_equals_the_unbounded_rule(self, monkeypatch):
        # The study's exact decisions, on the draws of the studies
        # benchmark (4 means x 10^5, seeds 1-3), against the unbounded
        # Lambert-W rule they replaced, kept as the oracle: mu <= r1, or
        # l2 <= mu <= r2 where the set is two-sided.
        import pairvar.simulate as sim

        masks, real = [], sim._coverage_row

        def record(mu, method, alpha, covered):
            masks.append(covered)
            return real(mu, method, alpha, covered)

        monkeypatch.setattr(sim, "_coverage_row", record)
        mus, reps, q = [7.5, 9.0, 11.0, 13.0], 10**5, chi2_1_quantile(0.95)
        for seed in (1, 2, 3):
            masks.clear()
            rep = coverage_study(EXP51, EXP51, mus, 0.05, reps, ["exact"],
                                 seed=seed)
            streams = np.random.SeedSequence(seed).spawn(len(mus))
            for mu, ss, row, mask in zip(mus, streams, rep.rows, masks):
                y = np.random.default_rng(ss).normal(
                    mu, math.sqrt(float(EXP51(mu))), reps)
                e = exact_pivot_crossings(y, EXP51, q, -math.inf, math.inf)
                two = ~np.isnan(e[2])
                old = (mu <= e[1]) | (two & (e[2] <= mu) & (mu <= e[3]))
                assert np.array_equal(mask, old)
                assert row["coverage"] == np.mean(old)
            assert len(masks) == len(mus)

    @pytest.mark.parametrize("methods, named", [
        (["region"], "region"), (["bonferroni"], "bonferroni"),
        (["naive", "bonferroni", "region"], "bonferroni")])
    def test_bounded_difference_methods_refuse_a_mean_outside(self, methods,
                                                              named):
        # region and Bonferroni sets live on the bounds, as exact's does
        with pytest.raises(DataError, match=f"{named} coverage needs "
                           r"every mean in the bounds \(7.3, 13.9\); got "
                           "mu = 40.0"):
            coverage_study(EXP51, EXP51, [10.0, 40.0, 5.0], 0.05, 100,
                           methods, mode="difference")

    def test_naive_difference_runs_outside_the_bounds(self):
        rep = coverage_study(EXP51, EXP51, [40.0, 10.0], 0.05, 2000,
                             ["naive"], mode="difference", seed=2)
        assert [r["mu"] for r in rep.rows] == [40.0, 10.0]
        assert all(r["coverage"] > 0.9 for r in rep.rows)

    def test_mode_and_method_validation(self):
        with pytest.raises(ValueError):
            coverage_study(EXP51, EXP51, [10.0], 0.05, 10, ["region"],
                           mode="single")
        with pytest.raises(ValueError):
            coverage_study(EXP51, EXP51, [10.0], 0.05, 10, ["exact"],
                           mode="bogus")


def _full_grid_covers_zero(y1, y2, model, alpha, bounds, grid_res=0.01):
    """Reference: score the form at nu1 = 0 on the whole nu2 grid."""
    a, b = bounds
    q = chi2_2_quantile(1.0 - alpha)
    nu2 = 2.0 * a + grid_res * np.arange(round(2.0 * (b - a) / grid_res) + 1)
    covered = np.zeros(y1.shape, dtype=bool)
    for start in range(0, y1.size, 2000):
        s = slice(start, start + 2000)
        quad = _region_form(y1[s, None], y2[s, None], model, 0.0, nu2)
        covered[s] = (quad <= q).any(axis=1)
    return covered


def _exact_set_covers_zero(y1, y2, model, alpha, bounds):
    """Reference: the pair pivot's exact set on bounds is non-empty."""
    ends = exact_pivot_crossings(y1, model, chi2_2_quantile(1.0 - alpha),
                                 *bounds, y2)
    return ~np.isnan(ends).all(axis=0)


# each takes h at its bounds through the exact-set kernel's bounds rule
_BOUNDED_CONSTRUCTIONS = (
    lambda model, a, b: ci_diff_region(1.0, 1.3, model, 0.05, (a, b)),
    lambda model, a, b: pvalue_conservative(1.0, 1.3, model, (a, b)),
    lambda model, a, b: pvalue_berger_boos(1.0, 1.3, model, (a, b)),
)


REGION_AT_ZERO_MODELS = {
    "negative-slope": (EXP51, (7.3, 13.9)),
    "large-variance": (EXP505, (7.3, 13.9)),
    "flat": (VarianceModel(VarianceForm.EXP_LINEAR, (0.5, 0.0)),
             (7.3, 13.9)),
    "positive-slope": (VarianceModel(VarianceForm.EXP_LINEAR, (-8.0, 0.4)),
                       (7.3, 13.9)),
    "power": (VarianceModel(VarianceForm.POWER, (3.9, -3.0)), (7.3, 13.9)),
    "power-increasing": (VarianceModel(VarianceForm.POWER, (-2.0, 1.5)),
                         (7.3, 13.9)),
    "power-t2-2": (VarianceModel(VarianceForm.POWER, (-3.0, 2.0)),
                   (7.3, 13.9)),
    "exp-linear-const": (VarianceModel(VarianceForm.EXP_LINEAR_CONST,
                                       (4.84, -0.927, -6.0)), (7.3, 13.9)),
}


def _pivot_least_at_a_pairs(model, alpha, a, b, count, seed):
    """Pairs, from exp-linear draws, whose pivot has both stationary points
    in [a, b] and is at or under q at a but over it at b and at both."""
    t2 = model.theta[1]
    q = chi2_2_quantile(1.0 - alpha)
    rng = np.random.default_rng(seed)
    c = rng.uniform(10.9, 11.1, count)
    d = rng.choice([-1.0, 1.0], count) * rng.uniform(3.7, 4.0, count)
    y1, y2 = c + d / 2.0, c - d / 2.0
    c, s = (y1 + y2) / 2.0, (y1 - y2) ** 2 / 2.0

    def pivot(mu):
        return (2.0 * (c - mu) ** 2 + s) / model(mu)

    # 2 t2 x^2 + 4 x + t2 s = 0, x = c - mu
    root = np.sqrt(16.0 - 8.0 * t2 * t2 * s)
    mus = c - np.stack([(-4.0 - root), (-4.0 + root)]) / (4.0 * t2)
    picked = (((a <= mus) & (mus <= b)).all(axis=0) & (pivot(a) <= q)
              & (pivot(b) > q) & (pivot(mus) > q).all(axis=0))
    return y1[picked], y2[picked]


class TestRegionCoversZero:
    """The closed-form test at zero against the exact pair-pivot set and the
    full-grid scan it replaces."""

    @pytest.mark.parametrize("name", sorted(REGION_AT_ZERO_MODELS))
    def test_equals_exact_set_and_holds_the_grid_scan(self, name):
        model, (a, b) = REGION_AT_ZERO_MODELS[name]
        rng = np.random.default_rng(sum(map(ord, name)))
        # null pairs as the coverage study draws them, pairs shifted by up
        # to 4 sd, pairs drawn anywhere in and just outside the bounds, and
        # tied pairs outside the bounds
        mu = rng.uniform(a + 0.1, b, 3000)
        sd = np.sqrt(model(mu))
        out = rng.uniform(0.0, 1.0, 1000)
        ties = np.concatenate([a - out[:500], b + out[500:]])
        y1 = np.concatenate([rng.normal(mu, sd), rng.normal(mu, sd),
                             rng.uniform(a - 0.5, b + 0.5, 1000), ties])
        y2 = np.concatenate([rng.normal(mu, sd),
                             rng.normal(mu + rng.uniform(-4, 4, mu.size) * sd,
                                        sd),
                             rng.uniform(a - 0.5, b + 0.5, 1000), ties])
        for alpha, grid_res in ((0.05, 0.01), (0.2, 0.02), (0.01, 0.005)):
            with np.errstate(all="raise"):
                fast = region_covers_zero(y1, y2, model, alpha, a, b)
                exact = _exact_set_covers_zero(y1, y2, model, alpha, (a, b))
            grid = _full_grid_covers_zero(y1, y2, model, alpha, (a, b),
                                          grid_res)
            assert np.array_equal(fast, exact), alpha
            assert not (grid & ~fast).any(), (alpha, grid_res)
            assert fast.any() and not fast.all()
        # one pair per call decides as in the batch
        alone = [region_covers_zero(y1[i], y2[i], model, 0.05, a, b)[0]
                 for i in range(0, y1.size, 97)]
        assert alone == region_covers_zero(y1[::97], y2[::97], model, 0.05,
                                           a, b).tolist()

    @pytest.mark.parametrize("model", [EXP51, EXP505])
    def test_holds_the_grid_scan_on_the_study_means(self, model):
        # null pairs at the coverage study's means, as it draws them; the
        # 0.01 grid misses a few pairs that cover zero, never the reverse
        flipped = []
        for mu in (7.5, 9.0, 11.0, 13.0):
            rng = np.random.default_rng(int(10 * mu))
            sd = np.sqrt(float(model(mu)))
            y1, y2 = rng.normal(mu, sd, (2, 10_000))
            fast = region_covers_zero(y1, y2, model, 0.05, 7.3, 13.9)
            grid = _full_grid_covers_zero(y1, y2, model, 0.05, (7.3, 13.9))
            exact = _exact_set_covers_zero(y1, y2, model, 0.05, (7.3, 13.9))
            assert np.array_equal(fast, exact), mu
            assert not (grid & ~fast).any(), mu
            flipped.append(int((fast != grid).sum()))
        # measured: [0, 1, 0, 0] at (5, -1), [0, 0, 0, 0] at (5, -0.5)
        print(f"theta {model.theta}: decisions that differ from the 0.01 "
              f"grid at mu = 7.5, 9, 11, 13: {flipped}")

    @pytest.mark.parametrize("model, a, b", [
        (VarianceModel(VarianceForm.POWER, (0.0, -1.0)), 0.0, 3.0),
        (VarianceModel(VarianceForm.POWER, (0.0, -1.0)), -1.0, 3.0),
        (EXP51, 7.3, math.inf),
        (REGION_AT_ZERO_MODELS["exp-linear-const"][0], -math.inf, 13.9),
    ], ids=["power-a-zero", "power-a-negative", "exp-linear-b-inf",
            "exp-linear-const-a-inf"])
    def test_refused_bounds_raise_as_the_kernel(self, model, a, b):
        y1, y2 = np.array([1.0]), np.array([1.3])
        with pytest.raises(DomainError, match="a > 0") as fast:
            region_covers_zero(y1, y2, model, 0.05, a, b)
        # the exact-set kernel refuses the same bounds, with the same words,
        # and so do the region projection and the bounded p-values
        with pytest.raises(DomainError) as exact:
            _exact_set_covers_zero(y1, y2, model, 0.05, (a, b))
        assert str(fast.value) == str(exact.value)
        for refuse in _BOUNDED_CONSTRUCTIONS:
            with pytest.raises(DomainError) as other:
                refuse(model, a, b)
            assert str(other.value) == str(exact.value), refuse

    @pytest.mark.parametrize("model, bounds", [
        (VarianceModel(VarianceForm.EXP_LINEAR, (5.0, -200.0)), (-5.0, 13.9)),
        (VarianceModel(VarianceForm.POWER, (3.9, 300.0)), (7.3, 13.9)),
        (VarianceModel(VarianceForm.EXP_LINEAR_CONST, (1.0, -1.0, 800.0)),
         (7.3, 13.9)),
    ], ids=["exp-linear", "power", "exp-linear-const"])
    def test_variance_not_finite_at_the_bounds_raises(self, model, bounds):
        with pytest.raises(DomainError, match="finite and positive") as fast:
            region_covers_zero(np.array([10.0]), np.array([10.5]), model,
                               0.05, *bounds)
        for refuse in _BOUNDED_CONSTRUCTIONS:
            with pytest.raises(DomainError) as other:
                refuse(model, *bounds)
            assert str(other.value) == str(fast.value), refuse

    @pytest.mark.parametrize("name", sorted(REGION_AT_ZERO_MODELS))
    def test_edge_rows_are_quiet_and_decided(self, name):
        model, (a, b) = REGION_AT_ZERO_MODELS[name]
        tie = np.linspace(a - 1.0, b + 1.0, 67)
        y1 = np.concatenate([[1e300, -1e300, 1e300, -1e300, 1e300, 10.0],
                             tie])
        y2 = np.concatenate([[1e300, -1e300, -1e300, 10.0, 10.0, -1e300],
                             tie])
        with np.errstate(all="raise"):
            fast = region_covers_zero(y1, y2, model, 0.05, a, b)
            exact = _exact_set_covers_zero(y1, y2, model, 0.05, (a, b))
        # far rows cover nothing; a tie in [a, b] covers zero, its pivot
        # being 0 there, and one outside does where the pivot reaches q
        assert not fast[:6].any()
        assert fast[6:][(a <= tie) & (tie <= b)].all()
        assert np.array_equal(fast, exact)

    def test_least_value_at_a_with_both_roots_inside(self):
        # the pivot's least value on [a, b] is at a although both of its
        # stationary points lie inside: leaving out a would lose these rows
        y1, y2 = _pivot_least_at_a_pairs(EXP505, 0.01, 7.3, 13.9, 4000, 1)
        assert y1.size >= 10
        with np.errstate(all="raise"):
            fast = region_covers_zero(y1, y2, EXP505, 0.01, 7.3, 13.9)
        assert fast.all()
        assert _exact_set_covers_zero(y1, y2, EXP505, 0.01, (7.3, 13.9)).all()


class TestPowerStudy:
    def test_null_level_and_power_monotonicity(self):
        rep = power_study(EXP51, mu_grid=[10.0], k_grid=[0.0, 1.0, 3.0],
                          reps=3000, beta=1e-3, seed=6)
        rows = {(r["mu"], r["k"], r["method"]): r["rejection_rate"]
                for r in rep.rows}
        se = np.sqrt(0.05 * 0.95 / 3000)
        for meth in ("conservative", "berger-boos"):
            assert rows[(10.0, 0.0, meth)] <= 0.05 + 3 * se
        for meth in ("naive", "conservative", "berger-boos"):
            assert rows[(10.0, 3.0, meth)] >= rows[(10.0, 1.0, meth)] - 2 * se

    def test_reproducible(self):
        a = power_study(EXP51, [10.0], [0.0], reps=500, seed=8)
        b = power_study(EXP51, [10.0], [0.0], reps=500, seed=8)
        assert a.rows == b.rows


class TestNeymanScott:
    def test_half_bias(self):
        est = neyman_scott_check(4.0, n=10**5, seed=10)
        assert est == pytest.approx(2.0, abs=0.03)


class TestStudyReport:
    def test_csv_shape(self, tmp_path, capsys):
        cfg = tmp_path / "power.cfg"
        cfg.write_text("mu_grid=10\nk_grid=0\nreps=200\nseed=1\n")
        assert main(["simulate", "--study", "power", "--config", str(cfg),
                     "--quiet"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "mu,k,method,rejection_rate"
        assert len(lines) == 1 + 3  # one row per test at one (mu, k)

    def test_proportions_validated(self):
        with pytest.raises(ValueError):
            StudyReport(rows=({"rejection_rate": 1.2},), replicates=1,
                        wall_clock=0.0)
