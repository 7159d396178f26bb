from dataclasses import dataclass

import numpy as np
import pytest

from pairvar.errors import ConvergenceError, DomainError, NumericalError, StudyError
from pairvar.intervals import _region_form, _region_scan, chi2_2_quantile
from pairvar.model import PairedDataset, VarianceForm, VarianceModel
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

    @pytest.mark.parametrize("fit", [
        VarianceModel(VarianceForm.POWER, (3.9, -3.0)),
        VarianceModel(VarianceForm.EXP_LINEAR_CONST, (4.84, -0.927, -6.0)),
        VarianceModel(VarianceForm.EXP_LINEAR, (-8.0, 0.4))])
    def test_exact_needs_exp_linear_negative_slope(self, fit):
        with pytest.raises(DomainError):
            coverage_study(EXP51, fit, [9.0], 0.05, 100, ["exact", "naive"])

    def test_mode_and_method_validation(self):
        with pytest.raises(ValueError):
            coverage_study(EXP51, EXP51, [10.0], 0.05, 10, ["region"],
                           mode="single")
        with pytest.raises(ValueError):
            coverage_study(EXP51, EXP51, [10.0], 0.05, 10, ["exact"],
                           mode="bogus")


def _region_covers_zero(y1, y2, model, alpha, bounds, grid_res=0.01):
    """The difference-mode coverage study's region decision."""
    q = chi2_2_quantile(1.0 - alpha)
    return _region_scan(y1, y2, model, q, 0.0, *bounds, grid_res)[0]


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


REGION_AT_ZERO_MODELS = {
    "negative-slope": (EXP51, (7.3, 13.9)),
    "large-variance": (EXP505, (7.3, 13.9)),
    "positive-slope": (VarianceModel(VarianceForm.EXP_LINEAR, (-8.0, 0.4)),
                       (7.3, 13.9)),
    "power": (VarianceModel(VarianceForm.POWER, (3.9, -3.0)), (7.3, 13.9)),
    "exp-linear-const": (VarianceModel(VarianceForm.EXP_LINEAR_CONST,
                                       (4.84, -0.927, -6.0)), (7.3, 13.9)),
    "power-a-zero": (VarianceModel(VarianceForm.POWER, (0.0, -1.0)),
                     (0.0, 3.0)),
}


class TestRegionCoversZero:
    """The windowed test at zero against the full-grid scan it replaces."""

    @pytest.mark.parametrize("name", sorted(REGION_AT_ZERO_MODELS))
    def test_equals_full_grid_scan(self, name):
        model, (a, b) = REGION_AT_ZERO_MODELS[name]
        rng = np.random.default_rng(sum(map(ord, name)))
        # null pairs as the coverage study draws them, pairs shifted by up
        # to 4 sd, pairs drawn anywhere in and just outside the bounds, and
        # tied pairs outside the bounds, whose nearest grid points lie near
        # the edge of their window
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
        # the power form with a = 0 divides by zero at the grid's first point
        level = "ignore" if a <= 0 else "warn"
        for alpha, grid_res in ((0.05, 0.01), (0.2, 0.02), (0.01, 0.005)):
            with np.errstate(divide=level, invalid=level):
                fast = _region_covers_zero(y1, y2, model, alpha, (a, b),
                                           grid_res)
                slow = _full_grid_covers_zero(y1, y2, model, alpha, (a, b),
                                              grid_res)
            assert np.array_equal(fast, slow), (alpha, grid_res)
            # with h infinite at mu = 0 every pair covers zero
            assert fast.any() and (name == "power-a-zero" or not fast.all())
        # one pair per call scores exactly its own window
        with np.errstate(divide=level, invalid=level):
            alone = [_region_covers_zero(ties[i:i + 1], ties[i:i + 1], model,
                                         0.05, (a, b))[0]
                     for i in range(0, ties.size, 4)]
            slow = _full_grid_covers_zero(ties[::4], ties[::4], model, 0.05,
                                          (a, b))
        assert np.array_equal(alone, slow)


    @pytest.mark.parametrize("model", [EXP51, EXP505])
    def test_equals_full_grid_scan_on_the_study_means(self, model):
        # null pairs at the coverage study's means, as it draws them
        for mu in (7.5, 9.0, 11.0, 13.0):
            rng = np.random.default_rng(int(10 * mu))
            sd = np.sqrt(float(model(mu)))
            y1, y2 = rng.normal(mu, sd, (2, 10_000))
            fast = _region_covers_zero(y1, y2, model, 0.05, (7.3, 13.9))
            slow = _full_grid_covers_zero(y1, y2, model, 0.05, (7.3, 13.9))
            assert np.array_equal(fast, slow), mu


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
    def test_csv_shape(self):
        rep = power_study(EXP51, [10.0], [0.0], reps=200, seed=1)
        csv = rep.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "mu,k,method,rejection_rate"
        assert len(lines) == 1 + len(rep.rows)

    def test_proportions_validated(self):
        with pytest.raises(ValueError):
            StudyReport(study="power", rows=({"rejection_rate": 1.2},),
                        replicates=1, seed=0, wall_clock=0.0)
