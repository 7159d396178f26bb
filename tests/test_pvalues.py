import numpy as np
import pytest

from pairvar.errors import DomainError
from pairvar.model import VarianceForm, VarianceModel
from pairvar.pvalues import (
    TestMethod,
    TestResult,
    batch_pvalues,
    pvalue_berger_boos,
    pvalue_conservative,
    pvalue_naive,
)

POOLED = VarianceModel(VarianceForm.EXP_LINEAR, (4.84, -0.927))
BOUNDS = (7.3, 13.9)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestNaive:
    def test_equal_pair(self):
        r = pvalue_naive(10.0, 10.0, POOLED)
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_frozen_example(self):
        # frozen from 40-digit arithmetic of the plug-in statistic and tail
        r = pvalue_naive(10.21, 10.78, POOLED)
        assert r.statistic == pytest.approx(21.573807931410579, rel=1e-10)
        assert r.p_value == pytest.approx(3.4046980667966223e-06, rel=1e-9)
        assert r.mu_sup == pytest.approx(10.495)

    def test_monotone_in_gap_at_fixed_sum(self):
        total = 21.0
        gaps = [0.1, 0.3, 0.5, 1.0, 2.0]
        ps = []
        for g in gaps:
            r = pvalue_naive((total + g) / 2, (total - g) / 2, POOLED)
            ps.append(r.p_value)
        assert all(a > b for a, b in zip(ps, ps[1:]))


class TestConservative:
    def test_equal_pair(self):
        assert pvalue_conservative(9.0, 9.0, POOLED, BOUNDS).p_value == 1.0

    def test_supremum_at_lower_bound_for_negative_slope(self):
        r = pvalue_conservative(10.21, 10.78, POOLED, BOUNDS)
        assert r.mu_sup == BOUNDS[0]
        # cross-check against a dense grid search
        from pairvar.intervals import chi2_1_sf
        grid = np.linspace(*BOUNDS, 5000)
        tails = chi2_1_sf((10.21 - 10.78) ** 2 / (2 * POOLED(grid)))
        assert r.p_value == pytest.approx(float(np.max(tails)), rel=1e-12)

    def test_dominates_naive_when_mean_above_lower_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y1, y2 = rng.uniform(7.3, 13.9, 2)
            pn = pvalue_naive(y1, y2, POOLED).p_value
            pc = pvalue_conservative(y1, y2, POOLED, BOUNDS).p_value
            assert pc >= pn - 1e-12

    def test_general_form_grid_search(self):
        m = VarianceModel(VarianceForm.EXP_LINEAR_CONST, (4.84, -0.927, -6.0))
        r = pvalue_conservative(10.21, 10.78, m, BOUNDS)
        grid = np.linspace(*BOUNDS, 20000)
        from pairvar.intervals import chi2_1_sf
        tails = chi2_1_sf((10.21 - 10.78) ** 2 / (2 * m(grid)))
        assert r.p_value >= float(np.max(tails)) - 1e-9


class TestBergerBoos:
    def test_equal_pair_capped_at_one(self):
        r = pvalue_berger_boos(10.0, 10.0, POOLED, BOUNDS, beta=1e-6)
        assert r.p_value == 1.0

    def test_exceeds_beta_by_construction(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            y1, y2 = rng.uniform(7.0, 14.0, 2)
            r = pvalue_berger_boos(y1, y2, POOLED, BOUNDS, beta=1e-3)
            assert r.p_value >= 1e-3

    def test_bounded_by_conservative_plus_beta(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            y1, y2 = rng.uniform(7.3, 13.9, 2)
            bb = pvalue_berger_boos(y1, y2, POOLED, BOUNDS, beta=1e-3).p_value
            cons = pvalue_conservative(y1, y2, POOLED, BOUNDS).p_value
            assert bb <= cons + 1e-3 + 1e-12

    def test_symmetric_in_observations(self):
        for y1, y2 in [(10.21, 10.78), (8.0, 12.0), (13.0, 9.5)]:
            a = pvalue_berger_boos(y1, y2, POOLED, BOUNDS, beta=1e-6).p_value
            b = pvalue_berger_boos(y2, y1, POOLED, BOUNDS, beta=1e-6).p_value
            assert a == pytest.approx(b, rel=1e-12)

    def test_degenerate_confidence_set_returns_beta(self, caplog):
        # pair mean far above the allowed range: the nuisance set misses it
        with caplog.at_level("WARNING"):
            r = pvalue_berger_boos(20.0, 20.2, POOLED, BOUNDS, beta=1e-6)
        assert r.degenerate
        assert r.p_value == 1e-6

    def test_pair_pivot_variant_same_order_of_magnitude(self):
        # the two-observation pivot gives a different (also valid) nuisance
        # set; the resulting p-values agree only roughly
        a = pvalue_berger_boos(10.21, 10.78, POOLED, BOUNDS, 1e-6, "mean")
        b = pvalue_berger_boos(10.21, 10.78, POOLED, BOUNDS, 1e-6, "pair")
        assert a.p_value / 10 < b.p_value < a.p_value * 10
        assert b.p_value >= 1e-6

    def test_beta_validated(self):
        with pytest.raises(DomainError):
            pvalue_berger_boos(10.0, 10.5, POOLED, BOUNDS, beta=0.0)
        with pytest.raises(ValueError):
            pvalue_berger_boos(10.0, 10.5, POOLED, BOUNDS, beta=1e-3,
                               cbeta_pivot="bogus")


class TestSwapInvariance:
    def test_all_methods(self):
        for y1, y2 in [(9.0, 11.0), (12.5, 8.1)]:
            assert pvalue_naive(y1, y2, POOLED).p_value == pytest.approx(
                pvalue_naive(y2, y1, POOLED).p_value, rel=1e-12)
            assert pvalue_conservative(y1, y2, POOLED, BOUNDS).p_value == \
                pytest.approx(pvalue_conservative(y2, y1, POOLED, BOUNDS).p_value,
                              rel=1e-12)


class TestBatchConsistency:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        y1 = rng.uniform(7.5, 13.5, 60)
        y2 = y1 + rng.normal(0, 0.3, 60)
        scalars = {
            TestMethod.NAIVE: [pvalue_naive(a, b, POOLED).p_value
                               for a, b in zip(y1, y2)],
            TestMethod.CONSERVATIVE: [
                pvalue_conservative(a, b, POOLED, BOUNDS).p_value
                for a, b in zip(y1, y2)],
            TestMethod.BERGER_BOOS: [
                pvalue_berger_boos(a, b, POOLED, BOUNDS, 1e-3).p_value
                for a, b in zip(y1, y2)],
        }
        for method, ref in scalars.items():
            batch = batch_pvalues(y1, y2, POOLED, method, BOUNDS, 1e-3)
            assert np.allclose(batch, ref, rtol=1e-10, atol=1e-12)


class TestResultType:
    def test_p_value_range_enforced(self):
        with pytest.raises(ValueError):
            TestResult(p_value=1.5, method=TestMethod.NAIVE)


@pytest.mark.slow
class TestNullValidity:
    def test_valid_methods_hold_level_under_null(self):
        model = VarianceModel(VarianceForm.EXP_LINEAR, (5.0, -1.0))
        rng = np.random.default_rng(17)
        n = 10**5
        se = np.sqrt(0.05 * 0.95 / n)
        for mu in (8.0, 10.0, 12.0):
            sd = np.sqrt(float(model(mu)))
            y1 = rng.normal(mu, sd, n)
            y2 = rng.normal(mu, sd, n)
            for method in (TestMethod.CONSERVATIVE, TestMethod.BERGER_BOOS):
                p = batch_pvalues(y1, y2, model, method, BOUNDS, 1e-3)
                assert np.mean(p <= 0.05) <= 0.05 + 3 * se
