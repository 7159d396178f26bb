import math

import numpy as np
import pytest
from scipy.optimize import brentq

from pairvar.errors import DomainError, NumericalError
from pairvar.intervals import chi2_1_sf, ci_mu_exact
from pairvar.model import VarianceForm, VarianceModel
from pairvar.pvalues import (
    TestMethod,
    TestResult,
    batch_pvalues,
    pvalue_berger_boos,
    pvalue_conservative,
    pvalue_kernel,
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
        assert len(caplog.records) == 1

    def test_degenerate_pairs_logged_once_per_call_with_count(self, caplog):
        y1 = np.array([20.0, 10.0, 25.0, 3.0])
        with caplog.at_level("WARNING"):
            p, mu, degenerate, stat = pvalue_kernel(
                y1, y1 + 0.2, POOLED, TestMethod.BERGER_BOOS, BOUNDS, 1e-6)
        assert degenerate.tolist() == [True, False, True, True]
        assert np.isnan(mu[degenerate]).all() and stat is None
        assert (p[degenerate] == 1e-6).all()
        record, = caplog.records
        assert "3 of 4 pairs" in record.getMessage()
        caplog.clear()
        with caplog.at_level("WARNING"):
            pvalue_kernel(y1[1:2], y1[1:2], POOLED, TestMethod.BERGER_BOOS,
                          BOUNDS, 1e-6)
        assert not caplog.records

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


# The supremum search and confidence-set hulls that the closed-form kernel
# replaced, kept as the oracle: a 1000-point grid plus golden-section polish
# for forms other than exp-linear, scalar pivot inversion for the nuisance
# set on the mean pivot, and on the pair pivot the 20001-point grid the
# bracketed kernel replaced, its outer ends refined by brentq unless
# refine is False.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _oracle_tail(y1, y2, model, mu):
    return chi2_1_sf((y1 - y2) ** 2 / (2.0 * model(mu)))


def _oracle_sup_tail(y1, y2, model, lo, hi):
    if model.form is VarianceForm.EXP_LINEAR:
        mu = lo if model.theta[1] <= 0 else hi
        return float(_oracle_tail(y1, y2, model, mu)), mu
    grid = np.linspace(lo, hi, 1000)
    k = int(np.argmax(_oracle_tail(y1, y2, model, grid)))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, grid.size - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    for _ in range(80):
        if _oracle_tail(y1, y2, model, c) >= _oracle_tail(y1, y2, model, d):
            b, d = d, c
            c = b - _GOLDEN * (b - a)
        else:
            a, c = c, d
            d = a + _GOLDEN * (b - a)
    mu = 0.5 * (a + b)
    return float(_oracle_tail(y1, y2, model, mu)), float(mu)


def _oracle(y1, y2, model, method, beta=None, refine=True):
    """(p, mu_sup, degenerate, sup tail) as the scalar search computed them."""
    if method == "naive":
        ybar = (y1 + y2) / 2.0
        p = float(chi2_1_sf((y1 - y2) ** 2 / (2.0 * float(model(ybar)))))
        return p, ybar, False, p
    if method == "conservative":
        sup, mu = _oracle_sup_tail(y1, y2, model, *BOUNDS)
        return sup, mu, False, sup
    try:
        if method == "mean":
            lo, hi = ci_mu_exact((y1 + y2) / 2.0, model.scaled(0.5), beta,
                                 BOUNDS).hull
        else:
            def excess(mu):
                return (((y1 - mu) ** 2 + (y2 - mu) ** 2) / model(mu)
                        + 2.0 * math.log(beta))
            grid = np.linspace(*BOUNDS, 20001)
            idx = np.flatnonzero(excess(grid) <= 0.0)
            if not idx.size:
                raise NumericalError("pair-pivot set misses the bounds")
            (i, j), last = idx[[0, -1]], grid.size - 1
            lo = (brentq(excess, grid[i - 1], grid[i], xtol=1e-14)
                  if refine and i > 0 else float(grid[i]))
            hi = (brentq(excess, grid[j], grid[j + 1], xtol=1e-14)
                  if refine and j < last else float(grid[j]))
    except NumericalError:
        return beta, None, True, 0.0
    sup, mu = _oracle_sup_tail(y1, y2, model, lo, hi)
    return min(1.0, sup + beta), mu, False, sup


ORACLE_MODELS = {
    "negative-slope": POOLED,
    "large-variance": VarianceModel(VarianceForm.EXP_LINEAR, (5.0, -0.5)),
    "zero-slope": VarianceModel(VarianceForm.EXP_LINEAR, (-3.0, 0.0)),
    "positive-slope": VarianceModel(VarianceForm.EXP_LINEAR, (-8.0, 0.4)),
    "power": VarianceModel(VarianceForm.POWER, (3.9, -3.0)),
    "power-increasing": VarianceModel(VarianceForm.POWER, (-6.0, 2.0)),
    "exp-linear-const": VarianceModel(VarianceForm.EXP_LINEAR_CONST,
                                      (4.84, -0.927, -6.0)),
}


def _oracle_pairs(model, seed, count=40):
    """Seeded pairs: null and shifted draws, ties, and means off the bounds."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(6.8, 14.4, count)
    sd = np.sqrt(model(mu))
    y1 = rng.normal(mu, sd)
    y2 = rng.normal(mu + rng.choice([0.0, 0.0, 1.0, 4.0], count) * sd, sd)
    y1 = np.concatenate([y1, [9.0, 12.0, 2.0, 25.0, 25.3]])
    y2 = np.concatenate([y2, [9.0, 12.0, 2.4, 25.0, 24.9]])
    return y1, y2


def _scalar(method, y1, y2, model, beta):
    if method == "naive":
        return pvalue_naive(y1, y2, model)
    if method == "conservative":
        return pvalue_conservative(y1, y2, model, BOUNDS)
    return pvalue_berger_boos(y1, y2, model, BOUNDS, beta, method)


class TestClosedFormSupremumOracle:
    """The one kernel, scalar and batch, against the search it replaced."""

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    @pytest.mark.parametrize("method", ["naive", "conservative", "mean",
                                        "pair"])
    def test_matches_scalar_search(self, name, method):
        # the pair pivot's hull is the bracketed kernel's against brentq's:
        # its p-values match to 1e-9, and are no lower than the grid's
        model = ORACLE_MODELS[name]
        closed_form = (model.form is VarianceForm.EXP_LINEAR
                       and method != "pair")
        beta = None if method in ("naive", "conservative") else 1e-3
        y1, y2 = _oracle_pairs(model, sum(map(ord, name + method)))
        batch_method = {"naive": TestMethod.NAIVE,
                        "conservative": TestMethod.CONSERVATIVE,
                        "mean": TestMethod.BERGER_BOOS}.get(method)
        batch = (batch_pvalues(y1, y2, model, batch_method, BOUNDS, beta)
                 if batch_method else None)
        degenerate = 0
        for i, (a, b) in enumerate(zip(y1, y2)):
            p_ref, mu_ref, deg_ref, tail_ref = _oracle(a, b, model, method,
                                                       beta)
            r = _scalar(method, a, b, model, beta)
            for p in (r.p_value,) if batch is None else (r.p_value, batch[i]):
                if closed_form:
                    assert abs(p - p_ref) <= 1e-14 * p_ref, (a, b)
                else:
                    assert p == pytest.approx(p_ref, rel=1e-9), (a, b)
                    assert p >= (_oracle(a, b, model, method, beta, False)[0]
                                 if method == "pair" else p_ref * (1 - 1e-14))
            assert r.degenerate == deg_ref, (a, b)
            degenerate += deg_ref
            if deg_ref:
                assert r.mu_sup is None
            elif method == "naive" or (tail_ref > 0 and a != b):
                assert abs(r.mu_sup - mu_ref) <= 1e-9, (a, b)
            else:  # a flat tail (a tie, or 0 throughout): any mean attains it
                assert BOUNDS[0] <= r.mu_sup <= BOUNDS[1]
        if method in ("mean", "pair"):
            assert degenerate >= 2


EDGE_POWER = VarianceModel(VarianceForm.POWER, (0.0, -1.0))


class TestVarianceEdges:
    """h must be finite and positive where each test evaluates it."""

    @pytest.mark.parametrize("bounds", [(-1.0, 3.0), (0.0, 3.0)])
    def test_power_form_bounds_reaching_zero(self, bounds):
        with pytest.raises(DomainError):
            pvalue_conservative(1.0, 1.3, EDGE_POWER, bounds)
        for pivot in ("mean", "pair"):
            with pytest.raises(DomainError):
                pvalue_berger_boos(1.0, 1.3, EDGE_POWER, bounds, 1e-3, pivot)
        for method in (TestMethod.CONSERVATIVE, TestMethod.BERGER_BOOS):
            with pytest.raises(DomainError):
                batch_pvalues(np.array([1.0, 2.0]), np.array([1.3, 2.2]),
                              EDGE_POWER, method, bounds)

    @pytest.mark.parametrize("y1, y2", [(-1.0, 0.5), (-0.5, 0.5)])
    def test_power_form_nonpositive_pair_mean(self, y1, y2):
        with pytest.raises(DomainError):
            pvalue_naive(y1, y2, EDGE_POWER)
        with pytest.raises(DomainError):
            batch_pvalues(np.array([1.0, y1]), np.array([1.2, y2]),
                          EDGE_POWER, TestMethod.NAIVE, (0.5, 3.0))

    def test_overflowing_variance_at_a_bound(self):
        with pytest.raises(DomainError):
            pvalue_conservative(10.0, 10.5, POOLED, (-1000.0, 13.9))
        with pytest.raises(DomainError):
            pvalue_berger_boos(10.0, 10.5, POOLED, (-1000.0, 13.9))

    def test_positive_bounds_still_work(self):
        r = pvalue_conservative(1.0, 1.3, EDGE_POWER, (0.5, 3.0))
        assert r.mu_sup == 0.5
        assert r.p_value == pytest.approx(
            float(chi2_1_sf(0.3 ** 2 / (2.0 * EDGE_POWER(0.5)))), rel=1e-14)
