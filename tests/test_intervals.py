import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar
from scipy.special import lambertw, ndtri, wrightomega

from pairvar.errors import DomainError, NumericalError
from pairvar.intervals import (
    DEFAULT_GRID_RES,
    ConfidenceSet,
    _lambert_w,
    _nu1_accepted,
    _region_form,
    _region_radii,
    _runs,
    chi2_1_quantile,
    chi2_1_sf,
    chi2_2_quantile,
    ci_diff_bonferroni,
    ci_diff_naive,
    ci_diff_region,
    ci_mu_exact,
    ci_mu_naive,
    exact_pivot_crossings,
    normal_quantile,
    ratio_scale,
    bounded_hulls,
)
from pairvar.model import VarianceForm, VarianceModel

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

POOLED = VarianceModel(VarianceForm.EXP_LINEAR, (4.84, -0.927))
BOUNDS = (7.3, 13.9)

TABLE_ROWS = [
    (10.21, 10.78, (0.41, 0.76)),
    (13.62, 11.89, (5.05, 6.36)),
    (11.19, 9.92, (2.66, 5.05)),
    (10.83, 9.80, (2.03, 4.10)),
    (11.45, 13.36, (0.13, 0.17)),
]


class TestQuantiles:
    def test_normal_quantile(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-10)
        assert normal_quantile(0.5) == 0.0

    def test_chi2_quantiles(self):
        # chi-squared(1) quantile is the squared normal quantile
        assert chi2_1_quantile(0.95) == pytest.approx(3.841458820694124, abs=1e-10)
        assert chi2_2_quantile(0.95) == pytest.approx(-2.0 * math.log(0.05), abs=1e-12)

    def test_tail_is_quantile_inverse(self):
        for p in (0.5, 0.9, 0.99, 0.999999):
            assert chi2_1_sf(chi2_1_quantile(p)) == pytest.approx(1 - p, rel=1e-9)

    def test_domain_errors(self):
        for fn in (normal_quantile, chi2_1_quantile, chi2_2_quantile):
            with pytest.raises(DomainError):
                fn(0.0)
            with pytest.raises(DomainError):
                fn(1.0)


class TestExactSet:
    def test_observation_always_covered_prebounding(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            y = float(rng.uniform(5, 15))
            t1 = float(rng.uniform(2, 6))
            t2 = float(rng.uniform(-1.5, -0.2))
            cs = ci_mu_exact(y, VarianceModel(VarianceForm.EXP_LINEAR, (t1, t2)),
                             alpha=float(rng.uniform(0.01, 0.2)))
            assert cs.contains(y)

    def test_two_components_then_bounded_single(self):
        # local max at mu* = y + 2/t2 = 5.84250; pivot there is 8.28045 > 3.84,
        # so the unbounded set splits; bounding to [7.3, 13.9] removes the
        # lower branch (values frozen from 40-digit arithmetic)
        cs = ci_mu_exact(8.0, POOLED, 0.05)
        assert cs.disconnected
        assert cs.components[0][0] == -math.inf
        assert cs.components[0][1] < 5.84250269687163 < cs.components[1][0]
        bounded = ci_mu_exact(8.0, POOLED, 0.05, bounds=BOUNDS)
        assert not bounded.disconnected
        assert bounded.components[0][0] == 7.3

    def test_endpoint_residuals(self):
        q = chi2_1_quantile(0.95)
        for y in (7.3, 9.0, 11.5, 13.9):
            cs = ci_mu_exact(y, POOLED, 0.05)
            for lo, hi in cs.components:
                for e in (lo, hi):
                    if math.isfinite(e):
                        g = (y - e) ** 2 / float(POOLED(e))
                        assert abs(g - q) <= 1e-8

    def test_one_sided_case(self):
        # a large variance at the observation keeps the interior maximum
        # under the quantile: the set is one unbounded interval
        m = VarianceModel(VarianceForm.EXP_LINEAR, (6.0, -0.5))
        cs = ci_mu_exact(10.0, m, 0.05)
        assert not cs.disconnected
        assert cs.components[0][0] == -math.inf
        assert cs.components[0][1] > 10.0

    def test_alpha_validated(self):
        with pytest.raises(DomainError):
            ci_mu_exact(8.0, POOLED, 0.0)
        with pytest.raises(DomainError):
            ci_mu_exact(8.0, POOLED, 1.5)

    def test_grid_fallback_for_positive_slope(self):
        m = VarianceModel(VarianceForm.EXP_LINEAR, (-8.0, 0.4))
        cs = ci_mu_exact(10.0, m, 0.05, bounds=BOUNDS)
        assert cs.approximate
        assert cs.contains(10.0)
        with pytest.raises(DomainError):
            ci_mu_exact(10.0, m, 0.05)  # unbounded grid impossible

    def test_empty_after_bounding_raises(self):
        with pytest.raises(NumericalError):
            ci_mu_exact(20.0, POOLED, 0.05, bounds=(7.3, 8.0))

    def test_vectorized_crossings_match_scalar_sets(self):
        rng = np.random.default_rng(42)
        y = rng.uniform(7.0, 14.0, 200)
        q = chi2_1_quantile(0.95)
        c = exact_pivot_crossings(y, 4.84, -0.927, q)
        for i in range(0, 200, 17):
            cs = ci_mu_exact(float(y[i]), POOLED, 0.05)
            if c.two_sided[i]:
                assert cs.disconnected
                assert cs.components[0][1] == pytest.approx(c.r1[i], abs=1e-9)
                assert cs.components[1] == pytest.approx((c.l2[i], c.r2[i]),
                                                         abs=1e-9)
            else:
                assert not cs.disconnected
                assert cs.components[0][1] == pytest.approx(c.r1[i], abs=1e-9)


def _pivot_value(mu, y, t1, t2):
    with np.errstate(over="ignore"):
        return (y - mu) ** 2 * np.exp(-t1 - t2 * mu)


def _bisect(lo, hi, y, t1, t2, increasing, q):
    """Lockstep vector bisection for g(mu) = q on a monotone branch."""
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        high_side = _pivot_value(mid, y, t1, t2) >= q
        if increasing:
            hi = np.where(high_side, mid, hi)
            lo = np.where(high_side, lo, mid)
        else:
            lo = np.where(high_side, mid, lo)
            hi = np.where(high_side, hi, mid)
    return 0.5 * (lo + hi)


def _bisected_crossings(y, t1, t2, q):
    """Reference inversion: bracket each monotone branch, then bisect.

    Returns (r1, l2, r2, two_sided) as exact_pivot_crossings does.
    """
    q = np.broadcast_to(q, y.shape)
    mu_star = y + 2.0 / t2
    two = 4.0 / t2**2 * np.exp(-(2.0 + t1 + t2 * y)) > q
    # Upper crossing, right of y on the increasing branch.
    step = np.sqrt(q * np.exp(t1 + t2 * y)) + 1.0 / abs(t2)
    hi = y + step
    for _ in range(200):
        need = _pivot_value(hi, y, t1, t2) < q
        if not np.any(need):
            break
        step = np.where(need, 2.0 * step, step)
        hi = np.where(need, y + step, hi)
    upper = _bisect(y.copy(), hi, y, t1, t2, True, q)
    r1 = upper.copy()
    l2 = np.full_like(y, np.nan)
    r2 = np.full_like(y, np.nan)
    idx = np.flatnonzero(two)
    ys, qs, ms = y[idx], q[idx], mu_star[idx]
    # Middle crossing on the decreasing branch (mu_star, y).
    l2[idx] = _bisect(ms.copy(), ys.copy(), ys, t1, t2, False, qs)
    # Left crossing on the increasing branch (-inf, mu_star).
    step = np.full(idx.size, 2.0 / abs(t2))
    lo = ms - step
    for _ in range(200):
        need = _pivot_value(lo, ys, t1, t2) > qs
        if not np.any(need):
            break
        step = np.where(need, 2.0 * step, step)
        lo = np.where(need, ms - step, lo)
    r1[idx] = _bisect(lo, ms.copy(), ys, t1, t2, True, qs)
    r2[idx] = upper[idx]
    return r1, l2, r2, two


# Negative slopes from mild to steep; each keeps the variance at y in
# [7.3, 13.9] large enough that the middle crossing is not within a few
# float spacings of y, where no float mu can put the pivot within 1e-12 of q.
ORACLE_THETAS = [(4.84, -0.927), (5.0, -1.0), (5.0, -0.5), (6.0, -0.5),
                 (4.0, -0.2), (3.0, -0.7)]


def _oracle_draws(seed, count=20000):
    """Observations over the default bounds and per-element quantiles."""
    rng = np.random.default_rng(seed)
    y = rng.uniform(7.3, 13.9, count)
    alpha = rng.uniform(0.001, 0.5, count)
    return y, (ndtri(1.0 - alpha / 2.0)) ** 2


class TestPivotCrossingsOracle:
    """The Lambert-W crossings against the bisection they replace."""

    @pytest.mark.parametrize("theta", ORACLE_THETAS)
    def test_match_bisection(self, theta):
        y, q = _oracle_draws(11)
        c = exact_pivot_crossings(y, *theta, q)
        r1, l2, r2, two = _bisected_crossings(y, *theta, q)
        assert np.array_equal(c.two_sided, two)
        assert two.any() and not two.all()
        # A crossing near zero is the difference of two terms of size |y|,
        # so precision is relative to the larger of |mu| and |y|.
        for new, old, yy in ((c.r1, r1, y), (c.l2[two], l2[two], y[two]),
                             (c.r2[two], r2[two], y[two])):
            scale = np.maximum(np.abs(old), np.abs(yy))
            assert np.all(np.abs(new - old) <= 1e-12 * scale)
        assert np.all(np.isnan(c.l2[~two])) and np.all(np.isnan(c.r2[~two]))

    @pytest.mark.parametrize("theta", ORACLE_THETAS)
    def test_pivot_equals_q_at_every_endpoint(self, theta):
        t1, t2 = theta
        y, q = _oracle_draws(12)
        c = exact_pivot_crossings(y, t1, t2, q)
        two = c.two_sided
        for mu, yy, qq in ((c.r1, y, q), (c.l2[two], y[two], q[two]),
                           (c.r2[two], y[two], q[two])):
            g = (yy - mu) ** 2 * np.exp(-t1 - t2 * mu)
            assert np.all(np.abs(g - qq) <= 1e-12 * qq)

    def test_extreme_intensities_give_finite_crossings(self):
        # exp(t1 + t2*y) overflows at y = -1000 and underflows at y = 1e4;
        # references from 50-digit Lambert W arithmetic
        q = chi2_1_quantile(0.95)
        c = exact_pivot_crossings(np.array([-1000.0, 1e4]), 4.84, -0.927, q)
        assert list(c.two_sided) == [False, True]
        assert c.r1[0] == pytest.approx(-8.212691649520464, rel=1e-12)
        assert c.r1[1] == pytest.approx(-13.201151065065604, rel=1e-12)
        assert c.l2[1] == c.r2[1] == pytest.approx(1e4, rel=1e-15)
        with np.errstate(all="ignore"):  # the bisection overflows here
            r1, _, _, _ = _bisected_crossings(np.array([1e4]), 4.84, -0.927, q)
        assert c.r1[1] == pytest.approx(r1[0], rel=1e-12)

    def test_non_finite_crossing_raises(self):
        for y in (np.nan, np.inf):
            with pytest.raises(NumericalError):
                exact_pivot_crossings(np.array([10.0, y]), 4.84, -0.927, 3.84)


def _scipy_w(L, k, sign):
    """The complex-valued scipy path _lambert_w replaced, kept as its oracle:
    wrightomega for W_0(e^L), lambertw at -e^L otherwise, and for W_{-1}
    three Newton steps on x + log(-x) = L where e^L is below the normal
    range."""
    L = np.asarray(L, dtype=float)
    with np.errstate(all="ignore"):
        if sign > 0:
            return wrightomega(L)
        w = lambertw(-np.exp(L), k).real
        if k == -1:
            tiny = L < math.log(np.finfo(float).tiny)
            x = L[tiny] - np.log(-L[tiny])
            for _ in range(3):
                x -= (x + np.log(-x) - L[tiny]) / (1.0 + 1.0 / x)
            w[tiny] = x
    return w


def _log_args(thetas, y, q):
    """L = log(-t2/2) + (log q + t1 + t2 y)/2 of every theta and draw."""
    return np.concatenate([math.log(-t2 / 2.0) + 0.5 * (np.log(q) + t1 + t2 * y)
                           for t1, t2 in thetas])


BRANCHES = [(0, 1.0), (0, -1.0), (-1, -1.0)]
# Relative difference allowed from the oracle, in units of the condition
# number max(1, 1/|1 + W|): near the branch point W = -1 a rounding of L
# moves W by about that much. The largest measured are 1.4e-15 on the
# oracle draws and 3.3e-15 at L = -33, where 40-digit arithmetic puts
# wrightomega 3.4e-15 from W_0(e^L) and the kernel 5e-17.
W_BOUND = 4e-15


def _assert_w_close(new, old):
    cond = np.maximum(1.0, 1.0 / np.abs(1.0 + old))
    rel = np.abs(new - old) / np.abs(old)
    assert np.all(rel <= W_BOUND * cond), float(np.max(rel / cond))


class TestLambertW:
    """The real log-space kernel against the scipy path it replaced."""

    @pytest.mark.parametrize("k, sign", BRANCHES)
    def test_matches_scipy_on_oracle_draws(self, k, sign):
        y, q = _oracle_draws(11)
        L = _log_args(ORACLE_THETAS, y, q)
        if sign < 0:
            L = L[L < -1.0]  # the two-sided rows
        assert L.size > 9 * 10**4
        _assert_w_close(_lambert_w(L, k, sign), _scipy_w(L, k, sign))

    @pytest.mark.parametrize("k, sign", BRANCHES[1:])
    def test_branch_point(self, k, sign):
        delta = np.geomspace(1e-15, 1e-2, 400)
        L = -1.0 - delta
        new = _lambert_w(L, k, sign)
        # scipy's k = -1 branch loses up to 8e-5 relative within 1e-8 of the
        # branch point, so there the branch-point series is the oracle; its
        # first omitted term is below 1e-20 in p <= 1.5e-4
        p = np.sqrt(-2.0 * np.expm1(L + 1.0))
        s = 1.0 if k == 0 else -1.0
        series = -1.0 + s * p * (1.0 + s * p * (-1.0 / 3.0 + s * p * (
            11.0 / 72.0 - s * p * 43.0 / 540.0)))
        near = delta < 1e-8
        _assert_w_close(new[near], series[near])
        _assert_w_close(new[~near], _scipy_w(L[~near], k, sign))
        # at the branch point, and above it where no real root exists
        assert np.all(_lambert_w(np.array([-1.0, -0.5, 3.0]), k, sign) == -1.0)

    @pytest.mark.parametrize("k, sign", BRANCHES)
    def test_below_the_normal_range(self, k, sign):
        # e^L underflows: the principal branches are +-e^L itself, and
        # W_{-1} comes from the oracle's Newton steps
        L = np.linspace(-800.0, math.log(np.finfo(float).tiny), 500)
        new, old = _lambert_w(L, k, sign), _scipy_w(L, k, sign)
        if k == 0:
            assert np.array_equal(new, old)
        else:
            _assert_w_close(new, old)

    @pytest.mark.parametrize("k, sign", BRANCHES)
    def test_far_from_the_branch_point(self, k, sign):
        L = (np.concatenate([np.linspace(-40.0, 700.0, 2000), [4.6e4, 1e5]])
             if sign > 0 else
             np.concatenate([np.linspace(-700.0, -1.01, 2000), [-1e4, -1e5]]))
        new, old = _lambert_w(L, k, sign), _scipy_w(L, k, sign)
        live = old != 0.0  # W_0(-e^L) underflows from about L = -745
        assert np.all(np.isfinite(new)) and live.sum() > 1900
        _assert_w_close(new[live], old[live])

    def test_exact_coverage_decisions(self):
        # Coverage of the exact set, (-inf, r1] U [l2, r2], from today's
        # crossings and from the scipy crossings. A decision may differ only
        # where mu lies between the two values of a crossing.
        y, q = _oracle_draws(11)
        mu = np.random.default_rng(13).uniform(7.3, 13.9, y.size)
        differ = near = 0
        for t1, t2 in ORACLE_THETAS:
            c = exact_pivot_crossings(y, t1, t2, q)
            L = _log_args([(t1, t2)], y, q)
            two = c.two_sided
            old_r1 = y - 2.0 / t2 * _scipy_w(L, 0, 1.0)
            old_r2 = old_r1.copy()
            old_r1[two] = y[two] - 2.0 / t2 * _scipy_w(L[two], -1, -1.0)
            old_l2 = np.full_like(y, np.nan)
            old_l2[two] = y[two] - 2.0 / t2 * _scipy_w(L[two], 0, -1.0)
            new_cov = (mu <= c.r1) | (two & (c.l2 <= mu) & (mu <= c.r2))
            old_cov = (mu <= old_r1) | (two & (old_l2 <= mu) & (mu <= old_r2))
            between = np.zeros_like(two)
            for new, old in ((c.r1, old_r1), (c.l2, old_l2), (c.r2, old_r2)):
                with np.errstate(invalid="ignore"):
                    between |= ((np.minimum(new, old) <= mu)
                                & (mu <= np.maximum(new, old)))
                rows = slice(None) if new is c.r1 else two
                scale = np.maximum(np.abs(old), np.abs(y))[rows]
                assert np.all(np.abs(new - old)[rows] <= 1e-13 * scale)
            assert np.all(between[new_cov != old_cov])
            differ += int(np.sum(new_cov != old_cov))
            near += int(np.sum(between))
        # on these 1.2e5 draws no decision differs, and no mean falls
        # between two values of a crossing
        assert differ == near == 0


class TestEdgeInputs:
    """Extreme intensities and tight bounds: finite crossings or a
    NumericalError, never a floating-point warning or a silent NaN."""

    Y = np.array([-1e5, -1e3, -50.0, 0.0, 7.3, 10.0, 13.9, 50.0, 1e3, 1e5])

    @pytest.mark.parametrize("theta", [(4.84, -0.927), (5.0, -0.5),
                                       (40.0, -3.0), (-30.0, -0.01)])
    @pytest.mark.parametrize("alpha", [1e-12, 0.05, 0.999])
    def test_crossings_and_hulls(self, theta, alpha):
        model = VarianceModel(VarianceForm.EXP_LINEAR, theta)
        q = chi2_1_quantile(1.0 - alpha)
        with np.errstate(all="raise"):
            c = exact_pivot_crossings(self.Y, *theta, q)
            for a, b in [(7.3, 13.9), (10.0, 10.0 + 1e-9), (-1e5, 1e5)]:
                lo, hi, parts = bounded_hulls(self.Y, model, alpha, a, b)
                empty = parts == 0
                assert np.all(np.isfinite(lo[~empty]))
                assert np.all(np.isfinite(hi[~empty]))
                assert np.all((a <= lo[~empty]) & (lo[~empty] <= hi[~empty])
                              & (hi[~empty] <= b))
        two = c.two_sided
        assert np.all(np.isfinite(c.r1))
        assert np.all(np.isfinite(c.l2[two]) & np.isfinite(c.r2[two]))
        assert np.all(np.isnan(c.l2[~two]) & np.isnan(c.r2[~two]))

    def test_non_finite_observation_raises(self):
        with np.errstate(all="raise"):
            for y in (np.nan, np.inf, -np.inf):
                with pytest.raises(NumericalError):
                    exact_pivot_crossings(np.array([10.0, y]), 4.84, -0.927,
                                          3.84)
                with pytest.raises(NumericalError):
                    bounded_hulls(np.array([10.0, y]), POOLED, 0.05, 7.3, 13.9)


class TestNaiveSingle:
    def test_unit_variance(self):
        m = VarianceModel(VarianceForm.EXP_LINEAR, (0.0, 0.0))
        lo, hi = ci_mu_naive(3.0, m, 0.05)
        assert lo == pytest.approx(3.0 - 1.959963984540054, abs=1e-9)
        assert hi == pytest.approx(3.0 + 1.959963984540054, abs=1e-9)

    def test_width_shrinks_to_zero(self):
        widths = [ci_mu_naive(10.21, POOLED, a)[1] - ci_mu_naive(10.21, POOLED, a)[0]
                  for a in (0.05, 0.5, 0.99, 0.9999)]
        assert all(w1 > w2 for w1, w2 in zip(widths, widths[1:]))
        assert widths[-1] < 1e-3

    def test_frozen_example(self):
        lo, hi = ci_mu_naive(10.21, POOLED, 0.05)
        half = (hi - lo) / 2
        assert half == pytest.approx(0.19409473736935317, rel=1e-10)


class TestDifferenceRegion:
    def test_table_rows_with_reference_protocol(self):
        # the reference endpoints correspond to a 0.01-step scan reported at
        # the accepted grid extremes; all five rows then match to 2 decimals
        for y1, y2, ref in TABLE_ROWS:
            cs = ci_diff_region(y1, y2, POOLED, 0.05, BOUNDS, grid_res=0.01,
                                refine_boundaries=False)
            lo, hi = ratio_scale(cs.hull)
            assert abs(lo - ref[0]) <= 0.01
            assert abs(hi - ref[1]) <= 0.01

    def test_refined_boundary_contains_grid_extremes(self):
        raw = ci_diff_region(10.21, 10.78, POOLED, 0.05, BOUNDS, 0.01,
                             refine_boundaries=False)
        ref = ci_diff_region(10.21, 10.78, POOLED, 0.05, BOUNDS, 0.01)
        assert ref.hull[0] <= raw.hull[0]
        assert ref.hull[1] >= raw.hull[1]
        assert ref.hull[0] == pytest.approx(raw.hull[0], abs=0.01)
        assert ref.hull[1] == pytest.approx(raw.hull[1], abs=0.01)

    def test_swap_negates_the_set(self):
        a = ci_diff_region(10.21, 10.78, POOLED, 0.05, BOUNDS, 0.01)
        b = ci_diff_region(10.78, 10.21, POOLED, 0.05, BOUNDS, 0.01)
        assert a.hull[0] == pytest.approx(-b.hull[1], abs=1e-6)
        assert a.hull[1] == pytest.approx(-b.hull[0], abs=1e-6)

    def test_grid_refinement_stability(self):
        coarse = ci_diff_region(10.21, 10.78, POOLED, 0.05, BOUNDS, 0.02,
                                refine_boundaries=False)
        fine = ci_diff_region(10.21, 10.78, POOLED, 0.05, BOUNDS, 0.01,
                              refine_boundaries=False)
        assert abs(coarse.hull[0] - fine.hull[0]) < 2 * 0.02
        assert abs(coarse.hull[1] - fine.hull[1]) < 2 * 0.02

    def test_joint_region_is_exact_at_true_parameters(self):
        # the quadratic form at the true (difference, sum) is chi-squared
        # with 2 df, so the region covers the truth at exactly its level
        rng = np.random.default_rng(99)
        n = 10**5
        mu1, mu2 = 9.0, 10.5
        y1 = rng.normal(mu1, np.sqrt(float(POOLED(mu1))), n)
        y2 = rng.normal(mu2, np.sqrt(float(POOLED(mu2))), n)
        quad = _region_form(y1, y2, POOLED, mu1 - mu2, mu1 + mu2)
        coverage = np.mean(quad <= chi2_2_quantile(0.95))
        assert coverage == pytest.approx(0.95, abs=0.006)

    def test_steep_variance_ratio_gives_the_whole_range(self):
        # h(mu1)/h(mu2) reaches e^42.9 > 2^53 here, where the correlated
        # form's 1 - rho^2 rounds to 0; the two-term form at nu1 = +-6.6 is
        # 3.3, under q = 5.99, so every difference is accepted
        steep = VarianceModel(VarianceForm.EXP_LINEAR, (-45.0, 6.5))
        cs = ci_diff_region(7.5, 13.5, steep, 0.05, BOUNDS)
        assert len(cs.components) == 1
        assert cs.hull == pytest.approx((-6.6, 6.6), abs=1e-12)

    @pytest.mark.parametrize("theta, y1, y2, hull", [
        ((-40.0, 5.5), 7.5, 13.5, (-6.6, 6.306924588605)),
        ((4.84, -0.927), 13.93, 11.0, (2.78388863110854, 3.0301505983744947)),
    ])
    def test_ends_on_the_projection_boundary(self, theta, y1, y2, hull):
        # the ends found by brentq on the bounded minimum of the two-term
        # form over nu2 (the bounds included); the minimum sits on the
        # mu1 = b edge, which the scan's grid must hold at the default
        # grid_res
        model = VarianceModel(VarianceForm.EXP_LINEAR, theta)
        a, b = BOUNDS
        q = chi2_2_quantile(0.95)

        def excess(nu1):
            ends = (2.0 * a + abs(nu1), 2.0 * b - abs(nu1))
            form = lambda nu2: _region_form(y1, y2, model, nu1, nu2)
            res = minimize_scalar(form, bounds=ends, method="bounded",
                                  options={"xatol": 1e-13})
            return min(res.fun, *map(form, ends)) - q

        cs = ci_diff_region(y1, y2, model, 0.05, BOUNDS)
        assert len(cs.components) == 1
        for end in cs.hull:
            if abs(end) < b - a - 1e-9:
                root = brentq(excess, end - 0.01, end + 0.01, xtol=1e-14)
                assert end == pytest.approx(root, abs=1e-8)
        assert cs.hull == pytest.approx(hull, abs=1e-8)

    def test_validation(self):
        with pytest.raises(DomainError):
            ci_diff_region(10.0, 10.5, POOLED, 0.05, BOUNDS, grid_res=0.0)
        with pytest.raises(DomainError):
            ci_diff_region(10.0, 10.5, POOLED, 0.05, (7.3, math.inf))


def _dense_min_quad(y1, y2, model, nu1, a, b, grid_res):
    """Smallest form over the whole nu2 grid at nu1, golden-section polished."""
    lo = 2.0 * a + abs(nu1)
    hi = 2.0 * b - abs(nu1)
    if hi < lo:
        return math.inf
    n = max(int(math.ceil((hi - lo) / grid_res)) + 1, 2)
    nu2 = np.linspace(lo, hi, n)
    quad = _region_form(y1, y2, model, nu1, nu2)
    k = int(np.argmin(quad))
    best = float(quad[k])
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    left = nu2[max(k - 1, 0)]
    right = nu2[min(k + 1, n - 1)]
    c = right - golden * (right - left)
    d = left + golden * (right - left)
    for _ in range(60):
        qc = float(_region_form(y1, y2, model, nu1, c))
        qd = float(_region_form(y1, y2, model, nu1, d))
        if qc <= qd:
            right, d = d, c
            c = right - golden * (right - left)
        else:
            left, c = c, d
            d = left + golden * (right - left)
    mid = 0.5 * (left + right)
    return min(best, float(_region_form(y1, y2, model, nu1, mid)))


def _dense_region(y1, y2, model, alpha, bounds, grid_res=0.005,
                  refine_boundaries=True):
    """Reference region projection: the whole parallelogram, every nu2."""
    a, b = bounds
    q = chi2_2_quantile(1.0 - alpha)
    span = b - a
    n1 = int(round(2.0 * span / grid_res)) + 1
    nu1_grid = np.linspace(-span, span, n1)
    nu2 = 2.0 * a + grid_res * np.arange(n1)[None, :]
    accepted = np.zeros(n1, dtype=bool)
    for start in range(0, n1, 256):
        nu1 = nu1_grid[start:start + 256, None]
        lo = 2.0 * a + np.abs(nu1)
        hi = 2.0 * b - np.abs(nu1)
        quad = np.where((nu2 >= lo - 1e-12) & (nu2 <= hi + 1e-12),
                        _region_form(y1, y2, model, nu1, nu2), np.inf)
        accepted[start:start + 256] = (quad <= q).any(axis=1)
    runs = _runs(accepted)
    if not runs:
        raise NumericalError("projected confidence set is empty")

    def refine(inside, outside):
        for _ in range(60):
            mid = 0.5 * (inside + outside)
            if _dense_min_quad(y1, y2, model, mid, a, b, grid_res) <= q:
                inside = mid
            else:
                outside = mid
            if abs(inside - outside) < 1e-10:
                break
        return inside

    comps = []
    for i, j in runs:
        lo, hi = nu1_grid[i], nu1_grid[j]
        if refine_boundaries:
            if i > 0:
                lo = refine(lo, nu1_grid[i - 1])
            if j < n1 - 1:
                hi = refine(hi, nu1_grid[j + 1])
        comps.append((lo, hi))
    return ConfidenceSet.from_components(comps, 1.0 - alpha)


def _full_recursion_radii(y1, y2, model, q, a, b, grid_res):
    """_region_radii as it was: h at both ends of each interval, and the
    radius followed until it stops shrinking (at most 100 rounds)."""
    ys = np.stack(np.broadcast_arrays(np.atleast_1d(y1).astype(float),
                                      np.atleast_1d(y2).astype(float)))
    r = np.full(ys.shape[1], math.sqrt(2.0 * q * float(model(
        np.array([a, b])).max())))
    live = np.arange(ys.shape[1])
    for _ in range(100):
        y, r_live = ys[:, live], r[live]
        h = model(np.clip(np.stack([y - r_live, y + r_live]), a, b))
        r_next = np.sqrt(q * h.max(axis=0).sum(axis=0))
        shrinks = r_next < r_live
        live = live[shrinks]
        if live.size == 0:
            break
        r[live] = r_next[shrinks]
    return r * (1.0 + 1e-9) + 2.0 * grid_res


WINDOW_MODELS = {
    "pooled": POOLED,
    "large-variance": VarianceModel(VarianceForm.EXP_LINEAR, (5.0, -0.5)),
    "positive-slope": VarianceModel(VarianceForm.EXP_LINEAR, (-8.0, 0.4)),
    "power": VarianceModel(VarianceForm.POWER, (3.9, -3.0)),
    "exp-linear-const": VarianceModel(VarianceForm.EXP_LINEAR_CONST,
                                      (4.84, -0.927, -6.0)),
}


def _window_pairs(seed, count):
    """Seeded pairs: free draws, tied pairs, and pairs within 0.05 of a or b."""
    rng = np.random.default_rng(seed)
    a, b = BOUNDS
    pairs = [tuple(rng.uniform(a, b, 2)) for _ in range(count)]
    tie = float(rng.uniform(a, b))
    pairs.append((tie, tie))
    pairs.append((a + float(rng.uniform(0.0, 0.05)), float(rng.uniform(a, b))))
    pairs.append((float(rng.uniform(a, b)), b - float(rng.uniform(0.0, 0.05))))
    pairs.append((a + 0.02, b - 0.03))
    return pairs


class TestRegionWindow:
    """The windowed region projection against the dense scan it replaces."""

    @pytest.mark.parametrize("name", sorted(WINDOW_MODELS))
    def test_components_equal_dense_oracle(self, name):
        model = WINDOW_MODELS[name]
        for k, (y1, y2) in enumerate(_window_pairs(sum(map(ord, name)), 3)):
            refine = k % 3 != 2
            fast = ci_diff_region(y1, y2, model, 0.05, BOUNDS, 0.01, refine)
            slow = _dense_region(y1, y2, model, 0.05, BOUNDS, 0.01, refine)
            assert fast.components == slow.components, (y1, y2, refine)

    @pytest.mark.parametrize("name", ["pooled", "large-variance"])
    def test_default_grid_equals_dense_oracle(self, name):
        model = WINDOW_MODELS[name]
        for y1, y2 in [(10.21, 10.78), (11.19, 9.92), (9.0, 9.0)]:
            fast = ci_diff_region(y1, y2, model, 0.05, BOUNDS)
            slow = _dense_region(y1, y2, model, 0.05, BOUNDS)
            assert fast.components == slow.components, (y1, y2)

    def test_unbounded_variance_scans_everything(self):
        # the power form is infinite at mu = 0, so no window applies
        model = VarianceModel(VarianceForm.POWER, (0.0, -1.0))
        assert _region_radii(1.0, 1.3, model, 6.0, 0.0, 3.0, 0.01)[0] == math.inf
        with np.errstate(divide="ignore"):
            fast = ci_diff_region(1.0, 1.3, model, 0.05, (0.0, 3.0), 0.01)
            slow = _dense_region(1.0, 1.3, model, 0.05, (0.0, 3.0), 0.01)
        assert fast.components == slow.components

    @pytest.mark.parametrize("name", sorted(WINDOW_MODELS))
    def test_window_holds_every_accepted_grid_point(self, name):
        model = WINDOW_MODELS[name]
        a, b = BOUNDS
        q = chi2_2_quantile(0.95)
        nu1 = np.arange(-(b - a), b - a, 0.02)[:, None]
        nu2 = np.arange(2.0 * a, 2.0 * b, 0.02)[None, :]
        inside = (np.abs(nu1) <= np.minimum(nu2 - 2.0 * a, 2.0 * b - nu2))
        for y1, y2 in _window_pairs(sum(map(ord, name)) + 1, 6):
            radius = _region_radii(y1, y2, model, q, a, b, 0.0)[0]
            assert math.isfinite(radius)
            quad = _region_form(y1, y2, model, nu1, nu2)
            hit = inside & (quad <= q)
            d1 = np.abs(np.broadcast_to(nu1, hit.shape)[hit] - (y1 - y2))
            d2 = np.abs(np.broadcast_to(nu2, hit.shape)[hit] - (y1 + y2))
            assert np.all(d1 <= radius) and np.all(d2 <= radius), (y1, y2)

    @pytest.mark.parametrize("name", sorted(WINDOW_MODELS))
    def test_form_at_least_each_residual_square(self, name):
        # Engel's form of Cauchy-Schwarz: d1^2/h1 + d2^2/h2 is at least
        # (d1 -+ d2)^2 / (h1 + h2), the square of each standardized residual
        model = WINDOW_MODELS[name]
        rng = np.random.default_rng(7)
        y1, y2 = rng.uniform(7.3, 13.9, (2, 5000))
        mu1, mu2 = rng.uniform(7.3, 13.9, (2, 5000))
        root = np.sqrt(model(mu1) + model(mu2))
        gd = (y1 - y2 - (mu1 - mu2)) / root
        gs = (y1 + y2 - (mu1 + mu2)) / root
        quad = _region_form(y1, y2, model, mu1 - mu2, mu1 + mu2)
        floor = np.maximum(gd * gd, gs * gs)
        assert np.all(quad >= floor * (1.0 - 1e-12))

    @pytest.mark.parametrize("name", sorted(WINDOW_MODELS))
    def test_early_stop_never_undercuts_the_full_recursion(self, name):
        # every iterate of the recursion bounds the accepted points, so the
        # early-stopped radius is never below the recursion's limit
        model = WINDOW_MODELS[name]
        a, b = BOUNDS
        q = chi2_2_quantile(0.95)
        y1, y2 = np.array(_window_pairs(sum(map(ord, name)) + 2, 300)).T
        limit = _region_radii(y1, y2, model, q, a, b, 0.0)
        for grid_res in (0.005, 0.01, 0.02):
            r = _region_radii(y1, y2, model, q, a, b, grid_res)
            full = _full_recursion_radii(y1, y2, model, q, a, b, grid_res)
            assert np.all(r >= limit + 2.0 * grid_res)
            assert np.all(r >= full)
        assert np.array_equal(limit, _full_recursion_radii(y1, y2, model, q,
                                                           a, b, 0.0))

    def test_pair_outside_the_bounds_still_raises(self):
        for y1, y2 in [(20.0, 20.5), (2.0, 1.5)]:
            with pytest.raises(NumericalError):
                ci_diff_region(y1, y2, POOLED, 0.05, BOUNDS, 0.01)
            with pytest.raises(NumericalError):
                _dense_region(y1, y2, POOLED, 0.05, BOUNDS, 0.01)


def _nu1_accepted_121(y1, y2, model, nu1, q, a, b, grid_res, nu2_lo, nu2_hi,
                     log=None):
    """The boundary decision as it was before the polish carried its
    surviving point: 121 form evaluations per polish, on numpy scalars.

    Returns the decision and its form evaluations; appends
    (polished, window calls, whole-grid calls) to log when one is given.
    """
    calls = {"window": 0, "polish": 0, "grid": 0}

    def done(accepted):
        if log is not None:
            log.append((calls["polish"] > 0, calls["window"], calls["grid"]))
        return accepted, sum(calls.values())

    lo = 2.0 * a + abs(nu1)
    hi = 2.0 * b - abs(nu1)
    if hi < lo:
        return done(False)
    n = max(int(math.ceil((hi - lo) / grid_res)) + 1, 2)
    nu2 = np.linspace(lo, hi, n)
    start = int(np.searchsorted(nu2, nu2_lo, "left"))
    stop = int(np.searchsorted(nu2, nu2_hi, "right"))
    if start == stop:
        return done(False)
    calls["window"] += 1
    quad = _region_form(y1, y2, model, nu1, nu2[start:stop])
    k = start + int(np.argmin(quad))
    best = float(quad[k - start])
    if best <= q:
        return done(True)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    left = nu2[max(k - 1, 0)]
    right = nu2[min(k + 1, n - 1)]
    c = right - golden * (right - left)
    d = left + golden * (right - left)
    for _ in range(60):
        qc = float(_region_form(y1, y2, model, nu1, c))
        qd = float(_region_form(y1, y2, model, nu1, d))
        calls["polish"] += 2
        if qc <= qd:
            right, d = d, c
            c = right - golden * (right - left)
        else:
            left, c = c, d
            d = left + golden * (right - left)
    mid = 0.5 * (left + right)
    calls["polish"] += 1
    if not min(best, float(_region_form(y1, y2, model, nu1, mid))) <= q:
        return done(False)
    calls["grid"] += 1
    quad = _region_form(y1, y2, model, nu1, nu2)
    return done(int(np.argmin(quad)) == k)


def _boundary_points(y1, y2, model, rng, count):
    """count nu1 floats: half spread over the square's width, half within
    1e-9 of the refined boundaries."""
    a, b = BOUNDS
    q = chi2_2_quantile(0.95)
    radius = float(_region_radii(y1, y2, model, q, a, b, DEFAULT_GRID_RES)[0])
    ends = [e for c in ci_diff_region(y1, y2, model, 0.05, BOUNDS).components
            for e in c if abs(e) < b - a]
    spread = rng.uniform(y1 - y2 - radius, y1 - y2 + radius, count // 2)
    near = (rng.choice(ends, count - spread.size)
            + rng.uniform(-1e-9, 1e-9, count - spread.size))
    return (q, a, b, y1 + y2 - radius, y1 + y2 + radius,
            np.concatenate([spread, near]).tolist())


class TestBoundaryPolish:
    """The boundary decision that carries the golden-section point it keeps,
    on Python floats, against the 121-evaluation one it replaces."""

    @pytest.mark.parametrize("name", sorted(WINDOW_MODELS))
    def test_decisions_equal_oracle(self, name):
        model = WINDOW_MODELS[name]
        rng = np.random.default_rng(sum(map(ord, name)) + 11)
        checked = polished = accepted = 0
        for y1, y2 in _window_pairs(sum(map(ord, name)) + 2, 1)[:4]:
            q, a, b, lo, hi, points = _boundary_points(y1, y2, model, rng, 520)
            for nu1 in points:
                args = (y1, y2, model, nu1, q, a, b, DEFAULT_GRID_RES, lo, hi)
                fast, spent = _nu1_accepted(*args)
                slow, slow_spent = _nu1_accepted_121(*args)
                assert fast == slow, (y1, y2, nu1)
                assert spent == slow_spent - 59 * (slow_spent > 1)
                checked += 1
                polished += spent > 1
                accepted += fast
        assert checked >= 2000
        assert polished >= 100 and 0 < accepted < checked

    def test_counts_match_oracle(self, monkeypatch):
        fast = ci_diff_region(10.21, 10.78, POOLED, 0.05, BOUNDS)
        log = []
        monkeypatch.setattr(
            "pairvar.intervals._nu1_accepted",
            lambda *args: _nu1_accepted_121(*args, log=log))
        slow = ci_diff_region(10.21, 10.78, POOLED, 0.05, BOUNDS)
        assert fast.components == slow.components
        polishes = sum(p for p, _, _ in log)
        calls = sum(w + g for _, w, g in log)
        assert polishes > 0
        assert fast.diagnostics == {"decisions": len(log),
                                    "polishes": polishes,
                                    "evaluations": 62 * polishes + calls}

    def test_numpy_scalar_inputs_give_the_same_set(self):
        for name, model in sorted(WINDOW_MODELS.items()):
            for y1, y2 in _window_pairs(sum(map(ord, name)) + 3, 1)[:3]:
                floats = ci_diff_region(y1, y2, model, 0.05, BOUNDS, 0.01)
                scalars = ci_diff_region(np.float64(y1), np.float64(y2),
                                         model, 0.05, BOUNDS, 0.01)
                assert floats.components == scalars.components, (name, y1)
                assert floats.diagnostics == scalars.diagnostics

    def test_diagnostics_take_no_part_in_equality(self):
        cs = ci_diff_region(10.21, 10.78, POOLED, 0.05, BOUNDS, 0.01)
        bare = ConfidenceSet.from_components(cs.components, cs.level)
        assert cs.diagnostics["decisions"] > 0 and bare.diagnostics == {}
        assert cs == bare and hash(cs) == hash(bare)

    def test_float_form_matches_array_form(self):
        rng = np.random.default_rng(5)
        y1, y2 = rng.uniform(7.3, 13.9, (2, 2000))
        nu1 = rng.uniform(-6.6, 6.6, 2000)
        nu2 = rng.uniform(14.6, 27.8, 2000)
        for name, model in sorted(WINDOW_MODELS.items()):
            arrays = _region_form(y1, y2, model, nu1, nu2)
            floats = np.array([_region_form(*map(float, p), model, u, v)
                               for p, u, v in zip(zip(y1, y2), nu1.tolist(),
                                                  nu2.tolist())])
            assert np.array_equal(arrays.view(np.int64),
                                  floats.view(np.int64)), name

    def test_float_division_by_zero_follows_numpy(self):
        # h(mu2) underflows to 0 for the first point, both h for the second,
        # where y1 = mu1. numpy scalars give inf and nan there, not an error.
        steep = VarianceModel(VarianceForm.EXP_LINEAR, (0.0, -12.0))
        for args in [(10.0, 71.0, -60.0, 80.0), (80.5, 81.0, 0.0, 161.0)]:
            with np.errstate(all="ignore"):
                want = _region_form(*map(np.float64, args[:2]), steep,
                                    *map(np.float64, args[2:]))
                got = _region_form(*args[:2], steep, *args[2:])
            assert type(got) is np.float64
            assert np.array_equal(got, want, equal_nan=True)


def _correlated_form(y1, y2, model, nu1, nu2):
    """The region's form as it was written before: the standardized
    residuals gd, gs of the difference and the sum, their correlation rho,
    and (gd^2 - 2 rho gd gs + gs^2) / (1 - rho^2)."""
    h1, h2 = model((nu2 + nu1) / 2.0), model((nu2 - nu1) / 2.0)
    root = np.sqrt(h1 + h2)
    gd = (y1 - y2 - nu1) / root
    gs = (y1 + y2 - nu2) / root
    rho = (h1 - h2) / (h1 + h2)
    return (gd * gd - 2.0 * rho * gd * gs + gs * gs) / (1.0 - rho * rho)


class TestRegionForm:
    def test_equals_the_correlated_form(self):
        # where h(mu1)/h(mu2) is in [1e-4, 1e4]. The oracle subtracts terms
        # up to 1/(1 - |rho|) ~ 5e3 times its result there; measured on 10^6
        # draws under (-45, 6.5) it is 1.5e-12 off at most, hence 2e-12
        steep = [VarianceModel(VarianceForm.EXP_LINEAR, t)
                 for t in ((-40.0, 5.5), (-45.0, 6.5), (0.0, -12.0))]
        rng = np.random.default_rng(3)
        for model in list(WINDOW_MODELS.values()) + steep:
            y1, y2, mu1, mu2 = rng.uniform(7.3, 13.9, (4, 20000))
            ratio = model(mu1) / model(mu2)
            keep = (ratio >= 1e-4) & (ratio <= 1e4)
            with np.errstate(divide="ignore", invalid="ignore"):
                want = _correlated_form(y1, y2, model, mu1 - mu2, mu1 + mu2)
            got = _region_form(y1, y2, model, mu1 - mu2, mu1 + mu2)
            assert keep.sum() > 4000
            np.testing.assert_allclose(got[keep], want[keep], rtol=2e-12,
                                       atol=0.0)


class TestDifferenceBonferroni:
    def test_symmetric_for_equal_observations(self):
        lo, hi = ci_diff_bonferroni(10.0, 10.0, POOLED, 0.05, BOUNDS)
        assert lo == pytest.approx(-hi, abs=1e-9)

    def test_degenerate_bounds_pin_difference_to_zero(self):
        lo, hi = ci_diff_bonferroni(7.3, 7.3, POOLED, 0.05, (7.3, 7.3))
        assert (lo, hi) == (0.0, 0.0)

    def test_contains_region_hull_on_table_row(self):
        region = ci_diff_region(10.21, 10.78, POOLED, 0.05, BOUNDS, 0.01)
        bon = ci_diff_bonferroni(10.21, 10.78, POOLED, 0.05, BOUNDS)
        assert bon[0] <= region.hull[0]
        assert bon[1] >= region.hull[1]


class TestDifferenceNaive:
    def test_table_values(self):
        # frozen from 40-digit arithmetic of y1-y2 +- z*sqrt(h(y1)+h(y2))
        lo, hi = ratio_scale(ci_diff_naive(10.21, 10.78, POOLED, 0.05))
        assert lo == pytest.approx(0.44276781053475137, rel=1e-9)
        assert hi == pytest.approx(0.72231768933257256, rel=1e-9)
        lo, hi = ratio_scale(ci_diff_naive(11.45, 13.36, POOLED, 0.05))
        assert lo == pytest.approx(0.13157476667107482, rel=1e-9)
        assert hi == pytest.approx(0.16665658202593787, rel=1e-9)

    def test_equal_pair_contains_unity_ratio(self):
        lo, hi = ratio_scale(ci_diff_naive(10.0, 10.0, POOLED, 0.05))
        assert lo < 1.0 < hi
        assert math.log(lo) == pytest.approx(-math.log(hi), abs=1e-12)


class TestNaiveDomain:
    """Plug-in intervals need h finite and positive at the observations."""

    @pytest.mark.parametrize("theta, y", [
        ((1.0, -1.5), -0.5),   # h is nan
        ((1.0, -1.0), -0.5),   # h is negative
        ((1.0, -1.0), 0.0),    # h is infinite
        ((0.0, 2.0), 0.0),     # h is zero
    ])
    def test_power_form_outside_its_domain_raises(self, theta, y):
        m = VarianceModel(VarianceForm.POWER, theta)
        with pytest.raises(DomainError, match="finite and positive"):
            ci_mu_naive(y, m, 0.5)
        with pytest.raises(DomainError, match="finite and positive"):
            ci_diff_naive(y, 1.0, m, 0.5)
        with pytest.raises(DomainError, match="finite and positive"):
            ci_diff_naive(1.0, y, m, 0.5)

    def test_power_form_inside_its_domain(self):
        m = VarianceModel(VarianceForm.POWER, (1.0, -1.5))
        z = float(ndtri(0.75))
        lo, hi = ci_mu_naive(2.0, m, 0.5)
        assert (hi - lo) / 2 == pytest.approx(z * math.sqrt(math.e * 2.0 ** -1.5),
                                              rel=1e-12)


class TestBoundedHulls:
    def test_matches_scalar_construction(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(7.5, 13.5, 100)
        lo, hi, parts = bounded_hulls(y, POOLED, 0.05, *BOUNDS)
        assert not np.any(parts == 0)
        for i in range(0, 100, 9):
            cs = ci_mu_exact(float(y[i]), POOLED, 0.05, bounds=BOUNDS)
            assert cs.hull[0] == pytest.approx(lo[i], abs=1e-9)
            assert cs.hull[1] == pytest.approx(hi[i], abs=1e-9)

    def test_empty_detection(self):
        _, _, parts = bounded_hulls(np.array([25.0]), POOLED, 1e-6, 7.3, 8.0)
        assert parts[0] == 0

    @pytest.mark.parametrize("name", ["positive-slope", "power",
                                      "exp-linear-const"])
    def test_other_forms_equal_scalar_hull(self, name):
        # grid inversion, row-chunked: more rows than one chunk, some empty
        model = WINDOW_MODELS[name]
        rng = np.random.default_rng(sum(map(ord, name)))
        y = np.concatenate([rng.uniform(6.5, 14.5, 150), [2.0, 25.0]])
        lo, hi, parts = bounded_hulls(y, model, 0.05, *BOUNDS)
        empty = parts == 0
        assert empty[-2:].all() and (~empty[:150]).any()
        for i in range(y.size):
            try:
                hull = ci_mu_exact(float(y[i]), model, 0.05, BOUNDS).hull
            except NumericalError:
                assert empty[i]
                continue
            assert not empty[i]
            assert (lo[i], hi[i]) == hull


    @pytest.mark.parametrize("name", sorted(WINDOW_MODELS))
    @pytest.mark.parametrize("bounds", [BOUNDS, (0.5, 20.0)])
    def test_counts_equal_scalar_components(self, name, bounds):
        # exact and grid paths; at (0.5, 20) about half the sets of every
        # form but the positive slope are disconnected
        model = WINDOW_MODELS[name]
        rng = np.random.default_rng(sum(map(ord, name)))
        y = np.concatenate([rng.uniform(0.5, 20.0, 120), [-5.0, 40.0]])
        lo, hi, parts = bounded_hulls(y, model, 0.05, *bounds)
        for i in range(y.size):
            try:
                cs = ci_mu_exact(float(y[i]), model, 0.05, bounds)
            except NumericalError:
                assert parts[i] == 0
                continue
            assert parts[i] == len(cs.components)
            assert (lo[i], hi[i]) == cs.hull
        assert (parts == 0).any() and (parts == 1).any()
        if bounds != BOUNDS and name != "positive-slope":
            assert (parts == 2).any()


class TestArrayArguments:
    """The plug-in and Bonferroni intervals take arrays; each element equals
    the call on its floats, which still returns floats."""

    @pytest.mark.parametrize("name", sorted(WINDOW_MODELS))
    def test_elementwise_equals_scalar_calls(self, name):
        model = WINDOW_MODELS[name]
        rng = np.random.default_rng(sum(map(ord, name)) + 7)
        y1 = rng.uniform(7.5, 13.5, 50)
        y2 = y1 + rng.normal(0.0, 0.4, 50)
        calls = {
            "mu": (lambda a, b: ci_mu_naive(a, model, 0.05)),
            "diff": (lambda a, b: ci_diff_naive(a, b, model, 0.05)),
            "bonferroni": (lambda a, b: ci_diff_bonferroni(a, b, model, 0.05,
                                                           BOUNDS)),
        }
        for what, call in calls.items():
            lo, hi = call(y1, y2)
            assert lo.shape == hi.shape == y1.shape, what
            for i, (a, b) in enumerate(zip(y1.tolist(), y2.tolist())):
                scalar = call(a, b)
                assert all(type(v) is float for v in scalar), what
                assert scalar == (lo[i], hi[i]), what

    def test_bonferroni_raises_if_any_set_is_empty(self):
        with pytest.raises(NumericalError):
            ci_diff_bonferroni(np.array([10.0, 25.0]), np.array([10.2, 25.1]),
                               POOLED, 0.05, BOUNDS)


class TestConfidenceSetType:
    def test_components_must_be_disjoint_sorted(self):
        with pytest.raises(ValueError):
            ConfidenceSet(components=((0.0, 2.0), (1.0, 3.0)), hull=(0.0, 3.0),
                          disconnected=True, level=0.95)

    def test_hull_and_flag(self):
        cs = ConfidenceSet.from_components([(3.0, 4.0), (0.0, 1.0)], 0.95)
        assert cs.components == ((0.0, 1.0), (3.0, 4.0))
        assert cs.hull == (0.0, 4.0)
        assert cs.disconnected
