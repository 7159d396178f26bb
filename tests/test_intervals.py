import math

import numpy as np
import pytest
from scipy.special import ndtri

from pairvar.errors import DomainError, NumericalError
from pairvar.intervals import (
    ConfidenceSet,
    _quad_form,
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
    difference_pivot,
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

    def test_rho_zero_at_equal_means(self):
        dp = difference_pivot(10.0, 11.0, POOLED, 0.0, 20.0)
        assert dp.rho == 0.0
        assert dp.g_quad >= 0.0

    def test_rho_formula(self):
        dp = difference_pivot(10.0, 11.0, POOLED, 1.0, 21.0)
        h1 = float(POOLED(11.0))
        h2 = float(POOLED(10.0))
        assert dp.rho == pytest.approx((h1 - h2) / (h1 + h2), rel=1e-12)

    def test_joint_region_is_exact_at_true_parameters(self):
        # the quadratic form at the true (difference, sum) is chi-squared
        # with 2 df, so the region covers the truth at exactly its level
        rng = np.random.default_rng(99)
        n = 10**5
        mu1, mu2 = 9.0, 10.5
        y1 = rng.normal(mu1, np.sqrt(float(POOLED(mu1))), n)
        y2 = rng.normal(mu2, np.sqrt(float(POOLED(mu2))), n)
        from pairvar.intervals import _quad_form
        _, _, _, quad = _quad_form(y1, y2, POOLED, mu1 - mu2, mu1 + mu2)
        coverage = np.mean(quad <= chi2_2_quantile(0.95))
        assert coverage == pytest.approx(0.95, abs=0.006)

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
    with np.errstate(invalid="ignore"):
        _, _, _, quad = _quad_form(y1, y2, model, nu1, nu2)
    k = int(np.argmin(quad))
    best = float(quad[k])
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    left = nu2[max(k - 1, 0)]
    right = nu2[min(k + 1, n - 1)]
    c = right - golden * (right - left)
    d = left + golden * (right - left)
    for _ in range(60):
        qc = float(_quad_form(y1, y2, model, nu1, c)[3])
        qd = float(_quad_form(y1, y2, model, nu1, d)[3])
        if qc <= qd:
            right, d = d, c
            c = right - golden * (right - left)
        else:
            left, c = c, d
            d = left + golden * (right - left)
    mid = 0.5 * (left + right)
    return min(best, float(_quad_form(y1, y2, model, nu1, mid)[3]))


def _dense_region(y1, y2, model, alpha, bounds, grid_res=0.005,
                  refine_boundaries=True):
    """Reference region projection: the whole parallelogram, every nu2."""
    a, b = bounds
    q = chi2_2_quantile(1.0 - alpha)
    span = b - a
    n1 = int(round(2.0 * span / grid_res)) + 1
    nu1_grid = np.linspace(-span, span, n1)
    nu2 = np.arange(2.0 * a, 2.0 * b + grid_res / 2.0, grid_res)[None, :]
    accepted = np.zeros(n1, dtype=bool)
    with np.errstate(invalid="ignore"):
        for start in range(0, n1, 256):
            nu1 = nu1_grid[start:start + 256, None]
            lo = 2.0 * a + np.abs(nu1)
            hi = 2.0 * b - np.abs(nu1)
            _, _, _, quad = _quad_form(y1, y2, model, nu1, nu2)
            quad = np.where((nu2 >= lo - 1e-12) & (nu2 <= hi + 1e-12),
                            quad, np.inf)
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
            _, _, _, quad = _quad_form(y1, y2, model, nu1, nu2)
            hit = inside & (quad <= q)
            d1 = np.abs(np.broadcast_to(nu1, hit.shape)[hit] - (y1 - y2))
            d2 = np.abs(np.broadcast_to(nu2, hit.shape)[hit] - (y1 + y2))
            assert np.all(d1 <= radius) and np.all(d2 <= radius), (y1, y2)

    @pytest.mark.parametrize("name", sorted(WINDOW_MODELS))
    def test_form_at_least_each_residual_square(self, name):
        model = WINDOW_MODELS[name]
        rng = np.random.default_rng(7)
        y1, y2 = rng.uniform(7.3, 13.9, (2, 5000))
        mu1, mu2 = rng.uniform(7.3, 13.9, (2, 5000))
        gd, gs, _, quad = _quad_form(y1, y2, model, mu1 - mu2, mu1 + mu2)
        floor = np.maximum(gd * gd, gs * gs)
        assert np.all(quad >= floor * (1.0 - 1e-12))

    def test_pair_outside_the_bounds_still_raises(self):
        for y1, y2 in [(20.0, 20.5), (2.0, 1.5)]:
            with pytest.raises(NumericalError):
                ci_diff_region(y1, y2, POOLED, 0.05, BOUNDS, 0.01)
            with pytest.raises(NumericalError):
                _dense_region(y1, y2, POOLED, 0.05, BOUNDS, 0.01)


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


class TestBoundedHulls:
    def test_matches_scalar_construction(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(7.5, 13.5, 100)
        lo, hi, empty = bounded_hulls(y, POOLED, 0.05, *BOUNDS)
        assert not np.any(empty)
        for i in range(0, 100, 9):
            cs = ci_mu_exact(float(y[i]), POOLED, 0.05, bounds=BOUNDS)
            assert cs.hull[0] == pytest.approx(lo[i], abs=1e-9)
            assert cs.hull[1] == pytest.approx(hi[i], abs=1e-9)

    def test_empty_detection(self):
        _, _, empty = bounded_hulls(np.array([25.0]), POOLED, 1e-6, 7.3, 8.0)
        assert empty[0]

    @pytest.mark.parametrize("name", ["positive-slope", "power",
                                      "exp-linear-const"])
    def test_other_forms_equal_scalar_hull(self, name):
        # grid inversion, row-chunked: more rows than one chunk, some empty
        model = WINDOW_MODELS[name]
        rng = np.random.default_rng(sum(map(ord, name)))
        y = np.concatenate([rng.uniform(6.5, 14.5, 150), [2.0, 25.0]])
        lo, hi, empty = bounded_hulls(y, model, 0.05, *BOUNDS)
        assert empty[-2:].all() and (~empty[:150]).any()
        for i in range(y.size):
            try:
                hull = ci_mu_exact(float(y[i]), model, 0.05, BOUNDS).hull
            except NumericalError:
                assert empty[i]
                continue
            assert not empty[i]
            assert (lo[i], hi[i]) == hull


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
