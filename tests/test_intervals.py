import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar
from scipy.special import erfc, lambertw, ndtri, wrightomega

from pairvar.errors import DomainError, NumericalError
from pairvar.intervals import (
    DEFAULT_GRID_RES,
    ConfidenceSet,
    _lambert_w,
    _nu1_decisions,
    _nu2_grid,
    _region_form,
    _region_min,
    _region_radius,
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
    inversion,
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


def _unbounded(y, t1, t2, q):
    """exact_pivot_crossings on (-inf, inf) under the exp-linear (t1, t2):
    the crossings r1, l2, r2 are rows 1, 2, 3, and two_sided is where row 2
    is a number."""
    model = VarianceModel(VarianceForm.EXP_LINEAR, (t1, t2))
    ends = exact_pivot_crossings(y, model, q, -math.inf, math.inf)
    return SimpleNamespace(r1=ends[1], l2=ends[2], r2=ends[3],
                           two_sided=~np.isnan(ends[2]))


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
            for p in (0.0, 1.0, -0.5, 1.5, math.nan, -math.inf, math.inf):
                with pytest.raises(DomainError):
                    fn(p)


def ulps(new, old):
    return abs(new - old) / np.spacing(abs(old))


# the levels of the CLI's default alpha, the usual others, their Bonferroni
# halves and the cutoffs of up to 10^4 tests at 0.05
LEVELS = sorted({*(0.2, 0.1, 0.05, 0.025, 0.01, 0.005, 0.001, 1e-4, 1e-6),
                 *(0.05 / n for n in (2, 3, 4, 5, 10, 20, 50, 100, 1000, 10**4)),
                 0.1 / 2, 0.01 / 2})


class TestScipyFreeKernels:
    """chi2_1_sf and the quantiles against the scipy functions they replaced,
    scipy.special's erfc and ndtri, kept as their oracle."""

    @staticmethod
    def sf_against_erfc(x):
        new, old = chi2_1_sf(x), erfc(np.sqrt(x / 2.0))
        assert np.array_equal(new == 0.0, old == 0.0)
        # relative where erfc is normal, to a fraction of its last ulp below
        tiny = np.finfo(float).tiny
        assert np.all(np.abs(new - old) <= 1e-15 * np.maximum(old, tiny))

    def test_sf_on_every_piece(self):
        # erfc's argument over [0, 1), [1, 8) and [8, 26.5), ends included
        a = np.concatenate([np.linspace(0.0, 26.5, 200001),
                            np.random.default_rng(3).uniform(0.0, 26.5, 10**5),
                            np.geomspace(1e-300, 1.0, 1000), [1.0, 8.0]])
        self.sf_against_erfc(2.0 * a * a)

    def test_sf_across_the_tail_boundary(self):
        # erfc is subnormal from sqrt(x/2) ~ 26.55 and 0 from ~26.64 on
        a = np.linspace(26.0, 28.0, 100001)
        x = 2.0 * a * a
        assert np.any(erfc(np.sqrt(x / 2.0)) == 0.0)
        self.sf_against_erfc(x)

    def test_sf_special_values(self):
        assert np.isnan(chi2_1_sf(math.nan))
        assert chi2_1_sf(math.inf) == 0.0
        assert chi2_1_sf(0.0) == 1.0
        one = chi2_1_sf(np.float64(3.0))
        assert isinstance(one, float) and not isinstance(one, np.ndarray)
        grid = np.array([[0.0, 1.0, math.inf], [4.0, math.nan, 1e3]])
        many = chi2_1_sf(grid)
        assert isinstance(many, np.ndarray) and many.shape == grid.shape
        assert np.array_equal(many.ravel(), [chi2_1_sf(x) for x in grid.flat],
                              equal_nan=True)

    def test_sf_raises_no_floating_point_error_on_zero_to_inf(self):
        fin = np.finfo(float)
        x = np.concatenate([[0.0, 5e-324, fin.tiny, 1.0, 1e300, fin.max,
                             math.inf], np.geomspace(1e-300, 1e300, 10001),
                            np.linspace(1400.0, 1460.0, 10001)])
        with np.errstate(all="raise"):
            chi2_1_sf(x)

    @pytest.mark.parametrize("alpha", LEVELS)
    def test_quantiles_within_2_ulp_of_ndtri(self, alpha):
        assert ulps(normal_quantile(1.0 - alpha / 2.0),
                    ndtri(1.0 - alpha / 2.0)) <= 2
        assert ulps(normal_quantile(alpha / 2.0), ndtri(alpha / 2.0)) <= 2
        assert ulps(chi2_1_quantile(1.0 - alpha),
                    ndtri(0.5 + (1.0 - alpha) / 2.0) ** 2) <= 2

    def test_quantiles_at_the_ends_of_the_unit_interval(self):
        below_one = math.nextafter(1.0, 0.0)
        for p in (5e-324, 1e-300, below_one):
            assert ulps(normal_quantile(p), ndtri(p)) <= 2
        # 0.5 + p / 2 rounds to 1 there, where ndtri gives inf
        assert chi2_1_quantile(below_one) == math.inf
        assert normal_quantile(0.5) == 0.0


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

    def test_bracketed_for_positive_slope(self):
        # the ends are the pivot's crossings, each on its rejected side
        m = VarianceModel(VarianceForm.EXP_LINEAR, (-8.0, 0.4))
        q = chi2_1_quantile(0.95)
        cs = ci_mu_exact(10.0, m, 0.05, bounds=BOUNDS)
        assert cs.contains(10.0) and not cs.disconnected
        for end in cs.hull:
            g = (10.0 - end) ** 2 / float(m(end))
            assert 0.0 < g - q <= 1e-13
        with pytest.raises(DomainError):
            ci_mu_exact(10.0, m, 0.05)  # bracketing needs bounds

    def test_empty_after_bounding_raises(self):
        with pytest.raises(NumericalError):
            ci_mu_exact(20.0, POOLED, 0.05, bounds=(7.3, 8.0))

    def test_vectorized_crossings_match_scalar_sets(self):
        rng = np.random.default_rng(42)
        y = rng.uniform(7.0, 14.0, 200)
        q = chi2_1_quantile(0.95)
        c = _unbounded(y, 4.84, -0.927, q)
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

    Returns (r1, l2, r2, two_sided) as _unbounded does.
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
        c = _unbounded(y, *theta, q)
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
        c = _unbounded(y, t1, t2, q)
        two = c.two_sided
        for mu, yy, qq in ((c.r1, y, q), (c.l2[two], y[two], q[two]),
                           (c.r2[two], y[two], q[two])):
            g = (yy - mu) ** 2 * np.exp(-t1 - t2 * mu)
            assert np.all(np.abs(g - qq) <= 1e-12 * qq)

    def test_extreme_intensities_give_finite_crossings(self):
        # exp(t1 + t2*y) overflows at y = -1000 and underflows at y = 1e4;
        # references from 50-digit Lambert W arithmetic
        q = chi2_1_quantile(0.95)
        c = _unbounded(np.array([-1000.0, 1e4]), 4.84, -0.927, q)
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
                _unbounded(np.array([10.0, y]), 4.84, -0.927, 3.84)


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
            c = _unbounded(y, t1, t2, q)
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
            c = _unbounded(self.Y, *theta, q)
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
                    _unbounded(np.array([10.0, y]), 4.84, -0.927, 3.84)
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

    @pytest.mark.parametrize("theta, y1, y2, bounds, grid_res, hull", [
        ((-40.0, 5.5), 7.5, 13.5, BOUNDS, DEFAULT_GRID_RES,
         (-6.6, 6.306924588605)),
        ((4.84, -0.927), 13.93, 11.0, BOUNDS, DEFAULT_GRID_RES,
         (2.78388863110854, 3.0301505983744947)),
        ((4.84, -0.927), 13.93, 11.0, BOUNDS, 0.007,
         (2.78388863110854, 3.0301505983744947)),
        ((4.84, -0.927), 13.93, 11.0, BOUNDS, 0.013,
         (2.78388863110854, 3.0301505983744947)),
        ((4.84, -0.927), 13.92, 11.0, (7.3, 13.903), DEFAULT_GRID_RES,
         (2.7581750811559487, 3.0703738051380833)),
        ((4.84, -0.927), 7.25, 9.5, (7.3, 13.903), DEFAULT_GRID_RES,
         (-2.4935834781924067, -1.4422026780861565)),
    ])
    def test_ends_on_the_projection_boundary(self, theta, y1, y2, bounds,
                                             grid_res, hull):
        # the ends found by brentq on the bounded minimum of the two-term
        # form over nu2 (the bounds included); the minimum sits on the
        # mu1 = b or mu2 = a edge, which the scan's grid holds only when
        # 2(b - a) / grid_res is a whole number
        model = VarianceModel(VarianceForm.EXP_LINEAR, theta)
        a, b = bounds
        q = chi2_2_quantile(0.95)

        def excess(nu1):
            ends = (2.0 * a + abs(nu1), 2.0 * b - abs(nu1))
            form = lambda nu2: _region_form(y1, y2, model, nu1, nu2)
            res = minimize_scalar(form, bounds=ends, method="bounded",
                                  options={"xatol": 1e-13})
            return min(res.fun, *map(form, ends)) - q

        cs = ci_diff_region(y1, y2, model, 0.05, bounds, grid_res)
        assert len(cs.components) == 1
        for end in cs.hull:
            if abs(end) < b - a - 1e-9:
                root = brentq(excess, end - 0.01, end + 0.01, xtol=1e-14)
                assert end == pytest.approx(root, abs=1e-8)
        assert cs.hull == pytest.approx(hull, abs=1e-8)

    def test_scan_scores_the_edges_off_the_grid(self):
        # 2b = 27.806 is not on the grid 2a + 0.01 k; at nu1 = 0 the form
        # is under q only near mu1 = mu2 = b, above the last grid sum 27.8
        a, b = 7.3, 13.903
        q = chi2_2_quantile(0.95)
        y = np.array([13.9325])
        grid = 2.0 * a + 0.01 * np.arange(1321)
        assert np.all(_region_form(y, y, POOLED, 0.0, grid) > q)
        assert _region_form(y, y, POOLED, 0.0, 2.0 * b)[0] <= q
        radius = _region_radius(y[0], y[0], POOLED, q, a, b, 0.01)
        accepted = _region_scan(y[0], y[0], POOLED, q, np.array([0.0]), a, b,
                                0.01, radius)
        assert accepted.tolist() == [True]
        least, at, _ = _region_min(y[0], y[0], POOLED, np.array([0.0]), a, b,
                                   0.01, radius)
        assert least[0] <= q and at[0] == 2.0 * b

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
    """The radius recursion with h at both ends of each interval, vectorized
    over pairs, followed until it stops shrinking (at most 100 rounds)."""
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

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_unbounded_variance_raises(self, a):
        # the power form is infinite at mu = 0: the bounds rule refuses a <= 0
        model = VarianceModel(VarianceForm.POWER, (0.0, -1.0))
        with pytest.raises(DomainError, match="a > 0"):
            ci_diff_region(1.0, 1.3, model, 0.05, (a, 3.0), 0.01)

    @pytest.mark.parametrize("grid_res", [0.005, 0.007, 0.01])
    @pytest.mark.parametrize("name", sorted(WINDOW_MODELS))
    def test_scan_mask_equals_oracle(self, name, grid_res, monkeypatch):
        # the accepted nu1 grid rows ci_diff_region hands to _runs, against
        # the masked-window scan they replace
        model = WINDOW_MODELS[name]
        a, b = BOUNDS
        q = chi2_2_quantile(0.95)
        n1 = int(round(2.0 * (b - a) / grid_res)) + 1
        nu1_grid = np.linspace(-(b - a), b - a, n1)
        masks = []
        monkeypatch.setattr("pairvar.intervals._runs",
                            lambda mask: masks.append(mask) or _runs(mask))
        for y1, y2 in _window_pairs(sum(map(ord, name)) + 4, 3):
            ci_diff_region(y1, y2, model, 0.05, BOUNDS, grid_res, False)
            radius = _region_radius(y1, y2, model, q, a, b, grid_res)
            slow = _region_scan(y1, y2, model, q, nu1_grid, a, b, grid_res,
                                radius)
            assert masks[-1].any() and np.array_equal(masks[-1], slow), (
                y1, y2)

    @pytest.mark.parametrize("name", sorted(WINDOW_MODELS))
    def test_window_holds_every_accepted_grid_point(self, name):
        model = WINDOW_MODELS[name]
        a, b = BOUNDS
        q = chi2_2_quantile(0.95)
        nu1 = np.arange(-(b - a), b - a, 0.02)[:, None]
        nu2 = np.arange(2.0 * a, 2.0 * b, 0.02)[None, :]
        inside = (np.abs(nu1) <= np.minimum(nu2 - 2.0 * a, 2.0 * b - nu2))
        for y1, y2 in _window_pairs(sum(map(ord, name)) + 1, 6):
            radius = _region_radius(y1, y2, model, q, a, b, 0.0)
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
    def test_radius_is_the_full_recursion_limit(self, name):
        # h on the side where it is larger equals the larger of h at both
        # ends of each interval, so both follow one sequence to one limit
        model = WINDOW_MODELS[name]
        a, b = BOUNDS
        q = chi2_2_quantile(0.95)
        y1, y2 = np.array(_window_pairs(sum(map(ord, name)) + 2, 300)).T
        for grid_res in (0.0, 0.005, 0.01, 0.02):
            radii = [_region_radius(u, v, model, q, a, b, grid_res)
                     for u, v in zip(y1.tolist(), y2.tolist())]
            full = _full_recursion_radii(y1, y2, model, q, a, b, grid_res)
            assert radii == full.tolist(), grid_res

    def test_pair_outside_the_bounds_still_raises(self):
        for y1, y2 in [(20.0, 20.5), (2.0, 1.5)]:
            with pytest.raises(NumericalError):
                ci_diff_region(y1, y2, POOLED, 0.05, BOUNDS, 0.01)
            with pytest.raises(NumericalError):
                _dense_region(y1, y2, POOLED, 0.05, BOUNDS, 0.01)


def _region_scan(y1, y2, model, q, nu1, a, b, grid_res, radius):
    """The nu1 grid scan as it was before _region_min: per element of the
    array nu1, whether a point of the grid nu2 = 2a + grid_res * k in the
    parallelogram [2a + |nu1|, 2b - |nu1|], or one of its two edges, puts
    the pair's form at or under q. Scores only grid points within radius of
    y1 + y2, for nu1 within radius of y1 - y2, in blocks of consecutive rows
    of about 2^14 form values, masked to each row's window; the edges at
    every nu1."""
    nu2 = _nu2_grid(a, b, grid_res)
    d, c, edge = y1 - y2, y1 + y2, np.abs(nu1)
    start = np.searchsorted(nu2, np.maximum(2.0 * a + edge, c - radius))
    stop = np.searchsorted(nu2, np.minimum(2.0 * b - edge, c + radius),
                           "right")
    live = np.flatnonzero((start < stop) & (np.abs(nu1 - d) <= radius))
    step = max(2**14 // np.max(stop[live] - start[live], initial=1), 1)
    accepted = np.zeros(nu1.shape, dtype=bool)
    for k in range(0, live.size, step):
        rows = live[k:k + step]
        cols = np.arange(start[rows].min(), stop[rows].max())
        hit = _region_form(y1, y2, model, nu1[rows, None], nu2[cols]) <= q
        hit &= (cols >= start[rows, None]) & (cols < stop[rows, None])
        accepted[rows] = hit.any(axis=1)
    accepted |= (edge <= b - a) & (
        (_region_form(y1, y2, model, nu1, 2.0 * a + edge) <= q)
        | (_region_form(y1, y2, model, nu1, 2.0 * b - edge) <= q))
    return accepted


_GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


def _nu1_accepted(y1, y2, model, nu1, q, a, b, grid_res, nu2_lo, nu2_hi):
    """The boundary decision as it was before the zoom on the scan's grid:
    whether some nuisance sum puts the quadratic form at or under q at
    nu1, and how many form evaluations that took.

    The decision is that of minimising the form over the grid
    linspace(2a + |nu1|, 2b - |nu1|) and golden-section polishing the cell
    around the grid minimum, evaluating only the grid points in [nu2_lo,
    nu2_hi], which hold every accepted point. A grid value at or under q
    settles it without the polish, which keeps the value at its surviving
    point (62 evaluations) and can only lower the minimum.
    """
    lo, hi = 2.0 * a + abs(nu1), 2.0 * b - abs(nu1)
    if hi < lo:
        return False, 0
    n = max(int(math.ceil((hi - lo) / grid_res)) + 1, 2)
    nu2 = np.linspace(lo, hi, n)
    window = slice(int(np.searchsorted(nu2, nu2_lo)),
                   int(np.searchsorted(nu2, nu2_hi, "right")))
    if window.start == window.stop:
        return False, 0
    quad = _region_form(y1, y2, model, nu1, nu2[window])
    k = window.start + int(np.argmin(quad))
    best = float(quad[k - window.start])
    if best <= q:
        return True, 1

    def form(x):
        return float(_region_form(y1, y2, model, nu1, x))

    left, right = float(nu2[max(k - 1, 0)]), float(nu2[min(k + 1, n - 1)])
    c = right - _GOLDEN_RATIO * (right - left)
    d = left + _GOLDEN_RATIO * (right - left)
    qc, qd = form(c), form(d)
    for _ in range(59):
        if qc <= qd:
            right, d, qd = d, c, qc
            c = right - _GOLDEN_RATIO * (right - left)
            qc = form(c)
        else:
            left, c, qc = c, d, qd
            d = left + _GOLDEN_RATIO * (right - left)
            qd = form(d)
    left, right = (left, d) if qc <= qd else (c, right)
    if not min(best, form(0.5 * (left + right))) <= q:
        return False, 63
    # The polish counts only around the minimum of the whole grid. Outside
    # the window the form is over q, but it can still undercut the window's
    # grid values, so check that the whole grid has its minimum at k.
    quad = _region_form(y1, y2, model, nu1, nu2)
    return int(np.argmin(quad)) == k, 64


def _refine_boundary(y1, y2, model, inside, outside, q, a, b, grid_res,
                     nu2_lo, nu2_hi):
    """Bisect the nu1 membership boundary between an accepted and a rejected
    point; return it and the decisions, polishes and evaluations spent."""
    inside, outside = float(inside), float(outside)
    counts = Counter()
    for _ in range(60):
        mid = 0.5 * (inside + outside)
        accepted, spent = _nu1_accepted(y1, y2, model, mid, q, a, b, grid_res,
                                        nu2_lo, nu2_hi)
        counts.update(decisions=1, polishes=int(spent > 1), evaluations=spent)
        inside, outside = (mid, outside) if accepted else (inside, mid)
        if abs(inside - outside) < 1e-10:
            break
    return inside, counts


def _oracle_region(y1, y2, model, alpha, bounds=BOUNDS,
                   grid_res=DEFAULT_GRID_RES):
    """ci_diff_region's components as they were before the zoom: each end
    bisected on its own with _nu1_accepted; and the oracle's counts."""
    a, b = bounds
    q = chi2_2_quantile(1.0 - alpha)
    n1 = int(round(2.0 * (b - a) / grid_res)) + 1
    nu1_grid = np.linspace(-(b - a), b - a, n1)
    radius = _region_radius(y1, y2, model, q, a, b, grid_res)
    accepted = _region_scan(y1, y2, model, q, nu1_grid, a, b, grid_res,
                            radius)
    window = (y1 + y2 - radius, y1 + y2 + radius)
    comps, counts = [], Counter()
    for i, j in _runs(accepted):
        ends = [nu1_grid[i], nu1_grid[j]]
        for e, out in enumerate((i - 1, j + 1)):
            if 0 <= out < n1:
                ends[e], spent = _refine_boundary(
                    y1, y2, model, ends[e], nu1_grid[out], q, a, b, grid_res,
                    *window)
                counts.update(spent)
        comps.append(tuple(ends))
    return ConfidenceSet.from_components(comps, 1.0 - alpha).components, counts


def _boundary_points(y1, y2, model, rng, count):
    """count nu1 floats: half spread over the square's width, half within
    1e-9 of the refined boundaries."""
    a, b = BOUNDS
    q = chi2_2_quantile(0.95)
    radius = _region_radius(y1, y2, model, q, a, b, DEFAULT_GRID_RES)
    ends = [e for c in ci_diff_region(y1, y2, model, 0.05, BOUNDS).components
            for e in c if abs(e) < b - a]
    spread = rng.uniform(y1 - y2 - radius, y1 - y2 + radius, count // 2)
    near = (rng.choice(ends, count - spread.size)
            + rng.uniform(-1e-9, 1e-9, count - spread.size))
    return (q, a, b, radius, np.concatenate([spread, near]).tolist())


def _window_sums(y1, y2, radius, grid_res=DEFAULT_GRID_RES):
    """How many of the scan's sums 2a + k * grid_res lie within radius of
    y1 + y2: the grid points _nu1_decisions scores besides the edges."""
    sums = _nu2_grid(*BOUNDS, grid_res)
    return int(np.count_nonzero(np.abs(sums - (y1 + y2)) <= radius))


def _scan_grid_accepts(y1, y2, model, nu1, q, a, b, radius):
    """Whether the points _nu1_decisions scores before any zoom, the two
    edges of the parallelogram at nu1 and the scan's sums 2a + k * grid_res
    in it within radius of y1 + y2, put the form at or under q."""
    lo, hi = 2.0 * a + abs(nu1), 2.0 * b - abs(nu1)
    sums = _nu2_grid(a, b, DEFAULT_GRID_RES)
    sums = sums[(np.abs(sums - (y1 + y2)) <= radius) & (sums >= lo)
                & (sums <= hi)]
    nu2 = np.concatenate([[lo, hi], sums])
    return bool(np.min(_region_form(y1, y2, model, nu1, nu2)) <= q)


NULL_AND_SHIFTED_MODELS = {
    "exp-linear": POOLED,
    "power": WINDOW_MODELS["power"],
    "exp-linear-const": WINDOW_MODELS["exp-linear-const"],
}


class TestBoundaryPolish:
    """The vectorised boundary decision, which zooms on the scan's grid,
    against the golden-section polish with a whole-grid re-check it
    replaces."""

    @pytest.mark.parametrize("name", sorted(WINDOW_MODELS))
    def test_decisions_equal_oracle(self, name):
        model = WINDOW_MODELS[name]
        rng = np.random.default_rng(sum(map(ord, name)) + 11)
        checked = polished = accepted = zoomed = grid_settled = 0
        for y1, y2 in _window_pairs(sum(map(ord, name)) + 2, 1)[:4]:
            q, a, b, radius, points = _boundary_points(y1, y2, model, rng, 520)
            fast, spent = _nu1_decisions(y1, y2, model, np.array(points), q,
                                         a, b, DEFAULT_GRID_RES, radius)
            slow = [_nu1_accepted(y1, y2, model, nu1, q, a, b,
                                  DEFAULT_GRID_RES, y1 + y2 - radius,
                                  y1 + y2 + radius) for nu1 in points]
            assert fast.tolist() == [s for s, _ in slow], (y1, y2)
            width = _window_sums(y1, y2, radius) + 2
            assert (spent - len(points) * width) % 256 == 0
            # one row at a time, so each row's zoom is known: it fires
            # exactly where the scan's own points reject
            rows = [_nu1_decisions(y1, y2, model, np.array([nu1]), q, a, b,
                                   DEFAULT_GRID_RES, radius) for nu1 in points]
            assert [bool(hit[0]) for hit, _ in rows] == fast.tolist()
            zooms = [(s - width) // 256 for _, s in rows]
            assert sum(zooms) * 256 == spent - len(points) * width
            grid = [_scan_grid_accepts(y1, y2, model, nu1, q, a, b, radius)
                    for nu1 in points]
            assert zooms == [int(not g) for g in grid], (y1, y2)
            zoomed += sum(zooms)
            checked += len(points)
            polished += sum(e > 1 for _, e in slow)
            # the oracle polishes on its own linspace; where the scan's
            # grid 2a + k grid_res already accepts, no zoom is needed
            grid_settled += sum(e > 1 and g for (_, e), g in zip(slow, grid))
            accepted += int(fast.sum())
        assert checked >= 2000
        assert polished >= 100 and zoomed >= polished - grid_settled
        assert 0 < accepted < checked

    def test_counts_match_oracle(self, monkeypatch):
        calls = []

        def spy(*args):
            hit, spent = _nu1_decisions(*args)
            calls.append((len(args[3]), spent))
            return hit, spent

        monkeypatch.setattr("pairvar.intervals._nu1_decisions", spy)
        fast = ci_diff_region(10.21, 10.78, POOLED, 0.05, BOUNDS)
        slow, counts = _oracle_region(10.21, 10.78, POOLED, 0.05)
        assert fast.components == slow
        q, (a, b) = chi2_2_quantile(0.95), BOUNDS
        radius = _region_radius(10.21, 10.78, POOLED, q, a, b,
                                DEFAULT_GRID_RES)
        width = _window_sums(10.21, 10.78, radius) + 2
        zooms = [(spent - rows * width) / 256 for rows, spent in calls]
        assert all(z == int(z) and 0 <= z <= rows
                   for z, (rows, _) in zip(zooms, calls))
        assert sum(zooms) > 0 and max(rows for rows, _ in calls) == 2
        assert fast.diagnostics == {
            "decisions": counts["decisions"],
            "evaluations": sum(spent for _, spent in calls)}
        assert sum(rows for rows, _ in calls) == counts["decisions"]

    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    @pytest.mark.parametrize("name", sorted(NULL_AND_SHIFTED_MODELS))
    def test_null_and_shifted_pairs_equal_oracle(self, name, alpha):
        # null pairs and pairs whose second mean is 3 sd higher, with the
        # variance of that mean; every end bit-identical to the oracle's
        model = NULL_AND_SHIFTED_MODELS[name]
        rng = np.random.default_rng(sum(map(ord, name)) + int(100 * alpha))
        mu = rng.uniform(7.4, 13.8, 8)
        mu2 = mu + np.where(np.arange(8) < 4, 0.0, 3.0) * np.sqrt(model(mu))
        y1 = rng.normal(mu, np.sqrt(model(mu)))
        y2 = rng.normal(mu2, np.sqrt(model(mu2)))
        for pair in zip(y1.tolist(), y2.tolist()):
            fast = ci_diff_region(*pair, model, alpha, BOUNDS)
            slow, counts = _oracle_region(*pair, model, alpha)
            assert fast.components == slow, pair
            assert fast.diagnostics["decisions"] == counts["decisions"]

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

    def test_far_rows_are_empty_and_leave_the_others(self):
        # their crossings are not finite; they are not solved, as
        # d^2 > q h(a) at distance d from [a, b] proves the set empty
        y = np.array([10.0, 1e300, 8.0, -1e300, 25.0])
        lo, hi, parts = bounded_hulls(y, POOLED, 0.05, *BOUNDS)
        assert parts.tolist() == [1, 0, 1, 0, 0]
        near = bounded_hulls(y[[0, 2]], POOLED, 0.05, *BOUNDS)
        assert lo[[0, 2]].tolist() == near[0].tolist()
        assert hi[[0, 2]].tolist() == near[1].tolist()
        for far in (25.0, 1e300, -1e300):
            with pytest.raises(NumericalError, match="empty after bounding"):
                ci_mu_exact(far, POOLED, 0.05, BOUNDS)

    @pytest.mark.parametrize("name", ["positive-slope", "power",
                                      "exp-linear-const"])
    def test_other_forms_equal_scalar_hull(self, name):
        # the bracketed kernel: the batch equals its batches of one
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
        # Lambert-W and bracketed paths; at (0.5, 20) about half the sets
        # of every form but the positive slope are disconnected
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


# The pivot inversion the bracketed kernel replaced, kept as its oracle:
# per row, where the pivot is at or under q on 20001 points of [a, b].
def _grid_accepted(ys, model, q, a, b):
    grid = np.linspace(a, b, 20001)
    stat = sum((np.asarray(y, dtype=float)[:, None] - grid) ** 2 for y in ys)
    return grid, stat / model(grid) <= q


def _brentq_ends(ys, model, q, a, b):
    """Per row, the ends of the accepted set on [a, b]: brentq on each sign
    change of pivot - q over 4001 points, plus a or b where accepted."""
    mus = np.linspace(a, b, 4001)
    rows = []
    for row in zip(*ys):
        def excess(mu):
            return sum((y - mu) ** 2 for y in row) / model(mu) - q
        e = excess(mus)
        ends = [a] if e[0] <= 0 else []
        for i in np.flatnonzero((e[:-1] <= 0) != (e[1:] <= 0)):
            ends.append(brentq(excess, mus[i], mus[i + 1], xtol=1e-15))
        rows.append(ends + ([b] if e[-1] <= 0 else []))
    return rows


def _ends(ys, model, q, a, b):
    """exact_pivot_crossings' ends per row, NaN dropped. A bracketed end is
    a bound or on the rejected side: k (c - mu)^2 + s - q h(mu) > 0 there,
    with c, s and k the kernel's."""
    ends = exact_pivot_crossings(ys[0], model, q, a, b, *ys[1:]).T
    rows = [e[~np.isnan(e)] for e in ends]
    k = len(ys)
    for row, e in zip(zip(*ys), rows):
        c, s = sum(row) / k, (row[0] - row[-1]) ** 2 / 2.0
        if inversion(model, k > 1) == "bracketed":
            r = k * (c - e) ** 2 + s - q * model(e)
            assert np.all((r > 0) | (e == a) | (e == b)), (row, e)
    return rows


BRACKETED_MODELS = {
    "slope-negative": POOLED,
    "slope-zero": VarianceModel(VarianceForm.EXP_LINEAR, (-3.0, 0.0)),
    "slope-positive": VarianceModel(VarianceForm.EXP_LINEAR, (-8.0, 0.4)),
    "power": VarianceModel(VarianceForm.POWER, (3.9, -3.0)),
    "power-increasing": VarianceModel(VarianceForm.POWER, (-6.0, 2.0)),
    "exp-linear-const": VarianceModel(VarianceForm.EXP_LINEAR_CONST,
                                      (4.84, -0.927, -6.0)),
}


def _bracketed_draws(name, pair, bounds, count):
    """Seeded observations across and beyond the bounds; pairs include ties
    and wide gaps."""
    a, b = bounds
    rng = np.random.default_rng(sum(map(ord, name)) + 7 * pair + int(b))
    y = rng.uniform(a - 1.0, b + 1.0, count)
    if not pair:
        return (y,)
    y2 = y + rng.choice([0.0, 0.3, 1.0, 3.0], count) * rng.normal(size=count)
    return y, y2


class TestBracketedKernel:
    """The bracketed inversion against brentq, closed forms, the Lambert-W
    crossings and the 20001-point grid it replaced."""

    @pytest.mark.parametrize("name", sorted(BRACKETED_MODELS))
    @pytest.mark.parametrize("pair", [False, True], ids=["one", "pair"])
    @pytest.mark.parametrize("bounds", [BOUNDS, (0.5, 20.0)])
    def test_ends_match_brentq(self, name, pair, bounds):
        model = BRACKETED_MODELS[name]
        ys = _bracketed_draws(name, pair, bounds, 60)
        q = chi2_2_quantile(0.95) if pair else chi2_1_quantile(0.95)
        with np.errstate(all="raise"):
            ends = _ends(ys, model, q, *bounds)
        for row, fast, slow in zip(zip(*ys), ends, _brentq_ends(ys, model, q,
                                                                *bounds)):
            assert len(fast) == len(slow), row
            assert np.all(np.abs(fast - slow) <= 1e-12), row

    @pytest.mark.parametrize("pair", [False, True], ids=["one", "pair"])
    def test_zero_slope_is_the_closed_form(self, pair):
        # h = e^t1: k (c - mu)^2 + s <= q e^t1 about the mean c
        model = BRACKETED_MODELS["slope-zero"]
        a, b = 0.5, 20.0
        ys = _bracketed_draws("slope-zero", pair, (a, b), 200)
        q = chi2_2_quantile(0.95) if pair else chi2_1_quantile(0.95)
        k, c = len(ys), sum(ys) / len(ys)
        s = sum((y - c) ** 2 for y in ys)
        with np.errstate(all="raise"):
            ends = exact_pivot_crossings(ys[0], model, q, a, b, *ys[1:]).T
        half = np.sqrt(np.maximum(q * math.exp(-3.0) - s, 0.0) / k)
        lo, hi = np.maximum(c - half, a), np.minimum(c + half, b)
        full = (half > 0) & (lo <= hi)
        assert np.isnan(ends[~full]).all() and (~full).any()
        assert np.isnan(ends[:, 2:]).all()
        assert np.all(np.abs(ends[full, 0] - lo[full]) <= 1e-12)
        assert np.all(np.abs(ends[full, 1] - hi[full]) <= 1e-12)

    @pytest.mark.parametrize("name", sorted(BRACKETED_MODELS))
    def test_edge_rows_and_bounds(self, name):
        # far rows are empty unsolved, a tie has s = 0, and bounds 1e-9
        # wide or reaching near 0 for the power form raise no warning
        model = BRACKETED_MODELS[name]
        y = np.array([-1e300, -5.0, 7.3, 10.0, 10.0 + 5e-10, 13.9, 25.0,
                      1e300])
        cases = [(BOUNDS, 0.05), ((10.0, 10.0 + 1e-9), 0.05),
                 ((1e-6, 20.0), 0.05), ((1e-6, 20.0), 1e-12)]
        for (a, b), alpha in cases:
            q1, q2 = chi2_1_quantile(1.0 - alpha), -2.0 * math.log(alpha)
            with np.errstate(all="raise"):
                one = _ends((y,), model, q1, a, b)
                pair = _ends((y, y), model, q2, a, b)
                lo, hi, parts = bounded_hulls(y, model, alpha, a, b, y)
            assert [e.size for e in one][::7] == [0, 0]
            assert [e.size // 2 for e in pair] == parts.tolist()
            assert (parts[(a <= y) & (y <= b)] > 0).all()  # mu = y: pivot 0
            for ends, ys, q in ((one, (y[1:-1],), q1),
                                (pair, (y[1:-1],) * 2, q2)):
                slow = _brentq_ends(ys, model, q, a, b)
                for fast, ref in zip(ends[1:-1], slow):
                    assert len(fast) == len(ref)
                    assert np.all(np.abs(fast - ref) <= 1e-12)

    @pytest.mark.parametrize("name", sorted(BRACKETED_MODELS))
    @pytest.mark.parametrize("pair", [False, True], ids=["one", "pair"])
    def test_per_row_quantiles_equal_scalar_calls(self, name, pair):
        # one quantile per row, so one inflection per row: each row is the
        # call at its own quantile, to the bit
        model = BRACKETED_MODELS[name]
        ys = _bracketed_draws(name, pair, (0.5, 20.0), 40)
        q = -2.0 * np.log(np.geomspace(1e-9, 0.5, 40))
        with np.errstate(all="raise"):
            batch = exact_pivot_crossings(ys[0], model, q, 0.5, 20.0,
                                          *ys[1:])
            for i in range(q.size):
                row = exact_pivot_crossings(ys[0][i], model, q[i], 0.5, 20.0,
                                            *(y[i] for y in ys[1:]))
                assert np.array_equal(batch[:, i], row[:, 0], equal_nan=True)

    @pytest.mark.parametrize("bounds", [BOUNDS, (0.5, 20.0)])
    def test_equals_lambert_w_on_pooled_rows(self, bounds):
        # the pair (y, y) at 2q has r twice the one-observation r at q, to
        # the bit, so it runs the bracketed kernel on the Lambert-W pivot
        rng = np.random.default_rng(11)
        y = rng.uniform(bounds[0] - 2.0, bounds[1] + 2.0, 20000)
        q = chi2_1_quantile(0.95)
        with np.errstate(all="raise"):
            fast = np.sort(exact_pivot_crossings(y, POOLED, 2.0 * q, *bounds,
                                                 y).T)
            slow = np.sort(exact_pivot_crossings(y, POOLED, q, *bounds).T)
        assert inversion(POOLED, pair=True) == "bracketed"
        assert np.array_equal(np.isnan(fast), np.isnan(slow))
        assert np.nanmax(np.abs(fast - slow)) <= 1e-13

    @pytest.mark.parametrize("name", sorted(BRACKETED_MODELS))
    @pytest.mark.parametrize("pair", [False, True], ids=["one", "pair"])
    @pytest.mark.parametrize("bounds", [BOUNDS, (0.5, 20.0)])
    def test_sets_hold_the_grid_sets(self, name, pair, bounds):
        # every end on or outside the grid's, within one grid step, and as
        # many components, but where one is narrower than a step
        model = BRACKETED_MODELS[name]
        ys = _bracketed_draws(name, pair, bounds, 300)
        q = chi2_2_quantile(0.95) if pair else chi2_1_quantile(0.95)
        step = (bounds[1] - bounds[0]) / 20000
        ends = exact_pivot_crossings(ys[0], model, q, *bounds, *ys[1:]).T
        grid, accepted = _grid_accepted(ys, model, q, *bounds)
        narrow = 0
        for row, e, acc in zip(zip(*ys), ends, accepted):
            comps = e[~np.isnan(e)].reshape(-1, 2)
            runs = [(grid[i], grid[j]) for i, j in _runs(acc)]
            narrow += int(np.sum(comps[:, 1] - comps[:, 0] < step))
            kept = [c for c in comps if c[1] - c[0] >= step]
            assert len(kept) <= len(runs) <= len(comps), row
            for lo, hi in runs:
                lo_e, hi_e = next(c for c in comps if c[0] <= lo and hi <= c[1])
                assert lo - step <= lo_e and hi_e <= hi + step, row
        # no component here is narrower than a grid step
        assert narrow == 0


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
