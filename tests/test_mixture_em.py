import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.optimize import minimize
from scipy.special import logsumexp
from test_macl import old_solve_weighted_equations

from pairvar import macl, mixture_em
from pairvar.errors import NumericalError
from pairvar.macl import macl_fit, solve_weighted_equations
from pairvar.mixture_em import (
    LOG_2PI,
    MixtureEstimate,
    SupportGrid,
    build_support,
    em_fit,
    fit_mixture,
    mixture_log_lik,
    responsibilities,
)
from pairvar.model import PairedDataset, VarianceForm, VarianceModel
from pairvar.simulate import Scenario, ScenarioKind, generate_dataset

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# float64 exp(x) is subnormal below the first and 0 below the second
EXP_SUBNORMAL = -708.3964185322641
EXP_UNDERFLOW = -745.1332191019412


def exp_linear(t1, t2):
    return VarianceModel(VarianceForm.EXP_LINEAR, (t1, t2))


def dataset_from_arrays(y1, y2, bounds=(7.3, 13.9)):
    return PairedDataset([str(i) for i in range(len(y1))], y1, y2, bounds)


def simulate_dataset(n, theta, seed, lo=8.0, hi=12.0,
                     form=VarianceForm.EXP_LINEAR):
    rng = np.random.default_rng(seed)
    mus = rng.uniform(lo, hi, n)
    sd = np.sqrt(VarianceModel(form, theta)(mus))
    return dataset_from_arrays(rng.normal(mus, sd), rng.normal(mus, sd))


class TestBuildSupport:
    def test_degenerate_range_single_point(self):
        grid = build_support(exp_linear(0.0, 0.0), 5.0, 5.0, 0.25)
        assert grid.points == (5.0,)

    def test_unit_variance_unit_steps(self):
        grid = build_support(exp_linear(0.0, 0.0), 0.0, 3.0, 1.0)
        assert np.allclose(grid.points, [0.0, 1.0, 2.0, 3.0])

    def test_second_from_top_point(self):
        # frozen from 40-digit arithmetic: 13.9 - 0.25*sqrt(exp(4.84-0.927*13.9))
        grid = build_support(exp_linear(4.84, -0.927), 7.3, 13.9, 0.25)
        assert grid.points[-1] == 13.9
        assert grid.points[-2] == pytest.approx(13.895523636858971, rel=1e-12)

    def test_lowest_point_clamped(self):
        grid = build_support(exp_linear(4.84, -0.927), 7.3, 13.9, 0.25)
        assert grid.points[0] == 7.3
        pts = grid.array
        assert np.all(np.diff(pts) > 0)
        # spacing respects the recursion: gap <= d * sd at the upper point
        gaps = np.diff(pts)
        sds = np.sqrt(exp_linear(4.84, -0.927)(pts[1:]))
        assert np.all(gaps <= 0.25 * sds + 1e-12)

    def test_grid_explosion_guarded(self):
        with pytest.raises(NumericalError):
            build_support(exp_linear(-80.0, 0.0), 0.0, 1.0, 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_support(exp_linear(0.0, 0.0), 1.0, 0.0, 0.25)
        with pytest.raises(ValueError):
            build_support(exp_linear(0.0, 0.0), 0.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            SupportGrid(points=(1.0, 1.0), spacing_d=0.25)


class TestResponsibilities:
    def test_single_component_all_one(self):
        ds = dataset_from_arrays([8.0, 9.0, 10.0], [8.5, 9.5, 10.5])
        grid = SupportGrid(points=(9.0,), spacing_d=0.25)
        w = responsibilities(ds, exp_linear(0.0, 0.0), grid, [1.0])
        assert np.allclose(w, 1.0)

    def test_equidistant_symmetric_split(self):
        ds = dataset_from_arrays([10.0], [10.0 + 1e-9])
        grid = SupportGrid(points=(9.0, 11.0), spacing_d=1.0)
        w = responsibilities(ds, exp_linear(0.0, 0.0), grid, [0.5, 0.5])
        assert np.allclose(w, 0.5, atol=1e-6)

    def test_rows_sum_to_one(self):
        ds = simulate_dataset(100, (5.0, -1.0), seed=1)
        grid = build_support(exp_linear(5.0, -1.0), 7.3, 13.9, 0.5)
        pi = np.full(grid.J, 1.0 / grid.J)
        w = responsibilities(ds, exp_linear(5.0, -1.0), grid, pi)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-10

    def test_zero_weight_columns_are_zero(self):
        ds = simulate_dataset(20, (5.0, -1.0), seed=2)
        grid = SupportGrid(points=(9.0, 10.0, 11.0), spacing_d=1.0)
        w = responsibilities(ds, exp_linear(5.0, -1.0), grid, [0.5, 0.0, 0.5])
        assert w.shape == (20, 3)
        assert np.all(w[:, 1] == 0.0)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-10

    def test_underflow_names_offending_pair(self):
        # second pair so far from the only support point that its density
        # is zero even in log space
        ds = dataset_from_arrays([10.0, 1e155], [10.5, 1e155], bounds=(0.0, 20.0))
        grid = SupportGrid(points=(10.0,), spacing_d=0.25)
        with pytest.raises(NumericalError, match="'1'"):
            responsibilities(ds, exp_linear(0.0, 0.0), grid, [1.0])


class TestMixtureLogLik:
    def test_standard_normal_pair_at_origin(self):
        ds = dataset_from_arrays([0.0], [1e-12], bounds=(-1.0, 1.0))
        grid = SupportGrid(points=(0.0,), spacing_d=0.25)
        ll = mixture_log_lik(ds, exp_linear(0.0, 0.0), grid, [1.0])
        assert ll == pytest.approx(-math.log(2 * math.pi), abs=1e-9)

    def test_zero_weight_component_is_inert(self):
        ds = simulate_dataset(20, (5.0, -1.0), seed=2)
        grid = SupportGrid(points=(9.0, 10.0, 11.0), spacing_d=1.0)
        m = exp_linear(5.0, -1.0)
        base = mixture_log_lik(ds, m, grid, [0.5, 0.5, 0.0])
        two = mixture_log_lik(ds, m, SupportGrid(points=(9.0, 10.0), spacing_d=1.0),
                              [0.5, 0.5])
        assert base == pytest.approx(two, abs=1e-12)

    def test_matches_direct_summation_oracle(self):
        # brute-force density sums without the log-sum-exp rearrangement
        rng = np.random.default_rng(7)
        ds = simulate_dataset(30, (2.0, -0.3), seed=3)
        grid = SupportGrid(points=tuple(np.linspace(8, 12, 7)), spacing_d=0.5)
        pi = rng.dirichlet(np.ones(7))
        m = exp_linear(2.0, -0.3)
        ll = mixture_log_lik(ds, m, grid, pi)
        direct = 0.0
        for y1, y2 in zip(ds.y1.tolist(), ds.y2.tolist()):
            total = 0.0
            for p, mu in zip(pi, grid.points):
                h = float(m(mu))
                dens = (1.0 / (2 * math.pi * h)) * math.exp(
                    -((y1 - mu) ** 2 + (y2 - mu) ** 2) / (2 * h))
                total += p * dens
            direct += math.log(total)
        assert ll == pytest.approx(direct, abs=1e-9)


def exp_grid():
    """Dense grid over [-800, 0] plus the float64 edges of exp, the fast
    path's thresholds and their neighbours, -inf, NaN and both zeros."""
    edges = []
    for c in (EXP_UNDERFLOW, EXP_SUBNORMAL, -700.0, -746.0):
        lo = hi = c
        edges.append(c)
        for _ in range(3):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            edges += [lo, hi]
    x = np.concatenate([np.linspace(-800.0, 0.0, 159968), edges,
                        [-np.inf, np.nan, 0.0, -0.0]])
    assert x.size == 400 * 400
    return np.random.default_rng(0).permutation(x)


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64),
                          np.asarray(b).view(np.int64))


class TestFastExp:
    def test_grid_covers_every_branch(self):
        x = exp_grid()
        for lo, hi in ((-np.inf, -746.0), (-746.0, EXP_UNDERFLOW),
                       (EXP_UNDERFLOW, EXP_SUBNORMAL), (EXP_SUBNORMAL, -700.0),
                       (-700.0, 0.0)):
            assert np.count_nonzero((x >= lo) & (x < hi)) >= 7

    def test_one_dimensional(self):
        x = exp_grid()
        assert same_bits(mixture_em._exp(x.copy()), np.exp(x))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_contiguous_layouts(self, order):
        x = np.reshape(exp_grid(), (400, 400), order=order)
        y = np.array(x, order=order)
        out = mixture_em._exp(y)
        assert out is y
        assert out.flags[f"{order}_CONTIGUOUS"]
        assert same_bits(out, np.exp(x))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_strided_view_in_place(self, order):
        x = exp_grid().reshape(400, 400)
        big = np.full((800, 1200), 3.0, order=order)
        big[::2, ::3] = x
        mixture_em._exp(big[::2, ::3])
        assert same_bits(big[::2, ::3], np.exp(x))
        untouched = np.ones(big.shape, dtype=bool)
        untouched[::2, ::3] = False
        assert np.all(big[untouched] == 3.0)

    def test_special_values(self):
        x = np.array([-np.inf, np.nan, 0.0, -0.0, -1e300, -746.0,
                      EXP_UNDERFLOW, np.nextafter(EXP_UNDERFLOW, 0.0)])
        out = mixture_em._exp(x.copy())
        assert same_bits(out, np.exp(x))
        assert out[0] == 0.0 and np.isnan(out[1]) and out[7] > 0.0


# The squared-extrapolation EM that em_fit replaced, kept as an oracle.


def old_e_step(engine, theta, pi):
    """Log-space responsibilities over the columns with pi > 0."""
    active = np.flatnonzero(pi > 0.0)
    block = engine.sq_dev[:, active]
    h = VarianceModel(engine.form, tuple(theta))(engine.points[active])
    w = block * (-0.5 / h)[None, :]
    w += (np.log(pi[active]) - LOG_2PI - np.log(h))[None, :]
    top = w.max(axis=1, keepdims=True)
    w -= top
    totals = mixture_em._exp(w).sum(axis=1)
    w /= totals[:, None]
    return active, block, float((top.ravel() + np.log(totals)).sum()), w


def old_q_value(form, theta, points, w_tot, v_tot) -> float:
    """Expected complete-data log-likelihood (theta part only)."""
    h = VarianceModel(form, tuple(theta))(points)
    if np.any(~np.isfinite(h)) or np.any(h <= 0):
        return -np.inf
    n = float(w_tot.sum())
    return float(-n * LOG_2PI - np.dot(w_tot, np.log(h)) - np.dot(v_tot, 1.0 / h))


def old_m_step_theta(form, theta_old, points, w_tot, v_tot, inner_tol):
    """The replaced M-step: the score root from the replaced solver, or
    Nelder-Mead on Q where that root lowers Q. Returns the new theta."""
    keep = w_tot > 1e-300
    w = w_tot[keep]
    theta_new, _, _ = old_solve_weighted_equations(
        form, points[keep], v_tot[keep] / w, w, init=theta_old, tol=inner_tol,
        max_iter=100)
    q_old = old_q_value(form, theta_old, points, w_tot, v_tot)
    q_new = old_q_value(form, theta_new, points, w_tot, v_tot)
    if q_new >= q_old - 1e-14 * abs(q_old):
        return np.asarray(theta_new)

    def neg_q(vec):
        return -old_q_value(form, vec, points, w_tot, v_tot)

    alt = minimize(neg_q, np.asarray(theta_old, dtype=float), method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 2000})
    if -alt.fun >= q_old:
        return np.asarray(alt.x)
    return np.asarray(theta_old, dtype=float)


def old_em_map(engine, theta, pi, inner_tol):
    """One EM update of (theta, pi); returns it with the input's log-lik."""
    active, block, ll, w = old_e_step(engine, theta, pi)
    w_tot = w.sum(axis=0)
    v_tot = np.einsum("ij,ij->j", w, block) / 2.0
    pi_new = np.zeros_like(pi)
    pi_new[active] = w_tot / w_tot.sum()
    theta_new = old_m_step_theta(
        engine.form, theta, engine.points[active], w_tot, v_tot, inner_tol)
    return theta_new, pi_new, ll


def assert_m_step_reaches_oracle_q(form, theta, points, w, v):
    """The M-step from theta never lowers Q and reaches the replaced
    M-step's Q, each within 1e-12 relative."""
    new = solve_weighted_equations(form, points, v / w, w, init=theta,
                                   tol=1e-9).theta_hat
    with np.errstate(all="ignore"):  # the replaced solver can overflow
        q_oracle = old_q_value(form, old_m_step_theta(form, theta, points, w,
                                                      v, 1e-9), points, w, v)
    q_old = old_q_value(form, theta, points, w, v)
    q_new = old_q_value(form, new, points, w, v)
    assert q_new >= q_old - 1e-12 * abs(q_old)
    assert q_new >= q_oracle - 1e-12 * abs(q_oracle)


def old_extrapolate(x0, x1, x2, step_bound):
    r = x1 - x0
    v = (x2 - x1) - r
    vnorm = float(np.linalg.norm(v))
    if vnorm < 1e-300:
        return None, 1.0
    alpha = -float(np.linalg.norm(r)) / vnorm
    alpha = min(max(alpha, -step_bound), -1.0)
    return x0 - 2.0 * alpha * r + alpha * alpha * v, -alpha


def old_em_fit(data, grid, init, tol=1e-8, max_iter=2000, accelerate=True,
               theta_tol=math.inf, inner_tol=1e-9):
    """Returns (theta, pi, log-lik, maps). Converged once one plain EM step
    raises the log-likelihood by at most tol relative and, for a tight
    oracle, moves theta by at most theta_tol; along a flat ridge in theta
    that also needs M-steps solved beyond the default inner_tol."""
    engine = mixture_em._EmEngine(data, grid, init.form)
    n_par = init.form.n_params
    x = np.concatenate([init.theta, np.full(grid.J, 1.0 / grid.J)])

    def mapped(x):
        t, p, ll = old_em_map(engine, x[:n_par], x[n_par:], inner_tol)
        return np.concatenate([t, p]), ll

    used = 0
    step_bound = 4.0
    while used < max_iter:
        x1, ll0 = mapped(x)
        x2, ll1 = mapped(x1)
        used += 2
        if (ll1 - ll0 <= tol * abs(ll0)
                and np.max(np.abs(x2[:n_par] - x1[:n_par])) <= theta_tol):
            x = x1
            break
        if not accelerate:
            x = x2
            continue
        cand, step_len = old_extrapolate(x, x1, x2, step_bound)
        if cand is None:
            x = x2
            continue
        p_c = np.where(x2[n_par:] > 0.0, np.clip(cand[n_par:], 1e-15, None), 0.0)
        cand[n_par:] = p_c / p_c.sum()
        x3, ll_c = mapped(cand)
        used += 1
        if ll_c >= ll1:
            x = x3
            if step_len >= step_bound:
                step_bound *= 4.0
        else:
            x = x2
            step_bound = max(1.0, step_bound / 4.0)
    theta, pi = x[:n_par], x[n_par:]
    return theta, pi, old_e_step(engine, theta, pi)[2], used


def subnormal_share(ds, grid, model):
    """Share of log-joint entries, relative to their row maximum, that
    fall where float64 exp is subnormal, at uniform weights."""
    engine = mixture_em._EmEngine(ds, grid, model.form)
    h = model(engine.points)
    lj = engine.sq_dev * (-0.5 / h)[None, :] - np.log(h)[None, :]
    lj -= lj.max(axis=1, keepdims=True)
    return float(np.mean((lj < EXP_SUBNORMAL) & (lj >= EXP_UNDERFLOW)))


def kkt_scores(ds, grid, est, form):
    """u_j = (1/n) sum_i f_ij / sum_k pi_k f_ik at the estimate, in log
    space: at most 1, and 1 wherever pi_j > 0, when pi maximizes the
    likelihood at theta."""
    pts = grid.array
    h = VarianceModel(form, est.theta_hat)(pts)
    log_f = (-np.log(2.0 * np.pi * h)
             - ((ds.y1[:, None] - pts) ** 2 + (ds.y2[:, None] - pts) ** 2)
             / (2.0 * h))
    with np.errstate(divide="ignore"):
        log_pi = np.log(est.pi_hat)
    log_mix = logsumexp(log_f + log_pi, axis=1)
    return np.exp(log_f - log_mix[:, None]).mean(axis=0)


def bench_control(n):
    """The benchmark's fixed control set of n pairs (seed 0)."""
    seed = int(np.random.SeedSequence([0, 0]).spawn(1)[0].generate_state(1)[0])
    return generate_dataset(
        Scenario(ScenarioKind.UNIFORM_CONTINUOUS, n=n, seed=seed, lo=8.0, hi=12.0),
        exp_linear(4.84, -0.927), bounds=(7.3, 13.9))


class TestSqDeviations:
    def test_equal_to_the_three_temporary_expression(self):
        rng = np.random.default_rng(23)
        y1, y2 = rng.uniform(7.0, 14.0, (2, 300))
        y1[:3] = [1e150, -1e150, 0.0]       # some squares overflow to inf
        points = np.concatenate([rng.uniform(7.3, 13.9, 97), [-1e200, 0.0, 1e-300]])
        data = dataset_from_arrays(y1, y2)
        with np.errstate(over="ignore"):
            old = ((data.y1[:, None] - points[None, :]) ** 2
                   + (data.y2[:, None] - points[None, :]) ** 2)
        assert np.array_equal(mixture_em._sq_deviations(data, points), old)


class TestEngineOracle:
    """em_fit against the EM it replaced: plain E-step and M-step maps,
    without extrapolation, run until theta stops moving."""

    CASES = {
        "exp-linear": (VarianceForm.EXP_LINEAR, (5.0, -1.0), 8.0, 12.0),
        "power": (VarianceForm.POWER, (5.0, -4.0), 8.0, 12.0),
        "exp-linear-const": (VarianceForm.EXP_LINEAR_CONST,
                             (4.84, -0.927, -4.0), 8.0, 12.0),
        # small variance over a short range: the log joint spans ~[-900, 0]
        "subnormal-band": (VarianceForm.EXP_LINEAR, (-4.6, -0.05), 8.0, 11.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_em_fit_matches_plain_e_step(self, case):
        form, theta, lo, hi = self.CASES[case]
        model = VarianceModel(form, theta)
        ds = simulate_dataset(100, theta, seed=31, lo=lo, hi=hi, form=form)
        grid = build_support(model, 7.3, 13.9, 1.0)
        if case == "subnormal-band":
            assert subnormal_share(ds, grid, model) > 0.01
        tol = 1e-10
        est = em_fit(ds, grid, model, tol=tol, inner_tol=1e-12)
        theta_o, pi_o, ll_o, maps = old_em_fit(
            ds, grid, model, tol=1e-14, max_iter=20000, accelerate=False,
            theta_tol=1e-12, inner_tol=1e-12)
        assert maps < 20000
        assert est.converged and est.iterations < 60
        assert np.max(np.abs(np.subtract(est.theta_hat, theta_o))) <= 1e-6
        assert est.log_lik >= ll_o - 1e-9
        assert est.kkt_gap <= tol
        u = kkt_scores(ds, grid, est, form)
        assert np.max(u) - 1.0 == pytest.approx(est.kkt_gap, abs=1e-12)
        support = np.asarray(est.pi_hat) > 0.0
        assert np.all(np.abs(u[support] - 1.0) <= tol)
        assert est.active_points < np.count_nonzero(pi_o)

    # the replaced EM stopped short of the maximum, most of all in pi
    @pytest.mark.parametrize("n, gain", [(300, 0.0026), (1000, 0.016)])
    def test_beats_replaced_em_on_benchmark_control_sets(self, n, gain):
        ds = bench_control(n)
        est, grid = fit_mixture(ds)
        model0 = exp_linear(*macl_fit(ds).theta_hat)
        _, _, ll_old, _ = old_em_fit(ds, grid, model0)
        assert est.converged and est.kkt_gap <= mixture_em.DEFAULT_TOL
        assert est.log_lik >= ll_old + gain

    # An M-step whose gain in Q fell below rounding used to be rejected, so
    # the fit stopped early, up to 1.1e-7 from the same fit at tol 1e-10.
    # The gap is now 9.8e-9 (n = 1000) and 5.7e-9 (n = 300), the same under
    # every BLAS thread count.
    @pytest.mark.parametrize("n", [300, 1000])
    def test_fit_at_default_tol_is_near_the_tight_fit(self, n):
        ds = bench_control(n)
        loose, _ = fit_mixture(ds, tol=1e-8)
        tight, _ = fit_mixture(ds, tol=1e-10)
        assert loose.converged and tight.converged
        assert np.max(np.abs(np.subtract(loose.theta_hat,
                                         tight.theta_hat))) <= 3e-8


class TestEmFit:
    def test_single_point_grid_forced_mixture(self):
        ds = simulate_dataset(200, (5.0, -1.0), seed=4)
        grid = SupportGrid(points=(10.0,), spacing_d=0.25)
        est = em_fit(ds, grid, exp_linear(5.0, -1.0))
        assert est.pi_hat == (1.0,)
        # with all mass at mu1 the fitted variance is the mean squared
        # deviation around mu1
        t = (ds.y1 - 10.0) ** 2 + (ds.y2 - 10.0) ** 2
        target = float(np.mean(t)) / 2.0
        fitted = float(VarianceModel(VarianceForm.EXP_LINEAR, est.theta_hat)(10.0))
        assert fitted == pytest.approx(target, rel=1e-6)

    def test_ascent_on_random_small_datasets(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            n = int(rng.integers(5, 51))
            t1 = float(rng.uniform(1.0, 6.0))
            t2 = float(rng.uniform(-1.2, -0.2))
            mus = rng.uniform(8.0, 12.0, n)
            sd = np.sqrt(np.exp(t1 + t2 * mus))
            ds = dataset_from_arrays(rng.normal(mus, sd), rng.normal(mus, sd))
            j = int(rng.integers(2, 11))
            grid = SupportGrid(points=tuple(np.linspace(7.5, 13.5, j)),
                               spacing_d=0.5)
            est = em_fit(ds, grid, exp_linear(t1, t2), max_iter=300)
            path = np.asarray(est.log_lik_path)
            assert np.all(np.diff(path) >= -1e-8)
            assert abs(sum(est.pi_hat) - 1.0) < 1e-12
            w = responsibilities(ds, exp_linear(*est.theta_hat), grid,
                                 est.pi_hat)
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-10

    def test_deterministic(self):
        ds = simulate_dataset(150, (5.0, -1.0), seed=6)
        grid = build_support(exp_linear(5.0, -1.0), 7.3, 13.9, 0.5)
        a = em_fit(ds, grid, exp_linear(5.0, -0.9))
        b = em_fit(ds, grid, exp_linear(5.0, -0.9))
        assert a.theta_hat == b.theta_hat
        assert a.pi_hat == b.pi_hat
        assert a.log_lik == b.log_lik

    def test_iterations_never_exceed_max_iter(self):
        ds = simulate_dataset(300, (4.84, -0.927), seed=13)
        grid = build_support(exp_linear(4.84, -0.927), 7.3, 13.9, 0.25)
        for max_iter in range(1, 13):
            est = em_fit(ds, grid, exp_linear(4.84, -0.927), max_iter=max_iter)
            assert not est.converged
            assert est.iterations <= max_iter
            # one entry per pi solve and per theta step between them
            assert len(est.log_lik_path) == 2 * est.iterations - 1

    def test_exact_budget_keeps_converged_count(self):
        ds = simulate_dataset(150, (5.0, -1.0), seed=6)
        grid = build_support(exp_linear(5.0, -1.0), 7.3, 13.9, 0.5)
        full = em_fit(ds, grid, exp_linear(5.0, -0.9))
        tight = em_fit(ds, grid, exp_linear(5.0, -0.9), max_iter=full.iterations)
        assert full.converged and tight.converged
        assert tight == full

    def test_counts_mstep_fallbacks(self, monkeypatch):
        # a non-finite Jacobian leaves the M-step solver no Newton
        # direction, so every M-step takes Fisher-scoring steps
        real = macl._evaluate

        def nan_jacobian(*args):
            ell, f, jac = real(*args)
            return ell, f, None if jac is None else np.full_like(jac, np.nan)

        monkeypatch.setattr(macl, "_evaluate", nan_jacobian)
        model = VarianceModel(VarianceForm.POWER, (5.0, -4.0))
        ds = simulate_dataset(60, model.theta, seed=3, form=VarianceForm.POWER)
        grid = SupportGrid(points=tuple(np.linspace(8.0, 12.0, 5)), spacing_d=1.0)
        est = em_fit(ds, grid, model, max_iter=5)
        # a theta step follows every pi solve but the last
        assert est.mstep_fallbacks == est.iterations - 1 == 4
        assert np.all(np.diff(est.log_lik_path) >= -1e-8)

    @pytest.mark.parametrize("form,theta", [
        (VarianceForm.EXP_LINEAR, (5.0, -1.0)),
        (VarianceForm.POWER, (5.0, -4.0)),
        (VarianceForm.EXP_LINEAR_CONST, (4.84, -0.927, -4.0)),
    ])
    def test_every_form_steps_through_weighted_equations(self, monkeypatch,
                                                         form, theta):
        def unused(*args, **kwargs):
            raise AssertionError("the M-step called Nelder-Mead")

        calls = []
        real = mixture_em.solve_weighted_equations

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(mixture_em, "solve_weighted_equations", counted)
        monkeypatch.setattr(mixture_em, "minimize", unused)
        model = VarianceModel(form, theta)
        ds = simulate_dataset(150, theta, seed=6, form=form)
        grid = build_support(model, 7.3, 13.9, 0.5)
        est = em_fit(ds, grid, model)
        assert est.converged and est.mstep_fallbacks == 0
        assert calls == [form] * (est.iterations - 1)

    def test_diagnostics(self):
        ds = simulate_dataset(150, (5.0, -1.0), seed=6)
        grid = build_support(exp_linear(5.0, -1.0), 7.3, 13.9, 0.5)
        est = em_fit(ds, grid, exp_linear(5.0, -0.9))
        assert est.converged
        assert 0.0 <= est.kkt_gap <= mixture_em.DEFAULT_TOL
        assert est.inner_iterations >= est.iterations
        assert est.active_points == np.count_nonzero(est.pi_hat)
        assert est.log_lik == est.log_lik_path[-1]
        assert len(est.log_lik_path) == 2 * est.iterations - 1
        assert est.log_lik == pytest.approx(
            mixture_log_lik(ds, exp_linear(*est.theta_hat), grid, est.pi_hat),
            abs=1e-9)

    def test_max_iter_must_be_positive(self):
        ds = simulate_dataset(20, (5.0, -1.0), seed=6)
        grid = SupportGrid(points=(9.0, 10.0), spacing_d=1.0)
        with pytest.raises(ValueError):
            em_fit(ds, grid, exp_linear(5.0, -1.0), max_iter=0)

    @pytest.mark.parametrize("form", [VarianceForm.EXP_LINEAR,
                                      VarianceForm.POWER])
    def test_m_step_never_lowers_q(self, form):
        # Q is concave for these two forms: the M-step reaches the replaced
        # M-step's Q on random weights, from any start
        rng = np.random.default_rng(17)
        for _ in range(300):
            j = int(rng.integers(1, 30))
            points = np.sort(rng.uniform(7.3, 13.9, j))
            w = rng.exponential(1.0, j) * 10.0 ** rng.uniform(-3, 3, j)
            v = w * rng.exponential(1.0, j) * np.exp(rng.uniform(-6, 4))
            theta = np.array([rng.uniform(-5, 8), rng.uniform(-2, 1)])
            assert_m_step_reaches_oracle_q(form, theta, points, w, v)

    @pytest.mark.parametrize("form,theta", [
        (VarianceForm.EXP_LINEAR, (5.0, -1.0)),
        (VarianceForm.POWER, (5.0, -4.0)),
        (VarianceForm.EXP_LINEAR_CONST, (4.84, -0.927, -4.0)),
    ])
    def test_m_step_never_lowers_q_along_em_fits(self, monkeypatch, form,
                                                 theta):
        # Q need not be concave for the const form, so its M-steps are
        # checked where the fit makes them: from the previous theta, at the
        # responsibilities of each outer iteration
        inputs = []
        real = mixture_em.solve_weighted_equations

        def recorded(form, m, s, w, init, tol):
            inputs.append((np.array(init), m, w, s * w))
            return real(form, m, s, w, init=init, tol=tol)

        monkeypatch.setattr(mixture_em, "solve_weighted_equations", recorded)
        model = VarianceModel(form, theta)
        for seed in range(3):
            ds = simulate_dataset(100, theta, seed=40 + seed, form=form)
            em_fit(ds, build_support(model, 7.3, 13.9, 0.5), model)
        assert len(inputs) > 30
        for start, points, w, v in inputs:
            assert_m_step_reaches_oracle_q(form, start, points, w, v)

    def test_mixture_estimate_validation(self):
        with pytest.raises(ValueError):
            MixtureEstimate(theta_hat=(1.0, -1.0), pi_hat=(0.5, 0.4),
                            log_lik=0.0, iterations=1, converged=True)
        with pytest.raises(ValueError):
            MixtureEstimate(theta_hat=(1.0, -1.0), pi_hat=(1.5, -0.5),
                            log_lik=0.0, iterations=1, converged=True)


@pytest.mark.slow
class TestGridInsensitivity:
    def test_halving_spacing_barely_moves_estimate(self):
        ds = simulate_dataset(2000, (5.0, -1.0), seed=12)
        coarse, _ = fit_mixture(ds, d=0.25)
        fine, _ = fit_mixture(ds, d=0.125)
        assert abs(coarse.theta_hat[0] - fine.theta_hat[0]) < 0.05
        assert abs(coarse.theta_hat[1] - fine.theta_hat[1]) < 0.05


def unflushed_hessian(L, lp, cols):
    """The pi solve's Hessian as it was before entries of d below
    mixture_em._FLUSH were set to 0, kept as the oracle of the flush."""
    d = L[:, cols]
    d /= lp[:, None]
    hess = np.einsum("ij,ik->jk", d, d)
    hess /= L.shape[0]
    hess.flat[::cols.size + 1] += mixture_em._RIDGE
    return hess


def scipy_factor(hess, g):
    """The pi solve's factor and forward solve as they were before
    mixture_em._factor, through LAPACK: the oracle of the numpy kernel."""
    chol = cholesky(hess, lower=True, check_finite=False)
    return chol, solve_triangular(chol, g, lower=True)


# Fits each TestFlushedHessian case and prints theta, pi and the likelihood
# path as JSON, whose floats round-trip exactly.
THREADS_CHILD = """
import json
from pairvar.mixture_em import fit_mixture
from test_mixture_em import TestFlushedHessian
fits = {case: fit_mixture(*make())[0]
        for case, make in TestFlushedHessian.CASES.items()}
print(json.dumps({case: [e.theta_hat, e.pi_hat, e.log_lik_path]
                  for case, e in fits.items()}))
"""


@pytest.fixture(scope="module")
def fits_by_blas_threads():
    """THREADS_CHILD's output under 1 and under 2 OpenBLAS threads, each
    set in the child's environment only."""
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    fits = {}
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run([sys.executable, "-c", THREADS_CHILD], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        fits[threads] = json.loads(proc.stdout)
    return fits


class TestFlushedHessian:
    CASES = {
        "control-1000": lambda: (bench_control(1000), VarianceForm.EXP_LINEAR),
        "control-300": lambda: (bench_control(300), VarianceForm.EXP_LINEAR),
        "power": lambda: (simulate_dataset(500, (5.0, -4.0), seed=7,
                                           form=VarianceForm.POWER),
                          VarianceForm.POWER),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fit_is_bit_identical_to_the_unflushed_one(self, monkeypatch,
                                                       case):
        ds, form = self.CASES[case]()
        flushed = []

        def counted(L, lp, cols):
            flushed.append(np.count_nonzero(L[:, cols] / lp[:, None]
                                            < mixture_em._FLUSH))
            return hessian(L, lp, cols)

        hessian = mixture_em._hessian
        monkeypatch.setattr(mixture_em, "_hessian", counted)
        new, _ = fit_mixture(ds, form)
        monkeypatch.setattr(mixture_em, "_hessian", unflushed_hessian)
        old, _ = fit_mixture(ds, form)
        assert sum(flushed) > 0  # the flush acts on these fits
        assert new.theta_hat == old.theta_hat
        assert new.pi_hat == old.pi_hat
        assert new.log_lik_path == old.log_lik_path

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fit_matches_the_scipy_factor(self, monkeypatch, case):
        ds, form = self.CASES[case]()
        new, _ = fit_mixture(ds, form)
        monkeypatch.setattr(mixture_em, "_factor", scipy_factor)
        old, _ = fit_mixture(ds, form)
        assert np.max(np.abs(np.subtract(new.theta_hat,
                                         old.theta_hat))) <= 1e-10
        assert new.iterations == old.iterations
        assert new.inner_iterations == old.inner_iterations
        assert new.log_lik >= old.log_lik - 1e-9
        assert new.converged and new.kkt_gap <= mixture_em.DEFAULT_TOL

    # the threaded LAPACK factor moved theta's last bits with the count
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fit_is_bit_identical_under_1_and_2_blas_threads(
            self, fits_by_blas_threads, case):
        theta1, pi1, path1 = fits_by_blas_threads[1][case]
        theta2, pi2, path2 = fits_by_blas_threads[2][case]
        assert theta1 == theta2
        assert pi1 == pi2
        assert path1 == path2


class TestFactorOracle:
    """mixture_em._factor against the LAPACK factor it replaced. At the
    condition numbers of the control fits (up to 4.1e12) the two factors
    of one Hessian differ by up to 5e-6 of their largest entry, with the
    same backward error, so the tests compare backward errors and fit
    outcomes, not entries."""

    @staticmethod
    def assert_backward_stable(hess, g):
        chol, w = mixture_em._factor(hess, g)
        assert np.array_equal(chol, np.tril(chol))
        assert np.all(np.diag(chol) > 0.0)
        scale = np.max(np.abs(hess))
        assert np.max(np.abs(chol @ chol.T - hess)) <= 1e-14 * scale
        assert np.max(np.abs(chol @ w - g)) <= 1e-11

    @pytest.fixture(scope="class")
    def control_steps(self):
        """Every (Hessian, 2u - 1) the pi solve factors along the fits of
        the two bench control sets, by n."""
        factor, steps = mixture_em._factor, {}
        with pytest.MonkeyPatch.context() as mp:
            for n in (1000, 300):
                seen = steps[n] = []

                def recorded(hess, g, seen=seen):
                    seen.append((hess.copy(), g.copy()))
                    return factor(hess, g)

                mp.setattr(mixture_em, "_factor", recorded)
                fit_mixture(bench_control(n))
        return steps

    @pytest.mark.parametrize("n, first, count", [(1000, 175, 48),
                                                 (300, 145, 58)])
    def test_every_step_of_the_control_fits(self, control_steps, n, first,
                                            count):
        steps = control_steps[n]
        assert len(steps) == count
        assert steps[0][1].size == first
        for hess, g in steps:
            self.assert_backward_stable(hess, g)

    def test_ridge_only_hessian(self):
        # columns of L that vanish leave the ridge alone on the diagonal
        L = np.column_stack([np.ones(4), np.zeros(4), np.zeros(4)])
        hess = mixture_em._hessian(L, np.ones(4), np.array([1, 2]))
        assert np.array_equal(hess, mixture_em._RIDGE * np.eye(2))
        self.assert_backward_stable(hess, np.array([-1.0, 0.5]))

    def test_one_column(self):
        self.assert_backward_stable(np.array([[0.7]]), np.array([0.3]))

    @pytest.mark.parametrize("pivot", [-3.0, 0.0, math.nan])
    def test_bad_pivot_names_the_working_set_size(self, pivot):
        hess = np.diag([1.0, 2.0, pivot])
        with pytest.raises(NumericalError,
                           match=f"pivot {pivot!r} in 3-point Hessian"):
            mixture_em._factor(hess, np.ones(3))

    def test_indefinite_hessian_in_a_fit_is_a_numerical_error(self,
                                                              monkeypatch):
        def indefinite(L, lp, cols):
            return np.eye(cols.size) - 2.0

        monkeypatch.setattr(mixture_em, "_hessian", indefinite)
        ds = simulate_dataset(50, (5.0, -1.0), seed=3)
        grid = build_support(exp_linear(5.0, -1.0), 7.3, 13.9, 1.0)
        with pytest.raises(NumericalError, match=r"-point Hessian$"):
            em_fit(ds, grid, exp_linear(5.0, -1.0))

    @pytest.mark.parametrize("error", [
        RuntimeError("Maximum number of iterations reached."),
        ValueError("array must not contain infs or NaNs")])
    def test_nnls_failure_is_a_numerical_error(self, monkeypatch, error):
        def failing(A, b):
            raise error

        monkeypatch.setattr("scipy.optimize.nnls", failing)
        ds = simulate_dataset(50, (5.0, -1.0), seed=3)
        grid = build_support(exp_linear(5.0, -1.0), 7.3, 13.9, 1.0)
        with pytest.raises(NumericalError,
                           match=r"NNLS failed on \d+ points: " + str(error)):
            em_fit(ds, grid, exp_linear(5.0, -1.0))
