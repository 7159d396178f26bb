import math

import numpy as np
import pytest
from scipy.optimize import minimize

from pairvar import macl
from pairvar.errors import ConvergenceError, NumericalError
from pairvar.macl import default_init, macl_fit, mle_homoscedastic, solve_weighted_equations
from pairvar.model import PairedDataset, VarianceForm, VarianceModel

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def dataset_from_arrays(y1, y2, bounds=(7.3, 13.9)):
    return PairedDataset([str(i) for i in range(len(y1))], y1, y2, bounds)


def simulate_dataset(n, theta, seed, lo=8.0, hi=12.0):
    rng = np.random.default_rng(seed)
    mus = rng.uniform(lo, hi, n)
    sd = np.sqrt(np.exp(theta[0] + theta[1] * mus))
    return dataset_from_arrays(rng.normal(mus, sd), rng.normal(mus, sd))


def simulate_form(n, form, theta, seed):
    """n pairs with means from Uniform(8, 12) under any variance form."""
    rng = np.random.default_rng(seed)
    mus = rng.uniform(8.0, 12.0, n)
    sd = np.sqrt(VarianceModel(form, theta)(mus))
    return dataset_from_arrays(rng.normal(mus, sd), rng.normal(mus, sd))


def weighted_log_lik(form, theta, m, s, w):
    h = VarianceModel(form, tuple(theta))(m)
    return -float(np.sum(w * (np.log(h) + s / h))) / float(w.sum())


# The damped-Newton solver with a Nelder-Mead polish that the Newton
# ascent replaced, kept as an oracle. It drove the squared residual norm
# of the equations down and returned its best iterate.


def old_h_derivatives(form, theta, mu):
    """Gradient and Hessian of h itself in theta."""
    t = theta
    if form is VarianceForm.POWER:
        h = np.exp(t[0]) * mu ** t[1]
        lm = np.log(mu)
        return (np.stack([h, h * lm]),
                np.stack([np.stack([h, h * lm]), np.stack([h * lm, h * lm * lm])]))
    e = np.exp(t[0] + t[1] * mu)
    if form is VarianceForm.EXP_LINEAR:
        return (np.stack([e, mu * e]),
                np.stack([np.stack([e, mu * e]), np.stack([mu * e, mu * mu * e])]))
    c = np.full_like(e, math.exp(t[2]))
    z = np.zeros_like(e)
    return (np.stack([e, mu * e, c]),
            np.stack([np.stack([e, mu * e, z]), np.stack([mu * e, mu * mu * e, z]),
                      np.stack([z, z, c])]))


def old_score(form, theta, m, s, w, total_w, jacobian=False):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = VarianceModel(form, tuple(theta))(m)
        grad, hess = old_h_derivatives(form, theta, m)
        if not jacobian:
            return ((grad / h**2) * (w * (s - h))).sum(axis=1) / total_w
        term1 = hess / h**2 - 2.0 * grad[:, None, :] * grad[None, :, :] / h**3
        term2 = grad[:, None, :] * grad[None, :, :] / h**2
        return ((term1 * (s - h) - term2) * w).sum(axis=2) / total_w


def old_solve_weighted_equations(form, m, s, weights=None, init=None,
                                 tol=1e-9, max_iter=200):
    """(theta, converged, fallback) of the replaced solver, all coefficients free."""
    w = np.ones_like(m) if weights is None else np.asarray(weights, dtype=float)
    total_w = float(w.sum())
    theta = np.array(default_init(form, m, s) if init is None else init, dtype=float)

    def score_at(vec):
        return old_score(form, vec, m, s, w, total_w)

    f = score_at(theta)
    best = (theta.copy(), float(np.max(np.abs(f))))
    stalled = False
    for _ in range(max_iter):
        if float(np.max(np.abs(f))) <= tol:
            return tuple(theta), True, False
        jac = old_score(form, theta, m, s, w, total_w, jacobian=True)
        if not np.all(np.isfinite(jac)):
            stalled = True
            break
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            stalled = True
            break
        norm2 = float(f @ f)
        lam = 1.0
        while lam >= 2.0**-30:
            cand = theta + lam * step
            fc = score_at(cand)
            if np.all(np.isfinite(fc)) and float(fc @ fc) < norm2:
                theta, f = cand, fc
                break
            lam /= 2.0
        else:
            stalled = True
            break
        if float(np.max(np.abs(f))) < best[1]:
            best = (theta.copy(), float(np.max(np.abs(f))))
    fallback = stalled or best[1] > tol
    if fallback:
        def objective(x):
            fx = score_at(x)
            return float(fx @ fx) if np.all(np.isfinite(fx)) else 1e300

        res = minimize(objective, theta, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": tol**2 * 1e-4,
                                "maxiter": 4000, "maxfev": 4000})
        cur = float(np.max(np.abs(score_at(res.x))))
        if cur < best[1]:
            best = (res.x, cur)
    return tuple(best[0]), best[1] <= tol, fallback


class TestMaclFit:
    def test_constant_variance_closed_form(self):
        # With the slope pinned at zero the solution is exp(t1) = mean(S^2):
        # here S^2 = {2, 0} so the fitted constant variance is 1.
        ds = dataset_from_arrays([0.0, 1.0], [2.0, 1.0])
        res = macl_fit(ds, fix={1: 0.0})
        assert res.converged
        assert np.exp(res.theta_hat[0]) == pytest.approx(1.0, abs=1e-12)
        assert res.theta_hat[1] == 0.0
        # only the free coefficient's equation has to vanish
        ds = simulate_dataset(500, (5.0, -1.0), seed=11)
        res = macl_fit(ds, fix={1: 0.0})
        assert np.exp(res.theta_hat[0]) == pytest.approx(np.mean(ds.s2), rel=1e-9)

    def test_estimating_equations_satisfied_at_solution(self):
        ds = simulate_dataset(500, (5.0, -1.0), seed=11)
        res = macl_fit(ds, tol=1e-9)
        t1, t2 = res.theta_hat
        w = ds.s2 * np.exp(-t1 - t2 * ds.ybar)
        eq1 = 1.0 - np.mean(w)
        eq2 = np.mean(ds.ybar) - np.mean(ds.ybar * w)
        assert abs(eq1) <= 1e-9
        assert abs(eq2) <= 1e-9
        assert res.residual_norm <= 1e-9

    def test_recovers_slope_on_synthetic_data(self):
        hits = 0
        for seed in range(20):
            ds = simulate_dataset(2000, (5.0, -1.0), seed=seed)
            res = macl_fit(ds)
            if abs(res.theta_hat[1] + 1.0) < 0.08:
                hits += 1
        assert hits >= 19

    def test_deterministic(self):
        ds = simulate_dataset(300, (5.0, -1.0), seed=3)
        a = macl_fit(ds)
        b = macl_fit(ds)
        assert a.theta_hat == b.theta_hat

    def test_shift_equivariance_of_fitted_curve(self):
        # Shifting every measurement by c shifts the fitted curve: the
        # variance at mu+c after the shift equals the original at mu.
        ds = simulate_dataset(1000, (5.0, -1.0), seed=5)
        c = 1.7
        shifted = dataset_from_arrays(ds.y1 + c, ds.y2 + c)
        orig = macl_fit(ds)
        shift = macl_fit(shifted)
        mus = np.linspace(8.0, 12.0, 9)
        h0 = VarianceModel(VarianceForm.EXP_LINEAR, orig.theta_hat)(mus)
        h1 = VarianceModel(VarianceForm.EXP_LINEAR, shift.theta_hat)(mus + c)
        assert np.allclose(h0, h1, rtol=1e-6)

    def test_power_form_fit(self):
        rng = np.random.default_rng(21)
        mus = rng.uniform(8.0, 12.0, 3000)
        theta = (6.0, -3.0)  # exp(6) * mu^-3
        sd = np.sqrt(np.exp(theta[0]) * mus ** theta[1])
        ds = dataset_from_arrays(rng.normal(mus, sd), rng.normal(mus, sd))
        res = macl_fit(ds, form=VarianceForm.POWER)
        assert res.converged
        assert res.theta_hat[1] == pytest.approx(-3.0, abs=0.6)

    def test_exp_linear_const_fit_runs(self):
        rng = np.random.default_rng(8)
        mus = rng.uniform(8.0, 12.0, 4000)
        h = np.exp(5.0 - 1.0 * mus) + np.exp(-6.0)
        sd = np.sqrt(h)
        ds = dataset_from_arrays(rng.normal(mus, sd), rng.normal(mus, sd))
        res = macl_fit(ds, form=VarianceForm.EXP_LINEAR_CONST, max_iter=500)
        fitted = VarianceModel(VarianceForm.EXP_LINEAR_CONST, res.theta_hat)
        mus_chk = np.linspace(8.5, 11.5, 7)
        true = np.exp(5.0 - mus_chk) + np.exp(-6.0)
        assert np.allclose(fitted(mus_chk), true, rtol=0.35)

    def test_degenerate_data_rejected(self):
        ds = dataset_from_arrays([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(NumericalError):
            macl_fit(ds)

    def test_too_few_pairs_rejected(self):
        ds = dataset_from_arrays([1.0, 2.0], [2.0, 1.0])
        with pytest.raises(ValueError):
            macl_fit(ds)

    def test_nonconvergence_carries_best_iterate(self):
        ds = simulate_dataset(200, (5.0, -1.0), seed=13)
        with pytest.raises(ConvergenceError) as exc:
            macl_fit(ds, tol=1e-9, max_iter=1, init=(20.0, 3.0))
        assert exc.value.theta is not None
        assert exc.value.residual_norm is not None

    def test_explicit_init_respected(self):
        ds = simulate_dataset(500, (5.0, -1.0), seed=17)
        res = macl_fit(ds, init=(4.0, -0.8))
        assert res.converged


class TestWeightedSolver:
    def test_weights_reproduce_replication(self):
        # Integer weights must act exactly like repeated observations.
        rng = np.random.default_rng(4)
        m = rng.uniform(8, 12, 40)
        s = np.exp(5 - m) * rng.chisquare(1, 40)
        w = rng.integers(1, 4, 40).astype(float)
        rep_m = np.repeat(m, w.astype(int))
        rep_s = np.repeat(s, w.astype(int))
        a = solve_weighted_equations(VarianceForm.EXP_LINEAR, m, s, w)
        b = solve_weighted_equations(VarianceForm.EXP_LINEAR, rep_m, rep_s)
        assert np.allclose(a.theta_hat, b.theta_hat, atol=1e-7)

    def test_newton_path_reports_no_fallback(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(8, 12, 40)
        s = np.exp(5 - m) * rng.chisquare(1, 40)
        res = solve_weighted_equations(VarianceForm.EXP_LINEAR, m, s)
        assert res.converged and not res.fallback

    @pytest.mark.parametrize("form,theta", [
        (VarianceForm.EXP_LINEAR, (4.84, -0.927)),
        (VarianceForm.POWER, (6.0, -3.0)),
        (VarianceForm.EXP_LINEAR_CONST, (4.84, -0.927, -5.0)),
    ])
    def test_log_lik_never_falls_along_the_path(self, form, theta):
        # the solver is deterministic, so the fit capped at k steps is the
        # path's k-th iterate
        ds = simulate_form(600, form, theta, seed=2)
        w = np.ones(ds.n)
        path = [weighted_log_lik(form, solve_weighted_equations(
                    form, ds.ybar, ds.s2, max_iter=k).theta_hat,
                    ds.ybar, ds.s2, w) for k in range(12)]
        assert np.all(np.diff(path) >= -1e-14 * (1.0 + np.abs(path[:-1])))
        assert path[-1] > path[0]

    def test_unusable_jacobian_reports_fallback(self, monkeypatch):
        # a non-finite Jacobian leaves no Newton direction, so every step
        # follows the gradient; the log-likelihood still never falls
        real = macl._evaluate

        def nan_jacobian(*args):
            ell, f, jac = real(*args)
            return ell, f, None if jac is None else np.full_like(jac, np.nan)

        monkeypatch.setattr(macl, "_evaluate", nan_jacobian)
        rng = np.random.default_rng(4)
        m = rng.uniform(8, 12, 40)
        s = np.exp(5 - m) * rng.chisquare(1, 40)
        w = np.ones_like(m)
        form = VarianceForm.EXP_LINEAR
        path = []
        for k in range(1, 30):
            res = solve_weighted_equations(form, m, s, init=(5.0, -1.0),
                                           tol=1e-6, max_iter=k)
            assert res.fallback
            path.append(weighted_log_lik(form, res.theta_hat, m, s, w))
        assert np.all(np.diff(path) >= -1e-14 * (1.0 + np.abs(path[:-1])))
        assert path[-1] > weighted_log_lik(form, (5.0, -1.0), m, s, w)

    def test_default_init_slope_sign(self):
        rng = np.random.default_rng(9)
        m = rng.uniform(8, 12, 500)
        s = np.exp(5 - m) * rng.chisquare(1, 500)
        init = default_init(VarianceForm.EXP_LINEAR, m, s)
        assert init[1] < 0


class TestHomoscedasticMle:
    def test_single_pair(self):
        ds = dataset_from_arrays([0.0], [2.0])
        assert mle_homoscedastic(ds) == pytest.approx(1.0)

    def test_tied_pairs_zero(self):
        ds = dataset_from_arrays([3.0, 3.0], [3.0, 3.0])
        assert mle_homoscedastic(ds) == 0.0

    def test_halves_true_variance(self):
        rng = np.random.default_rng(99)
        n = 10**5
        mus = rng.uniform(8, 12, n)
        y1 = rng.normal(mus, 2.0)
        y2 = rng.normal(mus, 2.0)
        ds = dataset_from_arrays(y1, y2)
        assert mle_homoscedastic(ds) == pytest.approx(2.0, abs=0.03)


class TestReplacedSolverOracle:
    CASES = {
        "exp-linear": (VarianceForm.EXP_LINEAR, (4.84, -0.927), 600),
        "power": (VarianceForm.POWER, (6.0, -3.0), 600),
        # at n = 600 the two solvers can reach different roots (below)
        "exp-linear-const": (VarianceForm.EXP_LINEAR_CONST,
                             (4.84, -0.927, -5.0), 2000),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_agrees_with_replaced_solver(self, case):
        # both solved to 1e-11: the roots then agree to ~1e-14 for the two
        # linear forms and to ~2e-10 for the const form
        form, theta, n = self.CASES[case]
        compared = 0
        for seed in range(20):
            ds = simulate_form(n, form, theta, seed)
            old, old_ok, _ = old_solve_weighted_equations(form, ds.ybar, ds.s2,
                                                          tol=1e-11)
            new = solve_weighted_equations(form, ds.ybar, ds.s2, tol=1e-11)
            assert new.converged
            if old_ok:
                compared += 1
                assert np.max(np.abs(np.subtract(new.theta_hat, old))) <= 1e-9
        assert compared >= 19

    def test_exp_linear_const_fits_where_replaced_solver_stalled(self):
        # The replaced solver fails on one of these sets, and on another
        # (seed 16) it stops at t3 = -27.5, where the constant vanishes: a
        # root of the equations but not a maximum of the log-likelihood.
        form = VarianceForm.EXP_LINEAR_CONST
        w = np.ones(600)
        for seed in range(20):
            ds = simulate_form(600, form, (4.84, -0.927, -5.0), seed)
            new = macl_fit(ds, form)
            old, old_ok, _ = old_solve_weighted_equations(form, ds.ybar, ds.s2)
            ell = weighted_log_lik(form, new.theta_hat, ds.ybar, ds.s2, w)
            if old_ok:
                assert ell >= weighted_log_lik(form, old, ds.ybar, ds.s2, w) - 1e-14
