import numpy as np
import pytest

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


class TestMaclFit:
    def test_constant_variance_closed_form(self):
        # With the slope pinned at zero the solution is exp(t1) = mean(S^2):
        # here S^2 = {2, 0} so the fitted constant variance is 1.
        ds = dataset_from_arrays([0.0, 1.0], [2.0, 1.0])
        res = macl_fit(ds, fix={1: 0.0})
        assert res.converged
        assert np.exp(res.theta_hat[0]) == pytest.approx(1.0, abs=1e-12)
        assert res.theta_hat[1] == 0.0

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

    def test_unusable_jacobian_reports_fallback(self, monkeypatch):
        # a non-finite Jacobian stalls Newton at once, so only the
        # Nelder-Mead polish can solve the equations
        monkeypatch.setattr(macl, "_score_jacobian",
                            lambda *args: np.full((2, 2), np.nan))
        rng = np.random.default_rng(4)
        m = rng.uniform(8, 12, 40)
        s = np.exp(5 - m) * rng.chisquare(1, 40)
        res = solve_weighted_equations(VarianceForm.EXP_LINEAR, m, s,
                                       init=(5.0, -1.0), tol=1e-6)
        assert res.fallback
        assert res.residual_norm <= 1e-6 and res.converged

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
