"""Variance-function fitting by maximum approximate conditional likelihood.

The estimator solves, over the coefficient vector theta,

    sum_i (dh/dtheta_k)(theta, m_i) / h^2(theta, m_i) * (s_i - h(theta, m_i)) = 0

where m_i is the pair mean and s_i the pair variance statistic. For the
exp-linear form these are exactly the two classical estimating equations of
the Sadler-Smith scheme. A weighted variant of the same system doubles as
the M-step of the mixture fit, so the solver lives here and accepts weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError
from .model import PairedDataset, VarianceForm, VarianceModel

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200
_LS_EPS = 1e-12  # floor inside log() for the least-squares starting values


@dataclass(frozen=True)
class FitResult:
    """Solution of the estimating equations.

    residual_norm is the max absolute estimating-equation value at theta_hat,
    normalized by the total weight; converged implies residual_norm <= tol.
    fallback records whether the Newton iteration stalled or fell short
    and the Nelder-Mead polish ran.
    """

    theta_hat: tuple[float, ...]
    converged: bool
    iterations: int
    residual_norm: float
    fallback: bool = False

    def model(self, form: VarianceForm) -> VarianceModel:
        return VarianceModel(form, self.theta_hat)


def _score(model: VarianceModel, m: np.ndarray, s: np.ndarray,
           w: np.ndarray, total_w: float) -> np.ndarray:
    """Weight-normalized estimating equations at theta."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = model(m)
        g = model.gradient(m) / h**2
        f = (g * (w * (s - h))).sum(axis=1) / total_w
    return f


def _score_jacobian(model: VarianceModel, m: np.ndarray, s: np.ndarray,
                    w: np.ndarray, total_w: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = model(m)
        grad = model.gradient(m)
        hess = model.hessian(m)
        resid = s - h
        # d/dl of (h_k / h^2): h_kl / h^2 - 2 h_k h_l / h^3
        term1 = (hess / h**2 - 2.0 * grad[:, None, :] * grad[None, :, :] / h**3)
        term2 = grad[:, None, :] * grad[None, :, :] / h**2
        jac = ((term1 * resid - term2) * w).sum(axis=2) / total_w
    return jac


def default_init(form: VarianceForm, m: np.ndarray, s: np.ndarray,
                 fix: Mapping[int, float] | None = None) -> np.ndarray:
    """Moment-matching starting values from a least-squares line on log s^2."""
    fix = fix or {}
    logs = np.log(s + _LS_EPS)
    if form is VarianceForm.POWER:
        x = np.log(m)
    else:
        x = m
    if 1 in fix:
        slope = fix[1]
        intercept = float(np.mean(logs) - slope * np.mean(x))
    else:
        slope, intercept = np.polyfit(x, logs, 1)
    theta = [float(intercept), float(slope)]
    if form is VarianceForm.EXP_LINEAR_CONST:
        theta.append(math.log(0.1 * float(np.mean(s)) + _LS_EPS))
    for idx, val in fix.items():
        theta[idx] = val
    return np.array(theta)


def solve_weighted_equations(
    form: VarianceForm,
    m: np.ndarray,
    s: np.ndarray,
    weights: np.ndarray | None = None,
    init: Sequence[float] | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    fix: Mapping[int, float] | None = None,
) -> FitResult:
    """Damped-Newton solve of the (weighted) estimating equations.

    fix maps coefficient indices to frozen values; only the remaining
    coordinates are solved for. Falls back to derivative-free minimization
    of the squared residual norm when the Newton direction is unusable.
    Never raises on non-convergence; inspect .converged.
    """
    m = np.asarray(m, dtype=float)
    s = np.asarray(s, dtype=float)
    w = np.ones_like(m) if weights is None else np.asarray(weights, dtype=float)
    total_w = float(w.sum())
    if total_w <= 0:
        raise NumericalError("total weight must be positive")
    fix = dict(fix or {})
    free = np.array([i for i in range(form.n_params) if i not in fix])
    if free.size == 0:
        raise ValueError("at least one coefficient must be free")

    theta = np.array(default_init(form, m, s, fix) if init is None else init,
                     dtype=float)
    if theta.shape != (form.n_params,):
        raise ValueError(f"init must have {form.n_params} coefficients")
    for idx, val in fix.items():
        theta[idx] = val

    def score_at(vec: np.ndarray) -> np.ndarray:
        return _score(VarianceModel(form, tuple(vec)), m, s, w, total_w)

    f = score_at(theta)
    best = (theta.copy(), float(np.max(np.abs(f))))
    iterations = 0
    stalled = False
    for iterations in range(1, max_iter + 1):
        norm_inf = float(np.max(np.abs(f)))
        if norm_inf <= tol:
            return FitResult(tuple(theta), True, iterations - 1, norm_inf)
        jac = _score_jacobian(VarianceModel(form, tuple(theta)), m, s, w, total_w)
        sub = jac[np.ix_(free, free)]
        if not np.all(np.isfinite(sub)):
            stalled = True
            break
        try:
            step = np.linalg.solve(sub, -f[free])
        except np.linalg.LinAlgError:
            stalled = True
            break
        norm2 = float(np.dot(f, f))
        lam = 1.0
        accepted = False
        while lam >= 2.0**-30:
            cand = theta.copy()
            cand[free] += lam * step
            fc = score_at(cand)
            if np.all(np.isfinite(fc)) and float(np.dot(fc, fc)) < norm2:
                theta, f = cand, fc
                accepted = True
                break
            lam /= 2.0
        if not accepted:
            stalled = True
            break
        cur = float(np.max(np.abs(f)))
        if cur < best[1]:
            best = (theta.copy(), cur)

    fallback = stalled or best[1] > tol
    if fallback:
        theta, f, extra = _simplex_polish(score_at, theta, free, tol)
        iterations += extra
        cur = float(np.max(np.abs(f)))
        if cur < best[1]:
            best = (theta.copy(), cur)

    norm_inf = best[1]
    return FitResult(tuple(best[0]), norm_inf <= tol, iterations, norm_inf,
                     fallback=fallback)


def _simplex_polish(score_at, theta, free, tol):
    """Nelder-Mead on the squared residual norm over the free coordinates."""
    from scipy.optimize import minimize  # slow to import; rarely needed

    def objective(x):
        vec = theta.copy()
        vec[free] = x
        f = score_at(vec)
        if not np.all(np.isfinite(f)):
            return 1e300
        return float(np.dot(f, f))

    res = minimize(objective, theta[free], method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": tol**2 * 1e-4,
                            "maxiter": 4000, "maxfev": 4000})
    out = theta.copy()
    out[free] = res.x
    return out, score_at(out), int(res.nit)


def macl_fit(
    data: PairedDataset,
    form: VarianceForm = VarianceForm.EXP_LINEAR,
    init: Sequence[float] | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    fix: Mapping[int, float] | None = None,
) -> FitResult:
    """Fit the variance function to a paired dataset.

    The homoscedastic one-parameter model is obtained with fix={1: 0.0}
    (exp-linear with the slope frozen at zero), so one solver serves both.

    Raises ConvergenceError (carrying the best iterate) on non-convergence
    and NumericalError when every pair has zero variance statistic.
    """
    n_free = form.n_params - len(fix or {})
    if data.n < n_free + 1:
        raise ValueError(f"need at least {n_free + 1} pairs to fit "
                         f"{n_free} free coefficient(s), got {data.n}")
    if form is VarianceForm.POWER and np.any(data.ybar <= 0):
        raise DomainError("power form requires all pair means to be positive")
    if not np.any(data.s2 > 0):
        raise NumericalError("degenerate data: every pair has S^2 = 0")

    result = solve_weighted_equations(form, data.ybar, data.s2, None,
                                      init=init, tol=tol, max_iter=max_iter,
                                      fix=fix)
    if not result.converged:
        raise ConvergenceError(
            f"estimating equations not solved to tol={tol} after "
            f"{result.iterations} iterations (residual {result.residual_norm:.3e})",
            theta=result.theta_hat,
            residual_norm=result.residual_norm,
            iterations=result.iterations,
        )
    return result


def mle_homoscedastic(data: PairedDataset) -> float:
    """Plain maximum likelihood variance under the constant-variance model.

    Deliberately the biased estimator N^-1 sum (y1-y2)^2/4, kept as the
    classic illustration of why profiling out per-pair means fails: its
    expectation is half the true variance.
    """
    if data.n < 1:
        raise ValueError("need at least one pair")
    return float(np.mean((data.y1 - data.y2) ** 2) / 4.0)
