"""Variance-function fitting by maximum approximate conditional likelihood.

The estimator solves, over the coefficient vector theta,

    sum_i (dh/dtheta_k)(theta, m_i) / h^2(theta, m_i) * (s_i - h(theta, m_i)) = 0

where m_i is the pair mean and s_i the pair variance statistic. For the
exp-linear form these are exactly the two classical estimating equations of
the Sadler-Smith scheme. They are the gradient of
l(theta) = -sum_i [log h(theta, m_i) + s_i / h(theta, m_i)], so they are
solved by Newton ascent on l. A weighted variant of the same system doubles
as the M-step of the mixture fit, so the solver lives here and accepts
weights.
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
# Relative rounding error of an objective value. Near an optimum a step
# changes the objective by less than that; such a change is no reason to
# halve the step.
_ROUNDING = 1e-14
_MIN_STEP = 2.0**-40  # smallest step fraction a line search tries


@dataclass(frozen=True)
class FitResult:
    """Solution of the estimating equations.

    residual_norm is the max absolute value of the free coefficients'
    estimating equations at theta_hat, normalized by the total weight;
    converged implies residual_norm <= tol.
    fallback records whether some step followed the gradient because the
    Newton direction was not finite or did not ascend.
    """

    theta_hat: tuple[float, ...]
    converged: bool
    iterations: int
    residual_norm: float
    fallback: bool = False

    def model(self, form: VarianceForm) -> VarianceModel:
        return VarianceModel(form, self.theta_hat)


def _evaluate(form: VarianceForm, theta: np.ndarray, m: np.ndarray,
              s: np.ndarray, w: np.ndarray, total_w: float):
    """(l, f, jac) at theta: the weighted log-likelihood
    l = -sum_i w_i [log h(m_i) + s_i / h(m_i)] / total_w, its gradient f
    (the estimating equations) and its Hessian. l is -inf, and f and jac
    are None, where theta or h is not finite or h is not positive."""
    if not np.all(np.isfinite(theta)):
        return -math.inf, None, None
    model = VarianceModel(form, tuple(theta))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = model(m)
        if not np.all(np.isfinite(h) & (h > 0)):
            return -math.inf, None, None
        wr = w * (s / h)
        ell = -float(w @ np.log(h) + wr.sum()) / total_w
        g, g2 = model.log_derivatives(m)
        f = g @ (wr - w) / total_w
        jac = -(g * wr) @ g.T
        if g2 is not None:
            jac += g2 @ (wr - w)
        return ell, f, jac / total_w


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
    """Solve the (weighted) estimating equations by Newton ascent on their
    log-likelihood l (see _evaluate), whose gradient they are.

    fix maps coefficient indices to frozen values; only the remaining
    coordinates are solved for. Each step takes the Newton direction (a
    least-squares solve, so a singular Hessian still gives a step) and is
    halved until l does not fall by more than rounding. Where that
    direction is not finite or does not ascend, the step follows the
    gradient instead and the result records the fallback. Stops once the
    largest equation value is within tol. Never raises on
    non-convergence; inspect .converged.
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

    ell, f, jac = _evaluate(form, theta, m, s, w, total_w)
    if f is None:
        return FitResult(tuple(theta), False, 0, math.inf)
    fallback = False
    for iterations in range(max_iter + 1):
        grad = f[free]
        norm_inf = float(np.max(np.abs(grad)))
        if norm_inf <= tol or iterations == max_iter:
            break
        sub = jac[np.ix_(free, free)]
        step = np.full_like(grad, np.nan)
        if np.all(np.isfinite(sub)):
            step = np.linalg.lstsq(sub, -grad, rcond=None)[0]
        if not (np.all(np.isfinite(step)) and float(grad @ step) > 0.0):
            step = grad / max(1.0, norm_inf)
            fallback = True
        alpha = 1.0
        while alpha >= _MIN_STEP:
            cand = theta.copy()
            cand[free] += alpha * step
            ell_c, f_c, jac_c = _evaluate(form, cand, m, s, w, total_w)
            if ell_c >= ell - _ROUNDING * (1.0 + abs(ell)):
                break
            alpha /= 2.0
        else:
            break
        theta, ell, f, jac = cand, ell_c, f_c, jac_c
    return FitResult(tuple(theta), norm_inf <= tol, iterations, norm_inf,
                     fallback=fallback)


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

    Raises ConvergenceError (carrying the last iterate) on non-convergence
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
