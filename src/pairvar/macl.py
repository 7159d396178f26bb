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
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DataError, DomainError, NumericalError
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

    residual_norm is the max absolute value of the estimating equations
    (one per coefficient) at theta_hat, normalized by the total weight;
    converged implies residual_norm <= tol.
    fallback records whether some step took the Fisher-scoring direction
    because the Newton direction was not finite or did not ascend.
    """

    theta_hat: tuple[float, ...]
    converged: bool
    iterations: int
    residual_norm: float
    fallback: bool = False


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


def default_init(form: VarianceForm, m: np.ndarray,
                 s: np.ndarray) -> np.ndarray:
    """Moment-matching starting values from a least-squares line on log s^2."""
    x = np.log(m) if form is VarianceForm.POWER else m
    slope, intercept = np.polyfit(x, np.log(s + _LS_EPS), 1)
    theta = [float(intercept), float(slope)]
    if form is VarianceForm.EXP_LINEAR_CONST:
        theta.append(math.log(0.1 * float(np.mean(s)) + _LS_EPS))
    return np.array(theta)


def solve_weighted_equations(
    form: VarianceForm,
    m: np.ndarray,
    s: np.ndarray,
    weights: np.ndarray | None = None,
    init: Sequence[float] | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FitResult:
    """Solve the (weighted) estimating equations by Newton ascent on their
    log-likelihood l (see _evaluate), whose gradient they are.

    Each step takes the Newton direction (a least-squares solve, so a
    singular Hessian still gives a step) and is halved until l does not
    fall by more than rounding. Where that direction is not finite or does
    not ascend, the step takes the Fisher-scoring direction
    (sum_i w_i g_i g_i^T)^-1 f instead, g_i the gradient of log h at m_i,
    which ascends: that matrix is -jac with each s_i at its mean h(m_i).
    The result records the fallback. Stops once the largest equation value
    is within tol. Never raises on non-convergence; inspect .converged.
    """
    m = np.asarray(m, dtype=float)
    s = np.asarray(s, dtype=float)
    w = np.ones_like(m) if weights is None else np.asarray(weights, dtype=float)
    total_w = float(w.sum())
    if total_w <= 0:
        raise NumericalError("total weight must be positive")
    theta = np.array(default_init(form, m, s) if init is None else init,
                     dtype=float)
    if theta.shape != (form.n_params,):
        raise DataError(f"init must have {form.n_params} coefficients")

    ell, f, jac = _evaluate(form, theta, m, s, w, total_w)
    if f is None:
        return FitResult(tuple(map(float, theta)), False, 0, math.inf)
    fallback = False
    for iterations in range(max_iter + 1):
        norm_inf = float(np.max(np.abs(f)))
        if norm_inf <= tol or iterations == max_iter:
            break
        step = np.full_like(f, np.nan)
        if np.all(np.isfinite(jac)):
            step = np.linalg.lstsq(jac, -f, rcond=None)[0]
        if not (np.all(np.isfinite(step)) and float(f @ step) > 0.0):
            g = VarianceModel(form, tuple(theta)).log_derivatives(m)[0]
            step = np.linalg.lstsq(g * w @ g.T, total_w * f, rcond=None)[0]
            fallback = True
        alpha = 1.0
        while alpha >= _MIN_STEP:
            cand = theta + alpha * step
            ell_c, f_c, jac_c = _evaluate(form, cand, m, s, w, total_w)
            if ell_c >= ell - _ROUNDING * (1.0 + abs(ell)):
                break
            alpha /= 2.0
        else:
            break
        theta, ell, f, jac = cand, ell_c, f_c, jac_c
    return FitResult(tuple(map(float, theta)), norm_inf <= tol, iterations,
                     norm_inf, fallback=fallback)


def macl_fit(
    data: PairedDataset,
    form: VarianceForm = VarianceForm.EXP_LINEAR,
    init: Sequence[float] | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FitResult:
    """Fit every coefficient of the variance function to a paired dataset.

    Raises ConvergenceError (carrying the last iterate) on non-convergence
    and NumericalError when every pair has zero variance statistic.
    """
    if data.n < form.n_params + 1:
        raise DataError(f"need at least {form.n_params + 1} pairs to fit "
                         f"{form.n_params} coefficients, got {data.n}")
    if form is VarianceForm.POWER and np.any(data.ybar <= 0):
        raise DomainError("power form requires all pair means to be positive")
    if not np.any(data.s2 > 0):
        raise NumericalError("degenerate data: every pair has S^2 = 0")

    result = solve_weighted_equations(form, data.ybar, data.s2, None,
                                      init=init, tol=tol, max_iter=max_iter)
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
    expectation is half the true variance. The consistent estimate is
    twice it, mean(S^2): the closed-form solution of the estimating
    equation for a constant h = exp(t1).
    """
    if data.n < 1:
        raise ValueError("need at least one pair")
    return float(np.mean((data.y1 - data.y2) ** 2) / 4.0)
