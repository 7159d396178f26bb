"""Consistent variance-function estimation under a latent-mean mixture model.

The unknown per-pair means are treated as draws from a distribution
supported on [a, b], discretized on a variance-adaptive grid. Coefficients
and mixing weights are estimated jointly by EM: the E-step computes
posterior support-point responsibilities, the M-step updates the weights in
closed form and re-solves the weighted estimating equations for theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp

from .errors import NumericalError
from .macl import macl_fit, solve_weighted_equations
from .model import PairedDataset, VarianceForm, VarianceModel

DEFAULT_SPACING = 0.25
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 2000
_MAX_GRID_POINTS = 10**6
_ASCENT_SLACK = 1e-8

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SupportGrid:
    """Strictly increasing support points for the latent-mean distribution."""

    points: tuple[float, ...]
    spacing_d: float

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 1:
            raise ValueError("grid needs at least one point")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly increasing")
        if self.spacing_d <= 0:
            raise ValueError("spacing must be positive")

    @property
    def J(self) -> int:
        return len(self.points)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.points)


@dataclass(frozen=True)
class MixtureEstimate:
    """Fitted coefficients, grid weights and the attained log-likelihood.

    log_lik_path records the likelihood at every accepted iterate, which is
    non-decreasing by the EM ascent property; iterations counts applications
    of the EM update map.
    """

    theta_hat: tuple[float, ...]
    pi_hat: tuple[float, ...]
    log_lik: float
    iterations: int
    converged: bool
    log_lik_path: tuple[float, ...] = ()

    def __post_init__(self):
        pi = np.asarray(self.pi_hat)
        if np.any(pi < 0):
            raise ValueError("mixing weights must be nonnegative")
        if abs(float(pi.sum()) - 1.0) > 1e-12:
            raise ValueError(f"mixing weights sum to {pi.sum()!r}, not 1")

    def model(self, form: VarianceForm) -> VarianceModel:
        return VarianceModel(form, self.theta_hat)


@dataclass(frozen=True)
class ResponsibilityMatrix:
    """Posterior probabilities that pair i was generated at support point j."""

    w: np.ndarray

    def __post_init__(self):
        row_sums = self.w.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > 1e-10:
            raise ValueError("responsibility rows must sum to 1")


def build_support(theta_tilde: VarianceModel, a: float, b: float,
                  d: float = DEFAULT_SPACING) -> SupportGrid:
    """Variance-adaptive support points descending from b, clamped at a.

    Starting from the top point b, each next point sits d estimated standard
    deviations below the previous one, so regions of small variance receive
    proportionally denser support. The final point is clamped to a.
    """
    if d <= 0:
        raise ValueError("spacing d must be positive")
    if a > b:
        raise ValueError(f"need a <= b, got ({a}, {b})")
    points = [float(b)]
    while points[-1] > a:
        cur = points[-1]
        step = d * math.sqrt(float(theta_tilde(cur)))
        nxt = cur - step
        if not math.isfinite(nxt) or nxt >= cur:
            raise NumericalError(
                f"support recursion stalled at {cur} (step {step}); "
                "variance too small for this spacing")
        if nxt <= a:
            points.append(float(a))
            break
        points.append(nxt)
        if len(points) > _MAX_GRID_POINTS:
            raise NumericalError(
                "support grid exceeded 10^6 points; increase d or tighten [a, b]")
    return SupportGrid(points=tuple(reversed(points)), spacing_d=d)


def _sq_deviations(data: PairedDataset, points: np.ndarray) -> np.ndarray:
    """N x J matrix of (y1-mu_j)^2 + (y2-mu_j)^2; constant during EM."""
    with np.errstate(over="ignore"):
        return ((data.y1[:, None] - points[None, :]) ** 2
                + (data.y2[:, None] - points[None, :]) ** 2)


def _log_component_densities(data: PairedDataset, theta: VarianceModel,
                             points: np.ndarray,
                             sq_dev: np.ndarray | None = None) -> np.ndarray:
    """N x J matrix of log f(y_i | mu_j) under the bivariate normal model."""
    h = np.asarray(theta(points), dtype=float)
    if np.any(~np.isfinite(h)) or np.any(h <= 0):
        raise NumericalError("variance function not positive on the grid")
    t = _sq_deviations(data, points) if sq_dev is None else sq_dev
    with np.errstate(over="ignore"):
        return (-LOG_2PI - np.log(h))[None, :] - t * (0.5 / h)[None, :]


def _posterior(data, theta, grid, pi, sq_dev=None):
    """Log joint, per-row log marginals, and responsibilities."""
    points = grid.array
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (grid.J,):
        raise ValueError(f"pi must have length {grid.J}")
    with np.errstate(divide="ignore"):
        log_joint = (_log_component_densities(data, theta, points, sq_dev)
                     + np.log(pi)[None, :])
    row_lse = logsumexp(log_joint, axis=1)
    bad = ~np.isfinite(row_lse)
    if np.any(bad):
        pid = data.pairs[int(np.argmax(bad))].id
        raise NumericalError(
            f"mixture density underflowed for pair {pid!r}; "
            "data point too far from every support point")
    w = np.exp(log_joint - row_lse[:, None])
    return log_joint, row_lse, w


def responsibilities(data: PairedDataset, theta: VarianceModel,
                     grid: SupportGrid, pi: Sequence[float]) -> ResponsibilityMatrix:
    """E-step posterior weights, computed in log space."""
    _, _, w = _posterior(data, theta, grid, pi)
    return ResponsibilityMatrix(w=w)


def mixture_log_lik(data: PairedDataset, theta: VarianceModel,
                    grid: SupportGrid, pi: Sequence[float]) -> float:
    """Log-likelihood of the discrete mixture, via log-sum-exp per pair."""
    _, row_lse, _ = _posterior(data, theta, grid, pi)
    return float(row_lse.sum())


def _q_value(form: VarianceForm, theta, points, w_tot, v_tot) -> float:
    """Expected complete-data log-likelihood (theta part only)."""
    h = VarianceModel(form, tuple(theta))(points)
    if np.any(~np.isfinite(h)) or np.any(h <= 0):
        return -np.inf
    n = float(w_tot.sum())
    return float(-n * LOG_2PI - np.dot(w_tot, np.log(h)) - np.dot(v_tot, 1.0 / h))


def _m_step_theta(form, theta_old, points, w_tot, v_tot, inner_tol):
    """Maximize the weighted likelihood in theta; guarantee no Q decrease."""
    keep = w_tot > 1e-300
    m = points[keep]
    w = w_tot[keep]
    s = v_tot[keep] / w
    res = solve_weighted_equations(form, m, s, w, init=theta_old,
                                   tol=inner_tol, max_iter=100)
    q_old = _q_value(form, theta_old, points, w_tot, v_tot)
    q_new = _q_value(form, res.theta_hat, points, w_tot, v_tot)
    if q_new >= q_old:
        return np.asarray(res.theta_hat)

    # Score root moved downhill (rare): maximize Q directly instead.
    def neg_q(vec):
        return -_q_value(form, vec, points, w_tot, v_tot)

    alt = minimize(neg_q, np.asarray(theta_old, dtype=float), method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 2000})
    if -alt.fun >= q_old:
        return np.asarray(alt.x)
    return np.asarray(theta_old, dtype=float)


class _EmEngine:
    """One EM update of (theta, pi) with the constant parts precomputed.

    Support points whose mixing weight has underflowed to exactly zero can
    never regain mass (their posterior weight is identically zero), so the
    engine silently skips those columns; results are identical to the full
    computation.
    """

    def __init__(self, data, grid, form, inner_tol):
        self.form = form
        self.points = grid.array
        self.sq_dev = _sq_deviations(data, self.points)
        self.inner_tol = inner_tol
        self.ids = data.ids()

    def _log_joint(self, theta, pi, active):
        pts = self.points[active]
        h = VarianceModel(self.form, tuple(theta))(pts)
        if np.any(~np.isfinite(h)) or np.any(h <= 0):
            raise NumericalError("variance function not positive on the grid")
        head = np.log(pi[active]) - LOG_2PI - np.log(h)
        out = self.sq_dev[:, active] * (-0.5 / h)[None, :]
        out += head[None, :]
        return out, h

    def _normalize(self, log_joint):
        top = log_joint.max(axis=1, keepdims=True)
        bad = ~np.isfinite(top).ravel()
        if np.any(bad):
            raise NumericalError(
                f"mixture density underflowed for pair "
                f"{self.ids[int(np.argmax(bad))]!r}")
        np.subtract(log_joint, top, out=log_joint)
        np.exp(log_joint, out=log_joint)
        totals = log_joint.sum(axis=1)
        ll = float((top.ravel() + np.log(totals)).sum())
        log_joint /= totals[:, None]
        return ll, log_joint

    def log_lik(self, theta, pi):
        active = np.flatnonzero(pi > 0.0)
        log_joint, _ = self._log_joint(theta, pi, active)
        ll, _ = self._normalize(log_joint)
        return ll

    def step(self, theta, pi):
        """Apply one EM update; returns (theta', pi', ll at the input point)."""
        active = np.flatnonzero(pi > 0.0)
        log_joint, _ = self._log_joint(theta, pi, active)
        ll, w = self._normalize(log_joint)
        pi_act = w.sum(axis=0)
        w_tot = pi_act.copy()
        v_tot = np.einsum("ij,ij->j", w, self.sq_dev[:, active]) / 2.0
        pi_new = np.zeros_like(pi)
        pi_new[active] = pi_act / pi_act.sum()
        theta_new = _m_step_theta(self.form, theta, self.points[active],
                                  w_tot, v_tot, self.inner_tol)
        return theta_new, pi_new, ll


def _extrapolate(x0, x1, x2, step_bound):
    """Squared-extrapolation candidate from three consecutive EM iterates."""
    r = x1 - x0
    v = (x2 - x1) - r
    vnorm = float(np.linalg.norm(v))
    if vnorm < 1e-300:
        return None, 1.0
    alpha = -float(np.linalg.norm(r)) / vnorm
    alpha = min(max(alpha, -step_bound), -1.0)
    return x0 - 2.0 * alpha * r + alpha * alpha * v, -alpha


def em_fit(
    data: PairedDataset,
    grid: SupportGrid,
    init: VarianceModel,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    inner_tol: float = 1e-9,
    accelerate: bool = True,
) -> MixtureEstimate:
    """EM over (theta, pi) on a fixed support grid.

    Stops once one plain EM step improves the log-likelihood by less than
    tol in relative terms. By default consecutive EM steps are combined into
    squared-extrapolation jumps toward the fixed point; a candidate jump is
    kept only if it does not lower the likelihood, so the accepted path is
    non-decreasing exactly as for plain EM (the fixed point is unchanged,
    only the route to it is shortened). A likelihood drop along the accepted
    path beyond a small slack signals a broken M-step and raises
    NumericalError.
    """
    if data.n < 3:
        raise ValueError("need at least 3 pairs")
    engine = _EmEngine(data, grid, init.form, inner_tol)
    n_par = init.form.n_params
    theta = np.asarray(init.theta, dtype=float)
    pi = np.full(grid.J, 1.0 / grid.J)

    def pack(theta, pi):
        return np.concatenate([theta, pi])

    def unpack(x):
        return x[:n_par], x[n_par:]

    def mapped(x):
        t, p = unpack(x)
        t2, p2, ll = engine.step(t, p)
        return pack(t2, p2), ll

    x = pack(theta, pi)
    used = 0
    path: list[float] = []
    converged = False
    step_bound = 4.0

    def record(ll):
        if path and ll < path[-1] - _ASCENT_SLACK:
            raise NumericalError(
                f"log-likelihood decreased from {path[-1]:.10f} to {ll:.10f}; "
                "M-step is broken")
        path.append(ll)

    while used < max_iter and not converged:
        x1, ll0 = mapped(x)
        used += 1
        record(ll0)
        if used >= max_iter:
            x = x1
            break
        x2, ll1 = mapped(x1)
        used += 1
        record(ll1)
        if ll1 - ll0 <= tol * abs(ll0):
            x = x1
            converged = True
            break
        if not accelerate:
            x = x2
            continue
        cand, step_len = _extrapolate(x, x1, x2, step_bound)
        if cand is None:
            x = x2
            continue
        t_c, p_c = unpack(cand)
        alive = unpack(x2)[1] > 0.0
        p_c = np.where(alive, np.clip(p_c, 1e-15, None), 0.0)
        p_c /= p_c.sum()
        cand = pack(t_c, p_c)
        x3, ll_c = mapped(cand)
        used += 1
        if ll_c >= ll1:
            record(ll_c)
            x = x3
            if step_len >= step_bound:
                step_bound *= 4.0
        else:
            x = x2
            step_bound = max(1.0, step_bound / 4.0)

    theta, pi = unpack(x)
    ll_final = engine.log_lik(theta, pi)
    record(ll_final)
    return MixtureEstimate(
        theta_hat=tuple(float(t) for t in theta),
        pi_hat=tuple(float(p) for p in pi),
        log_lik=ll_final,
        iterations=used,
        converged=converged,
        log_lik_path=tuple(path),
    )


def fit_mixture(
    data: PairedDataset,
    form: VarianceForm = VarianceForm.EXP_LINEAR,
    d: float = DEFAULT_SPACING,
    init: Sequence[float] | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[MixtureEstimate, SupportGrid]:
    """Full mixture pipeline: starting fit, adaptive grid, then EM.

    Starting values come from the approximate conditional likelihood fit
    unless supplied; the grid spans the dataset bounds and stays frozen
    during EM.
    """
    theta0 = tuple(init) if init is not None else macl_fit(data, form).theta_hat
    model0 = VarianceModel(form, theta0)
    a, b = data.bounds
    grid = build_support(model0, a, b, d)
    est = em_fit(data, grid, model0, tol=tol, max_iter=max_iter)
    return est, grid
