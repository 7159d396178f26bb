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

from .errors import NumericalError
from .macl import macl_fit, solve_weighted_equations
from .model import PairedDataset, VarianceForm, VarianceModel

DEFAULT_SPACING = 0.25
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 2000
_MAX_GRID_POINTS = 10**6
_ASCENT_SLACK = 1e-8

LOG_2PI = math.log(2.0 * math.pi)

# float64 exp(x) is exactly 0 below -745.1332191019412 and subnormal from
# -708.3964185322641 down. numpy's SIMD exp (numpy 2.4, AVX-512 x86-64)
# leaves its fast path for any element near or past that edge: ~23 ns for
# a 0 and ~170 ns for a subnormal result, against ~1.5 ns at -700 and up.
_EXP_FAST = -700.0
_EXP_ZERO = -746.0


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
    of the EM update map. jumps_accepted and jumps_rejected count the
    squared-extrapolation candidates kept and dropped, and mstep_fallbacks
    the M-steps that ran the Nelder-Mead fallback.
    """

    theta_hat: tuple[float, ...]
    pi_hat: tuple[float, ...]
    log_lik: float
    iterations: int
    converged: bool
    log_lik_path: tuple[float, ...] = ()
    jumps_accepted: int = 0
    jumps_rejected: int = 0
    mstep_fallbacks: int = 0

    def __post_init__(self):
        pi = np.asarray(self.pi_hat)
        if np.any(pi < 0):
            raise ValueError("mixing weights must be nonnegative")
        if abs(float(pi.sum()) - 1.0) > 1e-12:
            raise ValueError(f"mixing weights sum to {pi.sum()!r}, not 1")

    @property
    def active_points(self) -> int:
        """Number of support points with positive weight."""
        return sum(p > 0.0 for p in self.pi_hat)

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


def responsibilities(data: PairedDataset, theta: VarianceModel,
                     grid: SupportGrid, pi: Sequence[float]) -> ResponsibilityMatrix:
    """E-step posterior weights, computed in log space.

    Columns of support points with pi = 0 are zero.
    """
    active, _, _, w = _EmEngine(data, grid, theta.form).e_step(theta.theta, pi)
    full = np.zeros((data.n, grid.J))
    full[:, active] = w
    return ResponsibilityMatrix(w=full)


def mixture_log_lik(data: PairedDataset, theta: VarianceModel,
                    grid: SupportGrid, pi: Sequence[float]) -> float:
    """Log-likelihood of the discrete mixture, via log-sum-exp per pair."""
    return _EmEngine(data, grid, theta.form).e_step(theta.theta, pi)[2]


def _q_value(form: VarianceForm, theta, points, w_tot, v_tot) -> float:
    """Expected complete-data log-likelihood (theta part only)."""
    h = VarianceModel(form, tuple(theta))(points)
    if np.any(~np.isfinite(h)) or np.any(h <= 0):
        return -np.inf
    n = float(w_tot.sum())
    return float(-n * LOG_2PI - np.dot(w_tot, np.log(h)) - np.dot(v_tot, 1.0 / h))


def _m_step_theta(form, theta_old, points, w_tot, v_tot, inner_tol):
    """Maximize the weighted likelihood in theta; guarantee no Q decrease.

    Returns the new theta and whether the Nelder-Mead fallback ran.
    """
    keep = w_tot > 1e-300
    m = points[keep]
    w = w_tot[keep]
    s = v_tot[keep] / w
    res = solve_weighted_equations(form, m, s, w, init=theta_old,
                                   tol=inner_tol, max_iter=100)
    q_old = _q_value(form, theta_old, points, w_tot, v_tot)
    q_new = _q_value(form, res.theta_hat, points, w_tot, v_tot)
    if q_new >= q_old:
        return np.asarray(res.theta_hat), False

    # Score root moved downhill (rare): maximize Q directly instead.
    def neg_q(vec):
        return -_q_value(form, vec, points, w_tot, v_tot)

    alt = minimize(neg_q, np.asarray(theta_old, dtype=float), method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 2000})
    if -alt.fun >= q_old:
        return np.asarray(alt.x), True
    return np.asarray(theta_old, dtype=float), True


def _exp(x: np.ndarray) -> np.ndarray:
    """Overwrite x with np.exp(x), bit for bit, and return it.

    Only entries >= -700 go through one np.exp call, which stays on numpy's
    fast path there; entries below -746 become 0, as float64 exp gives;
    the few in between take np.exp on their own. NaN stays NaN.
    """
    keep = x >= _EXP_FAST
    band = np.unravel_index(np.flatnonzero(keep ^ (x >= _EXP_ZERO)), x.shape)
    tail = np.exp(x[band])
    np.maximum(x, _EXP_FAST, out=x)
    np.exp(x, out=x)
    np.multiply(x, keep, out=x)
    x[band] = tail
    return x


class _EmEngine:
    """E-step and EM update of (theta, pi), with the constant parts precomputed.

    Support points whose mixing weight has underflowed to exactly zero can
    never regain mass (their posterior weight is identically zero), so the
    engine skips those columns; results are identical to the full
    computation. The active set only shrinks during EM, so the gathered
    block of their squared deviations is kept until it changes.
    """

    def __init__(self, data, grid, form):
        self.form = form
        self.points = grid.array
        self.sq_dev = _sq_deviations(data, self.points)
        self.ids = data.ids()
        self.mstep_fallbacks = 0
        self._active = self._block = None

    def e_step(self, theta, pi):
        """Active columns, their squared deviations, the log-likelihood and
        the responsibilities at (theta, pi)."""
        pi = np.asarray(pi, dtype=float)
        if pi.shape != self.points.shape:
            raise ValueError(f"pi must have length {self.points.size}")
        active = np.flatnonzero(pi > 0.0)
        if not np.array_equal(active, self._active):
            # The gather is Fortran-ordered; the sums below depend on that
            # order for their last bits.
            self._active, self._block = active, self.sq_dev[:, active]
        h = VarianceModel(self.form, tuple(theta))(self.points[active])
        if np.any(~np.isfinite(h)) or np.any(h <= 0):
            raise NumericalError("variance function not positive on the grid")
        head = np.log(pi[active]) - LOG_2PI - np.log(h)
        with np.errstate(over="ignore"):
            w = self._block * (-0.5 / h)[None, :]
        w += head[None, :]
        top = w.max(axis=1, keepdims=True)
        bad = ~np.isfinite(top).ravel()
        if np.any(bad):
            raise NumericalError(
                f"mixture density underflowed for pair "
                f"{self.ids[int(np.argmax(bad))]!r}; "
                "data point too far from every support point")
        w -= top
        totals = _exp(w).sum(axis=1)
        ll = float((top.ravel() + np.log(totals)).sum())
        w /= totals[:, None]
        return active, self._block, ll, w

    def step(self, theta, pi, inner_tol):
        """Apply one EM update; returns (theta', pi', ll at the input point)."""
        active, block, ll, w = self.e_step(theta, pi)
        w_tot = w.sum(axis=0)
        v_tot = np.einsum("ij,ij->j", w, block) / 2.0
        pi_new = np.zeros_like(pi)
        pi_new[active] = w_tot / w_tot.sum()
        theta_new, fell_back = _m_step_theta(self.form, theta, self.points[active],
                                             w_tot, v_tot, inner_tol)
        self.mstep_fallbacks += fell_back
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
    engine = _EmEngine(data, grid, init.form)
    n_par = init.form.n_params
    theta = np.asarray(init.theta, dtype=float)
    pi = np.full(grid.J, 1.0 / grid.J)

    def pack(theta, pi):
        return np.concatenate([theta, pi])

    def unpack(x):
        return x[:n_par], x[n_par:]

    def mapped(x):
        t, p = unpack(x)
        t2, p2, ll = engine.step(t, p, inner_tol)
        return pack(t2, p2), ll

    x = pack(theta, pi)
    used = 0
    path: list[float] = []
    converged = False
    step_bound = 4.0
    accepted = rejected = 0

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
        if not accelerate or used >= max_iter:
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
            accepted += 1
            record(ll_c)
            x = x3
            if step_len >= step_bound:
                step_bound *= 4.0
        else:
            rejected += 1
            x = x2
            step_bound = max(1.0, step_bound / 4.0)

    theta, pi = unpack(x)
    ll_final = engine.e_step(theta, pi)[2]
    record(ll_final)
    return MixtureEstimate(
        theta_hat=tuple(float(t) for t in theta),
        pi_hat=tuple(float(p) for p in pi),
        log_lik=ll_final,
        iterations=used,
        converged=converged,
        log_lik_path=tuple(path),
        jumps_accepted=accepted,
        jumps_rejected=rejected,
        mstep_fallbacks=engine.mstep_fallbacks,
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
