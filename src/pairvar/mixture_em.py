"""Consistent variance-function estimation under a latent-mean mixture model.

The unknown per-pair means are treated as draws from a distribution
supported on [a, b], discretized on a variance-adaptive grid. Coefficients
theta and mixing weights pi are fitted by block ascent on the
log-likelihood. Each outer iteration first solves for pi at fixed theta,
a convex problem (the discrete nonparametric MLE of the mixing
distribution; Koenker & Mizera, JASA 2014), by an active-set sequential
quadratic programme (mixSQP; Kim, Carbonetto, Stephens & Anitescu, JCGS
2020). It then takes one EM step in theta from the posterior
responsibilities. The fit stops once the KKT gap of the pi problem and the
theta step are both within tol, and returns that gap as its certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, NumericalError
from .macl import _MIN_STEP, _ROUNDING, macl_fit, solve_weighted_equations
from .model import (MAX_GRID_POINTS, PairedDataset, VarianceForm,
                    VarianceModel)

DEFAULT_SPACING = 0.25
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 2000
_ASCENT_SLACK = 1e-8
_MAX_SQP_STEPS = 500
# Added to the diagonal of the pi solve's Hessian (support entries >= 1
# near the optimum) so that _factor's pivots stay positive when columns
# of L coincide or vanish; the fixed point does not depend on it.
_RIDGE = 1e-10
# Entries of the pi solve's d = L / lp below this are set to 0 before the
# Hessian sums their products: those products are subnormal, which sends
# the CPU down its slow path, and ~1e-150 of the O(1) entries near them.
_FLUSH = 1e-150

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

    iterations counts outer iterations (a pi solve, then a theta step) and
    inner_iterations the pi solver's steps over all of them. kkt_gap is
    max_j (1/n) sum_i L_ij / (L pi)_i - 1 at the returned theta and pi: 0
    when pi maximizes the likelihood at that theta. log_lik_path records
    the likelihood after every pi solve and every theta step, which is
    non-decreasing. mstep_fallbacks counts the theta steps in which the
    M-step solver took a Fisher-scoring step.
    """

    theta_hat: tuple[float, ...]
    pi_hat: tuple[float, ...]
    log_lik: float
    iterations: int
    converged: bool
    log_lik_path: tuple[float, ...] = ()
    inner_iterations: int = 0
    kkt_gap: float = math.inf
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
        if len(points) > MAX_GRID_POINTS:
            raise NumericalError(
                "support grid exceeded 10^6 points; increase d or tighten [a, b]")
    return SupportGrid(points=tuple(reversed(points)), spacing_d=d)


def _sq_deviations(data: PairedDataset, points: np.ndarray) -> np.ndarray:
    """N x J matrix of (y1-mu_j)^2 + (y2-mu_j)^2, with one N x J temporary."""
    with np.errstate(over="ignore"):
        out = np.subtract.outer(data.y1, points)
        np.square(out, out=out)
        dev = np.subtract.outer(data.y2, points)
        out += np.square(dev, out=dev)
    return out


def responsibilities(data: PairedDataset, theta: VarianceModel,
                     grid: SupportGrid, pi: Sequence[float]) -> np.ndarray:
    """E-step posterior weights, n x J, each row summing to 1; columns of
    support points with pi = 0 are zero."""
    engine = _EmEngine(data, grid, theta.form)
    L, _ = engine.joint(theta.theta)
    lp = engine.density(L, pi)
    return L * np.asarray(pi, dtype=float) / lp[:, None]


def mixture_log_lik(data: PairedDataset, theta: VarianceModel,
                    grid: SupportGrid, pi: Sequence[float]) -> float:
    """Log-likelihood of the discrete mixture, with each pair's densities
    scaled by their largest before summing."""
    engine = _EmEngine(data, grid, theta.form)
    L, top = engine.joint(theta.theta)
    return float(top.sum() + np.log(engine.density(L, pi)).sum())


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first use (slow to import).

    Nothing in the fit calls it; bench/tracing.py wraps this name and
    counts its calls as M-step fallbacks, so it stays."""
    from scipy import optimize
    return optimize.minimize(*args, **kwargs)


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


def _hessian(L, lp, cols):
    """(1/n) sum_i d_i d_i^T with d_i = L_i,cols / lp_i, its entries below
    _FLUSH set to 0, plus the ridge; summed by einsum, as in _factor."""
    d = L[:, cols]
    d /= lp[:, None]
    d[d < _FLUSH] = 0.0
    hess = np.einsum("ij,ik->jk", d, d)
    hess /= L.shape[0]
    hess.flat[::cols.size + 1] += _RIDGE
    return hess


def _factor(hess, g):
    """(C, C^-1 g), C the lower Cholesky factor of hess: Crout columns over
    hess with g as one more row, which runs the forward solve. Products
    are einsums, not BLAS, so no OpenBLAS worker spins and the fit's last
    bits do not depend on the thread count."""
    a = np.vstack((hess, g))
    for j in range(g.size):
        col = a[j:, j]
        col -= np.einsum("ip,p->i", a[j:, :j], a[j, :j])
        if not col[0] > 0.0:
            raise NumericalError(f"pivot {col[0]} in {g.size}-point Hessian")
        col /= math.sqrt(col[0])
    return np.tril(a[:-1]), a[-1]


def _solve_pi(L, lp, pi, tol):
    """Mixing weights maximizing the likelihood at fixed theta (mixSQP).

    Minimizes f(pi) = -(1/n) sum_i log (L pi)_i + sum_j pi_j over pi >= 0;
    with u_j = (1/n) sum_i L_ij / (L pi)_i the minimizer has u_j <= 1, and
    u_j = 1 where pi_j > 0. Each step minimizes the quadratic model on the
    support plus the column of largest u (scipy's nonnegative least squares
    on _factor's Cholesky factor), halves the step until f decreases and
    renormalizes, which lowers f further. Stops once u is within tol of
    those conditions, or once a step neither lowers f beyond rounding nor
    halves u's distance from them. Returns pi, L pi, u and the step count.
    """
    from scipy.optimize import nnls
    n = L.shape[0]

    def state(lp):
        u = np.einsum("i,ij->j", 1.0 / lp, L) / n
        resid = max(u.max() - 1.0, 1.0 - u[pi > 0.0].min())
        return u, resid, 1.0 - float(np.log(lp).mean())

    u, resid, f = state(lp)
    steps = 0
    while resid > tol and steps < _MAX_SQP_STEPS:
        work = pi > 0.0
        work[np.argmax(u)] = True
        cols = np.flatnonzero(work)
        chol, w = _factor(_hessian(L, lp, cols), 2.0 * u[cols] - 1.0)
        try:
            y = nnls(chol.T, w)[0]
        except (RuntimeError, ValueError) as err:  # iteration cap, NaN
            raise NumericalError(f"NNLS failed on {cols.size} points: {err}")
        steps += 1
        alpha = 1.0
        while True:
            cand = (1.0 - alpha) * pi[cols] + alpha * y
            lc = np.einsum("ij,j->i", L[:, cols], cand)
            with np.errstate(divide="ignore"):
                fc = float(cand.sum() - np.log(lc).mean())
            if fc < f + _ROUNDING * (1.0 + abs(f)):
                break
            alpha /= 2.0
            if alpha < _MIN_STEP:
                return pi, lp, u, steps
        total = float(cand.sum())
        pi = np.zeros_like(pi)
        pi[cols] = cand / total
        lp = lc / total
        last_f, last_resid = f, resid
        u, resid, f = state(lp)
        if (fc > last_f - _ROUNDING * (1.0 + abs(last_f))
                and resid > 0.5 * last_resid):
            break
    return pi, lp, u, steps


class _EmEngine:
    """Component densities on the support grid, with the constant parts
    precomputed; one evaluation per theta serves the pi solve, the KKT gap,
    the likelihood and the responsibilities."""

    def __init__(self, data, grid, form):
        self.form = form
        self.points = grid.array
        self.sq_dev = _sq_deviations(data, self.points)
        self.ids = data.ids  # names are built only for an error
        self.mstep_fallbacks = 0

    def joint(self, theta):
        """(L, top): L_ij = f_j(pair i) exp(-top_i), each row scaled by its
        largest component density so that 0 <= L <= 1."""
        h = VarianceModel(self.form, tuple(theta))(self.points)
        if np.any(~np.isfinite(h)) or np.any(h <= 0):
            raise NumericalError("variance function not positive on the grid")
        with np.errstate(over="ignore"):
            lj = self.sq_dev * (-0.5 / h)[None, :]
        lj -= (LOG_2PI + np.log(h))[None, :]
        top = lj.max(axis=1)
        self._check(np.isfinite(top))
        lj -= top[:, None]
        return _exp(lj), top

    def density(self, L, pi):
        """Row mixture densities L pi, each positive."""
        pi = np.asarray(pi, dtype=float)
        if pi.shape != self.points.shape:
            raise ValueError(f"pi must have length {self.points.size}")
        lp = np.einsum("ij,j->i", L, pi)
        self._check(lp > 0.0)
        return lp

    def _check(self, ok):
        if not np.all(ok):
            raise NumericalError(
                f"mixture density underflowed for pair "
                f"{self.ids()[int(np.argmin(ok))]!r}; "
                "data point too far from every support point")

    def m_step(self, theta, pi, L, lp, inner_tol):
        """theta maximizing Q at the responsibilities pi_j L_ij / lp_i.

        Q is the weighted log-likelihood of solve_weighted_equations with
        support points m_j, weights w_j and statistics v_j / w_j; its
        Newton ascent starts from theta, so Q never falls beyond rounding.
        """
        cols = np.flatnonzero(pi)
        r = L[:, cols] / lp[:, None]
        w_tot = pi[cols] * r.sum(axis=0)
        v_tot = pi[cols] * np.einsum("ij,ij->j", r, self.sq_dev[:, cols]) / 2.0
        keep = w_tot > 1e-300
        res = solve_weighted_equations(self.form, self.points[cols][keep],
                                       v_tot[keep] / w_tot[keep], w_tot[keep],
                                       init=theta, tol=inner_tol)
        self.mstep_fallbacks += res.fallback
        return np.asarray(res.theta_hat)


def em_fit(
    data: PairedDataset,
    grid: SupportGrid,
    init: VarianceModel,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    inner_tol: float = 1e-9,
) -> MixtureEstimate:
    """Block ascent over (theta, pi) on a fixed support grid.

    pi starts in proportion to the pairs whose likeliest support point each
    point is. Each outer iteration solves for pi at the current theta
    (_solve_pi, to min(tol, inner_tol)), then takes one EM step in theta:
    a Newton ascent on the M-step objective, solving its weighted
    estimating equations to inner_tol. Converged once the KKT gap after a
    pi solve and the theta step before it are both within tol; max_iter
    caps the outer iterations, and the returned pi is solved at the
    returned theta. Both blocks raise the likelihood, so a drop along the
    path beyond a small slack signals a broken step and raises
    NumericalError.
    """
    if data.n < 3:
        raise DataError("need at least 3 pairs")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    engine = _EmEngine(data, grid, init.form)
    theta = np.asarray(init.theta, dtype=float)
    L, top = engine.joint(theta)
    pi = np.bincount(L.argmax(axis=1), minlength=grid.J) / data.n
    lp = engine.density(L, pi)
    path: list[float] = []

    def record():
        ll = float(top.sum() + np.log(lp).sum())
        if path and ll < path[-1] - _ASCENT_SLACK:
            raise NumericalError(
                f"log-likelihood decreased from {path[-1]:.10f} to {ll:.10f}; "
                "a pi solve or theta step is broken")
        path.append(ll)

    step = math.inf
    inner = 0
    converged = False
    for outer in range(1, max_iter + 1):
        pi, lp, u, k = _solve_pi(L, lp, pi, min(tol, inner_tol))
        inner += k
        record()
        gap = float(u.max()) - 1.0
        if gap <= tol and step <= tol:
            converged = True
            break
        if outer == max_iter:
            break
        theta_new = engine.m_step(theta, pi, L, lp, inner_tol)
        step = float(np.max(np.abs(theta_new - theta)))
        theta = theta_new
        L, top = engine.joint(theta)
        lp = engine.density(L, pi)
        record()

    return MixtureEstimate(
        theta_hat=tuple(float(t) for t in theta),
        pi_hat=tuple(float(p) for p in pi),
        log_lik=path[-1],
        iterations=outer,
        converged=converged,
        log_lik_path=tuple(path),
        inner_iterations=inner,
        kkt_gap=gap,
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
    """Full mixture pipeline: starting fit, adaptive grid, then em_fit.

    Starting values come from the approximate conditional likelihood fit
    unless supplied; the grid spans the dataset bounds and stays frozen
    during the fit.
    """
    theta0 = tuple(init) if init is not None else macl_fit(data, form).theta_hat
    model0 = VarianceModel(form, theta0)
    a, b = data.bounds
    grid = build_support(model0, a, b, d)
    est = em_fit(data, grid, model0, tol=tol, max_iter=max_iter)
    return est, grid
