"""Confidence sets for a single mean and for the difference of two means.

For one observation Y ~ N(mu, h(theta, mu)) the pivot (Y-mu)^2 / h(theta, mu)
is chi-squared with one degree of freedom, and inverting it yields an exact
confidence set: either a single unbounded interval or a union of two
intervals, depending on where the pivot's interior local maximum sits
relative to the quantile: in closed form for the exp-linear form with a
negative slope, from real Lambert W branches computed in float64 from the
log of their argument, and on one 20001-point grid over the bounds for
every other form. bounded_hulls, the batch kernel for bounded hulls,
serves Bonferroni intervals, coverage studies and Berger-Boos p-values.
For a pair (Y1, Y2) the reparametrization
(nu1, nu2) = (mu1 - mu2, mu1 + mu2) gives correlated standardized residuals
whose quadratic form is chi-squared with two degrees of freedom; scanning
that region and projecting onto nu1 yields a conservative set for the
difference. Plug-in ("naive") intervals are provided for comparison.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import erfc, ndtri

from .errors import DomainError, NumericalError
from .model import VarianceForm, VarianceModel

DEFAULT_GRID_RES = 0.005


def normal_quantile(p: float) -> float:
    """Standard normal quantile (machine accurate)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must be in (0,1), got {p}")
    return float(ndtri(p))


def chi2_1_quantile(p: float) -> float:
    """Quantile of chi-squared with 1 df, via the normal quantile."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must be in (0,1), got {p}")
    return float(ndtri(0.5 + p / 2.0)) ** 2


def chi2_2_quantile(p: float) -> float:
    """Quantile of chi-squared with 2 df; closed form -2 log(1-p)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must be in (0,1), got {p}")
    return -2.0 * math.log1p(-p)


def chi2_1_sf(x) -> np.ndarray | float:
    """Upper tail of chi-squared with 1 df: P(Z^2 > x) = erfc(sqrt(x/2))."""
    return erfc(np.sqrt(np.asarray(x, dtype=float) / 2.0))


def _positive_h(model: VarianceModel, mu) -> np.ndarray:
    """h at the array mu, or DomainError where it is not finite and positive."""
    mu = np.asarray(mu, dtype=float)
    with np.errstate(all="ignore"):
        h = model(mu)
    bad = ~(np.isfinite(h) & (h > 0))
    if bad.any():
        raise DomainError(
            f"variance not finite and positive at mu = {mu[bad][0]}")
    return h


@dataclass(frozen=True)
class ConfidenceSet:
    """One or two disjoint intervals, their hull, and the confidence level.

    Endpoints may be infinite before bounding. approximate marks sets built
    by grid inversion rather than the closed-form search structure.
    diagnostics (not compared) counts the work a construction did.
    """

    components: tuple[tuple[float, float], ...]
    hull: tuple[float, float]
    disconnected: bool
    level: float
    approximate: bool = False
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not self.components:
            raise ValueError("a confidence set needs at least one component")
        for (lo, hi) in self.components:
            if not lo <= hi:
                raise ValueError(f"malformed component ({lo}, {hi})")
        for (_, hi), (lo, _) in zip(self.components, self.components[1:]):
            if hi >= lo:
                raise ValueError("components must be disjoint and sorted")

    @classmethod
    def from_components(cls, components, level, approximate=False):
        comps = tuple(sorted((float(lo), float(hi)) for lo, hi in components))
        hull = (comps[0][0], comps[-1][1])
        return cls(components=comps, hull=hull, disconnected=len(comps) > 1,
                   level=float(level), approximate=approximate)

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.components)

    def bounded(self, a: float, b: float) -> "ConfidenceSet":
        """Intersect every component with [a, b]."""
        kept = [(max(lo, a), min(hi, b)) for lo, hi in self.components
                if max(lo, a) <= min(hi, b)]
        if not kept:
            raise NumericalError(
                f"confidence set empty after bounding to [{a}, {b}]")
        return ConfidenceSet.from_components(kept, self.level, self.approximate)


@dataclass(frozen=True)
class PivotCrossings:
    """Quantile crossings of the one-observation pivot, in mean space.

    For two-sided rows the set is (-inf, r1) U (l2, r2) with
    r1 < mu_star < l2 < y < r2; for one-sided rows it is (-inf, r1) and
    l2, r2 are NaN.
    """

    r1: np.ndarray
    l2: np.ndarray
    r2: np.ndarray
    two_sided: np.ndarray


def _lambert_w(L, k: int, sign: float) -> np.ndarray:
    """W_k(sign * e^L) from L: the root x of x + log|x| = L with x > 0 for
    sign = 1, else -1 <= x < 0 (k = 0) or x <= -1 (k = -1), L > -1 taken as
    -1. Starts within 2% of the root (Winitzki's for W_0(e^L), Iacono &
    Boyd's, 2017, for W_0(-e^L), and for W_{-1} -1 - sqrt(2u) - 3u/4 with
    u = -1 - L, between Chatzigeorgiou's 2013 bounds, or L - log(-L) +
    log(-L)/L past u = 3); two fourth-order steps (Fritsch, Shafer &
    Crowley, CACM 16, 1973) reach rounding. Below L = -10, W_0 is its
    series in x = sign * e^L to x^4."""
    with np.errstate(all="ignore"):
        if sign > 0:
            u = np.maximum(L, 0.0) + np.log1p(np.exp(-np.abs(L)))
            w = u * (1.0 - np.log1p(u) / (2.0 + u))
        elif k == 0:
            L = np.minimum(L, -1.0)
            p = np.sqrt(-2.0 * np.expm1(L + 1.0))
            c = 1.0 / (math.e - 1.0) - math.sqrt(0.5)
            w = -np.exp(L + 1.0) / (1.0 + p / (1.0 + c * p))
        else:
            L = np.minimum(L, -1.0)
            u, lg = -1.0 - L, np.log(-L)
            w = np.where(u < 3.0, -1.0 - np.sqrt(2.0 * u) - 0.75 * u,
                         L - lg + lg / L)
        for _ in range(2):
            z = L - np.log(sign * w) - w
            d = 1.0 + w
            f = 2.0 * d * (d + z / 1.5)
            w += w * z * (f - z) / (d * (f - 2.0 * z))
        if sign < 0:
            w[L == -1.0] = -1.0  # the steps divide 0 by 0 there
        if k == 0:
            small = L < -10.0
            x = sign * np.exp(L[small])
            w[small] = x * (1.0 + x * (-1.0 + x * (1.5 - x * 8.0 / 3.0)))
    return w


def exact_pivot_crossings(y, theta1: float, theta2: float, q) -> PivotCrossings:
    """Solve (y-mu)^2 / h(mu) = q for the exp-linear form with theta2 < 0.

    With x = -(theta2/2)(mu - y) the equation is x e^x = +-e^L, where
    L = log(-theta2/2) + (log q + theta1 + theta2*y)/2, so the crossings
    are real branches of the Lambert W function (Corless et al., Adv.
    Comput. Math. 5, 1996): W_0(e^L) gives the upper one and, when the
    local maximum at mu_star = y + 2/theta2 exceeds q, W_0(-e^L) and
    W_{-1}(-e^L) give the middle and left ones, from L, so extreme
    intensities neither overflow nor underflow. Vectorized over y in
    blocks of 8192, whose temporaries stay in cache; q may be scalar or
    per-element. Raises NumericalError on a non-finite crossing.
    """
    if theta2 >= 0:
        raise DomainError("closed-form pivot inversion requires theta2 < 0")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    q = np.broadcast_to(np.asarray(q, dtype=float), y.shape)
    t1, t2 = float(theta1), float(theta2)
    r1, two = np.empty_like(y), np.empty(y.shape, dtype=bool)
    l2, r2 = np.full_like(y, np.nan), np.full_like(y, np.nan)
    for s in range(0, y.size, 8192):
        rows, yb, qb = slice(s, s + 8192), y[s:s + 8192], q[s:s + 8192]
        with np.errstate(all="ignore"):
            two[rows] = tb = 4.0 / t2**2 * np.exp(-(2.0 + t1 + t2 * yb)) > qb
            lz = math.log(-t2 / 2.0) + 0.5 * (np.log(qb) + t1 + t2 * yb)
        r1[rows] = upper = yb - 2.0 / t2 * _lambert_w(lz, 0, 1.0)
        if tb.any():
            r2[rows][tb] = upper[tb]
            l2[rows][tb] = yb[tb] - 2.0 / t2 * _lambert_w(lz[tb], 0, -1.0)
            r1[rows][tb] = yb[tb] - 2.0 / t2 * _lambert_w(lz[tb], -1, -1.0)
    if not (np.isfinite(r1).all() and np.isfinite(l2[two] + r2[two]).all()):
        raise NumericalError("pivot crossings are not finite for some y")
    return PivotCrossings(r1=r1, l2=l2, r2=r2, two_sided=two)


def _grid_accepted(ys, model: VarianceModel, q, a: float, b: float):
    """The 20001-point grid on [a, b] and, per row, where the pivot is <= q.

    The pivot at mu is sum_k (ys[k] - mu)^2 / h(mu), one row per element of
    the arrays in ys.
    """
    grid = np.linspace(a, b, 20001)
    stat = sum((np.asarray(y, dtype=float)[:, None] - grid) ** 2 for y in ys)
    return grid, stat / model(grid) <= q


def _grid_hulls(ys, model: VarianceModel, q, a: float, b: float):
    """Hulls (lo, hi, empty) of the grid-inverted sets, 64 rows at a time."""
    parts = []
    for s in range(0, max(np.size(ys[0]), 1), 64):
        grid, acc = _grid_accepted([y[s:s + 64] for y in ys], model, q, a, b)
        parts.append((grid[np.argmax(acc, axis=1)],
                      grid[::-1][np.argmax(acc[:, ::-1], axis=1)],
                      ~acc.any(axis=1)))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _runs(mask: np.ndarray):
    """(start, stop) index pairs of maximal True runs."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate([[idx[0]], idx[breaks + 1]])
    stops = np.concatenate([idx[breaks], [idx[-1]]])
    return list(zip(starts, stops))


def ci_mu_exact(y: float, model: VarianceModel, alpha: float,
                bounds: tuple[float, float] | None = None) -> ConfidenceSet:
    """Exact pivot-inversion confidence set for one mean.

    The closed-form search structure applies to the exp-linear form with a
    negative slope; other shapes fall back to dense grid inversion over the
    bounds (flagged approximate). When bounds are given every component is
    intersected with them.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    q = chi2_1_quantile(1.0 - alpha)
    exact = model.form is VarianceForm.EXP_LINEAR and model.theta[1] < 0
    if exact:
        c = exact_pivot_crossings(np.array([y]), *model.theta, q)
        comps = [(-math.inf, float(c.r1[0]))]
        if c.two_sided[0]:
            comps.append((float(c.l2[0]), float(c.r2[0])))
    elif bounds is None:
        raise DomainError(
            "grid inversion for this variance form needs finite bounds")
    else:
        grid, acc = _grid_accepted([np.array([y])], model, q, *bounds)
        comps = [(grid[i], grid[j]) for i, j in _runs(acc[0])]
        if not comps:
            raise NumericalError("confidence set empty on the bounded grid")
    cs = ConfidenceSet.from_components(comps, 1.0 - alpha, not exact)
    if bounds is not None:
        cs = cs.bounded(*bounds)
    return cs


def ci_mu_naive(y: float, model: VarianceModel, alpha: float) -> tuple[float, float]:
    """Plug-in interval y +- z * sqrt(h(theta, y))."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    z = normal_quantile(1.0 - alpha / 2.0)
    half = z * math.sqrt(float(_positive_h(model, y)))
    return (y - half, y + half)


def _quad_form(y1, y2, model, nu1, nu2):
    """Standardized residuals, their correlation and quadratic form at
    (nu1, nu2). Floats stay floats (math.sqrt is correctly rounded, as
    np.sqrt); a float division by zero is redone on numpy scalars."""
    h1, h2 = model((nu2 + nu1) / 2.0), model((nu2 - nu1) / 2.0)
    s = h1 + h2
    root = math.sqrt(s) if type(s) is float else np.sqrt(s)
    try:
        gd = (y1 - y2 - nu1) / root
        gs = (y1 + y2 - nu2) / root
        rho = (h1 - h2) / s
        quad = (gd * gd - 2.0 * rho * gd * gs + gs * gs) / (1.0 - rho * rho)
    except ZeroDivisionError:
        return _quad_form(y1, y2, model, np.float64(nu1), np.float64(nu2))
    return gd, gs, rho, quad


def _region_radii(y1, y2, model, q, a, b, grid_res) -> np.ndarray:
    """Half-widths of squares around (y1 - y2, y1 + y2) holding every accepted point.

    Vectorized over pairs. Minimising the form over one standardized
    residual leaves the square of the other, so quad >= max(g_diff^2,
    g_sum^2): an accepted (nu1, nu2) lies within sqrt(q*s) of (y1 - y2,
    y1 + y2) in each coordinate, s = h(mu1) + h(mu2), and so does each
    |mu_i - y_i|. Every form is monotone on [a, b], so |mu_i - y_i| <= r
    bounds s by the sum of h at the ends of [y_i - r, y_i + r], clipped to
    [a, b], on the side where h is larger. From r = sqrt(2q max(h(a),
    h(b))) this gives a shrinking sequence of radii, each a valid bound, so
    stopping early is always safe: a pair stops once a round shrinks its
    radius by less than grid_res / 8 (at grid_res 0.01, 7 rounds at most
    where the limit takes 43 at theta = (5, -1), 41 where it takes 100 at
    (5, -0.5)), and at grid_res = 0 once it stops shrinking.
    The result is padded by a relative 1e-9 and by two grid steps; it is
    infinite, so nothing is excluded, where h is not finite and monotone.
    """
    ys = np.stack(np.broadcast_arrays(np.atleast_1d(y1).astype(float),
                                      np.atleast_1d(y2).astype(float)))
    if model.form is VarianceForm.POWER and a <= 0:
        return np.full(ys.shape[1], math.inf)
    with np.errstate(all="ignore"):
        ends = model(np.array([a, b]))
    if not np.all(np.isfinite(ends)):
        return np.full(ys.shape[1], math.inf)
    side = -1.0 if ends[0] >= ends[1] else 1.0
    r = np.full(ys.shape[1], math.sqrt(2.0 * q * float(ends.max())))
    live = np.arange(ys.shape[1])
    for _ in range(100):
        r_live = r[live]
        h = model(np.clip(ys[:, live] + side * r_live, a, b))
        r_next = np.sqrt(q * h.sum(axis=0))
        shrinks = r_next < r_live
        r[live[shrinks]] = r_next[shrinks]
        live = live[r_next < r_live - grid_res / 8.0]
        if live.size == 0:
            break
    return r * (1.0 + 1e-9) + 2.0 * grid_res


def _within(grid: np.ndarray, lo: float, hi: float) -> slice:
    """Slice of a sorted grid holding its points in [lo, hi]."""
    return slice(int(np.searchsorted(grid, lo, "left")),
                 int(np.searchsorted(grid, hi, "right")))


_GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


def _nu1_accepted(y1, y2, model, nu1, q, a, b, grid_res, nu2_lo, nu2_hi):
    """Whether some nuisance sum puts the quadratic form at or under q at
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
    window = _within(nu2, nu2_lo, nu2_hi)
    if window.start == window.stop:
        return False, 0
    with np.errstate(invalid="ignore"):
        _, _, _, quad = _quad_form(y1, y2, model, nu1, nu2[window])
    k = window.start + int(np.argmin(quad))
    best = float(quad[k - window.start])
    if best <= q:
        return True, 1

    def form(x):
        return float(_quad_form(y1, y2, model, nu1, x)[3])

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
    with np.errstate(invalid="ignore"):
        _, _, _, quad = _quad_form(y1, y2, model, nu1, nu2)
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


def ci_diff_region(
    y1: float,
    y2: float,
    model: VarianceModel,
    alpha: float,
    bounds: tuple[float, float],
    grid_res: float = DEFAULT_GRID_RES,
    refine_boundaries: bool = True,
) -> ConfidenceSet:
    """Projection of the exact two-parameter region onto the difference.

    Scans the parallelogram {a <= (nu2 -+ nu1)/2 <= b} on a grid, keeping
    a difference if any nuisance sum puts the quadratic form under the
    chi-squared(2 df) quantile. By default bisection between the last
    accepted and first rejected grid points then puts each component's
    ends on the true projection boundary; refine_boundaries=False reports
    the accepted grid extremes (inside it by at most one step).
    Conservative for nu1 by the projection property.

    Every accepted point lies in a square around (y1 - y2, y1 + y2) (see
    _region_radii). The scan and each bisection step evaluate the form only
    inside it, and the result is the same as scanning the whole
    parallelogram. The set's diagnostics count the bisection decisions,
    the golden-section polishes among them and their form evaluations.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    if grid_res <= 0:
        raise DomainError(f"grid_res must be positive, got {grid_res}")
    a, b = bounds
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"region scan needs finite bounds a < b, got {bounds}")
    y1, y2 = float(y1), float(y2)
    q = chi2_2_quantile(1.0 - alpha)
    span = b - a
    n1 = int(round(2.0 * span / grid_res)) + 1
    nu1_grid = np.linspace(-span, span, n1)
    nu2_master = np.arange(2.0 * a, 2.0 * b + grid_res / 2.0, grid_res)
    radius = float(_region_radii(y1, y2, model, q, a, b, grid_res)[0])
    nu2_lo, nu2_hi = y1 + y2 - radius, y1 + y2 + radius
    rows = _within(nu1_grid, y1 - y2 - radius, y1 - y2 + radius)
    nu2 = nu2_master[None, _within(nu2_master, nu2_lo, nu2_hi)]

    accepted = np.zeros(n1, dtype=bool)
    chunk = 256
    with np.errstate(invalid="ignore"):
        for start in range(rows.start, rows.stop, chunk):
            stop = min(start + chunk, rows.stop)
            nu1 = nu1_grid[start:stop, None]
            lo = 2.0 * a + np.abs(nu1)
            hi = 2.0 * b - np.abs(nu1)
            _, _, _, quad = _quad_form(y1, y2, model, nu1, nu2)
            quad = np.where((nu2 >= lo - 1e-12) & (nu2 <= hi + 1e-12),
                            quad, np.inf)
            accepted[start:stop] = (quad <= q).any(axis=1)
    runs = _runs(accepted)
    if not runs:
        raise NumericalError(
            "projected confidence set is empty; the observed pair maps "
            "outside the bounded parameter region")
    comps, counts = [], Counter(decisions=0, polishes=0, evaluations=0)
    for i, j in runs:
        ends = [nu1_grid[i], nu1_grid[j]]
        for e, out in enumerate((i - 1, j + 1)):
            if refine_boundaries and 0 <= out < n1:
                ends[e], spent = _refine_boundary(
                    y1, y2, model, ends[e], nu1_grid[out], q, a, b, grid_res,
                    nu2_lo, nu2_hi)
                counts.update(spent)
        comps.append(tuple(ends))
    return replace(ConfidenceSet.from_components(comps, 1.0 - alpha),
                   diagnostics=dict(counts))


def ci_diff_bonferroni(y1: float, y2: float, model: VarianceModel, alpha: float,
                       bounds: tuple[float, float]) -> tuple[float, float]:
    """Difference interval from two exact half-alpha sets, via their hulls."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    lo, hi, empty = bounded_hulls(np.array([y1, y2], dtype=float), model,
                                  alpha / 2.0, *bounds)
    if empty.any():
        raise NumericalError(
            f"confidence set empty after bounding to [{bounds[0]}, {bounds[1]}]")
    return (float(lo[0] - hi[1]), float(hi[0] - lo[1]))


def ci_diff_naive(y1: float, y2: float, model: VarianceModel,
                  alpha: float) -> tuple[float, float]:
    """Plug-in interval for the difference of two means."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    z = normal_quantile(1.0 - alpha / 2.0)
    half = z * math.sqrt(float(_positive_h(model, y1))
                         + float(_positive_h(model, y2)))
    d = y1 - y2
    return (d - half, d + half)


def ratio_scale(interval: tuple[float, float]) -> tuple[float, float]:
    """Map a log-scale interval to the ratio (natural) scale."""
    return (math.exp(interval[0]), math.exp(interval[1]))


def bounded_hulls(y, model: VarianceModel, alpha, a: float, b: float):
    """Vectorized hulls of bounded exact sets, for batch constructions.

    Returns (lo, hi, empty): per-element hull endpoints of the exact pivot
    set intersected with [a, b], and a mask of elements whose bounded set is
    empty. Lambert-W crossings for exp-linear with a negative slope; every
    other form uses ci_mu_exact's 20001-point grid, so hulls are equal.
    """
    q = chi2_1_quantile(1.0 - alpha)
    if model.form is not VarianceForm.EXP_LINEAR or model.theta[1] >= 0:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError("grid inversion needs finite bounds")
        return _grid_hulls([np.atleast_1d(y)], model, q, a, b)
    c = exact_pivot_crossings(y, *model.theta, q)
    # Component 1: (-inf, r1) clipped -> [a, min(r1, b)], present iff r1 >= a.
    has1 = c.r1 >= a
    # Component 2: (l2, r2) clipped, only for two-sided rows.
    lo2 = np.maximum(c.l2, a)
    hi2 = np.minimum(c.r2, b)
    has2 = c.two_sided & (lo2 <= hi2)
    empty = ~(has1 | has2)
    lo = np.where(has1, a, lo2)
    hi = np.where(has2, hi2, np.minimum(c.r1, b))
    return lo, hi, empty
