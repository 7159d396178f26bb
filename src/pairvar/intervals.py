"""Confidence sets for a single mean and for the difference of two means.

For one observation Y ~ N(mu, h(theta, mu)) the pivot (Y-mu)^2 / h(theta, mu)
is chi-squared with one degree of freedom, and inverting it yields an exact
confidence set: either a single unbounded interval or a union of two
intervals, depending on where the pivot's interior local maximum sits
relative to the quantile. Its crossings are real Lambert W branches for
the exp-linear form with a negative slope, computed in float64 from the
log of their argument; on bounds, for every other form and for the pair
pivot ((Y1 - mu)^2 + (Y2 - mu)^2) / h(mu), they are bracketed and bisected.
One kernel, exact_pivot_crossings, returns either set's components on
[a, b]: the exact coverage study tests means against them, ci_mu_exact is
its batch of one, and bounded_hulls, its hulls and component counts,
serves Bonferroni intervals and both Berger-Boos pivots.
For a pair (Y1, Y2) the two-term form (Y1 - mu1)^2/h(mu1) +
(Y2 - mu2)^2/h(mu2) is chi-squared with two degrees of freedom. Its least
value over nu2 = mu1 + mu2 at each nu1 = mu1 - mu2 (_region_min), on the
grid 2a + k * grid_res in a square Engel's Cauchy-Schwarz bounds
(_region_radius) and both parallelogram edges, projects the region onto
nu1: a conservative set for the difference, whose ends one vectorised
decision (_nu1_decisions) bisects, zooming on it; region_covers_zero says
if it holds 0. Every bounded construction takes h at its bounds through
one rule, _h_at_bounds. Plug-in ("naive") intervals are also provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from statistics import NormalDist

import numpy as np

from .errors import DomainError, NumericalError
from .model import MAX_GRID_POINTS, VarianceForm, VarianceModel

DEFAULT_GRID_RES = 0.005
_STANDARD_NORMAL = NormalDist()

# Cody's (1969) rational approximations to erfc, with the coefficients of
# Cephes ndtr.c, where scipy's erfc comes from; highest power first, the
# denominators monic. erfc(x) = 1 - x T(x^2) / U(x^2) on [0, 1),
# exp(-x^2) P(x) / Q(x) on [1, 8) and exp(-x^2) R(x) / S(x) from 8 on, and
# 0 once x^2 > _MAXLOG = log(DBL_MAX), as in Cephes.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2


def _inverse_erfc(t: float) -> float:
    """x >= 0 with erfc(x) = t, for t in (0, 1]: Wichura's AS241 (1988),
    as statistics.NormalDist computes it, then one Newton step on libm's
    erfc. The step brings the quantiles below within 2 ulp of scipy's ndtri
    at the usual levels, where AS241 alone is up to 3 ulp from it."""
    x = -_STANDARD_NORMAL.inv_cdf(t / 2.0) / math.sqrt(2.0)
    return x + (math.erfc(x) - t) / (2.0 / math.sqrt(math.pi)
                                     * math.exp(-x * x))


def normal_quantile(p: float) -> float:
    """Standard normal quantile (machine accurate)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must be in (0,1), got {p}")
    z = math.sqrt(2.0) * _inverse_erfc(2.0 * min(p, 1.0 - p))  # exact tail
    return z if p >= 0.5 else -z


def chi2_1_quantile(p: float) -> float:
    """Quantile of chi-squared with 1 df: 2 x^2 with erfc(x) = 1 - p."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must be in (0,1), got {p}")
    upper = 0.5 + p / 2.0  # ndtri's argument; 1 at the float just below 1
    if upper == 1.0:
        return math.inf
    return 2.0 * _inverse_erfc(2.0 * (1.0 - upper)) ** 2


def chi2_2_quantile(p: float) -> float:
    """Quantile of chi-squared with 2 df; closed form -2 log(1-p)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must be in (0,1), got {p}")
    return -2.0 * math.log1p(-p)


def _polevl(x: np.ndarray, coefs) -> np.ndarray:
    """The polynomial with coefs, highest power first, at x (Horner)."""
    out = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc at each x >= 0 of a 1-d float array, as Cephes computes it but
    with numpy's exp; NaN stays NaN."""
    x2 = x * x
    out = np.where(x >= 1.0, 0.0, np.nan)  # 0 where x^2 > _MAXLOG
    near = np.flatnonzero(x < 1.0)
    s, z = x[near], x2[near]
    out[near] = 1.0 - s * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    rest = np.flatnonzero((x >= 1.0) & (x2 <= _MAXLOG))
    s, z = x[rest], x2[rest]
    num, den = _polevl(s, _ERFC_P), _polevl(s, _ERFC_Q)
    far = np.flatnonzero(s >= 8.0)
    num[far], den[far] = _polevl(s[far], _ERFC_R), _polevl(s[far], _ERFC_S)
    out[rest] = np.exp(-z) * num / den
    return out


@np.errstate(under="ignore")  # erfc(x) leaves the normal range at x ~ 26.55
def chi2_1_sf(x) -> np.ndarray | float:
    """Upper tail of chi-squared with 1 df: P(Z^2 > x) = erfc(sqrt(x/2))."""
    x = np.sqrt(np.asarray(x, dtype=float) / 2.0)
    return _erfc(x.ravel()).reshape(x.shape)[()]


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


def _h_at_bounds(model: VarianceModel, a: float, b: float) -> np.ndarray:
    """h at a and b, for every bounded construction; DomainError unless they
    are finite, with a > 0 for the power form, and _positive_h holds."""
    if not math.isfinite(a + b) or model.form is VarianceForm.POWER and a <= 0:
        raise DomainError("bounds must be finite, with a > 0 for the power "
                          f"form; got [{a}, {b}]")
    return _positive_h(model, [a, b])


@dataclass(frozen=True)
class ConfidenceSet:
    """One or two disjoint intervals, their hull, and the confidence level.

    Endpoints may be infinite before bounding. diagnostics (not compared)
    counts the work a construction did.
    """

    components: tuple[tuple[float, float], ...]
    hull: tuple[float, float]
    disconnected: bool
    level: float
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
    def from_components(cls, components, level):
        comps = tuple(sorted((float(lo), float(hi)) for lo, hi in components))
        hull = (comps[0][0], comps[-1][1])
        return cls(components=comps, hull=hull, disconnected=len(comps) > 1,
                   level=float(level))

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.components)


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


def _h_slope(model: VarianceModel, mu, order: int):
    """h' (order 1) or h'' (order 2) at mu (> 0 for the power form)."""
    t1, t2 = model.theta[:2]
    if model.form is VarianceForm.POWER:
        return t2 * (t2 - 1.0) ** (order - 1) * model(mu) / mu**order
    return t2**order * np.exp(t1 + t2 * mu)


def _bisect(f, lo, hi, rows):
    """Lockstep bisection, in place, of each [lo, hi] across which f(x, rows)
    changes sign until lo, hi are adjacent floats; other brackets stay."""
    up = f(lo, rows) > 0
    live = np.flatnonzero((f(hi, rows) > 0) != up)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        inner = (lo[live] < mid) & (mid < hi[live])
        live, mid = live[inner], mid[inner]
        same = (f(mid, rows[live]) > 0) == up[live]
        lo[live] = np.where(same, mid, lo[live])
        hi[live] = np.where(same, hi[live], mid)
    return lo, hi


def inversion(model: VarianceModel, pair: bool = False) -> str:
    """The path exact_pivot_crossings takes for model and pivot."""
    return ("lambert-w" if not pair and model.form is VarianceForm.EXP_LINEAR
            and model.theta[1] < 0 else "bracketed")


def exact_pivot_crossings(y, model: VarianceModel, q, a: float, b: float,
                          y2=None) -> np.ndarray:
    """Rows lo1, hi1, lo2, hi2: per element, the ends of the components of
    {mu in [a, b] : pivot <= q}, NaN where absent, for a float q or one per
    element. The pivot, (y - mu)^2 / h(mu) or ((y - mu)^2 + (y2 - mu)^2) /
    h(mu), is <= q where r(mu) = k (c - mu)^2 + s - q h(mu) <= 0. h is
    monotone on [a, b], so a finite c farther than sqrt((q max(h(a), h(b))
    - s) / k) has an empty set, not solved. NumericalError on a non-finite
    c or crossing. One observation under the exp-linear form with t2 < 0,
    where a and b may be infinite: with x = -(t2/2)(mu - c), r = 0 is
    x e^x = +-e^L, L = log(-t2/2) + (log q + t1 + t2 c)/2, whose real
    Lambert W branches (Corless et al., Adv. Comput. Math. 5, 1996), from L
    so that no intensity overflows, give the crossings: W_0(e^L) the upper
    one and, where the local maximum at c + 2/t2 exceeds q, W_0(-e^L) and
    W_{-1}(-e^L) the middle and left ones. Else, on finite bounds, r'' =
    2k - q h'' is monotone: r' is monotone on each side of some m (per row
    for per-row q), and r's at most two stationary points leave three
    monotone pieces, each crossing 0 at most once. All bisect in lockstep,
    a crossing to its rejected side."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    lambert = inversion(model, y2 is not None) == "lambert-w"
    q = np.asarray(q, dtype=float)
    with np.errstate(all="ignore"):  # s = inf: a far pair, empty
        k, c, s = ((1.0, y, 0.0) if y2 is None
                   else (2.0, (y + y2) / 2.0, (y - y2) ** 2 / 2.0))
        h = model(np.array([a, b])) if lambert else _h_at_bounds(model, a, b)
        reach = np.sqrt(np.maximum(q * np.max(h) - s, 0.0) / k)
    near = ~(np.isfinite(c) & ((c < a - reach) | (c > b + reach)))
    c, s = c[near], np.broadcast_to(s, y.shape)[near]
    if not np.isfinite(c).all():
        raise NumericalError("pivot crossings are not finite for some y")
    per_row = q.ndim > 0
    q = np.broadcast_to(q, y.shape)[near] if per_row else q
    ends = np.full((4, y.size), np.nan)
    if lambert:
        ends[:, near] = _lambert_sets(c, *model.theta, q, a, b)
        return ends
    n, rows = c.size, np.arange(c.size)
    def r(x, i, order=0):  # r or its order-th derivative at x, rows i
        quad = (k * (c[i] - x) ** 2 + s[i] if order == 0
                else 2.0 * k * (x - c[i]) if order == 1 else 2.0 * k)
        return quad - (q[i] if per_row else q) * (
            _h_slope(model, x, order) if order else model(x))
    # where r'' (then r') keeps its sign, a bracket's start splits as well
    t = rows if per_row else np.zeros(1, int)
    m = np.broadcast_to(_bisect(lambda x, i: r(x, i, 2), np.full(t.size, a),
                                np.full(t.size, b), t)[0], n)
    i = np.tile(rows, 2)
    lo, hi = np.append(np.full(n, a), m), np.append(m, np.full(n, b))
    split = _bisect(lambda x, i: r(x, i, 1), lo, hi, i)[0]
    pts = np.column_stack([np.full(n, a), split[:n], split[n:], np.full(n, b)])
    out = r(pts, rows[:, None]) > 0
    i, j = np.nonzero(out[:, 1:] != out[:, :-1])
    lo, hi = _bisect(r, pts[i, j], pts[i, j + 1], i)
    x = np.full((n, 3), np.nan)
    x[i, j] = np.where(out[i, j], lo, hi)
    sets = np.sort(np.column_stack([np.where(out[:, 0], np.nan, a), x,
                                    np.where(out[:, 3], np.nan, b)]))[:, :4]
    join = sets[:, 1] >= sets[:, 2]  # one rejected float between: one set
    sets[join, 1], sets[join, 2:] = sets[join, 3], np.nan
    ends[:, near] = sets.T
    return ends


def _lambert_sets(c, t1: float, t2: float, q, a: float, b: float):
    """exact_pivot_crossings' rows on its Lambert-W path: (-inf, r1] U
    [l2, r2] or (-inf, r1] on [a, b], in blocks of 8192 rows, whose
    temporaries stay in cache."""
    q = np.broadcast_to(q, c.shape)
    ends = np.empty((4, c.size))
    for i in range(0, c.size, 8192):
        rows, cb, qb = slice(i, i + 8192), c[i:i + 8192], q[i:i + 8192]
        with np.errstate(all="ignore"):
            two = 4.0 / t2**2 * np.exp(-(2.0 + t1 + t2 * cb)) > qb
            lz = math.log(-t2 / 2.0) + 0.5 * (np.log(qb) + t1 + t2 * cb)
        r1 = cb - 2.0 / t2 * _lambert_w(lz, 0, 1.0)
        l2, r2 = np.full_like(cb, np.nan), np.where(two, r1, np.nan)
        if two.any():
            l2[two] = cb[two] - 2.0 / t2 * _lambert_w(lz[two], 0, -1.0)
            r1[two] = cb[two] - 2.0 / t2 * _lambert_w(lz[two], -1, -1.0)
        if not (np.isfinite(r1).all()
                and np.isfinite(l2[two] + r2[two]).all()):
            raise NumericalError("pivot crossings are not finite for some y")
        lo2, hi2 = np.maximum(l2, a), np.minimum(r2, b)
        one, both = r1 >= a, lo2 <= hi2
        ends[:, rows] = (np.where(one, a, np.nan),
                         np.where(one, np.minimum(r1, b), np.nan),
                         np.where(both, lo2, np.nan),
                         np.where(both, hi2, np.nan))
    return ends


def _runs(mask: np.ndarray):
    """(start, stop) index pairs of maximal True runs: where the mask, padded
    with False, changes value, pairwise."""
    edges = np.flatnonzero(np.diff(np.concatenate([[False], mask, [False]])))
    return list(zip(edges[::2], edges[1::2] - 1))


def ci_mu_exact(y: float, model: VarianceModel, alpha: float,
                bounds: tuple[float, float] | None = None) -> ConfidenceSet:
    """Exact pivot-inversion confidence set for one mean: exact_pivot_crossings
    on a batch of one, on bounds or, on the Lambert-W path only, unbounded."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    a, b = (-math.inf, math.inf) if bounds is None else bounds
    ends = exact_pivot_crossings(y, model, chi2_1_quantile(1.0 - alpha),
                                 a, b)[:, 0]
    if np.isnan(ends).all():
        raise NumericalError(
            f"confidence set empty after bounding to [{a}, {b}]")
    return ConfidenceSet.from_components(ends[~np.isnan(ends)].reshape(-1, 2),
                                         1.0 - alpha)


def _floats_for_scalar(y, *columns):
    """The columns as Python floats when y is a scalar, else as they are:
    the plug-in and Bonferroni intervals take arrays as well as floats."""
    return tuple(c.item() for c in columns) if np.ndim(y) == 0 else columns


def ci_mu_naive(y, model: VarianceModel, alpha: float):
    """Plug-in interval y +- z * sqrt(h(theta, y))."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    z = normal_quantile(1.0 - alpha / 2.0)
    half = z * np.sqrt(_positive_h(model, y))
    return _floats_for_scalar(y, y - half, y + half)


def _region_form(y1, y2, model, nu1, nu2):
    """The chi-squared(2) form (y1 - mu1)^2/h(mu1) + (y2 - mu2)^2/h(mu2) at
    mu1, mu2 = (nu2 +- nu1)/2."""
    mu1, mu2 = (nu2 + nu1) / 2.0, (nu2 - nu1) / 2.0
    d1, d2 = y1 - mu1, y2 - mu2
    return d1 * d1 / model(mu1) + d2 * d2 / model(mu2)


def _region_radius(y1: float, y2: float, model, q, a, b, grid_res) -> float:
    """Half-width of a square around (y1 - y2, y1 + y2) holding every accepted
    point. With d_i = y_i - mu_i and h_i = h(mu_i), Engel's form of
    Cauchy-Schwarz, d1^2/h1 + d2^2/h2 >= (d1 +- d2)^2 / (h1 + h2), puts an
    accepted (nu1, nu2) within sqrt(q (h1 + h2)) of (y1 - y2, y1 + y2) in
    each coordinate, and so each |mu_i - y_i|. h is monotone on [a, b], so
    |mu_i - y_i| <= r bounds h1 + h2 by h at y_i +- r, clipped to [a, b],
    on the side where h is larger. From r = sqrt(2q max(h(a), h(b))) this
    gives a shrinking sequence of valid radii, followed until it stops
    shrinking (at most 100 rounds); padded by a relative 1e-9 and two grid
    steps. The caller has checked the bounds (_h_at_bounds)."""
    ends = model(np.array([a, b]))
    ys, side = np.array([y1, y2]), -1.0 if ends[0] >= ends[1] else 1.0
    r = math.sqrt(2.0 * q * float(ends.max()))
    for _ in range(100):
        h = model(np.clip(ys + side * r, a, b))
        r_next = math.sqrt(q * float(h.sum()))
        if not r_next < r:
            break
        r = r_next
    return r * (1.0 + 1e-9) + 2.0 * grid_res


def _region_min(y1: float, y2: float, model, nu1, a, b, grid_res,
                radius: float):
    """Per element of the array nu1, the least form over the two edges of
    the parallelogram [2a + |nu1|, 2b - |nu1|] and the sums 2a + k * grid_res
    within radius of y1 + y2 (_region_radius: no other point is accepted),
    clipped into it; the nu2 where it falls; and how many form values that
    took. Rows go in blocks of about 2^14 form values (see README)."""
    sums = _nu2_grid(a, b, grid_res)
    sums = sums[np.searchsorted(sums, y1 + y2 - radius):
                np.searchsorted(sums, y1 + y2 + radius, "right")]
    least, at = np.empty((2, nu1.size))
    step = max(2**14 // (sums.size + 2), 1)
    for i in range(0, nu1.size, step):
        rows = nu1[i:i + step, None]
        lo, hi = 2.0 * a + np.abs(rows), 2.0 * b - np.abs(rows)
        nu2 = np.hstack([lo, hi, np.clip(sums, lo, hi)])
        form = _region_form(y1, y2, model, rows, nu2)
        j, k = np.arange(rows.size), np.argmin(form, axis=1)
        least[i:i + step], at[i:i + step] = form[j, k], nu2[j, k]
    return least, at, nu1.size * (sums.size + 2)


def _nu2_grid(a, b, grid_res):
    """The scan's nuisance sums 2a + k * grid_res, from 2a to 2b."""
    return 2.0 * a + grid_res * np.arange(round(2.0 * (b - a) / grid_res) + 1)


def _nu1_decisions(y1, y2, model, nu1, q, a, b, grid_res, radius):
    """Per element of the array nu1, whether some nuisance sum in the
    parallelogram [2a + |nu1|, 2b - |nu1|] puts the form at or under q; and
    how many form values that took.

    Starts from the scan's least value (_region_min). Where it is over q,
    four levels re-grid the two cells around its nu2, clipped to the
    parallelogram, with 64 points each: the step falls from grid_res to
    (2/63)^4 grid_res, about 1e-6 grid_res. Every point scored is in the
    parallelogram, so a value at or under q is a real witness.
    """
    best, x, spent = _region_min(y1, y2, model, nu1, a, b, grid_res, radius)
    nu1 = nu1[:, None]
    lo, hi = 2.0 * a + np.abs(nu1), 2.0 * b - np.abs(nu1)
    zoom = np.flatnonzero(~(best <= q))
    x, step, z = x[zoom, None], grid_res, np.arange(zoom.size)
    # A grid of step s around an interior minimum misses it by about
    # f'' s^2 / 8, f'' the form's curvature in nu2: at the last step (5e-9
    # at the default grid_res) that is f'' * 3e-18. Moving nu1 by the 1e-10
    # at which the bisection stops moves the minimum by about
    # 1e-10 * sqrt(q f''), 8e7 / sqrt(f'') times more. f'' is about
    # 1/(2 h(mu1)) + 1/(2 h(mu2)): 3e3 at most under the pooled theta on
    # the default bounds, where the ratio is still 1e6.
    for _ in range(4):
        left = np.maximum(x - step, lo[zoom])
        right = np.minimum(x + step, hi[zoom])
        step = (right - left) / 63.0
        pts = np.minimum(left + step * np.arange(64), right)
        f = _region_form(y1, y2, model, nu1[zoom], pts)
        j = np.argmin(f, axis=1)
        x = pts[z, j, None]
        best[zoom] = np.fmin(best[zoom], f[z, j])
    return (best <= q) & (lo[:, 0] <= hi[:, 0]), spent + 4 * 64 * zoom.size


@np.errstate(over="ignore")  # an extreme y squares to inf: form over q
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

    The scan and the bisection score one least value a row (_region_min)
    inside a square around (y1 - y2, y1 + y2) that holds every accepted
    point; rows outside it are rejected. All ends bisect together, one
    _nu1_decisions call a step, each stopping on its own. diagnostics count
    the bisection's row decisions and the form values they took.
    DomainError for bounds _h_at_bounds refuses, or a >= b.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    if grid_res <= 0:
        raise DomainError(f"grid_res must be positive, got {grid_res}")
    a, b = bounds
    _h_at_bounds(model, a, b)
    if not a < b:
        raise DomainError(f"region scan needs bounds a < b, got {bounds}")
    if not 2.0 * (b - a) / grid_res <= MAX_GRID_POINTS:
        raise DomainError(f"grid_res {grid_res} puts more than 10^6 points on "
                          f"the difference grid over [{a}, {b}]")
    y1, y2 = float(y1), float(y2)
    q = chi2_2_quantile(1.0 - alpha)
    span, n1 = b - a, int(round(2.0 * (b - a) / grid_res)) + 1
    nu1_grid = np.linspace(-span, span, n1)
    radius = _region_radius(y1, y2, model, q, a, b, grid_res)
    near = np.abs(nu1_grid - (y1 - y2)) <= radius
    accepted = np.zeros(n1, dtype=bool)
    accepted[near] = _region_min(y1, y2, model, nu1_grid[near], a, b,
                                 grid_res, radius)[0] <= q
    runs = _runs(accepted)
    if not runs:
        # the form is 0 at (y1 - y2, y1 + y2), in the parallelogram when
        # a <= y1, y2 <= b: only a coarse grid misses it there
        cause = (f"grid_res {grid_res} is too coarse to find the observed "
                 "difference" if a <= min(y1, y2) and max(y1, y2) <= b else
                 "the observed pair maps outside the bounded parameter region")
        raise NumericalError(f"projected confidence set is empty; {cause}")
    runs = np.array(runs)
    ends, outs = nu1_grid[runs], runs + [-1, 1]
    todo = refine_boundaries & (outs >= 0) & (outs < n1)
    inside, outside = ends[todo], nu1_grid[outs[todo]]
    live, decisions, evaluations = np.arange(inside.size), 0, 0
    for _ in range(60):
        if live.size == 0:
            break
        mid = 0.5 * (inside[live] + outside[live])
        hit, spent = _nu1_decisions(y1, y2, model, mid, q, a, b, grid_res,
                                    radius)
        decisions, evaluations = decisions + mid.size, evaluations + spent
        inside[live] = np.where(hit, mid, inside[live])
        outside[live] = np.where(hit, outside[live], mid)
        live = live[np.abs(inside[live] - outside[live]) >= 1e-10]
    ends[todo] = inside
    return replace(ConfidenceSet.from_components(ends.tolist(), 1.0 - alpha),
                   diagnostics={"decisions": decisions,
                                "evaluations": evaluations})


def region_covers_zero(y1, y2, model: VarianceModel, alpha: float, a: float,
                       b: float) -> np.ndarray:
    """Per pair, whether the region's projection holds the difference 0:
    whether its form at nu1 = 0, the pair pivot (2 x^2 + s) / h(mu), x = c -
    mu, c = (y1 + y2)/2, s = (y1 - y2)^2 / 2, is at most q = chi2_2_quantile
    (1 - alpha) on [a, b]. Its least value there is at a, b or a real root
    in [a, b] of 2 t2 x^2 + 4x + t2 s (exp-linear) or (4 - 2 t2) x^2 - 4cx -
    t2 s (power), the cancellation-free pair, which keeps a linear root.
    Under exp-linear-const, whether exact_pivot_crossings' pair set is
    non-empty. DomainError for bounds the kernel refuses (_h_at_bounds)."""
    q = chi2_2_quantile(1.0 - alpha)
    if model.form is VarianceForm.EXP_LINEAR_CONST:
        return ~np.isnan(exact_pivot_crossings(y1, model, q, a, b, y2)).all(0)
    _h_at_bounds(model, a, b)
    y1, y2, t2 = *np.atleast_1d(y1, y2), model.theta[1]
    with np.errstate(all="ignore"):  # far rows: inf, and NaN roots
        c, s = (y1 + y2) / 2.0, (y1 - y2) ** 2 / 2.0
        k2, k1, k0 = ((2.0 * t2, 4.0, t2 * s)
                      if model.form is VarianceForm.EXP_LINEAR
                      else (4.0 - 2.0 * t2, -4.0 * c, -t2 * s))
        w = -0.5 * (k1 + np.copysign(np.sqrt(k1 * k1 - 4.0 * k2 * k0), k1))
        mu = np.vstack([np.clip(c - np.stack([w / k2, k0 / w]), a, b),
                        np.full((2, c.size), [[a], [b]])])
        return ((2.0 * (c - mu) ** 2 + s) / model(mu) <= q).any(axis=0)


def ci_diff_bonferroni(y1, y2, model: VarianceModel, alpha: float,
                       bounds: tuple[float, float]):
    """Difference interval from two exact half-alpha sets, via their hulls."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    n = np.size(y1)
    lo, hi, parts = bounded_hulls(np.append(y1, y2), model, alpha / 2.0,
                                  *bounds)
    if (parts == 0).any():
        raise NumericalError(
            f"confidence set empty after bounding to [{bounds[0]}, {bounds[1]}]")
    return _floats_for_scalar(y1, lo[:n] - hi[n:], hi[:n] - lo[n:])


def ci_diff_naive(y1, y2, model: VarianceModel, alpha: float):
    """Plug-in interval for the difference of two means."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    z = normal_quantile(1.0 - alpha / 2.0)
    half = z * np.sqrt(_positive_h(model, y1) + _positive_h(model, y2))
    d = np.subtract(y1, y2)
    return _floats_for_scalar(d, d - half, d + half)


def ratio_scale(interval):
    """Map a log-scale interval, or columns (lo, hi) of them, to the ratio
    (natural) scale. math.exp, not np.exp: they differ in the last bit on
    ~5% of values. An end past _MAXLOG, where math.exp overflows, is inf."""
    exp = lambda v: math.inf if v > _MAXLOG else math.exp(v)  # noqa: E731
    if np.ndim(interval[0]) == 0:
        return (exp(interval[0]), exp(interval[1]))
    return tuple([exp(v) for v in c] for c in interval)


def bounded_hulls(y, model: VarianceModel, alpha, a: float, b: float,
                  y2=None):
    """Vectorized hulls of bounded exact sets, for batch constructions.

    Returns (lo, hi, parts): per element, the hull of the exact pivot set
    intersected with [a, b] and its number of components as ci_mu_exact
    counts them (0: empty, where lo and hi are NaN; 2: disconnected). Given
    y2, the pair's set, at the chi-squared(2) quantile -2 log alpha."""
    q = chi2_1_quantile(1.0 - alpha) if y2 is None else -2.0 * math.log(alpha)
    ends = exact_pivot_crossings(y, model, q, a, b, y2)
    return (np.fmin(ends[0], ends[2]), np.fmax(ends[1], ends[3]),
            2 - np.isnan(ends[0]) - np.isnan(ends[2]))
