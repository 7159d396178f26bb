"""p-values for the hypothesis of equal means in a measurement pair.

Under H0: mu1 = mu2 = mu the statistic (Y1-Y2)^2 / 2h(theta, mu) is
chi-squared with one degree of freedom, but mu is a nuisance parameter.
Three treatments are provided: plugging in the pair mean (anti-conservative
in general), taking the supremum of the tail probability over the whole
mean range (valid but blunt), and the Berger-Boos compromise that restricts
the supremum to a high-confidence set for mu and pays for it with the
complementary probability.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .intervals import bounded_hulls, chi2_1_sf, ci_mu_exact
from .model import DEFAULT_BOUNDS, VarianceForm, VarianceModel

logger = logging.getLogger(__name__)

DEFAULT_BETA_ANALYSIS = 1e-6
DEFAULT_BETA_POWER = 1e-3

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestMethod(enum.Enum):
    __test__ = False  # not a pytest class

    NAIVE = "naive"
    CONSERVATIVE = "conservative"
    BERGER_BOOS = "berger-boos"


@dataclass(frozen=True)
class TestResult:
    """Outcome of one equal-means test.

    statistic is the plug-in chi-squared value (naive method only).
    mu_sup records the nuisance value attaining the supremum, for audit.
    degenerate marks a Berger-Boos call whose confidence set missed the
    allowed range entirely (the p-value is then just beta).
    """

    __test__ = False  # not a pytest class

    p_value: float
    method: TestMethod
    statistic: float | None = None
    beta: float | None = None
    mu_sup: float | None = None
    degenerate: bool = False

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0,1]")


def _tail_at(y1, y2, model: VarianceModel, mu) -> np.ndarray:
    return chi2_1_sf((y1 - y2) ** 2 / (2.0 * model(mu)))


def _sup_tail(y1: float, y2: float, model: VarianceModel,
              lo: float, hi: float) -> tuple[float, float]:
    """Supremum of the tail probability over mu in [lo, hi], with argmax.

    The tail is largest where the variance is largest. For the exp-linear
    form that is an endpoint; other forms get a dense grid plus a
    golden-section polish around the best point.
    """
    if hi < lo:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    if model.form is VarianceForm.EXP_LINEAR:
        mu = lo if model.theta[1] <= 0 else hi
        return float(_tail_at(y1, y2, model, mu)), mu
    grid = np.linspace(lo, hi, 1000)
    vals = _tail_at(y1, y2, model, grid)
    k = int(np.argmax(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, grid.size - 1)]
    # Golden-section refinement of the bracketing cell.
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    for _ in range(80):
        if _tail_at(y1, y2, model, c) >= _tail_at(y1, y2, model, d):
            b, d = d, c
            c = b - _GOLDEN * (b - a)
        else:
            a, c = c, d
            d = a + _GOLDEN * (b - a)
    mu = 0.5 * (a + b)
    return float(_tail_at(y1, y2, model, mu)), float(mu)


def pvalue_naive(y1: float, y2: float, model: VarianceModel) -> TestResult:
    """Plug-in test: the pair mean replaces the unknown common mean."""
    ybar = (y1 + y2) / 2.0
    stat = (y1 - y2) ** 2 / (2.0 * float(model(ybar)))
    return TestResult(p_value=float(chi2_1_sf(stat)), method=TestMethod.NAIVE,
                      statistic=stat, mu_sup=ybar)


def pvalue_conservative(y1: float, y2: float, model: VarianceModel,
                        bounds: tuple[float, float] = DEFAULT_BOUNDS) -> TestResult:
    """Supremum of the tail probability over the whole mean range."""
    a, b = bounds
    p, mu = _sup_tail(y1, y2, model, a, b)
    return TestResult(p_value=p, method=TestMethod.CONSERVATIVE, mu_sup=mu)


def _cbeta_hull_mean_pivot(ybar, model, beta, bounds):
    """Hull of the confidence set for the common mean from the pair average.

    Under H0 the average is N(mu, h(theta, mu)/2), so the single-observation
    pivot machinery applies with the variance halved.
    """
    return ci_mu_exact(ybar, model.scaled(0.5), beta, bounds).hull


def _cbeta_hull_pair_pivot(y1, y2, model, beta, bounds):
    """Hull of the two-observation chi-squared(2) pivot set on the grid."""
    a, b = bounds
    q = -2.0 * math.log(beta)  # chi-squared 2 df quantile at 1 - beta
    grid = np.linspace(a, b, 20001)
    accepted = ((y1 - grid) ** 2 + (y2 - grid) ** 2) / model(grid) <= q
    if not np.any(accepted):
        raise NumericalError("pair-pivot confidence set misses the bounds")
    idx = np.flatnonzero(accepted)
    return (float(grid[idx[0]]), float(grid[idx[-1]]))


def pvalue_berger_boos(
    y1: float,
    y2: float,
    model: VarianceModel,
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
    beta: float = DEFAULT_BETA_ANALYSIS,
    cbeta_pivot: str = "mean",
) -> TestResult:
    """Supremum over a 1-beta confidence set for the nuisance mean, plus beta.

    The default confidence set inverts the pair-average pivot (the tightest
    single-parameter construction under H0); cbeta_pivot="pair" switches to
    the two-observation chi-squared(2 df) variant for sensitivity analysis.
    The result exceeds beta by construction and is capped at 1.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must be in (0,1), got {beta}")
    if cbeta_pivot not in ("mean", "pair"):
        raise ValueError(f"unknown cbeta_pivot {cbeta_pivot!r}")
    ybar = (y1 + y2) / 2.0
    try:
        if cbeta_pivot == "mean":
            lo, hi = _cbeta_hull_mean_pivot(ybar, model, beta, bounds)
        else:
            lo, hi = _cbeta_hull_pair_pivot(y1, y2, model, beta, bounds)
    except NumericalError:
        logger.warning(
            "Berger-Boos confidence set for the mean misses [%g, %g]; "
            "returning p = beta = %g", bounds[0], bounds[1], beta)
        return TestResult(p_value=beta, method=TestMethod.BERGER_BOOS,
                          beta=beta, degenerate=True)
    sup, mu = _sup_tail(y1, y2, model, lo, hi)
    return TestResult(p_value=min(1.0, sup + beta),
                      method=TestMethod.BERGER_BOOS, beta=beta, mu_sup=mu)


def batch_pvalues(
    y1,
    y2,
    model: VarianceModel,
    method: TestMethod,
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
    beta: float = DEFAULT_BETA_POWER,
) -> np.ndarray:
    """Vectorized p-values over arrays of pairs.

    The exp-linear form with a negative slope is computed with array
    operations throughout (the supremum locations are closed-form); other
    forms fall back to the scalar routines per pair.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    fast = model.form is VarianceForm.EXP_LINEAR and model.theta[1] < 0
    if method is TestMethod.NAIVE:
        return np.asarray(chi2_1_sf(
            (y1 - y2) ** 2 / (2.0 * model((y1 + y2) / 2.0))))
    if method is TestMethod.CONSERVATIVE:
        if fast:
            return np.asarray(_tail_at(y1, y2, model, bounds[0]))
        return np.array([
            pvalue_conservative(a, b, model, bounds).p_value
            for a, b in zip(y1, y2)])
    if method is TestMethod.BERGER_BOOS:
        if fast:
            ybar = (y1 + y2) / 2.0
            lo, _, empty = bounded_hulls(ybar, model.scaled(0.5), beta,
                                         bounds[0], bounds[1])
            p = _tail_at(y1, y2, model, lo) + beta
            p = np.where(empty, beta, np.minimum(p, 1.0))
            return p
        return np.array([
            pvalue_berger_boos(a, b, model, bounds, beta).p_value
            for a, b in zip(y1, y2)])
    raise ValueError(f"unknown method {method}")
