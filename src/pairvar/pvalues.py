"""p-values for the hypothesis of equal means in a measurement pair.

Under H0: mu1 = mu2 = mu the statistic (Y1-Y2)^2 / 2h(theta, mu) is
chi-squared with one degree of freedom, but mu is a nuisance parameter.
Three treatments are provided: plugging in the pair mean (anti-conservative
in general), taking the supremum of the tail probability over the whole
mean range (valid but blunt), and the Berger-Boos compromise that restricts
the supremum to a high-confidence set for mu and pays for it with the
complementary probability.

The tail probability grows with h, and every variance form is monotone on
the bounds [a, b], so the supremum over an interval [lo, hi] inside them
sits at an end: at lo when h(a) >= h(b), at hi otherwise. One array kernel
(pvalue_kernel) computes every method for every form; the scalar tests
run it on a batch of one, and batch_pvalues returns its p-values.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .intervals import _h_at_bounds, _positive_h, bounded_hulls, chi2_1_sf
# bench/tracing.py wraps pairvar.pvalues.ci_mu_exact; keep the name here.
from .intervals import ci_mu_exact  # noqa: F401
from .model import DEFAULT_BOUNDS, VarianceModel

logger = logging.getLogger(__name__)

DEFAULT_BETA_ANALYSIS = 1e-6
DEFAULT_BETA_POWER = 1e-3


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


@np.errstate(over="ignore")  # an extreme y1 - y2 squares to inf: p = 0
def pvalue_kernel(y1, y2, model: VarianceModel, method: TestMethod,
                  bounds: tuple[float, float] = DEFAULT_BOUNDS,
                  beta: float = DEFAULT_BETA_ANALYSIS, cbeta_pivot="mean"):
    """One method's p-values over arrays of pairs.

    Returns per pair the p-value, the nuisance mean attaining the supremum
    (NaN where degenerate), whether the Berger-Boos set missed [a, b], and
    the plug-in statistic (naive only, else None). Degenerate pairs are
    logged once per call, with their count. DomainError unless h is finite
    and positive at the pair means for the naive test, else at a and b by
    the bounds rule of every bounded construction (_h_at_bounds).
    """
    y1, y2 = (np.atleast_1d(np.asarray(y, dtype=float)) for y in (y1, y2))
    ybar = (y1 + y2) / 2.0
    if method is TestMethod.NAIVE:
        stat = (y1 - y2) ** 2 / (2.0 * _positive_h(model, ybar))
        return chi2_1_sf(stat), ybar, np.zeros(ybar.shape, dtype=bool), stat
    if method not in (TestMethod.CONSERVATIVE, TestMethod.BERGER_BOOS):
        raise ValueError(f"unknown method {method}")
    a, b = bounds
    if method is TestMethod.BERGER_BOOS:
        if not 0.0 < beta < 1.0:
            raise DomainError(f"beta must be in (0,1), got {beta}")
        if cbeta_pivot not in ("mean", "pair"):
            raise ValueError(f"unknown cbeta_pivot {cbeta_pivot!r}")
    h_a, h_b = _h_at_bounds(model, a, b)
    if method is TestMethod.CONSERVATIVE:
        lo, hi, parts = a, b, np.ones(ybar.shape, dtype=int)
    elif cbeta_pivot == "mean":
        # Under H0 the pair average is N(mu, h(mu)/2): the one-observation
        # pivot with the variance halved.
        lo, hi, parts = bounded_hulls(ybar, model.scaled(0.5), beta, a, b)
    else:  # the two-observation pivot, chi-squared with 2 df
        lo, hi, parts = bounded_hulls(y1, model, beta, a, b, y2)
    empty = parts == 0
    mu = np.where(empty, a, lo if h_a >= h_b else hi)
    p = chi2_1_sf((y1 - y2) ** 2 / (2.0 * model(mu)))
    if method is TestMethod.BERGER_BOOS:
        p = np.where(empty, beta, np.minimum(p + beta, 1.0))
        if empty.any():
            logger.warning(
                "Berger-Boos confidence set for the mean misses [%g, %g] for "
                "%d of %d pairs; returning p = beta = %g there", a, b,
                np.count_nonzero(empty), empty.size, beta)
    return p, np.where(empty, np.nan, mu), empty, None


def _one(y1, y2, model, method, bounds=DEFAULT_BOUNDS, beta=None,
         cbeta_pivot="mean") -> TestResult:
    p, mu, degenerate, stat = pvalue_kernel(y1, y2, model, method, bounds,
                                            beta, cbeta_pivot)
    return TestResult(p_value=float(p[0]), method=method,
                      statistic=None if stat is None else float(stat[0]),
                      beta=beta, mu_sup=None if degenerate[0] else float(mu[0]),
                      degenerate=bool(degenerate[0]))


def pvalue_naive(y1: float, y2: float, model: VarianceModel) -> TestResult:
    """Plug-in test: the pair mean replaces the unknown common mean."""
    return _one(y1, y2, model, TestMethod.NAIVE)


def pvalue_conservative(y1: float, y2: float, model: VarianceModel,
                        bounds: tuple[float, float] = DEFAULT_BOUNDS) -> TestResult:
    """Supremum of the tail probability over the whole mean range."""
    return _one(y1, y2, model, TestMethod.CONSERVATIVE, bounds)


def pvalue_berger_boos(y1: float, y2: float, model: VarianceModel,
                       bounds: tuple[float, float] = DEFAULT_BOUNDS,
                       beta: float = DEFAULT_BETA_ANALYSIS,
                       cbeta_pivot: str = "mean") -> TestResult:
    """Supremum over a 1-beta confidence set for the nuisance mean, plus beta.

    The default confidence set inverts the pair-average pivot (the tightest
    single-parameter construction under H0); cbeta_pivot="pair" switches to
    the two-observation chi-squared(2 df) variant for sensitivity analysis.
    The result exceeds beta by construction and is capped at 1.
    """
    return _one(y1, y2, model, TestMethod.BERGER_BOOS, bounds, beta,
                cbeta_pivot)


def batch_pvalues(y1, y2, model: VarianceModel, method: TestMethod,
                  bounds: tuple[float, float] = DEFAULT_BOUNDS,
                  beta: float = DEFAULT_BETA_POWER) -> np.ndarray:
    """Vectorized p-values over arrays of pairs, for every method and form."""
    return pvalue_kernel(y1, y2, model, method, bounds, beta)[0]
