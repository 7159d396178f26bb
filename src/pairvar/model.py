"""Core data model: variance functions and datasets of measurement pairs.

A measurement pair (y1, y2) for one peptide is modeled as two independent
draws from N(mu, h(theta, mu)), where h is a parametric variance function
of the unknown mean. Intensities are on the natural-log scale throughout.
A PairedDataset holds its pairs as read-only float arrays, one element per
pair: y1, y2, the pair means ybar and the variance statistics s2, with the
pair ids alongside.
"""

from __future__ import annotations

import csv
import enum
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, DomainError

logger = logging.getLogger(__name__)

DEFAULT_BOUNDS = (7.3, 13.9)
MAX_GRID_POINTS = 10**6  # cap on a mixture support grid and a region scan
_EXP_MAX = 709.782712893384  # largest x with finite float64 exp(x)


class VarianceForm(enum.Enum):
    """Parametric families for the variance function h(theta, mu)."""

    EXP_LINEAR = "exp-linear"            # exp(t1 + t2*mu)
    POWER = "power"                      # exp(t1) * mu**t2, mu > 0
    EXP_LINEAR_CONST = "exp-linear-const"  # exp(t1 + t2*mu) + exp(t3)

    @property
    def n_params(self) -> int:
        return 3 if self is VarianceForm.EXP_LINEAR_CONST else 2

    @classmethod
    def from_name(cls, name: str) -> "VarianceForm":
        for form in cls:
            if form.value == name:
                return form
        raise DataError(f"unknown variance form {name!r}; "
                         f"expected one of {[f.value for f in cls]}")


@dataclass(frozen=True)
class VarianceModel:
    """A variance function: a form tag plus its coefficient vector.

    Coefficients are dimensionless on the log-intensity scale. The value
    h(theta, mu) must be strictly positive wherever it is evaluated.
    """

    form: VarianceForm
    theta: tuple[float, ...]

    def __post_init__(self):
        theta = tuple(float(t) for t in self.theta)
        object.__setattr__(self, "theta", theta)
        if len(theta) != self.form.n_params:
            raise DataError(
                f"{self.form.value} takes {self.form.n_params} coefficients, "
                f"got {len(theta)}"
            )
        if not all(math.isfinite(t) for t in theta):
            raise DataError(f"non-finite coefficients: {theta}")

    def __call__(self, mu):
        """Evaluate h(theta, mu); accepts scalars or arrays."""
        t = self.theta
        mu = np.asarray(mu, dtype=float)
        if self.form is VarianceForm.POWER:
            return np.exp(t[0]) * mu ** t[1]
        h = np.exp(t[0] + t[1] * mu)
        if self.form is VarianceForm.EXP_LINEAR:
            return h
        return h + (math.exp(t[2]) if t[2] <= _EXP_MAX else math.inf)

    def log_derivatives(self, mu):
        """First and second partials of log h with respect to the coefficients.

        Returns (g, g2) of shapes (n_params,) + shape(mu) and
        (n_params, n_params) + shape(mu). log h is linear in theta for the
        exp-linear and power forms, where g2 is None (zero).
        """
        mu = np.asarray(mu, dtype=float)
        t = self.theta
        if self.form is VarianceForm.EXP_LINEAR:
            return np.stack([np.ones_like(mu), mu]), None
        if self.form is VarianceForm.POWER:
            return np.stack([np.ones_like(mu), np.log(mu)]), None
        # p and q = 1 - p: the exp-linear and constant shares of h
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(t[2] - t[0] - t[1] * mu))
            q = 1.0 / (1.0 + np.exp(t[0] + t[1] * mu - t[2]))
        z = np.stack([np.ones_like(mu), mu, -np.ones_like(mu)])
        return np.stack([p, mu * p, q]), p * q * z[:, None] * z[None, :]

    def scaled(self, factor: float) -> "VarianceModel":
        """A model evaluating to factor * h(theta, mu); used for pivots on pair means."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        t = list(self.theta)
        shift = math.log(factor)
        t[0] += shift
        if self.form is VarianceForm.EXP_LINEAR_CONST:
            t[2] += shift
        return VarianceModel(self.form, tuple(t))


def _readonly(values) -> np.ndarray:
    y = np.array(values, dtype=float)
    y.flags.writeable = False
    return y


class PairedDataset:
    """Measurement pairs as read-only arrays plus the assumed mean support [a, b].

    y1[i] and y2[i] are the two log intensities of the pair named ids()[i];
    ybar and s2 are the pair means and the one-degree-of-freedom variance
    estimates (y1 - y2)^2 / 2. ids is a sequence of names or a pattern,
    such as "sim-%06d", naming pair i pattern % i when asked for.
    Datasets compare and hash by identity.
    """

    def __init__(self, ids: Sequence[str] | str, y1, y2,
                 bounds: tuple[float, float] = DEFAULT_BOUNDS):
        self._ids = ids if isinstance(ids, str) else tuple(ids)
        self.y1, self.y2 = _readonly(y1), _readonly(y2)
        n_ids = self.y1.size if isinstance(ids, str) else len(self._ids)
        if not (self.y1.ndim == self.y2.ndim == 1
                and n_ids == self.y1.size == self.y2.size):
            raise DataError(f"ids, y1 and y2 must be 1-D of one length, got "
                             f"{n_ids}, {self.y1.shape}, {self.y2.shape}")
        bad = ~(np.isfinite(self.y1) & np.isfinite(self.y2))
        if bad.any():
            k = int(bad.argmax())
            raise DataError(f"non-finite intensities for {self.ids()[k]!r}: "
                             f"({self.y1[k]}, {self.y2[k]})")
        a, b = bounds
        self.bounds = (float(a), float(b))
        if not (self.bounds[0] < self.bounds[1]):
            raise DataError(f"bounds must satisfy a < b, got {self.bounds}")
        with np.errstate(over="ignore"):  # an extreme pair: s2 = inf
            self.ybar = _readonly((self.y1 + self.y2) / 2.0)
            self.s2 = _readonly((self.y1 - self.y2) ** 2 / 2.0)

    @property
    def n(self) -> int:
        return self.y1.size

    def ids(self) -> list[str]:
        if isinstance(self._ids, str):
            return [self._ids % k for k in range(self.n)]
        return list(self._ids)


def build_dataset(
    rows: Iterable[tuple[str, float, float]],
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
    drop_ties: bool = True,
) -> PairedDataset:
    """Assemble a dataset, dropping exactly tied pairs.

    Pairs with y1 == y2 carry no variance information under the pivot
    constructions and are removed, their count logged as a warning.
    """
    rows = list(rows)
    ids = [r[0] for r in rows]
    y1, y2 = (np.array([r[k] for r in rows], dtype=float) for k in (1, 2))
    if drop_ties:
        keep = y1 != y2
        ties = keep.size - int(keep.sum())
        if ties:
            logger.warning("dropped %d pair(s) with identical measurements",
                           ties)
            ids = [pid for pid, k in zip(ids, keep) if k]
            y1, y2 = y1[keep], y2[keep]
    return PairedDataset(ids, y1, y2, bounds)


def log_raw(*values: float, row: int | None = None) -> tuple[float, ...]:
    """Natural logs of raw intensities; DataError unless all are positive."""
    if min(values) <= 0:
        raise DataError("raw intensities must be positive to take logs, got "
                        f"({', '.join(map(str, values))})", row=row)
    return tuple(math.log(v) for v in values)


def load_csv(
    path,
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
    raw: bool = False,
    drop_ties: bool = True,
) -> PairedDataset:
    """Read pairs from a CSV with header ``id,y1,y2``.

    Values must parse as finite decimal reals; a bad cell raises DataError
    with its 1-based row number. With raw=True the natural log is applied
    on ingestion (for intensities not already on the log scale).
    """
    rows: list[tuple[str, float, float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file, expected header id,y1,y2") from None
        if [c.strip().lower() for c in header[:3]] != ["id", "y1", "y2"]:
            raise DataError(f"expected header id,y1,y2; got {header!r}", row=1)
        for lineno, cells in enumerate(reader, start=2):
            if not cells or all(not c.strip() for c in cells):
                continue
            if len(cells) < 3:
                raise DataError(f"expected 3 columns, got {len(cells)}", row=lineno)
            pid = cells[0].strip()
            try:
                y1 = float(cells[1])
                y2 = float(cells[2])
            except ValueError:
                raise DataError(f"unparseable intensity in {cells[1:3]!r}",
                                row=lineno) from None
            if not (math.isfinite(y1) and math.isfinite(y2)):
                raise DataError(f"non-finite intensity ({y1}, {y2})", row=lineno)
            if raw:
                y1, y2 = log_raw(y1, y2, row=lineno)
            rows.append((pid, y1, y2))
    return build_dataset(rows, bounds=bounds, drop_ties=drop_ties)


def estimating_equation_bias(
    theta: Sequence[float], mus: Sequence[float]
) -> tuple[float, float]:
    """Exact expectations of the two exp-linear estimating equations at the true theta.

    For h(theta, mu) = exp(t1 + t2*mu), the pair mean and S^2 are independent
    with E S_i^2 = exp(t1 + t2*mu_i) and
    E exp(-t1 - t2*Ybar_i) = exp(-t1 - t2*mu_i + t2^2/4 * exp(t1 + t2*mu_i)),
    so the population values of the two estimating equations are

        1 - N^-1 sum_i exp(t2^2/4 * e_i)
        N^-1 sum_i mu_i - N^-1 sum_i (mu_i - t2/2 * e_i) * exp(t2^2/4 * e_i)

    with e_i = exp(t1 + t2*mu_i). Both vanish only when t2 = 0. This is the
    analytic oracle for the small-variance bias of the approximate
    conditional likelihood fit.
    """
    if len(theta) != 2:
        raise DomainError("bias formulas apply to the exp-linear form only "
                          f"(2 coefficients), got {len(theta)}")
    mus = np.asarray(mus, dtype=float)
    if mus.size == 0:
        raise ValueError("mus must be nonempty")
    t1, t2 = float(theta[0]), float(theta[1])
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(t1 + t2 * mus)
        inflate = np.exp(0.25 * t2 * t2 * e)
    bad = ~np.isfinite(inflate)
    if bad.any():
        raise DomainError("h(theta, mu) or exp(t2^2 h / 4) is not finite at "
                          f"mu = {mus[bad][0]}")
    first = 1.0 - float(np.mean(inflate))
    second = float(np.mean(mus) - np.mean((mus - 0.5 * t2 * e) * inflate))
    return first, second
