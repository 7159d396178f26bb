"""Core data model: variance functions, paired observations, sufficient statistics.

A measurement pair (y1, y2) for one peptide is modeled as two independent
draws from N(mu, h(theta, mu)), where h is a parametric variance function
of the unknown mean. Intensities are on the natural-log scale throughout.
"""

from __future__ import annotations

import csv
import enum
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, DomainError

DEFAULT_BOUNDS = (7.3, 13.9)


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
        raise ValueError(f"unknown variance form {name!r}; "
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
            raise ValueError(
                f"{self.form.value} takes {self.form.n_params} coefficients, "
                f"got {len(theta)}"
            )
        if not all(math.isfinite(t) for t in theta):
            raise ValueError(f"non-finite coefficients: {theta}")

    def __call__(self, mu):
        """Evaluate h(theta, mu); accepts scalars or arrays."""
        t = self.theta
        if self.form is VarianceForm.EXP_LINEAR:
            return np.exp(t[0] + t[1] * np.asarray(mu, dtype=float))
        if self.form is VarianceForm.POWER:
            return np.exp(t[0]) * np.asarray(mu, dtype=float) ** t[1]
        return np.exp(t[0] + t[1] * np.asarray(mu, dtype=float)) + math.exp(t[2])

    def gradient(self, mu) -> np.ndarray:
        """Partial derivatives of h with respect to each coefficient.

        Returns an array of shape (n_params,) + shape(mu).
        """
        mu = np.asarray(mu, dtype=float)
        t = self.theta
        if self.form is VarianceForm.EXP_LINEAR:
            h = np.exp(t[0] + t[1] * mu)
            return np.stack([h, mu * h])
        if self.form is VarianceForm.POWER:
            h = np.exp(t[0]) * mu ** t[1]
            return np.stack([h, h * np.log(mu)])
        e = np.exp(t[0] + t[1] * mu)
        c = np.full_like(e, math.exp(t[2]))
        return np.stack([e, mu * e, c])

    def hessian(self, mu) -> np.ndarray:
        """Second partials of h; shape (n_params, n_params) + shape(mu)."""
        mu = np.asarray(mu, dtype=float)
        t = self.theta
        if self.form is VarianceForm.EXP_LINEAR:
            h = np.exp(t[0] + t[1] * mu)
            return np.stack([
                np.stack([h, mu * h]),
                np.stack([mu * h, mu * mu * h]),
            ])
        if self.form is VarianceForm.POWER:
            h = np.exp(t[0]) * mu ** t[1]
            lm = np.log(mu)
            return np.stack([
                np.stack([h, h * lm]),
                np.stack([h * lm, h * lm * lm]),
            ])
        e = np.exp(t[0] + t[1] * mu)
        c = np.full_like(e, math.exp(t[2]))
        z = np.zeros_like(e)
        return np.stack([
            np.stack([e, mu * e, z]),
            np.stack([mu * e, mu * mu * e, z]),
            np.stack([z, z, c]),
        ])

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


@dataclass(frozen=True)
class PairedObservation:
    """One peptide's two log-intensity measurements."""

    id: str
    y1: float
    y2: float

    def __post_init__(self):
        if not (math.isfinite(self.y1) and math.isfinite(self.y2)):
            raise ValueError(f"non-finite intensities for {self.id!r}: "
                             f"({self.y1}, {self.y2})")


@dataclass(frozen=True)
class PairedDataset:
    """A collection of measurement pairs plus the assumed mean support [a, b]."""

    pairs: tuple[PairedObservation, ...]
    bounds: tuple[float, float] = DEFAULT_BOUNDS

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        a, b = self.bounds
        object.__setattr__(self, "bounds", (float(a), float(b)))
        if not (self.bounds[0] < self.bounds[1]):
            raise ValueError(f"bounds must satisfy a < b, got {self.bounds}")

    @property
    def n(self) -> int:
        return len(self.pairs)

    @cached_property
    def y1(self) -> np.ndarray:
        return np.array([p.y1 for p in self.pairs])

    @cached_property
    def y2(self) -> np.ndarray:
        return np.array([p.y2 for p in self.pairs])

    @cached_property
    def ybar(self) -> np.ndarray:
        return (self.y1 + self.y2) / 2.0

    @cached_property
    def s2(self) -> np.ndarray:
        return (self.y1 - self.y2) ** 2 / 2.0

    def ids(self) -> list[str]:
        return [p.id for p in self.pairs]


def build_dataset(
    rows: Iterable[tuple[str, float, float]],
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
    drop_ties: bool = True,
) -> PairedDataset:
    """Assemble a dataset, dropping exactly tied pairs with a warning.

    Pairs with y1 == y2 carry no variance information under the pivot
    constructions and are removed; the count is reported via warnings.
    """
    kept = []
    ties = 0
    for pid, y1, y2 in rows:
        if drop_ties and y1 == y2:
            ties += 1
            continue
        kept.append(PairedObservation(id=pid, y1=y1, y2=y2))
    if ties:
        warnings.warn(f"dropped {ties} pair(s) with identical measurements",
                      stacklevel=2)
    return PairedDataset(pairs=tuple(kept), bounds=bounds)


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
                if y1 <= 0 or y2 <= 0:
                    raise DataError(
                        f"raw intensities must be positive to take logs, "
                        f"got ({y1}, {y2})", row=lineno)
                y1, y2 = math.log(y1), math.log(y2)
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
    e = np.exp(t1 + t2 * mus)
    inflate = np.exp(0.25 * t2 * t2 * e)
    first = 1.0 - float(np.mean(inflate))
    second = float(np.mean(mus) - np.mean((mus - 0.5 * t2 * e) * inflate))
    return first, second
