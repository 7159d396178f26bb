"""Exception types shared across the package.

The CLI maps these onto exit codes: DataError -> 3, DomainError and
NumericalError -> 4.
"""


class PairvarError(Exception):
    """Base class for all package errors."""


class DataError(PairvarError, ValueError):
    """Malformed or unusable input (row number when known); a ValueError."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class DomainError(PairvarError):
    """Arguments outside the mathematical domain of an operation."""


class NumericalError(PairvarError):
    """Numerical failure: non-convergence, underflow, degenerate systems."""


class ConvergenceError(NumericalError):
    """Solver failed to converge; carries the best iterate found."""

    def __init__(self, message: str, theta=None, residual_norm=None, iterations=None):
        super().__init__(message)
        self.theta = theta
        self.residual_norm = residual_norm
        self.iterations = iterations


class StudyError(NumericalError):
    """A simulation study had too many replicate failures to be trusted."""
