"""Exception and warning types shared across the package."""

from __future__ import annotations


class DynamapError(Exception):
    """Base class for all errors raised by dynamap."""


class DimensionMismatch(DynamapError):
    """Operands do not share a compatible dimension."""


class SingularBasis(DynamapError):
    """Tomography basis is too ill-conditioned to solve for maps."""


class BranchAmbiguity(DynamapError):
    """Matrix logarithm undefined: an eigenvalue lies on the negative real axis."""


class NonDiagonalizable(DynamapError):
    """Eigendecomposition is too ill-conditioned to trust."""


class CutoffExceedsData(DynamapError):
    """Requested memory cutoff is below one step or longer than the available data."""


class StationaryMapFlagged(DynamapError):
    """The single-step map selected for extrapolation came from a flagged inversion."""


class NotTracePreserving(DynamapError):
    """Generator or map violates trace preservation beyond tolerance."""


class NegativeFrequency(DynamapError):
    """Spectral densities are defined for non-negative frequencies only."""


class QuadratureFailure(DynamapError):
    """Adaptive quadrature did not reach the requested accuracy.

    ``estimate`` holds the achieved absolute error estimate.
    """

    def __init__(self, estimate: float, message: str | None = None):
        self.estimate = float(estimate)
        super().__init__(message or f"quadrature error estimate {self.estimate:.3e} above tolerance")


class TruncationGuard(DynamapError):
    """Extended (system + mode) dimension exceeds the desk-scale limit."""


class MemoryBudgetExceeded(DynamapError):
    """Path-tensor propagation would exceed the configured memory budget."""


class NonDiagonalizableCoupling(DynamapError):
    """System-bath coupling operator cannot be diagonalized by a unitary."""


class ConfigError(DynamapError):
    """Invalid or inconsistent run configuration."""


class UnknownModel(ConfigError):
    """Requested built-in model name does not exist."""


class DegenerateRates(UserWarning):
    """Two canonical rates coincide; operators in the block are basis-ambiguous."""
