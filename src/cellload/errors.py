"""Exception hierarchy shared across the package."""


class CellLoadError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CellLoadError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConvergenceError(CellLoadError):
    """A quadrature did not reach the requested tolerance.

    Carries the best available estimate so callers can decide whether the
    partial result is still usable.
    """

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


class InfeasibleModelError(CellLoadError, ValueError):
    """A fit or inversion is undefined for the given inputs."""


class InversionQualityError(CellLoadError):
    """A PGF inversion produced a mass function that fails its sanity checks."""


class ConfigurationError(CellLoadError, ValueError):
    """A simulation or CLI configuration violates an invariant."""
