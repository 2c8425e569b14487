"""Exception hierarchy shared across the package.

CLI exit-code contract: DomainError and subclasses map to exit code 2,
GenerationError/ConvergenceError to exit code 3.
"""


class EffcondError(Exception):
    """Base class for all package errors."""


class DomainError(EffcondError, ValueError):
    """Invalid argument or parameter outside the supported domain."""


class InvalidCellError(DomainError):
    """Cell periods violate omega1 > 0, Im(omega2) > 0 or the aspect guard."""


class NearSingularityError(DomainError):
    """Evaluation point too close to a lattice point for direct evaluation."""


class DependencyError(DomainError):
    """A required input (e.g. a structural-sum index) is missing."""

    def __init__(self, message, missing=None):
        super().__init__(message)
        self.missing = missing


class GenerationError(EffcondError, RuntimeError):
    """Random placement exhausted its attempt budget."""

    def __init__(self, message, placed=0):
        super().__init__(message)
        self.placed = placed


class ConvergenceError(EffcondError, RuntimeError):
    """Fixed-point iteration failed to reach the requested tolerance."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])
