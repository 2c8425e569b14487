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


class GenerationError(EffcondError, RuntimeError):
    """Random placement exhausted its attempt budget."""

    def __init__(self, message, placed=0):
        super().__init__(message)
        self.placed = placed


class ConvergenceError(EffcondError, RuntimeError):
    """The Lanczos solve used its iteration budget without reaching the
    tolerance, or found |rho| ||W|| >= 1."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])
