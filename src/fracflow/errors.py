"""Exception hierarchy shared by all fracflow modules."""


class FracflowError(Exception):
    """Base class for all package-specific errors."""


class GeometryError(FracflowError):
    """Invalid domain geometry or mesh construction failure."""


class AssemblyError(FracflowError):
    """Mesh lacks the tags or data required to assemble an operator."""


class SolverError(FracflowError):
    """Linear or nonlinear solve failed to converge.

    Carries the residual history so callers can diagnose stagnation.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class ControlError(FracflowError):
    """Set-point solve exceeded its step budget or missed its target."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class ConfigError(FracflowError):
    """Configuration file is malformed or fails validation."""
