"""Exception types shared across the package."""


class DiscenvError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(DiscenvError):
    """Bad structural input: wrong sample count, dimension mismatch, bad config."""


class DegenerateInputError(DiscenvError):
    """Input is degenerate for the requested operation (e.g. a zero on the circle)."""


class UndersampledError(DiscenvError):
    """Sampling resolution is too coarse to resolve the requested quantity."""


class NonHolomorphicError(DiscenvError):
    """Input carries significant Fourier mass at forbidden (negative) frequencies."""


class PreconditionError(DiscenvError):
    """A documented precondition of an operation is violated."""


class UnsupportedDimensionError(DiscenvError):
    """Operation only implemented for a restricted set of dimensions."""


class EvaluationError(DiscenvError):
    """Obstacle or field evaluation failed at a specific point."""


class InfeasibleEnvelope(DiscenvError):
    """No disc of the searched families has a finite boundary average
    at the point, so the search gives no bound there."""
