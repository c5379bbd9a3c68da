"""Exception types shared across the pricing modules."""


class PricingError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PricingError):
    """Model, contract, or configuration input violates a precondition.

    The message names the first offending field, e.g. ``"generator row 0
    sums to -0.5"`` or ``"sigma[1] not > 0"``.
    """


class InvalidEnvironment(ValidationError):
    """An environment variable an engine reads holds an unusable value,
    e.g. ``"PRICER_THREADS='two' is not a positive integer"``."""


class QuadratureNotConverged(PricingError):
    """A European price missed its quadrature tolerance after every refinement."""


class InterpolationOutOfRange(PricingError):
    """A grid interpolation was asked for a point outside the grid."""


class NotApplicable(PricingError):
    """The requested mapping is undefined for the given state.

    Used by the fixed/floating symmetry, which only holds at inception
    (t = 0 and empty running average).
    """


class LinearSolveFailure(PricingError):
    """A banded linear solve failed inside the FD scheme."""
