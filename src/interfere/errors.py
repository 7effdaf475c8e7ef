"""Exception types shared across the package."""

from typing import Optional


class InterfereError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(InterfereError, ValueError):
    """Invalid input data, configuration, or precondition violation.

    ``unit`` is the index of the offending unit when a single unit is at
    fault, so that a loader can name the input row it came from.
    """

    def __init__(self, message: str, unit: Optional[int] = None):
        super().__init__(message)
        self.unit = unit


class NoEffectiveUnitsError(InterfereError):
    """No unit is effectively treated, so exposure-restricted estimates are undefined."""


class DegenerateVarianceError(InterfereError):
    """The randomization variance estimate is zero (or negative), so no
    normal-approximation bound can be formed."""


class ZeroJointProbabilityError(InterfereError):
    """A pair of units is jointly exposed although its joint exposure
    probability is zero; the exposure profile is inconsistent with the data."""


class PowerIterationError(InterfereError):
    """Power iteration failed to reach the requested accuracy."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
