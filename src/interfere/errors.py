"""Exception types shared across the package, and the rules of integer, count, seed, probability and array inputs."""

from typing import Optional

import numpy as np


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


def check_integer(value, name: str) -> int:
    """``value`` as an int, or a ValidationError naming ``name``.

    An integer is an int or an integral float: ``3.0`` is read as 3, while
    ``3.7``, non-finite floats, booleans and strings are rejected rather
    than truncated.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def read_array(values, name: str, dtype=None) -> np.ndarray:
    """``values`` as an array (of ``dtype`` when given), or a ValidationError
    naming ``name`` when it is not one: ragged nested lists, or, for a
    numeric ``dtype``, text, which numpy would otherwise parse."""
    try:
        arr = np.asarray(values)
        if dtype is None:
            return arr
        if arr.dtype.kind not in "SUV":
            return arr.astype(dtype, copy=False)
    except (TypeError, ValueError):  # ragged nesting, or entries that do not cast
        pass
    raise ValidationError(f"{name} must be a rectangular array of numbers")


def check_count(value, name: str) -> int:
    """``value`` as an integer of at least 1, or a ValidationError naming ``name``."""
    count = check_integer(value, name)
    if count < 1:
        raise ValidationError(f"{name} must be at least 1")
    return count


def check_probability(value, name: str) -> None:
    """A ValidationError naming ``name`` unless 0 < ``value`` < 1 (so NaN is rejected)."""
    if not 0.0 < value < 1.0:
        raise ValidationError(f"{name} must lie in (0, 1), got {value}")


def check_seed(value, name: str = "seed", *, philox: bool = False) -> int:
    """``value`` as an integer seed that its generator accepts, or a
    ValidationError naming ``name``.

    A ``default_rng`` seed is nonnegative. A Philox seed (``philox``) lies
    in [-2**63, 2**63): numpy converts the key ``[seed, shard]`` exactly
    only in that range, so wider seeds would share streams.
    """
    seed = check_integer(value, name)
    if philox:
        if not -(2**63) <= seed < 2**63:
            raise ValidationError(f"{name} must lie in [-2**63, 2**63), got {seed}")
    elif seed < 0:
        raise ValidationError(f"{name} must be nonnegative, got {seed}")
    return seed
