"""Exception types shared across the package, and the one rule of each kind
of input: numbers, integers, counts, seeds, probabilities, levels, positive
parameters, arrays and instances of the package's types.

Every public function reads each of its scalar and object arguments through
one of the functions below, once. A number is an int, a float or a numpy
scalar, and a finite one; a boolean, a string or None is not a number, and
neither is NaN, an infinity or an int beyond the float range. The range
rules (``check_probability``, ``check_level``) keep their own message for
every number outside their range, NaN included. An object argument (a
population, neighborhoods, a mapping, an exposure, a profile, a scenario)
is read by ``check_instance``, the package's only type check, so a value of
another type is a ValidationError, not an AttributeError further in.
"""

import sys
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
    numeric ``dtype``, text, which numpy would otherwise parse, and None,
    which numpy would otherwise read as NaN."""
    try:
        arr = np.asarray(values)
        if dtype is None:
            return arr
        if arr.dtype.kind not in "SUV" and not (arr.dtype.kind == "O" and any(v is None for v in arr.flat)):
            return arr.astype(dtype, copy=False)
    except (TypeError, ValueError):  # ragged nesting, or entries that do not cast
        pass
    raise ValidationError(f"{name} must be a rectangular array of numbers")


def check_instance(value, kind: type, name: str):
    """``value`` when it is an instance of ``kind``, or a ValidationError naming ``name``."""
    if isinstance(value, kind):
        return value
    article = "an" if kind.__name__[0] in "AEIOU" else "a"
    raise ValidationError(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")


def _real(value) -> bool:
    """Whether ``value`` is an int, a float or a numpy integer or floating scalar, and not a boolean."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, (bool, np.bool_))


def read_number(value, name: str) -> float:
    """``value`` as a finite float, or a ValidationError naming ``name``.

    A boolean, a string, None, NaN, an infinity and an int too large for a
    float are rejected, not coerced.
    """
    # Comparing first keeps huge integers from overflowing float(), and rejects NaN.
    if _real(value) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValidationError(f"{name} must be a finite number, got {value!r}")


def check_count(value, name: str) -> int:
    """``value`` as an integer in [1, 2**53], or a ValidationError naming ``name``.

    Every count enters float arithmetic (a mean, a rate or a ratio), where
    integers up to 2**53 are exact.
    """
    count = check_integer(value, name)
    if count < 1:
        raise ValidationError(f"{name} must be at least 1")
    if count > 2**53:
        raise ValidationError(f"{name} must be at most 2**53, got {count}")
    return count


def check_probability(value, name: str) -> float:
    """``value`` as a float in (0, 1), or a ValidationError naming ``name``:
    the rule of a treatment probability and of a two-sided level."""
    if _real(value) and not 0.0 < value < 1.0:  # NaN included
        raise ValidationError(f"{name} must lie in (0, 1), got {value}")
    return read_number(value, name)


def check_level(value, name: str) -> float:
    """``value`` as a float in (0, 0.5], or a ValidationError naming ``name``:
    the rule of the level of a one-sided bound."""
    if _real(value) and not 0.0 < value <= 0.5:  # NaN included
        raise ValidationError(f"{name} must lie in (0, 0.5] for a one-sided upper bound, got {value}")
    return read_number(value, name)


def check_positive(value, name: str) -> float:
    """``value`` as a finite float above 0, or a ValidationError naming ``name``."""
    number = read_number(value, name)
    if not number > 0.0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return number


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
