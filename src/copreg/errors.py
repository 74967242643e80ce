"""Semantic exception hierarchy shared across the package."""

import math
import numbers


class CopregError(Exception):
    """Base class for all library errors."""


class ShapeError(CopregError):
    """Array dimensions do not compose or do not match a contract."""


class DomainError(CopregError):
    """Scalar argument outside its mathematical domain (e.g. u not in (0,1))."""


class DivergenceError(CopregError):
    """Network training produced a non-finite loss."""


class NumericalError(CopregError):
    """Linear-algebra failure that jitter could not repair."""


class SimulationDivergedError(CopregError):
    """Simulator state exceeded its configured cap."""

    def __init__(self, message, params=None):
        super().__init__(message)
        self.params = params


class ConfigError(CopregError, ValueError):
    """Invalid experiment configuration (a ValueError to library callers)."""


class DataError(CopregError):
    """Malformed or missing input data."""


class DegenerateMarginError(DataError):
    """Response sample too small or without spread; no margin can be fit."""


def checked_int(name, value, low, error=ConfigError):
    """``value`` of option ``name`` as an int; ``error`` unless it is a
    whole number >= ``low``.  Integral floats such as 3.0 pass; bools,
    strings, fractions, inf and nan do not."""
    whole = (isinstance(value, numbers.Integral)
             and not isinstance(value, bool)) or (
        isinstance(value, float) and value.is_integer())
    if not whole or value < low:
        raise error(f"{name!r} must be an integer >= {low}, got {value!r}")
    return int(value)


def checked_float(name, value, low, high=math.inf, include_low=False,
                  error=ConfigError):
    """``value`` of option ``name`` as a float; ``error`` unless it is a
    number in (``low``, ``high``), or in [``low``, ``high``) with
    ``include_low``.  Bools, strings and nan do not pass."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (low <= value if include_low else low < value)
            and value < high):
        return float(value)
    raise error(f"{name!r} must be a number in "
                f"{'[' if include_low else '('}{low}, {high}), got {value!r}")
