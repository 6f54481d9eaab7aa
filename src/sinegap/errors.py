"""Exception types shared across the package, and the two checks every
scalar input of the public API goes through.

Two failure families are kept apart so callers (and the CLI exit codes)
can tell bad input from a computation that went off the rails.
"""

import math
import numbers


class ValidationError(ValueError):
    """Input rejected before any computation (domain, shape, or range)."""


class NumericalError(ArithmeticError):
    """A computation produced an unusable result (singular pivot, lost sign,
    negative probability mass beyond tolerance, non-finite intermediate)."""


def _real(value, what: str) -> float:
    """`value` as a float: Python and numpy real numbers that are finite
    pass; strings, bools, complex values and None do not."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not math.isfinite(value):
        raise ValidationError(f"{what} must be a finite real number, got {value!r}")
    return float(value)


def _integer(value, what: str, lo: int, hi: int | None = None) -> int:
    """`value` as an int in [lo, hi] (no upper bound when hi is None).
    Python and numpy integers pass; bools, floats and strings do not."""
    top = math.inf if hi is None else hi
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or not lo <= value <= top:
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValidationError(f"{what} must be an integer {bounds}, got {value!r}")
    return int(value)
