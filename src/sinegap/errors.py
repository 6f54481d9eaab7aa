"""Exception types shared across the package, and the two checks every
scalar input of the public API goes through (`_reals` applies the first
to a sequence).

Two failure families are kept apart so callers (and the CLI exit codes)
can tell bad input from a computation that went off the rails.
"""

import math
import numbers

__all__ = ["NumericalError", "ValidationError"]


class ValidationError(ValueError):
    """Input rejected before any computation (domain, shape, or range)."""


class NumericalError(ArithmeticError):
    """A computation produced an unusable result (a factor that is not positive
    definite, negative probability mass beyond tolerance, non-finite intermediate)."""


def _real(value, what: str) -> float:
    """`value` as a float: Python and numpy real numbers that are finite
    pass; strings, bools, complex values, None and integers beyond the
    float range do not."""
    try:
        x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{what} must be a finite real number, got {value!r}")
    return x


def _reals(values, what: str) -> tuple[float, ...]:
    """`values` as a tuple of floats, each checked by `_real`; a value
    that is not iterable is refused too."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence of real numbers, got {values!r}") from None
    return tuple(_real(v, what) for v in values)


def _integer(value, what: str, lo: int, hi: int | None = None) -> int:
    """`value` as an int in [lo, hi] (no upper bound when hi is None).
    Python and numpy integers pass; bools, floats and strings do not."""
    top = math.inf if hi is None else hi
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or not lo <= value <= top:
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValidationError(f"{what} must be an integer {bounds}, got {value!r}")
    return int(value)
