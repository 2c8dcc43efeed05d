"""Exception types shared across the package, and the input checks that raise them."""

import math
import operator

import numpy as np


class InvalidParameterError(ValueError):
    """Input outside the documented domain of an operation."""


class PoleCollisionError(InvalidParameterError):
    """Angular range touches the pole at phi = pi."""


class NoZeroError(RuntimeError):
    """Profile has no sign change in the searched range."""


class PropertyViolationError(RuntimeError):
    """A computed profile violates a property required downstream."""


class InvalidBracketError(ValueError):
    """Bisection endpoints do not straddle a sign change."""


class InvalidTestFunctionError(ValueError):
    """Test function violates its support requirements."""


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


class ConvergenceFailureError(RuntimeError):
    """An iterative procedure failed to reach its tolerance.

    Carries the iteration log and, when available, the last iterate so
    callers can diagnose or salvage a failed run.
    """

    def __init__(self, message, log=None, iterate=None):
        super().__init__(message)
        self.log = list(log) if log is not None else []
        self.iterate = iterate


def as_count(value, name):
    """``value`` as an int: ints and numpy integers pass, 4.9 or nan raise InvalidParameterError."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None


def as_slope(c):
    """``c`` as a cone slope: a float that is finite and >= 0, with a finite square."""
    c = float(c)
    if not (math.isfinite(c) and c >= 0.0):
        raise InvalidParameterError(f"cone slope must be finite and >= 0, got {c}")
    if math.isinf(c * c):
        # 1 + c^2 would be inf, so lam = 0 and every weight or energy carrying it is lost
        raise InvalidParameterError(f"cone slope squared overflows, got {c}")
    return c


def require_finite(values, what):
    """Raise InvalidParameterError naming ``what`` unless every entry of ``values`` is finite."""
    if not np.all(np.isfinite(values)):
        raise InvalidParameterError(f"{what} must be finite")
