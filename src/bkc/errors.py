"""Exception types shared across the package, and the overflow guard."""
from __future__ import annotations


class BkcError(Exception):
    """Base class for package errors."""


class DomainError(BkcError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class CriticalFrameUndefined(BkcError, ValueError):
    """The squeezing frame does not exist exactly at g = delta."""


class NumericalFailure(BkcError, RuntimeError):
    """An eigensolver or matrix routine failed to converge."""


# Largest magnitude a propagated map or a squeezing-frame factor may reach.
OVERFLOW_LIMIT = 1e300


class OverflowGuard(BkcError, RuntimeError):
    """A propagated map, a subsystem spectrum, or the squeezing frame of the
    couplings would pass OVERFLOW_LIMIT."""


def within_limit(arr, what: str):
    """``arr`` if no entry passes +-OVERFLOW_LIMIT or is NaN; else OverflowGuard."""
    # max and min propagate NaN, so two reductions cover every entry
    # without a temporary array of the array's size
    if not max(float(arr.max()), -float(arr.min())) <= OVERFLOW_LIMIT:
        raise OverflowGuard(f"{what} overflowed float64 range")
    return arr


class NonConvergence(BkcError, RuntimeError):
    """Time averaging hit the sample cap before meeting the error target.

    The partial estimate is attached as ``result`` so callers can keep it.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class MissingReference(BkcError, ValueError):
    """A collapse dataset lacks the critical-point reference row for some N."""


class ConfigError(BkcError, ValueError):
    """A sweep configuration file or CLI override is malformed."""
