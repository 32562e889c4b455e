"""Exception types shared across the package, and the argument checks that
raise ValueError for the Python API's scalar arguments."""

import numbers
import sys


class NakafitError(Exception):
    """Base class for all estimation and segmentation failures."""


class DegenerateBlockError(NakafitError):
    """Raised when a sample block carries no shape information (delta ~ 0)."""


class NoConvergenceError(NakafitError):
    """Raised when the exact-ML Newton solver exhausts its iteration budget."""


class OutOfRangeError(NakafitError):
    """Raised when an input lies outside an approximation's valid domain."""


class NoBlocksError(NakafitError):
    """Raised when finalizing a block-recursive state that saw no usable blocks."""


def _shown(x):
    """repr(x), or the digit count of an int too long for repr."""
    try:
        return repr(x)
    except ValueError:  # int -> str refuses more than 4,300 digits by default
        k = (abs(x).bit_length() - 1) * 30102 // 100000  # k <= log10 |x|: |x| // 10**k is short
        return f"an int of {len(str(abs(x) // 10**k)) + k} digits"


def _not_positive(x, name):
    """The error for an argument x that is not a positive finite real."""
    return ValueError(f"{name} must be a positive finite real, got {_shown(x)}")


def _positive(x, name):
    """x as a float; `_not_positive`'s error unless x is a real number, not a
    bool, with 0 < x <= the largest float."""
    real = isinstance(x, numbers.Real) and not isinstance(x, bool)
    if not (real and x <= sys.float_info.max and 0.0 < float(x)):  # NaN fails both compares
        raise _not_positive(x, name)
    return float(x)


def _integer(x, name, low, high=sys.maxsize):
    """x as an int; a ValueError naming it unless x is an integer, not a
    bool, with low <= x <= high. The default high is the largest count
    numpy can size an array by."""
    if not isinstance(x, numbers.Integral) or isinstance(x, bool):
        raise ValueError(f"{name} must be an integer")
    if x < low:
        raise ValueError(f"{name} must be >= {low}")
    if x > high:
        raise ValueError(f"{name} must be <= {high}")
    return int(x)
