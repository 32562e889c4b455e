"""Exception types shared across the package, the argument checks that
raise ValueError for the Python API's scalar arguments, and
`_refusals_naming`, which puts a file's path before the message of such an
error raised by code that does not know the path (`segment` under
`nakafit segment`).

`_real` is the finite-real rule: a real number, not a bool, compared
exactly with the float range, so an int beyond it either way is refused by
name, never a raw OverflowError. `_positive` (shapes, spreads, `digamma`'s
and `trigamma`'s x, `GaussianParams`' var) and the checks of `normalized`'s
bound_value, `GaussianParams`' mu, `segment`'s beta and the bounds' n (a
`_real` >= 1 equal to its int(), so a whole float passes) build on it;
`_integer` is the count and seed rule. Only `sample`'s seed, which numpy
checks, keeps its own rule in its module. `_float_array` is the array rule
of a sample block, `segment`'s image and `log_pdf`'s x: real numbers that
numpy converts to float64, so a complex, string or bool array, or a bool
or a string among the entries, is refused, never cast."""

import numbers
import sys
from contextlib import contextmanager

import numpy as np


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


def _real(x, low=-sys.float_info.max):
    """Whether x is a real number, not a bool, with low <= x <= the largest
    float; NaN is not. An int is compared exactly, so one beyond the float
    range is refused before float(x) could overflow. A numpy float16 or
    float32 is compared as the float it converts to exactly: compared
    itself, it casts the bounds down to its own precision, where they are
    inf."""
    if isinstance(x, (np.float16, np.float32)):
        x = float(x)
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and low <= x <= sys.float_info.max


def _positive(x, name):
    """x as a float; a ValueError naming it unless `_real(x)` and 0 < float(x)."""
    if not (_real(x) and 0.0 < float(x)):
        raise ValueError(f"{name} must be a positive finite real, got {_shown(x)}")
    return float(x)


_FLOAT64 = np.dtype(float)


def _not_real_entry(values):
    """The type name of the first entry of `values` that is a bool or not a
    real number, or None where every entry is a real number."""
    # each distinct type once, in the order of its first entry
    for kind in dict.fromkeys(map(type, np.asarray(values, dtype=object).flat)):
        if issubclass(kind, bool) or not issubclass(kind, numbers.Real):
            return kind.__name__
    return None


def _float_array(values, name):
    """values as a float64 ndarray, itself where it is one; a ValueError
    naming it where it is complex, strings or bools, holds an entry that is
    a bool or not a real number, or numpy cannot convert it (a ragged row,
    an int beyond the float range). A complex array is refused, not cast:
    the cast would drop its imaginary part. String and bool arrays are
    refused as `_real` refuses a string or a bool, though numpy would parse
    the one and cast the other. numpy also casts a bool among the numbers
    of a list and parses a string in an object array, so input that is not
    already a numeric ndarray is checked entry by entry."""
    try:
        array = np.asarray(values)
        if array.dtype is _FLOAT64 and array is values:
            return array
        shown = array.dtype if array.dtype.kind in "cUSb" else None
        if shown is None and (array.dtype.kind == "O" or array is not values):
            shown = _not_real_entry(values)
        if shown is None:
            return array.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:  # numpy's message names no argument
        raise ValueError(f"{name} must be real numbers: {exc}") from None
    raise ValueError(f"{name} must be real numbers, got {shown}")


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


@contextmanager
def _refusals_naming(path):
    """Put `path: ` before the message of any ValueError raised in the block."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
