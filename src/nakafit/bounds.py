"""Variance lower bounds for the Nakagami shape estimate.

`crlb` is the Cramer-Rao bound for m with the spread jointly unknown:
inverting the 2x2 Fisher information [[psi'(m), 1/sigma], [1/sigma,
m/sigma^2]] marginalizes to

    CRLB(m, N) = 1 / (N * (psi'(m) - 1/m)).

`crlb_modified` replaces psi'(m) with 2*(psi(m+1/2) - psi(m)), the smallest
value the curvature can take when the likelihood equations are solved
exactly; concavity of psi makes it an upper envelope of the CRLB:

    CRLB'(m, N) = 1 / (N * (2 psi(m+1/2) - 2 psi(m) - 1/m)).

Both denominators are strictly positive for every m > 0. Below m ~ 1e-154
the curvature N * denominator overflows the float range, and both bounds
raise OutOfRangeError instead of returning 0.
"""

import math

from .errors import NonPositiveDenominatorError, OutOfRangeError
from .specfun import digamma, trigamma


def _validate(m, n):
    m = float(m)
    if not math.isfinite(m) or m <= 0.0:
        raise ValueError(f"m must be a positive finite real, got {m!r}")
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    return m, n


def _inverse_information(denom, n, what, m):
    """1 / (n * denom) for a curvature term `denom` at shape m."""
    if denom <= 0.0:
        raise NonPositiveDenominatorError(
            f"{what} = {denom!r} at m={m}; special-function fault"
        )
    if not math.isfinite(n * denom):
        raise OutOfRangeError(f"{what} = {denom!r} at m={m}: n times it is not a finite float")
    return 1.0 / (n * denom)


def crlb(m, n):
    """Cramer-Rao variance bound for m from n samples, spread unknown."""
    m, n = _validate(m, n)
    return _inverse_information(trigamma(m) - 1.0 / m, n, "psi'(m) - 1/m", m)


def crlb_modified(m, n):
    """Modified bound with the digamma-difference curvature; >= crlb always."""
    m, n = _validate(m, n)
    denom = 2.0 * (digamma(m + 0.5) - digamma(m)) - 1.0 / m
    return _inverse_information(denom, n, "2(psi(m+1/2)-psi(m)) - 1/m", m)


def normalized(bound_value, m):
    """Scale-free form of a variance bound: bound / m^2.

    Raises OutOfRangeError where m^2 underflows to 0 (m below ~1e-162).
    """
    bound_value = float(bound_value)
    if bound_value < 0.0:
        raise ValueError("bound_value must be >= 0")
    m = float(m)
    if not math.isfinite(m) or m <= 0.0:
        raise ValueError(f"m must be a positive finite real, got {m!r}")
    if m * m == 0.0:
        raise OutOfRangeError(f"m={m!r}: m^2 underflows to 0")
    return bound_value / (m * m)
