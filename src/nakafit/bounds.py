"""Variance lower bounds for the Nakagami shape estimate.

`crlb` is the Cramer-Rao bound for m with the spread jointly unknown:
inverting the 2x2 Fisher information [[psi'(m), 1/sigma], [1/sigma,
m/sigma^2]] marginalizes to

    CRLB(m, N) = 1 / (N * (psi'(m) - 1/m)).

`crlb_modified` replaces psi'(m) with 2*(psi(m+1/2) - psi(m)), the smallest
value the curvature can take when the likelihood equations are solved
exactly; concavity of psi makes it an upper envelope of the CRLB:

    CRLB'(m, N) = 1 / (N * (2 psi(m+1/2) - 2 psi(m) - 1/m)).

Both denominators are strictly positive for every m > 0, but each is a
small difference of terms of size 1/m. From m = 32 up they are therefore
summed from their own asymptotic series in B_{2k} (Bernoulli numbers),
with no cancellation:

    psi'(m) - 1/m                 = 1/(2m^2) + sum_k B_{2k} / m^(2k+1)
    2(psi(m+1/2) - psi(m)) - 1/m  = sum_k (2 - 2^(1-2k)) B_{2k} / (k m^(2k))

Where a bound is not a finite positive float (below m ~ 1e-154 the
curvature overflows, above m ~ 1e154 the bound does), both bounds raise
OutOfRangeError.
"""

import math

from .errors import OutOfRangeError
from .specfun import _BERNOULLI, digamma, trigamma

# From here up the curvature terms come from their asymptotic series.
_SERIES_M = 32.0

# (2 - 2^(1-2k)) B_{2k} / k, k = 1..7: the modified curvature series
_MODIFIED_COEFFS = tuple(
    (2.0 - 2.0 ** (1 - 2 * k)) * b / k for k, b in enumerate(_BERNOULLI, start=1)
)


def _validate(m, n):
    m = float(m)
    if not math.isfinite(m) or m <= 0.0:
        raise ValueError(f"m must be a positive finite real, got {m!r}")
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    return m, n


def _series(coeffs, r):
    """sum_k coeffs[k-1] * r^k by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = (acc + c) * r
    return acc


def _inverse_information(denom, n, what, m):
    """1 / (n * denom) for a curvature term `denom` at shape m."""
    info = n * denom
    if not math.isfinite(info):
        raise OutOfRangeError(f"{what} = {denom!r} at m={m}: n times it is not a finite float")
    if not info > 0.0 or 1.0 / info == math.inf:
        raise OutOfRangeError(f"{what} = {denom!r} at m={m}: 1/(n times it) is not a finite float")
    return 1.0 / info


def crlb(m, n):
    """Cramer-Rao variance bound for m from n samples, spread unknown."""
    m, n = _validate(m, n)
    if m < _SERIES_M:
        denom = trigamma(m) - 1.0 / m
    else:
        r = 1.0 / (m * m)
        denom = 0.5 * r + _series(_BERNOULLI, r) / m
    return _inverse_information(denom, n, "psi'(m) - 1/m", m)


def crlb_modified(m, n):
    """Modified bound with the digamma-difference curvature; >= crlb always."""
    m, n = _validate(m, n)
    if m < _SERIES_M:
        denom = 2.0 * (digamma(m + 0.5) - digamma(m)) - 1.0 / m
    else:
        denom = _series(_MODIFIED_COEFFS, 1.0 / (m * m))
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
