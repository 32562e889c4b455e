"""Variance lower bounds for the Nakagami shape estimate.

`crlb` is the Cramer-Rao bound for m with the spread jointly unknown:
inverting the 2x2 Fisher information [[psi'(m), 1/sigma], [1/sigma,
m/sigma^2]] marginalizes to

    CRLB(m, N) = 1 / (N * (psi'(m) - 1/m)).

`crlb_modified` replaces psi'(m) with the digamma difference
2*(psi(m+1/2) - psi(m)), which concavity of psi keeps at or below psi'(m),
so the modified bound lies at or above the CRLB:

    CRLB'(m, N) = 1 / (N * (2 psi(m+1/2) - 2 psi(m) - 1/m)).

Each curvature term is a small difference of terms of size 1/m, but
equals a sum of positive terms with no cancellation:

    psi'(m) - 1/m                 = sum_j 1 / ((m+j)^2 (m+j+1))
    2(psi(m+1/2) - psi(m)) - 1/m  = sum_j 1 / (2 (m+j) (m+j+1/2) (m+j+1))

The terms with m + j < 32 are added one by one; the rest of each sum, at
x = m + j >= 32, comes from its asymptotic series in B_{2k} (Bernoulli
numbers):

    1/(2x^2) + sum_k B_{2k} / x^(2k+1)    and    sum_k (2 - 2^(1-2k)) B_{2k} / (k x^(2k))

Where a bound is not a finite positive float (below m ~ 1e-154 the
curvature overflows, above m ~ 1e154 the bound does), both bounds raise
OutOfRangeError.
"""

import math

from .errors import OutOfRangeError, _positive, _real, _shown
from .specfun import _BERNOULLI

# From here up the curvature sums come from their asymptotic series.
_SERIES_M = 32.0

# (2 - 2^(1-2k)) B_{2k} / k, k = 1..7: the modified curvature series
_MODIFIED_COEFFS = tuple(
    (2.0 - 2.0 ** (1 - 2 * k)) * b / k for k, b in enumerate(_BERNOULLI, start=1)
)


def _validate(m, n):
    m = _positive(m, "m")
    if not (_real(n, 1) and n == int(n)):  # int() truncates 2.7
        raise ValueError(f"n must be a positive integer, got {_shown(n)}")
    return m, int(n)


def _series(coeffs, r):
    """sum_k coeffs[k-1] * r^k by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = (acc + c) * r
    return acc


def _curvature(m, term, tail):
    """sum_j term(m + j), j >= 0; tail(x, 1/x^2) sums the terms from x = m + j >= 32."""
    acc = 0.0
    j = 0
    while m + j < _SERIES_M:
        acc += term(m + j)
        j += 1
    x = m + j
    return acc + tail(x, 1.0 / (x * x))


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
    denom = _curvature(
        m,
        lambda x: 1.0 / x / x / (x + 1.0),  # inf, not ZeroDivisionError, where x * x underflows
        lambda x, r: 0.5 * r + _series(_BERNOULLI, r) / x,
    )
    return _inverse_information(denom, n, "psi'(m) - 1/m", m)


def crlb_modified(m, n):
    """Modified bound from the digamma-difference curvature; >= crlb always.

    The curvature is 2(psi(m+1/2) - psi(m)) - 1/m, summed as the positive
    terms 1 / (2 (m+j) (m+j+1/2) (m+j+1)).
    """
    m, n = _validate(m, n)
    denom = _curvature(
        m,
        lambda x: 0.5 / x / (x + 0.5) / (x + 1.0),
        lambda x, r: _series(_MODIFIED_COEFFS, r),
    )
    return _inverse_information(denom, n, "2(psi(m+1/2)-psi(m)) - 1/m", m)


def normalized(bound_value, m):
    """Scale-free form of a variance bound: bound / m^2.

    Raises OutOfRangeError where m^2 underflows to 0 (m below ~1e-162) or
    the quotient overflows.
    """
    if not _real(bound_value, 0.0):
        raise ValueError(f"bound_value must be a finite real >= 0, got {_shown(bound_value)}")
    m = _positive(m, "m")
    if m * m == 0.0:
        raise OutOfRangeError(f"m={m!r}: m^2 underflows to 0")
    value = float(bound_value) / (m * m)
    if value == math.inf:
        raise OutOfRangeError(f"bound_value={float(bound_value)!r} / m^2 at m={m!r} overflows")
    return value
