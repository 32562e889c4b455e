"""Real-valued special functions: log-gamma, digamma, trigamma.

`log_gamma` is the standard library's `math.lgamma`. Neither numpy nor
the standard library has digamma or trigamma, so those two are float64
implementations here. Arguments below a shift threshold are raised with
the recurrences

    psi(x)  = psi(x+1) - 1/x
    psi'(x) = psi'(x+1) + 1/x^2

and the shifted argument is evaluated with the asymptotic series whose
coefficients are Bernoulli numbers. With a threshold of 8 and seven
series terms the truncation error is below 1e-14 on the whole supported
range, so double rounding dominates.
"""

import math

from .errors import _positive

_SHIFT = 8.0

# B_{2k}, k = 1..7 (trigamma series; also the curvature tail of `crlb` in `bounds`)
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)
_B2, _B4, _B6, _B8, _B10, _B12, _B14 = _BERNOULLI


def log_gamma(x):
    """Natural log of the gamma function for x > 0; inf above x ~ 2.6e305."""
    x = _positive(x, "x")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def digamma(x):
    """Digamma psi(x) = d/dx ln Gamma(x) for x > 0."""
    if x.__class__ is not float or not 0.0 < x < math.inf:  # one compare for the solver's floats
        x = _positive(x, "x")
    acc = 0.0
    while x < _SHIFT:
        acc -= 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    # sum_k B_{2k} / (2k) r^(k-1), k = 1..7, by Horner's rule from k = 7 down
    series = ((((((1.0 / 12.0 * r - 691.0 / 32760.0) * r + 1.0 / 132.0) * r - 1.0 / 240.0) * r
               + 1.0 / 252.0) * r - 1.0 / 120.0) * r + 1.0 / 12.0)
    return acc + math.log(x) - 0.5 / x - series * r


def trigamma(x):
    """Trigamma psi'(x), the derivative of digamma, for x > 0.

    psi'(x) ~ 1/x^2 overflows to inf below x ~ 1e-154.
    """
    if x.__class__ is not float or not 0.0 < x < math.inf:  # one compare for the solver's floats
        x = _positive(x, "x")
    if x * x == 0.0:
        return math.inf
    acc = 0.0
    while x < _SHIFT:
        acc += 1.0 / (x * x)
        x += 1.0
    r = 1.0 / (x * x)
    # sum_k B_{2k} r^(k-1), k = 1..7, by Horner's rule from k = 7 down
    series = (((((_B14 * r + _B12) * r + _B10) * r + _B8) * r + _B6) * r + _B4) * r + _B2
    return acc + 1.0 / x + 0.5 * r + series * r / x
