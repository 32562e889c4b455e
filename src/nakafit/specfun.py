"""Real-valued special functions: log-gamma, gamma, digamma, trigamma.

Self-contained float64 implementations. Arguments below a shift threshold
are raised with the standard recurrences

    ln Gamma(x) = ln Gamma(x+1) - ln x
    psi(x)      = psi(x+1) - 1/x
    psi'(x)     = psi'(x+1) + 1/x^2

and the shifted argument is evaluated with the Stirling-type asymptotic
series whose coefficients are Bernoulli numbers. With a threshold of 8 and
seven series terms the truncation error is below 1e-14 on the whole
supported range, so double rounding dominates.
"""

import math

_SHIFT = 8.0

# B_{2k} / (2k (2k-1)), k = 1..7 (ln-gamma series)
_LGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

# B_{2k} / (2k), k = 1..7 (digamma series)
_PSI_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# B_{2k}, k = 1..7 (trigamma series)
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _positive(x, name):
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {x!r}")
    return x


def log_gamma(x):
    """Natural log of the gamma function for x > 0."""
    x = _positive(x, "x")
    shift = 0.0
    while x < _SHIFT:
        shift += math.log(x)
        x += 1.0
    r = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_LGAMMA_COEFFS):
        series = series * r + c
    return (x - 0.5) * math.log(x) - x + _HALF_LOG_TWO_PI + series / x - shift


def gamma(x):
    """Gamma function for x > 0, computed as exp(log_gamma(x)).

    Overflows to inf above x ~ 171.6; likelihood code must stay in the
    log domain and never call this on large shapes.
    """
    return math.exp(log_gamma(x))


def digamma(x):
    """Digamma psi(x) = d/dx ln Gamma(x) for x > 0."""
    x = _positive(x, "x")
    acc = 0.0
    while x < _SHIFT:
        acc -= 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_PSI_COEFFS):
        series = series * r + c
    return acc + math.log(x) - 0.5 / x - series * r


def trigamma(x):
    """Trigamma psi'(x), the derivative of digamma, for x > 0.

    psi'(x) ~ 1/x^2 overflows to inf below x ~ 1e-154.
    """
    x = _positive(x, "x")
    if x * x == 0.0:
        return math.inf
    acc = 0.0
    while x < _SHIFT:
        acc += 1.0 / (x * x)
        x += 1.0
    r = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_BERNOULLI):
        series = series * r + c
    return acc + 1.0 / x + 0.5 * r + series * r / x
