"""Shape-parameter estimators for the Nakagami-m distribution.

All estimators reduce a block to the statistic

    delta = ln(mean of x^2) - mean(ln x^2)  >= 0,

and invert delta to a shape estimate. The exact maximum-likelihood route
solves the stationarity condition

    ln(m) - psi(m) = delta

numerically (Newton seeded by the second-order closed form, safeguarded by
bisection on a sign-change bracket); the competing estimators are closed
forms. The spread estimate is always sigma_hat = mean(x^2) / m_hat.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateBlockError, NoConvergenceError, OutOfRangeError
from .nakagami import as_block
from .specfun import digamma, trigamma

# Below this, delta carries no usable shape information: the implied m_hat
# exceeds any physical shape value and the solver would hit float limits.
DELTA_MIN = 1e-12

# Upper end of the Greenwood-Durand rational approximation's fitted range.
GD_DELTA_MAX = 17.0

_ML_TOL = 1e-10
_ML_BUDGET = 100


class EstimatorKind(Enum):
    EXACT_ML = "exact_ml"
    CHENG_BEAULIEU_1 = "cheng_beaulieu_1"
    CHENG_BEAULIEU_2 = "cheng_beaulieu_2"
    GREENWOOD_DURAND = "greenwood_durand"
    MOMENT_BASED = "moment_based"


@dataclass(frozen=True)
class SufficientStats:
    """Per-block statistics consumed by every delta-based estimator."""

    n: int
    mean_x2: float
    mean_log_x2: float
    delta: float


@dataclass(frozen=True)
class Estimate:
    m_hat: float
    sigma_hat: float
    method: EstimatorKind
    iterations: int = 0


def compute_stats(block):
    """One-pass sufficient statistics (n, mean x^2, mean ln x^2, delta).

    delta is clamped at 0: Jensen guarantees delta >= 0, but an all-equal
    block can land a few ulps negative in float arithmetic. A block whose
    squares overflow or underflow the float range raises OutOfRangeError.
    """
    b = as_block(block)
    x2 = b * b
    mean_x2 = float(x2.mean())
    mean_log_x2 = float(np.log(x2).mean())
    if not (0.0 < mean_x2 < math.inf and math.isfinite(mean_log_x2)):
        raise OutOfRangeError("block values square outside the float range")
    delta = math.log(mean_x2) - mean_log_x2
    return SufficientStats(
        n=b.size, mean_x2=mean_x2, mean_log_x2=mean_log_x2, delta=max(delta, 0.0)
    )


def _require_informative(delta):
    if delta <= DELTA_MIN:
        raise DegenerateBlockError(
            f"delta={delta!r} is at or below {DELTA_MIN}; block carries no shape information"
        )


def _cb2_root(delta):
    # positive root of 12*delta*m^2 - 6*m - 1 = 0
    return (3.0 + math.sqrt(9.0 + 12.0 * delta)) / (12.0 * delta)


def estimate_ml(stats):
    """Exact ML shape estimate: the unique root of ln(m) - psi(m) - delta.

    ln(m) - psi(m) decreases strictly from +inf to 0 on (0, inf), so the
    root exists and is unique for delta > 0. Newton steps use
    g'(m) = 1/m - psi'(m) and fall back to bisection whenever a step
    leaves the current sign-change bracket.
    """
    delta = stats.delta
    _require_informative(delta)

    def g(m):
        return math.log(m) - digamma(m) - delta

    m = _cb2_root(delta)

    # Grow a sign-change bracket [lo, hi] geometrically from the seed.
    g_m = g(m)
    if g_m > 0.0:
        lo, hi = m, 2.0 * m
        while g(hi) > 0.0:
            lo, hi = hi, hi * 2.0
            if not math.isfinite(hi):
                raise NoConvergenceError("bracketing ran off the high end")
    elif g_m < 0.0:
        lo, hi = m / 2.0, m
        while g(lo) < 0.0:
            lo, hi = lo / 2.0, lo
            if lo <= 0.0:
                raise NoConvergenceError("bracketing ran off the low end")
    else:
        lo, hi = m, m

    iterations = 0
    while abs(g_m) >= _ML_TOL:
        iterations += 1
        if iterations > _ML_BUDGET:
            raise NoConvergenceError(
                f"ML solver did not reach |g| < {_ML_TOL} in {_ML_BUDGET} iterations"
            )
        if g_m > 0.0:
            lo = m
        else:
            hi = m
        step = g_m / (1.0 / m - trigamma(m))
        candidate = m - step
        if not (lo < candidate < hi):
            candidate = 0.5 * (lo + hi)
        m = candidate
        g_m = g(m)

    return Estimate(
        m_hat=m,
        sigma_hat=stats.mean_x2 / m,
        method=EstimatorKind.EXACT_ML,
        iterations=iterations,
    )


def estimate_cheng_beaulieu_1(stats):
    """First-order closed form m_hat = 1 / (2 delta)."""
    _require_informative(stats.delta)
    m = 1.0 / (2.0 * stats.delta)
    return Estimate(m, stats.mean_x2 / m, EstimatorKind.CHENG_BEAULIEU_1)


def estimate_cheng_beaulieu_2(stats):
    """Second-order closed form: positive root of 12*delta*m^2 - 6m - 1 = 0."""
    _require_informative(stats.delta)
    m = _cb2_root(stats.delta)
    return Estimate(m, stats.mean_x2 / m, EstimatorKind.CHENG_BEAULIEU_2)


def estimate_greenwood_durand(stats):
    """Greenwood-Durand rational-polynomial approximation in y = delta.

    Valid for 0 < y <= 17; the two branches meet near y = 0.5772.
    """
    y = stats.delta
    _require_informative(y)
    if y > GD_DELTA_MAX:
        raise OutOfRangeError(
            f"delta={y!r} exceeds the Greenwood-Durand domain (0, {GD_DELTA_MAX}]"
        )
    if y <= 0.5772:
        m = (0.5000876 + 0.1648852 * y - 0.0544274 * y * y) / y
    else:
        num = 8.898919 + 9.059950 * y + 0.9775373 * y * y
        den = y * (17.79728 + 11.968477 * y + y * y)
        m = num / den
    return Estimate(m, stats.mean_x2 / m, EstimatorKind.GREENWOOD_DURAND)


def estimate_moment_based(block):
    """Inverse normalized variance of x^2: m_hat = mean(x^2)^2 / var(x^2).

    The variance in the denominator is the plain n-divisor second moment
    spread, mean(x^4) - mean(x^2)^2. It counts as degenerate when it is at
    or below DELTA_MIN relative to mean(x^2)^2.
    """
    b = as_block(block)
    if b.size < 2:
        raise DegenerateBlockError("moment estimator needs at least 2 samples")
    x2 = b * b
    mean_x2 = float(x2.mean())
    mean_x4 = float((x2 * x2).mean())
    square = mean_x2 * mean_x2
    denom = mean_x4 - square
    if not (square > 0.0 and math.isfinite(denom)):
        raise OutOfRangeError("block values outside the float range of the moment estimator")
    if denom <= DELTA_MIN * square:
        raise DegenerateBlockError(
            f"variance of x^2 ({denom!r}) too small for the moment estimator"
        )
    m = square / denom
    return Estimate(m, mean_x2 / m, EstimatorKind.MOMENT_BASED)


_DELTA_ESTIMATORS = {
    EstimatorKind.EXACT_ML: estimate_ml,
    EstimatorKind.CHENG_BEAULIEU_1: estimate_cheng_beaulieu_1,
    EstimatorKind.CHENG_BEAULIEU_2: estimate_cheng_beaulieu_2,
    EstimatorKind.GREENWOOD_DURAND: estimate_greenwood_durand,
}


def estimate_block(kind, block):
    """Run one estimator on a raw sample block."""
    if kind is EstimatorKind.MOMENT_BASED:
        return estimate_moment_based(block)
    return _DELTA_ESTIMATORS[kind](compute_stats(block))
