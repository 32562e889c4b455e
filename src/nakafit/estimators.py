"""Shape-parameter estimators for the Nakagami-m distribution.

All estimators reduce a block to the statistic

    delta = ln(mean of x^2) - mean(ln x^2)  >= 0,

and invert delta to a shape estimate. The exact maximum-likelihood route
solves the stationarity condition

    ln(m) - psi(m) = delta

numerically by Newton's method in u = 1/m, seeded by the second-order
closed form; the competing estimators are closed forms. The spread
estimate is always sigma_hat = mean(x^2) / m_hat; a sigma_hat outside the
positive float range raises OutOfRangeError. So does a delta that is NaN
or whose 12 * delta, which the second-order closed form forms, is not a
finite float; a block of floats gives delta of at most about 1,454, so
only a hand-built `SufficientStats` reaches that refusal.

A block's outcome is one of the statuses _USED, _SKIPPED (degenerate) and
_FAILED, decided here: `_block_tables` makes every estimator's per-block
table of a Monte Carlo draw, which `blockwise._fold_table` folds. A delta
estimator's status is the exception it raises, or none; the moment
estimator decides it in one array pass, `_moment_pass`, and
`estimate_moment_based` raises from its status.
"""

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DegenerateBlockError, NakafitError, NoConvergenceError, OutOfRangeError
from .nakagami import _positive_block, as_block
from .specfun import digamma, trigamma

# Below this, delta carries no usable shape information: the implied m_hat
# exceeds any physical shape value and the solver would hit float limits.
DELTA_MIN = 1e-12

# Upper end of the Greenwood-Durand rational approximation's fitted range.
GD_DELTA_MAX = 17.0

# The outcome of an estimator on one block, as a per-block table holds it:
# its estimate is used, it is skipped as degenerate (DegenerateBlockError),
# or it fails (any other NakafitError).
_USED, _SKIPPED, _FAILED = range(3)

_ML_TOL = 1e-10
_ML_BUDGET = 100


class EstimatorKind(Enum):
    EXACT_ML = "exact_ml"
    CHENG_BEAULIEU_1 = "cheng_beaulieu_1"
    CHENG_BEAULIEU_2 = "cheng_beaulieu_2"
    GREENWOOD_DURAND = "greenwood_durand"
    MOMENT_BASED = "moment_based"


class SufficientStats(NamedTuple):
    """Per-block statistics consumed by every delta-based estimator."""

    n: int
    mean_x2: float
    mean_log_x2: float
    delta: float


class Estimate(NamedTuple):
    m_hat: float
    sigma_hat: float
    iterations: int = 0


def compute_stats(block):
    """One-pass sufficient statistics (n, mean x^2, mean ln x^2, delta).

    delta is clamped at 0: Jensen guarantees delta >= 0, but an all-equal
    block can land a few ulps negative in float arithmetic. A block whose
    squares overflow or underflow the float range raises OutOfRangeError.
    Block validation takes one min pass; x^2 and ln x^2 fill the rows of one
    buffer, summed by one reduction whose rows equal the 1-D sums bit for bit.
    """
    b, low = _positive_block(block)
    buf = np.empty((2, b.size))
    x2 = np.multiply(b, b, out=buf[0])
    if low * low > 0.0:  # else a square is 0, refused before its log warns
        np.log(x2, out=buf[1])
        sum_x2, sum_log_x2 = np.add.reduce(buf, axis=1).tolist()
        if sum_x2 < math.inf:  # else an inf entry, or squares that overflow
            return _stats_of_sums(b.size, sum_x2, sum_log_x2)
    as_block(b)  # an inf entry is refused
    raise OutOfRangeError("block values square outside the float range")


def _stats_of_sums(n, sum_x2, sum_log_x2):
    """`compute_stats` of a block of n values from the sums of their squares
    and of the logs of their squares: both means and the delta clamp. The
    callers check the range: every square is positive and the sums finite."""
    mean_x2 = sum_x2 / n
    mean_log_x2 = sum_log_x2 / n
    delta = math.log(mean_x2) - mean_log_x2
    return SufficientStats(n, mean_x2, mean_log_x2, max(delta, 0.0))


def _require_informative(delta):
    if delta <= DELTA_MIN:
        raise DegenerateBlockError(
            f"delta={delta!r} is at or below {DELTA_MIN}; block carries no shape information"
        )
    if not 12.0 * delta < math.inf:  # NaN, or too large for `_cb2_root` to form 12 * delta
        raise OutOfRangeError(f"delta={delta!r}: 12 * delta is not a finite float")


def _sigma_hat(mean_x2, m):
    """The spread estimate mean(x^2) / m_hat; OutOfRangeError unless it is a
    finite positive float."""
    sigma = mean_x2 / m
    if not 0.0 < sigma < math.inf:
        raise OutOfRangeError(f"sigma_hat = {mean_x2!r} / {m!r} is outside the float range")
    return sigma


def _cb2_root(delta):
    # positive root of 12*delta*m^2 - 6*m - 1 = 0
    return (3.0 + math.sqrt(9.0 + 12.0 * delta)) / (12.0 * delta)


def estimate_ml(stats):
    """Exact ML shape estimate: the unique root of g(m) = ln(m) - psi(m) - delta.

    ln(m) - psi(m) decreases strictly from +inf to 0 on (0, inf), so the
    root exists and is unique for delta > 0. Newton's method runs in
    u = 1/m (Minka, "Estimating a Gamma distribution", 2002), where
    dg/du = m t with t = m psi'(m) - 1 > 0, giving m <- m t / (t - g(m)).
    g(1/u) is increasing and convex in u, because m^2 psi'(m) - m falls
    from 1 to 1/2 on (0, inf). So from any positive seed every iterate is
    positive: the first step lands at or below the root, and the iterates
    then rise monotonically to it. The stop is |g| < _ML_TOL, or 4 ulp(delta)
    where that is larger (delta >= 2^17): g ends in `- delta`, so near the
    root its rounding error is about ulp(delta).
    """
    delta = stats.delta
    _require_informative(delta)

    def g(m):
        return math.log(m) - digamma(m) - delta

    tol = max(_ML_TOL, 4.0 * math.ulp(delta))
    m = _cb2_root(delta)
    g_m = g(m)
    iterations = 0
    while abs(g_m) >= tol:
        iterations += 1
        if iterations > _ML_BUDGET:
            raise NoConvergenceError(
                f"ML solver did not reach |g| < {tol} in {_ML_BUDGET} iterations"
            )
        t = m * trigamma(m) - 1.0
        m *= t / (t - g_m)
        g_m = g(m)

    return Estimate(m, _sigma_hat(stats.mean_x2, m), iterations)


def estimate_cheng_beaulieu_1(stats):
    """First-order closed form m_hat = 1 / (2 delta)."""
    _require_informative(stats.delta)
    m = 1.0 / (2.0 * stats.delta)
    return Estimate(m, _sigma_hat(stats.mean_x2, m))


def estimate_cheng_beaulieu_2(stats):
    """Second-order closed form: positive root of 12*delta*m^2 - 6m - 1 = 0."""
    _require_informative(stats.delta)
    m = _cb2_root(stats.delta)
    return Estimate(m, _sigma_hat(stats.mean_x2, m))


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
    return Estimate(m, _sigma_hat(stats.mean_x2, m))


def estimate_moment_based(block):
    """Inverse normalized variance of x^2: m_hat = mean(x^2)^2 / var(x^2).

    The variance in the denominator is the plain n-divisor second moment
    spread, mean(x^4) - mean(x^2)^2. It counts as degenerate when it is at
    or below DELTA_MIN relative to mean(x^2)^2. The one-block case of
    `_moment_pass`.
    """
    b, _ = _positive_block(block)
    if b.size < 2:
        as_block(b)
        raise DegenerateBlockError("moment estimator needs at least 2 samples")
    mean_x2, var_x2, m, status = _moment_pass(b)
    if status == _FAILED:
        as_block(b)  # an inf entry is refused
        raise OutOfRangeError("block values outside the float range of the moment estimator")
    if status == _SKIPPED:
        raise DegenerateBlockError(
            f"variance of x^2 ({float(var_x2)!r}) too small for the moment estimator"
        )
    return Estimate(float(m), _sigma_hat(float(mean_x2), float(m)))


def _moment_pass(blocks):
    """The moment estimator on every block along the last axis of `blocks`,
    positive floats, at least 2 a block: arrays of mean(x^2), var(x^2),
    m_hat and each block's status, its rules applied in their scalar order.
    A block whose sums leave the float range is _FAILED, one whose var(x^2)
    is at or below DELTA_MIN * mean(x^2)^2 is _SKIPPED as degenerate, and
    every other is _USED. The sigma_hat rule of every estimator refuses no
    _USED block: mean(x^2)^2 is positive and finite there, so 2.2e-162 <
    mean(x^2) < 1.34e154, and 1/(n-1) <= m_hat < 1/DELTA_MIN = 1e12, as
    nonnegative y have an n-divisor variance of at most (n-1) mean(y)^2; so
    2e-174 < sigma_hat < (n-1) 1.34e154. numpy sums a contiguous last axis
    as it sums a 1-D array, so each block's values have the same bits in
    any shape."""
    n = blocks.shape[-1]
    buf = np.empty((2, *blocks.shape))
    # a block out of range or degenerate may give inf, NaN or a division by 0
    with np.errstate(all="ignore"):
        x2 = np.multiply(blocks, blocks, out=buf[0])
        np.multiply(x2, x2, out=buf[1])
        sum_x2, sum_x4 = np.add.reduce(buf, axis=-1)
        mean_x2 = sum_x2 / n
        square = mean_x2 * mean_x2
        var_x2 = sum_x4 / n - square
        m_hat = square / var_x2
    in_range = (square > 0.0) & (abs(var_x2) < math.inf)
    status = np.where(in_range, np.where(var_x2 > DELTA_MIN * square, _USED, _SKIPPED), _FAILED)
    return mean_x2, var_x2, m_hat, status


_DELTA_ESTIMATORS = {
    EstimatorKind.EXACT_ML: estimate_ml,
    EstimatorKind.CHENG_BEAULIEU_1: estimate_cheng_beaulieu_1,
    EstimatorKind.CHENG_BEAULIEU_2: estimate_cheng_beaulieu_2,
    EstimatorKind.GREENWOOD_DURAND: estimate_greenwood_durand,
}


def _block_tables(kinds, windows):
    """{kind: (m_hat, status)}: each estimator's per-block table over the
    (rows, num_blocks, block_size) windows of positive finite floats, in
    `kinds` order. A delta estimator's table takes one `compute_stats` call
    per block, row by row and each row's estimators in turn: a block that
    raises DegenerateBlockError is _SKIPPED, and one that raises any other
    NakafitError is _FAILED and stops its row's calls. The moment
    estimator's table is one `_moment_pass`."""
    shape = windows.shape[:2]
    tables = {kind: _moment_pass(windows)[2:] if kind is EstimatorKind.MOMENT_BASED
              else (np.zeros(shape), np.full(shape, _USED)) for kind in kinds}
    delta = [(tables[kind], _DELTA_ESTIMATORS[kind]) for kind in kinds if kind in _DELTA_ESTIMATORS]
    # every overflow in the delta estimators ends in their refusal, _FAILED here
    with np.errstate(over="ignore"):
        for row, window in enumerate(windows):
            # the row views, made once for every estimator
            blocks = tuple(window)
            for (m_hat, status), estimator in delta:
                for b, block in enumerate(blocks):
                    try:
                        m_hat[row, b] = estimator(compute_stats(block)).m_hat
                    except DegenerateBlockError:
                        status[row, b] = _SKIPPED
                    except NakafitError:
                        status[row, b] = _FAILED
                        break
    return tables


def estimate_block(kind, block):
    """Run one estimator on a raw sample block; ValueError naming `kind`
    unless it is an `EstimatorKind` member."""
    if kind is EstimatorKind.MOMENT_BASED:
        return estimate_moment_based(block)
    try:
        estimator = _DELTA_ESTIMATORS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ValueError(f"kind must be an EstimatorKind member, got {kind!r}") from None
    return estimator(compute_stats(block))
