import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nakafit import (
    DegenerateBlockError,
    EstimatorKind,
    NakafitError,
    NakagamiParams,
    NoConvergenceError,
    OutOfRangeError,
    as_block,
    compute_stats,
    estimate_block,
    estimate_cheng_beaulieu_1,
    estimate_cheng_beaulieu_2,
    estimate_greenwood_durand,
    estimate_ml,
    estimate_moment_based,
    sample,
)
from nakafit import estimators
from nakafit.estimators import (
    _FAILED, _SKIPPED, _USED, DELTA_MIN, Estimate, SufficientStats, _sigma_hat,
)
from nakafit.specfun import digamma, trigamma

EULER_GAMMA = 0.5772156649015329

def stats_for(delta, mean_x2=1.0, n=100):
    return SufficientStats(n=n, mean_x2=mean_x2, mean_log_x2=math.log(mean_x2) - delta, delta=delta)

def test_compute_stats_constant_block():
    s = compute_stats([1.0, 1.0, 1.0])
    assert s.n == 3
    assert s.mean_x2 == pytest.approx(1.0, rel=1e-15)
    assert s.mean_log_x2 == pytest.approx(0.0, abs=1e-15)
    assert s.delta == 0.0

def test_compute_stats_two_values():
    e = math.e
    s = compute_stats([1.0, e])
    assert s.mean_x2 == pytest.approx((1.0 + e * e) / 2.0, rel=1e-14)
    assert s.mean_log_x2 == pytest.approx(1.0, rel=1e-14)
    assert s.delta == pytest.approx(math.log((1.0 + e * e) / 2.0) - 1.0, rel=1e-12)

def test_compute_stats_single_sample():
    s = compute_stats([2.0])
    assert s.n == 1
    assert s.mean_x2 == pytest.approx(4.0, rel=1e-15)
    assert s.mean_log_x2 == pytest.approx(math.log(4.0), rel=1e-15)
    assert s.delta == 0.0

def test_compute_stats_delta_never_negative():
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = float(rng.uniform(0.1, 10.0))
        block = np.full(rng.integers(1, 50), v)
        assert compute_stats(block).delta >= 0.0


def _block_from(n, seed, center, half_span):
    # log-uniform magnitudes over 10**(center +- half_span)
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(center - half_span, center + half_span, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
    center=st.floats(-30.0, 30.0),
    half_span=st.floats(0.0, 30.0),
)
@example(n=1, seed=0, center=0.0, half_span=0.0)
@example(n=128, seed=1, center=0.0, half_span=1.0)
@example(n=129, seed=2, center=30.0, half_span=30.0)
@example(n=512, seed=3, center=-30.0, half_span=30.0)
@example(n=513, seed=4, center=0.0, half_span=0.01)
def test_means_match_ndarray_mean_bit_for_bit(n, seed, center, half_span):
    # the statistics are sums over np.add.reduce divided by n; ndarray.mean
    # is the same pairwise sum and one division, so every bit agrees
    x = _block_from(n, seed, center, half_span)
    x2 = x * x
    mean_x2 = float(x2.mean())
    mean_log_x2 = float(np.log(x2).mean())
    s = compute_stats(x)
    assert (s.n, s.mean_x2, s.mean_log_x2) == (n, mean_x2, mean_log_x2)
    assert s.delta == max(math.log(mean_x2) - mean_log_x2, 0.0)

    square = mean_x2 * mean_x2
    denom = float((x2 * x2).mean()) - square
    if n < 2 or denom <= DELTA_MIN * square:
        with pytest.raises(DegenerateBlockError):
            estimate_moment_based(x)
    else:
        assert estimate_moment_based(x).m_hat == square / denom


def test_ml_recovers_known_roots():
    # delta = ln(m) - psi(m) at m = 1 and m = 0.5 (closed forms)
    est = estimate_ml(stats_for(EULER_GAMMA))
    assert est.m_hat == pytest.approx(1.0, abs=1e-9)
    assert est.sigma_hat == pytest.approx(1.0 / est.m_hat, rel=1e-12)

    est = estimate_ml(stats_for(EULER_GAMMA + math.log(2.0)))
    assert est.m_hat == pytest.approx(0.5, abs=1e-9)

def test_ml_residual_is_tiny():
    for delta in np.geomspace(1e-4, 5.0, 50):
        est = estimate_ml(stats_for(float(delta)))
        resid = math.log(est.m_hat) - digamma(est.m_hat) - delta
        assert abs(resid) < 1e-10

def test_ml_degenerate_delta():
    with pytest.raises(DegenerateBlockError):
        estimate_ml(stats_for(0.0))
    with pytest.raises(DegenerateBlockError):
        estimate_ml(stats_for(1e-13))

@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(math.log(1e-8), math.log(20.0)).map(math.exp))
@example(1e-8)
@example(20.0)
def test_ml_returns_the_unique_root(delta):
    # independent oracle: scipy's digamma under Brent's method; the
    # solver's residual bound 1e-10 maps to a root error of 1e-10 / |g'(m*)|
    def g(m):
        return math.log(m) - scipy.special.psi(m) - delta

    root = scipy.optimize.brentq(g, 1e-3, 1e9, xtol=1e-300, maxiter=500)
    slope = 1.0 / root - scipy.special.polygamma(1, root)
    m_hat = estimate_ml(stats_for(delta)).m_hat
    assert abs(m_hat - root) <= 2e-10 / abs(slope)

def test_ml_budget_exhausted_raises(monkeypatch):
    monkeypatch.setattr(estimators, "_ML_BUDGET", 0)
    with pytest.raises(NoConvergenceError, match="in 0 iterations"):
        estimate_ml(stats_for(0.5))


def test_ml_stops_at_the_rounding_floor_of_g():
    # g's rounding error near the root is about ulp(delta), above 1e-10 once
    # delta >= 2^17: at the first delta an absolute 1e-10 stop was never met,
    # the iterates alternating between two neighbouring floats with |g| =
    # ulp(delta). A float block gives delta <= ~1,454; the log-spaced scan
    # covers hand-built stats above that. Every 1,000th root is checked
    # against mpmath's.
    deltas = [1899997.0042220564, *np.geomspace(1454.0, 1e150, 20001).tolist()]
    for i, delta in enumerate(deltas):
        est = estimate_ml(stats_for(delta))
        assert est.iterations <= 3, delta
        if i % 1000 == 0:
            with mpmath.workdps(40):
                root = mpmath.findroot(lambda m: mpmath.log(m) - mpmath.psi(0, m) - delta,
                                       (est.m_hat / 2, est.m_hat * 2), solver="anderson",
                                       verify=False)
                assert abs(est.m_hat - root) <= 1e-13 * root, delta


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(math.log(1.0000001e-12), math.log(1450.0)).map(math.exp))
@example(1.0000001e-12)
@example(1450.0)
def test_ml_newton_iterates_stay_positive_and_climb_to_the_root(delta):
    # trigamma is evaluated once per step, at the iterate the step leaves
    seen = []

    def recording_trigamma(m):
        seen.append(m)
        return trigamma(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "trigamma", recording_trigamma)
        est = estimate_ml(stats_for(delta))
    iterates = [*seen, est.m_hat]
    assert len(seen) == est.iterations <= 5
    assert all(m > 0.0 for m in iterates)
    # the first step may overshoot the root from above; after it, m only rises
    after_first = iterates[1:]
    assert after_first == sorted(after_first)
    for m in after_first:
        assert math.log(m) - digamma(m) - delta >= -estimators._ML_TOL


def test_newton_in_inverse_shape_sees_a_convex_function():
    # g(1/u) is convex in u exactly when x^2 psi'(x) - x decreases in x;
    # it falls from 1 (x -> 0) to 1/2 (x -> inf)
    with mpmath.workdps(40):
        values = [x * x * mpmath.psi(1, x) - x
                  for x in (mpmath.mpf(float(v)) for v in np.geomspace(1e-8, 1e10, 400))]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert 1 > values[0] and values[-1] > 0.5


@pytest.mark.parametrize("estimator", [estimate_ml, estimate_cheng_beaulieu_1,
                                       estimate_cheng_beaulieu_2, estimate_greenwood_durand])
def test_delta_estimators_refuse_a_delta_whose_twelvefold_is_not_finite(estimator):
    # these used to raise ZeroDivisionError (CB1), digamma's ValueError for
    # its NaN argument (ML), or report sigma_hat = 1.0 / nan (CB2, GD)
    for delta in (math.nan, math.inf, 1.5e307, 1e308):
        with pytest.raises(OutOfRangeError, match=r"^delta=.*: 12 \* delta is not a finite float$"):
            estimator(stats_for(delta))
    if estimator is not estimate_greenwood_durand:  # whose domain ends at delta = 17
        est = estimator(stats_for(1.49e307))
        assert est.m_hat > 0.0 and 0.0 < est.sigma_hat < math.inf


def test_cheng_beaulieu_1_values():
    assert estimate_cheng_beaulieu_1(stats_for(0.5)).m_hat == pytest.approx(1.0, rel=1e-14)
    assert estimate_cheng_beaulieu_1(stats_for(0.05)).m_hat == pytest.approx(10.0, rel=1e-14)
    with pytest.raises(DegenerateBlockError):
        estimate_cheng_beaulieu_1(stats_for(0.0))

def test_cheng_beaulieu_2_values():
    # closed-form arithmetic, cross-checked against the exact root at delta = gamma
    est = estimate_cheng_beaulieu_2(stats_for(EULER_GAMMA))
    assert est.m_hat == pytest.approx(1.0092722374259453, rel=1e-13)
    assert abs(est.m_hat - estimate_ml(stats_for(EULER_GAMMA)).m_hat) < 0.01
    assert estimate_cheng_beaulieu_2(stats_for(12.0)).m_hat == pytest.approx(
        (3.0 + math.sqrt(153.0)) / 144.0, rel=1e-13
    )
    with pytest.raises(DegenerateBlockError):
        estimate_cheng_beaulieu_2(stats_for(0.0))

def test_greenwood_durand_matches_ml():
    assert estimate_greenwood_durand(stats_for(EULER_GAMMA)).m_hat == pytest.approx(1.0, abs=2e-3)
    assert estimate_greenwood_durand(stats_for(1.2703628454614782)).m_hat == pytest.approx(
        0.5, abs=2e-3
    )
    with pytest.raises(OutOfRangeError):
        estimate_greenwood_durand(stats_for(20.0))
    with pytest.raises(DegenerateBlockError):
        estimate_greenwood_durand(stats_for(0.0))

def test_greenwood_durand_tracks_ml_over_shape_range():
    # |GD - ML| <= 5e-3 * ML for deltas generated by m in [0.5, 20]
    for m in np.geomspace(0.5, 20.0, 60):
        delta = math.log(m) - digamma(float(m))
        s = stats_for(delta)
        gd = estimate_greenwood_durand(s).m_hat
        ml = estimate_ml(s).m_hat
        assert abs(gd - ml) <= 5e-3 * ml

def test_moment_based_values():
    est = estimate_moment_based([1.0, math.sqrt(3.0)])
    assert est.m_hat == pytest.approx(4.0, rel=1e-12)
    assert est.sigma_hat == pytest.approx(2.0 / 4.0, rel=1e-12)
    with pytest.raises(DegenerateBlockError):
        estimate_moment_based([1.0, 1.0])
    with pytest.raises(DegenerateBlockError):
        estimate_moment_based([2.0])

def test_moment_based_population_ratio():
    # population ratio (m sigma)^2 / (m sigma^2) = m
    p = NakagamiParams(m=2.0, sigma=1.0)
    block = sample(p, 200_000, seed=31)
    est = estimate_moment_based(block)
    assert est.m_hat == pytest.approx(2.0, rel=0.03)

def test_cb2_closer_to_ml_than_cb1():
    for delta in np.geomspace(0.01, 2.0, 40):
        s = stats_for(float(delta))
        ml = estimate_ml(s).m_hat
        e1 = abs(estimate_cheng_beaulieu_1(s).m_hat - ml)
        e2 = abs(estimate_cheng_beaulieu_2(s).m_hat - ml)
        assert e2 <= e1

ALL_KINDS = list(EstimatorKind)

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_scale_equivariance(kind):
    p = NakagamiParams(m=1.5, sigma=2.0)
    block = sample(p, 400, seed=77)
    base = estimate_block(kind, block)
    # abs=0: approx's default absolute tolerance (1e-12) would pass any sigma at 2**-200
    for c in (2.0**-200, 0.1, 3.0, 250.0, 2.0**200):
        scaled = estimate_block(kind, c * block)
        assert scaled.m_hat == pytest.approx(base.m_hat, rel=1e-9)
        assert scaled.sigma_hat == pytest.approx(c * c * base.sigma_hat, rel=1e-9, abs=0)

@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 4.0])
def test_consistency_500_trials(kind, m):
    # The first-order closed form converges to 1/(2*delta(m)), not to m: its
    # truncation bias (21% at m=0.5) is built into the formula and does not
    # shrink with sample size. Every other estimator must land on m itself.
    if kind is EstimatorKind.CHENG_BEAULIEU_1:
        target = 1.0 / (2.0 * (math.log(m) - digamma(m)))
    else:
        target = m
    p = NakagamiParams.from_omega(m, 1.0)
    total = 0.0
    for trial in range(500):
        block = sample(p, 1000, seed=[811, int(m * 10), trial])
        total += estimate_block(kind, block).m_hat
    assert total / 500.0 == pytest.approx(target, rel=0.05)

def test_estimate_block_dispatch():
    p = NakagamiParams(m=2.0, sigma=1.0)
    block = sample(p, 500, seed=3)
    own = {
        EstimatorKind.EXACT_ML: lambda b: estimate_ml(compute_stats(b)),
        EstimatorKind.CHENG_BEAULIEU_1: lambda b: estimate_cheng_beaulieu_1(compute_stats(b)),
        EstimatorKind.CHENG_BEAULIEU_2: lambda b: estimate_cheng_beaulieu_2(compute_stats(b)),
        EstimatorKind.GREENWOOD_DURAND: lambda b: estimate_greenwood_durand(compute_stats(b)),
        EstimatorKind.MOMENT_BASED: estimate_moment_based,
    }
    for kind in ALL_KINDS:
        est = estimate_block(kind, block)
        assert est == own[kind](block)
        assert est.m_hat > 0
        assert est.sigma_hat > 0


# numpy warns about the overflow/underflow before the estimator raises
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-170, 1e170])
@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_out_of_float_range_block_raises_out_of_range(kind, scale):
    block = sample(NakagamiParams(m=2.0, sigma=0.5), 30, seed=3) * scale
    with pytest.raises(OutOfRangeError):
        estimate_block(kind, block)


# Reference: the block statistics as formulated before the two-row buffer:
# `as_block`'s min/max validation, then one 1-D `np.add.reduce` per sum.
def reference_compute_stats(block):
    b = as_block(block)
    with np.errstate(all="ignore"):
        x2 = b * b
        log_x2 = np.log(x2)
    n = x2.size
    mean_x2 = float(np.add.reduce(x2)) / n
    mean_log_x2 = float(np.add.reduce(log_x2)) / n
    if not (0.0 < mean_x2 < math.inf and math.isfinite(mean_log_x2)):
        raise OutOfRangeError("block values square outside the float range")
    delta = math.log(mean_x2) - mean_log_x2
    return SufficientStats(n, mean_x2, mean_log_x2, max(delta, 0.0))


def reference_moment_based(block):
    b = as_block(block)
    if b.size < 2:
        raise DegenerateBlockError("moment estimator needs at least 2 samples")
    with np.errstate(all="ignore"):
        x2 = b * b
        x4 = x2 * x2
    mean_x2 = float(np.add.reduce(x2)) / b.size
    mean_x4 = float(np.add.reduce(x4)) / b.size
    square = mean_x2 * mean_x2
    denom = mean_x4 - square
    if not (square > 0.0 and math.isfinite(denom)):
        raise OutOfRangeError("block values outside the float range of the moment estimator")
    if denom <= DELTA_MIN * square:
        raise DegenerateBlockError(
            f"variance of x^2 ({denom!r}) too small for the moment estimator"
        )
    m = square / denom
    return Estimate(m, _sigma_hat(mean_x2, m))


REFERENCE_LENGTHS = [*range(1, 601), 8191, 8192, 8193, 9000, 16384 + 7, 70001]


def test_block_statistics_match_the_reference_bit_for_bit():
    # repr tells every float apart, -0.0 from 0.0 included
    rng = np.random.default_rng(1907)
    for n in REFERENCE_LENGTHS:
        block = np.exp(rng.normal(0.0, 1.0 + n % 7, n)) * 10.0 ** int(rng.integers(-20, 21))
        assert repr(compute_stats(block)) == repr(reference_compute_stats(block)), n
        if n >= 2:
            assert repr(estimate_moment_based(block)) == repr(reference_moment_based(block)), n


def _outcome(fn, block):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return "returned", repr(fn(block))
        except Exception as exc:
            return type(exc), str(exc)


BAD_ENTRIES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5, 1e200, 1e-300]


@pytest.mark.parametrize("size", [1, 2, 5, 40])
@pytest.mark.parametrize("bad", BAD_ENTRIES)
def test_bad_entries_raise_as_the_reference(bad, size):
    rng = np.random.default_rng(23)
    for position in {0, size // 2, size - 1}:
        block = rng.uniform(0.5, 2.0, size)
        block[position] = bad
        for fn, ref in ((compute_stats, reference_compute_stats),
                        (estimate_moment_based, reference_moment_based)):
            assert _outcome(fn, block) == _outcome(ref, block), (fn.__name__, position)


@pytest.mark.parametrize("pair", [(a, b) for a in BAD_ENTRIES for b in BAD_ENTRIES])
def test_two_bad_entries_raise_as_the_reference(pair):
    # an inf next to a value whose square underflows is refused as the inf is
    block = np.array([1.0, pair[0], 0.5, pair[1], 2.0])
    for fn, ref in ((compute_stats, reference_compute_stats),
                    (estimate_moment_based, reference_moment_based)):
        assert _outcome(fn, block) == _outcome(ref, block), fn.__name__


def test_squares_that_underflow_raise_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRangeError, match="square outside the float range"):
            compute_stats([1e-300, 2e-300, 3e-300])


@pytest.mark.parametrize("block", [[1e200, 2e200, 3e200], [1e100, 2e100]])
def test_moment_overflow_raises_without_a_warning(block):
    # the first block's squares overflow, the second's x^4 only
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRangeError, match="float range of the moment estimator"):
            estimate_moment_based(block)
        with pytest.raises(OutOfRangeError, match="float range of the moment estimator"):
            estimate_block(EstimatorKind.MOMENT_BASED, block)


# decade centers of the moment pass's rows: ordinary values; the edges where
# x^4 (1e77) or mean(x^2)^2 (1e-81) leaves the float range; values whose
# x^4 leaves it (1e+-150) and whose squares do (1e+-160)
MOMENT_DECADES = (0.0, 77.0, -81.0, 150.0, -150.0, 160.0, -160.0)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    n=st.one_of(st.just(2), st.integers(2, 40)),
    seed=st.integers(0, 2**32 - 1),
    rows=st.lists(st.tuples(st.sampled_from(MOMENT_DECADES), st.floats(-3.0, 3.0),
                            st.sampled_from((0.0, 1e-7, 1e-5, 0.5, 3.0))),
                  min_size=1, max_size=8),
)
@example(n=2, seed=0, rows=[(0.0, 0.0, 0.5), (0.0, 0.0, 0.0), (160.0, 0.0, 0.0)])
def test_moment_pass_decides_each_row_as_the_one_block_estimator(n, seed, rows):
    # each row is log-uniform over its decade center +- its span: a span of 0
    # gives a constant row. A _USED row has the one-block m_hat bits and a
    # sigma_hat in range, which is why the pass needs no sigma_hat check
    center, shift, span = (np.array(column)[:, None] for column in zip(*rows))
    rng = np.random.default_rng(seed)
    blocks = 10.0 ** rng.uniform(center + shift - span, center + shift + span, (len(rows), n))
    mean_x2, _, m_hat, status = estimators._moment_pass(blocks)
    for row, block in enumerate(blocks):
        if status[row] == _USED:
            est = estimate_moment_based(block)
            assert repr(est.m_hat) == repr(float(m_hat[row])), row
            assert est.sigma_hat == _sigma_hat(float(mean_x2[row]), est.m_hat), row
        else:
            with pytest.raises({_SKIPPED: DegenerateBlockError, _FAILED: OutOfRangeError}[status[row]]):
                estimate_moment_based(block)
        assert _outcome(estimate_moment_based, block) == _outcome(reference_moment_based, block), row


# 3-value blocks that hold every outcome: a constant block, which every
# estimator skips; delta about 18.0, which only greenwood_durand refuses;
# squares that overflow, which every estimator refuses; two ordinary blocks
TABLE_BLOCKS = ([2.0, 2.0, 2.0], [1e-12, 1.0, 1.0], [1e200, 2e200, 3e200],
                [0.5, 1.0, 2.0], [1.3, 0.2, 0.9])


def test_block_tables_decide_each_block_as_estimate_block():
    # every row of 3 blocks drawn from TABLE_BLOCKS, in every order; each cell
    # up to its row's first _FAILED is the outcome of estimate_block
    windows = np.array([[TABLE_BLOCKS[i] for i in row]
                        for row in itertools.product(range(len(TABLE_BLOCKS)), repeat=3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tables = estimators._block_tables(tuple(EstimatorKind), windows)
    assert list(tables) == list(EstimatorKind)
    for kind, (m_hat, status) in tables.items():
        assert m_hat.shape == status.shape == windows.shape[:2]
        assert set(status.ravel().tolist()) == {_USED, _SKIPPED, _FAILED}, kind
        for row, window in enumerate(windows):
            for b, block in enumerate(window):
                try:
                    with np.errstate(over="ignore"):  # the overflow block warns outside the tables
                        expected = _USED, repr(estimate_block(kind, block).m_hat)
                except DegenerateBlockError:
                    expected = _SKIPPED, None
                except NakafitError:
                    expected = _FAILED, None
                used = status[row, b] == _USED
                assert (status[row, b], repr(float(m_hat[row, b])) if used else None) == expected, \
                    (kind, row, b)
                if expected[0] == _FAILED:
                    break
