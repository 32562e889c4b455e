import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nakafit import (
    DegenerateBlockError,
    EstimatorKind,
    NakagamiParams,
    OutOfRangeError,
    compute_stats,
    estimate_block,
    estimate_cheng_beaulieu_1,
    estimate_cheng_beaulieu_2,
    estimate_greenwood_durand,
    estimate_ml,
    estimate_moment_based,
    sample,
)
from nakafit.estimators import SufficientStats
from nakafit.specfun import digamma

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
    for c in (0.1, 3.0, 250.0):
        scaled = estimate_block(kind, c * block)
        assert scaled.m_hat == pytest.approx(base.m_hat, rel=1e-9)
        assert scaled.sigma_hat == pytest.approx(c * c * base.sigma_hat, rel=1e-9)

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
    for kind in ALL_KINDS:
        est = estimate_block(kind, block)
        assert est.method is kind
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
