import math

import mpmath
import numpy as np
import pytest

from nakafit import EstimatorKind, NakagamiParams, crlb, crlb_modified, estimate_block, normalized, sample
from nakafit.errors import OutOfRangeError
from nakafit.specfun import digamma, trigamma


def test_crlb_reference_values():
    # psi'(1) = pi^2/6, so crlb(1, n) = 1 / (n (pi^2/6 - 1))
    assert crlb(1.0, 150) == pytest.approx(1.0 / (150.0 * (math.pi**2 / 6.0 - 1.0)), rel=1e-12)
    assert crlb(1.0, 150) == pytest.approx(0.0103369, abs=1e-6)
    assert crlb(1.0, 1) == pytest.approx(1.0 / (math.pi**2 / 6.0 - 1.0), rel=1e-12)
    assert crlb(1.0, 1) == pytest.approx(1.550546, abs=2e-6)


def test_crlb_modified_reference_values():
    # denominator at m=1: 2*(psi(3/2) - psi(1)) - 1 = 3 - 4 ln 2 exactly
    denom = 3.0 - 4.0 * math.log(2.0)
    assert crlb_modified(1.0, 150) == pytest.approx(1.0 / (150.0 * denom), rel=1e-12)
    assert crlb_modified(1.0, 1) == pytest.approx(1.0 / denom, rel=1e-12)


def test_modified_dominates_crlb_on_log_grid():
    for m in np.geomspace(0.1, 50.0, 60):
        m = float(m)
        lo = crlb(m, 100)
        hi = crlb_modified(m, 100)
        assert lo > 0.0
        assert hi >= lo


def test_gap_shrinks_as_m_grows():
    ratios = [crlb_modified(float(m), 10) / crlb(float(m), 10) for m in (0.5, 2.0, 8.0, 32.0)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 2.1


def test_inverse_n_scaling_exact():
    for m in (0.3, 1.0, 7.0):
        assert crlb(m, 300) == pytest.approx(crlb(m, 150) / 2.0, rel=1e-15)
        assert crlb_modified(m, 300) == pytest.approx(crlb_modified(m, 150) / 2.0, rel=1e-15)


def test_concavity_chain_on_grid():
    # the step that makes the modified bound an upper envelope
    for m in np.geomspace(0.1, 50.0, 60):
        m = float(m)
        assert 2.0 * (digamma(m + 0.5) - digamma(m)) <= trigamma(m)


def test_normalized():
    assert normalized(0.04, 2.0) == pytest.approx(0.01, rel=1e-15)
    assert normalized(0.37, 1.0) == 0.37
    assert normalized(crlb(4.0, 150), 4.0) == pytest.approx(crlb(4.0, 150) / 16.0, rel=1e-15)
    with pytest.raises(ValueError):
        normalized(-1.0, 2.0)
    with pytest.raises(ValueError):
        normalized(0.1, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            normalized(bad, 1.0)


def test_bound_validation():
    for fn in (crlb, crlb_modified):
        with pytest.raises(ValueError):
            fn(0.0, 10)
        with pytest.raises(ValueError):
            fn(-2.0, 10)
        with pytest.raises(ValueError):
            fn(1.0, 0)


@pytest.mark.parametrize("n", [2.7, math.inf, math.nan, 0, -3.0])
def test_sample_count_must_be_a_positive_integer(n):
    # int(n) would truncate 2.7 to 2 and raise OverflowError on inf
    for fn in (crlb, crlb_modified):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            fn(1.0, n)


def test_integral_float_sample_count_is_accepted():
    assert crlb(1.0, 150.0) == crlb(1.0, 150)
    assert crlb_modified(2.5, 150.0) == crlb_modified(2.5, 150)


def test_tiny_shapes_raise_out_of_range():
    # psi'(m) ~ 1/m^2 leaves the float range below m ~ 1e-154; below
    # m ~ 1e-162 the square m*m itself underflows to 0
    assert trigamma(1e-170) == math.inf
    assert crlb(1e-150, 10) == pytest.approx(1e-301, rel=1e-12)
    for m in (1e-154, 1e-160, 1e-170, 1e-310):
        with pytest.raises(OutOfRangeError):
            crlb(m, 10)
    # the modified curvature ~ 1/m stays finite until 1/m overflows
    assert crlb_modified(1e-170, 10) == pytest.approx(1e-171, rel=1e-12)
    with pytest.raises(OutOfRangeError):
        crlb_modified(1e-310, 10)


def test_normalized_underflowing_square_raises_out_of_range():
    # crlb_modified(1e-170, 10) is finite, but m * m underflows to 0
    bound = crlb_modified(1e-170, 10)
    assert math.isfinite(bound)
    with pytest.raises(OutOfRangeError):
        normalized(bound, 1e-170)
    assert normalized(1e-300, 1e-150) == 1e-300 / (1e-150 * 1e-150)


def test_normalized_overflowing_quotient_raises_out_of_range():
    # m^2 = 1e-320 is subnormal, not 0, and 1e308 / 1e-320 used to be returned as inf
    with pytest.raises(OutOfRangeError, match=r"^bound_value=1e\+308 / m\^2 at m=1e-160 overflows$"):
        normalized(1e308, 1e-160)
    assert normalized(1e-20, 1e-160) == 1e-20 / (1e-160 * 1e-160)


def test_bounds_against_mpmath_oracle():
    # Both curvature terms are sums of positive terms, so neither bound loses
    # digits to cancellation at any m.
    with mpmath.workdps(50):
        for m in np.geomspace(1e-3, 1e12, 200):
            m = float(m)
            x = mpmath.mpf(m)
            exact_crlb = 1 / (10 * (mpmath.psi(1, x) - 1 / x))
            exact_mod = 1 / (10 * (2 * (mpmath.digamma(x + 0.5) - mpmath.digamma(x)) - 1 / x))
            assert crlb(m, 10) == pytest.approx(float(exact_crlb), rel=4e-15)
            assert crlb_modified(m, 10) == pytest.approx(float(exact_mod), rel=4e-15)


def test_huge_shapes_raise_out_of_range():
    # 1/(2 m^2) underflows: the bound 2 m^2 / n is beyond the float range
    assert crlb(1e150, 10) == pytest.approx(2e299, rel=1e-12)
    assert crlb_modified(1e150, 10) == pytest.approx(4e299, rel=1e-12)
    for m in (1e160, 1e300):
        for fn in (crlb, crlb_modified):
            with pytest.raises(OutOfRangeError):
                fn(m, 10)


def test_sample_count_beyond_float_range_is_refused_by_name():
    # n is a finite real like every other numeric argument: an int beyond the
    # float range is refused before n * curvature is formed
    for fn in (crlb, crlb_modified):
        with pytest.raises(ValueError, match=r"^n must be a positive integer, got 1000+$"):
            fn(1.0, 10**400)


@pytest.mark.parametrize("m", [1, 2, 4, 8])
@pytest.mark.parametrize("block", [20, 30, 50, 150])
def test_exact_ml_variance_exceeds_the_crlb(block, m):
    # The paper's claim: no efficient estimator of m exists, so the exact-ML
    # variance stays above the CRLB. Its size follows the Bowman-Shenton
    # second-order form for the gamma shape (Properties of Estimators for
    # the Gamma Distribution, 1988): crlb * L^3 / ((L - 3)^2 (L - 5)).
    trials = 10_000
    draws = sample(NakagamiParams.from_omega(m, 1.0), trials * block, [block, m])
    m_hats = [estimate_block(EstimatorKind.EXACT_ML, row).m_hat
              for row in draws.reshape(trials, block)]
    variance = float(np.var(m_hats, ddof=1))
    bound = crlb(m, block)
    assert variance > bound
    second_order = bound * block**3 / ((block - 3) ** 2 * (block - 5))
    assert variance == pytest.approx(second_order, rel=0.08)
