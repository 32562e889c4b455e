import math

import numpy as np
import pytest

from nakafit import crlb, crlb_modified, normalized
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


def test_bound_validation():
    for fn in (crlb, crlb_modified):
        with pytest.raises(ValueError):
            fn(0.0, 10)
        with pytest.raises(ValueError):
            fn(-2.0, 10)
        with pytest.raises(ValueError):
            fn(1.0, 0)


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
