import math
import numbers

import numpy as np
import pytest
import scipy.special as sp

from nakafit import digamma, log_gamma, trigamma

EULER_GAMMA = 0.5772156649015329


def test_log_gamma_closed_forms():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-12)
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-12)
    # 9! computed exactly
    assert log_gamma(10.0) == pytest.approx(math.log(math.factorial(9)), abs=1e-12)


def test_log_gamma_beyond_float_range_is_inf():
    assert log_gamma(1e305) == pytest.approx(float(sp.gammaln(1e305)), rel=1e-15)
    assert log_gamma(1e306) == math.inf
    assert log_gamma(1.7e308) == math.inf


def test_digamma_closed_forms():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12)
    assert digamma(1.5) == pytest.approx(digamma(0.5) + 2.0, abs=1e-12)


def test_trigamma_closed_forms():
    assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
    assert trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, abs=1e-12)
    assert trigamma(2.0) == pytest.approx(math.pi**2 / 6.0 - 1.0, abs=1e-12)


@pytest.mark.parametrize("fn", [log_gamma, digamma, trigamma])
@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
def test_domain_errors(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


@pytest.mark.parametrize("fn", [digamma, trigamma])
def test_float64_and_int_arguments_give_the_float_value(fn):
    for x in (0.3, 2.0, 17.5):
        assert fn(np.float64(x)) == fn(x)
    assert fn(3) == fn(3.0)


def test_recurrences_on_grid():
    for x in np.geomspace(0.01, 100.0, 120):
        x = float(x)
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-10
        assert abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x)) < 1e-10


def test_finite_difference_consistency():
    h = 1e-5
    for x in np.geomspace(0.1, 50.0, 60):
        x = float(x)
        fd_psi = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
        assert abs(fd_psi - digamma(x)) < 1e-6
        fd_tri = (digamma(x + h) - digamma(x - h)) / (2.0 * h)
        assert abs(fd_tri - trigamma(x)) < 1e-5


def test_monotonicity():
    grid = np.geomspace(0.05, 200.0, 150)
    psi = [digamma(float(x)) for x in grid]
    tri = [trigamma(float(x)) for x in grid]
    assert all(b > a for a, b in zip(psi, psi[1:]))
    assert all(b < a for a, b in zip(tri, tri[1:]))


def test_digamma_concavity_inequality():
    # 2*(psi(m+1/2) - psi(m)) never exceeds psi'(m)
    for m in np.geomspace(0.05, 50.0, 80):
        m = float(m)
        assert 2.0 * (digamma(m + 0.5) - digamma(m)) <= trigamma(m)


def test_accuracy_against_scipy_oracle():
    # Absolute tolerances apply where float64 can represent them; where the
    # values reach 1e4..1e6 at the range edges, a few-ulp relative band is
    # the attainable equivalent.
    eps = np.finfo(float).eps
    for x in np.geomspace(1e-3, 1e4, 150):
        x = float(x)
        ref = float(sp.gammaln(x))
        assert abs(log_gamma(x) - ref) <= max(1e-12, 8 * eps * abs(ref))
        ref = float(sp.digamma(x))
        assert abs(digamma(x) - ref) <= max(1e-12, 8 * eps * abs(ref))
        ref = float(sp.polygamma(1, x))
        assert abs(trigamma(x) - ref) <= max(1e-10, 8 * eps * abs(ref))


# Reference: digamma and trigamma as formulated with a Horner loop over the
# coefficient tuples and a separate argument check, which refuses a bool or a
# non-real (a str included) before it converts to float.
def _reference_positive(x):
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise ValueError(f"x must be a positive finite real, got {x!r}")
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"x must be a positive finite real, got {x!r}")
    return x


def _reference_horner(coeffs, r):
    series = 0.0
    for c in reversed(coeffs):
        series = series * r + c
    return series


PSI_COEFFS = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0,
              -691.0 / 32760.0, 1.0 / 12.0)
BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
             -691.0 / 2730.0, 7.0 / 6.0)


def reference_digamma(x):
    x = _reference_positive(x)
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    return acc + math.log(x) - 0.5 / x - _reference_horner(PSI_COEFFS, r) * r


def reference_trigamma(x):
    x = _reference_positive(x)
    if x * x == 0.0:
        return math.inf
    acc = 0.0
    while x < 8.0:
        acc += 1.0 / (x * x)
        x += 1.0
    r = 1.0 / (x * x)
    return acc + 1.0 / x + 0.5 * r + _reference_horner(BERNOULLI, r) * r / x


def test_digamma_and_trigamma_match_the_loop_reference_bit_for_bit():
    rng = np.random.default_rng(808)
    xs = [*rng.uniform(0.0, 16.0, 4000), *10.0 ** rng.uniform(-320, 308, 4000),
          5e-324, 1e-170, 7.999999999999999, 8.0, 8.000000000000002, 1.7976931348623157e308]
    for x in xs:
        x = float(x)
        if x == 0.0:
            continue
        assert repr(digamma(x)) == repr(reference_digamma(x)), x
        assert repr(trigamma(x)) == repr(reference_trigamma(x)), x


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, "nan"])
@pytest.mark.parametrize("fn, ref", [(digamma, reference_digamma), (trigamma, reference_trigamma)])
def test_argument_errors_match_the_reference(fn, ref, bad):
    with pytest.raises(ValueError) as want:
        ref(bad)
    with pytest.raises(ValueError) as got:
        fn(bad)
    assert str(got.value) == str(want.value)
