import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special as sp
import scipy.stats

from nakafit import NakagamiParams, OutOfRangeError, as_block, log_pdf, sample


def test_params_validation():
    with pytest.raises(ValueError):
        NakagamiParams(m=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        NakagamiParams(m=1.0, sigma=-2.0)
    with pytest.raises(ValueError):
        NakagamiParams(m=math.nan, sigma=1.0)


def test_omega_bridge_round_trips():
    p = NakagamiParams.from_omega(4.0, 1.0)
    assert p.sigma == 0.25
    assert p.omega == 1.0
    q = NakagamiParams(m=2.5, sigma=0.8)
    assert NakagamiParams.from_omega(q.m, q.omega).sigma == pytest.approx(q.sigma, rel=1e-15)


def test_as_block_rejects_bad_input():
    with pytest.raises(ValueError):
        as_block([])
    with pytest.raises(ValueError):
        as_block([1.0, 0.0])
    with pytest.raises(ValueError):
        as_block([1.0, -3.0])
    with pytest.raises(ValueError):
        as_block([1.0, math.inf])


@pytest.mark.parametrize("position", [0, 3, 6])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -2.5])
def test_as_block_rejects_each_bad_entry_anywhere(bad, position):
    values = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    values[position] = bad
    with pytest.raises(ValueError, match=r"^sample block entries must be finite and > 0$"):
        as_block(values)


def test_as_block_accepts_the_float_extremes():
    block = as_block([5e-324, 1.0, 1.7e308])
    assert block.dtype == np.float64
    assert block.tolist() == [5e-324, 1.0, 1.7e308]
    assert as_block(np.array([[1.0, 2.0]])).shape == (2,)


def test_log_pdf_rayleigh_point():
    # m = 1, sigma = 1 reduces to 2 x exp(-x^2)
    p = NakagamiParams(m=1.0, sigma=1.0)
    assert log_pdf(p, 1.0) == pytest.approx(math.log(2.0) - 1.0, abs=1e-12)


def test_log_pdf_direct_arithmetic():
    # ln2 - lnGamma(2) - 2 ln(1/2) + 3 ln(1) - 1/(1/2) = 3 ln2 - 2
    p = NakagamiParams(m=2.0, sigma=0.5)
    assert log_pdf(p, 1.0) == pytest.approx(3.0 * math.log(2.0) - 2.0, abs=1e-12)


def test_log_pdf_domain_errors():
    p = NakagamiParams(m=1.0, sigma=1.0)
    with pytest.raises(ValueError):
        log_pdf(p, 0.0)
    with pytest.raises(ValueError):
        log_pdf(p, -1.0)


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 8.0])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 4.0])
def test_pdf_normalizes(m, sigma):
    # split at the bulk and add the analytic x^2 ~ Gamma tail beyond the window
    p = NakagamiParams(m=m, sigma=sigma)
    peak = math.sqrt(m * sigma)
    hi = math.sqrt(sigma * (m + 20.0 * math.sqrt(m) + 60.0))
    head, _ = scipy.integrate.quad(lambda x: np.exp(log_pdf(p, x)), 1e-14, peak, limit=200)
    tail, _ = scipy.integrate.quad(lambda x: np.exp(log_pdf(p, x)), peak, hi, limit=200)
    assert head + tail == pytest.approx(1.0, abs=1e-6)


def test_pdf_normalizes_tightly_on_finite_window():
    p = NakagamiParams(m=1.0, sigma=1.0)
    total, _ = scipy.integrate.quad(lambda x: np.exp(log_pdf(p, x)), 1e-14, 20.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_log_pdf_of_an_array_is_elementwise():
    p = NakagamiParams(m=1.0, sigma=1.0)
    assert log_pdf(p, np.array([1.0, 1.0])).tolist() == [log_pdf(p, 1.0)] * 2
    q = NakagamiParams(m=3.0, sigma=0.7)
    block = [1.0, 2.0, 0.5]
    out = log_pdf(q, np.array(block))
    assert out.shape == (3,)
    assert out.tolist() == pytest.approx([log_pdf(q, x) for x in block], rel=1e-14)


def test_log_pdf_refuses_terms_that_overflow_against_each_other():
    # ln Gamma(m) = +inf and m ln sigma = -inf: the sum used to be returned as NaN
    with pytest.raises(OutOfRangeError, match=r"^ln f\(x\) at m=1e\+308, sigma=1e-308 is not a number$"):
        log_pdf(NakagamiParams(1e308, 1e-308), 10.0)


def test_log_pdf_is_minus_inf_where_the_density_underflows():
    # x^2 / sigma overflows: the density is 0 in floats, and segment's class
    # costs count on -inf here; no overflow warning is raised
    assert log_pdf(NakagamiParams(1.0, 1e-300), 1e200) == -math.inf
    out = log_pdf(NakagamiParams(1.0, 1e-300), np.array([1e200, 1e-150]))
    assert out[0] == -math.inf and math.isfinite(out[1])


def test_sample_deterministic_given_seed():
    p = NakagamiParams(m=2.0, sigma=0.5)
    a = sample(p, 1000, seed=42)
    b = sample(p, 1000, seed=42)
    assert np.array_equal(a, b)
    c = sample(p, 1000, seed=43)
    assert not np.array_equal(a, c)


def test_sample_positive_support():
    p = NakagamiParams(m=0.5, sigma=1.0)
    x = sample(p, 50000, seed=7)
    assert np.all(x > 0.0)
    assert np.all(np.isfinite(x))


@pytest.mark.parametrize(
    "m,sigma",
    [(1.0, 1.0), (4.0, 0.25)],
)
def test_sample_second_moment_band(m, sigma):
    # E[x^2] = m*sigma, Var[x^2] = m*sigma^2 from the Gamma representation
    n = 100_000
    p = NakagamiParams(m=m, sigma=sigma)
    x = sample(p, n, seed=123)
    stderr = math.sqrt(m * sigma * sigma / n)
    assert abs(float(np.mean(x * x)) - m * sigma) < 3.0 * stderr


def test_sample_fourth_moment_band():
    n = 100_000
    p = NakagamiParams(m=2.0, sigma=1.0)
    x = sample(p, n, seed=99)
    x4 = (x * x) ** 2
    # Var[x^4] = E[x^8] - E[x^4]^2 via the Gamma rising-factorial moments
    e8 = 2 * 3 * 4 * 5  # m(m+1)(m+2)(m+3) at m=2, sigma=1
    e4 = 2 * 3  # m(m+1)
    band = 4.0 * math.sqrt((e8 - e4 * e4) / n)
    assert abs(float(np.mean(x4)) - e4) < band


@pytest.mark.parametrize(
    "m,sigma",
    [(0.7, 1.3), (1.0, 1.0), (5.0, 0.2), (0.05, 20.0), (0.5, 2.0), (16.0, 0.0625)],
)
def test_sampler_law_kolmogorov_smirnov(m, sigma):
    # analytic CDF: regularized lower incomplete gamma of x^2/sigma at shape m
    p = NakagamiParams(m=m, sigma=sigma)
    x = sample(p, 10_000, seed=2024)
    stat, _ = scipy.stats.kstest(x, lambda t: sp.gammainc(m, t * t / sigma))
    assert stat < 1.628 / math.sqrt(10_000)  # 1% critical value


def test_sample_rejects_bad_count():
    p = NakagamiParams(m=1.0, sigma=1.0)
    with pytest.raises(ValueError):
        sample(p, 0, seed=1)


@pytest.mark.parametrize("m,sigma", [(0.001, 1000.0), (2.0, 1e308)])
def test_sample_out_of_float_range_raises_out_of_range(m, sigma):
    # tiny m: some variates underflow to 0; huge sigma: some overflow to inf.
    # Warnings are errors in the suite, so this also checks that none is emitted.
    with pytest.raises(OutOfRangeError):
        sample(NakagamiParams(m=m, sigma=sigma), 1000, seed=1)
