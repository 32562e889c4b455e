"""The shared argument checks and every Python-API entry point that uses them.

A positive real refuses a bool, a string, NaN and an int beyond the float
range; an integer argument refuses a bool and every float. Each refusal is
nakafit's ValueError naming the argument, never a raw OverflowError or
TypeError and never Python's int -> str digit-limit message.
"""

import math
import sys

import numpy as np
import pytest

from nakafit import (
    BenchConfig,
    EstimatorKind,
    GaussianParams,
    Likelihood,
    NakagamiParams,
    crlb,
    crlb_modified,
    as_block,
    compute_stats,
    digamma,
    log_gamma,
    log_pdf,
    normalized,
    run_bench,
    sample,
    segment,
    trigamma,
)
from nakafit.blockwise import BlockEstimatorState, ingest_block
from nakafit.errors import _integer, _positive, _shown
from nakafit.estimators import estimate_block
from nakafit.pgm import labels_to_gray

# pytest would name a parameter by str(), which fails on an int past 4,300 digits
NOT_POSITIVE_REALS = [
    pytest.param(True, id="True"),
    pytest.param("2", id="str"),
    pytest.param(10**400, id="int_beyond_float_range"),
    pytest.param(-(10**400), id="negative_int_beyond_float_range"),
    pytest.param(10**5000, id="int_past_digit_limit"),
    pytest.param(math.nan, id="nan"),
]
NOT_INTEGERS = [
    pytest.param(True, id="True"),
    pytest.param("2", id="str"),
    pytest.param(math.nan, id="nan"),
    pytest.param(2.5, id="2.5"),
    pytest.param(3.0, id="3.0"),
]
PARAMS = NakagamiParams(m=1.0, sigma=1.0)
IMAGE = np.arange(1.0, 17.0).reshape(4, 4)


def _refused(call, name):
    """Run call; it must raise ValueError whose message starts with name."""
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert message.startswith(f"{name} must be "), message
    return message


@pytest.mark.parametrize("bad", NOT_POSITIVE_REALS)
@pytest.mark.parametrize("name", ["m", "sigma"])
def test_nakagami_params_refuses(name, bad):
    _refused(lambda: NakagamiParams(**{"m": 1.0, "sigma": 1.0, name: bad}), name)


@pytest.mark.parametrize("bad", NOT_POSITIVE_REALS)
@pytest.mark.parametrize("name", ["m", "omega"])
def test_from_omega_refuses(name, bad):
    _refused(lambda: NakagamiParams.from_omega(**{"m": 1.0, "omega": 1.0, name: bad}), name)


@pytest.mark.parametrize("bad", NOT_POSITIVE_REALS)
@pytest.mark.parametrize("field, value, name", [
    ("m_grid", lambda bad: (1.0, bad), "m_grid value"),
    ("omega", lambda bad: bad, "omega"),
], ids=["m_grid", "omega"])
def test_bench_config_refuses_real(field, value, name, bad):
    _refused(lambda: BenchConfig(**{"m_grid": (1.0,), "trials": 2, field: value(bad)}), name)


@pytest.mark.parametrize("bad", NOT_INTEGERS)
@pytest.mark.parametrize("name", ["block_size", "num_blocks", "trials", "base_seed"])
def test_bench_config_refuses_integer(name, bad):
    _refused(lambda: BenchConfig(**{"m_grid": (1.0,), "trials": 2, name: bad}), name)


@pytest.mark.parametrize("field, bad", [
    ("m_grid", None),
    ("m_grid", 1.0),
    ("estimators", None),
], ids=["m_grid-None", "m_grid-float", "estimators-None"])
def test_bench_config_refuses_a_field_that_is_not_a_sequence(field, bad):
    # len() of these used to raise a raw TypeError
    message = _refused(lambda: BenchConfig(**{"m_grid": (1.0,), "trials": 2, field: bad}), field)
    assert message == f"{field} must be a non-empty sequence, got {bad!r}"


# arrays numpy cannot cast to float64 without loss: a cast would drop the
# imaginary part with a ComplexWarning, and a complex or str entry in a list
# made numpy raise its own TypeError or ValueError, which names no argument
NOT_REAL_ARRAYS = [
    pytest.param(np.array([[1 + 5j, 2 + 0j, 3.0]]), id="complex_ndarray"),
    pytest.param([[1 + 1j, 2.0, 3.0]], id="list_with_complex"),
    pytest.param([[1.0, "a", 3.0]], id="list_with_str"),
    # numpy would parse numeric strings and cast bools to 0 and 1
    pytest.param(["0.5", "1.5"], id="list_of_numeric_str"),
    pytest.param("1.5", id="numeric_str"),
    pytest.param(np.array([b"0.5", b"1.5"]), id="numeric_bytes_ndarray"),
    pytest.param([["1", "2"], ["3", "4"]], id="numeric_str_matrix"),
    pytest.param([True, True], id="list_of_bool"),
    pytest.param(np.array([[True, False], [False, True]]), id="bool_ndarray"),
    # mixed input: numpy would cast the bool to 1.0 and parse the string
    pytest.param([True, 2.0], id="list_with_bool_among_floats"),
    pytest.param(np.array(["1.5", 2.0], dtype=object), id="object_ndarray_with_numeric_str"),
]
ARRAY_ENTRY_POINTS = {
    "compute_stats": (compute_stats, "sample block"),
    "as_block": (as_block, "sample block"),
    **{f"estimate_block-{kind.value}": (lambda v, kind=kind: estimate_block(kind, v),
                                        "sample block") for kind in EstimatorKind},
    "log_pdf": (lambda v: log_pdf(PARAMS, v), "x"),
    "segment": (lambda v: segment(v, 2, Likelihood.GAUSSIAN, seed=0), "image"),
}


@pytest.mark.parametrize("bad", NOT_REAL_ARRAYS)
@pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
def test_array_inputs_refuse_entries_that_are_not_real(entry, bad):
    call, name = ARRAY_ENTRY_POINTS[entry]
    message = _refused(lambda: call(bad), name)
    dtype = np.asarray(bad).dtype
    # of mixed input, the message names the type of the first entry refused
    shown = dtype if dtype.kind in "cUSb" else type(np.asarray(bad, dtype=object).flat[0]).__name__
    assert message == f"{name} must be real numbers, got {shown}"


@pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
def test_array_inputs_refuse_a_ragged_row_with_numpys_reason(entry):
    # numpy cannot make an array of rows of two lengths; its message follows the name
    call, name = ARRAY_ENTRY_POINTS[entry]
    message = _refused(lambda: call([[1.0], [1.0, 2.0]]), name)
    assert message.startswith(f"{name} must be real numbers: setting an array element with a sequence")


@pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
def test_array_inputs_refuse_an_int_beyond_the_float_range_with_numpys_reason(entry):
    # an int entry is a real number, but its cast to float64 overflows
    call, name = ARRAY_ENTRY_POINTS[entry]
    message = _refused(lambda: call([[10**400, 1.0], [2.0, 3.0]]), name)
    assert message == f"{name} must be real numbers: int too large to convert to float"


@pytest.mark.parametrize("bad", NOT_POSITIVE_REALS)
def test_log_gamma_refuses(bad):
    _refused(lambda: log_gamma(bad), "x")


@pytest.mark.parametrize("bad", NOT_POSITIVE_REALS)
@pytest.mark.parametrize("fn", [digamma, trigamma])
def test_digamma_and_trigamma_refuse(fn, bad):
    _refused(lambda: fn(bad), "x")


@pytest.mark.parametrize("bad", NOT_POSITIVE_REALS)
@pytest.mark.parametrize("bound", [
    lambda m: crlb(m, 30),
    lambda m: crlb_modified(m, 30),
    lambda m: normalized(0.1, m),
], ids=["crlb", "crlb_modified", "normalized"])
def test_bounds_refuse_shape(bound, bad):
    _refused(lambda: bound(bad), "m")


@pytest.mark.parametrize("bad", [
    pytest.param("0.5", id="str"),
    pytest.param(True, id="True"),
    pytest.param(None, id="None"),
    pytest.param(10**400, id="int_beyond_float_range"),
    pytest.param(-1.0, id="-1.0"),
    pytest.param(math.inf, id="inf"),
    pytest.param(math.nan, id="nan"),
])
def test_normalized_refuses_bound_value(bad):
    # "0.5" and True used to be read as 0.5 and 1.0, and 10**400 raised OverflowError
    message = _refused(lambda: normalized(bad, 2), "bound_value")
    assert message.startswith("bound_value must be a finite real >= 0, got ")


def test_normalized_takes_a_zero_and_an_int_bound_value():
    assert normalized(0, 2) == 0.0
    assert normalized(np.int64(8), 2) == normalized(8.0, 2.0) == 2.0


@pytest.mark.parametrize("bound", [crlb, crlb_modified])
@pytest.mark.parametrize("bad", [pytest.param(True, id="True"), pytest.param(np.True_, id="numpy_bool"),
                                 pytest.param(None, id="None"), pytest.param("30", id="str")])
def test_bounds_refuse_a_sample_count_that_is_not_a_number(bound, bad):
    # a bool used to be taken as n = 1, and None raised TypeError
    message = _refused(lambda: bound(1.0, bad), "n")
    assert message == f"n must be a positive integer, got {bad!r}"


@pytest.mark.parametrize("bad", [
    pytest.param(True, id="True"),
    pytest.param("1", id="str"),
    pytest.param(None, id="None"),
    pytest.param(10**400, id="int_beyond_float_range"),
    pytest.param(-(10**400), id="negative_int_beyond_float_range"),
    pytest.param(math.inf, id="inf"),
    pytest.param(math.nan, id="nan"),
])
def test_gaussian_params_refuse_mu(bad):
    _refused(lambda: GaussianParams(bad, 1.0), "mu")


@pytest.mark.parametrize("dtype", [np.float16, np.float32])
@pytest.mark.parametrize("call, name", [
    (lambda x: NakagamiParams(x, 1.0), "m"),
    (lambda x: GaussianParams(x, 1.0), "mu"),
    (lambda x: BenchConfig(m_grid=(1.0,), trials=2, omega=x), "omega"),
    (digamma, "x"),
], ids=["NakagamiParams", "GaussianParams", "BenchConfig.omega", "digamma"])
def test_narrow_numpy_floats_are_checked_at_their_exact_value(call, name, dtype):
    # compared with the largest float, a float32 casts that bound to inf: the
    # cast warned, and a float32 inf passed as finite
    for bad in (np.inf, -np.inf, np.nan):
        _refused(lambda: call(dtype(bad)), name)
    call(dtype(1.5))  # the suite turns any warning into an error


@pytest.mark.parametrize("bad", NOT_POSITIVE_REALS + [pytest.param(0.0, id="0.0")])
def test_gaussian_params_refuse_var(bad):
    _refused(lambda: GaussianParams(0.0, bad), "var")


def test_gaussian_params_hold_floats():
    params = GaussianParams(np.int64(-2), np.float64(0.5))
    assert params == GaussianParams(-2.0, 0.5)
    assert type(params.mu) is float and type(params.var) is float


@pytest.mark.parametrize("bad", [pytest.param(True, id="True"), pytest.param(-1, id="-1"),
                                 pytest.param(2.5, id="2.5"), pytest.param("3", id="str"),
                                 pytest.param(np.True_, id="numpy_bool"),
                                 pytest.param([1, -2], id="list_with_negative")])
def test_sample_refuses_seed(bad):
    # True used to seed with 1; numpy's own refusals name no argument
    _refused(lambda: sample(PARAMS, 3, bad), "seed")


def test_sample_takes_every_seed_form_numpy_takes():
    want = np.sqrt(np.random.default_rng(5).standard_gamma(1.0, 4))
    for seed in (5, np.int64(5), [5], np.random.SeedSequence(5), np.random.default_rng(5)):
        np.testing.assert_array_equal(sample(PARAMS, 4, seed), want)


@pytest.mark.parametrize("bad", NOT_INTEGERS)
def test_sample_refuses_count(bad):
    # int(2.5) would silently draw 2 values
    _refused(lambda: sample(PARAMS, bad, 0), "n")


@pytest.mark.parametrize("bad", NOT_INTEGERS)
@pytest.mark.parametrize("likelihood", [Likelihood.GAUSSIAN, Likelihood.NAKAGAMI])
def test_segment_refuses_class_count(likelihood, bad):
    _refused(lambda: segment(IMAGE, bad, likelihood, seed=0), "n_classes")


@pytest.mark.parametrize("bad", ["gaussian", "nakagami", None])
def test_segment_refuses_a_likelihood_that_is_not_a_member(bad):
    # a non-member used to take the Nakagami branches: "gaussian" fitted
    # NakagamiParams, and "nakagami" skipped the zero lift
    zero = IMAGE.copy()
    zero[0, 0] = 0.0
    for img in (IMAGE, zero):
        _refused(lambda: segment(img, 2, bad, seed=0), "likelihood")


@pytest.mark.parametrize("bad", [pytest.param(True, id="True"), pytest.param("1", id="str"),
                                 pytest.param(None, id="None"), pytest.param(math.nan, id="nan"),
                                 pytest.param(math.inf, id="inf"), pytest.param(-math.inf, id="-inf")])
def test_segment_refuses_a_beta_that_is_not_real(bad):
    # NaN and +-inf used to get the pair-count message, which is for a finite beta
    _refused(lambda: segment(IMAGE, 2, Likelihood.GAUSSIAN, beta=bad, seed=0), "beta")


def test_segment_checks_class_count_and_seed_before_beta():
    _refused(lambda: segment(IMAGE, 1, Likelihood.GAUSSIAN, beta="1", seed=0), "n_classes")
    _refused(lambda: segment(IMAGE, 2, Likelihood.GAUSSIAN, beta="1", seed=-1), "seed")


@pytest.mark.parametrize("bad", [pytest.param(10**400, id="int_beyond_float_range"),
                                 pytest.param(-(10**400), id="negative_int_beyond_float_range"),
                                 pytest.param(10**5000, id="int_past_digit_limit")])
def test_segment_refuses_an_int_beta_beyond_the_float_range(bad):
    _refused(lambda: segment(IMAGE, 2, Likelihood.GAUSSIAN, beta=bad, seed=0), "beta")


def test_segment_takes_a_float32_beta_and_refuses_its_inf():
    # compared itself with the largest float, a float32 beta warned on every call
    segment(IMAGE, 2, Likelihood.GAUSSIAN, beta=np.float32(1.0), seed=0)
    _refused(lambda: segment(IMAGE, 2, Likelihood.GAUSSIAN, beta=np.float32(np.inf), seed=0),
             "beta")


@pytest.mark.parametrize("bad", [pytest.param(True, id="True"), pytest.param(-1, id="-1"),
                                 pytest.param(2.5, id="2.5"), pytest.param("3", id="str")])
@pytest.mark.parametrize("likelihood", [Likelihood.GAUSSIAN, Likelihood.NAKAGAMI])
def test_segment_refuses_seed(likelihood, bad):
    _refused(lambda: segment(IMAGE, 2, likelihood, seed=bad), "seed")


def test_segment_takes_a_numpy_seed_and_one_above_maxsize():
    want = segment(IMAGE, 2, Likelihood.GAUSSIAN, seed=3)
    assert segment(IMAGE, 2, Likelihood.GAUSSIAN, seed=np.int64(3)).trace == want.trace
    assert segment(IMAGE, 2, Likelihood.GAUSSIAN, seed=10**30).labels.shape == (4, 4)


@pytest.mark.parametrize("bad", ["exact_ml", None, [1]])
def test_estimate_block_refuses_a_kind_that_is_not_a_member(bad):
    block = np.array([1.0, 2.0, 3.0])
    _refused(lambda: estimate_block(bad, block), "kind")
    _refused(lambda: ingest_block(BlockEstimatorState(bad), block), "kind")


@pytest.mark.parametrize("bad", NOT_INTEGERS + [pytest.param(1, id="1")])
def test_labels_to_gray_refuses_class_count(bad):
    _refused(lambda: labels_to_gray(np.zeros((2, 2), dtype=int), bad), "n_classes")


def test_an_int_past_the_digit_limit_is_shown_by_its_digit_count():
    message = _refused(lambda: NakagamiParams(m=10**5000, sigma=1.0), "m")
    assert message == "m must be a positive finite real, got an int of 5001 digits"
    assert _shown(10**5000 - 1) == "an int of 5000 digits"
    assert _shown(-(10**4400)) == "an int of 4401 digits"
    assert _shown(10**4300 - 1) == repr(10**4300 - 1)
    with pytest.raises(ValueError, match="n must be a positive integer, got an int of 5001 digits"):
        crlb(1.0, -(10**5000))
    with pytest.raises(ValueError, match="fewer than an int of 5001 digits classes"):
        segment(IMAGE, 10**5000, Likelihood.GAUSSIAN, seed=0)


def test_numpy_scalars_are_accepted():
    assert NakagamiParams(m=np.float64(2.0), sigma=np.int64(3)) == NakagamiParams(2.0, 3.0)
    assert log_gamma(np.int64(3)) == log_gamma(3.0)
    assert sample(PARAMS, np.int64(3), 0).shape == (3,)
    cfg = BenchConfig(m_grid=(np.float64(1.0), np.int64(2)), omega=np.int64(2), trials=np.int64(3))
    assert type(cfg.trials) is int and cfg.trials == 3
    assert all(type(v) is float for v in (*cfg.m_grid, cfg.omega))


def test_the_checks_return_a_float_and_an_int():
    assert _positive(3, "x") == 3.0 and type(_positive(3, "x")) is float
    assert _positive(5e-324, "x") == 5e-324
    assert _positive(1.7976931348623157e308, "x") == 1.7976931348623157e308
    assert type(_integer(np.int64(7), "k", 0)) is int
    for bad in (0, 0.0, -1, -math.inf, math.inf, int(1.7976931348623157e308) + 1):
        with pytest.raises(ValueError, match="^x must be a positive finite real, got "):
            _positive(bad, "x")
    with pytest.raises(ValueError, match="^k must be >= 2$"):
        _integer(1, "k", 2)


# numpy sizes an array by a signed machine word, so a count above
# sys.maxsize is refused by name before numpy's "Maximum allowed dimension
# exceeded", which names no argument
def test_sample_refuses_a_count_above_maxsize():
    message = _refused(lambda: sample(PARAMS, 10**400, 0), "n")
    assert message == f"n must be <= {sys.maxsize}"
    assert _integer(sys.maxsize, "k", 0) == sys.maxsize


def test_run_bench_block_size_above_maxsize_is_refused_by_name():
    _refused(lambda: run_bench(BenchConfig(m_grid=(1.0,), block_size=10**400, trials=1)),
             "block_size")


def test_bench_config_refuses_trials_above_maxsize():
    _refused(lambda: BenchConfig(m_grid=(1.0,), trials=10**400), "trials")


def test_bench_config_refuses_a_window_above_maxsize():
    # each factor fits, the window a trial draws does not
    message = _refused(lambda: BenchConfig(m_grid=(1.0,), block_size=2**62, num_blocks=4),
                       "block_size * num_blocks")
    assert message == f"block_size * num_blocks must be <= {sys.maxsize}"


def test_bench_config_takes_a_seed_above_maxsize():
    # a seed is not a count: numpy's SeedSequence takes any int >= 0
    assert BenchConfig(m_grid=(1.0,), trials=1, base_seed=10**30).base_seed == 10**30
