import collections
import io
import math
import statistics
from dataclasses import astuple

import numpy as np
import pytest

from nakafit import (
    BenchConfig,
    BenchRow,
    BlockEstimatorState,
    EstimatorKind,
    NakafitError,
    NakagamiParams,
    OutOfRangeError,
    crlb,
    crlb_modified,
    emit_csv,
    finalize,
    ingest_block,
    montecarlo,
    run_bench,
    sample,
)

SMALL = BenchConfig(
    m_grid=(1.0, 2.0),
    block_size=20,
    num_blocks=3,
    trials=40,
    estimators=(EstimatorKind.EXACT_ML, EstimatorKind.MOMENT_BASED),
    base_seed=11,
)

def csv_of(rows):
    sink = io.StringIO()
    emit_csv(rows, sink)
    return sink.getvalue()

def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(m_grid=())
    with pytest.raises(ValueError):
        BenchConfig(m_grid=(-1.0,))
    with pytest.raises(ValueError):
        BenchConfig(block_size=1)
    with pytest.raises(ValueError):
        BenchConfig(trials=0)
    with pytest.raises(ValueError):
        BenchConfig(estimators=())
    with pytest.raises(ValueError):
        BenchConfig(omega=0.0)
    # each row is keyed by (m_true, estimator): no repeats, after float normalization
    with pytest.raises(ValueError, match="m_grid values must be distinct"):
        BenchConfig(m_grid=(1, 2.0, 1.0))
    with pytest.raises(ValueError, match="estimators must be distinct"):
        BenchConfig(estimators=(EstimatorKind.EXACT_ML, EstimatorKind.MOMENT_BASED,
                                EstimatorKind.EXACT_ML))

@pytest.mark.parametrize("field, value, message", [
    ("estimators", ("exact_ml",), "estimators must be EstimatorKind members"),
    ("trials", 2.5, "trials must be an integer"),
    ("trials", True, "trials must be an integer"),
    ("block_size", 30.0, "block_size must be an integer"),
    ("num_blocks", False, "num_blocks must be an integer"),
    ("base_seed", 1.5, "base_seed must be an integer"),
    ("base_seed", -1, "base_seed must be >= 0"),
    ("m_grid", ("1",), "m_grid value must be a positive finite real"),
    ("m_grid", (2.0, True), "m_grid value must be a positive finite real"),
    ("m_grid", (10**400,), "m_grid value must be a positive finite real"),
    ("omega", "2", "omega must be a positive finite real"),
    ("omega", True, "omega must be a positive finite real"),
    ("omega", 10**400, "omega must be a positive finite real"),
])
def test_config_refuses_what_run_bench_cannot_run(field, value, message):
    with pytest.raises(ValueError, match=message):
        BenchConfig(**{"m_grid": (1.0,), "trials": 2, field: value})


def test_config_stores_omega_as_a_float():
    cfg = BenchConfig(m_grid=(1,), omega=2, trials=2)
    assert type(cfg.omega) is float and cfg.omega == 2.0


def test_row_shape_and_bounds_columns():
    rows = run_bench(SMALL)
    assert len(rows) == 4  # 2 grid points x 2 estimators
    for row in rows:
        assert row.failures + 1 <= SMALL.trials + 1
        assert row.variance >= 0.0
        assert row.normalized_variance == pytest.approx(
            row.variance / row.m_true**2, rel=1e-12
        )
        assert row.crlb_block == pytest.approx(crlb(row.m_true, 20), rel=1e-12)
        assert row.crlb_total == pytest.approx(crlb(row.m_true, 60), rel=1e-12)
        assert row.crlb_modified_total == pytest.approx(
            crlb_modified(row.m_true, 60), rel=1e-12
        )

def test_single_trial_gives_zero_variance():
    cfg = BenchConfig(
        m_grid=(1.0,), block_size=25, num_blocks=2, trials=1,
        estimators=(EstimatorKind.EXACT_ML,), base_seed=3,
    )
    row = run_bench(cfg)[0]
    assert row.variance == 0.0
    assert math.isfinite(row.mean_m_hat)
    assert row.failures == 0

def test_deterministic_rerun_byte_identical():
    a = csv_of(run_bench(SMALL))
    b = csv_of(run_bench(SMALL))
    assert a == b

def test_csv_layout():
    text = csv_of(run_bench(SMALL))
    lines = text.strip().split("\n")
    assert lines[0] == (
        "m_true,estimator,mean_m_hat,variance,normalized_variance,failures,"
        "crlb_block,crlb_total,crlb_modified_total"
    )
    assert len(lines) == 1 + 4
    # sorted by (m_true, estimator name); exact_ml < moment_based
    firsts = [line.split(",")[:2] for line in lines[1:]]
    assert firsts == [
        ["1", "exact_ml"],
        ["1", "moment_based"],
        ["2", "exact_ml"],
        ["2", "moment_based"],
    ]
    # >= 10 significant digits on the float columns
    mean_field = lines[1].split(",")[2]
    digits = sum(c.isdigit() for c in mean_field)
    assert digits >= 10

def test_failures_plus_successes_account_for_trials():
    for row in run_bench(SMALL):
        assert 0 <= row.failures <= SMALL.trials

def test_mean_tracks_truth_at_moderate_size():
    cfg = BenchConfig(
        m_grid=(2.0,), block_size=100, num_blocks=2, trials=150,
        estimators=(EstimatorKind.EXACT_ML,), base_seed=5,
    )
    row = run_bench(cfg)[0]
    assert row.mean_m_hat == pytest.approx(2.0, rel=0.08)
    assert row.failures == 0

def test_estimators_see_identical_data():
    # ML and CB2 nearly coincide on the same blocks; if the streams diverged
    # the two columns would decorrelate far beyond this tolerance
    cfg = BenchConfig(
        m_grid=(2.0,), block_size=30, num_blocks=3, trials=30,
        estimators=(EstimatorKind.EXACT_ML, EstimatorKind.CHENG_BEAULIEU_2),
        base_seed=17,
    )
    rows = run_bench(cfg)
    assert rows[0].mean_m_hat == pytest.approx(rows[1].mean_m_hat, rel=0.02)


def run_bench_reference(cfg, causes=None):
    """`run_bench` by the stream rule, one `sample` call per trial: each
    shape's trials draw their windows in turn from one generator seeded
    from (base_seed, m-index), and a trial whose draw `sample` refuses is a
    failure for every estimator. Each estimator folds each trial's blocks
    with `ingest_block` and `finalize`. `causes`, a Counter where given,
    counts by (m_true, estimator, cause) each trial's refusal, by its class
    name, and each skipped block, as "skipped"."""
    causes = collections.Counter() if causes is None else causes
    total_n = cfg.block_size * cfg.num_blocks
    rows = []
    for m_index, m_true in enumerate(cfg.m_grid):
        params = NakagamiParams.from_omega(m_true, cfg.omega)
        rng = np.random.default_rng([cfg.base_seed, m_index])
        finals = {kind: [] for kind in cfg.estimators}
        for _ in range(cfg.trials):
            try:
                window = sample(params, total_n, rng)
            except OutOfRangeError:
                continue
            for kind in cfg.estimators:
                state = BlockEstimatorState(kind)
                try:
                    for block in window.reshape(cfg.num_blocks, cfg.block_size):
                        state = ingest_block(state, block)
                    finals[kind].append(finalize(state).m_hat)
                except NakafitError as exc:
                    causes[m_true, kind, type(exc).__name__] += 1
                causes[m_true, kind, "skipped"] += state.skipped
        for kind in cfg.estimators:
            values = finals[kind]
            mean = statistics.fmean(values) if values else math.nan
            variance = statistics.variance(values) if len(values) > 1 else 0.0
            rows.append(BenchRow(m_true, kind, mean, variance, variance / (m_true * m_true),
                                 cfg.trials - len(values), crlb(m_true, cfg.block_size),
                                 crlb(m_true, total_n), crlb_modified(m_true, total_n)))
    return tuple(rows)


STREAM_CONFIGS = {
    "small": SMALL,
    "default_grid": BenchConfig(trials=60, base_seed=4),
    # some variates underflow to 0: sampling failures amid usable trials
    "tiny_m": BenchConfig(m_grid=(0.01, 0.5), block_size=10, num_blocks=3, trials=100,
                          base_seed=2),
    # some variates overflow to inf near the float limit of Omega
    "huge_omega": BenchConfig(m_grid=(0.5, 2.0), omega=1e307, block_size=10, num_blocks=2,
                              trials=50, base_seed=7),
    # two-sample blocks at m = 0.02 often hold a delta above greenwood_durand's 17
    "gd_domain": BenchConfig(m_grid=(1e11, 0.02), block_size=2, num_blocks=3, trials=200,
                             base_seed=1),
    # delta at the DELTA_MIN floor: skipped blocks, and trials with every block skipped
    "degenerate": BenchConfig(m_grid=(1e11, 1e12), block_size=2, num_blocks=3, trials=100,
                              base_seed=3),
    # x^4 overflows in some blocks only: the moment estimator refuses their sums
    "moment_range": BenchConfig(m_grid=(0.5, 4.0), omega=4e153, block_size=4, num_blocks=3,
                                trials=100, base_seed=9),
    # blocks longer than numpy's 8,192-value buffer, three windows to a draw
    "long_blocks": BenchConfig(m_grid=(1.0, 4.0), block_size=10_000, num_blocks=2, trials=5,
                               base_seed=5),
}


def bits(run, cfg):
    """The rows of run(cfg) with every float as its bits, so NaN equals NaN
    and -0.0 is not 0.0."""
    # near the float limit of Omega the estimators' sums overflow, and numpy
    # warns of it; the rows hold what the overflow gives
    with np.errstate(over="ignore"):
        rows = run(cfg)
    return [tuple(v.hex() if isinstance(v, float) else v for v in astuple(row)) for row in rows]


@pytest.mark.parametrize("cfg", STREAM_CONFIGS.values(), ids=STREAM_CONFIGS.keys())
def test_run_bench_equals_one_sample_call_per_trial_on_one_stream_per_shape(cfg):
    assert bits(run_bench, cfg) == bits(run_bench_reference, cfg)


@pytest.mark.parametrize("name", ["tiny_m", "huge_omega"])
def test_stream_configs_hold_sampling_failures(name):
    # a trial whose window is not positive finite floats fails every
    # estimator: at the first shape some trials do, not all
    cfg = STREAM_CONFIGS[name]
    with np.errstate(over="ignore"):
        rows = run_bench(cfg)
    assert 0 < min(row.failures for row in rows if row.m_true == cfg.m_grid[0]) < cfg.trials


def causes_of(cfg):
    causes = collections.Counter()
    with np.errstate(over="ignore"):
        run_bench_reference(cfg, causes)
    return causes


def test_gd_domain_config_holds_greenwood_durand_domain_refusals():
    # at m = 0.02 greenwood_durand refuses some trials and no other estimator
    # refuses any: only its delta <= 17 domain rule is left to refuse them
    cfg = STREAM_CONFIGS["gd_domain"]
    causes = causes_of(cfg)
    gd = EstimatorKind.GREENWOOD_DURAND
    assert 0 < causes[0.02, gd, "OutOfRangeError"] < cfg.trials
    assert all(count == 0 for (m, kind, cause), count in causes.items()
               if m == 0.02 and (kind is not gd or cause != "OutOfRangeError"))


def test_degenerate_config_holds_skipped_blocks_and_trials_with_no_usable_block():
    # every estimator, at both shapes, skips more blocks than its trials
    # with every block skipped hold: some trials keep an estimate past a skip
    cfg = STREAM_CONFIGS["degenerate"]
    causes = causes_of(cfg)
    for m in cfg.m_grid:
        for kind in cfg.estimators:
            failed = causes[m, kind, "NoBlocksError"]
            assert 0 < failed and cfg.num_blocks * failed < causes[m, kind, "skipped"], (m, kind)


def test_moment_range_config_holds_moment_refusals_of_its_sums():
    # at both shapes the moment estimator refuses some trials and no other
    # estimator refuses any: x^4, which only it forms, leaves the float range
    cfg = STREAM_CONFIGS["moment_range"]
    causes = causes_of(cfg)
    moment = EstimatorKind.MOMENT_BASED
    for m in cfg.m_grid:
        assert 0 < causes[m, moment, "OutOfRangeError"] < cfg.trials, m
    assert all(count == 0 for (m, kind, cause), count in causes.items()
               if kind is not moment or cause != "OutOfRangeError")


def test_long_blocks_config_holds_blocks_beyond_numpys_buffer():
    cfg = STREAM_CONFIGS["long_blocks"]
    assert cfg.block_size > np.getbufsize()
    assert montecarlo._DRAW_VALUES // (cfg.block_size * cfg.num_blocks) < cfg.trials


# at the default bound each config but long_blocks draws all its trials at
# once; 7 * 30 values hold 7 of tiny_m's 30-value windows (100 trials: the
# last draw holds 2), 10 of huge_omega's 20-value ones, 35 of gd_domain's and
# degenerate's 6-value ones, 17 of moment_range's 12-value ones and 1 of
# default_grid's 150 or long_blocks' 20,000
@pytest.mark.parametrize("draw_values", [1, 7 * 30], ids=["one_trial", "seven_windows"])
@pytest.mark.parametrize("name", ["default_grid", "tiny_m", "huge_omega", "gd_domain",
                                  "degenerate", "moment_range", "long_blocks"])
def test_run_bench_rows_do_not_depend_on_the_trials_per_draw(monkeypatch, name, draw_values):
    cfg = STREAM_CONFIGS[name]
    want = bits(run_bench, cfg)
    monkeypatch.setattr(montecarlo, "_DRAW_VALUES", draw_values)
    assert bits(run_bench, cfg) == want


def test_run_bench_refuses_a_bound_before_any_sampling(monkeypatch):
    # the bounds at m = 1e300 are not finite floats; with the bounds computed
    # after each shape's trials, m = 1 drew all its windows first
    def draw(*args):
        raise AssertionError("a window was drawn")

    monkeypatch.setattr(montecarlo, "_draw", draw)
    with pytest.raises(OutOfRangeError, match="at m=1e\\+300"):
        run_bench(BenchConfig(m_grid=(1.0, 1e300), trials=5))


def test_emit_csv_rejects_empty():
    with pytest.raises(ValueError):
        emit_csv((), io.StringIO())
