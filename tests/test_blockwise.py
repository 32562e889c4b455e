import statistics
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nakafit import (
    BlockEstimatorState,
    DegenerateBlockError,
    Estimate,
    EstimatorKind,
    NakafitError,
    NakagamiParams,
    NoBlocksError,
    OutOfRangeError,
    SufficientStats,
    compute_stats,
    estimate_block,
    estimate_ml,
    estimate_moment_based,
    finalize,
    ingest_block,
    sample,
)
from nakafit import blockwise
from nakafit.estimators import _FAILED, _SKIPPED, _USED


def run_blocks(blocks, method=EstimatorKind.EXACT_ML):
    state = BlockEstimatorState(method=method)
    for b in blocks:
        state = ingest_block(state, b)
    return state


def test_running_mean_matches_examples():
    # fold estimate 4 into a state holding running mean 2 after one block
    state = BlockEstimatorState(method=EstimatorKind.EXACT_ML, blocks_seen=1, running_m=2.0)
    i = state.blocks_seen + 1
    folded = (i - 1) / i * state.running_m + 4.0 / i
    assert folded == 3.0


def test_first_block_sets_running_mean():
    p = NakagamiParams(m=1.7, sigma=1.0)
    block = sample(p, 200, seed=11)
    state = run_blocks([block])
    assert state.blocks_seen == 1
    direct = estimate_block(EstimatorKind.EXACT_ML, block)
    assert finalize(state).m_hat == pytest.approx(direct.m_hat, rel=1e-14)


def test_recursion_equals_batch_mean():
    p = NakagamiParams(m=2.0, sigma=0.5)
    blocks = [sample(p, 50, seed=s) for s in range(12)]
    per_block = [estimate_block(EstimatorKind.EXACT_ML, b).m_hat for b in blocks]
    state = run_blocks(blocks)
    batch = statistics.fmean(per_block)
    assert finalize(state).m_hat == pytest.approx(batch, rel=1e-12)
    assert state.blocks_seen == 12


def test_degenerate_block_skipped_not_folded():
    p = NakagamiParams(m=1.0, sigma=1.0)
    good = sample(p, 100, seed=4)
    state = run_blocks([good, np.full(30, 2.5), good])
    assert state.blocks_seen == 2
    assert state.skipped == 1
    # skipping leaves the fold untouched: same result as without the bad block
    clean = run_blocks([good, good])
    assert finalize(state).m_hat == pytest.approx(finalize(clean).m_hat, rel=1e-14)


@pytest.mark.parametrize("degenerate", [False, True])
def test_ingest_block_matches_dataclass_replace(degenerate):
    # the state update written out with the record's own _replace, field by field
    state = BlockEstimatorState(
        method=EstimatorKind.EXACT_ML, blocks_seen=3, running_m=1.5, running_sigma=0.7, skipped=1
    )
    block = np.full(30, 2.5) if degenerate else sample(NakagamiParams(m=2.0, sigma=0.5), 30, seed=9)
    if degenerate:
        expected = state._replace(skipped=2)
    else:
        est = estimate_block(state.method, block)
        expected = state._replace(
            blocks_seen=4,
            running_m=3 / 4 * 1.5 + est.m_hat / 4,
            running_sigma=3 / 4 * 0.7 + est.sigma_hat / 4,
        )
    got = ingest_block(state, block)
    assert type(got) is BlockEstimatorState
    assert got == expected


RECORDS = [
    SufficientStats(n=30, mean_x2=1.0, mean_log_x2=-0.5, delta=0.5),
    Estimate(m_hat=1.0, sigma_hat=2.0, iterations=3),
    BlockEstimatorState(method=EstimatorKind.EXACT_ML, blocks_seen=2, running_m=1.5),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_refuse_attribute_assignment(record):
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def test_records_build_from_keywords_with_their_defaults():
    assert Estimate(m_hat=1.0, sigma_hat=2.0).iterations == 0
    state = BlockEstimatorState(method=EstimatorKind.MOMENT_BASED)
    assert (state.blocks_seen, state.running_m, state.running_sigma, state.skipped) == (0, 0.0, 0.0, 0)
    # each record equals the tuple of its fields, in declaration order
    assert SufficientStats(n=30, mean_x2=1.0, mean_log_x2=-0.5, delta=0.5) == (30, 1.0, -0.5, 0.5)
    assert Estimate(m_hat=1.0, sigma_hat=2.0) == (1.0, 2.0, 0)
    assert state == (EstimatorKind.MOMENT_BASED, 0, 0.0, 0.0, 0)


def test_records_expose_what_the_benchmark_hooks_read():
    # benchmarks/layers.py reads n, mean_x2 and mean_log_x2 from compute_stats,
    # iterations from estimate_ml and skipped from ingest_block
    block = sample(NakagamiParams(m=2.0, sigma=0.5), 30, seed=9)
    stats = compute_stats(block)
    assert stats.n == 30
    assert stats.mean_x2 == pytest.approx(float(np.mean(block * block)), rel=1e-12)
    assert stats.mean_log_x2 == pytest.approx(float(np.mean(np.log(block * block))), rel=1e-12)
    assert estimate_ml(stats).iterations >= 1
    state = ingest_block(BlockEstimatorState(method=EstimatorKind.EXACT_ML), np.full(30, 2.5))
    assert state.skipped == 1


def test_finalize_without_blocks_raises():
    with pytest.raises(NoBlocksError):
        finalize(BlockEstimatorState(method=EstimatorKind.EXACT_ML))


def test_finalize_reports_method_and_sigma():
    p = NakagamiParams(m=2.0, sigma=3.0)
    block = sample(p, 400, seed=9)
    state = run_blocks([block], method=EstimatorKind.MOMENT_BASED)
    est = finalize(state)
    # one block: the running mean is the moment estimator's own estimate
    assert est.m_hat == estimate_moment_based(block).m_hat
    assert est.sigma_hat == pytest.approx(3.0, rel=0.4)


def test_five_blocks_land_near_truth():
    p = NakagamiParams(m=1.0, sigma=1.0)
    blocks = [sample(p, 30, seed=[21, i]) for i in range(5)]
    est = finalize(run_blocks(blocks))
    assert abs(est.m_hat - 1.0) < 0.25


def test_variance_shrinks_with_more_blocks():
    # light version of the learning-curve property (the acceptance suite
    # runs the full 2000-trial comparison)
    p = NakagamiParams(m=2.0, sigma=0.5)
    var = []
    for n_blocks in (1, 5):
        finals = []
        for trial in range(300):
            blocks = sample(p, 30 * n_blocks, seed=[55, n_blocks, trial]).reshape(n_blocks, 30)
            finals.append(finalize(run_blocks(list(blocks))).m_hat)
        var.append(statistics.variance(finals))
    assert var[1] < var[0]


def _estimate_cell(kind, cell):
    """`estimate_block` on a stand-in block, a table cell (m_hat, status)."""
    m_hat, status = cell
    if status == _SKIPPED:
        raise DegenerateBlockError("skipped")
    if status == _FAILED:
        raise OutOfRangeError("failed")
    return Estimate(m_hat, 1.0)


def _tables(num_blocks):
    cell = st.tuples(st.floats(min_value=5e-324, max_value=1e308),
                     st.sampled_from([_USED, _USED, _SKIPPED, _FAILED]))
    return st.lists(st.lists(cell, min_size=num_blocks, max_size=num_blocks), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(_tables))
# a row of skips only, and a failure after a skip beside a row that keeps its estimate
@example([[(2.0, _SKIPPED), (3.0, _SKIPPED)]])
@example([[(2.0, _SKIPPED), (3.0, _FAILED), (5.0, _USED)], [(0.1, _USED), (7.0, _SKIPPED), (0.3, _USED)]])
def test_fold_table_equals_ingest_block_and_finalize_bit_for_bit(table):
    m_hat = np.array([[x for x, _ in row] for row in table])
    status = np.array([[code for _, code in row] for row in table])
    means, ok = blockwise._fold_table(m_hat, status)
    got = [mean.hex() if has else None for mean, has in zip(means.tolist(), ok.tolist())]
    want = []
    with mock.patch.object(blockwise, "estimate_block", _estimate_cell):
        for row in table:
            state = BlockEstimatorState(EstimatorKind.EXACT_ML)
            try:
                for cell in row:
                    state = ingest_block(state, cell)
                want.append(finalize(state).m_hat.hex())
            except NakafitError:  # a failed block, or NoBlocksError
                want.append(None)
    assert got == want
