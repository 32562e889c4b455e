import statistics

import numpy as np
import pytest

from nakafit import (
    BlockEstimatorState,
    EstimatorKind,
    NakagamiParams,
    NoBlocksError,
    estimate_block,
    finalize,
    ingest_block,
    sample,
)


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


def test_finalize_without_blocks_raises():
    with pytest.raises(NoBlocksError):
        finalize(BlockEstimatorState(method=EstimatorKind.EXACT_ML))


def test_finalize_reports_method_and_sigma():
    p = NakagamiParams(m=2.0, sigma=3.0)
    state = run_blocks([sample(p, 400, seed=9)], method=EstimatorKind.MOMENT_BASED)
    est = finalize(state)
    assert est.method is EstimatorKind.MOMENT_BASED
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
