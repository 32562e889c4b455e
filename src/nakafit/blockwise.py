"""Streaming block-wise estimation with recursive-mean smoothing.

Blocks arrive one at a time; each yields a fresh estimate that is folded
into a running mean via

    running_i = (i-1)/i * running_{i-1} + (1/i) * estimate_i

which equals the batch arithmetic mean of the per-block estimates. Only
the incoming block is touched; history is never reprocessed.
"""

from typing import NamedTuple

from .errors import DegenerateBlockError, NoBlocksError
from .estimators import Estimate, EstimatorKind, estimate_block


class BlockEstimatorState(NamedTuple):
    """Running recursive-mean state across blocks for one estimator."""

    method: EstimatorKind
    blocks_seen: int = 0
    running_m: float = 0.0
    running_sigma: float = 0.0
    skipped: int = 0


def ingest_block(state, block):
    """Fold one block's estimate into the running means; returns a new state.

    A degenerate block (delta at the floor) is skipped and only counted;
    every other estimator failure propagates to the caller.
    """
    method, blocks_seen, running_m, running_sigma, skipped = state
    try:
        est = estimate_block(method, block)
    except DegenerateBlockError:
        return BlockEstimatorState(method, blocks_seen, running_m, running_sigma, skipped + 1)
    i = blocks_seen + 1
    w = (i - 1) / i
    return BlockEstimatorState(
        method, i, w * running_m + est.m_hat / i, w * running_sigma + est.sigma_hat / i, skipped
    )


def finalize(state):
    """Read out the smoothed estimate after the final block: the running
    means of m_hat and sigma_hat over the blocks ingested."""
    if state.blocks_seen == 0:
        raise NoBlocksError("no usable blocks were ingested")
    return Estimate(state.running_m, state.running_sigma)
