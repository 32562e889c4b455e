"""Streaming block-wise estimation with recursive-mean smoothing.

Blocks arrive one at a time; each yields a fresh estimate that is folded
into a running mean via

    running_i = (i-1)/i * running_{i-1} + (1/i) * estimate_i

which equals the batch arithmetic mean of the per-block estimates. Only
the incoming block is touched; history is never reprocessed.
"""

from dataclasses import dataclass

from .errors import DegenerateBlockError, NoBlocksError
from .estimators import Estimate, EstimatorKind, estimate_block


@dataclass(frozen=True)
class BlockEstimatorState:
    """Running recursive-mean state across blocks for one estimator."""

    method: EstimatorKind
    blocks_seen: int = 0
    running_m: float = 0.0
    running_sigma: float = 0.0
    skipped: int = 0


def ingest_block(state, block):
    """Fold one block's estimate into the running means; returns a new state.

    A degenerate block (delta at the floor) is skipped and only counted;
    every other estimator failure propagates to the caller. The new state
    is built field by field with the constructor, which does the same as
    `dataclasses.replace` on this flat dataclass at a fraction of the cost.
    """
    try:
        est = estimate_block(state.method, block)
    except DegenerateBlockError:
        return BlockEstimatorState(
            method=state.method,
            blocks_seen=state.blocks_seen,
            running_m=state.running_m,
            running_sigma=state.running_sigma,
            skipped=state.skipped + 1,
        )
    i = state.blocks_seen + 1
    w = (i - 1) / i
    return BlockEstimatorState(
        method=state.method,
        blocks_seen=i,
        running_m=w * state.running_m + est.m_hat / i,
        running_sigma=w * state.running_sigma + est.sigma_hat / i,
        skipped=state.skipped,
    )


def finalize(state):
    """Read out the smoothed estimate after the final block: the running
    means of m_hat and sigma_hat over the blocks ingested."""
    if state.blocks_seen == 0:
        raise NoBlocksError("no usable blocks were ingested")
    return Estimate(m_hat=state.running_m, sigma_hat=state.running_sigma)
