"""Streaming block-wise estimation with recursive-mean smoothing.

Blocks arrive one at a time; each yields a fresh estimate that is folded
into a running mean via

    running_i = (i-1)/i * running_{i-1} + (1/i) * estimate_i

which equals the batch arithmetic mean of the per-block estimates. Only
the incoming block is touched; history is never reprocessed.
"""

from dataclasses import dataclass, replace

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
    """Fold one block's estimate into the running means.

    A degenerate block (delta at the floor) is skipped and only counted;
    every other estimator failure propagates to the caller.
    """
    try:
        est = estimate_block(state.method, block)
    except DegenerateBlockError:
        return replace(state, skipped=state.skipped + 1)
    i = state.blocks_seen + 1
    w = (i - 1) / i
    return replace(
        state,
        blocks_seen=i,
        running_m=w * state.running_m + est.m_hat / i,
        running_sigma=w * state.running_sigma + est.sigma_hat / i,
    )


def finalize(state):
    """Read out the smoothed estimate after the final block."""
    if state.blocks_seen == 0:
        raise NoBlocksError("no usable blocks were ingested")
    return Estimate(
        m_hat=state.running_m,
        sigma_hat=state.running_sigma,
        method=state.method,
    )
