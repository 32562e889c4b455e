"""Streaming block-wise estimation with recursive-mean smoothing.

Blocks arrive one at a time; each yields a fresh estimate that is folded
into a running mean via

    running_i = (i-1)/i * running_{i-1} + (1/i) * estimate_i

which equals the batch arithmetic mean of the per-block estimates. Only
the incoming block is touched; history is never reprocessed. `_fold_table`
runs the same fold over a whole table of per-block estimates at once.
"""

from typing import NamedTuple

import numpy as np

from .errors import DegenerateBlockError, NoBlocksError
from .estimators import Estimate, EstimatorKind, estimate_block

# The status of each block in a per-block table, one of `ingest_block`'s
# outcomes: its estimate is folded, it is skipped as degenerate, or its
# trial fails.
_USED, _SKIPPED, _FAILED = range(3)


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


def _fold_table(m_hat, status):
    """`ingest_block` then `finalize` on every row of a per-block table at
    once: each row's recursive mean of m_hat over its _USED blocks, folded
    along the block axis with the same arithmetic, so the same bits, and
    whether the row has a final estimate. A row has none where a block
    failed, as `ingest_block` raises, or where no block was used, as
    `finalize` raises NoBlocksError."""
    running = np.zeros(len(m_hat))
    seen = np.zeros(len(m_hat))
    for x, s in zip(m_hat.T, status.T):
        used = s == _USED
        seen += used
        i = seen[used]
        running[used] = (i - 1.0) / i * running[used] + x[used] / i
    return running, (seen > 0.0) & (status != _FAILED).all(axis=1)
