"""Nakagami-m estimation toolkit.

Shape/spread estimation (exact numerical ML plus four classical
competitors), block-recursive smoothing, Cramer-Rao-type variance bounds,
a seeded Monte Carlo comparison harness, and hidden-MRF image segmentation
with Gaussian or Nakagami class likelihoods.
"""

from .blockwise import BlockEstimatorState, finalize, ingest_block
from .bounds import crlb, crlb_modified, normalized
from .errors import (
    DegenerateBlockError,
    NakafitError,
    NoBlocksError,
    NoConvergenceError,
    OutOfRangeError,
)
from .estimators import (
    Estimate,
    EstimatorKind,
    SufficientStats,
    compute_stats,
    estimate_block,
    estimate_cheng_beaulieu_1,
    estimate_cheng_beaulieu_2,
    estimate_greenwood_durand,
    estimate_ml,
    estimate_moment_based,
)
from .hmrf import GaussianParams, Likelihood, SegmentResult, segment
from .montecarlo import ALL_ESTIMATORS, BenchConfig, BenchRow, emit_csv, run_bench
from .nakagami import NakagamiParams, as_block, log_pdf, sample
from .specfun import digamma, log_gamma, trigamma

__version__ = "0.1.0"
