"""Seeded Monte Carlo comparison of the shape estimators.

For every true shape on the grid, each trial draws the same block window
(num_blocks blocks of block_size samples) once and runs every estimator
through the recursive-mean smoother on that identical data, so variance
differences across estimators reflect the estimators alone. Trial streams
are seeded from (base_seed, m-index, trial); results are bit-reproducible.
"""

import math
import statistics
from dataclasses import dataclass

import numpy as np

from . import bounds
from .blockwise import BlockEstimatorState, finalize, ingest_block
from .errors import NakafitError
from .estimators import EstimatorKind
from .nakagami import NakagamiParams, sample

ALL_ESTIMATORS = (
    EstimatorKind.EXACT_ML,
    EstimatorKind.CHENG_BEAULIEU_1,
    EstimatorKind.CHENG_BEAULIEU_2,
    EstimatorKind.GREENWOOD_DURAND,
    EstimatorKind.MOMENT_BASED,
)

CSV_HEADER = (
    "m_true,estimator,mean_m_hat,variance,normalized_variance,failures,"
    "crlb_block,crlb_total,crlb_modified_total"
)


@dataclass(frozen=True)
class BenchConfig:
    """Settings for one comparison study.

    Variance columns are statistically meaningful from a few hundred trials
    up; tiny trial counts are allowed for smoke runs (trials=1 reports
    variance 0).
    """

    m_grid: tuple = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    omega: float = 1.0
    block_size: int = 30
    num_blocks: int = 5
    trials: int = 2000
    estimators: tuple = ALL_ESTIMATORS
    base_seed: int = 0

    def __post_init__(self):
        if len(self.m_grid) == 0:
            raise ValueError("m_grid must be non-empty")
        if any(not (math.isfinite(m) and m > 0) for m in self.m_grid):
            raise ValueError("m_grid values must be positive finite reals")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError("omega must be a positive finite real")
        if self.block_size < 2:
            raise ValueError("block_size must be >= 2")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if len(self.estimators) == 0:
            raise ValueError("estimators must be non-empty")
        object.__setattr__(self, "m_grid", tuple(float(m) for m in self.m_grid))
        object.__setattr__(self, "estimators", tuple(self.estimators))


@dataclass(frozen=True)
class BenchRow:
    m_true: float
    estimator: EstimatorKind
    mean_m_hat: float
    variance: float
    normalized_variance: float
    failures: int
    crlb_block: float
    crlb_total: float
    crlb_modified_total: float


@dataclass(frozen=True)
class BenchResult:
    config: BenchConfig
    rows: tuple


def run_bench(cfg):
    """Execute the study described by cfg; deterministic given cfg."""
    rows = []
    total_n = cfg.block_size * cfg.num_blocks
    for m_index, m_true in enumerate(cfg.m_grid):
        params = NakagamiParams.from_omega(m_true, cfg.omega)
        finals = {kind: [] for kind in cfg.estimators}
        failures = {kind: 0 for kind in cfg.estimators}
        for trial in range(cfg.trials):
            rng = np.random.default_rng([cfg.base_seed, m_index, trial])
            data = sample(params, total_n, rng).reshape(cfg.num_blocks, cfg.block_size)
            for kind in cfg.estimators:
                state = BlockEstimatorState(method=kind)
                try:
                    for block in data:
                        state = ingest_block(state, block)
                    finals[kind].append(finalize(state).m_hat)
                except NakafitError:
                    failures[kind] += 1
        crlb_block = bounds.crlb(m_true, cfg.block_size)
        crlb_total = bounds.crlb(m_true, total_n)
        crlb_mod_total = bounds.crlb_modified(m_true, total_n)
        for kind in cfg.estimators:
            values = finals[kind]
            mean = statistics.fmean(values) if values else math.nan
            variance = statistics.variance(values) if len(values) > 1 else 0.0
            rows.append(
                BenchRow(
                    m_true=m_true,
                    estimator=kind,
                    mean_m_hat=mean,
                    variance=variance,
                    normalized_variance=variance / (m_true * m_true),
                    failures=failures[kind],
                    crlb_block=crlb_block,
                    crlb_total=crlb_total,
                    crlb_modified_total=crlb_mod_total,
                )
            )
    return BenchResult(config=cfg, rows=tuple(rows))


def _fmt(v):
    return format(v, ".12g")


def emit_csv(result, sink):
    """Write the result table as CSV, sorted by (m_true, estimator name)."""
    if not result.rows:
        raise ValueError("result has no rows")
    sink.write(CSV_HEADER + "\n")
    for row in sorted(result.rows, key=lambda r: (r.m_true, r.estimator.value)):
        sink.write(
            ",".join(
                (
                    _fmt(row.m_true),
                    row.estimator.value,
                    _fmt(row.mean_m_hat),
                    _fmt(row.variance),
                    _fmt(row.normalized_variance),
                    str(row.failures),
                    _fmt(row.crlb_block),
                    _fmt(row.crlb_total),
                    _fmt(row.crlb_modified_total),
                )
            )
            + "\n"
        )
