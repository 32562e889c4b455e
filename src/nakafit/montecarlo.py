"""Seeded Monte Carlo comparison of the shape estimators.

For every true shape on the grid, each trial draws the same block window
(num_blocks blocks of block_size samples) once and runs every estimator
through the recursive-mean smoother on that identical data, so variance
differences across estimators reflect the estimators alone. Each shape
draws its trials' windows in order from one stream, seeded from
(base_seed, m-index): trial k's window is the k-th block of num_blocks *
block_size variates of that stream, however many trials one draw holds,
so the results are bit-reproducible and the first k trials of a longer
study are the k trials of a shorter one.

Each draw gives every estimator a (rows, num_blocks) table of per-block
m_hat and status (used, skipped as degenerate, or failed). A delta
estimator fills its table with one `compute_stats` call per block, a row's
calls stopping at its first failure; the moment estimator's table is one
array pass over the draw. `blockwise._fold_table` folds every row of a
table at once, with the bits of `ingest_block` and `finalize`.
"""

import math
import statistics
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import bounds
from ._format import _write_table
from .blockwise import _FAILED, _SKIPPED, _USED, _fold_table
from .errors import DegenerateBlockError, NakafitError, _integer, _positive
from .estimators import _DELTA_ESTIMATORS, EstimatorKind, _moment_pass, compute_stats
from .nakagami import NakagamiParams, _draw

ALL_ESTIMATORS = tuple(EstimatorKind)

# the most variates one draw holds, so a study's memory does not grow with its trials
_DRAW_VALUES = 2**16


def _items(values, name):
    """values as a non-empty tuple; a ValueError naming it otherwise."""
    try:
        items = tuple(values)
    except TypeError:  # not iterable
        items = ()
    if not items:
        raise ValueError(f"{name} must be a non-empty sequence, got {values!r}")
    return items


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
        m_grid = _items(self.m_grid, "m_grid")
        object.__setattr__(self, "m_grid", tuple(_positive(m, "m_grid value") for m in m_grid))
        object.__setattr__(self, "omega", _positive(self.omega, "omega"))
        for name, low in (("block_size", 2), ("num_blocks", 1), ("trials", 1)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))
        # a seed is no count: numpy's SeedSequence takes any int >= 0
        object.__setattr__(self, "base_seed", _integer(self.base_seed, "base_seed", 0, math.inf))
        # a trial draws its whole window as one array
        _integer(self.block_size * self.num_blocks, "block_size * num_blocks", 2)
        estimators = _items(self.estimators, "estimators")
        if any(not isinstance(kind, EstimatorKind) for kind in estimators):
            raise ValueError("estimators must be EstimatorKind members")
        object.__setattr__(self, "estimators", estimators)
        # a row is keyed by (m_true, estimator): a repeat would merge two rows' trials
        if len(set(self.m_grid)) != len(self.m_grid):
            raise ValueError("m_grid values must be distinct")
        if len(set(self.estimators)) != len(self.estimators):
            raise ValueError("estimators must be distinct")


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


# the CSV columns are BenchRow's fields, in order
CSV_HEADER = ",".join(field.name for field in fields(BenchRow))


def run_bench(cfg):
    """Execute the study described by cfg; returns its tuple of BenchRows,
    one per true shape and estimator, in grid then estimator order.
    Deterministic given cfg, and the same for any number of trials per
    draw. Every shape's bounds are computed before the first trial, so a
    bound that is refused costs no sampling."""
    total_n = cfg.block_size * cfg.num_blocks
    bound_columns = [
        (bounds.crlb(m, cfg.block_size), bounds.crlb(m, total_n), bounds.crlb_modified(m, total_n))
        for m in cfg.m_grid
    ]
    per_draw = max(1, _DRAW_VALUES // total_n)
    rows = []
    for m_index, (m_true, bound_values) in enumerate(zip(cfg.m_grid, bound_columns)):
        params = NakagamiParams.from_omega(m_true, cfg.omega)
        rng = np.random.default_rng([cfg.base_seed, m_index])
        finals = {kind: [] for kind in cfg.estimators}
        for start in range(0, cfg.trials, per_draw):
            size = (min(per_draw, cfg.trials - start), cfg.num_blocks, cfg.block_size)
            windows = _draw(params, size, rng)
            # a window with a value that is not a positive finite float has no
            # data: every estimator fails that trial
            usable = (0.0 < windows.min(axis=(1, 2))) & (windows.max(axis=(1, 2)) < math.inf)
            # every overflow in the estimators ends in their refusal, a failure here
            with np.errstate(over="ignore"):
                tables = _block_tables(cfg.estimators, windows[usable])
            for kind, table in tables.items():
                means, ok = _fold_table(*table)
                finals[kind].extend(means[ok].tolist())
        for kind in cfg.estimators:
            values = finals[kind]
            mean = statistics.fmean(values) if values else math.nan
            variance = statistics.variance(values) if len(values) > 1 else 0.0
            # the bound columns crlb_block, crlb_total and crlb_modified_total close the row
            rows.append(BenchRow(m_true, kind, mean, variance, variance / (m_true * m_true),
                                 cfg.trials - len(values), *bound_values))
    return tuple(rows)


def _block_tables(kinds, windows):
    """{kind: (m_hat, status)}: each estimator's per-block table over the
    (rows, num_blocks, block_size) windows, in `kinds` order. A delta
    estimator's table takes one `compute_stats` call per block, row by row
    and each row's estimators in turn, and a row's calls stop at its first
    failure; the moment estimator's is one `_moment_pass`."""
    shape = windows.shape[:2]
    tables = {kind: (np.zeros(shape), np.full(shape, _USED)) for kind in kinds}
    delta = [(tables[kind], _DELTA_ESTIMATORS[kind]) for kind in kinds if kind in _DELTA_ESTIMATORS]
    for row, window in enumerate(windows):
        # the row views, made once for every estimator
        blocks = tuple(window)
        for (m_hat, status), estimator in delta:
            for b, block in enumerate(blocks):
                try:
                    m_hat[row, b] = estimator(compute_stats(block)).m_hat
                except DegenerateBlockError:
                    status[row, b] = _SKIPPED
                except NakafitError:
                    status[row, b] = _FAILED
                    break
    if EstimatorKind.MOMENT_BASED in tables:
        _, _, m_hat, in_range, informative, sigma_ok = _moment_pass(windows)
        status = np.where(informative, np.where(sigma_ok, _USED, _FAILED), _SKIPPED)
        tables[EstimatorKind.MOMENT_BASED] = m_hat, np.where(in_range, status, _FAILED)
    return tables


def emit_csv(rows, sink):
    """Write the BenchRows `rows` as CSV, sorted by (m_true, estimator name)."""
    if not rows:
        raise ValueError("result has no rows")
    ordered = sorted(rows, key=lambda r: (r.m_true, r.estimator.value))
    _write_table(sink, CSV_HEADER, map(astuple, ordered))
