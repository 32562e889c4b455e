"""Nakagami-m estimation toolkit.

Shape/spread estimation (exact numerical ML plus four classical
competitors), block-recursive smoothing, Cramer-Rao-type variance bounds,
a seeded Monte Carlo comparison harness, and hidden-MRF image segmentation
with Gaussian or Nakagami class likelihoods.

Each public name is imported from its submodule on first access (PEP 562),
so `import nakafit.cli` loads only the modules that the command it runs
needs.
"""

import importlib

# each public name, in the order of __all__, and the submodule that defines it
_HOMES = {
    **dict.fromkeys(("BlockEstimatorState", "finalize", "ingest_block"), "blockwise"),
    **dict.fromkeys(("crlb", "crlb_modified", "normalized"), "bounds"),
    **dict.fromkeys(("DegenerateBlockError", "NakafitError", "NoBlocksError",
                     "NoConvergenceError", "OutOfRangeError"), "errors"),
    **dict.fromkeys(("Estimate", "EstimatorKind", "SufficientStats", "compute_stats",
                     "estimate_block", "estimate_cheng_beaulieu_1", "estimate_cheng_beaulieu_2",
                     "estimate_greenwood_durand", "estimate_ml", "estimate_moment_based"),
                    "estimators"),
    **dict.fromkeys(("GaussianParams", "Likelihood", "SegmentResult", "segment"), "hmrf"),
    **dict.fromkeys(("ALL_ESTIMATORS", "BenchConfig", "BenchRow", "emit_csv", "run_bench"),
                    "montecarlo"),
    **dict.fromkeys(("NakagamiParams", "as_block", "log_pdf", "sample"), "nakagami"),
    **dict.fromkeys(("digamma", "log_gamma", "trigamma"), "specfun"),
}

__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name):
    """A public name, read from its submodule at each access and not kept
    here, so it is always the submodule's current binding; or a submodule
    that defines public names, imported on first access."""
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    if name in _HOMES.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOMES})
