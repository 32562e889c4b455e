"""Per-layer metrics of the traced run, keyed by the package modules.

Each self-time metric sums the self time of the functions it lists (a
trailing '.' takes every public function of that module); each call-count
metric counts their calls. Counters come from the tracer hooks below, which
read only public arguments and return values, or from the workload's
outputs. All values are per command: totals divided by the traced commands.
"""

SELF_TIME = {
    "specfun.self_s": ("specfun.",),
    "nakagami.sample.self_s": ("nakagami.sample",),
    "nakagami.as_block.self_s": ("nakagami.as_block",),
    "estimators.compute_stats.self_s": ("estimators.compute_stats",),
    "estimators.estimate_ml.self_s": ("estimators.estimate_ml",),
    "estimators.closed_form.self_s": (
        "estimators.estimate_cheng_beaulieu_1",
        "estimators.estimate_cheng_beaulieu_2",
        "estimators.estimate_greenwood_durand",
    ),
    "estimators.estimate_moment_based.self_s": ("estimators.estimate_moment_based",),
    "blockwise.ingest_block.self_s": ("blockwise.ingest_block",),
    "blockwise.finalize.self_s": ("blockwise.finalize",),
    "bounds.self_s": ("bounds.",),
    "montecarlo.run_bench.self_s": ("montecarlo.run_bench",),
    "montecarlo.emit_csv.self_s": ("montecarlo.emit_csv",),
    "hmrf.segment.self_s": ("hmrf.segment",),
    "hmrf.kmeans_init.self_s": ("hmrf.kmeans_init",),
    "hmrf.update_params.self_s": ("hmrf.update_params",),
    "hmrf.icm_sweep.self_s": ("hmrf.icm_sweep",),
    "pgm.read_image.self_s": ("pgm.read_image", "pgm.read_pgm", "pgm.read_matrix"),
    "pgm.write_pgm.self_s": ("pgm.write_pgm",),
    "pgm.write_matrix.self_s": ("pgm.write_matrix",),
    # main plus the cli functions it calls: argument parsing, block-file
    # reads and printing
    "cli.main.self_s": ("cli.",),
}

CALLS = {
    "specfun.calls": ("specfun.",),
    "nakagami.sample.calls": ("nakagami.sample",),
    "nakagami.as_block.calls": ("nakagami.as_block",),
    "estimators.compute_stats.calls": ("estimators.compute_stats",),
    "estimators.estimate_ml.calls": ("estimators.estimate_ml",),
    "blockwise.ingest_block.calls": ("blockwise.ingest_block",),
    "bounds.calls": ("bounds.",),
    "hmrf.update_params.calls": ("hmrf.update_params",),
    "hmrf.icm_sweep.calls": ("hmrf.icm_sweep",),
}

ESTIMATOR_ERRORS = ("DegenerateBlockError", "NoConvergenceError", "OutOfRangeError")

# Counters read from the hooks' totals, with the function that feeds each.
HOOK_COUNTS = {
    "nakagami.samples_drawn": "nakagami.sample",
    "estimators.ml_iterations": "estimators.estimate_ml",
    "blockwise.blocks_skipped": "blockwise.ingest_block",
}

DISTINCT_BLOCKS = "estimators.distinct_blocks"

# Counters the workloads derive from the command's inputs and outputs.
OUTPUT_COUNTS = {
    "hmrf.icm_sweeps": "count",
    "hmrf.outer_rounds": "count",
    "hmrf.pixel_updates": "count",
    "hmrf.accuracy": "fraction",
    "pgm.bytes_written": "bytes",
    "cli.files_read": "count",
    "cli.bytes_read": "bytes",
    "montecarlo.estimator_failure_rate": "fraction",
}


def _count_samples(counters, args, kwargs, result):
    counters["nakagami.samples_drawn"] += len(result)


def _count_iterations(counters, args, kwargs, result):
    counters["estimators.ml_iterations"] += result.iterations


def _note_block(counters, args, kwargs, result):
    # Distinct blocks are told apart by their returned statistics.
    counters.setdefault(DISTINCT_BLOCKS, set()).add((result.n, result.mean_x2, result.mean_log_x2))


def _count_skips(counters, args, kwargs, result):
    before = args[0] if args else kwargs["state"]
    counters["blockwise.blocks_skipped"] += result.skipped - before.skipped


HOOKS = {
    "nakagami.sample": _count_samples,
    "estimators.estimate_ml": _count_iterations,
    "estimators.compute_stats": _note_block,
    "blockwise.ingest_block": _count_skips,
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {"trace.overhead": "ratio"}
    units.update({name: "s" for name in SELF_TIME})
    units.update({name: "count" for name in CALLS})
    units.update({name: "count" for name in HOOK_COUNTS})
    units["estimators.compute_stats_per_block"] = "ratio"
    units.update({f"estimators.errors.{cls}": "count" for cls in ESTIMATOR_ERRORS})
    units["estimators.errors.other"] = "count"
    units.update(OUTPUT_COUNTS)
    return units


def _matches(key, patterns):
    return any(key == p or (p.endswith(".") and key.startswith(p)) for p in patterns)


def _total(by_key, patterns):
    return sum(v for k, v in by_key.items() if _matches(k, patterns))


def summarize(collected, output_counts, traced_times, plain_times):
    """Per-layer metrics from the tracer totals of the traced commands.

    `collected` is a list of `Tracer.collect` results, one per traced
    command; `output_counts` holds the workload's output-derived counters,
    averaged over those commands. Returns (metrics {name: value}, names
    absent on this workload).
    """
    commands = len(collected)
    self_s, calls, counters, errors = {}, {}, {}, {}
    blocks = 0
    for own, n, counts, errs in collected:
        for k, v in own.items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in n.items():
            calls[k] = calls.get(k, 0) + v
        for k, v in counts.items():
            if k == DISTINCT_BLOCKS:
                blocks += len(v)
            else:
                counters[k] = counters.get(k, 0) + v
        for k, v in errs.items():
            errors[k] = errors.get(k, 0) + v

    values, absent = {}, []
    values["trace.overhead"] = min(traced_times) / min(plain_times)
    for name, patterns in SELF_TIME.items():
        if _total(calls, patterns) == 0:
            absent.append(name)
        values[name] = _total(self_s, patterns) / commands
    for name, patterns in CALLS.items():
        n = _total(calls, patterns)
        if n == 0:
            absent.append(name)
        values[name] = n / commands
    for name, key in HOOK_COUNTS.items():
        if key not in calls:
            absent.append(name)
        values[name] = counters.get(name, 0) / commands
    stats_calls = _total(calls, ("estimators.compute_stats",))
    if blocks:
        values["estimators.compute_stats_per_block"] = stats_calls / blocks
    else:
        absent.append("estimators.compute_stats_per_block")
        values["estimators.compute_stats_per_block"] = 0.0
    other = 0
    for (module, cls), n in errors.items():
        if module != "estimators":
            continue
        if cls in ESTIMATOR_ERRORS:
            values[f"estimators.errors.{cls}"] = n / commands
        else:
            other += n
    for cls in ESTIMATOR_ERRORS:
        values.setdefault(f"estimators.errors.{cls}", 0.0)
    values["estimators.errors.other"] = other / commands
    for name in OUTPUT_COUNTS:
        if name in output_counts:
            values[name] = output_counts[name]
        else:
            absent.append(name)
            values[name] = 0
    return values, absent
