"""One workload process of the benchmark; started by run.py, not by hand.

Modes:
  setup  time `import nakafit` plus one minimal call of the workload's
         command, in a fresh interpreter that has not loaded numpy
  run    generate the inputs, run the first command once untimed, then
         time the commands in turn for --seconds with tracing off, timing a
         fixed reference loop about every half second between them
  trace  the same commands, alternating untraced and traced runs; reports
         the per-layer metrics and checks that tracing changes no output

Every command goes through `nakafit.cli.main` in this process. The last
stdout line is a JSON object for run.py.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time

from workloads import WORKLOADS


def _import_cli(src):
    import nakafit.cli

    if not os.path.abspath(nakafit.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"nakafit was imported from {nakafit.cli.__file__}, not from {src}")
    return nakafit.cli


def invoke(cli, argv, output_paths):
    """Run one command; returns (ok, stdout, output file bytes, elapsed seconds)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raised error is a failed operation, not a harness crash
            err.write(f"{type(exc).__name__}: {exc}\n")
        elapsed = time.perf_counter() - t0
    ok = code == 0
    if not ok:
        print(f"command failed (exit {code!r}): {err.getvalue().strip()}", file=sys.stderr)
    files = []
    for path in output_paths:
        try:
            with open(path, "rb") as fh:
                files.append(fh.read())
        except FileNotFoundError:
            files.append(None)
    return ok, out.getvalue(), files, elapsed


_REF_VALUES = [((i * 7919) % 1000) / 1000.0 for i in range(4096)]
_REF_EVERY_S = 0.5


def reference_loop():
    """Time a fixed pure-Python loop (about 12 ms on an idle host) sharing no code with nakafit.

    The machine is shared, and its speed drifts by tens of percent within
    seconds. Dividing each command's time by this loop's time measured just
    before and after it cancels most of that drift.
    """
    t0 = time.perf_counter()
    acc = 0.0
    last = 0
    for _ in range(64):
        for i, v in enumerate(_REF_VALUES):
            if v < 0.5:
                acc += v * v
            else:
                last = i
    return time.perf_counter() - t0


def setup(args):
    argv = WORKLOADS[args.workload].warmup_argv(args.workdir, args.seed)
    ref = reference_loop()
    t0 = time.perf_counter()
    cli = _import_cli(args.src)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    return {"setup_s": elapsed, "ref_s": (ref + reference_loop()) / 2, "ok": code == 0}


def _peak_rss_mib():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args):
    import numpy

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    workload.prepare(args.workdir, args.seed)
    commands = workload.commands
    cli = _import_cli(args.src)
    # The first command, untimed, lets lazy set-up finish. The first output
    # of each command is its reference: checked after timing and compared
    # byte for byte with every later run of that command, traced or not.
    references = {0: invoke(cli, *commands[0])[:3]}
    report = {"numpy": numpy.__version__, "python": sys.version.split()[0]}

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer(hooks=layers.HOOKS)
    plain, traced, traced_index, collected = [], [], [], []
    refs, ref_after = [reference_loop()], []
    last_ref = time.perf_counter()
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        for on in (False, True) if tracer else (False,):
            if on:
                tracer.install()
            try:
                ok, out, files, elapsed = invoke(cli, *commands[index])
            finally:
                if on:
                    tracer.uninstall()
            attempted += 1
            if not ok or references.setdefault(index, (ok, out, files)) != (ok, out, files):
                failed += 1
            if on:
                traced.append(elapsed)
                traced_index.append(index)
                collected.append(tracer.collect())
            else:
                plain.append((index, elapsed))
                ref_after.append(len(refs))
        index = (index + 1) % len(commands)
        done = time.perf_counter() >= deadline
        if done or time.perf_counter() - last_ref >= _REF_EVERY_S:
            refs.append(reference_loop())
            last_ref = time.perf_counter()
        if done:
            break
    report["peak_rss_mib"] = _peak_rss_mib()

    errors, counts = [], {}
    for k, (ok, out, files) in sorted(references.items()):
        if not ok:
            errors.append(f"command {k} failed")
            continue
        try:
            errors += workload.check(k, out, files)
            counts[k] = workload.output_counts(k, out, files)
        except (ValueError, IndexError, AttributeError) as exc:  # malformed output
            errors.append(f"command {k}: the output check could not parse the output: {exc!r}")
    if errors:
        failed = attempted
    report.update(attempted=attempted, failed=failed, errors=errors[:20])
    report["units_per_command"] = workload.units_per_command
    report["command_index"] = [k for k, _ in plain]
    report["command_s"] = [t for _, t in plain]
    # each untraced command's reference time: the mean of the loops around it
    report["ref_s"] = [(refs[i - 1] + refs[i]) / 2 for i in ref_after]
    runs = [counts[k] for k in (traced_index if tracer else sorted(counts)) if k in counts]
    report["output_counts"] = {
        name: statistics.fmean(c[name] for c in runs) for name in (runs[0] if runs else ())
    }
    if tracer:
        import layers

        values, absent = layers.summarize(
            collected, report["output_counts"], traced, report["command_s"]
        )
        report["layers"] = values
        report["absent"] = absent
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    args.trace = args.mode == "trace"
    report = setup(args) if args.mode == "setup" else measure(args)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
