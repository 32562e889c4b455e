"""Benchmark of the three nakafit workloads, run from the root of a checkout.

    python3 benchmarks/run.py --workload mc_study --seed 1 --seconds 20 --trace 0

Workloads: mc_study, segment_256, estimate_files (see README.md here).
With --trace 0 it reports the end-to-end metrics of untraced commands; with
--trace 1 it reports the per-layer metrics of a traced run. The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The program is imported from ./src; without it the run exits with code 2.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TIME_LIMIT_S = 170.0
# set-up is timed in this many fresh interpreters; setup_s is their median
SETUP_REPEATS = 9

# Times are scaled to a machine on which worker.reference_loop takes this long
# (its typical time on an idle 2-vCPU Xeon host): each measured time is
# multiplied by REF_SECONDS over the reference loop's time measured around it.
REF_SECONDS = 0.012

END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _spawn(mode, args, workdir, env, deadline):
    cmd = [
        sys.executable, str(WORKER), mode, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--workdir", str(workdir), "--src", str(ROOT / "src"),
    ]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark: the {mode} process ran past the time limit")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark: the {mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _measure(args, workdir):
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({name: "1" for name in THREAD_PINS})
    # Set-up probes run before and after the workload, so that setup_s
    # samples the machine at both ends of the run.
    repeats = 0 if args.trace else 1 if args.tiny else SETUP_REPEATS
    probes = [_spawn("setup", args, workdir, env, deadline) for _ in range((repeats + 1) // 2)]
    report = _spawn("trace" if args.trace else "run", args, workdir, env, deadline)
    probes += [_spawn("setup", args, workdir, env, deadline) for _ in range(repeats // 2)]
    attempted = report["attempted"] + len(probes)
    failed = report["failed"] + sum(1 for p in probes if not p["ok"])
    if args.trace:
        metrics = report["layers"]
    else:
        # Median over the repeats of each distinct command, then total units
        # over total time across the distinct commands (segment_256 cycles
        # through several images; the other workloads repeat one command).
        by_command = {}
        for k, t, ref in zip(report["command_index"], report["command_s"], report["ref_s"]):
            by_command.setdefault(k, []).append(t * REF_SECONDS / ref)
        per_command = [statistics.median(ts) for ts in by_command.values()]
        metrics = {
            "setup_s": statistics.median(p["setup_s"] * REF_SECONDS / p["ref_s"] for p in probes),
            "units_per_s": report["units_per_command"] * len(per_command) / sum(per_command),
            "peak_rss_mib": report["peak_rss_mib"],
        }
    return report, probes, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="nakafit workload benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    if not (ROOT / "src" / "nakafit" / "cli.py").is_file():
        print(f"benchmark: no nakafit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = metric_units() if args.trace else END_TO_END

    load_start = os.getloadavg()[0]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        report, probes, attempted, failed, metrics = _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    environment = {
        "python": report["python"],
        "numpy": report["numpy"],
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "load1_start": load_start,
        "load1_end": os.getloadavg()[0],
        **{name: "1" for name in THREAD_PINS},
    }
    print("# environment " + json.dumps(environment))
    times = report["command_s"]
    print(
        f"# {args.workload} seed={args.seed}: {len(times)} untraced commands of "
        f"{report['units_per_command']} units, seconds min {min(times):.4f} "
        f"median {statistics.median(times):.4f} max {max(times):.4f} "
        f"(unscaled units_per_s {report['units_per_command'] * len(times) / sum(times):.6g}); "
        f"reference loop median {statistics.median(report['ref_s']):.5f} s; "
        f"{len(probes)} set-up probes, unscaled median "
        f"{statistics.median(p['setup_s'] for p in probes) if probes else 0:.4f} s; "
        f"output counts {json.dumps(report['output_counts'])}"
    )
    for message in report["errors"]:
        print(f"# check failed: {message}")
    if args.trace:
        print("# absent on this workload (reported as 0): " + (", ".join(report["absent"]) or "none"))
    result = {
        "correct": failed == 0 and not report["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
