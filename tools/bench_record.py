"""Run the workload benchmark over seeds and record every result in one JSON file.

    python tools/bench_record.py --tag TAG --seeds 1,2,3 [--workloads mc_study]
                                 [--trace 1] [--tiny --seconds 0] [--root CHECKOUT]
                                 [--out FILE] [--append]

For each workload (default: every workload in CHECKOUT/BENCHMARK.json) and
each seed, in that order, runs the checkout's own `benchmarks/run.py`
unchanged from the root of CHECKOUT (default: the checkout holding this
script) and keeps its `# environment` line and its result JSON (the last
line of its stdout). Writes BENCH_<TAG>.json at the root of the checkout
holding this script, or FILE with --out. With --append the runs are added
to the runs already in the file, so that runs of two checkouts can be
interleaved one call at a time:

    for s in 1 2 3; do
        python tools/bench_record.py --tag before --root ../old --seeds $s --append
        python tools/bench_record.py --tag after --seeds $s --append
    done

A run that exits non-zero stops the recording with that exit code; the
runs before it are already in the file.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE_ROOT = Path(__file__).resolve().parents[1]
ENV_PREFIX = "# environment "


def _seeds(text):
    try:
        seeds = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if any(s < 0 for s in seeds):
        raise argparse.ArgumentTypeError("seeds must be >= 0")
    return seeds


def run_one(root, workload, seed, seconds, trace, tiny):
    """One `benchmarks/run.py` call; returns (exit code, record or None, stderr)."""
    argv = ["benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", format(seconds, "g"), "--trace", str(trace)]
    if tiny:
        argv.append("--tiny")
    proc = subprocess.run([sys.executable, *argv], cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None, proc.stderr
    environment = next(
        (json.loads(line[len(ENV_PREFIX):]) for line in lines if line.startswith(ENV_PREFIX)), None
    )
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "command": "python3 " + " ".join(argv),
        "environment": environment,
        "notes": [line for line in lines[:-1] if line.startswith("#") and not line.startswith(ENV_PREFIX)],
        "result": json.loads(lines[-1]),
    }
    return 0, record, proc.stderr


def _write(path, tag, runs):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"tag": tag, "runs": runs}, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tag", required=True, help="names the output BENCH_<TAG>.json")
    parser.add_argument("--seeds", type=_seeds, required=True, help="comma-separated seeds")
    parser.add_argument("--workloads", help="comma-separated workloads (default: all in BENCHMARK.json)")
    parser.add_argument("--seconds", type=float, help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for smoke tests")
    parser.add_argument("--root", type=Path, default=HERE_ROOT, help="checkout to benchmark")
    parser.add_argument("--out", type=Path, help="output file (default: BENCH_<TAG>.json at the repo root)")
    parser.add_argument("--append", action="store_true", help="add to the runs already in the output file")
    args = parser.parse_args(argv)
    if not args.tag.replace("_", "").replace("-", "").isalnum():
        parser.error("--tag may hold only letters, digits, '_' and '-'")

    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workloads {', '.join(unknown)}; known: {', '.join(known)}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if seconds < 0:
        parser.error("--seconds must be >= 0")

    out = args.out or HERE_ROOT / f"BENCH_{args.tag}.json"
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"] if args.append and out.exists() else []
    for workload in workloads:
        for seed in args.seeds:
            code, record, stderr = run_one(root, workload, seed, seconds, args.trace, args.tiny)
            if record is None:
                sys.stderr.write(stderr)
                print(f"bench_record: {workload} seed={seed} exited with code {code}", file=sys.stderr)
                return code
            runs.append(record)
            _write(out, args.tag, runs)
            result = record["result"]
            line = f"{workload} seed={seed} trace={args.trace} correct={result['correct']}"
            if not args.trace:
                line += "".join(f" {k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
