"""Command-line surface binding the library modules.

Subcommands: sample, estimate, bench, bounds, segment. All randomness is
keyed by explicit --seed flags, so every invocation is reproducible.
Exit codes: 0 success, 1 domain errors, 2 usage errors.
"""

import argparse
import sys
from contextlib import nullcontext


from . import bounds as bounds_mod
from . import pgm
from .blockwise import BlockEstimatorState, finalize, ingest_block
from .errors import DegenerateBlockError, NakafitError
from .estimators import EstimatorKind, estimate_block
from .hmrf import Likelihood, segment
from .montecarlo import ALL_ESTIMATORS, BenchConfig, emit_csv, run_bench
from .nakagami import NakagamiParams, as_block, sample


def _positive_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not value > 0 or value != value or value in (float("inf"),):
        raise argparse.ArgumentTypeError(f"{text!r} must be > 0 and finite")
    return value


def _nonneg_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not value >= 0 or value != value:
        raise argparse.ArgumentTypeError(f"{text!r} must be >= 0")
    return value


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be >= 1")
    return value


def _seed(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _m_grid(text):
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("grid must list at least one value")
    return tuple(_positive_float(p.strip()) for p in parts)


def _estimator(text):
    try:
        return EstimatorKind(text.strip())
    except ValueError:
        names = ", ".join(k.value for k in EstimatorKind)
        raise argparse.ArgumentTypeError(f"unknown estimator {text!r} (choose from {names})")


def _estimator_list(text):
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("estimator list must be non-empty")
    return tuple(_estimator(p) for p in parts)


def _likelihood(text):
    try:
        return Likelihood(text.strip())
    except ValueError:
        names = ", ".join(l.value for l in Likelihood)
        raise argparse.ArgumentTypeError(f"unknown likelihood {text!r} (choose from {names})")


def _open_sink(path):
    return open(path, "w", encoding="ascii") if path else nullcontext(sys.stdout)


def _load_block(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            values = [float(tok) for tok in fh.read().split()]
    except OSError as exc:
        raise NakafitError(f"cannot read {path}: {exc.strerror}")
    except ValueError:
        raise NakafitError(f"{path}: malformed sample value")
    try:
        return as_block(values)
    except ValueError as exc:
        raise NakafitError(f"{path}: {exc}")


def cmd_sample(args):
    params = NakagamiParams.from_omega(args.m, args.omega)
    values = sample(params, args.n, args.seed)
    with _open_sink(args.out) as sink:
        for v in values:
            sink.write(format(v, ".12e") + "\n")
    return 0


def cmd_estimate(args):
    state = BlockEstimatorState(method=args.method)
    for index, path in enumerate(args.infiles, start=1):
        block = _load_block(path)
        try:
            est = estimate_block(args.method, block)
            print(
                f"block={index} m_hat={est.m_hat:.12g} sigma_hat={est.sigma_hat:.12g}"
            )
        except DegenerateBlockError:
            print(f"block={index} skipped degenerate")
        state = ingest_block(state, block)
    final = finalize(state)
    print(
        f"m_hat={final.m_hat:.12g} sigma_hat={final.sigma_hat:.12g} "
        f"blocks={state.blocks_seen} skipped={state.skipped}"
    )
    return 0


_CONFIG_KEYS = {
    "m_grid",
    "omega",
    "block_size",
    "num_blocks",
    "trials",
    "estimators",
    "base_seed",
}


def _read_config_file(path, parser):
    values = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except OSError as exc:
        parser.error(f"cannot read config {path}: {exc.strerror}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            parser.error(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = val.strip()
    return values


def _build_bench_config(args, parser):
    raw = _read_config_file(args.config, parser) if args.config else {}

    def pick(flag_value, key, convert, default):
        if flag_value is not None:
            return flag_value
        if key in raw:
            try:
                return convert(raw[key])
            except argparse.ArgumentTypeError as exc:
                parser.error(f"config field {key}: {exc}")
        return default

    try:
        return BenchConfig(
            m_grid=pick(args.m_grid, "m_grid", _m_grid, BenchConfig.m_grid),
            omega=pick(args.omega, "omega", _positive_float, 1.0),
            block_size=pick(args.block_size, "block_size", _positive_int, 30),
            num_blocks=pick(args.num_blocks, "num_blocks", _positive_int, 5),
            trials=pick(args.trials, "trials", _positive_int, 2000),
            estimators=pick(args.estimators, "estimators", _estimator_list, ALL_ESTIMATORS),
            base_seed=pick(args.base_seed, "base_seed", _seed, 0),
        )
    except ValueError as exc:
        parser.error(str(exc))


def cmd_bench(args):
    result = run_bench(args.bench_config)
    with _open_sink(args.out) as sink:
        emit_csv(result, sink)
    return 0


def cmd_bounds(args):
    with _open_sink(args.out) as sink:
        sink.write("m,crlb,crlb_modified,normalized_crlb,normalized_crlb_modified\n")
        for m in args.m_grid:
            lo = bounds_mod.crlb(m, args.n)
            hi = bounds_mod.crlb_modified(m, args.n)
            sink.write(
                f"{m:.12g},{lo:.12g},{hi:.12g},"
                f"{bounds_mod.normalized(lo, m):.12g},{bounds_mod.normalized(hi, m):.12g}\n"
            )
    return 0


def cmd_segment(args):
    image = pgm.read_image(args.infile)
    result = segment(
        image,
        args.k,
        args.likelihood,
        beta=args.beta,
        seed=args.seed,
    )
    pgm.write_pgm(args.out_labels + ".pgm", pgm.labels_to_gray(result.labels, args.k))
    pgm.write_matrix(args.out_labels + ".txt", result.labels)
    with open(args.out_trace, "w", encoding="ascii") as fh:
        fh.write("iteration,phase,energy\n")
        for step, phase, energy in result.trace:
            fh.write(f"{step},{phase},{energy:.12g}\n")
    print(f"energy={result.trace[-1][2]:.12g} sweeps={result.sweeps}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nakafit",
        description="Nakagami-m estimation, variance bounds, benchmarks, and segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw seeded Nakagami samples")
    p.add_argument("--m", type=_positive_float, required=True, help="shape parameter")
    p.add_argument("--omega", type=_positive_float, default=1.0, help="spread E[x^2]")
    p.add_argument("--n", type=_positive_int, required=True, help="sample count")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="estimate (m, sigma) from block files")
    p.add_argument("--in", dest="infiles", nargs="+", required=True, metavar="FILE")
    p.add_argument(
        "--method", type=_estimator, default=EstimatorKind.EXACT_ML,
        help="one of: " + ", ".join(k.value for k in EstimatorKind),
    )
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bench", help="run the Monte Carlo estimator comparison")
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--m-grid", dest="m_grid", type=_m_grid, default=None)
    p.add_argument("--omega", type=_positive_float, default=None)
    p.add_argument("--block-size", dest="block_size", type=_positive_int, default=None)
    p.add_argument("--num-blocks", dest="num_blocks", type=_positive_int, default=None)
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--estimators", type=_estimator_list, default=None)
    p.add_argument("--base-seed", dest="base_seed", type=_seed, default=None)
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bounds", help="tabulate CRLB and the modified bound")
    p.add_argument("--m-grid", dest="m_grid", type=_m_grid, required=True)
    p.add_argument("--n", type=_positive_int, required=True, help="total sample count")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("segment", help="HMRF image segmentation")
    p.add_argument("--in", dest="infile", required=True, help="PGM or text-matrix image")
    p.add_argument("--k", type=_positive_int, required=True, help="number of classes")
    p.add_argument(
        "--likelihood", type=_likelihood, default=Likelihood.NAKAGAMI,
        help="gaussian or nakagami",
    )
    p.add_argument("--beta", type=_nonneg_float, default=1.0, help="clique weight")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument(
        "--out-labels", dest="out_labels", required=True,
        help="base path; writes <base>.pgm and <base>.txt",
    )
    p.add_argument("--out-trace", dest="out_trace", required=True, help="energy trace CSV")
    p.set_defaults(func=cmd_segment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench":
        args.bench_config = _build_bench_config(args, parser)
    if args.command == "segment" and args.k < 2:
        parser.error("--k must be >= 2")
    try:
        return args.func(args)
    except NakafitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
