"""Command-line surface binding the library modules.

Subcommands: sample, estimate, bench, bounds, segment. All randomness is
keyed by explicit --seed flags, so every invocation is reproducible.
Exit codes: 0 success, 1 domain errors, 2 usage errors.
"""

import argparse
import math
import sys
from contextlib import nullcontext


from . import bounds as bounds_mod
from . import pgm
from .blockwise import BlockEstimatorState, finalize, ingest_block
from .errors import DegenerateBlockError, NakafitError
from .estimators import EstimatorKind, estimate_block
from .hmrf import Likelihood, segment
from .montecarlo import BenchConfig, emit_csv, run_bench
from .nakagami import NakagamiParams, as_block, sample


def _number(cast, low, strict=False):
    """Argparse type: `cast(text)`, finite and > low (strict) or >= low."""
    noun, finite = ("a number", " and finite") if cast is float else ("an integer", "")
    rule = f"{'>' if strict else '>='} {low}{finite}"

    def convert(text):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}")
        if not (value > low if strict else value >= low) or value == math.inf:
            raise argparse.ArgumentTypeError(f"{text!r} must be {rule}")
        return value

    return convert


def _choice(enum, noun):
    """Argparse type: the member of `enum` whose value is the stripped text."""
    def convert(text):
        try:
            return enum(text.strip())
        except ValueError:
            names = ", ".join(e.value for e in enum)
            raise argparse.ArgumentTypeError(f"unknown {noun} {text!r} (choose from {names})")

    return convert


def _comma_list(item, noun):
    """Argparse type: a non-empty tuple of `item` values from comma-separated text."""
    def convert(text):
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise argparse.ArgumentTypeError(f"{noun} must list at least one value")
        return tuple(item(p) for p in parts)

    return convert


_positive_float = _number(float, 0, strict=True)
_nonneg_float = _number(float, 0)
_positive_int = _number(int, 1)
_seed = _number(int, 0)
_estimator = _choice(EstimatorKind, "estimator")
_likelihood = _choice(Likelihood, "likelihood")
_m_grid = _comma_list(_positive_float, "grid")

# Every BenchConfig field with the converter for its `bench` flag (--m-grid
# for m_grid) and config-file key; unset fields take BenchConfig's defaults.
_BENCH_FIELDS = {
    "m_grid": _m_grid,
    "omega": _positive_float,
    "block_size": _positive_int,
    "num_blocks": _positive_int,
    "trials": _positive_int,
    "estimators": _comma_list(_estimator, "estimators"),
    "base_seed": _seed,
}


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
        if key not in _BENCH_FIELDS:
            parser.error(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = val.strip()
    return values


def _build_bench_config(args, parser):
    raw = _read_config_file(args.config, parser) if args.config else {}
    fields = {}
    for name, convert in _BENCH_FIELDS.items():
        value = getattr(args, name)
        if value is None and name in raw:
            try:
                value = convert(raw[name])
            except argparse.ArgumentTypeError as exc:
                parser.error(f"config field {name}: {exc}")
        if value is not None:
            fields[name] = value
    try:
        return BenchConfig(**fields)
    except ValueError as exc:
        parser.error(str(exc))


def cmd_bench(args):
    result = run_bench(args.bench_config)
    with _open_sink(args.out) as sink:
        emit_csv(result, sink)
    return 0


def cmd_bounds(args):
    rows = []
    for m in args.m_grid:
        lo = bounds_mod.crlb(m, args.n)
        hi = bounds_mod.crlb_modified(m, args.n)
        rows.append(
            f"{m:.12g},{lo:.12g},{hi:.12g},"
            f"{bounds_mod.normalized(lo, m):.12g},{bounds_mod.normalized(hi, m):.12g}\n"
        )
    with _open_sink(args.out) as sink:
        sink.write("m,crlb,crlb_modified,normalized_crlb,normalized_crlb_modified\n")
        sink.writelines(rows)
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
    for name, convert in _BENCH_FIELDS.items():
        p.add_argument("--" + name.replace("_", "-"), type=convert)
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bounds", help="tabulate CRLB and the modified bound")
    p.add_argument("--m-grid", dest="m_grid", type=_m_grid, required=True)
    p.add_argument("--n", type=_positive_int, required=True, help="total sample count")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("segment", help="HMRF image segmentation")
    p.add_argument("--in", dest="infile", required=True, help="PGM or text-matrix image")
    p.add_argument("--k", type=_number(int, 2), required=True, help="number of classes")
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
    try:
        return args.func(args)
    except (NakafitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
