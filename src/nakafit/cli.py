"""Command-line surface binding the library modules.

Subcommands: sample, estimate, bench, bounds, segment. All randomness is
keyed by explicit --seed flags (--base-seed for bench), so every
invocation is reproducible.
Exit codes: 0 success, 1 domain errors, 2 usage errors.

A module that only one command runs is imported by that command when it
runs (`blockwise` by `estimate`, `montecarlo` by `bench`, `bounds` by
`bounds`, `hmrf` and `pgm` by `segment`), so a caller that starts
`nakafit estimate` once per block loads neither the Monte Carlo study nor
the segmentation code.
"""

import argparse
import math
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import _format
from .errors import DegenerateBlockError, NakafitError, _refusals_naming
from .estimators import EstimatorKind, estimate_block
from .nakagami import NakagamiParams, sample


def _number(cast, low, strict=False, high=math.inf):
    """Argparse type: `cast(text)`, finite, > low (strict) or >= low, and <= high."""
    noun, finite = ("a number", " and finite") if cast is float else ("an integer", "")
    rule = f"{'>' if strict else '>='} {low}{finite}"
    if high < math.inf:
        rule += f" and <= {high}"

    def convert(text):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}")
        if not (value > low if strict else value >= low) or value == math.inf or value > high:
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


def _likelihood(text):
    """Argparse type of `segment --likelihood`: a `Likelihood` member,
    looked up when `segment` parses its flags, so no other command loads
    `hmrf`."""
    from .hmrf import Likelihood

    return _choice(Likelihood, "likelihood")(text)


_m_grid = _comma_list(_positive_float, "grid")

# Every BenchConfig field with the converter of its `bench` flag (--m-grid
# for m_grid); a flag left unset leaves its field at BenchConfig's default.
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


# bytes asked of each os.read; a block file of 30 values takes one read and the empty one
_READ_SIZE = 1 << 16


def _load_block(path):
    """The values in a block file as a float array, unchecked: `estimate_block`
    applies the block rule. The file is read with os.open and os.read, which
    make no fstat or lseek calls, until os.read returns b""."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, _READ_SIZE):
                chunks.append(chunk)
        finally:
            os.close(fd)
        # decoded before the split: str.split also splits on \x1c-\x1f, bytes.split does not
        values = list(map(float, b"".join(chunks).decode("ascii").split()))
    except OSError as exc:
        raise NakafitError(f"cannot read {path}: {exc.strerror}")
    except ValueError:
        raise NakafitError(f"{path}: malformed sample value")
    return np.array(values, dtype=float)


def cmd_sample(args):
    params = NakagamiParams.from_omega(args.m, args.omega)
    values = sample(params, args.n, args.seed)
    with _open_sink(args.out) as sink:
        for v in values:
            sink.write(format(v, ".12e") + "\n")
    return 0


def cmd_estimate(args):
    from .blockwise import BlockEstimatorState, finalize, ingest_block

    state = BlockEstimatorState(method=args.method)
    # every overflow in the estimators ends in their refusal, which is the
    # one message a refused block prints, not a RuntimeWarning before it
    with np.errstate(over="ignore"):
        for index, path in enumerate(args.infiles, start=1):
            block = _load_block(path)
            try:
                est = estimate_block(args.method, block)
                print(f"block={index} m_hat={_format._cell(est.m_hat)} "
                      f"sigma_hat={_format._cell(est.sigma_hat)}")
            except DegenerateBlockError:
                print(f"block={index} skipped degenerate")
            except (NakafitError, ValueError) as exc:  # ValueError: the block rule
                # the path is put here, not by `_refusals_naming`: this try runs
                # for every block anyway, and a generator context manager entered
                # per file would cost more than it
                raise NakafitError(f"{path}: {exc}") from None
            state = ingest_block(state, block)
    final = finalize(state)
    print(
        f"m_hat={_format._cell(final.m_hat)} sigma_hat={_format._cell(final.sigma_hat)} "
        f"blocks={state.blocks_seen} skipped={state.skipped}"
    )
    return 0


def _build_bench_config(args, parser):
    from .montecarlo import BenchConfig

    fields = {name: value for name in _BENCH_FIELDS if (value := getattr(args, name)) is not None}
    try:
        return BenchConfig(**fields)
    except ValueError as exc:
        parser.error(str(exc))


def cmd_bench(args):
    from .montecarlo import emit_csv, run_bench

    rows = run_bench(_build_bench_config(args, args.parser))
    with _open_sink(args.out) as sink:
        emit_csv(rows, sink)
    return 0


def cmd_bounds(args):
    from .bounds import crlb, crlb_modified, normalized

    rows = []  # all of them before --out is opened: a refused bound writes no file
    for m in args.m_grid:
        lo, hi = crlb(m, args.n), crlb_modified(m, args.n)
        rows.append((m, lo, hi, normalized(lo, m), normalized(hi, m)))
    with _open_sink(args.out) as sink:
        _format._write_table(
            sink, "m,crlb,crlb_modified,normalized_crlb,normalized_crlb_modified", rows)
    return 0


def cmd_segment(args):
    from . import pgm
    from .hmrf import segment

    image = pgm.read_image(args.infile)
    with _refusals_naming(args.infile):
        result = segment(image, args.k, args.likelihood, beta=args.beta, seed=args.seed)
    pgm.write_pgm(args.out_labels + ".pgm", pgm.labels_to_gray(result.labels, args.k))
    pgm.write_matrix(args.out_labels + ".txt", result.labels)
    with open(args.out_trace, "w", encoding="ascii") as fh:
        _format._write_table(fh, "iteration,phase,energy", result.trace)
    print(f"energy={_format._cell(result.trace[-1][2])} sweeps={result.sweeps}")
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
    for name, convert in _BENCH_FIELDS.items():
        p.add_argument("--" + name.replace("_", "-"), type=convert)
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    # BenchConfig refusals are reported as usage errors of `bench`
    p.set_defaults(func=cmd_bench, parser=p)

    p = sub.add_parser("bounds", help="tabulate CRLB and the modified bound")
    p.add_argument("--m-grid", dest="m_grid", type=_m_grid, required=True)
    p.add_argument("--n", type=_positive_int, required=True, help="total sample count")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("segment", help="HMRF image segmentation")
    p.add_argument("--in", dest="infile", required=True, help="PGM or text-matrix image")
    # labels_to_gray gives each class its own gray level, so at most 256
    p.add_argument("--k", type=_number(int, 2, high=256), required=True, help="number of classes")
    p.add_argument(
        "--likelihood", type=_likelihood, default="nakagami",
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
    try:
        return args.func(args)
    except (NakafitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
