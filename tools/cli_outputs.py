"""Run a fixed list of `nakafit` CLI calls in-process and record every output.

    python tools/cli_outputs.py --root CHECKOUT OUTDIR

Imports `nakafit` from CHECKOUT/src, writes the shared inputs under
OUTDIR/inputs, and for each case writes OUTDIR/<case>/stdout, stderr and
exit_code, plus any files the call wrote into OUTDIR/<case>/. Calls run
with OUTDIR as the working directory and relative paths, and a warning
names its file relative to CHECKOUT/src and no line number, so the outputs
name no absolute path and an edit above a warning's source line changes
none of them. Inputs are made with numpy.random.default_rng, never
with nakafit, so two checkouts get identical inputs. Compare two checkouts
with `diff -r OUT_A OUT_B`. Usage messages are wrapped at 80 columns
whatever the terminal, and `tools/cli_digests.py` records one SHA-256 per
file written.

Case names say what the exit code should be: `usage_*` exit 2, `*_fails`
exit 1, every other case exits 0. A call that raises anything but SystemExit
is recorded with exit code `traceback` and the exception's last line in
stderr, and the run goes on.
"""

import argparse
import contextlib
import io
import os
import re
import sys
import traceback
import warnings

import numpy as np

ESTIMATORS = ("exact_ml", "cheng_beaulieu_1", "cheng_beaulieu_2", "greenwood_durand", "moment_based")
BLOCKS = [f"inputs/block{i}.txt" for i in range(8)] + ["inputs/constant.txt", "inputs/short.txt"]
# blocks that block validation rejects: a signed and an unsigned zero, and a NaN
NONPOSITIVE, NAN = "inputs/nonpositive.txt", "inputs/nan.txt"
# a valid block whose sigma_hat = mean(x^2) / m_hat overflows the float range
SPREAD = "inputs/spread.txt"
# valid blocks whose squares overflow to inf and underflow to 0
SQUARES_OVERFLOW, SQUARES_UNDERFLOW = "inputs/squares_overflow.txt", "inputs/squares_underflow.txt"
IMAGES = {"pgm64": "inputs/two_region.pgm", "txt48": "inputs/three_region.txt"}
# the benchmark's segment shape: 256x256, ~250 distinct levels, some zero pixels
PGM256 = "inputs/two_region_256.pgm"
# a second benchmark-shaped 256x256 image, built as the segment_256 workload
# builds its images, from the workload seed 7
PGM256_BENCH = "inputs/two_region_256_bench.pgm"
# 128x128 text matrix of floats: ~16k distinct values, so the class sums
# run over as many terms as pixels
MATRIX_128 = "inputs/three_region_128.txt"
# 4x4 ramp: 24 neighbor pairs, so beta = 1e308 overflows the pair term
PGM4 = "inputs/ramp4.pgm"
# the pgm64 raster behind a header with CR LF, a tab and two comments
PGM64_COMMENTED = "inputs/two_region_comments.pgm"
# 37x23 text matrix: odd sides, so the checkerboard colors differ in size
MATRIX_ODD = "inputs/three_region_37x23.txt"
# a text matrix whose `rows cols` header is not two integers >= 1
MATRIX_NEGATIVE_DIMS = "inputs/negative_dims.txt"
# 4x4 text matrix with a constant class at 1.5e-161, whose squares are
# subnormal: the Nakagami bootstrap spread mean(x^2) / 1e4 underflows to 0
MATRIX_SUBNORMAL_SQUARES = "inputs/subnormal_squares.txt"
# a bench config whose last byte is not ASCII
CONFIG_NOT_ASCII = "inputs/not_ascii.cfg"
# a bench config that sets trials twice
CONFIG_REPEATED_KEY = "inputs/repeated_key.cfg"
# block files: a non-ASCII byte, a token that is not a number, a path that
# does not exist, and values split by every ASCII separator str.split knows
BLOCK_NOT_ASCII = "inputs/not_ascii_block.txt"
BLOCK_MALFORMED = "inputs/malformed_block.txt"
BLOCK_MISSING = "inputs/missing_block.txt"
BLOCK_SEPARATORS = "inputs/separators_block.txt"
# block files the estimator refuses: an inf among finite values, one inf
# alone, no values at all, and an inf beside a value whose square overflows
BLOCK_INF, BLOCK_ONE_INF = "inputs/inf_block.txt", "inputs/one_inf_block.txt"
BLOCK_EMPTY, BLOCK_INF_OVERFLOW = "inputs/empty_block.txt", "inputs/inf_overflow_block.txt"
# a directory given where a block file is expected
BLOCK_DIRECTORY = "inputs/a_directory"
# a PGM whose width and height are "+2" and "1_0", which int() would read as 2 and 10
PGM_SIGNED_DIMS = "inputs/signed_dims.pgm"
# a maxval-100 PGM holding a 255 byte
PGM_ABOVE_MAXVAL = "inputs/above_maxval.pgm"
# a 2x2 text matrix whose last value is written in UTF-8, not ASCII
MATRIX_NOT_ASCII = "inputs/not_ascii.txt"
# a PGM that ends after its height: the header has no maxval
PGM_TRUNCATED_HEADER = "inputs/truncated_header.pgm"
# a PGM whose width is 5,000 digits, more than int() converts
PGM_HUGE_WIDTH = "inputs/huge_width.pgm"
# a 1x2 text matrix whose last value is not a number
MATRIX_NOT_A_NUMBER = "inputs/not_a_number.txt"
# a 2x2 text matrix holding a negative value, which segment refuses
MATRIX_NEGATIVE_VALUE = "inputs/negative_value.txt"
# an image path that does not exist
IMAGE_MISSING = "inputs/missing_image.pgm"


def _nakagami(rng, m, omega, n):
    return np.sqrt(rng.gamma(shape=m, scale=omega / m, size=n))


def _write_lines(path, values):
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(format(v, ".12e") + "\n" for v in values)


def make_inputs():
    """Write every input file under inputs/ from one numpy stream."""
    rng = np.random.default_rng(20260101)
    os.makedirs("inputs", exist_ok=True)
    for path in BLOCKS[:8]:
        _write_lines(path, _nakagami(rng, 2.0, 1.0, 30))
    _write_lines(BLOCKS[8], [2.5] * 30)
    _write_lines(BLOCKS[9], _nakagami(rng, 0.6, 1.0, 4))
    with open(NONPOSITIVE, "w", encoding="ascii") as fh:
        fh.write("1.5\n2.0\n-0.0\n0\n0.7\n")
    with open(NAN, "w", encoding="ascii") as fh:
        fh.write("1.5\n2.0\nnan\n0.7\n")
    with open(SPREAD, "w", encoding="ascii") as fh:
        fh.write("4.378337766510523e-07\n3.149214563336647e-20\n3.019744578969957e+153\n")
    with open(SQUARES_OVERFLOW, "w", encoding="ascii") as fh:
        fh.write("1e200\n2e200\n3e200\n")
    with open(SQUARES_UNDERFLOW, "w", encoding="ascii") as fh:
        fh.write("1e-300\n2e-300\n3e-300\n")
    with open(PGM4, "wb") as fh:
        fh.write(b"P5\n4 4\n255\n" + np.arange(10, 170, 10, dtype=np.uint8).tobytes())
    with open(MATRIX_NEGATIVE_DIMS, "w", encoding="ascii") as fh:
        fh.write("-1 0\n")
    with open(MATRIX_SUBNORMAL_SQUARES, "w", encoding="ascii") as fh:
        fh.write("4 4\n" + "1.5e-161 1.5e-161 1.5e-161 1.5e-161\n" * 2 + "5 5 5 5\n5 5 5 6\n")
    with open(CONFIG_NOT_ASCII, "wb") as fh:
        fh.write(b"trials = 5\xff\n")
    with open(CONFIG_REPEATED_KEY, "w", encoding="ascii") as fh:
        fh.write("m_grid = 1\ntrials = 5\ntrials = 7\n")
    for path, data in ((BLOCK_NOT_ASCII, b"1.5\n2.\xbd\n"),
                       (BLOCK_MALFORMED, b"1.5\n2.0x\n0.7\n"),
                       (BLOCK_SEPARATORS, b"1.25\r\n0.5\t2.0\r\n0.75\x1c1.1\x1f0.9\x0c1.3\x0b0.6\n"),
                       (BLOCK_INF, b"1.5\n2.0\ninf\n0.7\n"),
                       (BLOCK_ONE_INF, b"inf\n"),
                       (BLOCK_EMPTY, b""),
                       (BLOCK_INF_OVERFLOW, b"1.5\n2e154\ninf\n0.7\n")):
        with open(path, "wb") as fh:
            fh.write(data)
    os.makedirs(BLOCK_DIRECTORY, exist_ok=True)
    with open(PGM_SIGNED_DIMS, "wb") as fh:
        fh.write(b"P5 +2 1_0 255\n" + bytes(range(10, 210, 10)))
    with open(PGM_ABOVE_MAXVAL, "wb") as fh:
        fh.write(b"P5\n4 4\n100\n" + bytes([10, 20, 30, 40] * 3 + [50, 60, 70, 255]))
    with open(MATRIX_NOT_ASCII, "wb") as fh:
        fh.write("2 2\n1 2\n3 \u00bd\n".encode("utf-8"))
    with open(PGM_TRUNCATED_HEADER, "wb") as fh:
        fh.write(b"P5 2")
    with open(PGM_HUGE_WIDTH, "wb") as fh:
        fh.write(b"P5 " + b"1" * 5000 + b" 2 255\n" + bytes(40))
    with open(MATRIX_NOT_A_NUMBER, "w", encoding="ascii") as fh:
        fh.write("1 2\n0.5 x\n")
    with open(MATRIX_NEGATIVE_VALUE, "w", encoding="ascii") as fh:
        fh.write("2 2\n1 2\n3 -3\n")

    # 64x64: m = 1 on the left half, m = 8 on the right, scaled into [0, 255]
    img = np.hstack([_nakagami(rng, 1.0, 1.0, 64 * 32).reshape(64, 32),
                     _nakagami(rng, 8.0, 1.0, 64 * 32).reshape(64, 32)])
    raster = np.rint(np.clip(img / img.max() * 255.0, 1.0, 255.0)).astype(np.uint8)
    with open(IMAGES["pgm64"], "wb") as fh:
        fh.write(b"P5\n64 64\n255\n" + raster.tobytes())
    with open(PGM64_COMMENTED, "wb") as fh:
        fh.write(b"P5\r\n# two regions\n64\t64 # w h\n255\n" + raster.tobytes())

    # 48x48: three vertical bands at m = 0.7, 3 and 12
    img = np.hstack([_nakagami(rng, m, 1.0, 48 * 16).reshape(48, 16) for m in (0.7, 3.0, 12.0)])
    with open(IMAGES["txt48"], "w", encoding="ascii") as fh:
        fh.write("48 48\n")
        fh.writelines(" ".join(format(v, ".12g") for v in row) + "\n" for row in img)

    # 256x256: m = 1 on the left half, m = 8 on the right, as round(85 x), with
    # 0.2% of the pixels set to zero
    img = np.hstack([_nakagami(rng, 1.0, 1.0, 256 * 128).reshape(256, 128),
                     _nakagami(rng, 8.0, 1.0, 256 * 128).reshape(256, 128)])
    raster = np.clip(np.rint(85.0 * img), 0.0, 255.0).astype(np.uint8)
    raster[rng.random(raster.shape) < 0.002] = 0
    with open(PGM256, "wb") as fh:
        fh.write(b"P5\n256 256\n255\n" + raster.tobytes())

    # 37x23 from a stream of its own, so every input above stays as it was:
    # bands of 8, 8 and 7 columns at m = 0.7, 3 and 12
    odd = np.random.default_rng(3723)
    img = np.hstack([_nakagami(odd, m, 1.0, 37 * w).reshape(37, w)
                     for m, w in ((0.7, 8), (3.0, 8), (12.0, 7))])
    with open(MATRIX_ODD, "w", encoding="ascii") as fh:
        fh.write("37 23\n")
        fh.writelines(" ".join(format(v, ".12g") for v in row) + "\n" for row in img)

    # the segment_256 workload's recipe for its first image at seed 7: m = 1 on
    # the left half, m = 8 on the right, both at Omega = 1, as round(85 x)
    bench = np.random.default_rng([7, 256, 0])
    img = np.hstack([np.sqrt(bench.gamma(1.0, 1.0, size=(256, 128))),
                     np.sqrt(bench.gamma(8.0, 1.0 / 8.0, size=(256, 128)))])
    raster = np.clip(np.rint(85.0 * img), 0, 255).astype(np.uint8)
    with open(PGM256_BENCH, "wb") as fh:
        fh.write(b"P5\n256 256\n255\n" + raster.tobytes())

    # 128x128 from a stream of its own: bands of 43, 43 and 42 columns at
    # m = 0.7, 3 and 12
    wide = np.random.default_rng(128128)
    img = np.hstack([_nakagami(wide, m, 1.0, 128 * w).reshape(128, w)
                     for m, w in ((0.7, 43), (3.0, 43), (12.0, 42))])
    with open(MATRIX_128, "w", encoding="ascii") as fh:
        fh.write("128 128\n")
        fh.writelines(" ".join(format(v, ".12g") for v in row) + "\n" for row in img)


def cases():
    """(name, argv) for every call; `{out}` is replaced by the case directory."""
    small_grid = ["--m-grid", "1,4", "--omega", "2", "--block-size", "12", "--num-blocks", "3",
                  "--trials", "30", "--estimators", "exact_ml,moment_based", "--base-seed", "5"]
    out = [
        ("sample", ["sample", "--m", "2", "--omega", "1", "--n", "20", "--seed", "7"]),
        ("sample_file", ["sample", "--m", "0.5", "--n", "20", "--seed", "3", "--out", "{out}/s.txt"]),
        ("sample_tiny_m_fails", ["sample", "--m", "0.001", "--n", "100", "--out", "{out}/s.txt"]),
        ("sample_n_above_maxsize_fails", ["sample", "--m", "1", "--n", "100000000000000000000000"]),
        ("bench_default_grid", ["bench", "--trials", "30"]),
        ("bench_small_grid", ["bench", *small_grid, "--out", "{out}/bench.csv"]),
        ("bench_small_omega", ["bench", "--m-grid", "2", "--trials", "30", "--omega", "1e-6"]),
        ("bench_tiny_m", ["bench", "--m-grid", "0.01", "--trials", "100"]),
        # the mc_study workload's command at base seed 7
        ("bench_mc_study", ["bench", "--m-grid", "0.5,1,2,4,8,16", "--omega", "1",
                            "--block-size", "30", "--num-blocks", "5", "--trials", "200",
                            "--estimators", ",".join(ESTIMATORS), "--base-seed", "7"]),
        ("estimate_default", ["estimate", "--in", *BLOCKS]),
    ]
    out += [(f"estimate_{m}", ["estimate", "--in", *BLOCKS, "--method", m]) for m in ESTIMATORS]
    out += [
        ("estimate_nonpositive_fails", ["estimate", "--in", BLOCKS[0], NONPOSITIVE]),
        ("estimate_nan_fails", ["estimate", "--in", BLOCKS[0], NAN]),
        ("estimate_sigma_overflow_fails", ["estimate", "--in", SPREAD, "--method", "exact_ml"]),
        *((f"estimate_squares_{name}_{m}_fails", ["estimate", "--in", path, "--method", m])
          for name, path in (("overflow", SQUARES_OVERFLOW), ("underflow", SQUARES_UNDERFLOW))
          for m in ("exact_ml", "moment_based")),
        ("estimate_not_ascii_fails", ["estimate", "--in", BLOCK_NOT_ASCII]),
        ("estimate_malformed_fails", ["estimate", "--in", BLOCK_MALFORMED]),
        ("estimate_missing_file_fails", ["estimate", "--in", BLOCK_MISSING]),
        ("estimate_ascii_separators", ["estimate", "--in", BLOCK_SEPARATORS]),
        ("estimate_inf_entry_fails", ["estimate", "--in", BLOCKS[0], BLOCK_INF]),
        ("estimate_empty_fails", ["estimate", "--in", BLOCK_EMPTY]),
        ("estimate_directory_fails", ["estimate", "--in", BLOCK_DIRECTORY]),
        *((f"estimate_{name}_moment_based_fails",
           ["estimate", "--in", path, "--method", "moment_based"])
          for name, path in (("nonpositive", NONPOSITIVE), ("nan", NAN),
                             ("one_inf", BLOCK_ONE_INF))),
        *((f"estimate_inf_overflow_{m}_fails",
           ["estimate", "--in", BLOCK_INF_OVERFLOW, "--method", m])
          for m in ("exact_ml", "moment_based")),
    ]
    out += [
        ("bounds_default_grid", ["bounds", "--m-grid", "0.5,1,2,4,8,16", "--n", "150"]),
        ("bounds_tiny_fails", ["bounds", "--m-grid", "1,1e-170", "--n", "10", "--out", "{out}/b.csv"]),
        ("bounds_small_m", ["bounds", "--m-grid", "0.001,0.01,0.1,1,31.999,32", "--n", "10"]),
        ("bounds_large_m", ["bounds", "--m-grid", "32,100,1e4,1e8,1e16", "--n", "10"]),
        ("bounds_huge_m_fails", ["bounds", "--m-grid", "1e160", "--n", "10"]),
    ]
    for image, path in IMAGES.items():
        for likelihood in ("nakagami", "gaussian"):
            for k in ("2", "3"):
                out.append((
                    f"segment_{image}_{likelihood}_k{k}",
                    ["segment", "--in", path, "--k", k, "--likelihood", likelihood, "--seed", "1",
                     "--out-labels", "{out}/labels", "--out-trace", "{out}/trace.csv"],
                ))
    out += [
        ("segment_pgm64_comment_header",
         ["segment", "--in", PGM64_COMMENTED, "--k", "2", "--likelihood", "nakagami", "--seed", "1",
          "--out-labels", "{out}/labels", "--out-trace", "{out}/trace.csv"]),
        ("segment_pgm256_nakagami_k2",
         ["segment", "--in", PGM256, "--k", "2", "--likelihood", "nakagami", "--seed", "1",
          "--out-labels", "{out}/labels", "--out-trace", "{out}/trace.csv"]),
        # the segment_256 workload's command on its first image at seed 7
        ("segment_pgm256_bench_nakagami_k2",
         ["segment", "--in", PGM256_BENCH, "--k", "2", "--likelihood", "nakagami", "--beta", "1",
          "--seed", "112", "--out-labels", "{out}/labels", "--out-trace", "{out}/trace.csv"]),
        *((f"segment_txt128_{likelihood}_k3",
           ["segment", "--in", MATRIX_128, "--k", "3", "--likelihood", likelihood, "--seed", "1",
            "--out-labels", "{out}/labels", "--out-trace", "{out}/trace.csv"])
          for likelihood in ("nakagami", "gaussian")),
        ("segment_pgm64_nakagami_k4_beta0",
         ["segment", "--in", IMAGES["pgm64"], "--k", "4", "--likelihood", "nakagami",
          "--beta", "0", "--seed", "1", "--out-labels", "{out}/labels",
          "--out-trace", "{out}/trace.csv"]),
        ("segment_txt_odd_nakagami_k3",
         ["segment", "--in", MATRIX_ODD, "--k", "3", "--likelihood", "nakagami", "--seed", "1",
          "--out-labels", "{out}/labels", "--out-trace", "{out}/trace.csv"]),
        ("segment_subnormal_squares_nakagami_k2",
         ["segment", "--in", MATRIX_SUBNORMAL_SQUARES, "--k", "2", "--likelihood", "nakagami",
          "--out-labels", "{out}/labels", "--out-trace", "{out}/trace.csv"]),
        ("segment_huge_beta_fails",
         ["segment", "--in", PGM4, "--k", "2", "--beta", "1e308", "--out-labels", "{out}/labels",
          "--out-trace", "{out}/trace.csv"]),
    ]
    out += [
        (f"segment_{name}_fails",
         ["segment", "--in", path, "--k", "2", "--out-labels", "{out}/labels",
          "--out-trace", "{out}/trace.csv"])
        for name, path in (("matrix_negative_dims", MATRIX_NEGATIVE_DIMS),
                           ("pgm_signed_dims", PGM_SIGNED_DIMS),
                           ("pgm_above_maxval", PGM_ABOVE_MAXVAL),
                           ("matrix_not_ascii", MATRIX_NOT_ASCII),
                           ("pgm_truncated_header", PGM_TRUNCATED_HEADER),
                           ("pgm_huge_width", PGM_HUGE_WIDTH),
                           ("matrix_not_a_number", MATRIX_NOT_A_NUMBER),
                           ("matrix_negative_value", MATRIX_NEGATIVE_VALUE),
                           ("missing_image", IMAGE_MISSING),
                           ("directory", BLOCK_DIRECTORY))
    ]
    out += [
        # PGM4 holds 16 distinct intensities, fewer than 17 classes
        ("segment_k_above_distinct_fails",
         ["segment", "--in", PGM4, "--k", "17", "--out-labels", "{out}/labels",
          "--out-trace", "{out}/trace.csv"]),
    ]
    out += [
        ("usage_sample_negative_m", ["sample", "--m", "-1", "--n", "5"]),
        ("usage_bench_bad_estimator", ["bench", "--estimators", "bogus"]),
        ("usage_bench_repeated_estimator",
         ["bench", "--m-grid", "1", "--trials", "5", "--estimators", "exact_ml,exact_ml"]),
        ("usage_bounds_empty_grid", ["bounds", "--m-grid", "", "--n", "10"]),
        ("usage_bench_config_not_ascii", ["bench", "--config", CONFIG_NOT_ASCII]),
        ("usage_bench_config_repeated_key", ["bench", "--config", CONFIG_REPEATED_KEY]),
        # 2,304 distinct values: more than --k, so only the 256-level PGM limit refuses 257
        ("usage_segment_k_above_256",
         ["segment", "--in", IMAGES["txt48"], "--k", "257", "--out-labels", "{out}/labels",
          "--out-trace", "{out}/trace.csv"]),
    ]
    return out


# the `FILE:LINE: ` that starts a warning's first line, as warnings.formatwarning writes it
_WARNING_LINE = re.compile(r"^(\S+\.py):\d+: (?=\w*Warning: )", re.MULTILINE)


def run_case(main, name, argv, src):
    """Run one call; an uncaught exception is recorded as exit code `traceback`.
    A warning names its file relative to `src`, the directory nakafit is
    imported from, without the line number: `FILE: Category: message`."""
    os.makedirs(name, exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("default")  # print each warning as a fresh process would
        try:
            code = main([arg.replace("{out}", name) for arg in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "traceback"
            stderr.write(traceback.format_exception_only(exc)[-1])
    warned = _WARNING_LINE.sub(r"\1: ", stderr.getvalue().replace(src + os.sep, ""))
    for stream, text in (("stdout", stdout.getvalue()),
                         ("stderr", warned),
                         ("exit_code", f"{code}\n")):
        with open(os.path.join(name, stream), "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", required=True, help="checkout whose src/ holds nakafit")
    parser.add_argument("outdir", help="directory for inputs and outputs (created)")
    args = parser.parse_args(argv)
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    from nakafit.cli import main as nakafit_main

    os.environ["COLUMNS"] = "80"  # argparse wraps usage lines to the terminal width
    os.makedirs(args.outdir, exist_ok=True)
    os.chdir(args.outdir)
    make_inputs()
    for name, case_argv in cases():
        run_case(nakafit_main, name, case_argv, src)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
