"""Run a fixed list of `nakafit` CLI calls in-process and record every output.

    python tools/cli_outputs.py --root CHECKOUT [--random N --seed S] OUTDIR

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

With --random N, N seeded cases of each of `segment`, `estimate` and
`bench`, drawn with numpy only (`random_cases`), also run under
OUTDIR/random/: `segment` on odd, even and strip shapes, 8-bit PGM and
text inputs, both likelihoods, K in 2..5 and beta from 0 up to half the
pair limit; `estimate` over block files that include constant, refused
and out-of-range ones, with any --method; `bench` on small grids. They are
not pinned in the digest file; to show that a change keeps the bytes of
these commands, run the same N and S on two checkouts and compare them
with `diff -r`.

The printed values have 12 significant digits, so every case, fixed and
`--random` alike, runs a second time into OUTDIR/<case>/exact/, laid out
like the case directory, with `nakafit._format._cell`, the one
formatter of every float that `estimate`, `bench`, `bounds` and `segment`
print or write, swapped for `float.hex` and restored afterwards; the
comparison then sees a change in the last bit. `sample` prints %.12e
draws outside the formatter. After that run the tool exits 1, naming each
file and line (`decimal_floats`), if the stdout or a written CSV of an
`estimate`, `bench`, `bounds` or `segment` exact tree still holds a
decimal float outside its float.hex tokens: a print that bypasses the
formatter, or a CHECKOUT from before the exact trees were built this way.
So exact trees compare only between two checkouts that both build them
from the formatter. It also exits 1, naming each case's stderr, if the
stderr of any case, in either run, holds a Python warning line: every
refusal is one `error:` line, so a warning is a leak such as a numpy
RuntimeWarning ahead of a refusal.

Case names say what the exit code should be: `usage_*` exit 2, `*_fails`
exit 1, every other case exits 0. A call that raises anything but SystemExit
is recorded with exit code `traceback` and the exception's last line in
stderr, and the run goes on.

To add a case, add its input, if it needs a new one, as one `LITERAL`
entry (hand-written bytes) or one line of `make_inputs` (drawn from numpy),
and add one entry to `cases()`; a `segment` case is one `_segment` call.
Then rewrite `tests/cli_outputs_digests.json` with `tools/cli_digests.py`
in the same commit.
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
# the Nakagami shapes of the --random images and block files
SHAPES = (0.7, 1.0, 3.0, 8.0, 12.0)
BLOCKS = [f"inputs/block{i}.txt" for i in range(8)] + ["inputs/constant.txt", "inputs/short.txt"]

# the hand-written inputs: path -> bytes
LITERAL = {
    # blocks that block validation rejects: a signed and an unsigned zero, and a NaN
    "inputs/nonpositive.txt": b"1.5\n2.0\n-0.0\n0\n0.7\n",
    "inputs/nan.txt": b"1.5\n2.0\nnan\n0.7\n",
    # a valid block whose sigma_hat = mean(x^2) / m_hat overflows the float range
    "inputs/spread.txt": b"4.378337766510523e-07\n3.149214563336647e-20\n3.019744578969957e+153\n",
    # valid blocks whose squares overflow to inf and underflow to 0
    "inputs/squares_overflow.txt": b"1e200\n2e200\n3e200\n",
    "inputs/squares_underflow.txt": b"1e-300\n2e-300\n3e-300\n",
    # 4x4 ramp: 24 neighbor pairs, so beta = 1e308 overflows the pair term
    "inputs/ramp4.pgm": b"P5\n4 4\n255\n" + bytes(range(10, 170, 10)),
    # a text matrix whose `rows cols` header is not two integers >= 1
    "inputs/negative_dims.txt": b"-1 0\n",
    # 4x4 text matrix with a constant class at 1.5e-161, whose squares are
    # subnormal: the Nakagami bootstrap spread mean(x^2) / 1e4 underflows to 0
    "inputs/subnormal_squares.txt":
        b"4 4\n" + b"1.5e-161 1.5e-161 1.5e-161 1.5e-161\n" * 2 + b"5 5 5 5\n5 5 5 6\n",
    # block files: a non-ASCII byte, a token that is not a number, and values
    # split by every ASCII separator str.split knows
    "inputs/not_ascii_block.txt": b"1.5\n2.\xbd\n",
    "inputs/malformed_block.txt": b"1.5\n2.0x\n0.7\n",
    "inputs/separators_block.txt": b"1.25\r\n0.5\t2.0\r\n0.75\x1c1.1\x1f0.9\x0c1.3\x0b0.6\n",
    # block files the estimator refuses: an inf among finite values, one inf
    # alone, no values at all, and an inf beside a value whose square overflows
    "inputs/inf_block.txt": b"1.5\n2.0\ninf\n0.7\n",
    "inputs/one_inf_block.txt": b"inf\n",
    "inputs/empty_block.txt": b"",
    "inputs/inf_overflow_block.txt": b"1.5\n2e154\ninf\n0.7\n",
    # a PGM whose width and height are "+2" and "1_0", which int() would read as 2 and 10
    "inputs/signed_dims.pgm": b"P5 +2 1_0 255\n" + bytes(range(10, 210, 10)),
    # a maxval-100 PGM holding a 255 byte
    "inputs/above_maxval.pgm": b"P5\n4 4\n100\n" + bytes([10, 20, 30, 40] * 3 + [50, 60, 70, 255]),
    # a 2x2 text matrix whose last value is written in UTF-8, not ASCII
    "inputs/not_ascii.txt": "2 2\n1 2\n3 ½\n".encode("utf-8"),
    # a PGM that ends after its height: the header has no maxval
    "inputs/truncated_header.pgm": b"P5 2",
    # a PGM whose width is 5,000 digits, more than int() converts
    "inputs/huge_width.pgm": b"P5 " + b"1" * 5000 + b" 2 255\n" + bytes(40),
    # a 1x2 text matrix whose last value is not a number
    "inputs/not_a_number.txt": b"1 2\n0.5 x\n",
    # a 2x2 text matrix holding a negative value, which segment refuses
    "inputs/negative_value.txt": b"2 2\n1 2\n3 -3\n",
    # a 3x6 text matrix of pixels near 1e-160 beside pixels near 300: a class
    # fitted to the small pixels is so narrow that the large ones cost +inf
    # there, under two such classes at once when K = 3
    "inputs/inf_costs.txt": b"3 6\n"
        b"1e-160 2e-160 1.5e-160 3e-160 300 310\n"
        b"1.2e-160 2.5e-160 1e-160 290 305 300\n"
        b"1e-160 1.1e-160 295 300 300 320\n",
    # `--random 512 --seed 9032`'s case 097, a 5x1 column: at its beta, half
    # the pair limit, the two classes' costs tie, so ties going to the higher
    # class would label every pixel 1, not 0
    "inputs/tie_5x1.txt":
        b"5 1\n0.0443895211648\n0.0414167846815\n0.0370926161753\n0.0380462573697\n0.0353096954681\n",
}
# a directory given where a block file or an image is expected
DIRECTORY = "inputs/a_directory"


def _nakagami(rng, m, n):
    """n Nakagami draws at shape m and Omega = 1."""
    return np.sqrt(rng.gamma(shape=m, scale=1.0 / m, size=n))


def _bands(rng, rows, bands):
    """A rows-high image of side-by-side Nakagami bands, one per (m, width),
    drawn left to right."""
    return np.hstack([_nakagami(rng, m, rows * w).reshape(rows, w) for m, w in bands])


def _levels(img):
    """round(85 x), clipped into the 8-bit range."""
    return np.clip(np.rint(85.0 * img), 0.0, 255.0).astype(np.uint8)


def _pgm(raster, header=None):
    """A binary PGM; the header defaults to `P5\\nW H\\n255\\n`."""
    rows, cols = raster.shape
    return (header or f"P5\n{cols} {rows}\n255\n".encode("ascii")) + raster.tobytes()


def _matrix(img):
    """A text matrix: a `rows cols` line, then one line of %.12g values per row."""
    lines = (" ".join(format(v, ".12g") for v in row) + "\n" for row in img)
    return (f"{img.shape[0]} {img.shape[1]}\n" + "".join(lines)).encode("ascii")


def _lines(values):
    """A block file: one %.12e value per line."""
    return "".join(format(v, ".12e") + "\n" for v in values).encode("ascii")


def make_inputs():
    """Write every input file under inputs/: the LITERAL ones and the ones
    drawn from numpy, each stream drawn in a fixed order."""
    rng = np.random.default_rng(20260101)
    drawn = {path: _lines(_nakagami(rng, 2.0, 30)) for path in BLOCKS[:8]}
    drawn[BLOCKS[8]] = _lines([2.5] * 30)
    drawn[BLOCKS[9]] = _lines(_nakagami(rng, 0.6, 4))
    # 64x64: m = 1 on the left half, m = 8 on the right, scaled into [1, 255]
    img = _bands(rng, 64, ((1.0, 32), (8.0, 32)))
    raster = np.rint(np.clip(img / img.max() * 255.0, 1.0, 255.0)).astype(np.uint8)
    drawn["inputs/two_region.pgm"] = _pgm(raster)
    # the same raster behind a header with CR LF, a tab and two comments
    drawn["inputs/two_region_comments.pgm"] = _pgm(
        raster, b"P5\r\n# two regions\n64\t64 # w h\n255\n")
    # 48x48: three vertical bands at m = 0.7, 3 and 12
    drawn["inputs/three_region.txt"] = _matrix(_bands(rng, 48, ((0.7, 16), (3.0, 16), (12.0, 16))))
    # the benchmark's segment shape: 256x256, m = 1 on the left half, m = 8 on
    # the right, ~250 distinct levels, and 0.2% of the pixels set to zero
    raster = _levels(_bands(rng, 256, ((1.0, 128), (8.0, 128))))
    raster[rng.random(raster.shape) < 0.002] = 0
    drawn["inputs/two_region_256.pgm"] = _pgm(raster)
    # the segment_256 workload's recipe for its first image at seed 7
    img = _bands(np.random.default_rng([7, 256, 0]), 256, ((1.0, 128), (8.0, 128)))
    drawn["inputs/two_region_256_bench.pgm"] = _pgm(_levels(img))
    # 37x23 and 128x128 each from a stream of their own, so the inputs above
    # stay as they were; 37x23 has odd sides, so the checkerboard colors differ in size
    img = _bands(np.random.default_rng(3723), 37, ((0.7, 8), (3.0, 8), (12.0, 7)))
    drawn["inputs/three_region_37x23.txt"] = _matrix(img)
    # 128x128: ~16k distinct values, so the class sums run over as many terms as pixels
    img = _bands(np.random.default_rng(128128), 128, ((0.7, 43), (3.0, 43), (12.0, 42)))
    drawn["inputs/three_region_128.txt"] = _matrix(img)
    # odd widths leave one color's rows a pixel short in the packed checkerboard:
    # a 64x63 8-bit PGM, its 63x64 transpose, and a 2x3 text matrix
    raster = _levels(_bands(np.random.default_rng(6463), 64, ((1.0, 31), (8.0, 32))))
    drawn["inputs/two_region_64x63.pgm"] = _pgm(raster)
    drawn["inputs/two_region_63x64.pgm"] = _pgm(np.ascontiguousarray(raster.T))
    drawn["inputs/ragged_2x3.txt"] = _matrix(_bands(np.random.default_rng(33), 2, ((1.0, 3),)))
    os.makedirs(DIRECTORY, exist_ok=True)
    for path, data in {**LITERAL, **drawn}.items():
        with open(path, "wb") as fh:
            fh.write(data)


def _segment(name, image, *flags):
    """A `segment` case on `image`: flags, then the labels and trace outputs."""
    return (name, ["segment", "--in", image, *flags,
                   "--out-labels", "{out}/labels", "--out-trace", "{out}/trace.csv"])


def cases():
    """(name, argv) for every call; `{out}` is replaced by the case directory."""
    small_grid = ["--m-grid", "1,4", "--omega", "2", "--block-size", "12", "--num-blocks", "3",
                  "--trials", "30", "--estimators", "exact_ml,moment_based", "--base-seed", "5"]
    return [
        ("sample", ["sample", "--m", "2", "--omega", "1", "--n", "20", "--seed", "7"]),
        ("sample_file", ["sample", "--m", "0.5", "--n", "20", "--seed", "3", "--out", "{out}/s.txt"]),
        ("sample_tiny_m_fails", ["sample", "--m", "0.001", "--n", "100", "--out", "{out}/s.txt"]),
        ("sample_n_above_maxsize_fails", ["sample", "--m", "1", "--n", "100000000000000000000000"]),
        ("bench_default_grid", ["bench", "--trials", "30"]),
        ("bench_small_grid", ["bench", *small_grid, "--out", "{out}/bench.csv"]),
        ("bench_small_omega", ["bench", "--m-grid", "2", "--trials", "30", "--omega", "1e-6"]),
        ("bench_tiny_m", ["bench", "--m-grid", "0.01", "--trials", "100"]),
        # the sums of squares overflow: every estimator refuses every trial, with no warning
        ("bench_huge_omega", ["bench", "--omega", "1e307", "--m-grid", "0.5", "--trials", "5"]),
        # mean(x^2)^2 underflows to 0: the moment estimator refuses every
        # trial, the delta estimators none, with no warning
        ("bench_tiny_omega", ["bench", "--m-grid", "1,4", "--omega", "1e-200", "--trials", "5"]),
        # the bound at m = 1e300 is not a finite float: no CSV is written
        ("bench_huge_m_fails",
         ["bench", "--m-grid", "1,1e300", "--trials", "5", "--out", "{out}/bench.csv"]),
        # the mc_study workload's command at base seed 7
        ("bench_mc_study", ["bench", "--m-grid", "0.5,1,2,4,8,16", "--omega", "1",
                            "--block-size", "30", "--num-blocks", "5", "--trials", "200",
                            "--estimators", ",".join(ESTIMATORS), "--base-seed", "7"]),
        ("estimate_default", ["estimate", "--in", *BLOCKS]),
        *((f"estimate_{m}", ["estimate", "--in", *BLOCKS, "--method", m]) for m in ESTIMATORS),
        ("estimate_nonpositive_fails", ["estimate", "--in", BLOCKS[0], "inputs/nonpositive.txt"]),
        ("estimate_nan_fails", ["estimate", "--in", BLOCKS[0], "inputs/nan.txt"]),
        ("estimate_sigma_overflow_fails",
         ["estimate", "--in", "inputs/spread.txt", "--method", "exact_ml"]),
        *((f"estimate_squares_{name}_{m}_fails",
           ["estimate", "--in", f"inputs/squares_{name}.txt", "--method", m])
          for name in ("overflow", "underflow") for m in ("exact_ml", "moment_based")),
        ("estimate_not_ascii_fails", ["estimate", "--in", "inputs/not_ascii_block.txt"]),
        ("estimate_malformed_fails", ["estimate", "--in", "inputs/malformed_block.txt"]),
        ("estimate_missing_file_fails", ["estimate", "--in", "inputs/missing_block.txt"]),
        ("estimate_ascii_separators", ["estimate", "--in", "inputs/separators_block.txt"]),
        ("estimate_inf_entry_fails", ["estimate", "--in", BLOCKS[0], "inputs/inf_block.txt"]),
        ("estimate_empty_fails", ["estimate", "--in", "inputs/empty_block.txt"]),
        ("estimate_directory_fails", ["estimate", "--in", DIRECTORY]),
        *((f"estimate_{name}_moment_based_fails",
           ["estimate", "--in", path, "--method", "moment_based"])
          for name, path in (("nonpositive", "inputs/nonpositive.txt"), ("nan", "inputs/nan.txt"),
                             ("one_inf", "inputs/one_inf_block.txt"))),
        *((f"estimate_inf_overflow_{m}_fails",
           ["estimate", "--in", "inputs/inf_overflow_block.txt", "--method", m])
          for m in ("exact_ml", "moment_based")),
        ("bounds_default_grid", ["bounds", "--m-grid", "0.5,1,2,4,8,16", "--n", "150"]),
        ("bounds_tiny_fails",
         ["bounds", "--m-grid", "1,1e-170", "--n", "10", "--out", "{out}/b.csv"]),
        ("bounds_small_m", ["bounds", "--m-grid", "0.001,0.01,0.1,1,31.999,32", "--n", "10"]),
        ("bounds_large_m", ["bounds", "--m-grid", "32,100,1e4,1e8,1e16", "--n", "10"]),
        ("bounds_huge_m_fails", ["bounds", "--m-grid", "1e160", "--n", "10"]),
        # a sample count of 10**400, beyond the float range
        ("bounds_huge_n_fails", ["bounds", "--m-grid", "1", "--n", "1" + "0" * 400]),
        *(_segment(f"segment_{image}_{likelihood}_k{k}", path,
                   "--k", k, "--likelihood", likelihood, "--seed", "1")
          for image, path in (("pgm64", "inputs/two_region.pgm"),
                              ("txt48", "inputs/three_region.txt"))
          for likelihood in ("nakagami", "gaussian") for k in ("2", "3")),
        _segment("segment_pgm64_comment_header", "inputs/two_region_comments.pgm",
                 "--k", "2", "--likelihood", "nakagami", "--seed", "1"),
        _segment("segment_pgm256_nakagami_k2", "inputs/two_region_256.pgm",
                 "--k", "2", "--likelihood", "nakagami", "--seed", "1"),
        # the segment_256 workload's command on its first image at seed 7
        _segment("segment_pgm256_bench_nakagami_k2", "inputs/two_region_256_bench.pgm",
                 "--k", "2", "--likelihood", "nakagami", "--beta", "1", "--seed", "112"),
        *(_segment(f"segment_txt128_{likelihood}_k3", "inputs/three_region_128.txt",
                   "--k", "3", "--likelihood", likelihood, "--seed", "1")
          for likelihood in ("nakagami", "gaussian")),
        _segment("segment_pgm64_nakagami_k4_beta0", "inputs/two_region.pgm",
                 "--k", "4", "--likelihood", "nakagami", "--beta", "0", "--seed", "1"),
        _segment("segment_txt_odd_nakagami_k3", "inputs/three_region_37x23.txt",
                 "--k", "3", "--likelihood", "nakagami", "--seed", "1"),
        _segment("segment_pgm64x63_nakagami_k5", "inputs/two_region_64x63.pgm",
                 "--k", "5", "--likelihood", "nakagami", "--seed", "1"),
        _segment("segment_pgm63x64_gaussian_k2", "inputs/two_region_63x64.pgm",
                 "--k", "2", "--likelihood", "gaussian", "--seed", "1"),
        _segment("segment_txt2x3_nakagami_k2", "inputs/ragged_2x3.txt",
                 "--k", "2", "--likelihood", "nakagami", "--seed", "1"),
        _segment("segment_subnormal_squares_nakagami_k2", "inputs/subnormal_squares.txt",
                 "--k", "2", "--likelihood", "nakagami"),
        *(_segment(f"segment_inf_costs_{likelihood}_k{k}", "inputs/inf_costs.txt",
                   "--k", k, "--likelihood", likelihood, "--seed", "1")
          for likelihood in ("nakagami", "gaussian") for k in ("2", "3")),
        _segment("segment_huge_beta_fails", "inputs/ramp4.pgm", "--k", "2", "--beta", "1e308"),
        *(_segment(f"segment_{name}_fails", path, "--k", "2")
          for name, path in (("matrix_negative_dims", "inputs/negative_dims.txt"),
                             ("pgm_signed_dims", "inputs/signed_dims.pgm"),
                             ("pgm_above_maxval", "inputs/above_maxval.pgm"),
                             ("matrix_not_ascii", "inputs/not_ascii.txt"),
                             ("pgm_truncated_header", "inputs/truncated_header.pgm"),
                             ("pgm_huge_width", "inputs/huge_width.pgm"),
                             ("matrix_not_a_number", "inputs/not_a_number.txt"),
                             ("matrix_negative_value", "inputs/negative_value.txt"),
                             ("missing_image", "inputs/missing_image.pgm"),
                             ("directory", DIRECTORY))),
        # ramp4.pgm holds 16 distinct intensities, fewer than 17 classes
        _segment("segment_k_above_distinct_fails", "inputs/ramp4.pgm", "--k", "17"),
        _segment("segment_tie_nakagami_k2", "inputs/tie_5x1.txt", "--k", "2",
                 "--likelihood", "nakagami", "--beta", "5.253808233850028e+306", "--seed", "658"),
        ("usage_sample_negative_m", ["sample", "--m", "-1", "--n", "5"]),
        ("usage_sample_m_not_a_number", ["sample", "--m", "abc", "--n", "5"]),
        ("usage_bench_trials_not_an_integer", ["bench", "--trials", "2.5"]),
        ("usage_bench_bad_estimator", ["bench", "--estimators", "bogus"]),
        ("usage_bench_repeated_estimator",
         ["bench", "--m-grid", "1", "--trials", "5", "--estimators", "exact_ml,exact_ml"]),
        ("usage_bounds_empty_grid", ["bounds", "--m-grid", "", "--n", "10"]),
        # bench takes its study from flags only: --config is not one of them
        ("usage_bench_config_unrecognized", ["bench", "--config", "study.cfg"]),
        # 2,304 distinct values: more than --k, so only the 256-level PGM limit refuses 257
        _segment("usage_segment_k_above_256", "inputs/three_region.txt", "--k", "257"),
    ]



def random_cases(count, seed):
    """`count` seeded cases of each family, `segment`, `estimate` and
    `bench`, under random/, drawn with numpy only and each family from a
    stream of its own, so a family's cases for a given count and seed stay
    as they are when another family changes: writes each case's inputs
    under random/inputs/ and its command line to random/cases.txt, and
    returns (name, argv) for each case."""
    os.makedirs("random/inputs", exist_ok=True)
    drawn = [*_random_segments(np.random.default_rng(seed), count),
             *_random_estimates(np.random.default_rng([seed, 1]), count),
             *_random_benches(np.random.default_rng([seed, 2]), count)]
    with open("random/cases.txt", "w", encoding="ascii") as fh:
        for name, argv in drawn:
            fh.write(" ".join(["nakafit"] + [arg.replace("{out}", name) for arg in argv]) + "\n")
    return drawn


def _random_segments(rng, count):
    """`count` `segment` cases. An image is side-by-side Nakagami bands, 1
    to 3 of them, each of its own shape and scale. Both sides are drawn
    from 2..64, so either parity; a third of the images are one-row or
    one-column strips. Half are 8-bit PGMs, half text matrices scaled by
    10^u, u in [-3, 3]. Each case draws the likelihood, K in 2..5, the
    k-means seed, and beta: 0, 10^u for u in [-2, 2], or up to half of the
    largest float over the image's 4-neighbor pair count. A case whose
    image holds fewer distinct values than K is named `*_fails`."""
    drawn = []
    for i in range(count):
        height, width = (int(n) for n in rng.integers(2, 65, size=2))
        strip = int(rng.integers(6))
        height, width = (1, width) if strip == 0 else (height, 1) if strip == 1 else (height, width)
        parts = np.array_split(np.arange(width), int(rng.integers(1, 4)))
        shapes = rng.choice(SHAPES, len(parts))
        img = np.hstack([rng.choice((0.5, 1.0, 2.0)) * _bands(rng, height, ((m, part.size),))
                         for m, part in zip(shapes, parts)])
        kind = ("pgm", "txt")[int(rng.integers(2))]
        data = _pgm(_levels(img)) if kind == "pgm" else _matrix(img * 10.0 ** rng.uniform(-3, 3))
        path = f"random/inputs/{i:03d}.{kind}"
        with open(path, "wb") as fh:
            fh.write(data)
        # the values the CLI reads back: the PGM's bytes, or the matrix's tokens
        values = (np.frombuffer(data[-height * width:], np.uint8) if kind == "pgm"
                  else [float(t) for t in data.split()[2:]])
        likelihood = ("gaussian", "nakagami")[int(rng.integers(2))]
        k = int(rng.integers(2, 6))
        pairs = 2 * height * width - height - width
        beta = (0.0, 10.0 ** rng.uniform(-2, 2),
                rng.uniform(0, 0.5) * sys.float_info.max / pairs)[int(rng.integers(3))]
        fails = "_fails" if np.unique(values).size < k else ""
        name = f"random/{i:03d}_{kind}_{height}x{width}_{likelihood}_k{k}{fails}"
        drawn.append(_segment(name, path, "--k", str(k), "--likelihood", likelihood,
                              "--beta", repr(float(beta)), "--seed", str(int(rng.integers(1000)))))
    return drawn


# the kinds of block file an `estimate` case draws, with their odds; every
# --method refuses the five after "constant"
BLOCK_KINDS = ("nakagami", "constant", "zero", "inf", "nan", "huge", "tiny")
BLOCK_ODDS = (0.7, 0.12, 0.036, 0.036, 0.036, 0.036, 0.036)


def _random_estimates(rng, count):
    """`count` `estimate` cases, each over 1 to 6 block files and with a
    drawn --method. A file holds 1 to 60 Nakagami draws at a shape of the
    segment family's and a scale 10^u, u in [-3, 3], or one such scale
    repeated (constant). The refused kinds hold 2 to 60 draws: one entry
    set to 0, inf or NaN, one entry 10^u with u in [155, 308], whose square
    overflows, or every entry scaled by 10^u with u in [-280, -200], so
    that every square underflows to 0. A block of one value, or of one
    value repeated, is skipped as degenerate. A case that holds a refused
    file, or whose every file is skipped, is named `*_fails`."""
    drawn = []
    for i in range(count):
        method = ESTIMATORS[int(rng.integers(len(ESTIMATORS)))]
        paths, refused, skipped = [], False, 0
        for j in range(int(rng.integers(1, 7))):
            kind = str(rng.choice(BLOCK_KINDS, p=BLOCK_ODDS))
            size = int(rng.integers(1 if kind in ("nakagami", "constant") else 2, 61))
            scale = 10.0 ** rng.uniform(-3, 3)
            values = (np.full(size, scale) if kind == "constant"
                      else scale * _nakagami(rng, rng.choice(SHAPES), size))
            if kind in ("zero", "inf", "nan"):
                values[rng.integers(size)] = {"zero": 0.0, "inf": np.inf, "nan": np.nan}[kind]
            elif kind == "huge":
                values[rng.integers(size)] = 10.0 ** rng.uniform(155, 308)
            elif kind == "tiny":
                values *= 10.0 ** rng.uniform(-280, -200)
            refused = refused or kind not in ("nakagami", "constant")
            skipped += kind == "constant" or size == 1
            paths.append(f"random/inputs/estimate_{i:03d}_{j}.txt")
            with open(paths[-1], "wb") as fh:
                fh.write(_lines(values))
        fails = "_fails" if refused or skipped == len(paths) else ""
        name = f"random/estimate_{i:03d}_{method}_{len(paths)}f{fails}"
        drawn.append((name, ["estimate", "--in", *paths, "--method", method]))
    return drawn


def _random_benches(rng, count):
    """`count` `bench` cases: 1 to 3 shapes 10^u, u in [-0.5, 1.3], at
    --omega 10^u, u in [-3, 3]; 2 to 20 trials of 1 to 4 blocks of 2 to 40
    values; 1 to 5 of the estimators, in a drawn order; and a base seed.
    Every bound at those shapes is finite, so every case exits 0."""
    drawn = []
    for i in range(count):
        shapes = (10.0 ** rng.uniform(-0.5, 1.3, int(rng.integers(1, 4)))).tolist()
        omega = float(10.0 ** rng.uniform(-3, 3))
        trials, blocks, size = (int(rng.integers(low, high)) for low, high in ((2, 21), (1, 5), (2, 41)))
        order = rng.permutation(len(ESTIMATORS))[: int(rng.integers(1, len(ESTIMATORS) + 1))]
        name = f"random/bench_{i:03d}_{len(shapes)}m_{trials}t_{blocks}x{size}"
        drawn.append((name, [
            "bench", "--m-grid", ",".join(map(repr, shapes)), "--omega", repr(omega),
            "--block-size", str(size), "--num-blocks", str(blocks), "--trials", str(trials),
            "--estimators", ",".join(ESTIMATORS[k] for k in order),
            "--base-seed", str(int(rng.integers(1000))),
            "--out", "{out}/bench.csv"]))
    return drawn


# a float.hex token, and a decimal float: the self-check finds the second
# in an exact/ tree once the first is removed
_HEX = re.compile(r"-?0x[0-9a-f.]+p[-+]\d+")
_DECIMAL = re.compile(r"\d\.\d|\de[-+]?\d")


def decimal_floats(every):
    """`FILE: LINE` for each line of an `estimate`, `bench`, `bounds` or
    `segment` case's exact/ tree, in its stdout or a CSV it wrote, that
    holds a decimal float outside its float.hex tokens: a print that does
    not go through `_format._cell`, or a checkout from before it did."""
    found = []
    for name, argv in every:
        if argv[0] not in ("estimate", "bench", "bounds", "segment"):
            continue  # `sample` prints %.12e draws, outside the formatter
        exact = os.path.join(name, "exact")
        for file in sorted(os.listdir(exact)):
            if file == "stdout" or file.endswith(".csv"):
                with open(os.path.join(exact, file), encoding="utf-8") as fh:
                    found += (f"{exact}/{file}: {line.rstrip()}" for line in fh
                              if _DECIMAL.search(_HEX.sub("", line)))
    return found


# the `FILE:LINE: ` that starts a warning's first line, as warnings.formatwarning writes it
_WARNING_LINE = re.compile(r"^(\S+\.py):\d+: (?=\w*Warning: )", re.MULTILINE)


def run_case(main, name, argv, src):
    """Run one call; an uncaught exception is recorded as exit code `traceback`.
    A warning names its file relative to `src`, the directory nakafit is
    imported from, without the line number: `FILE: Category: message`.
    Returns whether the call's stderr held a Python warning line."""
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
    warned, warnings_found = _WARNING_LINE.subn(r"\1: ", stderr.getvalue().replace(src + os.sep, ""))
    for stream, text in (("stdout", stdout.getvalue()),
                         ("stderr", warned),
                         ("exit_code", f"{code}\n")):
        with open(os.path.join(name, stream), "w", encoding="utf-8") as fh:
            fh.write(text)
    return warnings_found > 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", required=True, help="checkout whose src/ holds nakafit")
    parser.add_argument("outdir", help="directory for inputs and outputs (created)")
    parser.add_argument("--random", type=int, default=0, metavar="N",
                        help="also run N seeded segment, estimate and bench cases each under OUTDIR/random/")
    parser.add_argument("--seed", type=int, default=0, help="seed of the --random cases")
    args = parser.parse_args(argv)
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    from nakafit import _format
    from nakafit.cli import main as nakafit_main

    os.environ["COLUMNS"] = "80"  # argparse wraps usage lines to the terminal width
    os.makedirs(args.outdir, exist_ok=True)
    os.chdir(args.outdir)
    make_inputs()
    every = cases() + (random_cases(args.random, args.seed) if args.random else [])
    warned = [name for name, case_argv in every if run_case(nakafit_main, name, case_argv, src)]
    decimal = _format._cell
    _format._cell = lambda v: v.hex() if isinstance(v, float) else decimal(v)
    try:
        warned += [f"{name}/exact" for name, case_argv in every
                   if run_case(nakafit_main, f"{name}/exact", case_argv, src)]
    finally:
        _format._cell = decimal
    stale = decimal_floats(every)
    for line in stale:
        print(f"decimal float outside float.hex: {line}", file=sys.stderr)
    for name in warned:
        print(f"Python warning in stderr: {name}/stderr", file=sys.stderr)
    return 1 if stale or warned else 0


if __name__ == "__main__":
    raise SystemExit(main())
