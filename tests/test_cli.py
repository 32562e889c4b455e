import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nakafit import BenchConfig, EstimatorKind, estimate_block, pgm
from nakafit.cli import _READ_SIZE, _build_bench_config, build_parser, main


def run_cli(args):
    return main(args)


def test_sample_writes_reproducible_file(tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    for out in (out1, out2):
        assert run_cli(["sample", "--m", "1", "--omega", "1", "--n", "5",
                        "--seed", "7", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert len(lines) == 5
    assert all(float(line) > 0 for line in lines)


def test_sample_rejects_negative_m(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sample", "--m", "-1", "--n", "5"])
    assert exc.value.code == 2
    assert "--m" in capsys.readouterr().err


def test_sample_mean_square_near_omega(tmp_path):
    out = tmp_path / "s.txt"
    assert run_cli(["sample", "--m", "2", "--omega", "1", "--n", "100000",
                    "--seed", "3", "--out", str(out)]) == 0
    x = np.array([float(v) for v in out.read_text().split()])
    stderr = math.sqrt(0.5 / 100000)  # Var[x^2] = omega^2 / m
    assert abs(np.mean(x * x) - 1.0) < 3 * stderr


def test_sample_out_of_float_range_writes_nothing(tmp_path, capsys):
    # at m = 0.001 some Gamma variates underflow to 0, which is not a valid sample
    out = tmp_path / "s.txt"
    assert run_cli(["sample", "--m", "0.001", "--n", "100", "--out", str(out)]) == 1
    assert not out.exists()
    assert run_cli(["sample", "--m", "0.001", "--n", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["sample", "--m", "1", "--n", "5", "--bogus", "3"])
    assert exc.value.code == 2


def test_estimate_single_block(tmp_path, capsys):
    blk = tmp_path / "block.txt"
    assert run_cli(["sample", "--m", "1", "--omega", "1", "--n", "150",
                    "--seed", "5", "--out", str(blk)]) == 0
    before = blk.read_bytes()
    assert run_cli(["estimate", "--in", str(blk)]) == 0
    assert blk.read_bytes() == before  # inputs are never mutated
    out = capsys.readouterr().out
    final = out.strip().split("\n")[-1]
    assert final.startswith("m_hat=")
    assert "blocks=1" in final
    assert "skipped=0" in final
    m_hat = float(final.split()[0].split("=")[1])
    assert abs(m_hat - 1.0) < 0.3  # CRLB-scale band at n=150


def test_estimate_five_blocks(tmp_path, capsys):
    paths = []
    for i in range(5):
        p = tmp_path / f"b{i}.txt"
        run_cli(["sample", "--m", "2", "--n", "30", "--seed", str(i), "--out", str(p)])
        paths.append(str(p))
    assert run_cli(["estimate", "--in", *paths, "--method", "exact_ml"]) == 0
    out = capsys.readouterr().out
    assert "blocks=5" in out.strip().split("\n")[-1]
    assert out.count("block=") == 5


def test_estimate_degenerate_blocks_reported(tmp_path, capsys):
    good = tmp_path / "good.txt"
    run_cli(["sample", "--m", "1", "--n", "60", "--seed", "1", "--out", str(good)])
    flat = tmp_path / "flat.txt"
    flat.write_text("2.0\n" * 30)
    assert run_cli(["estimate", "--in", str(good), str(flat)]) == 0
    final = capsys.readouterr().out.strip().split("\n")[-1]
    assert "blocks=1" in final
    assert "skipped=1" in final


def test_estimate_out_of_range_is_domain_error(tmp_path, capsys):
    blk = tmp_path / "wide.txt"
    # delta = ln(mean x^2) - mean(ln x^2) > 17 needs astronomically spread data
    blk.write_text("1e-30\n1e30\n1.0\n")
    code = run_cli(["estimate", "--in", str(blk), "--method", "greenwood_durand"])
    assert code == 1
    assert "domain" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("method", ["exact_ml", "cheng_beaulieu_1", "cheng_beaulieu_2"])
def test_estimate_sigma_beyond_float_range_is_domain_error(tmp_path, capsys, method):
    # mean(x^2) ~ 3e306 over m_hat < 0.02: sigma_hat overflows the float range
    blk = tmp_path / "spread.txt"
    blk.write_text("4.378337766510523e-07\n3.149214563336647e-20\n3.019744578969957e+153\n")
    assert run_cli(["estimate", "--in", str(blk), "--method", method]) == 1
    out, err = capsys.readouterr()
    assert "inf" not in out
    assert "sigma_hat" in err


def test_estimate_failure_names_the_block_file(tmp_path, capsys):
    good = tmp_path / "good.txt"
    run_cli(["sample", "--m", "2", "--n", "30", "--seed", "1", "--out", str(good)])
    spread = tmp_path / "spread.txt"
    spread.write_text("4.378337766510523e-07\n3.149214563336647e-20\n3.019744578969957e+153\n")
    assert run_cli(["estimate", "--in", str(good), str(spread)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("block=1 m_hat=")
    assert err.startswith(f"error: {spread}: sigma_hat = ")


@pytest.mark.parametrize("data", [b"1.5\n2.\xbd\n", b"1.5\n2.0x\n0.7\n", b"1.5 \xc2\xa02.0\n"])
def test_estimate_unreadable_value_is_malformed(tmp_path, capsys, data):
    blk = tmp_path / "bad.txt"
    blk.write_bytes(data)
    assert run_cli(["estimate", "--in", str(blk)]) == 1
    assert capsys.readouterr().err == f"error: {blk}: malformed sample value\n"


def test_estimate_splits_on_every_ascii_separator(tmp_path, capsys):
    # CR LF, tab, form feed, vertical tab and the \x1c-\x1f separators all split values
    blk = tmp_path / "separators.txt"
    blk.write_bytes(b"1.25\r\n0.5\t2.0\r\n0.75\x1c1.1\x1f0.9\x0c1.3\x0b0.6\n")
    plain = tmp_path / "plain.txt"
    plain.write_text("1.25 0.5 2.0 0.75 1.1 0.9 1.3 0.6\n")
    assert run_cli(["estimate", "--in", str(blk)]) == 0
    assert run_cli(["estimate", "--in", str(plain)]) == 0
    first, second = capsys.readouterr().out.split("blocks=1 skipped=0\n")[:2]
    assert first == second
    assert first.startswith("block=1 m_hat=1.58520493295 sigma_hat=0.823631678694\n")


def test_estimate_missing_file_is_domain_error(capsys):
    assert run_cli(["estimate", "--in", "/nonexistent/file.txt"]) == 1
    assert "file.txt" in capsys.readouterr().err


def test_estimate_reads_a_block_file_larger_than_one_read(tmp_path, capsys):
    values = np.random.default_rng(9).gamma(2.0, 0.5, 9000) ** 0.5
    blk = tmp_path / "long.txt"
    blk.write_text("\n".join(map(repr, values.tolist())) + "\n")
    assert blk.stat().st_size > 2 * _READ_SIZE
    assert run_cli(["estimate", "--in", str(blk)]) == 0
    est = estimate_block(EstimatorKind.EXACT_ML, values)
    expected = f"block=1 m_hat={est.m_hat:.12g} sigma_hat={est.sigma_hat:.12g}\n"
    assert capsys.readouterr().out.startswith(expected)


@pytest.mark.parametrize("data, message", [
    (b"", "sample block must be non-empty"),
    (b"1.5\n2.0\ninf\n0.7\n", "sample block entries must be finite and > 0"),
    (b"inf\n", "sample block entries must be finite and > 0"),
    (b"1.5\n-0.0\n", "sample block entries must be finite and > 0"),
    (b"1.5\nnan\n", "sample block entries must be finite and > 0"),
])
@pytest.mark.parametrize("method", ["exact_ml", "moment_based"])
def test_estimate_block_rule_refusal_names_the_file(tmp_path, capsys, method, data, message):
    blk = tmp_path / "bad.txt"
    blk.write_bytes(data)
    assert run_cli(["estimate", "--in", str(blk), "--method", method]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {blk}: {message}\n"


def test_estimate_directory_is_domain_error(tmp_path, capsys):
    assert run_cli(["estimate", "--in", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_sample_count_above_maxsize_names_n(capsys):
    assert run_cli(["sample", "--m", "1", "--n", str(10**23)]) == 1
    assert capsys.readouterr().err == f"error: n must be <= {sys.maxsize}\n"


def test_bench_default_row_count(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_cli(["bench", "--m-grid", "1,2", "--trials", "25",
                    "--block-size", "20", "--num-blocks", "3",
                    "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 5  # header + grid x all five estimators


def test_bench_respects_20x7_setting(tmp_path):
    out = tmp_path / "b.csv"
    assert run_cli(["bench", "--m-grid", "1", "--trials", "10",
                    "--block-size", "20", "--num-blocks", "7",
                    "--estimators", "exact_ml", "--out", str(out)]) == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    # crlb_block at n=20 and crlb_total at n=140 differ by exactly 7x
    assert float(row[6]) == pytest.approx(7.0 * float(row[7]), rel=1e-9)


def test_bench_rerun_byte_identical(tmp_path):
    args = ["bench", "--m-grid", "0.5,1", "--trials", "30", "--block-size", "15",
            "--num-blocks", "2", "--base-seed", "9"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["--m-grid", "1", "--estimators", "exact_ml,exact_ml"],
    ["--m-grid", "1,2,1.0"],
    ["--m-grid", "4,4e0"],
], ids=["estimator", "shape", "shape_spelled_twice"])
def test_bench_repeated_shape_or_estimator_is_usage_error(capsys, argv):
    # a repeat would give two rows with one (m_true, estimator) key
    with pytest.raises(SystemExit) as exc:
        run_cli(["bench", "--trials", "5", *argv])
    assert exc.value.code == 2
    assert "must be distinct" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--block-size", "1"], "block_size must be >= 2"),
    (["--m-grid", "1", "--estimators", "exact_ml,exact_ml"], "estimators must be distinct"),
    (["--trials", "2.5"], "argument --trials: '2.5' is not an integer"),
], ids=["block_size", "repeated_estimator", "flag"])
def test_bench_usage_errors_come_from_the_bench_subcommand(capsys, argv, message):
    # a BenchConfig refusal is reported as a bad bench flag is
    with pytest.raises(SystemExit) as exc:
        run_cli(["bench", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: nakafit bench [-h] [--m-grid M_GRID]"), err
    assert err.endswith(f"\nnakafit bench: error: {message}\n"), err


# field: (flag text, its value)
BENCH_SETTINGS = {
    "m_grid": ("5", (5.0,)),
    "omega": ("0.25", 0.25),
    "block_size": ("7", 7),
    "num_blocks": ("9", 9),
    "trials": ("40", 40),
    "estimators": ("greenwood_durand", (EstimatorKind.GREENWOOD_DURAND,)),
    "base_seed": ("11", 11),
}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(BenchConfig)])
def test_every_bench_field_is_a_flag(field):
    flag_text, flag_value = BENCH_SETTINGS[field]
    args = build_parser().parse_args(["bench", "--" + field.replace("_", "-"), flag_text])
    config = _build_bench_config(args, args.parser)
    assert getattr(config, field) == flag_value
    # every other field keeps BenchConfig's default
    default = BenchConfig()
    assert dataclasses.replace(config, **{field: getattr(default, field)}) == default


def test_bench_small_spread_has_no_moment_failures(capsys):
    # valid data at amplitude scale 1e-3: var(x^2) is ~1e-12 in absolute terms
    assert run_cli(["bench", "--m-grid", "2", "--trials", "20", "--omega", "1e-6"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 5
    assert all(row.split(",")[5] == "0" for row in rows)


def test_bench_tiny_shape_counts_out_of_range_draws_as_failures(capsys):
    # at m = 0.01 about 0.06% of the variates underflow to 0: those trials
    # fail for every estimator, and the study carries on
    assert run_cli(["bench", "--m-grid", "0.01", "--trials", "200"]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.strip().split("\n")[1:]]
    assert len(rows) == 5
    failures = {row[1]: int(row[5]) for row in rows}
    sample_failures = min(failures.values())
    assert 0 < sample_failures < 200
    assert failures["exact_ml"] == sample_failures
    assert all(math.isfinite(float(row[2])) for row in rows if int(row[5]) < 200)


def test_bounds_values_and_scaling(tmp_path, capsys):
    assert run_cli(["bounds", "--m-grid", "1", "--n", "150"]) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    assert header == "m,crlb,crlb_modified,normalized_crlb,normalized_crlb_modified"
    fields = [float(v) for v in row.split(",")]
    assert fields[1] == pytest.approx(0.0103369, abs=1e-6)
    # oracle: denominator 3 - 4 ln 2 exactly at m = 1
    assert fields[2] == pytest.approx(1.0 / (150.0 * (3.0 - 4.0 * math.log(2.0))), rel=1e-9)
    assert fields[3] == fields[1]

    assert run_cli(["bounds", "--m-grid", "1", "--n", "300"]) == 0
    row2 = capsys.readouterr().out.strip().split("\n")[1]
    assert float(row2.split(",")[1]) == pytest.approx(fields[1] / 2.0, rel=1e-12)


def test_bounds_ordering_every_row(capsys):
    assert run_cli(["bounds", "--m-grid", "0.2,1,5,25", "--n", "10"]) == 0
    for line in capsys.readouterr().out.strip().split("\n")[1:]:
        f = [float(v) for v in line.split(",")]
        assert f[2] >= f[1]


def test_bounds_tiny_shape_is_domain_error(capsys):
    # psi'(m) overflows: no traceback, no bound of 0
    for m in ("1e-170", "1e-160"):
        assert run_cli(["bounds", "--m-grid", m, "--n", "10"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_bounds_large_shapes(capsys):
    # the curvature terms come from their own series: no cancellation at
    # m = 1e8, and a bound that overflows the float range is a domain error
    assert run_cli(["bounds", "--m-grid", "1e8,1e16", "--n", "10"]) == 0
    for line in capsys.readouterr().out.strip().split("\n")[1:]:
        m, lo, hi = (float(v) for v in line.split(",")[:3])
        assert lo == pytest.approx(2.0 * m * m / 10.0, rel=1e-7)
        assert hi == pytest.approx(4.0 * m * m / 10.0, rel=1e-7)
    assert run_cli(["bounds", "--m-grid", "1e160", "--n", "10"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_bounds_failing_grid_writes_nothing(tmp_path, capsys):
    # the m = 1 row is fine; m = 1e-170 fails, and no partial table is left
    out = tmp_path / "f.csv"
    assert run_cli(["bounds", "--m-grid", "1,1e-170", "--n", "10", "--out", str(out)]) == 1
    assert not out.exists()
    assert run_cli(["bounds", "--m-grid", "1,1e-170", "--n", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_bounds_sample_count_beyond_float_range_is_domain_error(capsys):
    assert run_cli(["bounds", "--m-grid", "1", "--n", "1" + "0" * 400]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n must be a positive integer, got 1{'0' * 400}\n"


def test_bounds_empty_grid_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["bounds", "--m-grid", "", "--n", "10"])
    assert exc.value.code == 2


def make_two_region_pgm(path, seed=0):
    from nakafit import NakagamiParams, sample

    left = sample(NakagamiParams.from_omega(1.0, 1.0), 32 * 16, seed=[seed, 0])
    right = sample(NakagamiParams.from_omega(8.0, 1.0), 32 * 16, seed=[seed, 1])
    img = np.hstack([left.reshape(32, 16), right.reshape(32, 16)])
    scaled = np.clip(img / img.max() * 255.0, 0, 255)
    pgm.write_pgm(path, scaled)
    truth = np.zeros((32, 32), dtype=int)
    truth[:, 16:] = 1
    return truth


def test_segment_end_to_end(tmp_path, capsys):
    img_path = tmp_path / "in.pgm"
    truth = make_two_region_pgm(img_path)
    base = tmp_path / "lab"
    trace = tmp_path / "trace.csv"
    assert run_cli(["segment", "--in", str(img_path), "--k", "2",
                    "--likelihood", "nakagami", "--seed", "1",
                    "--out-labels", str(base), "--out-trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("energy=")
    assert "sweeps=" in out

    labels = pgm.read_image(tmp_path / "lab.txt").astype(int)
    acc = np.mean(labels == truth)
    assert max(acc, 1 - acc) >= 0.85

    gray = pgm.read_image(tmp_path / "lab.pgm")
    assert set(np.unique(gray)) <= {0.0, 255.0}

    rows = trace.read_text().strip().split("\n")
    assert rows[0] == "iteration,phase,energy"
    # non-increasing within icm phases
    prev = None
    for line in rows[1:]:
        _, phase, energy = line.split(",")
        if phase == "icm" and prev is not None:
            assert float(energy) <= prev + 1e-6
        prev = float(energy) if phase == "icm" else None


def test_segment_deterministic_outputs(tmp_path):
    img_path = tmp_path / "in.pgm"
    make_two_region_pgm(img_path, seed=4)
    outputs = []
    for tag in ("x", "y"):
        base = tmp_path / f"lab_{tag}"
        trace = tmp_path / f"trace_{tag}.csv"
        assert run_cli(["segment", "--in", str(img_path), "--k", "2",
                        "--likelihood", "gaussian", "--seed", "2",
                        "--out-labels", str(base), "--out-trace", str(trace)]) == 0
        outputs.append(
            (tmp_path / f"lab_{tag}.pgm").read_bytes()
            + (tmp_path / f"lab_{tag}.txt").read_bytes()
            + trace.read_bytes()
        )
    assert outputs[0] == outputs[1]


def test_segment_all_zero_image_is_domain_error(tmp_path, capsys):
    img_path = tmp_path / "zero.pgm"
    pgm.write_pgm(img_path, np.zeros((8, 8)))
    code = run_cli(["segment", "--in", str(img_path), "--k", "2",
                    "--likelihood", "nakagami",
                    "--out-labels", str(tmp_path / "l"),
                    "--out-trace", str(tmp_path / "t.csv")])
    assert code == 1
    assert "zero" in capsys.readouterr().err


def test_segment_bad_pgm_is_domain_error(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\n\x00\x01")  # truncated raster
    code = run_cli(["segment", "--in", str(bad), "--k", "2",
                    "--out-labels", str(tmp_path / "l"),
                    "--out-trace", str(tmp_path / "t.csv")])
    assert code == 1


@pytest.mark.parametrize("beta", ["inf", "nan", "-1"])
def test_segment_bad_beta_is_usage_error(tmp_path, capsys, beta):
    img_path = tmp_path / "in.pgm"
    make_two_region_pgm(img_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(["segment", "--in", str(img_path), "--k", "2", "--beta", beta,
                 "--out-labels", str(tmp_path / "l"),
                 "--out-trace", str(tmp_path / "t.csv")])
    assert exc.value.code == 2
    assert "--beta" in capsys.readouterr().err


def test_segment_k_above_256_is_usage_error(tmp_path, capsys):
    # refused before the image is read: the input file does not exist
    with pytest.raises(SystemExit) as exc:
        run_cli(["segment", "--in", str(tmp_path / "absent.pgm"), "--k", "257",
                 "--out-labels", str(tmp_path / "l"), "--out-trace", str(tmp_path / "t.csv")])
    assert exc.value.code == 2
    assert "argument --k: '257' must be >= 2 and <= 256" in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    ("-3", "pixel intensities"), ("nan", "pixel intensities"), ("inf", "pixel intensities"),
    ("1e200", "pixel intensities"), ("1", "distinct intensities"),
])
def test_segment_image_value_refusal_names_the_file(tmp_path, capsys, value, message):
    path = tmp_path / "img.txt"
    path.write_text(f"2 2\n1 2\n1 {value}\n")
    code = run_cli(["segment", "--in", str(path), "--k", "3",
                    "--out-labels", str(tmp_path / "l"), "--out-trace", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}: ") and message in err


# Images of at most 4x4 pixels for `segment`: a PGM or a text matrix, well
# formed or with one header field or value broken, or arbitrary bytes.
_SEPARATOR = st.lists(
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"# c\n", b"#\xff\n"]),
    min_size=1, max_size=3,
).map(b"".join)


def _break_one(draw, parts, junk):
    """Replace one of `parts` by a junk value, or leave all of them."""
    where = draw(st.none() | st.integers(0, len(parts) - 1))
    if where is not None:
        parts[where] = draw(st.sampled_from(junk))
    return parts


@st.composite
def _pgm_image(draw):
    width, height = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    fields = _break_one(draw, [b"P5", b"%d" % width, b"%d" % height, b"255"],
                        [b"P2", b"", b"-1", b"0", b"256", b"1e2", b"x", b"\xff"])
    raster = draw(st.binary(min_size=width * height, max_size=width * height))
    cut = draw(st.none() | st.integers(0, width * height))
    return fields[0] + b"".join(draw(_SEPARATOR) + f for f in fields[1:]) \
        + draw(_SEPARATOR) + raster[:cut]


@st.composite
def _matrix_image(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    values = draw(st.lists(st.floats(0.0, 300.0), min_size=rows * cols, max_size=rows * cols))
    tokens = _break_one(draw, [str(rows), str(cols), *map(repr, values)],
                        ["", "-1", "2.5", "x", "\xff", "-0.0", "nan", "inf", "1e308", "1e-320"])
    return " ".join(tokens).encode("utf-8")


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.one_of(_pgm_image(), _matrix_image(), st.binary(max_size=40)),
    likelihood=st.sampled_from(["nakagami", "gaussian"]),
)
def test_segment_malformed_image_exits_cleanly(tmp_path, capsys, data, likelihood):
    path = tmp_path / "fuzz.img"
    path.write_bytes(data)
    code = run_cli(["segment", "--in", str(path), "--k", "2", "--likelihood", likelihood,
                    "--out-labels", str(tmp_path / "l"), "--out-trace", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 0 or (code == 1 and err.startswith(f"error: {path}: ")), (code, err)
