import dataclasses
import math

import numpy as np
import pytest

from nakafit import BenchConfig, EstimatorKind, pgm
from nakafit.cli import _build_bench_config, build_parser, main


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


def test_estimate_missing_file_is_domain_error(capsys):
    assert run_cli(["estimate", "--in", "/nonexistent/file.txt"]) == 1
    assert "file.txt" in capsys.readouterr().err


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


def test_bench_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "# comparison study\n"
        "m_grid = 1,2\n"
        "block_size = 20\n"
        "num_blocks = 2\n"
        "trials = 10\n"
        "estimators = exact_ml\n"
        "base_seed = 4\n"
    )
    out1 = tmp_path / "o1.csv"
    assert run_cli(["bench", "--config", str(cfg), "--out", str(out1)]) == 0
    lines = out1.read_text().strip().split("\n")
    assert len(lines) == 1 + 2
    # flag overrides the file's grid
    out2 = tmp_path / "o2.csv"
    assert run_cli(["bench", "--config", str(cfg), "--m-grid", "4",
                    "--out", str(out2)]) == 0
    assert out2.read_text().strip().split("\n")[1].startswith("4,")


def test_bench_bad_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for key in ("waffles", "restarts"):
        cfg.write_text(f"{key} = 3\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["bench", "--config", str(cfg)])
        assert exc.value.code == 2
        assert key in capsys.readouterr().err


# field: (config-file text, its value, flag text, its value)
BENCH_SETTINGS = {
    "m_grid": ("0.7, 3", (0.7, 3.0), "5", (5.0,)),
    "omega": ("2.5", 2.5, "0.25", 0.25),
    "block_size": ("12", 12, "7", 7),
    "num_blocks": ("3", 3, "9", 9),
    "trials": ("25", 25, "40", 40),
    "estimators": (
        "exact_ml, moment_based",
        (EstimatorKind.EXACT_ML, EstimatorKind.MOMENT_BASED),
        "greenwood_durand",
        (EstimatorKind.GREENWOOD_DURAND,),
    ),
    "base_seed": ("6", 6, "11", 11),
}


def bench_config(argv):
    parser = build_parser()
    return _build_bench_config(parser.parse_args(["bench", *argv]), parser)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(BenchConfig)])
def test_every_bench_field_is_a_config_key_and_a_flag(tmp_path, field):
    file_text, file_value, flag_text, flag_value = BENCH_SETTINGS[field]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{field} = {file_text}\n")
    from_file = bench_config(["--config", str(cfg)])
    assert getattr(from_file, field) == file_value
    flag = "--" + field.replace("_", "-")
    assert getattr(bench_config(["--config", str(cfg), flag, flag_text]), field) == flag_value
    # every other field keeps BenchConfig's default
    default = BenchConfig()
    assert dataclasses.replace(from_file, **{field: getattr(default, field)}) == default


def test_bench_small_spread_has_no_moment_failures(capsys):
    # valid data at amplitude scale 1e-3: var(x^2) is ~1e-12 in absolute terms
    assert run_cli(["bench", "--m-grid", "2", "--trials", "20", "--omega", "1e-6"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 5
    assert all(row.split(",")[5] == "0" for row in rows)


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


def test_bounds_failing_grid_writes_nothing(tmp_path, capsys):
    # the m = 1 row is fine; m = 1e-170 fails, and no partial table is left
    out = tmp_path / "f.csv"
    assert run_cli(["bounds", "--m-grid", "1,1e-170", "--n", "10", "--out", str(out)]) == 1
    assert not out.exists()
    assert run_cli(["bounds", "--m-grid", "1,1e-170", "--n", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


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

    labels = pgm.read_matrix(tmp_path / "lab.txt").astype(int)
    acc = np.mean(labels == truth)
    assert max(acc, 1 - acc) >= 0.85

    gray = pgm.read_pgm(tmp_path / "lab.pgm")
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
