import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _record(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), *args],
        capture_output=True, text=True, timeout=170,
    )


def test_bench_record_writes_environment_and_every_result(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    common = ["--tag", "smoke", "--workloads", "mc_study", "--tiny", "--seconds", "0", "--out", str(out)]
    proc = _record(*common, "--seeds", "1,2")
    assert proc.returncode == 0, proc.stderr
    proc = _record(*common, "--seeds", "3", "--append")
    assert proc.returncode == 0, proc.stderr

    record = json.loads(out.read_text())
    assert record["tag"] == "smoke"
    assert [(r["workload"], r["seed"]) for r in record["runs"]] == [("mc_study", s) for s in (1, 2, 3)]
    for run in record["runs"]:
        assert run["command"] == (f"python3 benchmarks/run.py --workload mc_study --seed {run['seed']} "
                                  "--seconds 0 --trace 0 --tiny")
        assert {"python", "numpy", "nproc", "cpu", "load1_start", "load1_end"} <= set(run["environment"])
        assert run["result"]["correct"] and run["result"]["failed"] == 0
        assert set(run["result"]["metrics"]) == {"setup_s", "units_per_s", "peak_rss_mib"}


def test_bench_record_rejects_an_unknown_workload(tmp_path):
    proc = _record("--tag", "x", "--seeds", "1", "--workloads", "bogus", "--out", str(tmp_path / "b.json"))
    assert proc.returncode == 2
    assert "unknown workloads bogus" in proc.stderr
    assert not (tmp_path / "b.json").exists()
