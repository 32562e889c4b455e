"""Tests of the benchmark harness: self-time arithmetic, tracer wiring, smoke runs."""

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_nested_children():
    # A [0, 10] calls B [1, 4] and C [5, 9]; C calls D [6, 7]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert self_times(starts, ends, parents) == [3.0, 3.0, 3.0, 1.0]


def test_self_time_counts_overlap_once_and_clips_children():
    # children [1, 5] and [3, 6] overlap: together they cover [1, 6];
    # the child [8, 12] outlives its parent and only [8, 10] counts
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 5.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert self_times(starts, ends, parents) == [3.0, 4.0, 3.0, 4.0]


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import outer\n")
    (pkg / "b.py").write_text(textwrap.dedent("""
        def inner():
            return 1

        def fail():
            raise ValueError("boom")
    """))
    (pkg / "a.py").write_text(textwrap.dedent("""
        from .b import fail, inner

        TABLE = {"inner": inner}

        def outer():
            return inner() + TABLE["inner"]()

        def outer_fail():
            fail()
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakepkg"
    for name in [n for n in sys.modules if n == "fakepkg" or n.startswith("fakepkg.")]:
        del sys.modules[name]


def test_tracer_wraps_every_binding_site_and_restores_them(fake_package):
    import fakepkg
    import fakepkg.a as a
    import fakepkg.b as b

    ticks = iter(range(100))
    tracer = Tracer(package=fake_package, modules=("a", "b"), clock=lambda: float(next(ticks)))
    original = (a.inner, a.TABLE["inner"], fakepkg.outer)
    tracer.install()
    assert fakepkg.outer() == 2
    tracer.uninstall()
    assert (a.inner, a.TABLE["inner"], fakepkg.outer) == original

    # outer [0, 5] holds inner [1, 2] (module binding) and inner [3, 4] (dict binding)
    assert tracer.keys == ["a.outer", "b.inner", "b.inner"]
    assert tracer.parents == [-1, 0, 0]
    self_s, calls, _, _ = tracer.collect()
    assert self_s == {"a.outer": 3.0, "b.inner": 2.0}
    assert calls == {"a.outer": 1, "b.inner": 2}
    assert tracer.keys == []
    assert b.inner.__name__ == "inner"


def test_tracer_counts_an_error_once_per_module(fake_package):
    import fakepkg.a as a

    tracer = Tracer(package=fake_package, modules=("a", "b"))
    tracer.install()
    try:
        with pytest.raises(ValueError):
            a.outer_fail()
    finally:
        tracer.uninstall()
    _, calls, _, errors = tracer.collect()
    assert calls == {"a.outer_fail": 1, "b.fail": 1}
    assert errors == {("b", "ValueError"): 1, ("a", "ValueError"): 1}


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    self_times_s = {k: v for k, v in values.items() if k.endswith(".self_s")}
    if workload == "mc_study":
        assert values["estimators.compute_stats_per_block"] == 4.0
    elif workload == "estimate_files":
        assert values["estimators.compute_stats_per_block"] == 2.0
        assert values["blockwise.blocks_skipped"] == 2
    else:
        assert max(self_times_s, key=self_times_s.get) == "hmrf.segment.self_s"


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "mc_study", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
