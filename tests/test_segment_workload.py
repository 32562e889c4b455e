"""The `segment_256` benchmark workload's own output check, run in tier-1.

`benchmarks/workloads.py` is imported, not edited: `Segment256` prepares
its 16 images at a workload seed, and each command runs twice in-process
through `nakafit.cli.main`, as the benchmark worker runs it.
"""

import contextlib
import importlib.util
import io
import pathlib

import pytest

from nakafit.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(argv, output_paths):
    """(stdout, the bytes of each output file) of one command that must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue(), [pathlib.Path(path).read_bytes() for path in output_paths]


@pytest.mark.parametrize("seed", [1, 2])
def test_segment_256_outputs_repeat_and_pass_the_workload_check(tmp_path, seed):
    workload = _workloads().Segment256()
    workload.prepare(str(tmp_path), seed)
    assert len(workload.commands) == 16
    errors = []
    for index, (argv, output_paths) in enumerate(workload.commands):
        first = _run(argv, output_paths)
        assert _run(argv, output_paths) == first, f"image {index}: a second run changed the bytes"
        errors += workload.check(index, *first)
    assert errors == []
