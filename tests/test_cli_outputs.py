import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "cli_outputs_digests.json"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One run of tools/cli_outputs.py on this checkout, shared by the tests below."""
    out = tmp_path_factory.mktemp("cli_outputs")
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_outputs.py"), "--root", str(ROOT), str(out)],
        check=True, timeout=120,
    )
    return out


def test_cli_outputs_script_runs_every_case(outputs):
    # one directory per case name, and no name twice; `usage_*` cases exit 2,
    # `*_fails` cases exit 1, all others exit 0
    cases = sorted(p for p in outputs.iterdir() if p.name != "inputs")
    assert [case.name for case in cases] == sorted(name for name, _ in _tool("cli_outputs").cases())
    for case in cases:
        expected = 2 if case.name.startswith("usage_") else 1 if case.name.endswith("_fails") else 0
        assert (case / "exit_code").read_text() == f"{expected}\n", case.name
    assert (outputs / "bench_small_grid" / "bench.csv").exists()
    assert (outputs / "segment_pgm64_nakagami_k2" / "labels.pgm").exists()


def test_cli_outputs_match_the_committed_digests(outputs):
    # a change that alters outputs on purpose rewrites the digest file with
    # tools/cli_digests.py in the same commit
    digests = _tool("cli_digests")
    recorded = json.loads(DIGESTS.read_text())
    found = digests.digests(outputs)
    changed = sorted(
        path for path in recorded["sha256"].keys() | found.keys()
        if recorded["sha256"].get(path) != found.get(path)
    )
    here = digests.versions()
    versions = {key: recorded[key] for key in here}
    note = "" if versions == here else f" (digests recorded under {versions}, this run has {here})"
    assert not changed, f"{len(changed)} output files changed{note}: {', '.join(changed)}"


def test_warning_lines_name_their_file_without_a_line_number(tmp_path, monkeypatch):
    tool = _tool("cli_outputs")
    src = str(tmp_path / "src")

    def warn(argv):  # writes a warning as the default warnings.showwarning does
        sys.stderr.write(warnings.formatwarning(
            "overflow", RuntimeWarning, os.path.join(src, "nakafit", "m.py"), 75))
        return 1

    monkeypatch.chdir(tmp_path)
    tool.run_case(warn, "case", [], src)
    assert (tmp_path / "case" / "stderr").read_text() == "nakafit/m.py: RuntimeWarning: overflow\n"
