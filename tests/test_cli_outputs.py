import importlib.util
import os
import pathlib
import subprocess
import sys
import warnings

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_cli_outputs_script_runs_every_case(tmp_path):
    # `usage_*` cases exit 2, `*_fails` cases exit 1, all others exit 0
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_outputs.py"), "--root", str(ROOT), str(tmp_path)],
        check=True, timeout=120,
    )
    cases = sorted(p for p in tmp_path.iterdir() if p.name != "inputs")
    assert len(cases) == 57
    for case in cases:
        expected = 2 if case.name.startswith("usage_") else 1 if case.name.endswith("_fails") else 0
        assert (case / "exit_code").read_text() == f"{expected}\n", case.name
    assert (tmp_path / "bench_small_grid" / "bench.csv").exists()
    assert (tmp_path / "segment_pgm64_nakagami_k2" / "labels.pgm").exists()


def test_warning_lines_name_their_file_without_a_line_number(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("cli_outputs", ROOT / "tools" / "cli_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    src = str(tmp_path / "src")

    def warn(argv):  # writes a warning as the default warnings.showwarning does
        sys.stderr.write(warnings.formatwarning(
            "overflow", RuntimeWarning, os.path.join(src, "nakafit", "m.py"), 75))
        return 1

    monkeypatch.chdir(tmp_path)
    tool.run_case(warn, "case", [], src)
    assert (tmp_path / "case" / "stderr").read_text() == "nakafit/m.py: RuntimeWarning: overflow\n"
