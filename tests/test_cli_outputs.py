import importlib.util
import json
import os
import pathlib
import re
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
    """One run of tools/cli_outputs.py on this checkout, with 8 of its seeded
    cases, shared by the tests below."""
    out = tmp_path_factory.mktemp("cli_outputs")
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_outputs.py"), "--root", str(ROOT),
         "--random", "8", "--seed", "34", str(out)],
        check=True, timeout=120,
    )
    return out


def test_cli_outputs_script_runs_every_case(outputs):
    # one directory per case name, and no name twice; `usage_*` cases exit 2,
    # `*_fails` cases exit 1, all others exit 0
    cases = sorted(p for p in outputs.iterdir() if p.name not in ("inputs", "random"))
    assert [case.name for case in cases] == sorted(name for name, _ in _tool("cli_outputs").cases())
    for case in cases:
        expected = 2 if case.name.startswith("usage_") else 1 if case.name.endswith("_fails") else 0
        assert (case / "exit_code").read_text() == f"{expected}\n", case.name
    assert (outputs / "bench_small_grid" / "bench.csv").exists()
    assert (outputs / "segment_pgm64_nakagami_k2" / "labels.pgm").exists()


# the name of each family's --random cases
RANDOM_NAMES = {
    "segment": r"(\d{3})_(pgm|txt)_(\d+)x(\d+)_(gaussian|nakagami)_k([2-5])(_fails)?",
    "estimate": r"estimate_(\d{3})_(exact_ml|cheng_beaulieu_1|cheng_beaulieu_2|greenwood_durand"
                r"|moment_based)_([1-6])f(_fails)?",
    "bench": r"bench_(\d{3})_([1-3])m_(\d+)t_([1-4])x(\d+)",
}


def _printed(exact):
    """The text of an exact/ file with each float.hex token at %.12g, as printed."""
    return re.sub(r"-?0x[0-9a-f.]+p[-+]\d+", lambda h: format(float.fromhex(h[0]), ".12g"), exact)


def test_cli_outputs_random_cases_are_named_by_what_they_run(outputs):
    # seed 34's first 8 cases of each family; its segment cases hold both
    # formats and likelihoods, a strip each way and one image with fewer
    # distinct values than K, which must fail
    random = outputs / "random"
    cases = sorted(p.name for p in random.iterdir() if p.is_dir() and p.name != "inputs")
    lines = (random / "cases.txt").read_text().splitlines()
    assert len(cases) == len(lines) == 24
    assert "000_pgm_1x2_nakagami_k4_fails" in cases
    found = {family: [] for family in RANDOM_NAMES}
    for name in cases:
        family = name.split("_")[0] if name.startswith(("estimate_", "bench_")) else "segment"
        match = re.fullmatch(RANDOM_NAMES[family], name)
        assert match, name
        found[family].append(match.groups())
        fails = name.endswith("_fails")
        assert (random / name / "exit_code").read_text() == ("1\n" if fails else "0\n"), name
        if family == "segment":
            index, kind, height, width, likelihood, k, _ = match.groups()
            assert (random / name / "labels.pgm").exists() != fails, name
            line = f"nakafit segment --in random/inputs/{index}.{kind} --k {k} --likelihood {likelihood} "
            assert any(case.startswith(line) for case in lines), name
            if fails:  # a refused image writes no trace and prints nothing
                assert (random / name / "stdout").read_text() == "", name
                assert not (random / name / "trace.csv").exists(), name
        elif family == "estimate":
            index, method, files, _ = match.groups()
            paths = " ".join(f"random/inputs/estimate_{index}_{j}.txt" for j in range(int(files)))
            assert f"nakafit estimate --in {paths} --method {method}" in lines, name
            if not fails:  # the smoothed estimate closes the output
                stdout = (random / name / "stdout").read_text()
                assert stdout.splitlines()[-1].startswith("m_hat="), name
        else:
            index, shapes, trials, blocks, size = match.groups()
            flags = next(case for case in lines if case.endswith(f" random/{name}/bench.csv")).split()
            assert flags[:2] == ["nakafit", "bench"], name
            value = dict(zip(flags[2::2], flags[3::2]))
            assert (value["--trials"], value["--num-blocks"], value["--block-size"]) == (trials, blocks, size)
            rows = int(shapes) * len(value["--estimators"].split(","))
            assert len((random / name / "bench.csv").read_text().splitlines()) == 1 + rows, name
    assert {family: len(names) for family, names in found.items()} == dict.fromkeys(RANDOM_NAMES, 8)
    assert {groups[1] for groups in found["segment"]} == {"pgm", "txt"}
    # seed 34's estimate cases both pass and fail
    assert {groups[-1] for groups in found["estimate"]} == {None, "_fails"}


def test_cli_outputs_exact_trees_print_as_their_cases(outputs):
    # every case, fixed and seeded, is run again into <case>/exact/ with each
    # float it prints or writes as float.hex: printed back at %.12g, each text
    # file is its twin in the case directory, and the labels are the same bytes
    cases = [p.parent for p in outputs.glob("**/exact")]
    assert len(cases) == len(_tool("cli_outputs").cases()) + 24
    for case in cases:
        names = sorted(p.name for p in (case / "exact").iterdir())
        assert names == sorted(p.name for p in case.iterdir() if p.name != "exact"), case
        for name in names:
            exact, twin = case / "exact" / name, case / name
            if name.endswith(".pgm"):
                assert exact.read_bytes() == twin.read_bytes(), exact
            else:
                assert _printed(exact.read_text()) == twin.read_text(), exact
    # the hex tokens are there: 12 digits in the case, every bit in its exact tree
    for path in ("estimate_default/exact/stdout", "bench_small_grid/exact/bench.csv",
                 "bounds_default_grid/exact/stdout", "segment_pgm64_nakagami_k2/exact/stdout",
                 "segment_pgm64_nakagami_k2/exact/trace.csv"):
        assert "0x1." in (outputs / path).read_text(), path


# the fixed `estimate` cases whose squares overflow, with the refusal of each
OVERFLOW_REFUSALS = {
    f"estimate_{block}_overflow_{method}_fails": f"inputs/{path}: {message}"
    for block, path, messages in (
        ("squares", "squares_overflow.txt",
         {"exact_ml": "block values square outside the float range",
          "moment_based": "block values outside the float range of the moment estimator"}),
        ("inf", "inf_overflow_block.txt",
         dict.fromkeys(("exact_ml", "moment_based"), "sample block entries must be finite and > 0")),
    )
    for method, message in messages.items()
}


@pytest.mark.parametrize("case", OVERFLOW_REFUSALS)
def test_an_estimate_overflow_prints_its_refusal_and_no_warning(outputs, case):
    # the overflow of a square ends in the estimator's refusal; no numpy
    # RuntimeWarning is printed before it
    for stderr in (outputs / case / "stderr", outputs / case / "exact" / "stderr"):
        assert stderr.read_text() == f"error: {OVERFLOW_REFUSALS[case]}\n", stderr


def test_no_case_prints_a_warning(outputs):
    # every refusal is one `error:` line: no numpy or Python warning is
    # printed by any fixed or seeded case, in its run or its exact run
    stderrs = sorted(outputs.glob("**/stderr"))
    assert len(stderrs) == 2 * (len(_tool("cli_outputs").cases()) + 24)
    warned = [str(path.relative_to(outputs)) for path in stderrs if "Warning" in path.read_text()]
    assert not warned, warned


def test_decimal_floats_names_each_exact_line_a_print_left_in_decimal(tmp_path, monkeypatch):
    tool = _tool("cli_outputs")
    monkeypatch.chdir(tmp_path)
    for case, stdout in (("est", "block=1 m_hat=0x1.8p+1 sigma_hat=2.5\n"),
                         ("seg", "energy=-0x1.3e5p+2 sweeps=3\n"),
                         ("smp", "1.5e+00\n")):
        (tmp_path / case / "exact").mkdir(parents=True)
        (tmp_path / case / "exact" / "stdout").write_text(stdout)
    (tmp_path / "seg" / "exact" / "trace.csv").write_text("iteration,phase,energy\n0,params,1e-3\n")
    drawn = [("est", ["estimate"]), ("seg", ["segment"]), ("smp", ["sample"])]
    assert tool.decimal_floats(drawn) == [
        "est/exact/stdout: block=1 m_hat=0x1.8p+1 sigma_hat=2.5",
        "seg/exact/trace.csv: 0,params,1e-3",
    ]


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
    assert tool.run_case(warn, "case", [], src)
    assert (tmp_path / "case" / "stderr").read_text() == "nakafit/m.py: RuntimeWarning: overflow\n"
    assert not tool.run_case(lambda argv: 0, "quiet", [], src)


def test_a_case_that_warns_fails_the_run(tmp_path, monkeypatch, capsys):
    # each run of a case whose stderr holds a warning line is named, and the tool exits 1
    import nakafit.cli

    tool = _tool("cli_outputs")

    def main(argv):
        if argv == ["warns"]:
            sys.stderr.write(warnings.formatwarning("overflow", RuntimeWarning, "m.py", 75))
        return 0

    monkeypatch.setattr(nakafit.cli, "main", main)
    monkeypatch.setattr(tool, "cases", lambda: [("warns", ["warns"]), ("quiet", ["quiet"])])
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert tool.main(["--root", str(ROOT), str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "Python warning in stderr: warns/stderr",
        "Python warning in stderr: warns/exact/stderr",
    ]
