"""What `import nakafit` exports and what each `nakafit` command loads.

The package resolves its public names on first access, and `nakafit.cli`
imports the modules of `bench`, `bounds` and `segment` only when they run;
these tests pin both without timing anything.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import nakafit

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# the names that `nakafit/__init__.py` exported when it imported every
# submodule eagerly, in its import order, by the submodule that defines them
EXPORTS = {
    "blockwise": ["BlockEstimatorState", "finalize", "ingest_block"],
    "bounds": ["crlb", "crlb_modified", "normalized"],
    "errors": ["DegenerateBlockError", "NakafitError", "NoBlocksError", "NoConvergenceError",
               "OutOfRangeError"],
    "estimators": ["Estimate", "EstimatorKind", "SufficientStats", "compute_stats",
                   "estimate_block", "estimate_cheng_beaulieu_1", "estimate_cheng_beaulieu_2",
                   "estimate_greenwood_durand", "estimate_ml", "estimate_moment_based"],
    "hmrf": ["GaussianParams", "Likelihood", "SegmentResult", "segment"],
    "montecarlo": ["ALL_ESTIMATORS", "BenchConfig", "BenchRow", "emit_csv", "run_bench"],
    "nakagami": ["NakagamiParams", "as_block", "log_pdf", "sample"],
    "specfun": ["digamma", "log_gamma", "trigamma"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_all_lists_the_37_names_of_the_eager_package():
    assert len(NAMES) == 37
    assert nakafit.__all__ == NAMES


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_name_is_its_submodules_own_object(module, name):
    assert getattr(nakafit, name) is getattr(importlib.import_module(f"nakafit.{module}"), name)
    assert name in dir(nakafit)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from nakafit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(NAMES)


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        nakafit.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from nakafit import no_such_name", {})


def test_a_submodule_is_an_attribute_of_the_package():
    for module in EXPORTS:
        assert getattr(nakafit, module) is sys.modules[f"nakafit.{module}"]


# run in a fresh interpreter: the first line of argv is the command, or
# absent for a bare `import nakafit`; the last stdout line lists sys.modules
_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
if argv:
    import nakafit.cli
    code = nakafit.cli.main(argv)
else:
    import nakafit
    code = 0
print(json.dumps([code, sorted(sys.modules)]))
"""


def _loaded_after(argv, cwd):
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stderr
    assert done.stderr == ""
    return set(modules)


def _segment_image(cwd):
    rows = ("10 10 200 200", "10 12 210 200", "12 10 200 190", "10 10 200 200")
    (cwd / "image.txt").write_text("4 4\n" + "\n".join(rows) + "\n")
    return ["segment", "--in", "image.txt", "--k", "2", "--out-labels", "labels",
            "--out-trace", "trace.csv"]


def _estimate_block(cwd):
    (cwd / "block.txt").write_text("0.5\n1.25\n0.75\n1.5\n2.0\n0.9\n")
    return ["estimate", "--in", "block.txt"]


# each command, and the modules it must leave unloaded
COMMANDS = {
    "import": (lambda cwd: [], ["nakafit." + m for m in EXPORTS] + ["nakafit.cli", "numpy"]),
    "estimate": (_estimate_block, ["nakafit.hmrf", "nakafit.pgm", "nakafit.montecarlo",
                                   "nakafit.bounds", "statistics"]),
    "bench": (lambda cwd: ["bench", "--m-grid", "1", "--num-blocks", "1", "--trials", "1",
                           "--out", "bench.csv"], ["nakafit.hmrf", "nakafit.pgm"]),
    "segment": (_segment_image, ["nakafit.montecarlo", "nakafit.bounds", "nakafit.blockwise",
                                 "statistics"]),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    make_argv, unused = COMMANDS[command]
    loaded = _loaded_after(make_argv(tmp_path), tmp_path)
    assert sorted(loaded & set(unused)) == []
    if command != "import":
        assert "nakafit.cli" in loaded
