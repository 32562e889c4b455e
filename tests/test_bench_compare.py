import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def _run(seed, setup_s, units_per_s, failed=0):
    return {"workload": "segment_256", "seed": seed,
            "result": {"correct": True, "attempted": 10, "failed": failed,
                       "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                                   "units_per_s": {"value": units_per_s, "unit": "1/s"},
                                   "peak_rss_mib": {"value": 50.0, "unit": "MiB"}}}}


def _write(path, runs):
    path.write_text(json.dumps({"tag": path.stem, "runs": runs}))
    return str(path)


def _lines(capsys, tmp_path, parent, change):
    code = bench_compare.main([_write(tmp_path / "parent.json", parent),
                               _write(tmp_path / "change.json", change)])
    return code, capsys.readouterr().out.splitlines()


def test_bench_compare_counts_wins_ties_unpaired_seeds_and_a_breach(tmp_path, capsys):
    # seed 1: the change wins units_per_s; seed 2: a tie; seeds 3 and 4 have
    # no partner. setup_s doubles on every change run: a breach of its 0.25.
    parent = [_run(1, 0.10, 100.0), _run(2, 0.10, 200.0), _run(3, 0.10, 300.0)]
    change = [_run(1, 0.20, 150.0), _run(2, 0.20, 200.0), _run(4, 0.20, 300.0, failed=1)]
    code, lines = _lines(capsys, tmp_path, parent, change)
    assert code == 1
    assert lines[0] == "mc_study: no runs"
    assert lines[1] == "segment_256: 2 seed pairs; unpaired seeds: parent [3], change [4]"
    assert lines[2] == "  failed/attempted operations: parent 0/30, change 1/30"
    setup, units, rss = lines[3:6]
    assert setup.startswith("  setup_s (lower is better, bound 0.25): parent 0.1 [0.1, 0.1], "
                            "change 0.2 [0.2, 0.2]; parent IQR 0; change won 0 of 2 pairs (0 ties)")
    assert setup.endswith("change median 100.0% worse; BREACH")
    # the change's medians take the unpaired run too: 150, 200, 300 against 100, 200, 300
    assert units == ("  units_per_s (higher is better, bound 0.25): parent 200 [150, 250], "
                     "change 200 [175, 250]; parent IQR 100; change won 1 of 2 pairs (1 ties); "
                     "change median no change; within bound")
    assert rss.endswith("change won 0 of 2 pairs (2 ties); change median no change; within bound")
    assert lines[6] == "estimate_files: no runs"


def test_bench_compare_exits_0_within_every_bound(tmp_path, capsys):
    runs = [_run(seed, 0.10, 100.0) for seed in (1, 2)]
    code, lines = _lines(capsys, tmp_path, runs, runs)
    assert code == 0
    assert "BREACH" not in "\n".join(lines)
    assert lines[1] == "segment_256: 2 seed pairs; unpaired seeds: parent [], change []"


def test_bench_compare_words_each_change_in_the_metrics_direction(tmp_path, capsys):
    # a higher units_per_s and a lower setup_s are both gains
    code, lines = _lines(capsys, tmp_path, [_run(1, 0.10, 100.0)], [_run(1, 0.08, 125.0)])
    assert code == 0
    setup, units = lines[3:5]
    assert setup.endswith("change won 1 of 1 pairs (0 ties); change median 20.0% better; within bound")
    assert units.endswith("change won 1 of 1 pairs (0 ties); change median 25.0% better; within bound")


def test_bench_compare_reports_traced_runs_apart(tmp_path, capsys):
    # a traced run carries per-layer metrics only; it is counted, not paired
    traced = {"workload": "segment_256", "seed": 1, "trace": 1,
              "result": {"correct": True, "attempted": 4, "failed": 0,
                         "metrics": {"trace.overhead": {"value": 1.2, "unit": "ratio"}}}}
    untraced = [{**_run(seed, 0.10, 100.0), "trace": 0} for seed in (1, 2)]
    code, lines = _lines(capsys, tmp_path, [*untraced, traced], [*untraced, traced, traced])
    assert code == 0
    assert lines[1] == ("segment_256: traced runs, per-layer metrics only, not compared: "
                        "parent 1, change 2")
    assert lines[2] == "segment_256: 2 seed pairs; unpaired seeds: parent [], change []"
    assert lines[3] == "  failed/attempted operations: parent 0/20, change 0/20"
    assert lines[4].startswith("  setup_s (lower is better, bound 0.25): parent 0.1 [0.1, 0.1]")


def test_bench_compare_prints_a_gain_verdict_per_metric(tmp_path, capsys):
    # ten seed pairs. units_per_s: the change wins 9, loses seed 10, and its
    # median 120 beats the parent's 101.5 by more than the parent's IQR 1.
    # setup_s: the change wins 8 of 10, short of 9/10. peak_rss_mib: all ties.
    parent = [_run(seed, 0.10, 100.0 + seed % 4) for seed in range(1, 11)]
    change = [_run(seed, 0.09 if seed <= 8 else 0.11, 120.0 if seed < 10 else 90.0)
              for seed in range(1, 11)]
    code, lines = _lines(capsys, tmp_path, parent, change)
    assert code == 0
    at = lines.index("gain (won >= 9/10 of pairs, median gap > parent IQR):")
    assert lines[at + 1:] == [
        "  segment_256 setup_s: not shown: won 8 of 10 pairs, "
        "median better by 0.01 against parent IQR 0",
        "  segment_256 units_per_s: holds: won 9 of 10 pairs, "
        "median better by 18.5 against parent IQR 1",
        "  segment_256 peak_rss_mib: not shown: won 0 of 10 pairs, "
        "median better by 0 against parent IQR 0",
    ]


def test_bench_compare_leaves_a_gain_unresolved_where_the_parent_spreads_beyond_the_bound(
        tmp_path, capsys):
    # the parent's units_per_s IQR is 62.5 about a median of 100, above the
    # 0.25 bound: a 10-of-10 win tells nothing
    parent = [_run(seed, 0.10, value) for seed, value in enumerate((50.0, 75.0, 125.0, 150.0), 1)]
    change = [_run(seed, 0.10, 1000.0) for seed in range(1, 5)]
    code, lines = _lines(capsys, tmp_path, parent, change)
    assert code == 0
    assert "  segment_256 units_per_s: unresolved: parent IQR is 62.5% of its median, " \
           "above the bound 0.25" in lines


def test_quartiles_interpolate_linearly():
    assert bench_compare.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_compare.quartiles([7.0]) == (7.0, 7.0, 7.0)
