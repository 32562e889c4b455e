"""Compare two `tools/bench_record.py` files, run by run and metric by metric.

    python tools/bench_compare.py PARENT.json CHANGE.json

For each workload and each end-to-end metric in BENCHMARK.json (at the root
of the checkout holding this script), prints each side's median and
quartiles, the parent's interquartile distance, how many seed-paired runs
the change won (the metric's `better` gives the direction; ties count for
neither side), and whether the change's median is worse than the parent's
by more than the metric's `bound`, taken as a relative difference. Each
change is worded in the metric's own direction: "12.0% better" is a 12%
higher median of a higher-is-better metric or a 12% lower one of a
lower-is-better metric. Runs pair by workload and seed, in the order each
file holds them; a run with no partner is listed as unpaired and counts
only in the medians. Also prints each side's failed and attempted
operations. Traced runs (`bench_record.py --trace 1`) carry per-layer
metrics only: they are counted on a line of their own and left out of
everything else.

Last comes the gain verdict of each compared metric. A gain holds where
the change won at least 9 of every 10 seed pairs and its median is
better than the parent's by more than the parent's interquartile
distance. It is unresolved where that distance, relative to the parent's
median, exceeds the metric's bound: the parent's runs spread too widely
to tell. Exits 1 if any metric breaches its bound, else 0.
"""

import argparse
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

HERE_ROOT = Path(__file__).resolve().parents[1]


def _at(ordered, q):
    """The q-quantile of the sorted list `ordered`, interpolated linearly
    (numpy's default rule)."""
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values):
    """(first quartile, median, third quartile) of `values`."""
    ordered = sorted(values)
    return tuple(_at(ordered, q) for q in (0.25, 0.5, 0.75))


def _by_seed(runs, workload):
    """The untraced runs of `workload` keyed by (seed, occurrence of that seed)."""
    keyed, seen = {}, defaultdict(int)
    for run in runs:
        if run["workload"] == workload and not run.get("trace"):
            keyed[run["seed"], seen[run["seed"]]] = run["result"]
            seen[run["seed"]] += 1
    return keyed


def worse_by(parent, change, better):
    """How much worse `change` is than `parent`, relative to `parent`:
    positive when worse in the metric's direction."""
    gap = change - parent if better == "lower" else parent - change
    if parent:
        return gap / abs(parent)
    return math.copysign(math.inf, gap) if gap else 0.0


def _worded(worse):
    """A `worse_by` value in words: "4.0% worse", "4.0% better" or "no change"."""
    if not worse:
        return "no change"
    return f"{abs(worse):.1%} {'worse' if worse > 0 else 'better'}"


def gain_verdict(parent_quartiles, change_median, wins, pairs, better, bound):
    """Whether the change shows a gain: "holds", "not shown" or
    "unresolved", with the figures it rests on."""
    p1, pm, p3 = parent_quartiles
    iqr = p3 - p1
    spread = iqr / abs(pm) if pm else (math.inf if iqr else 0.0)
    if spread > bound:
        return f"unresolved: parent IQR is {spread:.1%} of its median, above the bound {bound:g}"
    gap = change_median - pm if better == "higher" else pm - change_median
    holds = 10 * wins >= 9 * pairs > 0 and gap > iqr
    return (f"{'holds' if holds else 'not shown'}: won {wins} of {pairs} pairs, "
            f"median {'better' if gap >= 0 else 'worse'} by {abs(gap):.6g} against parent IQR {iqr:.6g}")


def compare(spec, parent_runs, change_runs, out):
    """Print the comparison of the two run lists to `out`; returns the
    number of metrics whose change median breaches its bound."""
    breaches = 0
    verdicts = []
    for workload in (w["name"] for w in spec["workloads"]):
        sides = _by_seed(parent_runs, workload), _by_seed(change_runs, workload)
        traced = [sum(run["workload"] == workload and bool(run.get("trace")) for run in runs)
                  for runs in (parent_runs, change_runs)]
        if any(traced):
            print(f"{workload}: traced runs, per-layer metrics only, not compared: "
                  f"parent {traced[0]}, change {traced[1]}", file=out)
        if not any(sides):
            print(f"{workload}: no {'untraced ' if any(traced) else ''}runs", file=out)
            continue
        paired = sorted(set(sides[0]) & set(sides[1]))
        unpaired = [sorted({seed for seed, _ in set(side) - set(paired)}) for side in sides]
        print(f"{workload}: {len(paired)} seed pairs; unpaired seeds: "
              f"parent {unpaired[0]}, change {unpaired[1]}", file=out)
        ops = [(sum(r["failed"] for r in side.values()), sum(r["attempted"] for r in side.values()))
               for side in sides]
        print(f"  failed/attempted operations: parent {ops[0][0]}/{ops[0][1]}, "
              f"change {ops[1][0]}/{ops[1][1]}", file=out)
        for metric in spec["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in side.values()] for side in sides]
            if not all(values):
                print(f"  {name}: missing on one side", file=out)
                continue
            (p1, pm, p3), (c1, cm, c3) = quartiles(values[0]), quartiles(values[1])
            gaps = [worse_by(sides[0][key]["metrics"][name]["value"],
                             sides[1][key]["metrics"][name]["value"], better) for key in paired]
            wins, ties = sum(g < 0 for g in gaps), sum(g == 0 for g in gaps)
            worse = worse_by(pm, cm, better)
            breach = worse > bound
            breaches += breach
            print(f"  {name} ({better} is better, bound {bound:g}): "
                  f"parent {pm:.6g} [{p1:.6g}, {p3:.6g}], change {cm:.6g} [{c1:.6g}, {c3:.6g}]; "
                  f"parent IQR {p3 - p1:.6g}; change won {wins} of {len(paired)} pairs "
                  f"({ties} ties); change median {_worded(worse)}; "
                  f"{'BREACH' if breach else 'within bound'}", file=out)
            verdicts.append(f"  {workload} {name}: "
                            f"{gain_verdict((p1, pm, p3), cm, wins, len(paired), better, bound)}")
    if verdicts:
        print("gain (won >= 9/10 of pairs, median gap > parent IQR):", *verdicts, sep="\n", file=out)
    return breaches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="bench_record.py file of the parent")
    parser.add_argument("change", type=Path, help="bench_record.py file of the change")
    args = parser.parse_args(argv)
    spec = json.loads((HERE_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = [json.loads(path.read_text(encoding="utf-8"))["runs"] for path in (args.parent, args.change)]
    return 1 if compare(spec, *runs, sys.stdout) else 0


if __name__ == "__main__":
    raise SystemExit(main())
