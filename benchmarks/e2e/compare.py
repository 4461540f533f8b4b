"""Compare two sets of end-to-end benchmark runs: parent versus change.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds any number of ``results.json`` files (searched
recursively), e.g. the ``--out`` directories of runs with different
seeds.  For every (workload, metric) the script prints each side's
median and quartiles, the fraction of seed-matched pairs the change
wins (ties count for neither), and a verdict:

* ``improved``   — the change wins at least 9/10 of the pairs and the
  medians differ by more than the parent's own quartile spread;
* ``regressed``  — the change's median is worse than the parent's by
  more than the metric's ``BENCHMARK.json`` bound;
* ``unresolved`` — the parent's spread is wider than the bound and not
  every change run beats every parent run;
* ``unchanged``  — otherwise.

Per-layer metrics (traced runs) have no bound and get no verdict.  The
script also checks that runs of the same seed agree on every job's
output digest and that the change fails no more often than the parent.
Exit status 0 means nothing regressed, nothing is unresolved, digests
agree and failures did not rise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))


def load_runs(directory: str) -> List[dict]:
    pattern = os.path.join(directory, "**", "results.json")
    runs = []
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path) as handle:
            runs.append(json.load(handle))
    return runs


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(parent: List[float], change: List[float], pairs: List[tuple],
            better: str, bound: Optional[float]) -> tuple:
    """(verdict, pair win fraction) by the rule in the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    if bound is None:
        return "-", win_frac
    p_q, c_med = quartiles(parent), statistics.median(change)
    p_med = p_q[1]
    spread = p_q[2] - p_q[0]
    gain = sign * (c_med - p_med)
    if pairs and win_frac >= 0.9 and gain > spread:
        return "improved", win_frac
    if p_med and spread / abs(p_med) > bound:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        return ("unchanged" if all_better else "unresolved"), win_frac
    worse = -gain / abs(p_med) if p_med else -gain
    return ("regressed" if worse > bound else "unchanged"), win_frac


def compare(parent_runs: List[dict], change_runs: List[dict],
            spec: dict) -> int:
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    # (workload, metric) -> side -> [(seed, value)]
    values: Dict[tuple, Dict[str, List[tuple]]] = defaultdict(
        lambda: {"parent": [], "change": []})
    digests: Dict[tuple, Dict[str, str]] = defaultdict(dict)
    failed = defaultdict(lambda: {"parent": [], "change": []})
    bad = 0
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for run in runs:
            for name, metric in run["metrics"].items():
                key = (run["workload"], name)
                values[key][side].append((run["seed"], metric["value"]))
            failed[run["workload"]][side].append(run["failed_frac"])
            if not run["correct"]:
                print(f"{side} run {run['workload']} seed {run['seed']} "
                      f"is not correct: {run['problems'][:3]}")
                bad += 1
            # Same seed and scale: every job common to both runs must agree.
            seen = digests[(run["workload"], run["seed"], run["scale"])]
            for index, value in run["job_digests"].items():
                if seen.setdefault(index, value) != value:
                    print(f"digest mismatch: {run['workload']} seed "
                          f"{run['seed']} job {index} ({side})")
                    bad += 1
    print(f"{'workload':14s} {'metric':42s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>5s}  verdict")
    for (workload, name), sides in sorted(values.items()):
        parent, change = sides["parent"], sides["change"]
        if not parent or not change:
            continue
        spec_m = metric_spec.get(name, {"better": "lower"})
        # Pairs share a seed; the i-th parent run of a seed meets the
        # i-th change run of that seed.
        pairs = []
        for seed in sorted({s for s, _ in parent}):
            pairs += zip([v for s, v in parent if s == seed],
                         [v for s, v in change if s == seed])
        parent_values = [v for _, v in parent]
        change_values = [v for _, v in change]
        result, win_frac = verdict(parent_values, change_values, pairs,
                                   spec_m["better"], spec_m.get("bound"))
        if result in ("regressed", "unresolved"):
            bad += 1
        cells = []
        for series in (parent_values, change_values):
            q = quartiles(series)
            cells.append(f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]")
        print(f"{workload:14s} {name:42s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{win_frac:5.2f}  {result}")
    for workload, sides in sorted(failed.items()):
        if sides["parent"] and sides["change"] and (
                max(sides["change"]) > max(sides["parent"])):
            print(f"{workload}: failed_frac rose from "
                  f"{max(sides['parent'])} to {max(sides['change'])}")
            bad += 1
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parent, change = load_runs(args.parent_dir), load_runs(args.change_dir)
    if not parent or not change:
        print("compare.py: no results.json found", file=sys.stderr)
        return 2
    return compare(parent, change, spec)


if __name__ == "__main__":
    sys.exit(main())
