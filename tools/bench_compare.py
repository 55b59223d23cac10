#!/usr/bin/env python3
"""Compares two sets of perfbench results against BENCHMARK.json.

Dependency-free (stdlib only). Each side is a directory holding one
`<workload>.jsonl` file per workload. Every line of such a file is one
run: the JSON result line `perfbench/run.py` prints last. Run i of the
parent set is paired with run i of the change set, so both sides must
hold the same number of runs of a workload: interleave the runs (parent,
change, change, parent, ...) so that both sides see the same host drift.

For each workload and each end-to-end metric BENCHMARK.json declares, it
prints each side's median and quartiles, the fraction of pairs the change
won (ties count for neither side), and a verdict:

  better      the change won at least 9 of 10 pairs and the medians
              differ by more than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more
              than the metric's bound (a fraction of the parent median);
  unresolved  not worse, but the parent's interquartile range is wider
              than the bound, and not every change run beats every
              parent run;
  same        none of the above.

The metrics and bounds come from the repository's BENCHMARK.json.

Usage:
  tools/bench_compare.py PARENT_DIR CHANGE_DIR
  tools/bench_compare.py --self-test

Exit status: 0 = reported (whatever the verdicts), 1 = the self-test
failed, 2 = usage or input error: a line that is not a perfbench result,
a run without a declared metric, a workload BENCHMARK.json does not
declare, or a workload whose two sides hold different numbers of runs.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

WIN_FRACTION = 0.9
HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, os.pardir, "BENCHMARK.json")
FIXTURES = os.path.join(HERE, "bench_compare_fixtures")


class InputError(Exception):
    """A results file that is not a set of perfbench result lines."""


def load_runs(path, metric_names):
    """The declared metric values of every run in one .jsonl file, in file
    order. Raises InputError on a line that is not a perfbench result or
    lacks a declared metric."""
    runs = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            where = f"{path}:{number}"
            try:
                record = json.loads(line)
                metrics = record["metrics"]
            except (json.JSONDecodeError, TypeError, KeyError):
                raise InputError(f"{where}: not a perfbench result line")
            missing = [name for name in metric_names if name not in metrics]
            if missing:
                raise InputError(f"{where}: no {', '.join(missing)}")
            runs.append({name: metrics[name]["value"]
                         for name in metric_names})
    if not runs:
        raise InputError(f"{path}: no runs")
    return runs


def load_side(directory, metric_names):
    """{workload: [runs]} from every <workload>.jsonl in `directory`."""
    side = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".jsonl"):
            side[name[:-len(".jsonl")]] = load_runs(
                os.path.join(directory, name), metric_names)
    return side


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent, change, better, bound):
    """Compares two equally long value lists; returns (win fraction,
    verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    win_fraction = wins / len(pairs)
    p_q1, p_median, p_q3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    gain = sign * (p_median - c_median)
    if -gain > bound * abs(p_median):
        return win_fraction, "worse"
    if win_fraction >= WIN_FRACTION and gain > p_q3 - p_q1:
        return win_fraction, "better"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if p_q3 - p_q1 > bound * abs(p_median) and not all_better:
        return win_fraction, "unresolved"
    return win_fraction, "same"


def compare(benchmark, parent_dir, change_dir):
    """Returns a list of result rows, one per (workload, metric), for every
    declared workload with runs on either side. Raises InputError unless
    each such workload has equally many runs on both sides."""
    metric_names = [metric["name"] for metric in benchmark["end_to_end"]]
    parent = load_side(parent_dir, metric_names)
    change = load_side(change_dir, metric_names)
    declared = [workload["name"] for workload in benchmark["workloads"]]
    unknown = sorted((set(parent) | set(change)) - set(declared))
    if unknown:
        raise InputError(f"undeclared workload {', '.join(unknown)}")
    rows = []
    for name in declared:
        p_runs = parent.get(name, [])
        c_runs = change.get(name, [])
        if len(p_runs) != len(c_runs):
            raise InputError(f"{name}: {len(p_runs)} parent runs but "
                             f"{len(c_runs)} change runs")
        count = len(p_runs)
        if count == 0:
            continue
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            p_values = [run[key] for run in p_runs]
            c_values = [run[key] for run in c_runs]
            win_fraction, result = verdict(p_values, c_values,
                                           metric["better"], metric["bound"])
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "pairs": count, "parent": quartiles(p_values),
                "change": quartiles(c_values), "wins": win_fraction,
                "verdict": result,
            })
    return rows


def format_rows(rows):
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    header = ("| workload | metric | pairs | parent median [q1, q3] | "
              "change median [q1, q3] | change wins | verdict |")
    lines = [header, "|---|---|---|---|---|---|---|"]
    for row in rows:
        lines.append(
            f"| {row['workload']} | {row['metric']} ({row['unit']}) | "
            f"{row['pairs']} | {side(row['parent'])} | {side(row['change'])} "
            f"| {row['wins']:.0%} | {row['verdict']} |")
    return "\n".join(lines)


def rejected_inputs(benchmark):
    """The names of the malformed result sets compare() fails to reject."""
    good = json.dumps({"metrics": {
        metric["name"]: {"value": 1.0, "unit": metric["unit"]}
        for metric in benchmark["end_to_end"]}})
    partial = json.dumps({"metrics": {"job_s": {"value": 1.0, "unit": "s"}}})
    cases = {  # name: (parent lines, change lines)
        "non-result line": ([good, "failed_frac 0.0"], [good, good]),
        "missing metric": ([good], [partial]),
        "unequal run counts": ([good, good], [good]),
    }
    accepted = []
    for case, sides in cases.items():
        with tempfile.TemporaryDirectory() as root:
            for side, lines in zip(("parent", "change"), sides):
                os.mkdir(os.path.join(root, side))
                with open(os.path.join(root, side, "w-gain.jsonl"), "w",
                          encoding="utf-8") as handle:
                    handle.write("\n".join(lines) + "\n")
            try:
                compare(benchmark, os.path.join(root, "parent"),
                        os.path.join(root, "change"))
                accepted.append(case)
            except InputError:
                pass
    return accepted


def self_test():
    """Checks every verdict on the fixture sets against expected.json, and
    that malformed result sets are rejected."""
    with open(os.path.join(FIXTURES, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    with open(os.path.join(FIXTURES, "expected.json"), encoding="utf-8") as f:
        expected = json.load(f)
    rows = compare(benchmark, os.path.join(FIXTURES, "parent"),
                   os.path.join(FIXTURES, "change"))
    got = {f"{row['workload']}/{row['metric']}": row["verdict"]
           for row in rows}
    print(format_rows(rows))
    if got != expected:
        for key in sorted(set(got) | set(expected)):
            if got.get(key) != expected.get(key):
                print(f"self-test: {key}: expected {expected.get(key)}, "
                      f"got {got.get(key)}", file=sys.stderr)
        return 1
    accepted = rejected_inputs(benchmark)
    for case in accepted:
        print(f"self-test: {case} was not rejected", file=sys.stderr)
    if accepted:
        return 1
    print(f"self-test: {len(got)} verdicts as expected, malformed inputs "
          "rejected")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.error("PARENT_DIR and CHANGE_DIR are required")
    try:
        with open(BENCHMARK, encoding="utf-8") as handle:
            benchmark = json.load(handle)
        rows = compare(benchmark, args.parent, args.change)
    except (OSError, ValueError, KeyError, InputError) as error:
        print(f"bench_compare: {error}", file=sys.stderr)
        return 2
    if not rows:
        print("bench_compare: no workload has runs on both sides",
              file=sys.stderr)
        return 2
    print(format_rows(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
