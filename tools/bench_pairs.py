"""Alternating parent/change pairs of the benchmark, summarised per metric.

    python3 tools/bench_pairs.py --parent REV [--pairs 10] [--workload W ...] [--seed 0]

Run from the root of an earlyflow checkout: the change side is the checkout
as it is, the parent side a temporary copy of the files committed at REV
(taken with git archive, deleted when the script ends). Pair i runs the
parent first when i is even and the change first when i is odd. Each run is
one `python3 perfbench/run.py --workload W --seed S --seconds N --trace 0` in
its side's tree, with N the run_seconds of BENCHMARK.json, for each workload
W given by a --workload option (repeatable; default: every workload of
BENCHMARK.json) and the seed S of --seed (default 0); perfbench/ itself is
only run, never edited.

For each workload and each end-to-end metric of BENCHMARK.json the script
prints both medians, the parent's interquartile range, the change's wins
over the pairs (ties count for neither), how much worse the change's
median is than the parent's, as a fraction of the parent's, next to the
metric's bound, and a verdict:
  resolved    the change wins at least CLAIM_WIN_SHARE of the pairs and its
              median is better than the parent's by more than the parent's
              interquartile range, so a gain on this metric may be claimed;
  unresolved  the parent's interquartile range, as a share of its median,
              exceeds the metric's bound, so these runs cannot show that the
              change is no worse; unless every run of the change reads
              better than every run of the parent.
Under the table it prints the failed and attempted operations summed per
workload and side, marking a workload WORSE when the change's failed share
exceeds the parent's. Runs whose checks failed or whose operations failed
are listed last.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

# share of the pairs a change must win for a gain to count as resolved
CLAIM_WIN_SHARE = 0.9


def iqr(values) -> float:
    """Distance between the first and third quartiles (inclusive method,
    numpy's default linear interpolation); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def wins(parent, change, better) -> int:
    """Pairs in which the change reads strictly better than the parent."""
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def worse_by(parent_median, change_median, better) -> float:
    """How much worse the change's median is, as a fraction of the parent's;
    negative when it is better."""
    if parent_median == 0:
        return 0.0
    diff = parent_median - change_median if better == "higher" else change_median - parent_median
    return diff / abs(parent_median)


def verdict(parent, change, better, bound) -> str:
    """'resolved', 'unresolved' or '' for one metric's runs in pair order
    (see the module docstring)."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    gain = c_med - p_med if better == "higher" else p_med - c_med
    if wins(parent, change, better) >= CLAIM_WIN_SHARE * len(parent) and gain > spread:
        return "resolved"
    if better == "higher":
        every_run_better = min(change) > max(parent)
    else:
        every_run_better = max(change) < min(parent)
    if spread > bound * abs(p_med) and not every_run_better:
        return "unresolved"
    return ""


def side_order(pair: int) -> tuple:
    """Which side runs first in pair `pair`: the parent on even pairs."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def summarize(runs, end_to_end) -> list:
    """One row per (workload, metric) from runs[workload][side], the metric
    dicts of each side in pair order: (workload, metric, unit, parent
    median, change median, parent IQR, change wins, pairs, worse_by,
    bound, verdict)."""
    rows = []
    for workload, sides in runs.items():
        pairs = len(sides["parent"])
        if not pairs:
            continue
        for metric in end_to_end:
            name, better = metric["name"], metric["better"]
            parent = [r[name] for r in sides["parent"]]
            change = [r[name] for r in sides["change"]]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            rows.append((workload, name, metric["unit"], p_med, c_med, iqr(parent),
                         wins(parent, change, better), pairs,
                         worse_by(p_med, c_med, better), metric["bound"],
                         verdict(parent, change, better, metric["bound"])))
    return rows


def format_rows(rows) -> str:
    out = [f"{'workload':<15} {'metric':<12} {'parent':>12} {'change':>12} "
           f"{'parent IQR':>11} {'wins':>6} {'worse by':>9} {'bound':>6} {'unit':<6} verdict"]
    for workload, name, unit, p_med, c_med, spread, won, pairs, worse, bound, word in rows:
        out.append(f"{workload:<15} {name:<12} {p_med:>12.4g} {c_med:>12.4g} "
                   f"{spread:>11.4g} {f'{won}/{pairs}':>6} {worse:>+9.3f} {bound:>6} "
                   f"{unit:<6} {word}".rstrip())
    return "\n".join(out)


def failed_share(attempted, failed) -> float:
    """Share of the attempted operations that failed; 0 when none was."""
    return failed / attempted if attempted else 0.0


def format_operations(ops) -> str:
    """One line per workload from ops[workload][side] = (attempted, failed)
    summed over that side's runs, marked WORSE when the change's failed
    share exceeds the parent's."""
    out = [f"{'workload':<15} {'parent failed':>22} {'change failed':>22}"]
    for workload, sides in ops.items():
        parent, change = (f"{failed}/{attempted} ({failed_share(attempted, failed):.2%})"
                          for attempted, failed in (sides["parent"], sides["change"]))
        worse = failed_share(*sides["change"]) > failed_share(*sides["parent"])
        out.append(f"{workload:<15} {parent:>22} {change:>22}{'  WORSE' if worse else ''}")
    return "\n".join(out)


def export_tree(rev, dest):
    """The files committed at rev, written under dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree, workload, seed, seconds) -> dict:
    """The last JSON line of one benchmark run in tree, plus its exit code."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": proc.stderr.strip()[-500:]}
    result["returncode"] = proc.returncode
    return result


def parse_args(argv, workloads):
    """The options, with args.workload the workloads to run in order, each
    once: those given by --workload, or all of workloads."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="run this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    args.workload = list(dict.fromkeys(args.workload or workloads))
    return args


def main(argv=None) -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    end_to_end = benchmark["end_to_end"]
    args = parse_args(argv, [w["name"] for w in benchmark["workloads"]])
    runs = {w: {"parent": [], "change": []} for w in args.workload}
    ops = {w: {"parent": [0, 0], "change": [0, 0]} for w in args.workload}
    failures = []
    scratch = tempfile.mkdtemp(prefix="bench_pairs-")
    try:
        parent_tree = os.path.join(scratch, "parent")
        export_tree(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": root}
        for workload in args.workload:
            for pair in range(args.pairs):
                values = {}
                for side in side_order(pair):
                    result = run_once(trees[side], workload, args.seed, benchmark["run_seconds"])
                    ops[workload][side][0] += result["attempted"]
                    ops[workload][side][1] += result["failed"]
                    values[side] = {name: entry["value"]
                                    for name, entry in result["metrics"].items()}
                    print(f"{workload} pair {pair} {side}: {json.dumps(values[side])}",
                          flush=True)
                    if result["returncode"] or not result["correct"] or result["failed"]:
                        failures.append(f"{workload} pair {pair} {side}: {json.dumps(result)}")
                if values["parent"] and values["change"]:   # a pair counts only when whole
                    for side in values:
                        runs[workload][side].append(values[side])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(format_rows(summarize(runs, end_to_end)))
    print(format_operations(ops))
    for failure in failures:
        print(f"FAILED RUN: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
