#!/usr/bin/env python3
"""Runs and summarizes alternating perf-ledger pairs between two source trees.

Usage, from the repository root:

    # N alternating pairs per workload; pair i uses seed i of --seeds and
    # runs the parent first when i is odd, the change first when i is even.
    python3 tools/ledger_pairs.py run --parent PARENT_TREE --change CHANGE_TREE \\
        --workload paper_mixes --workload intensive16 --seeds 1-10 \\
        --claim paper_mixes:sim_mcycles_per_s

    # Two workloads of one tree against each other (here the inline engine
    # against the channel team); each side is labelled by its workload.
    python3 tools/ledger_pairs.py run --parent TREE --change TREE \\
        --workload scale64_serial:scale64_sharded --seeds 1-10

    # Re-summarize the run lines of a record (a file, or - for stdin).
    python3 tools/ledger_pairs.py summarize perf/ledger-pairs-sparse-tick.txt \\
        --claim stream256_writes:sim_mcycles_per_s

Each tree's ledger is built and run by that tree's own bench/ledger/run.py,
with its build tree under <tree>/.bench_build.  Each run lasts the
run_seconds of this repository's BENCHMARK.json, which also gives the
bounds.  Every run prints one line: the workload, the pair, the side, the
seed, the ledger's end-to-end metrics, its correctness fields, the host's
CPU steal over the run (from /proc/stat) and the run's wall time.  A
block of consecutive run lines is one comparison; its SUMMARY lines give
each side's median with inclusive quartiles, the ratio of the medians,
the pairs the second side won, the first side's interquartile range and
the gap between the medians.

For a block whose two sides ran one workload, a BOUND line per metric
gives the signed change of the second side's median against the first's,
whether that is better or worse, and its status against the metric's
BENCHMARK.json bound.  With --claim WORKLOAD:METRIC the tool prints the
verdict of the gain rule (at least ten pairs, the change wins at least
nine tenths of them, ties counting for neither, its median beats the
parent's by more than the parent's IQR, and no more runs fail than at the
parent), and exits 1 if a claim was not met.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as spec:
    BENCHMARK = json.load(spec)

# Printed precision of each end-to-end metric in a run line; summaries are
# computed from the printed values, so a record re-summarizes exactly.
METRIC_FORMATS = {
    "sim_mcycles_per_s": "{:.4f}",
    "dram_kreq_per_s": "{:.2f}",
    "setup_s": "{:.6f}",
    "peak_rss_mb": "{:.2f}",
}

RUN_LINE = re.compile(
    r"^(?P<workload>\S+) pair=\s*(?P<pair>\d+) (?P<side>\S+) "
    r"seed=(?P<seed>\d+) (?P<fields>.*)$")


def parse_seeds(text):
    """'1-10' or '21,23,25' -> a list of seeds."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def read_cpu_times():
    """The aggregate 'cpu' line of /proc/stat: (steal, total) jiffies."""
    with open("/proc/stat") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal; guest time is
    # already counted in user and nice.
    return fields[7], sum(fields[:8])


def run_ledger(tree, workload, seed, seconds):
    """One run of the tree's run.py; returns the run-line fields."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    command = [sys.executable, os.path.join("bench", "ledger", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    steal0, total0 = read_cpu_times()
    start = time.monotonic()
    result = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                            text=True)
    wall = time.monotonic() - start
    steal1, total1 = read_cpu_times()
    lines = result.stdout.strip().splitlines()
    if not lines:
        sys.exit("ledger_pairs: no result from %s (exit %d):\n%s"
                 % (tree, result.returncode, result.stderr[-2000:]))
    data = json.loads(lines[-1])
    fields = {name: data["metrics"][name]["value"] for name in METRIC_FORMATS}
    fields["correct"] = data["correct"]
    fields["failed"] = data["failed"]
    fields["attempted"] = data["attempted"]
    ticks = total1 - total0
    fields["steal%"] = 100.0 * (steal1 - steal0) / ticks if ticks else 0.0
    fields["wall_s"] = wall
    return fields


def format_run(workload, pair, side, seed, fields):
    parts = ["%s pair=%2d %s seed=%d" % (workload, pair, side, seed)]
    for name, fmt in METRIC_FORMATS.items():
        parts.append("%s=%s" % (name, fmt.format(fields[name])))
    parts.append("correct=%s failed=%d attempted=%d" % (
        fields["correct"], fields["failed"], fields["attempted"]))
    parts.append("steal%%=%.1f wall_s=%.1f" % (fields["steal%"],
                                                 fields["wall_s"]))
    return " ".join(parts)


def parse_run(line):
    """A run line -> (workload, pair, side, seed, fields), or None."""
    match = RUN_LINE.match(line.strip())
    if match is None:
        return None
    fields = {}
    for item in match.group("fields").split():
        name, _, value = item.partition("=")
        if name == "correct":
            fields[name] = value == "True"
        else:
            fields[name] = float(value)
    if not all(name in fields for name in METRIC_FORMATS):
        return None
    return (match.group("workload"), int(match.group("pair")),
            match.group("side"), int(match.group("seed")), fields)


class Comparison:
    """The runs of one block: two sides, paired by pair number."""

    def __init__(self):
        self.sides = []        # Labels in order of first appearance.
        self.workloads = {}    # Side -> the workload it ran.
        self.runs = {}         # (pair, side) -> fields.

    def add(self, workload, pair, side, fields):
        if side not in self.sides:
            self.sides.append(side)
            self.workloads[side] = workload
        self.runs[(pair, side)] = fields

    def workload(self):
        """The benchmark workload both sides ran, or None."""
        first, second = self.sides
        if self.workloads[first] == self.workloads[second]:
            return self.workloads[first]
        return None

    def name(self):
        return self.workload() or "%s vs %s" % tuple(self.sides)

    def pairs(self, metric):
        """[(first side's value, second side's value)] over whole pairs."""
        first, second = self.sides
        out = []
        for pair in sorted({p for p, _ in self.runs}):
            if (pair, first) in self.runs and (pair, second) in self.runs:
                out.append((self.runs[(pair, first)][metric],
                            self.runs[(pair, second)][metric]))
        return out

    def failed(self, side):
        return sum(int(fields["failed"]) for (_, s), fields in
                   self.runs.items() if s == side)


def split_blocks(lines):
    """Consecutive run lines -> one Comparison each."""
    blocks = []
    current = None
    for line in lines:
        run = parse_run(line)
        if run is None:
            current = None
            continue
        if current is None:
            current = Comparison()
            blocks.append(current)
        workload, pair, side, _, fields = run
        current.add(workload, pair, side, fields)
    return [block for block in blocks if len(block.sides) == 2]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


class Stats:
    """Medians, quartiles and wins of one metric over one comparison."""

    def __init__(self, pairs, higher_is_better):
        self.base = [a for a, _ in pairs]
        self.other = [b for _, b in pairs]
        self.base_median = statistics.median(self.base)
        self.other_median = statistics.median(self.other)
        self.base_q = quartiles(self.base)
        self.other_q = quartiles(self.other)
        self.base_iqr = self.base_q[1] - self.base_q[0]
        self.other_iqr = self.other_q[1] - self.other_q[0]
        self.gap = abs(self.other_median - self.base_median)
        sign = 1 if higher_is_better else -1
        self.wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
        self.count = len(pairs)
        self.other_better = sign * (self.other_median - self.base_median) > 0
        self.every_run_better = (
            min(self.other) > max(self.base) if higher_is_better
            else max(self.other) < min(self.base))
        # The second side's median relative to the first side's, signed by
        # how the value moved; worse_by is that change in the worse
        # direction (negative when better).
        self.change = ((self.other_median - self.base_median) /
                       self.base_median if self.base_median else 0.0)
        self.worse_by = -sign * self.change


def summarize(blocks, claims, out):
    """Prints SUMMARY lines, bound statuses and claim verdicts; returns
    False if a claim was not met."""
    bounds = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
    ok = True
    for block in blocks:
        first, second = block.sides
        name = block.name()
        by_metric = {metric: Stats(block.pairs(metric),
                                   bounds[metric]["better"] == "higher")
                     for metric in METRIC_FORMATS}
        for metric, stats in by_metric.items():
            out.write(
                "SUMMARY %s %s: %s median %g [q1 %g, q3 %g]  %s median %g "
                "[q1 %g, q3 %g]  ratio %.3fx  %s better in %d/%d  "
                "%s IQR %.4g  |gap| %.4g\n" % (
                    name, metric, first, stats.base_median, stats.base_q[0],
                    stats.base_q[1], second, stats.other_median,
                    stats.other_q[0], stats.other_q[1],
                    stats.other_median / stats.base_median
                    if stats.base_median else float("nan"),
                    second, stats.wins, stats.count, first, stats.base_iqr,
                    stats.gap))
        steals = [fields["steal%"] for fields in block.runs.values()
                  if "steal%" in fields]
        if steals:
            out.write("SUMMARY %s steal%% median %.1f max %.1f; failed runs "
                      "%s %d, %s %d\n" % (
                          name, statistics.median(steals), max(steals),
                          first, block.failed(first), second,
                          block.failed(second)))
        # Bounds judge a change against its parent on one workload.
        for metric, stats in by_metric.items() if block.workload() else ():
            bound = bounds[metric]["bound"]
            spread = (max(stats.base_iqr, stats.other_iqr) / stats.base_median
                      if stats.base_median else 0.0)
            if stats.every_run_better:
                status = "better in every run"
            elif stats.worse_by > bound:
                status = "WORSE than bound"
            elif spread > bound:
                status = "unresolved (spread %.1f%% > bound)" % (100 * spread)
            else:
                status = "within bound"
            direction = ("better" if stats.worse_by < 0 else
                         "worse" if stats.worse_by > 0 else "same")
            out.write("BOUND %s %s: %s median %+.1f%% vs %s (%s), bound "
                      "%.0f%%: %s\n" % (name, metric, second,
                                         100 * stats.change, first, direction,
                                         100 * bound, status))
        for workload, metric in claims:
            if block.workload() != workload:
                continue
            stats = by_metric[metric]
            needed = -(-9 * stats.count // 10)  # ceil(0.9 * pairs)
            reasons = []
            if stats.count < 10:
                reasons.append("%d pairs, needs at least 10" % stats.count)
            if stats.wins < needed:
                reasons.append("%s won %d/%d pairs, needs %d" % (
                    second, stats.wins, stats.count, needed))
            if not stats.other_better or stats.gap <= stats.base_iqr:
                reasons.append("median gap %.4g does not exceed %s IQR %.4g "
                               "in the better direction" % (
                                   stats.gap, first, stats.base_iqr))
            if block.failed(second) > block.failed(first):
                reasons.append("%d failed runs against %d" % (
                    block.failed(second), block.failed(first)))
            verdict = "met" if not reasons else "NOT met: " + "; ".join(
                reasons)
            ok = ok and not reasons
            out.write("CLAIM %s %s: %s better in %d/%d, |gap| %.4g vs %s IQR "
                      "%.4g: claim %s\n" % (
                          workload, metric, second, stats.wins, stats.count,
                          stats.gap, first, stats.base_iqr, verdict))
    return ok


def parse_claims(texts):
    claims = []
    for text in texts or []:
        workload, _, metric = text.partition(":")
        if metric not in METRIC_FORMATS:
            sys.exit("ledger_pairs: --claim wants WORKLOAD:METRIC with one "
                     "of " + ", ".join(METRIC_FORMATS))
        claims.append((workload, metric))
    return claims


def command_run(args):
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    seeds = parse_seeds(args.seeds)
    lines = []
    # Build both ledgers; the short run that does so is not recorded.
    for tree in trees.values():
        run_ledger(tree, args.workload[0].split(":")[0], seeds[0], 1)
    for spec in args.workload:
        base_workload, _, other_workload = spec.partition(":")
        workloads = {"parent": base_workload,
                     "change": other_workload or base_workload}
        # Two workloads label their sides; one workload, its two trees.
        labels = (workloads if other_workload else
                  {side: side for side in trees})
        for pair, seed in enumerate(seeds, start=1):
            order = ["parent", "change"] if pair % 2 else ["change", "parent"]
            for side in order:
                fields = run_ledger(trees[side], workloads[side], seed,
                                    BENCHMARK["run_seconds"])
                line = format_run(workloads[side], pair, labels[side], seed,
                                  fields)
                lines.append(line)
                print(line, flush=True)
        lines.append("")
        print(flush=True)
    ok = summarize(split_blocks(lines), parse_claims(args.claim), sys.stdout)
    return 0 if ok else 1


def command_summarize(args):
    if args.record == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.record) as record:
            lines = record.read().splitlines()
    blocks = split_blocks(lines)
    if not blocks:
        sys.exit("ledger_pairs: no run lines in " + args.record)
    ok = summarize(blocks, parse_claims(args.claim), sys.stdout)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run alternating ledger pairs")
    run.add_argument("--parent", required=True, help="parent source tree")
    run.add_argument("--change", required=True, help="change source tree")
    run.add_argument("--workload", action="append", required=True,
                     help="a workload, or PARENT_WORKLOAD:CHANGE_WORKLOAD")
    run.add_argument("--seeds", default="1-10",
                     help="one seed per pair, e.g. 1-10 or 21,22")
    run.add_argument("--claim", action="append",
                     help="WORKLOAD:METRIC whose gain to judge")
    run.set_defaults(handler=command_run)

    summarize_parser = commands.add_parser(
        "summarize", help="summarize the run lines of a record")
    summarize_parser.add_argument("record", help="record file, or -")
    summarize_parser.add_argument("--claim", action="append",
                                  help="WORKLOAD:METRIC whose gain to judge")
    summarize_parser.set_defaults(handler=command_summarize)

    args = parser.parse_args()
    sys.exit(args.handler(args))


if __name__ == "__main__":
    main()
