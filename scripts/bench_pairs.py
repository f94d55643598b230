"""Compare two checkouts on one workload by alternating pairs of benchmark runs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload union \
        [--pairs 10] [--seed0 5101]

Pair i runs `benchmark/run.py --trace 0 --seed <seed0 + i>` once in each
checkout, for the run_seconds of the parent's BENCHMARK.json: the parent
first in even pairs and the change first in odd ones, so a drift in the
machine's speed falls on both sides alike.  After each pair it prints a
line (pair_line) with each side's setup_s, wall_s, operations attempted
and peak_rss_mb.  At the end, for every end-to-end metric in BENCHMARK.json,
it prints each side's median and quartiles, the change of the medians, the parent's quartile spread (q3 - q1), the number of pairs in
which the change did better, by the metric's "better", and a verdict:

    better      the change did better in at least nine tenths of the pairs,
                and its median beats the parent's by more than q3 - q1;
    unresolved  q3 - q1 is wider than the metric's bound, a share of the
                parent's median, and some change run does not beat every
                parent run;
    worse       the change's median is worse than the parent's by more than
                the bound;
    no worse    otherwise: the median is inside the bound.

Then it prints how many runs were correct and how many operations failed on
each side.  Each run writes
only what benchmark/run.py writes in its own checkout; this script writes
nothing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(root, workload, seed, seconds):
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=root, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    """(q1, median, q3); the quartiles of one value are the value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old, new, sign, bound):
    """The verdict on one metric, by the rules in this module's docstring.
    old and new are the parent's and the change's values, pair by pair;
    sign is 1 when lower is better and -1 when higher is; bound is a share
    of the parent's median."""
    o1, om, o3 = quartiles(old)
    gain = sign * (om - quartiles(new)[1])
    wins = sum(sign * (a - b) > 0 for a, b in zip(old, new))
    if wins >= 0.9 * len(old) and gain > o3 - o1:
        return "better"
    if o3 - o1 > bound * abs(om) and not all(
            sign * (a - b) > 0 for a in old for b in new):
        return "unresolved"
    if -gain > bound * abs(om):
        return "worse"
    return "no worse"


def pair_line(i, seed, parent, change):
    """The line printed after pair i, run with seed: each side's setup_s and
    wall_s, so a claim on either shows pair by pair, the operations it
    attempted and its peak_rss_mb.  run.py keeps a record per operation, so
    a faster run holds more of them, and its memory is read against that
    count."""
    return "pair %d, seed %d: %s" % (i, seed, "; ".join(
        "%s setup_s %.6g wall_s %.6g attempted %d peak_rss_mb %.4g" % (
            side, r["metrics"]["setup_s"]["value"], r["metrics"]["wall_s"]["value"],
            r["attempted"], r["metrics"]["peak_rss_mb"]["value"])
        for side, r in (("parent", parent), ("change", change))))


def summarize(metrics, parent_runs, change_runs):
    """One text line per end-to-end metric of `metrics` (BENCHMARK.json's
    end_to_end list), then the correct and failed counts.  parent_runs and
    change_runs are run.py results, pair by pair."""
    lines = []
    pairs = len(parent_runs)
    for m in metrics:
        name = m["name"]
        old = [r["metrics"][name]["value"] for r in parent_runs]
        new = [r["metrics"][name]["value"] for r in change_runs]
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (a - b) > 0 for a, b in zip(old, new))
        (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
        delta = (nm - om) / om * 100 if om else 0.0
        lines.append(
            "%-17s parent %.6g (%.6g-%.6g)  change %.6g (%.6g-%.6g)  %+.1f%%  "
            "parent q3-q1 %.3g  change better in %d of %d  bound %+.0f%%  %s"
            % (name, om, o1, o3, nm, n1, n3, delta, o3 - o1, wins, pairs,
               sign * m["bound"] * 100, verdict(old, new, sign, m["bound"])))
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        lines.append("%s: %d of %d runs correct, %d of %d operations failed" % (
            side, sum(r["correct"] for r in runs), len(runs),
            sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)))
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True, choices=("solve", "verify", "build", "union"))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=5101)
    args = p.parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(getattr(args, side), args.workload, args.seed0 + i, seconds))
        print(pair_line(i + 1, args.seed0 + i, runs["parent"][-1], runs["change"][-1]),
              flush=True)
    print("%s: %d alternating pairs of %g s, seeds %d-%d" % (
        args.workload, args.pairs, seconds, args.seed0, args.seed0 + args.pairs - 1))
    for line in summarize(bench["end_to_end"], runs["parent"], runs["change"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
