"""Benchmark of cdcbranch: four closed-loop workloads, checked outputs.

Run from the root of a cdcbranch checkout:

    python3 benchmark/run.py --workload solve --seed 1 --seconds 20 --trace 0

It loads the package from ./src, sets the workload up several times and
keeps the median set-up time, then runs whole rounds of operations in one
thread, one after another, for about --seconds seconds.  Every output is
checked against benchmark/reference.py.  The last line of standard output
is one JSON object with correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics of
benchmark/spans.py with --trace 1.  Results and the span table are also
written to benchmark/out/.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

from clock import SteadyClock
from spans import SPANS, SPLIT_TAGS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 3
SETUP_MIN_S = 1.0
WORKLOADS = ("solve", "verify", "build", "union")


def load_package():
    """Import cdcbranch from ./src and nowhere else."""
    src = os.path.abspath("src")
    init = os.path.join(src, "cdcbranch", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit("error: %s not found; run from the root of a cdcbranch checkout" % init)
    sys.path.insert(0, src)
    import cdcbranch
    import cdcbranch.cli  # imports every other module

    if os.path.dirname(os.path.abspath(cdcbranch.__file__)) != os.path.dirname(init):
        raise SystemExit("error: cdcbranch was imported from %s, not ./src" % cdcbranch.__file__)
    return cdcbranch


def make_workload(name, pkg, workdir):
    import workloads

    if name == "solve":
        return workloads.Solve(pkg)
    if name == "verify":
        return workloads.Verify(pkg, workdir)
    if name == "build":
        return workloads.Build(pkg)
    return workloads.Union(pkg)


class Runner:
    """Runs rounds of operations, timing each and checking its output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.errors = []
        self.timed = []  # (round, label, t0, t1) of every completed operation
        self.rounds = 0

    def run_round(self, ops):
        for op in ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # counted as a failed operation
                self.failed += 1
                self.errors.append("%s raised %s: %s" % (op.label, type(exc).__name__, exc))
                continue
            t1 = time.perf_counter()
            self.timed.append((self.rounds, op.label, t0, t1))
            for p in op.check(out):
                self.problems.append("%s: %s" % (op.label, p))
        self.workload.round_done()
        self.rounds += 1

    def run_rounds(self, rng, seconds, start, first=None):
        """Whole rounds until one more would pass `seconds` after `start`."""
        ops = first
        n = 0
        while True:
            self.run_round(ops if ops is not None else self.workload.round(rng))
            ops = None
            n += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / n / 2 > seconds:
                return

    def times(self, scaled, first_round=0):
        """Seconds per operation kind and per round, read by scaled(t0, t1),
        and raw seconds per round, over the rounds from first_round on."""
        kinds, rounds, raw_rounds = {}, {}, {}
        for r, label, t0, t1 in self.timed:
            if r < first_round:
                continue
            s = scaled(t0, t1)
            kinds.setdefault(label, []).append(s)
            rounds[r] = rounds.get(r, 0.0) + s
            raw_rounds[r] = raw_rounds.get(r, 0.0) + t1 - t0
        order = sorted(rounds)
        return kinds, [rounds[r] for r in order], [raw_rounds[r] for r in order]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(kinds, rounds, setup_s, rows):
    """Every round runs each kind of operation the same number of times, so
    a typical round takes each kind's median time that many times."""
    typical = sum(statistics.median(v) * len(v) / rounds for v in kinds.values())
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(typical, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "formulation_rows": metric(rows, "count"),
    }


def per_layer(tracer, rounds, traced_wall, overhead_s):
    s = tracer.summary()
    calls, self_s = s["calls"], s["self_s"]
    per = 1.0 / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in SPANS:
        m[name + ".calls"] = metric(calls[name] * per, "count")
        m[name + ".self_s"] = metric(self_s[name] * per, "s")
    m["lp.solve_lp.ms_p50"] = metric(statistics.median(s["lp_ms"]) if s["lp_ms"] else 0.0, "ms")
    m["lp.solve_lp.rows_mean"] = metric(ratio(s["lp_rows"], calls["lp.solve_lp"]), "count")
    m["lp.solve_lp.cols_mean"] = metric(ratio(s["lp_cols"], calls["lp.solve_lp"]), "count")
    m["lp.enumerate_vertices.vertices"] = metric(s["vertices"] * per, "count")
    for tag in SPLIT_TAGS:
        m["branching.split." + tag] = metric(s["splits"].get(tag, 0) * per, "count")
    m["solver.nodes"] = metric(s["nodes"] * per, "count")
    m["solver.nodes_per_solve"] = metric(ratio(s["nodes"], calls["solver.solve"]), "count")
    m["solver.pruned_bound"] = metric(s["pruned_bound"] * per, "count")
    m["solver.pruned_infeasible"] = metric(s["pruned_infeasible"] * per, "count")
    m["solver.root_closed_ratio"] = metric(ratio(s["closed_at_root"], calls["solver.solve"]), "ratio")
    m["oracle.check_projection.probes"] = metric(s["probes"] * per, "count")
    m["trace.wall_s"] = metric(traced_wall * per, "s")
    m["trace.outside_s"] = metric((traced_wall - s["spans_s"]) * per, "s")
    m["trace.overhead_s"] = metric(overhead_s, "s")
    return m, s


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    pkg = load_package()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    workload = make_workload(args.workload, pkg, workdir)
    try:
        return measure(args, pkg, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(workload, seed):
    """Set the workload up at least SETUP_RUNS times and for SETUP_MIN_S;
    returns the (start, end) of each set-up."""
    intervals = []
    begin = time.perf_counter()
    while len(intervals) < SETUP_RUNS or time.perf_counter() - begin < SETUP_MIN_S:
        t0 = time.perf_counter()
        workload.setup(seed)
        intervals.append((t0, time.perf_counter()))
    workload.reference_data()
    return intervals


def raw(t0, t1):
    return t1 - t0


def measure(args, pkg, workload):
    rng = random.Random(args.seed)
    runner = Runner(workload)
    tracer = Tracer(pkg)
    with SteadyClock() as clock:
        setups = set_up(workload, args.seed)
        start = time.perf_counter()
        if not args.trace:
            runner.run_rounds(rng, args.seconds, start)
        else:
            # the first round runs twice on the same inputs, untraced and
            # then traced; the difference is the tracing overhead per round
            ops = workload.round(rng)
            runner.run_round(ops)
            tracer.install()
            try:
                runner.run_rounds(rng, args.seconds, start, first=ops)
            finally:
                tracer.uninstall()
    setup_s = [clock.scaled(t0, t1) for t0, t1 in setups]
    raw_setup_s = [t1 - t0 for t0, t1 in setups]
    if not args.trace:
        kinds, walls, raw_walls = runner.times(clock.scaled)
        metrics = end_to_end(kinds, len(walls), statistics.median(setup_s), workload.rows)
    else:
        _, first_walls, _ = runner.times(clock.scaled)
        kinds, walls, raw_walls = runner.times(raw, first_round=1)
        metrics, summary = per_layer(tracer, len(walls), sum(raw_walls),
                                     first_walls[1] - first_walls[0])
        covered = sum(summary["self_s"].values())
        if abs(covered - summary["spans_s"]) > 1e-6 * max(1.0, sum(raw_walls)):
            runner.problems.append("span self times %.6f s do not add up to %.6f s"
                                   % (covered, summary["spans_s"]))
        summary.pop("lp_ms")
        with open(os.path.join(OUT, "trace-%s.json" % args.workload), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "untraced_and_traced_first_round_s": first_walls[:2],
                       "traced_round_raw_s": raw_walls, "spans": summary}, fh, indent=1)

    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, "result-%s-trace%d.json" % (args.workload, args.trace)), "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                       setup_s=setup_s, raw_setup_s=raw_setup_s, round_s=walls,
                       raw_round_s=raw_walls, kernel_s=clock.kernel_s,
                       problems=runner.problems[:50], errors=runner.errors[:50],
                       op_ms={k: [t * 1000.0 for t in v] for k, v in sorted(kinds.items())}),
                  fh, indent=1)
    for line in (runner.errors + runner.problems)[:20]:
        sys.stderr.write("%s\n" % line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
