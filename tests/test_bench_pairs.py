"""scripts/bench_pairs.py summarizes alternating benchmark pairs; its
summary is checked here on made-up results, without running a benchmark."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(wall, rows, failed=0, correct=True):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall}, "formulation_rows": {"value": rows}}}


def test_summary_counts_wins_by_each_metrics_direction():
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.24},
               {"name": "formulation_rows", "better": "higher", "bound": 0.02}]
    parent = [result(w, 10) for w in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [result(w, r) for w, r in ((0.5, 11), (2.5, 9), (2.0, 10), (3.0, 12), (6.0, 10))]
    change[1]["failed"] = 2
    lines = load_script().summarize(metrics, parent, change)
    wall, rows, old, new = lines
    # parent quartiles of 1..5 are 1.5 and 4.5; the change's median is 2.5
    assert wall.startswith("wall_s") and "parent 3 (1.5-4.5)" in wall
    assert "change 2.5 " in wall and "-16.7%" in wall and "q3-q1 3 " in wall
    assert "change better in 3 of 5" in wall and wall.endswith("unresolved")
    assert "change better in 2 of 5" in rows and rows.endswith("no worse")
    assert old == "parent: 5 of 5 runs correct, 0 of 50 operations failed"
    assert new == "change: 5 of 5 runs correct, 2 of 50 operations failed"


def test_verdict_follows_the_pipeline_rules():
    verdict = load_script().verdict
    parent = [1.00, 1.01, 1.02, 1.03, 1.04]
    # lower is better: every pair better, the median 0.2 below, q3-q1 0.03
    assert verdict(parent, [0.80, 0.82, 0.81, 0.83, 0.84], 1, 0.24) == "better"
    # a median 20% worse is inside a 24% bound, 30% worse is past it
    assert verdict(parent, [1.22, 1.21, 1.20, 1.23, 1.24], 1, 0.24) == "no worse"
    assert verdict(parent, [1.32, 1.31, 1.30, 1.33, 1.34], 1, 0.24) == "worse"
    # a parent spread (q3-q1) of 3 on a median of 3 is wider than a 24%
    # bound: no median settles it unless every change run beats every
    # parent run, and a gain of 2.5 inside that spread is no claim
    wide = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert verdict(wide, [0.9, 2.5, 2.0, 3.0, 6.0], 1, 0.24) == "unresolved"
    assert verdict(wide, [0.5] * 5, 1, 0.24) == "no worse"
    # higher is better: the same rules with the sign turned
    assert verdict(parent, [1.30, 1.32, 1.31, 1.33, 1.34], -1, 0.24) == "better"
    assert verdict(parent, [0.70, 0.72, 0.71, 0.73, 0.74], -1, 0.24) == "worse"


def test_a_pair_line_reads_memory_next_to_the_operations_attempted():
    # setup_s stands next to wall_s, so a setup claim shows pair by pair
    parent = result(0.0101, 348)
    parent["metrics"]["setup_s"] = {"value": 0.0228104}
    parent["metrics"]["peak_rss_mb"] = {"value": 23.6512}
    change = result(0.00745, 348)
    change["attempted"] = 24084
    change["metrics"]["setup_s"] = {"value": 0.0136}
    change["metrics"]["peak_rss_mb"] = {"value": 25.1}
    line = load_script().pair_line(3, 7403, parent, change)
    assert line == ("pair 3, seed 7403: parent setup_s 0.0228104 wall_s 0.0101 attempted 10 "
                    "peak_rss_mb 23.65; change setup_s 0.0136 wall_s 0.00745 attempted 24084 "
                    "peak_rss_mb 25.1")
