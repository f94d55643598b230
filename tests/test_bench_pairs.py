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
    assert "change better in 3 of 5" in wall
    assert "change better in 2 of 5" in rows
    assert old == "parent: 5 of 5 runs correct, 0 of 50 operations failed"
    assert new == "change: 5 of 5 runs correct, 2 of 50 operations failed"
