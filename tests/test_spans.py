"""The benchmark tracer (benchmark/spans.py) patches package names by hand;
a branching solve under it checks that every one of them still exists and
is restored afterwards."""

import importlib
import importlib.util
import pathlib
from fractions import Fraction as F

import cdcbranch
from cdcbranch.cdc import HRepPiece
from cdcbranch.formulation import AssembledSystem, build_bigm_moment

SPANS_PY = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"
MODULES = ("numerics", "lp", "encodings", "cdc", "formulation", "branching",
           "solver", "oracle", "cli")


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_counts_a_branching_bigm_solve_and_restores_every_name():
    for name in MODULES:
        importlib.import_module("cdcbranch." + name)
    pieces = [HRepPiece([[1], [-1]], [i + 1, -i]) for i in range(0, 8, 2)]
    system = build_bigm_moment(pieces)
    tracer = load_tracer()(cdcbranch)
    try:
        tracer.install()
        # looked up on its module, so the call goes through the span
        rep = cdcbranch.solver.solve(system, [F(1)], "moment")
    finally:
        patched = list(tracer._undo)
        tracer.uninstall()
        assert all(vars(owner)[key] is value for owner, key, value in patched)
    assert rep.status == "optimal" and rep.nodes > 1
    calls = tracer.calls
    assert calls["solver.solve"] == 1 and tracer.nodes == rep.nodes
    assert calls["formulation.assemble"] == 1 and calls["branching.root"] == 1
    assert calls["branching.step"] == sum(
        v for k, v in rep.histogram.items() if not k.startswith("pruned"))
    # the root LP is solved cold, every other node's LP on its parent's cuts
    assert calls["formulation.with_cuts"] > 0
    assert calls["lp.solve_lp"] == calls["formulation.with_cuts"] + 1
    assert (AssembledSystem, "with_cuts", AssembledSystem.__dict__["with_cuts"]) in patched
