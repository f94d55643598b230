"""Tests for the exact branch-and-bound engine."""

import json
import random
import sys
from fractions import Fraction as F
from functools import cached_property

import pytest

from cdcbranch.branching import BranchError, BranchOutcome, CodeRelaxation, make_scheme, psi
from cdcbranch.cdc import (
    CdcFamily,
    HRepPiece,
    VertexMap,
    annulus_instance,
    grid_triangulation_fixture,
    sos2_family,
)
from cdcbranch.encodings import Encoding, exotic_code, gray_code, moment_code, zigzag_code
from cdcbranch.formulation import (
    BigMSystem,
    LinearFormulation,
    TwoSidedRow,
    build_bigm_moment,
    build_general,
    build_moment_curve,
)
from cdcbranch.lp import GE, LE
from cdcbranch.oracle import (
    brute_force_optimum,
    brute_force_optimum_hrep,
    check_branch_soundness,
    objective_from_vertex_map,
)
from cdcbranch import branching as branching_module
from cdcbranch import lp as lp_module
from cdcbranch import numerics
from cdcbranch import solver as solver_module
from cdcbranch.solver import SolveError, solve


def test_single_component_objective():
    form = build_general(sos2_family(4), exotic_code(4))
    rep = solve(form, [F(0), F(0), F(1), F(0), F(0)], "exotic")
    assert rep.status == "optimal"
    assert rep.value == 1
    assert rep.lam == (0, 0, 1, 0, 0)
    assert rep.nodes == 1


def test_min_sense():
    form = build_general(sos2_family(4), exotic_code(4))
    rep = solve(form, [F(3), F(-1), F(2), F(5), F(4)], sense="min", scheme="exotic")
    value, _, _ = brute_force_optimum(sos2_family(4), [F(3), F(-1), F(2), F(5), F(4)], sense="min")
    assert rep.status == "optimal" and rep.value == value == -1


def test_matches_brute_force_over_seeds():
    fam = sos2_family(8)
    combos = (
        ("variable", build_general(fam, gray_code(3))),
        ("variable", build_general(fam, zigzag_code(3))),
        ("moment", build_moment_curve(fam)),
        ("exotic", build_general(fam, exotic_code(8))),
    )
    rng = random.Random(20240818)
    for _ in range(8):
        w = [F(rng.randint(-9, 9)) for _ in range(fam.n)]
        want, _, _ = brute_force_optimum(fam, w)
        for scheme, form in combos:
            rep = solve(form, w, scheme)
            assert rep.status == "optimal"
            assert rep.value == want


def test_grid_with_vertex_map_objective():
    fam, vm = grid_triangulation_fixture()
    form = build_moment_curve(fam)
    obj = objective_from_vertex_map(vm, (F(1), F(1)))
    rep = solve(form, obj, "moment", vertex_map=vm)
    assert rep.status == "optimal"
    assert rep.value == 4
    assert rep.x == (2, 2)


def test_annulus_max_coordinate():
    fam, vm = annulus_instance(1, 3, 8)
    form = build_general(fam, exotic_code(8))
    obj = objective_from_vertex_map(vm, (F(1), F(0)))
    rep = solve(form, obj, "exotic", vertex_map=vm)
    assert rep.status == "optimal"
    assert rep.value == max(v[0] for v in vm)
    assert rep.x[0] == rep.value


def test_bigm_solve_matches_oracle():
    pieces = [HRepPiece([[1], [-1]], [i + 1, -i]) for i in range(0, 8, 2)]
    system = build_bigm_moment(pieces)
    for c, sense in (([F(1)], "max"), ([F(1)], "min"), ([F(-3)], "max")):
        rep = solve(system, c, "moment", sense=sense, debug_checks=True)
        want, _, _ = brute_force_optimum_hrep(pieces, c, sense=sense)
        assert rep.status == "optimal"
        assert rep.value == want


def test_bigm_branches_before_settling():
    pieces = [HRepPiece([[1], [-1]], [i + 1, -i]) for i in range(0, 8, 2)]
    system = build_bigm_moment(pieces)
    rep = solve(system, [F(1)], "moment")
    assert rep.status == "optimal" and rep.value == 7
    assert rep.nodes > 1
    assert rep.histogram.get("moment", 0) >= 1


def test_each_moment_region_is_built_once(monkeypatch):
    # a region depends only on (d, l, u) and no split changes one in place,
    # so repeated solves build each one once and report as before
    built = []

    def spy(rows, interval=None):
        if interval is not None:
            built.append(interval)
        return CodeRelaxation(rows, interval)

    pieces = [HRepPiece([[1], [-1]], [i + 1, -i]) for i in range(0, 16, 2)]
    system = build_bigm_moment(pieces)
    runs = [([F(1)], "max"), ([F(1)], "min"), ([F(-3)], "max"), ([F(1, 2)], "min")]

    def reports():
        out = [solve(system, c, "moment", sense=sense).to_json() for c, sense in runs]
        for rep in out:
            del rep["wall_micros"]
        return out

    psi.cache_clear()
    first = reports()
    psi.cache_clear()
    monkeypatch.setattr(branching_module, "CodeRelaxation", spy)
    again = reports()
    assert sum(rep["histogram"]["moment"] for rep in again) > len(runs)
    assert len(built) == len(set(built)) > len(runs)
    # a third round builds nothing, and every round reports the same
    count = len(built)
    assert reports() == again == first and len(built) == count


def test_child_lps_take_their_cuts_as_kept_ints(monkeypatch):
    # the cuts are a region's int rows, so only the root's rows are checked
    # and scaled, once per system however many nodes and solves follow
    pieces = [HRepPiece([[1], [-1]], [i + 1, -i]) for i in range(0, 16, 2)]
    system = build_bigm_moment(pieces)
    first = solve(system, [F(1)], "moment").to_json()
    coerced = []
    real = lp_module.LpProblem._rows

    def spy(self, rows):
        coerced.append(rows)
        return real(self, rows)

    monkeypatch.setattr(lp_module.LpProblem, "_rows", spy)
    system = build_bigm_moment(pieces)
    coerced.clear()
    reports = [solve(system, [F(c)], "moment", sense=sense).to_json()
               for c, sense in ((1, "max"), (-3, "max"), (1, "min"))]
    assert sum(rep["nodes"] for rep in reports) > 3 * len(reports)
    assert len(coerced) == 1 and len(coerced[0]) == len(system.rows)
    for rep in (first, reports[0]):
        del rep["wall_micros"]
    assert reports[0] == first


def test_the_root_region_is_built_only_when_the_root_branches():
    calls = []

    def counted(name):
        sch = make_scheme(name)
        root = sch.root
        sch.root = lambda enc: calls.append(name) or root(enc)
        return sch

    form = build_general(sos2_family(8), gray_code(3))
    rep = solve(form, [F(k % 5 - 2) for k in range(form.n)], counted("variable"))
    assert rep.status == "optimal" and rep.nodes == 1
    assert calls == []
    pieces = [HRepPiece([[1], [-1]], [i + 1, -i]) for i in range(0, 8, 2)]
    rep = solve(build_bigm_moment(pieces), [F(1)], counted("moment"), debug_checks=True)
    assert rep.status == "optimal" and rep.nodes > 1
    assert calls == ["moment"]


def test_child_lps_share_the_root_objective_and_bounds(monkeypatch):
    # every node's LP is the root's with its own rows: the objective and
    # bounds are coerced once per solve, not once per node
    problems = []
    real = solver_module.solve_lp

    def spy(problem, parent=None):
        problems.append(problem)
        return real(problem, parent)

    monkeypatch.setattr(solver_module, "solve_lp", spy)
    pieces = [HRepPiece([[1], [-1]], [i + 1, -i]) for i in range(0, 8, 2)]
    rep = solve(build_bigm_moment(pieces), [F(1)], "moment")
    assert rep.status == "optimal" and rep.nodes >= len(problems) > 1
    root = problems[0]
    assert all(p.objective is root.objective and p.bounds is root.bounds for p in problems)
    assert all(len(p.rows) < len(root.rows) for p in problems[1:])


def test_pivot_total_is_reported_next_to_nodes_and_stable():
    pieces = [HRepPiece([[1], [-1]], [i + 1, -i]) for i in range(0, 8, 2)]
    system = build_bigm_moment(pieces)
    docs = []
    for _ in range(2):
        rep = solve(system, [F(1)], "moment")
        assert rep.pivots > 0
        doc = rep.to_json()
        del doc["wall_micros"]
        docs.append(json.dumps(doc))
    assert docs[0] == docs[1]
    keys = list(json.loads(docs[0]))
    assert keys.index("pivots") == keys.index("nodes") + 1


def test_node_cap_reports_bound():
    pieces = [HRepPiece([[1], [-1]], [i + 1, -i]) for i in range(0, 8, 2)]
    system = build_bigm_moment(pieces)
    rep = solve(system, [F(1)], "moment", node_cap=1)
    assert rep.status == "node_cap"
    assert rep.nodes == 1
    assert rep.remaining_bound is not None
    # an objective over a denominator is solved as ints over it: the bound
    # and the value are reported over it again, in either sense
    for sense, k in (("max", 1), ("min", -2)):
        whole, third = (
            [solve(system, [c], "moment", sense=sense, node_cap=cap) for cap in (1, 10 ** 6)]
            for c in (F(k), F(k, 3))
        )
        assert third[0].remaining_bound == whole[0].remaining_bound / 3 != 0
        assert third[1].value == whole[1].value / 3 != 0


def test_incompatible_scheme_raises():
    form = build_general(sos2_family(4), exotic_code(4))
    with pytest.raises(SolveError):
        solve(form, [F(0)] * 5, "moment")
    with pytest.raises(SolveError):
        solve(form, [F(0)] * 5, "variable")


def test_compatibility_is_decided_once_per_encoding(monkeypatch):
    # five solves of one formulation per scheme make one hole-free scan
    # and one canonical code each: the verdict is kept on the encoding
    calls = []

    def counted(name):
        real = getattr(branching_module, name)

        def spy(*args):
            calls.append(name)
            return real(*args)

        return spy

    for name in ("is_hole_free", "moment_code", "exotic_code"):
        monkeypatch.setattr(branching_module, name, counted(name))
    fam = sos2_family(8)
    forms = {
        "variable": build_general(fam, gray_code(3)),
        "moment": build_moment_curve(fam),
        "exotic": build_general(fam, exotic_code(8)),
    }
    rng = random.Random(0)
    for scheme, form in forms.items():
        for _ in range(5):
            rep = solve(form, [rng.randint(-9, 9) for _ in range(form.n)], scheme)
            assert rep.status == "optimal"
    assert sorted(calls) == ["exotic_code", "is_hole_free", "moment_code"]


def test_a_kept_verdict_keeps_its_error_text():
    # an incompatible encoding is refused with the same text every time
    holes = build_general(sos2_family(4), exotic_code(4))
    half = build_general(sos2_family(4), Encoding([(0, 0), (1, 0), (F(1, 2), 1), (0, 1)]))
    expected = [
        (holes, "moment", "codes are not the parabola family"),
        (holes, "variable", "codes leave integer holes in their hull"),
        (half, "variable", "hole-freeness is only defined for integer codes"),
        (half, "exotic", "codes are not the two-per-level planar family"),
    ]
    for _ in range(2):
        for form, scheme, why in expected:
            with pytest.raises(SolveError) as info:
                solve(form, [0] * 5, scheme)
            assert str(info.value) == "scheme %s incompatible: %s" % (scheme, why)
    assert holes.codes.verdicts == {
        "moment": (False, "codes are not the parabola family"),
        "variable": (False, "codes leave integer holes in their hull"),
    }


def test_objective_length_checked():
    form = build_general(sos2_family(4), exotic_code(4))
    with pytest.raises(SolveError):
        solve(form, [F(1)], "exotic")


def test_disconnected_family_pads_the_artificial_component():
    # four disjoint pairs: the overlap graph is disconnected, so each
    # formulation carries an artificial lam component fixed at zero
    fam = CdcFamily(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
    vm = VertexMap([(F(k), F(k * k % 5)) for k in range(8)])
    rng = random.Random(8080)
    pairings = (
        (moment_code(4), "moment"),
        (exotic_code(4), "exotic"),
        (gray_code(2), "variable"),
    )
    for enc, scheme in pairings:
        form = build_general(fam, enc)
        assert form.artificial and form.n == fam.n + 1
        for _ in range(3):
            c = [F(rng.randint(-9, 9)) for _ in range(fam.n)]
            rep = solve(form, c, scheme, vertex_map=vm)
            explicit = solve(form, c + [F(0)], scheme, vertex_map=vm)
            untimed = {"wall_micros": 0}
            assert rep.to_json() | untimed == explicit.to_json() | untimed
            want, _, _ = brute_force_optimum(fam, c)
            assert rep.status == "optimal" and rep.value == want
            assert len(rep.lam) == fam.n + 1 and rep.lam[-1] == 0
            assert rep.x == tuple(
                sum((rep.lam[v] * vm[v][k] for v in range(fam.n)), F(0)) for k in range(2)
            )


def test_unknown_source_type_raises():
    with pytest.raises(SolveError, match="unknown source type"):
        solve(object(), [F(1)], "moment")


def test_bigm_objective_length_checked():
    pieces = [HRepPiece([[1], [-1]], [i + 1, -i]) for i in range(0, 8, 2)]
    system = build_bigm_moment(pieces)
    for c in ([], [F(1), F(0)], [F(1), F(0), F(0)]):
        with pytest.raises(SolveError, match="objective length mismatch"):
            solve(system, c, "moment")


def test_bad_sense_rejected():
    form = build_general(sos2_family(4), exotic_code(4))
    with pytest.raises(SolveError):
        solve(form, [F(0)] * 5, "exotic", sense="best")


def test_report_json_uses_rational_strings():
    form = build_general(sos2_family(4), exotic_code(4))
    rep = solve(form, [F(1, 3), F(0), F(0), F(0), F(0)], "exotic")
    doc = rep.to_json()
    assert doc["status"] == "optimal"
    assert doc["value"] == "1/3"
    assert isinstance(doc["nodes"], int)
    json.dumps(doc)


def test_soundness_audit_variable():
    enc = gray_code(3)
    sch = make_scheme("variable")
    root = sch.root(enc)
    rep = check_branch_soundness(sch, enc, root, (F(1, 2), F(0), F(0)))
    assert rep.ok and rep.stats["tag"] == "variable"


def test_soundness_audit_moment():
    enc = moment_code(7)
    sch = make_scheme("moment")
    root = sch.root(enc)
    rep = check_branch_soundness(sch, enc, root, (F(2), F(5)))
    assert rep.ok
    # the split puts code 2 left and codes 3..7 right
    out = sch.step(root, (F(2), F(5)), enc)
    (_, left), (_, right) = out.children
    assert left.contains((F(2), F(4))) and not right.contains((F(2), F(4)))
    assert right.contains((F(5), F(25))) and not left.contains((F(5), F(25)))


def test_soundness_audit_exotic_cases():
    enc = exotic_code(16)
    sch = make_scheme("exotic")
    root = sch.root(enc)
    seen = set()
    for z in ((F(1, 2), F(0)), (F(0), F(3)), (F(0), F(4)), (F(0), F(-9))):
        out = sch.step(root, z, enc)
        seen.add(out.tag)
        rep = check_branch_soundness(sch, enc, root, z, outcome=out)
        assert rep.ok, rep.failures
    assert seen == {"integer-split", "wide-split", "corner-split"}


def test_soundness_rejects_outside_point():
    enc = moment_code(7)
    sch = make_scheme("moment")
    with pytest.raises(BranchError):
        check_branch_soundness(sch, enc, sch.root(enc), (F(4), F(25, 4)))


def test_soundness_catches_corrupt_split():
    enc = gray_code(2)
    sch = make_scheme("variable")
    root = sch.root(enc)
    zhat = (F(1, 2), F(0))
    # both children keep the parent region: zhat survives, children overlap
    fake = BranchOutcome.split("bogus", [], root, [], root)
    rep = check_branch_soundness(sch, enc, root, zhat, outcome=fake)
    assert not rep.ok
    conditions = {f["condition"] for f in rep.failures}
    assert 1 in conditions and 4 in conditions


def test_soundness_catches_false_verify():
    enc = moment_code(7)
    sch = make_scheme("moment")
    root = sch.root(enc)
    fake = BranchOutcome.verify()
    rep = check_branch_soundness(sch, enc, root, (F(2), F(5)), outcome=fake)
    assert not rep.ok
    assert rep.failures[0]["condition"] == "verify"


def test_soundness_moment_children_vertices_are_codes():
    enc = moment_code(7)
    sch = make_scheme("moment")
    rep = check_branch_soundness(sch, enc, sch.root(enc), (F(7, 2), F(35, 2)))
    assert rep.ok
    # a hand-made child with a non-code vertex trips the hull condition
    left = psi(7, 1, 3)
    loose = CodeRelaxation(
        [((F(1), F(0)), GE, F(4)), ((F(1), F(0)), LE, F(7)),
         ((F(0), F(1)), GE, F(14)), ((F(0), F(1)), LE, F(49)),
         ((F(-8), F(1)), LE, F(-7))]
    )
    fake = BranchOutcome.split("moment", left.rows, left, loose.rows, loose)
    rep = check_branch_soundness(sch, enc, sch.root(enc), (F(7, 2), F(35, 2)), outcome=fake)
    assert not rep.ok
    assert any(f["condition"] == "hull" for f in rep.failures)


def test_a_bigm_solve_scales_rows_only_in_lp_problem(monkeypatch):
    # build_bigm_moment holds its rows as ints, fractional gaps included,
    # so a solve that branches scales each row only where a holder takes
    # it: LpProblem for the LPs and CodeRelaxation for the scheme's regions.
    # Neither assemble() nor solve_lp scales a row, the objective row
    # included: LpProblem keeps the objective as ints
    p1 = HRepPiece([[1, 0], [-1, 0], [0, 1], [0, -1], [2, 1]], [2, 0, 2, 0, F(7, 2)])
    p2 = HRepPiece([[1, 0], [-1, 0], [0, 1], [0, -1]], [5, -3, 1, 0])
    p3 = HRepPiece([[1, 0], [-1, 0], [0, 1], [0, -1]], [2, 0, 4, -3])
    system = build_bigm_moment([p1, p2, p3])
    names = {
        lp_module.LpProblem._rows.__code__: "LpProblem",
        CodeRelaxation.__init__.__code__: "CodeRelaxation",
        lp_module.solve_lp.__code__: "solve_lp",
    }
    callers = []
    real = numerics._integer_rows

    def spy(M):
        code = sys._getframe(1).f_code
        callers.append(names.get(code, code.co_name))
        return real(M)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("cdcbranch") and getattr(module, "_integer_rows", None) is real:
            monkeypatch.setattr(module, "_integer_rows", spy)
    rep = solve(system, [1, 2], "moment")
    assert rep.status == "optimal" and rep.nodes == 5
    assert sorted(set(callers)) == ["CodeRelaxation", "LpProblem"]


def _untimed(form, c, scheme):
    # a solve's report without its timing, or the error it raises
    try:
        doc = solve(form, c, scheme).to_json()
    except SolveError as exc:
        return str(exc)
    del doc["wall_micros"]
    return doc


def test_a_kept_system_answers_only_for_its_own_rows():
    # a formulation keeps its assembled system between solves; swapping a
    # row in place, setting a row's side anew or replacing the hull
    # equations must build it again, so each report equals that of a
    # freshly built formulation with the same rows
    fam = sos2_family(8)
    cases = (
        (build_general(fam, gray_code(3)), "variable", 5),
        (build_moment_curve(fam), "moment", 1),
        (build_general(fam, exotic_code(8)), "exotic", 3),
    )
    for form, scheme, k in cases:
        c = [int(i == k) for i in range(form.n)]
        before = _untimed(form, c, scheme)
        row = form.rows[0]
        low = list(row.lower)
        low[k] += 1
        form.rows[0] = TwoSidedRow(row.direction, low, row.upper)
        after = _untimed(form, c, scheme)
        fresh = LinearFormulation(
            form.n, form.r, list(form.rows), form.hull_equations, form.artificial,
            codes=form.codes,
        )
        assert after == _untimed(fresh, c, scheme) != before
        # a side set anew on the same row object
        form.rows[0].lower = row.lower
        assert _untimed(form, c, scheme) == before
        form.hull_equations = [((F(1),) + (F(0),) * (form.r - 1), F(1))]
        after = _untimed(form, c, scheme)
        fresh.hull_equations = form.hull_equations
        fresh.rows[0] = row
        assert after == _untimed(fresh, c, scheme) != before
    # a big-M system's row swapped in place: the last piece's bound x <= 7
    # at its own code becomes x <= 6
    system = build_bigm_moment([HRepPiece([[1], [-1]], [i + 1, -i]) for i in range(0, 8, 2)])
    before = _untimed(system, [1], "moment")
    a_x, a_z, rhs = system.rows[6]
    system.rows[6] = (a_x, a_z, rhs - 1)
    fresh = BigMSystem(list(system.rows), system.m, system.codes)
    assert _untimed(system, [1], "moment") == _untimed(fresh, [1], "moment") != before


def test_a_source_is_assembled_once(monkeypatch):
    # five solves of one formulation per scheme, and one big-M union solved
    # in its four directions, each assemble one system, coerce its rows into
    # the root LP once and build one code set: all are kept on the source
    assembled, coerced, code_sets = [], [], []
    for cls in (LinearFormulation, BigMSystem):
        real = cls.__dict__["assemble"]
        monkeypatch.setattr(
            cls, "assemble", lambda self, real=real: assembled.append(real(self)) or assembled[-1]
        )
    real_rows = lp_module.LpProblem._rows
    monkeypatch.setattr(
        lp_module.LpProblem, "_rows", lambda self, rows: coerced.append(rows) or real_rows(self, rows)
    )
    real_set = Encoding.__dict__["code_set"].func
    counted = cached_property(lambda self: code_sets.append(self) or real_set(self))
    counted.__set_name__(Encoding, "code_set")
    monkeypatch.setattr(Encoding, "code_set", counted)

    def solved_once(source, runs):
        for seen in (assembled, coerced, code_sets):
            seen.clear()
        for c, scheme in runs:
            assert solve(source, c, scheme).status == "optimal"
        system = assembled[0]
        assert len(assembled) == len(runs) and all(s is system for s in assembled)
        assert sum(rows is system.rows for rows in coerced) == 1
        assert code_sets == [source.codes]

    fam = sos2_family(8)
    rng = random.Random(0)
    for scheme, form in (
        ("variable", build_general(fam, gray_code(3))),
        ("moment", build_moment_curve(fam)),
        ("exotic", build_general(fam, exotic_code(8))),
    ):
        solved_once(form, [([rng.randint(-9, 9) for _ in range(form.n)], scheme) for _ in range(5)])
    box = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    pieces = [HRepPiece(box, [x + 2, -x, y + 1, -y]) for x, y in ((0, 0), (3, 1), (-2, 4), (5, -3))]
    directions = ((3, 1), (-1, 3), (-3, -1), (1, -3))
    solved_once(build_bigm_moment(pieces), [(c, "moment") for c in directions])
