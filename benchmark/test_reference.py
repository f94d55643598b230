"""Self-tests of the benchmark's reference checks: each passes on the
program's real output and catches one planted wrong answer.

    PYTHONPATH=src python3 -m pytest -q benchmark/test_reference.py
"""

import copy
import json
import random
from fractions import Fraction

from cdcbranch import cli
from cdcbranch.cdc import HRepPiece, annulus_instance, sos2_family
from cdcbranch.encodings import exotic_code, gray_code
from cdcbranch.formulation import build_annulus, build_bigm_moment, build_general
from cdcbranch.solver import solve

import reference
from workloads import union_pieces


def _solved_sos2():
    fam = sos2_family(8)
    form = build_general(fam, exotic_code(8))
    c = [Fraction(x) for x in (3, -1, 2, 5, 4, 0, 1, 2, 2)]
    rep = solve(form, c, "exotic")
    return list(fam.sets), [tuple(h) for h in form.codes], c, rep


def test_solve_check_passes_on_program_output():
    sets, codes, c, rep = _solved_sos2()
    assert reference.check_solve(sets, codes, c, rep) == []


def test_solve_check_catches_value_off_by_one():
    sets, codes, c, rep = _solved_sos2()
    rep.value += 1
    assert any("reference" in p for p in reference.check_solve(sets, codes, c, rep))


def test_solve_check_catches_lam_outside_its_alternative():
    sets, codes, c, rep = _solved_sos2()
    i = codes.index(tuple(rep.z))
    v = next(v for v in range(1, len(c) + 1) if v not in sets[i])
    rep.lam = tuple(Fraction(int(w == v)) for w in range(1, len(c) + 1))
    assert any("outside" in p for p in reference.check_solve(sets, codes, c, rep))


def test_annulus_sets_match_the_instance_family():
    for d in (8, 16):
        fam, _ = annulus_instance("1", "3", d)
        assert [tuple(T) for T in fam.sets] == reference.annulus_sets(d)


def test_build_check_catches_one_changed_coefficient():
    fam = sos2_family(8)
    form = build_general(fam, gray_code(3))
    sets, codes = reference.sos2_sets(8), [tuple(h) for h in form.codes]
    assert reference.check_build(form, sets, codes, "general") == []
    bad = copy.deepcopy(form)
    row = bad.rows[0]
    row.upper = row.upper[:3] + (row.upper[3] + 1,) + row.upper[4:]
    problems = reference.check_build(bad, sets, codes, "general")
    assert len(problems) == 1 and "component 4" in problems[0]


def test_build_check_holds_closed_form_row_counts():
    form = build_annulus(8, "exotic")
    sets, codes = reference.annulus_sets(8), [tuple(h) for h in form.codes]
    assert reference.check_build(form, sets, codes, "annulus-exotic") == []
    bad = copy.deepcopy(form)
    bad.rows.append(bad.rows[0])
    assert any("closed form" in p for p in reference.check_build(bad, sets, codes, "annulus-exotic"))


def test_verify_check_catches_one_vertex_fewer(tmp_path):
    inst, out = str(tmp_path / "sos2.json"), str(tmp_path / "verify.json")
    assert cli.main(["gen", "--family", "sos2", "--d", "4", "-o", inst]) == 0
    rc = cli.main(["verify", "--instance", inst, "--encoding", "exotic", "-o", out])
    with open(out) as fh:
        report = json.load(fh)
    vertices = reference.vertex_count_from_instance(inst)
    assert vertices == 8
    assert reference.check_verify(rc, report, vertices) == []
    report["ideal"]["stats"]["vertices"] -= 1
    assert reference.check_verify(rc, report, vertices) == ["7 vertices, reference 8"]


def test_union_check_catches_an_optimum_with_one_piece_left_out():
    pieces = union_pieces(random.Random(11), 0)
    system = build_bigm_moment([HRepPiece(A, b) for A, b in pieces])
    c = [Fraction(3), Fraction(2)]
    rep = solve(system, c, "moment")
    assert reference.check_union(pieces, c, rep) == []
    best = [reference.union_optimum([p], c) for p in pieces]
    top = max(best)
    assert best.count(top) == 1, "pick an instance whose optimum is one piece's"
    rest = [p for p, v in zip(pieces, best) if v != top]
    want = reference.union_optimum(rest, c)
    assert want < top
    assert any("reference" in p for p in reference.check_union(pieces, c, rep, want=want))


def test_piece_vertices_of_a_cut_box():
    A = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)]
    b = [2, 0, 2, 0, 3]
    assert sorted(reference.piece_vertices(A, b)) == sorted(
        [(0, 0), (2, 0), (0, 2), (2, 1), (1, 2)]
    )
