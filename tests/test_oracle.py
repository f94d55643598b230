"""Tests for the brute-force verification oracles."""

import copy
import warnings
from fractions import Fraction as F

import pytest

from cdcbranch.cdc import CdcFamily, HRepPiece, grid_triangulation_fixture, sos2_family
from cdcbranch.encodings import exotic_code, moment_code
from cdcbranch.formulation import (
    LinearFormulation,
    TwoSidedRow,
    build_general,
    build_moment_curve,
)
from cdcbranch.oracle import (
    brute_force_optimum,
    brute_force_optimum_hrep,
    check_ideal,
    check_projection,
    check_valid,
    classify_rows,
    embedding_points,
    objective_from_vertex_map,
)


def grid():
    return grid_triangulation_fixture()


def test_embedding_points_counts():
    fam, _ = grid()
    pts = embedding_points(fam, moment_code(8))
    # one point per (alternative, member) pair
    assert len(pts) == sum(len(s) for s in fam.sets) == 24
    lam, z, alt, comp = pts[0]
    assert lam == (1,) + (0,) * 8
    assert z == (1, 1) and alt == 1 and comp == 1


def test_embedding_points_padding():
    fam = sos2_family(2)
    pts = embedding_points(fam, moment_code(2), total_n=5)
    assert len(pts) == 4
    assert all(len(lam) == 5 for lam, _, _, _ in pts)


def test_check_valid_passes_on_grid():
    fam, _ = grid()
    assert check_valid(build_moment_curve(fam)).ok


def test_check_valid_catches_perturbed_coefficient():
    fam, _ = grid()
    form = build_moment_curve(fam)
    row = form.rows[0]
    low = list(row.lower)
    low[0] += 1
    form.rows[0] = TwoSidedRow(row.direction, low, row.upper)
    rep = check_valid(form)
    assert not rep.ok
    # component 1 lies only in alternative 1, so only its point breaks the
    # lower side of row 0
    assert rep.failures == [{"where": "row 0 lower", "alternative": 1, "component": 1}]


def test_check_ideal_passes():
    form = build_general(sos2_family(4), exotic_code(4))
    assert check_ideal(form).ok


def test_check_ideal_catches_widened_coefficient():
    base = build_general(sos2_family(4), exotic_code(4))
    rows = [copy.deepcopy(r) for r in base.rows]
    up = list(rows[1].upper)
    up[0] += 1
    rows[1] = TwoSidedRow(rows[1].direction, rows[1].lower, up)
    form = LinearFormulation(
        base.n,
        base.r,
        rows,
        hull_equations=base.hull_equations,
        family=base.family,
        codes=base.codes,
    )
    # widening keeps validity but lets an off-code vertex appear
    assert check_valid(form).ok
    rep = check_ideal(form)
    assert not rep.ok
    assert any("off-code" in f.get("where", "") for f in rep.failures)


def test_check_projection_passes_on_grid():
    fam, _ = grid()
    assert check_projection(build_moment_curve(fam)).ok


def test_check_projection_names_each_missing_unit_vector():
    fam, _ = grid()
    form = build_moment_curve(fam)
    row = form.rows[0]
    low = list(row.lower)
    low[0] += 1
    low[4] += 1
    form.rows[0] = TwoSidedRow(row.direction, low, row.upper)
    rep = check_projection(form)
    # component 1 lies only in alternative 1; component 5 lies in six
    # alternatives, and its lower coefficient is attained at alternative 7
    assert rep.failures == [
        {"where": "missing unit vector", "alternative": 1, "component": 1},
        {"where": "missing unit vector", "alternative": 7, "component": 5},
    ]


def test_check_projection_catches_weak_relaxation():
    fam, _ = grid()
    base = build_moment_curve(fam)
    form = LinearFormulation(
        base.n,
        base.r,
        [base.rows[0]],
        hull_equations=base.hull_equations,
        family=base.family,
        codes=base.codes,
    )
    rep = check_projection(form)
    assert not rep.ok
    assert any("foreign" in f.get("where", "") for f in rep.failures)


def test_classify_rows_small():
    form = build_general(sos2_family(4), exotic_code(4))
    entries = classify_rows(form)
    assert len(entries) == 4
    assert all(e["class"] == "facet" for e in entries)
    assert {(e["row"], e["side"]) for e in entries} == {
        (0, "lower"),
        (0, "upper"),
        (1, "lower"),
        (1, "upper"),
    }


def test_classify_rows_grid_census():
    fam, _ = grid()
    entries = classify_rows(build_moment_curve(fam))
    census = {}
    for e in entries:
        census[e["class"]] = census.get(e["class"], 0) + 1
    assert census == {"facet": 8, "tight-nonfacet": 18}


def test_brute_force_optimum_grid():
    fam, _ = grid()
    w = [F(0)] * 9
    w[0] = F(1)
    w[8] = F(1)
    value, comp, alt = brute_force_optimum(fam, w)
    assert value == 1
    assert comp in fam.sets[alt - 1]


def test_brute_force_optimum_zero_objective():
    fam, _ = grid()
    value, _, _ = brute_force_optimum(fam, [F(0)] * 9)
    assert value == 0


def test_brute_force_optimum_min_sense():
    fam = sos2_family(3)
    value, comp, _ = brute_force_optimum(fam, [F(5), F(-2), F(1), F(0)], sense="min")
    assert value == -2 and comp == 2


def test_brute_force_optimum_length_check():
    with pytest.raises(ValueError):
        brute_force_optimum(sos2_family(3), [F(1)])


def test_brute_force_hrep_intervals():
    p1 = HRepPiece([[1], [-1]], [1, 0])
    p2 = HRepPiece([[1], [-1]], [3, -2])
    value, piece, point = brute_force_optimum_hrep([p1, p2], [F(1)])
    assert value == 3 and piece == 2 and point == (3,)
    value, piece, point = brute_force_optimum_hrep([p1, p2], [F(1)], sense="min")
    assert value == 0 and piece == 1


def test_brute_force_hrep_skips_empty():
    p1 = HRepPiece([[1], [-1]], [1, 0])
    empty = HRepPiece([[1], [-1]], [-1, 0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value, piece, _ = brute_force_optimum_hrep([empty, p1], [F(1)])
    assert value == 1 and piece == 2
    assert any("empty" in str(w.message) for w in caught)


def test_objective_from_vertex_map():
    _, vm = grid()
    c = objective_from_vertex_map(vm, (F(1), F(1)))
    assert len(c) == 9
    # node 9 sits at (2, 2)
    assert c[8] == 4
