"""Tests for the brute-force verification oracles."""

import copy
import warnings
from fractions import Fraction as F

import pytest

from cdcbranch.cdc import CdcFamily, HRepPiece, grid_triangulation_fixture, sos2_family
from cdcbranch.encodings import Encoding, exotic_code
from cdcbranch.formulation import (
    LinearFormulation,
    TwoSidedRow,
    build_general,
    build_moment_curve,
)
from cdcbranch.lp import LpError
from cdcbranch.oracle import (
    brute_force_optimum,
    brute_force_optimum_hrep,
    check_ideal,
    check_projection,
    check_valid,
    classify_rows,
    objective_from_vertex_map,
    relaxation_vertices,
)


def grid():
    return grid_triangulation_fixture()


def test_embedding_points_counts():
    fam, _ = grid()
    form = build_moment_curve(fam)
    rep = check_valid(form)
    # one point per (alternative, member) pair; the first pairs the code
    # of alternative 1 with the unit vector of component 1
    assert rep.stats["points"] == sum(len(s) for s in fam.sets) == 24
    assert tuple(form.codes[0]) == (1, 1) and fam.sets[0][0] == 1


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
    assert check_ideal(form, relaxation_vertices(form)).ok


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
    rep = check_ideal(form, relaxation_vertices(form))
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


def _foreign(alt, pairs):
    return [
        {"where": "foreign component admits weight %s" % w, "alternative": alt, "component": v}
        for v, w in pairs
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
    assert rep.failures == (
        _foreign(1, [(5, 1), (6, 1), (8, 1)])
        + _foreign(2, [(1, 1), (2, 1), (4, 1)])
        + _foreign(3, [(1, "20/21"), (2, 1), (4, 1), (7, "1/3"), (8, 1), (9, "1/21")])
        + _foreign(4, [(1, "6/7"), (2, 1), (3, 1), (6, 1), (8, 1), (9, "1/7")])
        + _foreign(5, [(1, "5/7"), (2, 1), (3, 1), (4, 1), (6, 1), (9, "2/7")])
        + _foreign(6, [(1, "11/21"), (4, 1), (6, 1), (7, "11/15"), (8, 1), (9, "10/21")])
        + _foreign(7, [(1, "2/7"), (3, "6/11"), (6, 1), (7, "2/5"), (8, 1), (9, "5/7")])
    )
    assert rep.stats["probes"] == 50


def test_check_projection_names_an_empty_slice():
    # lam2 + lam3 <= z <= lam2 + 3/2 lam3: at z = 2 no weight reaches the
    # upper side, so the slice of alternative 3 is empty
    form = LinearFormulation(
        3,
        1,
        [TwoSidedRow((1,), (0, 1, 1), (0, 1, F(3, 2)))],
        family=CdcFamily(3, [(1,), (2,), (3,)]),
        codes=[(0,), (1,), (2,)],
    )
    rep = check_projection(form)
    assert rep.failures == _foreign(2, [(1, "1/3"), (3, 1)]) + [
        {"where": "missing unit vector", "alternative": 3, "component": 3},
        {"where": "slice LP infeasible", "alternative": 3, "component": 1},
        {"where": "slice LP infeasible", "alternative": 3, "component": 2},
    ]
    assert rep.stats["probes"] == 7


def test_a_violated_hull_equation_is_named_by_both_checks():
    # z = 1 holds only at the code of alternative 2; in the other slices
    # the equation is a zero row with a nonzero right-hand side
    form = LinearFormulation(
        3,
        1,
        [TwoSidedRow((1,), (0, 1, 1), (0, 1, F(3, 2)))],
        hull_equations=[((1,), 1)],
        family=CdcFamily(3, [(1, 2), (2,), (3,)]),
        codes=[(0,), (1,), (2,)],
    )
    assert check_valid(form).failures == [
        {"where": "hull equation", "alternative": 1, "component": 1},
        {"where": "row 0 lower", "alternative": 1, "component": 2},
        {"where": "hull equation", "alternative": 1, "component": 2},
        {"where": "row 0 upper", "alternative": 3, "component": 3},
        {"where": "hull equation", "alternative": 3, "component": 3},
    ]
    rep = check_projection(form)
    assert rep.failures == (
        [
            {"where": "missing unit vector", "alternative": 1, "component": 1},
            {"where": "missing unit vector", "alternative": 1, "component": 2},
            {"where": "slice LP infeasible", "alternative": 1, "component": 3},
        ]
        + _foreign(2, [(1, "1/3"), (3, 1)])
        + [
            {"where": "missing unit vector", "alternative": 3, "component": 3},
            {"where": "slice LP infeasible", "alternative": 3, "component": 1},
            {"where": "slice LP infeasible", "alternative": 3, "component": 2},
        ]
    )
    assert rep.stats["probes"] == 8


def test_checks_keep_the_artificial_component_at_zero():
    fam = CdcFamily(6, [(1, 2), (3, 4), (5, 6)])
    form = build_general(fam, Encoding([(0, 0), (1, 0), (0, 1)]))
    assert form.artificial and form.n == fam.n + 1
    rep = check_valid(form)
    assert rep.ok and rep.stats["points"] == 6
    rep = check_projection(form)
    assert rep.ok and rep.failures == [] and rep.stats["probes"] == 3


def test_unbounded_relaxation_is_reported_by_its_lp_error():
    form = LinearFormulation(5, 2, [], family=sos2_family(4), codes=list(exotic_code(4)))
    with pytest.raises(LpError, match="^feasible set is unbounded$"):
        relaxation_vertices(form)
    with pytest.raises(LpError, match="^empty relaxation cannot be classified$"):
        classify_rows(form, [])
    # each slice fixes z, so it is bounded: every foreign component
    # takes the whole weight
    rep = check_projection(form)
    assert rep.failures == (
        _foreign(1, [(3, 1), (4, 1), (5, 1)])
        + _foreign(2, [(1, 1), (4, 1), (5, 1)])
        + _foreign(3, [(1, 1), (2, 1), (5, 1)])
        + _foreign(4, [(1, 1), (2, 1), (3, 1)])
    )


def test_classify_rows_small():
    form = build_general(sos2_family(4), exotic_code(4))
    entries = classify_rows(form, relaxation_vertices(form))
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
    form = build_moment_curve(fam)
    entries = classify_rows(form, relaxation_vertices(form))
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
