"""Tests for the brute-force verification oracles."""

import copy
import warnings
from types import SimpleNamespace
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcbranch.cdc import CdcFamily, HRepPiece, edge_set, grid_triangulation_fixture, sos2_family
from cdcbranch.encodings import Encoding, exotic_code, gray_code, moment_code
from cdcbranch.formulation import (
    LinearFormulation,
    TwoSidedRow,
    build_2d,
    build_general,
    build_moment_curve,
    build_sos2_exotic,
)
from cdcbranch import numerics as numerics_module
from cdcbranch import oracle as oracle_module
from cdcbranch.lp import LpError
from cdcbranch.oracle import (
    brute_force_optimum,
    brute_force_optimum_hrep,
    certified_vertices,
    check_ideal,
    check_projection,
    check_valid,
    classify_rows,
    code_values,
    embedding_points,
    objective_from_vertex_map,
    relaxation_vertices,
)
from cdcbranch.numerics import dot
from oracles import classify_rows_by_rank, hull_coordinates_by_reduction


def grid():
    return grid_triangulation_fixture()


def test_embedding_points_counts():
    fam, _ = grid()
    form = build_moment_curve(fam)
    rep = check_valid(form, code_values(form))
    # one point per (alternative, member) pair; the first pairs the code
    # of alternative 1 with the unit vector of component 1
    assert rep.stats["points"] == sum(len(s) for s in fam.sets) == 24
    assert tuple(form.codes[0]) == (1, 1) and fam.sets[0][0] == 1


def test_check_valid_passes_on_grid():
    fam, _ = grid()
    form = build_moment_curve(fam)
    assert check_valid(form, code_values(form)).ok


def test_check_valid_catches_perturbed_coefficient():
    fam, _ = grid()
    form = build_moment_curve(fam)
    row = form.rows[0]
    low = list(row.lower)
    low[0] += 1
    form.rows[0] = TwoSidedRow(row.direction, low, row.upper)
    rep = check_valid(form, code_values(form))
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
    assert check_valid(form, code_values(form)).ok
    rep = check_ideal(form, relaxation_vertices(form))
    assert not rep.ok
    assert any("off-code" in f.get("where", "") for f in rep.failures)


def test_check_projection_passes_on_grid():
    fam, _ = grid()
    form = build_moment_curve(fam)
    assert check_projection(form, code_values(form)).ok


def test_check_projection_probes_share_their_bounds(monkeypatch):
    # the bounds are coerced once per formulation; each probe's objective
    # is a tuple of ints, kept as it is
    problems = []
    real = oracle_module.solve_lp

    def spy(problem, parent=None):
        problems.append(problem)
        return real(problem, parent)

    monkeypatch.setattr(oracle_module, "solve_lp", spy)
    fam, _ = grid()
    form = build_moment_curve(fam)
    rep = check_projection(form, code_values(form))
    assert rep.ok and rep.stats["probes"] == len(problems) == len(fam.sets)
    assert all(p.bounds is problems[0].bounds for p in problems)
    assert all(type(p.objective) is tuple and {type(c) for c in p.objective} == {int} for p in problems)


def test_code_values_are_ints_where_whole(monkeypatch):
    # a value is an int where it is whole and a Fraction otherwise
    half = LinearFormulation(
        2, 1, [TwoSidedRow((2,), (0, 1), (0, 1), 3)],
        family=CdcFamily(2, [(1,), (2,)]), codes=Encoding([(F(1, 4),), (F(3, 2),)]),
    )
    assert [[type(x) for x in row] for row in code_values(half)] == [[F, int]]
    assert code_values(half) == [[F(1, 2), 3]]
    # codes with denominators 3 and 5 give whole values, all ints, so no
    # probe row of check_projection holds a whole Fraction and each takes
    # the int path of numerics._scaled
    square = [(F(1, 3), F(2, 5)), (F(4, 3), F(2, 5)), (F(4, 3), F(7, 5)), (F(1, 3), F(7, 5))]
    form = build_2d(sos2_family(4), Encoding(square))
    D = code_values(form)
    assert D == [[dot(r.direction, h) for h in form.codes] for r in form.rows]
    assert {type(x) for row in D for x in row} == {int}
    rows = []
    real = numerics_module._scaled
    monkeypatch.setattr(numerics_module, "_scaled", lambda row: rows.append(tuple(row)) or real(row))
    assert check_projection(form, D).ok
    assert rows and not [r for r in rows if any(type(x) is F for x in r)]


def test_check_projection_names_each_missing_unit_vector():
    fam, _ = grid()
    form = build_moment_curve(fam)
    row = form.rows[0]
    low = list(row.lower)
    low[0] += 1
    low[4] += 1
    form.rows[0] = TwoSidedRow(row.direction, low, row.upper)
    rep = check_projection(form, code_values(form))
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
    rep = check_projection(form, code_values(form))
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
    rep = check_projection(form, code_values(form))
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
    assert check_valid(form, code_values(form)).failures == [
        {"where": "hull equation", "alternative": 1, "component": 1},
        {"where": "row 0 lower", "alternative": 1, "component": 2},
        {"where": "hull equation", "alternative": 1, "component": 2},
        {"where": "row 0 upper", "alternative": 3, "component": 3},
        {"where": "hull equation", "alternative": 3, "component": 3},
    ]
    rep = check_projection(form, code_values(form))
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
    rep = check_valid(form, code_values(form))
    assert rep.ok and rep.stats["points"] == 6
    rep = check_projection(form, code_values(form))
    assert rep.ok and rep.failures == [] and rep.stats["probes"] == 3


def test_unbounded_relaxation_is_reported_by_its_lp_error():
    form = LinearFormulation(5, 2, [], family=sos2_family(4), codes=list(exotic_code(4)))
    with pytest.raises(LpError, match="^feasible set is unbounded$"):
        relaxation_vertices(form)
    with pytest.raises(LpError, match="^empty relaxation cannot be classified$"):
        classify_rows(form, [])
    # each slice fixes z, so it is bounded: every foreign component
    # takes the whole weight
    rep = check_projection(form, code_values(form))
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


def census(entries):
    return [(e["row"], e["side"], e["class"]) for e in entries]


def test_classify_rows_zero_dimensional_relaxation():
    # 0 <= z <= 0 with lam1 = 1: one vertex, so no face is proper and
    # every tight row is tight-nonfacet
    form = LinearFormulation(1, 1, [TwoSidedRow((1,), (0,), (0,))], codes=[(0,)])
    vertices = relaxation_vertices(form)
    assert len(vertices) == 1
    entries = classify_rows(form, vertices)
    assert census(entries) == [(0, "lower", "tight-nonfacet"), (0, "upper", "tight-nonfacet")]
    assert entries == classify_rows_by_rank(form, vertices)


def test_classify_rows_one_dimensional_relaxation():
    # z = lam2 over the segment from (1, 0, 0) to (0, 1, 1); z <= lam1 + lam2
    # holds only at the second endpoint, a facet of the segment, and
    # -(lam1 + lam2) <= z at neither
    form = LinearFormulation(
        2,
        1,
        [
            TwoSidedRow((1,), (0, 1), (0, 1)),
            TwoSidedRow((1,), (-1, -1), (1, 1)),
        ],
        codes=[(0,), (1,)],
    )
    vertices = relaxation_vertices(form)
    assert len(vertices) == 2
    entries = classify_rows(form, vertices)
    assert census(entries) == [
        (0, "lower", "tight-nonfacet"),
        (0, "upper", "tight-nonfacet"),
        (1, "lower", "never-tight"),
        (1, "upper", "facet"),
    ]
    assert entries == classify_rows_by_rank(form, vertices)


def triangle():
    # z = lam2 + 2 lam3 over the simplex: the relaxation is a triangle
    # whose facets are the three bounds lam_v >= 0; z <= 2 lam2 + 3 lam3
    # holds with equality only at its first vertex (1, 0, 0, 0)
    return LinearFormulation(
        3,
        1,
        [TwoSidedRow((1,), (0, 1, 2), (0, 1, 2)), TwoSidedRow((1,), (-1, -1, -1), (0, 2, 3))],
        family=CdcFamily(3, [(1,), (2,), (3,)]),
        codes=[(0,), (1,), (2,)],
    )


def test_classify_rows_reads_the_bound_facets():
    # the vertex that row 1 holds lies inside two bound facets and no
    # other row's face, so it is not a facet
    form = triangle()
    vertices = relaxation_vertices(form)
    assert len(vertices) == 3
    entries = classify_rows(form, vertices)
    assert census(entries) == [
        (0, "lower", "tight-nonfacet"),
        (0, "upper", "tight-nonfacet"),
        (1, "lower", "never-tight"),
        (1, "upper", "tight-nonfacet"),
    ]
    assert entries == classify_rows_by_rank(form, vertices)


# small formulations to perturb; the disconnected family carries the
# artificial component, and the triangle's facets are all bounds
PERTURBED_BASES = (
    triangle(),
    build_general(sos2_family(4), exotic_code(4)),
    build_general(sos2_family(4), gray_code(2)),
    build_moment_curve(sos2_family(4)),
    build_general(CdcFamily(6, [(1, 2), (3, 4), (5, 6)]), Encoding([(0, 0), (1, 0), (0, 1)])),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_incidence_census_matches_the_rank_rule(data):
    base = data.draw(st.sampled_from(PERTURBED_BASES))
    rows = list(base.rows)
    amount = st.sampled_from([F(0), F(1, 2), F(1), F(3)])
    # loosen some lower or upper entries: the row stays valid and may
    # stop being a facet or stop being tight at all
    for k, side, c, by in data.draw(st.lists(st.tuples(
        st.integers(0, len(rows) - 1), st.booleans(), st.integers(0, base.n - 1), amount,
    ), max_size=4)):
        lower, upper = list(rows[k].lower), list(rows[k].upper)
        if side:
            upper[c] += by
        else:
            lower[c] -= by
        rows[k] = TwoSidedRow(rows[k].direction, lower, upper)
    # add redundant rows, each the sum of two rows (perhaps the same one
    # twice) widened by a slack
    for k, l, by in data.draw(st.lists(st.tuples(
        st.integers(0, len(rows) - 1), st.integers(0, len(rows) - 1), amount,
    ), max_size=3)):
        a, b = rows[k], rows[l]
        rows.append(TwoSidedRow(
            [x + y for x, y in zip(a.direction, b.direction)],
            [x + y - by for x, y in zip(a.lower, b.lower)],
            [x + y + by for x, y in zip(a.upper, b.upper)],
        ))
    form = LinearFormulation(
        base.n,
        base.r,
        rows,
        hull_equations=base.hull_equations,
        artificial=base.artificial,
        family=base.family,
        codes=base.codes,
    )
    vertices = relaxation_vertices(form)
    assert classify_rows(form, vertices) == classify_rows_by_rank(form, vertices)


def test_perturbed_census_has_every_class():
    # the perturbations above reach every class: on sos2-4 with exotic
    # codes, where both rows are facets on both sides, a widened copy of a
    # row is never tight and the sum of the two rows holds only where
    # both do
    base = PERTURBED_BASES[1]
    a, b = base.rows
    widened = TwoSidedRow(a.direction, [x - 1 for x in a.lower], [x + 1 for x in a.upper])
    both = TwoSidedRow(
        [x + y for x, y in zip(a.direction, b.direction)],
        [x + y for x, y in zip(a.lower, b.lower)],
        [x + y for x, y in zip(a.upper, b.upper)],
    )
    form = LinearFormulation(
        base.n,
        base.r,
        [a, b, widened, both],
        hull_equations=base.hull_equations,
        family=base.family,
        codes=base.codes,
    )
    vertices = relaxation_vertices(form)
    entries = classify_rows(form, vertices)
    assert [e["class"] for e in entries] == ["facet"] * 4 + [
        "never-tight",
        "never-tight",
        "tight-nonfacet",
        "tight-nonfacet",
    ]
    assert entries == classify_rows_by_rank(form, vertices)


def with_rows(base, rows):
    return LinearFormulation(base.n, base.r, rows, hull_equations=base.hull_equations,
                             artificial=base.artificial, family=base.family, codes=base.codes)


# builder output small enough for double description of every drawn
# relaxation: connected families, a disconnected one with the artificial
# component, and one whose alternatives hold three, three and two members
CERTIFIED_BASES = (
    build_general(sos2_family(4), exotic_code(4)),
    build_general(sos2_family(4), gray_code(2)),
    build_moment_curve(sos2_family(5)),
    build_2d(sos2_family(4), moment_code(4)),
    build_sos2_exotic(8),
    build_general(CdcFamily(6, [(1, 2), (3, 4), (5, 6)]), Encoding([(0, 0), (1, 0), (0, 1)])),
    build_general(CdcFamily(4, [(1, 2, 3), (2, 3, 4), (1, 4)]), gray_code(2, 3)),
)


@st.composite
def changed_bases(draw):
    """A formulation of CERTIFIED_BASES with its rows kept, one row
    dropped, or one coefficient of one row loosened."""
    base = draw(st.sampled_from(CERTIFIED_BASES))
    rows = list(base.rows)
    change = draw(st.sampled_from(["none", "drop", "loosen"]))
    if change == "drop":
        rows.pop(draw(st.integers(0, len(rows) - 1)))
    elif change == "loosen":
        k = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, base.n - 1))
        by = draw(st.sampled_from([F(1, 2), F(1), F(3)]))
        lower, upper = list(rows[k].lower), list(rows[k].upper)
        if draw(st.booleans()):
            upper[c] += by * rows[k].den
        else:
            lower[c] -= by * rows[k].den
        rows[k] = TwoSidedRow(rows[k].direction, lower, upper, rows[k].den)
    return with_rows(base, rows)


@settings(max_examples=150, deadline=None)
@given(changed_bases())
def test_certificate_holds_exactly_when_double_description_finds_the_embedding(form):
    values = code_values(form)
    valid = check_valid(form, values)
    certified = certified_vertices(form, values, valid)
    den = form.codes.scaled[0]
    points = [tuple(F(x, den) for x in p) for p in embedding_points(form)]
    try:
        enumerated = relaxation_vertices(form)
    except LpError:
        # unbounded: a point of the relaxation lies outside the hull
        assert certified is None
        return
    # the relaxation is the hull of the embedding points exactly when the
    # three checks pass on the enumerated vertices; the certificate holds
    # only then, and always then on a connected family, whose points span
    # all that the relaxation's equations allow
    same = sorted(enumerated) == sorted(points)
    checks = valid.ok and check_ideal(form, enumerated).ok and check_projection(form, values).ok
    assert same == checks
    if certified is not None:
        assert same
    elif edge_set(form.family)[1]:
        assert not same
    if certified is not None:
        vertices, masks = certified
        assert vertices == embedding_points(form)
        assert check_ideal(form, vertices) == check_ideal(form, enumerated)
        # the certificate's masks classify the rows as the enumeration does
        entries = classify_rows(form, vertices, masks)
        assert entries == classify_rows(form, vertices) == classify_rows(form, enumerated)


@settings(max_examples=150, deadline=None)
@given(changed_bases())
def test_code_value_masks_are_the_tight_masks_of_the_embedding_points(form):
    # the comparisons lower[v-1] == D[k][i] and upper[v-1] == D[k][i], and
    # the bounds at every point off their component, give the dot products'
    # masks, valid formulation or not
    expected = oracle_module._tight_masks(form.one_sided(), form.n, embedding_points(form))
    assert oracle_module._embedding_masks(form, code_values(form)) == expected


@settings(max_examples=150, deadline=None)
@given(changed_bases(), st.lists(st.integers(1, 6), min_size=1))
def test_vertex_checks_read_any_positive_multiple_of_each_vertex(form, scales):
    # the Fraction vertices of the enumeration, and the same vertices as
    # ints, each times its lcm and then a drawn positive int: check_ideal
    # and the projection read off the vertices give the same reports,
    # failures and their rationals included
    try:
        enumerated = relaxation_vertices(form)
    except LpError:
        return
    ints = []
    for j, v in enumerate(enumerated):
        s = lcm(*(x.denominator for x in v)) * scales[j % len(scales)]
        ints.append(tuple(int(x * s) for x in v))
    ideal = check_ideal(form, enumerated)
    assert check_ideal(form, ints) == ideal
    values = code_values(form)
    if check_valid(form, values).ok and ideal.ok:
        read = check_projection(form, values, enumerated)
        assert check_projection(form, values, ints) == read


def failure_pairs(report):
    return {(f["alternative"], f["component"]) for f in report.failures}


def test_certificate_refuses_code_vertices_off_the_embedding():
    # raising the upper coefficient of component 2 on the z2 row lets
    # (e_2, h_3) into the relaxation: its z is a code, so check_ideal
    # passes, but component 2 is not in alternative 3, so the relaxation
    # is not the hull and check_projection names the leak
    base = CERTIFIED_BASES[-1]
    row = base.rows[0]
    assert row.direction == (0, 1) and 2 not in base.family.sets[2]
    upper = list(row.upper)
    upper[1] += 1
    form = with_rows(base, [TwoSidedRow(row.direction, row.lower, upper)] + base.rows[1:])
    values = code_values(form)
    valid = check_valid(form, values)
    assert valid.ok and certified_vertices(form, values, valid) is None
    enumerated = relaxation_vertices(form)
    assert (F(0), F(1), F(0), F(0), F(1), F(1)) in enumerated
    assert check_ideal(form, enumerated).ok
    # both paths name the leak: the vertex (e_2, h_3) is a vertex of the
    # slice z = h_3, a face of the relaxation
    projection = check_projection(form, values)
    from_vertices = check_projection(form, values, enumerated)
    assert projection.stats["probes"] > 0 and from_vertices.stats == {"probes": 0, "pivots": 0}
    for report in (projection, from_vertices):
        assert not report.ok and failure_pairs(report) == {(3, 2)}


@settings(max_examples=150, deadline=None)
@given(changed_bases())
def test_projection_read_off_the_vertices_matches_the_slice_lps(form):
    # wherever the relaxation is valid and ideal, each slice is a face and
    # the vertex verdict is the LP verdict, on the certificate's vertices
    # and on the enumerated ones alike
    values = code_values(form)
    valid = check_valid(form, values)
    certified = certified_vertices(form, values, valid)
    lists = [certified[0]] if certified else []
    try:
        lists.append(relaxation_vertices(form))
    except LpError:
        pass
    probed = check_projection(form, values)
    assert probed.stats["probes"] > 0
    for vertices in lists:
        if not (valid.ok and check_ideal(form, vertices).ok):
            continue
        read = check_projection(form, values, vertices)
        assert read.stats == {"probes": 0, "pivots": 0}
        assert read.ok == probed.ok and failure_pairs(read) == failure_pairs(probed)
        assert read.failures == probed.failures


def test_projection_read_off_the_vertices_names_the_largest_weight():
    # raising the upper coefficients of components 2 and 4 on the z2 row
    # by 2 leaks components 2 and 3 into the slice of alternative 3;
    # component 3 takes weight 2/3 and 1/2 at two of its vertices, and
    # both paths name the larger, the slice LP's optimum
    base = CERTIFIED_BASES[-1]
    row = base.rows[0]
    assert row.direction == (0, 1) and row.upper == (1, 0, 0, 1)
    form = with_rows(base, [TwoSidedRow(row.direction, row.lower, (1, 2, 0, 3))] + base.rows[1:])
    values = code_values(form)
    vertices = relaxation_vertices(form)
    assert check_valid(form, values).ok and check_ideal(form, vertices).ok
    at_h3 = {v[2] for v in vertices if v[form.n:] == form.codes[2]}
    assert {F(2, 3), F(1, 2)} <= at_h3
    read, probed = check_projection(form, values, vertices), check_projection(form, values)
    assert read.failures == probed.failures == [
        {"where": "foreign component admits weight 1", "alternative": 3, "component": 2},
        {"where": "foreign component admits weight 2/3", "alternative": 3, "component": 3},
    ]


def test_projection_needs_codes_in_convex_position_to_skip_its_lps():
    # three components, one per alternative, coded 0, 1 and 2 on a line:
    # z = lam_2 + 2 lam_3 is valid and ideal, but the code 1 lies between
    # the others, so its slice is no face and holds (1/2, 0, 1/2), which
    # the vertices at z = 1 do not show; the LPs run and name the leak
    family = CdcFamily(3, [(1,), (2,), (3,)])
    codes = Encoding([(0,), (1,), (2,)])
    form = LinearFormulation(3, 1, [TwoSidedRow((1,), (0, 1, 2), (0, 1, 2))],
                             family=family, codes=codes)
    values = code_values(form)
    vertices = relaxation_vertices(form)
    assert check_valid(form, values).ok and check_ideal(form, vertices).ok
    for given_vertices in (vertices, None):
        report = check_projection(form, values, given_vertices)
        assert report.stats["probes"] > 0 and not report.ok
        assert failure_pairs(report) == {(2, 1), (2, 3)}
    # with no vertices given, an ideal formulation in convex position is
    # probed by LP as well
    base = CERTIFIED_BASES[0]
    assert check_projection(base, code_values(base)).stats["probes"] > 0


def test_certificate_reads_each_facet_off_its_own_ray():
    # lowering the lower coefficient of component 1 on the (1, 0) row
    # adds a vertex to the relaxation: a facet of the hull that this side
    # held is now the face of no row or bound, so the certificate must
    # refuse; with each facet's mask read off another ray's values, it
    # holds
    base = CERTIFIED_BASES[0]
    row = base.rows[1]
    assert row.direction == (1, 0)
    lower = list(row.lower)
    lower[0] -= row.den
    loose = TwoSidedRow(row.direction, lower, row.upper, row.den)
    form = with_rows(base, [base.rows[0], loose])
    values = code_values(form)
    valid = check_valid(form, values)
    assert valid.ok and certified_vertices(form, values, valid) is None
    assert len(relaxation_vertices(form)) == len(embedding_points(form)) + 1


def test_certificate_leaves_a_disconnected_family_to_double_description():
    # z is a function of lam on the hull of a disconnected family, so the
    # points span less than the relaxation's equations allow and the
    # certificate does not hold, though the relaxation is the hull
    form = CERTIFIED_BASES[5]
    assert form.artificial and not edge_set(form.family)[1]
    values = code_values(form)
    valid = check_valid(form, values)
    assert valid.ok and certified_vertices(form, values, valid) is None
    den = form.codes.scaled[0]
    points = [tuple(F(x, den) for x in p) for p in embedding_points(form)]
    assert sorted(relaxation_vertices(form)) == sorted(points)
    # without the (1, 1) row and with a higher upper coefficient of
    # component 5 on the z2 row, z2 is no longer fixed by lam: every facet
    # of the hull, a bound lam_v >= 0 within its affine hull, is still the
    # face of that bound, so only the dimension test refuses
    row = form.rows[0]
    assert row.direction[0] == 0
    upper = list(row.upper)
    upper[4] += row.den
    loose = with_rows(form, [TwoSidedRow(row.direction, row.lower, upper, row.den), form.rows[1]])
    values = code_values(loose)
    valid = check_valid(loose, values)
    assert valid.ok and certified_vertices(loose, values, valid) is None
    assert len(relaxation_vertices(loose)) > len(points)


@st.composite
def embedding_structures(draw):
    """What the certificate's J reads of a formulation: a family covering
    1..n, distinct codes, some with a last coordinate twice the first so
    that the code differences lose rank, and maybe an artificial
    component n + 1 in no alternative."""
    n = draw(st.integers(1, 6))
    sets = draw(st.lists(st.frozensets(st.integers(1, n), min_size=1), min_size=1, max_size=6,
                         unique=True))
    uncovered = frozenset(range(1, n + 1)).difference(*sets)
    if uncovered:
        sets.append(uncovered)
    r = draw(st.integers(1, 3))
    entry = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
    code = st.lists(entry, min_size=r, max_size=r)
    if r > 1 and draw(st.booleans()):
        code = code.map(lambda h: h[:-1] + [2 * h[0]])
    codes = draw(st.lists(code.map(tuple), min_size=len(sets), max_size=len(sets),
                          unique_by=lambda h: tuple(map(F, h))))
    artificial = draw(st.booleans())
    return SimpleNamespace(family=CdcFamily(n, sets), codes=Encoding(codes), n=n + artificial)


@settings(max_examples=150, deadline=None)
@given(embedding_structures())
def test_hull_coordinates_match_the_reduction_of_every_point(form):
    assert oracle_module._hull_coordinates(form) == hull_coordinates_by_reduction(form)


def test_hull_coordinates_of_a_disconnected_family_and_the_acceptance_bases():
    disconnected = build_general(CdcFamily(8, [(1, 2), (3, 4), (5, 6), (7, 8)]), moment_code(4))
    assert disconnected.artificial
    for form in (disconnected,) + CERTIFIED_BASES:
        assert oracle_module._hull_coordinates(form) == hull_coordinates_by_reduction(form)


def test_certificate_needs_a_valid_formulation():
    form = build_general(sos2_family(4), exotic_code(4))
    values = code_values(form)
    report = check_valid(form, values)
    assert certified_vertices(form, values, report) is not None
    report.ok = False
    assert certified_vertices(form, values, report) is None


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


def test_brute_force_optimum_rejects_an_unknown_sense():
    # any sense but max or min raises, as in brute_force_optimum_hrep
    with pytest.raises(ValueError, match="sense must be 'max' or 'min'"):
        brute_force_optimum(sos2_family(4), [F(1)] * 5, sense="best")


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
