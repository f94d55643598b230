"""Unit tests for the rational simplex and vertex enumeration."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdcbranch import lp as lp_module
from cdcbranch import numerics
from cdcbranch.branching import psi
from cdcbranch.cdc import HRepPiece, sos2_family
from cdcbranch.encodings import Encoding, exotic_code
from cdcbranch.formulation import build_general, compute_bigm
from cdcbranch.lp import (
    EQ,
    GE,
    LE,
    LpError,
    LpProblem,
    enumerate_vertices,
    lp_feasible,
    solve_lp,
)
from cdcbranch.numerics import dot, vec
from cdcbranch.oracle import check_projection, code_values
from oracles import (
    dd_start_by_nullspace,
    dense_condensed_pivot,
    double_description_by_values,
    full_tableau_solve_lp,
)

F = Fraction


def test_single_variable_max():
    res = solve_lp(LpProblem(1, [1], [((1,), LE, 1)]))
    assert res.status == "optimal"
    assert res.value == 1
    assert res.x == (F(1),)


def test_simplex_face_max():
    # maximize the third weight over the unit simplex
    res = solve_lp(
        LpProblem(3, [0, 0, 1], [((1, 1, 1), EQ, 1)], bounds=[(0, None)] * 3)
    )
    assert res.status == "optimal"
    assert res.value == 1
    assert res.x == (F(0), F(0), F(1))


def test_parabola_hull_max_first_coordinate():
    rows = [(a, rel, rhs) for a, rel, rhs in psi(7, 1, 7).rows]
    res = solve_lp(LpProblem(2, [1, 0], rows))
    assert res.status == "optimal"
    assert res.value == 7
    assert res.x == (F(7), F(49))


def test_min_sense():
    # a minimum is the maximum of the negated objective, negated
    rows = [((1,), GE, 3)]
    res = solve_lp(LpProblem(1, [-1], rows))
    assert res.status == "optimal"
    assert -res.value == 3


def test_infeasible():
    res = solve_lp(LpProblem(1, [1], [((1,), LE, 0), ((1,), GE, 1)]))
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_lp(LpProblem(1, [1], [((1,), GE, 0)]))
    assert res.status == "unbounded"


def test_a_free_variable_that_no_row_holds_is_unbounded_both_ways():
    # y is free and in no row, so it stays nonbasic at 0: a nonzero
    # objective entry on it is unbounded whatever its sign
    rows = [((1, 0), LE, 1)]
    for c in ((0, 1), (0, -1), (1, F(-1, 2))):
        assert solve_lp(LpProblem(2, c, rows)).status == "unbounded"
    assert solve_lp(LpProblem(2, (1, 0), rows)).x == (F(1), F(0))


def test_free_variable_with_negative_optimum():
    res = solve_lp(LpProblem(1, [1], [((1,), LE, -5)]))
    assert res.status == "optimal"
    assert res.value == -5


def test_bounds_handling():
    res = solve_lp(
        LpProblem(2, [1, 1], [((1, 1), LE, 10)], bounds=[(F(1), F(3)), (None, F(2))])
    )
    assert res.status == "optimal"
    assert res.value == 5
    assert res.x == (F(3), F(2))


def test_fixed_variable_bounds():
    res = solve_lp(LpProblem(1, [1], [], bounds=[(F(2), F(2))]))
    assert res.status == "optimal"
    assert res.value == 2


def test_degenerate_cycling_instance_terminates():
    # classic cycling instance; Bland's rule must reach the optimum
    rows = [
        ((F(1, 4), -60, F(-1, 25), 9), LE, 0),
        ((F(1, 2), -90, F(-1, 50), 3), LE, 0),
        ((0, 0, 1, 0), LE, 1),
    ]
    obj = [F(3, 4), -150, F(1, 50), -6]
    res = solve_lp(LpProblem(4, obj, rows, bounds=[(0, None)] * 4))
    assert res.status == "optimal"
    assert res.value == F(1, 20)


def test_rational_data_stays_exact():
    res = solve_lp(
        LpProblem(2, [F(1, 3), F(1, 7)], [((1, 1), LE, F(22, 7))], bounds=[(0, None)] * 2)
    )
    assert res.status == "optimal"
    assert res.value == F(22, 21)


def test_lp_feasible():
    assert lp_feasible(1, [((1,), LE, 1), ((1,), GE, 0)])
    assert not lp_feasible(1, [((1,), LE, 0), ((1,), GE, 1)])


def test_enumerate_vertices_simplex():
    verts = enumerate_vertices(3, [((1, 1, 1), EQ, 1)], bounds=[(0, None)] * 3)
    assert sorted(verts) == [
        (F(0), F(0), F(1)),
        (F(0), F(1), F(0)),
        (F(1), F(0), F(0)),
    ]


def test_enumerate_vertices_unit_square():
    verts = enumerate_vertices(2, [], bounds=[(0, 1), (0, 1)])
    assert len(verts) == 4
    assert set(verts) == {
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    }


def test_enumerate_vertices_parabola_hull():
    Q = psi(4, 1, 4)
    verts = enumerate_vertices(2, Q.rows)
    assert sorted(verts) == [(F(1), F(1)), (F(2), F(4)), (F(3), F(9)), (F(4), F(16))]


def test_enumerate_vertices_empty_set():
    assert enumerate_vertices(1, [((1,), LE, -1)], bounds=[(0, None)]) == []


def test_enumerate_vertices_unbounded_raises():
    with pytest.raises(LpError):
        enumerate_vertices(2, [((-1, 0), LE, 0), ((0, -1), LE, 0)])


def test_enumerate_vertices_equality_slice():
    # square sliced by x = y leaves a diagonal segment
    verts = enumerate_vertices(2, [((1, -1), EQ, 0)], bounds=[(0, 1), (0, 1)])
    assert sorted(verts) == [(F(0), F(0)), (F(1), F(1))]


def test_enumerate_vertices_redundant_rows():
    verts = enumerate_vertices(
        1, [((1,), LE, 1), ((2,), LE, 2), ((1,), LE, 3)], bounds=[(0, None)]
    )
    assert sorted(verts) == [(F(0),), (F(1),)]


def test_enumerate_vertices_rejects_malformed_rows_and_bounds():
    with pytest.raises(ValueError, match="unknown relation"):
        enumerate_vertices(1, [((1,), "<", 1)])
    # zip would otherwise read a short row against the homogenizing
    # coordinate and drop the tail of a long one
    for n, a in ((2, (1,)), (1, (1, 5))):
        with pytest.raises(ValueError, match="row length mismatch"):
            enumerate_vertices(n, [(a, LE, 1)], bounds=[(0, 1)] * n)
    with pytest.raises(ValueError, match="bounds length mismatch"):
        enumerate_vertices(1, [((1,), LE, 1)], bounds=[(0, 1), (5, 3)])


def test_enumerate_vertices_lineality_fallback_reads_bounds():
    # y is free, so the cone has a line and the fallback LP decides: with
    # x >= 0 the row x <= -1 leaves nothing, without it a strip remains
    rows = [((1, 0), LE, -1)]
    assert enumerate_vertices(2, rows, bounds=[(0, None), (None, None)]) == []
    with pytest.raises(LpError, match="feasible set is unbounded"):
        enumerate_vertices(2, rows)


def test_enumerate_vertices_eliminates_the_cone_once(monkeypatch):
    # two eliminations: the nullspace of the equalities, and one reduction
    # of [G^T | I] that shows the cone pointed and gives the starting rays
    # with their values; no rank, nullspace or dot product of the cone
    calls = []
    real = numerics._gauss_jordan

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(numerics, "_gauss_jordan", counted)
    monkeypatch.setattr(lp_module, "_gauss_jordan", counted)
    verts = enumerate_vertices(3, [((1, 1, 1), EQ, 1)], bounds=[(0, None)] * 3)
    assert len(verts) == 3 and len(calls) == 2


@st.composite
def pivot_tableaux(draw, p):
    """(T, basis, N, r, q): a condensed int tableau, row 0 of reduced
    costs with scale 0 and m rows with positive scales, n nonbasic columns,
    and a pivot on row r and column q whose entry is p.  Entries are small,
    with many zeros and units; one more row holds 0 at q."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.sampled_from([1, -1]), st.integers(-12, 12))

    def row(scale):
        return draw(st.lists(entry, min_size=n + 1, max_size=n + 1)) + [scale]

    T = [row(0)] + [row(draw(st.integers(1, 9))) for _ in range(m)]
    r, q = draw(st.integers(1, m)), draw(st.integers(0, n - 1))
    T[r][q] = p
    T[draw(st.sampled_from([i for i in range(m + 1) if i != r]))][q] = 0
    return T, list(range(n, n + m)), list(range(n)), r, q


@pytest.mark.parametrize("p", [1, -1, 2, -3, 7])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sparse_pivot_gives_the_dense_rows_byte_for_byte(p, data):
    # the same coprime int rows as the dense update, the same basis and
    # nonbasic columns, and no row of the input changed in place: a child
    # tableau shares its parent's rows
    T, basis, N, r, q = data.draw(pivot_tableaux(p))
    before = [(row, list(row)) for row in T]
    sparse, dense = (list(T), list(basis), list(N)), (list(T), list(basis), list(N))
    lp_module._pivot(*sparse, r, q)
    dense_condensed_pivot(*dense, r, q)
    assert sparse == dense
    assert all(type(x) is int for row in sparse[0] for x in row)
    assert all(row == copy for row, copy in before)


def test_cone_with_a_pivot_in_the_identity_is_not_pointed():
    # G^T has rank 1, yet [G^T | I] still reaches two pivots, the second
    # in I: counting pivots alone would take this cone as pointed
    with pytest.raises(LpError, match="cone is not pointed"):
        lp_module._double_description([[0, 0], [3, -3]])


@st.composite
def cone_rows(draw):
    # int rows G, k columns; a column may be an earlier one times 0, 1 or
    # -2, which leaves the cone not pointed
    m, k = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    cols = []
    for _ in range(k):
        if cols and draw(st.integers(0, 3)) == 0:
            f = draw(st.sampled_from([0, 1, -2]))
            cols.append([f * x for x in draw(st.sampled_from(cols))])
        else:
            cols.append(draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)))
    return [list(row) for row in zip(*cols)]


@settings(max_examples=200, deadline=None)
@given(cone_rows())
def test_dd_start_matches_the_nullspace_start(G):
    try:
        start = dd_start_by_nullspace(G)
    except LpError:
        with pytest.raises(LpError, match="cone is not pointed"):
            lp_module._double_description(G)
        return
    assert lp_module._dd_start(G) == start
    # the same rays in the same order, with the same values, at the end
    with patch.object(lp_module, "_dd_start", dd_start_by_nullspace):
        expected = lp_module._double_description(G)
    assert lp_module._double_description(G) == expected


@st.composite
def hull_cone_rows(draw):
    # the rows (p, -1) of facets_of_hull and the certificate, for 3 to 12
    # int points in 1 to 3 dimensions, repeats allowed; points that do not
    # span their space leave the cone not pointed
    r = draw(st.integers(1, 3))
    point = st.lists(st.integers(-3, 3), min_size=r, max_size=r)
    return [p + [-1] for p in draw(st.lists(point, min_size=3, max_size=12))]


def tight_mask(G, ray):
    return sum(1 << i for i, g in enumerate(G) if sum(a * b for a, b in zip(g, ray)) == 0)


@settings(max_examples=200, deadline=None)
@given(st.one_of(cone_rows(), hull_cone_rows()))
def test_double_description_returns_the_reference_rays_and_their_tight_masks(G):
    # the rays of the reference, which carries every ray's values against
    # every row, in the same order; each mask is the ray's tight set over
    # G's rows, bit i for row i, as a dot product finds it
    try:
        expected, _ = double_description_by_values(G)
    except LpError:
        with pytest.raises(LpError, match="cone is not pointed"):
            lp_module._double_description(G)
        return
    rays, masks = lp_module._double_description(G)
    assert rays == expected
    assert masks == [tight_mask(G, ray) for ray in rays]


def test_double_description_of_the_zero_cone():
    # no columns, and the cone {0} that u <= 0 and -u <= 0 leave: no ray,
    # as before; the two opposite rows of a line leave it not pointed
    for G in ([], [[]], [[1], [-1]], [[1, 0], [-1, 0], [0, 1], [0, -1]]):
        assert lp_module._double_description(G) == ([], [])
        assert double_description_by_values(G) == ([], [])
    with pytest.raises(LpError, match="cone is not pointed"):
        lp_module._double_description([[1, 0], [-1, 0]])


def test_facets_of_triangle():
    pts = [(0, 0), (1, 0), (0, 1)]
    facets = Encoding(pts).facets
    assert len(facets) == 3
    for a, rhs in facets:
        assert all(dot(a, vec(p)) <= rhs for p in pts)
        assert sum(1 for p in pts if dot(a, vec(p)) == rhs) == 2


def test_facets_of_square_interior_point_strict():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
    facets = Encoding(pts).facets
    assert len(facets) == 4
    for a, rhs in facets:
        assert dot(a, vec((1, 1))) < rhs


def test_facets_relative_to_affine_hull():
    def ints(facets):
        return sorted((tuple(int(x) for x in a), int(rhs)) for a, rhs in facets)

    # normals lie in the hull's direction space, rhs tight on each facet
    assert ints(Encoding([(0, 0), (1, 1), (2, 2)]).facets) == [
        ((-1, -1), 0),
        ((1, 1), 4),
    ]
    assert Encoding([(5, 7)]).facets == []
    square = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    assert ints(Encoding(square).facets) == [
        ((-1, 0, 0), 0),
        ((0, -1, 0), 0),
        ((0, 1, 0), 1),
        ((1, 0, 0), 1),
    ]
    # the unit square lifted into the plane z2 == z3 by (x, y) -> (x, y, y)
    tilted = [(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)]
    assert ints(Encoding(tilted).facets) == [
        ((-1, 0, 0), 0),
        ((0, -1, -1), 0),
        ((0, 1, 1), 2),
        ((1, 0, 0), 1),
    ]


def test_optimum_matches_vertex_enumeration_on_random_polytopes():
    rng = random.Random(20240817)
    for _ in range(20):
        n = 2
        rows = [((1, 0), LE, F(3)), ((0, 1), LE, F(3))]
        for _ in range(rng.randint(1, 3)):
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            if a == (0, 0):
                continue
            rows.append((a, LE, F(rng.randint(0, 6))))
        bounds = [(F(0), None)] * n
        c = [rng.randint(-5, 5) for _ in range(n)]
        verts = enumerate_vertices(n, rows, bounds=bounds)
        res = solve_lp(LpProblem(n, c, rows, bounds=bounds))
        if not verts:
            assert res.status == "infeasible"
            continue
        assert res.status == "optimal"
        assert res.value == max(dot(vec(c), v) for v in verts)


def _integer_scaled(a, rhs):
    """The row a . x <= rhs times the lcm of its denominators, as a row
    (a, LE, rhs)."""
    scale = 1
    for x in tuple(a) + (rhs,):
        scale = lcm(scale, F(x).denominator)
    return tuple(int(F(x) * scale) for x in a), LE, int(F(rhs) * scale)


def test_vertices_with_rational_rows_match_integer_scaled_rows():
    # non-unit denominators in coefficients and right-hand sides; scaling a
    # row by a positive integer describes the same set, so double
    # description must return the same vertices in the same order
    ineqs = [
        ((F(1, 3), F(1, 5)), F(3, 7)),
        ((1, F(-1, 2)), F(1, 3)),
        ((F(-2, 3), 1), F(3, 4)),
        ((F(-1, 2), 0), 0),
        ((0, F(-5, 9)), 0),
    ]
    verts = enumerate_vertices(2, [(a, LE, rhs) for a, rhs in ineqs])
    scaled = enumerate_vertices(2, [_integer_scaled(a, rhs) for a, rhs in ineqs])
    assert verts == scaled
    assert len(verts) == 5
    assert any(x.denominator > 1 for v in verts for x in v)
    for v in verts:
        assert all(dot(vec(a), v) <= rhs for a, rhs in ineqs)
        assert sum(1 for a, rhs in ineqs if dot(vec(a), v) == rhs) == 2


def test_facets_of_rational_points_are_coprime_and_match_scaled_points():
    pts = [(0, 0), (F(1, 3), 0), (0, F(2, 5)), (F(1, 3), F(2, 7)), (F(1, 7), F(1, 11))]
    facets = Encoding(pts).facets
    assert len(facets) == 4
    for a, rhs in facets:
        ray = tuple(a) + (rhs,)
        assert all(type(x) is int for x in ray)
        assert gcd(*(int(x) for x in ray)) == 1
        assert all(dot(a, vec(p)) <= rhs for p in pts)
        assert sum(1 for p in pts if dot(a, vec(p)) == rhs) == 2
    # scaling the points by L maps facet (a, rhs) to (a, L * rhs); the rays
    # are normalised again, so compare up to a positive multiple, in order
    L = 3 * 5 * 7 * 11
    scaled = Encoding([tuple(L * F(x) for x in p) for p in pts]).facets
    assert len(scaled) == len(facets)
    for (a, rhs), (sa, srhs) in zip(facets, scaled):
        lhs_ray = tuple(a) + (L * rhs,)
        rhs_ray = tuple(sa) + (srhs,)
        c = next(y / x for x, y in zip(lhs_ray, rhs_ray) if x != 0)
        assert c > 0
        assert tuple(c * x for x in lhs_ray) == rhs_ray


def _random_lp(rng):
    n = rng.randint(2, 4)
    rows = []
    for _ in range(rng.randint(2, 5)):
        a = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        rows.append((a, rng.choice([EQ, LE, GE]), F(rng.randint(-4, 4), rng.randint(1, 3))))
    bounds = [rng.choice([(0, None), (None, None), (-2, 3), (None, 5)]) for _ in range(n)]
    c = [rng.randint(-3, 3) for _ in range(n)]
    return n, c, rows, bounds


def test_rows_scaled_by_positive_rationals_give_the_same_solution():
    # the tableau scales each row to coprime integers, so a row given
    # times 3/7 or 5/2 must pivot exactly as the row itself
    rng = random.Random(5)
    scales = (F(3, 7), F(5, 2), F(1, 9), F(11, 3))
    statuses = []
    for _ in range(60):
        n, c, rows, bounds = _random_lp(rng)
        scaled = [
            (tuple(s * x for x in a), rel, s * rhs)
            for a, rel, rhs in rows
            for s in [rng.choice(scales)]
        ]
        base = solve_lp(LpProblem(n, c, rows, bounds=bounds))
        res = solve_lp(LpProblem(n, c, scaled, bounds=bounds))
        assert (res.status, res.x, res.value) == (base.status, base.x, base.value)
        statuses.append(base.status)
    assert {"optimal", "infeasible", "unbounded"} <= set(statuses)


def test_duplicated_equalities_at_rational_scales():
    # the three equalities are one row up to scale, so phase 1 ends with
    # their other rows basic at zero; they stay in the tableau
    rows = [
        ((1, 1), EQ, 2),
        ((2, 2), EQ, 4),
        ((F(3, 7), F(3, 7)), EQ, F(6, 7)),
        ((1, -1), LE, 1),
    ]
    res = solve_lp(LpProblem(2, [1, 0], rows, bounds=[(0, None)] * 2))
    assert res.status == "optimal"
    assert res.x == (F(3, 2), F(1, 2))
    assert res.value == F(3, 2)


def test_equality_next_to_a_matching_inequality_pair():
    # the two inequalities meet in the equality -2x + y == -2, which an
    # upper-bounded y and the first equality pin to one point
    rows = [((-1, -2), EQ, 0), ((-2, 1), LE, -2), ((-2, 1), GE, -2)]
    res = solve_lp(LpProblem(2, [0, 1], rows, bounds=[(0, None), (None, 3)]))
    assert res.status == "optimal"
    assert res.x == (F(4, 5), F(-2, 5))
    assert res.value == F(-2, 5)


def test_phase_one_from_an_infeasible_slack_basis_with_every_ratio_tied():
    # the cycling instance in a box, plus a row that the origin violates:
    # the slack basis is infeasible, and with an all-zero row 0 every dual
    # ratio of phase 1 is 0, so each entering column is chosen on a tie
    rows = [
        ((F(1, 4), -60, F(-1, 25), 9), LE, 0),
        ((F(1, 2), -90, F(-1, 50), 3), LE, 0),
        ((0, 0, 1, 0), LE, 1),
        ((1, 1, 1, 1), GE, F(1, 2)),
    ]
    obj = [F(3, 4), -150, F(1, 50), -6]
    bounds = [(0, 10)] * 4
    verts = enumerate_vertices(4, rows, bounds)
    for sign, best, value in ((1, max, F(1, 20)), (-1, min, F(-1560))):
        res = solve_lp(LpProblem(4, [sign * x for x in obj], rows, bounds=bounds))
        assert res.status == "optimal"
        assert sign * res.value == value == best(dot(vec(obj), v) for v in verts)
        assert res.x in verts


def test_phase_one_proves_infeasibility_after_pivoting():
    # x + y >= 3 leaves the slack basis first; only after x and then y
    # enter does the third row read s1 + s2 + s3 == -1
    rows = [((1, 1), GE, 3), ((1, 0), LE, 1), ((0, 1), LE, 1)]
    bounds = [(0, None)] * 2
    res = solve_lp(LpProblem(2, [1, 1], rows, bounds=bounds))
    assert (res.status, res.pivots) == ("infeasible", 2)
    assert enumerate_vertices(2, rows, bounds) == []


def test_free_variables_with_rational_data_and_negative_optimum():
    rows = [
        ((F(3, 5), 0), LE, F(-7, 5)),
        ((0, F(2, 7)), LE, F(-3, 7)),
        ((1, 1), GE, -10),
    ]
    res = solve_lp(LpProblem(2, [F(1, 2), F(1, 3)], rows))
    assert res.status == "optimal"
    assert res.x == (F(-7, 3), F(-3, 2))
    assert res.value == F(-5, 3)
    low = solve_lp(LpProblem(2, [F(-1, 2), F(-1, 3)], rows))
    assert low.status == "optimal"
    assert low.x == (F(-17, 2), F(-3, 2))
    assert -low.value == F(-19, 4)


def _det(M):
    if len(M) == 1:
        return M[0][0]
    return sum(
        (-1) ** j * M[0][j] * _det([row[:j] + row[j + 1 :] for row in M[1:]])
        for j in range(len(M))
    )


def _brute_force_vertices(n, ineqs, eq):
    """Every point of {ineqs, eq} where eq and n - 1 of ineqs are tight and
    independent, by Cramer's rule on each subset.  eq is tight at every
    point of the set, so each vertex has such a subset."""
    found = set()
    for subset in itertools.combinations(ineqs, n - 1):
        A = [list(a) for a, _ in (eq,) + subset]
        b = [rhs for _, rhs in (eq,) + subset]
        D = _det(A)
        if D == 0:
            continue
        x = tuple(
            _det([row[:k] + [b[i]] + row[k + 1 :] for i, row in enumerate(A)]) / D
            for k in range(n)
        )
        if all(dot(a, x) <= rhs for a, rhs in ineqs):
            found.add(x)
    return found


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def bounded_systems(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    row = st.tuples(st.lists(rationals, min_size=n, max_size=n).map(tuple), rationals)
    ineqs = draw(st.lists(row, max_size=4))
    eq = draw(row)
    lo = [draw(rationals) - 3 for _ in range(n)]
    hi = [draw(rationals) + 3 for _ in range(n)]
    return n, ineqs, eq, list(zip(lo, hi))


@settings(max_examples=200, deadline=None)
@given(bounded_systems())
def test_enumerate_vertices_matches_cramer_oracle(system):
    n, ineqs, eq, bounds = system
    assume(any(eq[0]))
    rows = [(a, LE, rhs) for a, rhs in ineqs] + [(eq[0], EQ, eq[1])]
    verts = enumerate_vertices(n, rows, bounds=bounds)
    assert len(set(verts)) == len(verts)
    box = []
    for k, (lb, ub) in enumerate(bounds):
        e = tuple(F(int(i == k)) for i in range(n))
        box += [(tuple(-x for x in e), -lb), (e, ub)]
    assert set(verts) == _brute_force_vertices(n, list(ineqs) + box, eq)


BOUND_KINDS = ("free", "lower", "upper only", "two-sided", "fixed")


@st.composite
def bounded_lps(draw, kinds=BOUND_KINDS):
    """A bounded LP with one of the five bound kinds per variable, drawn
    from kinds.  A side that the bounds leave open is closed by a row, so
    the feasible set is a polytope (maybe empty) and its best vertex is
    the optimum."""
    n = draw(st.integers(min_value=1, max_value=3))
    bounds, rows = [], []
    for j in range(n):
        e = tuple(F(int(i == j)) for i in range(n))
        lo, hi = draw(rationals) - 3, draw(rationals) + 3
        kind = draw(st.sampled_from(kinds))
        if kind == "free":
            bounds.append((None, None))
            rows += [(e, LE, hi), (e, GE, lo)]
        elif kind == "lower":
            bounds.append((lo, None))
            rows.append((e, LE, hi))
        elif kind == "upper only":
            bounds.append((None, hi))
            rows.append((e, GE, lo))
        elif kind == "two-sided":
            bounds.append((lo, hi))
        else:
            v = draw(rationals)
            bounds.append((v, v))
    coeffs = st.lists(rationals, min_size=n, max_size=n).map(tuple)
    rows += draw(st.lists(st.tuples(coeffs, st.sampled_from((LE, GE, EQ)), rationals), max_size=3))
    return n, draw(coeffs), rows, bounds


@settings(max_examples=300, deadline=None)
@given(bounded_lps())
def test_solve_lp_matches_vertex_enumeration_on_every_bound_kind(lp):
    n, c, rows, bounds = lp
    res = solve_lp(LpProblem(n, c, rows, bounds=bounds))
    verts = enumerate_vertices(n, rows, bounds=bounds)
    if not verts:
        assert res.status == "infeasible"
        return
    assert res.status == "optimal"
    x = res.x
    assert len(x) == n and all(type(v) is F for v in x)
    assert type(res.value) is F
    for a, rel, rhs in rows:
        v = dot(vec(a), x)
        assert v <= rhs if rel == LE else v >= rhs if rel == GE else v == rhs
    for v, (lb, ub) in zip(x, bounds):
        assert (lb is None or v >= lb) and (ub is None or v <= ub)
    assert res.value == dot(vec(c), x)
    assert res.value == max(dot(vec(c), v) for v in verts)
    # a free variable has one column, eliminated on a row, so the optimum
    # is a basic solution: a vertex of the polytope
    assert x in verts


@pytest.mark.parametrize("kind", BOUND_KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_int_value_is_c_dot_x_for_every_bound_kind(kind, data):
    # _optimum sums the value in ints over the columns' offsets and the
    # rows' scales: it must be c . x in Fractions, every variable of one
    # kind, for a Fraction objective and for the same one as ints
    n, c, rows, bounds = data.draw(bounded_lps(kinds=(kind,)))
    res = solve_lp(LpProblem(n, c, rows, bounds=bounds))
    if res.status != "optimal":
        return
    assert type(res.value) is F
    assert res.value == sum((F(cj) * xj for cj, xj in zip(c, res.x)), F(0))
    s = lcm(*(F(cj).denominator for cj in c))
    ints = tuple(int(cj * s) for cj in c)
    scaled = solve_lp(LpProblem(n, ints, rows, bounds=bounds))
    assert scaled.value == s * res.value and scaled.x == res.x


def test_the_int_value_reads_every_column_kind():
    # a lower shift, an upper bound alone (sign -1), a box, a fixed and a
    # free variable, each with a nonzero offset or value, in one LP with a
    # Fraction objective
    bounds = [(F(1, 3), None), (None, F(7, 2)), (F(-1, 2), F(5, 4)), (F(2, 3), F(2, 3)),
              (None, None)]
    e = [tuple(int(i == j) for i in range(5)) for j in range(5)]
    rows = [(e[0], LE, 2), (e[1], GE, -1), (e[4], LE, F(9, 7)), (e[4], GE, -3)]
    c = (F(3, 2), F(-5, 3), F(7, 4), F(-1, 6), F(2, 5))
    problem = LpProblem(5, c, rows, bounds=bounds)
    assert problem.objective == (90, -100, 105, -10, 24) and problem.objective_den == 60
    res = solve_lp(problem)
    assert res.x == (F(2), F(-1), F(5, 4), F(2, 3), F(9, 7))
    assert res.value == sum(a * b for a, b in zip(c, res.x)) == F(36577, 5040)


def test_value_readers_build_no_point(monkeypatch):
    # x is read off the kept tableau only when asked: check_projection's
    # probes and compute_bigm's bounds read only the value
    built = []
    real = lp_module._point

    def spy(tab):
        built.append(tab)
        return real(tab)

    monkeypatch.setattr(lp_module, "_point", spy)
    form = build_general(sos2_family(4), exotic_code(4))
    report = check_projection(form, code_values(form))
    assert report.ok and report.stats["probes"] > 0
    pieces = [HRepPiece([[1], [-1]], [i + 1, -i]) for i in range(0, 8, 2)]
    assert len(compute_bigm(pieces)) == len(pieces)
    assert built == []
    # a reader of x builds it once
    res = solve_lp(LpProblem(1, [1], [((1,), LE, 3)]))
    assert res.x == res.x == (F(3),) and len(built) == 1
    assert solve_lp(LpProblem(1, [1], [((1,), LE, 3), ((1,), GE, 4)])).x is None
    assert len(built) == 1


def _exact_forms(q):
    """q as a Fraction, as a 'p/q' string and, when it is whole, as an int."""
    forms = [q, "%d/%d" % (q.numerator, q.denominator)]
    return st.sampled_from(forms + [int(q)] if q.denominator == 1 else forms)


@st.composite
def open_lps(draw):
    """An LP with one of the five bound kinds per variable and rows whose
    entries are ints, Fractions and 'p/q' strings.  No row closes a side
    that the bounds leave open, so some LPs are unbounded, and some rows
    leave nothing, so some are infeasible."""
    n = draw(st.integers(min_value=1, max_value=3))
    bounds = []
    for _ in range(n):
        lo, hi, v = draw(rationals) - 3, draw(rationals) + 3, draw(rationals)
        kind = draw(st.sampled_from(BOUND_KINDS))
        bounds.append({"free": (None, None), "lower": (lo, None), "upper only": (None, hi),
                       "two-sided": (lo, hi), "fixed": (v, v)}[kind])
    entries = rationals.flatmap(_exact_forms)
    coeffs = st.lists(entries, min_size=n, max_size=n).map(tuple)
    rows = draw(st.lists(st.tuples(coeffs, st.sampled_from((LE, GE, EQ)), entries), max_size=4))
    return n, draw(st.lists(rationals, min_size=n, max_size=n)), rows, bounds


def test_solve_lp_agrees_with_scipy_linprog():
    # an oracle outside this package, scipy's HiGHS, works in floats: its
    # values are compared within a tolerance here, and no float reaches
    # solve_lp.  Feasibility is asked first, with a zero objective, so an
    # LP that is both infeasible and unbounded reads infeasible on both sides
    optimize = pytest.importorskip("scipy.optimize")

    @settings(max_examples=200, deadline=None)
    @given(open_lps())
    def agrees(lp):
        n, c, rows, bounds = lp
        res = solve_lp(LpProblem(n, c, rows, bounds=bounds))
        ub, eq = ([], []), ([], [])
        for a, rel, rhs in rows:
            sign = -1 if rel == GE else 1
            side = eq if rel == EQ else ub
            side[0].append([sign * float(F(x)) for x in a])
            side[1].append(sign * float(F(rhs)))
        box = [tuple(None if v is None else float(v) for v in b) for b in bounds]

        def linprog(objective):
            return optimize.linprog(
                objective, A_ub=ub[0] or None, b_ub=ub[1] or None, A_eq=eq[0] or None,
                b_eq=eq[1] or None, bounds=box, method="highs")

        feasible = linprog([0.0] * n)
        assert feasible.status in (0, 2), feasible.message
        if feasible.status == 2:
            assert res.status == "infeasible"
            return
        ref = linprog([-float(x) for x in c])
        assert ref.status in (0, 3), ref.message
        assert res.status == ("optimal" if ref.status == 0 else "unbounded")
        if ref.status == 0:
            assert float(res.value) == pytest.approx(-ref.fun, rel=1e-7, abs=1e-7)

    agrees()


@settings(max_examples=200, deadline=None)
@given(bounded_lps())
def test_int_rows_solve_as_their_fraction_values(lp):
    # each row scaled to int numerators, as formulations hand their rows
    # over; the same ints as Fractions; and the row as drawn
    n, c, rows, bounds = lp
    ints = []
    for a, rel, rhs in rows:
        full = [F(x) for x in (*a, rhs)]
        s = lcm(*(x.denominator for x in full))
        nums = tuple(x.numerator * (s // x.denominator) for x in full)
        ints.append((nums[:-1], rel, nums[-1]))
    fracs = [(tuple(map(F, a)), rel, F(rhs)) for a, rel, rhs in ints]
    # all three are held as the same int rows
    held = [LpProblem(n, c, r, bounds=bounds).rows for r in (ints, fracs, rows)]
    assert held == [ints] * 3
    assert all(type(x) is int for a, _, rhs in held[1] for x in (*a, rhs))
    results = [solve_lp(LpProblem(n, c, r, bounds=bounds)) for r in (ints, fracs, rows)]
    summaries = [(res.status, res.x, res.value, res.pivots) for res in results]
    assert summaries[0] == summaries[1] == summaries[2]
    for res in results:
        assert res.x is None or all(type(v) is F for v in res.x)
        assert res.value is None or type(res.value) is F
    vertices = [enumerate_vertices(n, r, bounds) for r in (ints, fracs, rows)]
    assert vertices[0] == vertices[1] == vertices[2]
    assert all(type(x) is F for v in vertices[0] for x in v)


@settings(max_examples=200, deadline=None)
@given(bounded_lps(), st.data())
def test_warm_rows_match_a_cold_solve_of_the_full_list(lp, data):
    # rows added to an optimal LP twice over, by dual simplex from the
    # parent's tableau, against one cold solve of every row.  In some draws
    # one more free variable, with objective entry 0, is held by no row of
    # the LP; the first added rows are the first to hold it, and bound it.
    n, c, rows, bounds = lp
    late = []
    if data.draw(st.booleans()):
        rows = [(tuple(a) + (0,), rel, rhs) for a, rel, rhs in rows]
        c, bounds = tuple(c) + (0,), bounds + [(None, None)]
        e = (0,) * n + (1,)
        late = [(e, LE, data.draw(rationals) + 3), (e, GE, data.draw(rationals) - 3)]
        n += 1
    res = solve_lp(LpProblem(n, c, rows, bounds=bounds))
    assume(res.status == "optimal")
    coeffs = st.lists(rationals, min_size=n, max_size=n).map(tuple)
    cut = st.tuples(coeffs, st.sampled_from((LE, GE, EQ)), rationals)
    for _ in range(2):
        extra = late + data.draw(st.lists(cut, min_size=1, max_size=3))
        late = []
        rows = rows + extra
        res = solve_lp(LpProblem(n, c, extra, bounds=bounds), res)
        cold = solve_lp(LpProblem(n, c, rows, bounds=bounds))
        assert (res.status, res.value) == (cold.status, cold.value)
        if res.status != "optimal":
            assert res.status == "infeasible" and not enumerate_vertices(n, rows, bounds)
            return
        assert res.x in enumerate_vertices(n, rows, bounds)
        assert res.value == dot(vec(c), res.x)


@settings(max_examples=200, deadline=None)
@given(st.one_of(bounded_lps(), open_lps()), st.data())
def test_a_repriced_solve_is_a_cold_solve_after_its_phase_1(lp, data):
    # the zero-objective solve is phase 1 alone; pricing c out on its
    # optimum ends where a cold solve of c ends, and the cold solve's pivots
    # are the two solves' together.  open_lps draws unbounded objectives and
    # infeasible rows.  The repriced tableau is the new objective's, so a
    # second objective priced on it reaches its cold solve's value, at a
    # point of the rows that may differ where the optimum is not unique
    n, c, rows, bounds = lp
    zero = LpProblem(n, (0,) * n, rows, bounds=bounds)
    feasible = solve_lp(zero)
    cold = solve_lp(LpProblem(n, c, rows, bounds=bounds))
    if feasible.status == "infeasible":
        assert (cold.status, cold.pivots) == ("infeasible", feasible.pivots)
        return
    assert (feasible.status, feasible.value) == ("optimal", 0)
    warm = solve_lp(zero.with_rows([], objective=c), feasible)
    assert (warm.status, warm.value, warm.x) == (cold.status, cold.value, cold.x)
    assert cold.pivots == feasible.pivots + warm.pivots
    if warm.status != "optimal":
        return
    other = data.draw(st.lists(rationals, min_size=n, max_size=n))
    again = solve_lp(zero.with_rows([], objective=other), warm)
    ref = solve_lp(LpProblem(n, other, rows, bounds=bounds))
    assert (again.status, again.value) == (ref.status, ref.value)
    if again.status == "optimal":
        x = again.x
        assert again.value == dot(vec(other), x)
        for a, rel, rhs in rows:
            lhs, rhs = dot(vec(a), x), F(rhs)
            assert {LE: lhs <= rhs, GE: lhs >= rhs, EQ: lhs == rhs}[rel]
        for v, (lb, ub) in zip(x, bounds):
            assert (lb is None or lb <= v) and (ub is None or v <= ub)


def test_a_repriced_solve_adds_no_rows_and_takes_no_dual_pivot(monkeypatch):
    # max x + 2y over x + y <= 4, x - y >= -2, x >= 1 with y >= 0, after
    # phase 1 alone; rows added later need the repriced objective
    rows = [((1, 1), LE, 4), ((1, -1), GE, -2), ((1, 0), GE, 1)]
    zero = LpProblem(2, [0, 0], rows, bounds=[(None, None), (0, None)])
    feasible = solve_lp(zero)
    called = []
    for name in ("_add_rows", "_run_dual"):
        real = getattr(lp_module, name)
        monkeypatch.setattr(lp_module, name, lambda *a, real=real, name=name: called.append(name) or real(*a))
    priced = zero.with_rows([], objective=(1, 2))
    warm = solve_lp(priced, feasible)
    assert called == [] and warm.tableau.problem is priced
    assert (warm.status, warm.x, warm.value, warm.pivots) == ("optimal", (F(1), F(3)), F(7), 1)
    child = solve_lp(priced.with_rows([((0, 1), LE, 2)]), warm)
    assert (child.x, child.value) == ((F(2), F(2)), F(6))
    with pytest.raises(ValueError):
        solve_lp(zero.with_rows([((0, 1), LE, 2)]), warm)
    with pytest.raises(ValueError):
        solve_lp(LpProblem(2, [1, 2], [], bounds=[(None, None), (1, None)]), feasible)


def test_a_free_variable_first_held_by_added_rows_is_pivoted_in():
    # x is free and held by no row of the root, so it sits nonbasic at 0;
    # the added row is the first to hold it and needs it negative
    p = LpProblem(2, [0, 1], [((0, 1), LE, 1)])
    root = solve_lp(p)
    assert (root.status, root.x, root.value) == ("optimal", (F(0), F(1)), F(1))
    child = solve_lp(p.with_rows([((1, 0), LE, -1)]), root)
    cold = solve_lp(LpProblem(2, [0, 1], [((0, 1), LE, 1), ((1, 0), LE, -1)]))
    assert (child.status, child.x, child.value) == ("optimal", (F(-1), F(1)), F(1))
    assert (cold.status, cold.x, cold.value) == (child.status, child.x, child.value)


def _summary(res):
    return res.status, res.x, res.value, res.pivots


@settings(max_examples=200, deadline=None)
@given(bounded_lps(), st.data())
def test_condensed_tableau_pivots_as_the_full_tableau(lp, data):
    # the same LP, then two rounds of added rows, through solve_lp and
    # through the full-tableau reference: the same pivots, point and value
    n, c, rows, bounds = lp
    problem = LpProblem(n, c, rows, bounds=bounds)
    res, ref = solve_lp(problem), full_tableau_solve_lp(problem)
    assert _summary(res) == _summary(ref)
    coeffs = st.lists(rationals, min_size=n, max_size=n).map(tuple)
    cut = st.tuples(coeffs, st.sampled_from((LE, GE, EQ)), rationals)
    for _ in range(2):
        if res.status != "optimal":
            return
        extra = LpProblem(n, c, data.draw(st.lists(cut, min_size=1, max_size=3)), bounds=bounds)
        res, ref = solve_lp(extra, res), full_tableau_solve_lp(extra, ref)
        assert _summary(res) == _summary(ref)


def test_a_child_tableau_is_no_wider_than_its_parent():
    # rows added to an optimal LP are reduced onto its nonbasic columns, so
    # every row keeps n entries, its rhs and its scale however deep it goes
    bounds = [(0, 4), (None, None)]
    lps = [
        [((1, 2), LE, 9), ((0, 1), GE, -3)],
        [((1, -1), EQ, 0), ((1, 0), LE, 3)],
        [((1, 1), LE, 5), ((0, 1), GE, 1)],
    ]
    results = []
    for rows in lps:
        parent = results[-1] if results else None
        results.append(solve_lp(LpProblem(2, [1, 1], rows, bounds=bounds), parent))
    assert [res.status for res in results] == ["optimal"] * 3
    assert [res.value for res in results] == [F(13, 2), F(6), F(5)]
    heights = [len(res.tableau.T) for res in results]
    assert heights == sorted(heights) and heights[0] < heights[-1]
    assert {len(row) for res in results for row in res.tableau.T} == {2 + 2}


def test_with_rows_shares_what_it_keeps():
    # a child LP shares n, the objective and the bounds with its parent;
    # only the rows, and an objective when one is given, are coerced
    parent = LpProblem(2, [F(1, 2), 1], [((1, 1), LE, 3)], bounds=[(0, None), (None, 2)])
    child = parent.with_rows([((1, F(-1, 3)), GE, "1/2")])
    assert child.objective is parent.objective and child.bounds is parent.bounds
    assert child.rows == [((6, -2), GE, 3)] and len(parent.rows) == 1
    probe = parent.with_rows([((1, 0), LE, 1)], objective=(0, 1))
    assert probe.objective == (0, 1) and probe.bounds is parent.bounds
    res = solve_lp(probe)
    assert (res.x, res.value) == ((F(0), F(2)), F(2)) and type(res.value) is F
    # the parent's own rows list is shared, not checked and copied again
    same = parent.with_rows(parent.rows, objective=(1, 0))
    assert same.rows is parent.rows and same.objective == (1, 0)
    with pytest.raises(ValueError):
        parent.with_rows([((1,), LE, 1)])
    with pytest.raises(ValueError):
        parent.with_rows([], objective=(1, 2, 3))


def test_warm_rows_cover_equalities_and_infeasible_children():
    # max x + y over the box [0, 4]^2, then x == y as two rows, then a row
    # that the equality leaves no room for
    box = [(0, 4), (0, 4)]
    root = solve_lp(LpProblem(2, [1, 1], [((1, 2), LE, 9)], bounds=box))
    assert (root.x, root.value) == ((F(4), F(5, 2)), F(13, 2))
    eq = solve_lp(LpProblem(2, [1, 1], [((1, -1), EQ, 0)], bounds=box), root)
    assert (eq.status, eq.x, eq.value) == ("optimal", (F(3), F(3)), F(6))
    gone = solve_lp(LpProblem(2, [1, 1], [((1, 0), GE, F(7, 2))], bounds=box), eq)
    assert gone.status == "infeasible"
    # the parent is not changed by its children
    again = solve_lp(LpProblem(2, [1, 1], [((1, 0), LE, 1)], bounds=box), root)
    assert (again.x, again.value) == ((F(1), F(4)), F(5))
    with pytest.raises(ValueError):
        solve_lp(LpProblem(2, [1, 0], [((1, 0), LE, 1)], bounds=box), root)
    with pytest.raises(ValueError):
        solve_lp(LpProblem(2, [1, 1], [((1, 0), LE, 1)], bounds=box), gone)


def test_pivots_count_every_pivot(monkeypatch):
    calls = []
    pivot = lp_module._pivot

    def spy(T, basis, N, r, q):
        calls.append((r, q))
        return pivot(T, basis, N, r, q)

    monkeypatch.setattr(lp_module, "_pivot", spy)
    # x is free and eliminated on the first row; then y enters in phase 2
    rows = [((1, 1), LE, 4), ((1, -1), GE, -2), ((1, 0), GE, 1)]
    bounds = [(None, None), (0, None)]
    res = solve_lp(LpProblem(2, [1, 2], rows, bounds=bounds))
    assert res.status == "optimal" and res.x == (F(1), F(3))
    assert res.pivots == len(calls) == 2
    calls.clear()
    child = solve_lp(LpProblem(2, [1, 2], [((0, 1), LE, 2)], bounds=bounds), res)
    assert child.x == (F(2), F(2))
    assert child.pivots == len(calls) == 1
