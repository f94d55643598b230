"""Tests for formulation builders over (lam, z)."""

import copy
import warnings
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdcbranch import formulation
from cdcbranch.branching import psi
from cdcbranch.cdc import CdcFamily, HRepPiece, annulus_instance, grid_triangulation_fixture, sos2_family
from cdcbranch.encodings import EncodingError, Encoding, exotic_code, gray_code, moment_code, zigzag_code
from cdcbranch.formulation import (
    AssembledSystem,
    BigMSystem,
    FormulationError,
    LinearFormulation,
    TwoSidedRow,
    _rows_from_normals,
    build_2d,
    build_annulus,
    build_bigm_moment,
    build_general,
    build_moment_curve,
    build_sos2_exotic,
    compute_bigm,
    spanned_hyperplane_normals,
)
from cdcbranch.lp import EQ, GE, LE, LpProblem, enumerate_vertices
from cdcbranch.numerics import dot, rat, vec
from oracles import (
    canonical_direction,
    canonical_inequality,
    planar_directions,
    row_values,
    spanned_hyperplane_normals_by_rank,
)


def canon_rows(form):
    # one-sided rows as canonical (a, rhs) pairs, order-free
    return {canonical_inequality(a, rhs) for _, a, rhs in form.one_sided()}


def vertex_set(form):
    sys = form.assemble()
    return set(enumerate_vertices(sys.nvars, sys.rows, sys.bounds))


def test_canonical_inequality_scales():
    a, rhs = canonical_inequality(vec((F(2), F(-4))), F(6))
    assert a == (1, -2) and rhs == 3


def test_normals_axis_cross():
    C = [vec((1, 0)), vec((-1, 0)), vec((0, 1)), vec((0, -1))]
    assert spanned_hyperplane_normals(C, 2) == [(1, (0, 1)), (1, (1, 0))]


def test_normals_unit_basis_r3():
    C = [vec((1, 0, 0)), vec((0, 1, 0)), vec((0, 0, 1))]
    got = set(spanned_hyperplane_normals(C, 3))
    assert got == {(1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))}


def test_normals_with_doubling_column():
    # unit steps plus the wrap direction (4, 2, 1)
    C = [vec((1, 0, 0)), vec((0, 1, 0)), vec((0, 0, 1)), vec((4, 2, 1))]
    got = set(spanned_hyperplane_normals(C, 3))
    want = {
        (1, (1, 0, 0)),
        (1, (0, 1, 0)),
        (1, (0, 0, 1)),
        (1, (0, 1, -2)),
        (1, (1, 0, -4)),
        (1, (1, -2, 0)),
    }
    assert got == want


def test_normals_degenerate_spans():
    assert spanned_hyperplane_normals([], 2) == []
    assert spanned_hyperplane_normals([vec((0, 0))], 2) == []
    with pytest.raises(FormulationError):
        spanned_hyperplane_normals([vec((1, 1)), vec((-2, -2))], 2)
    with pytest.raises(ValueError, match="ragged"):
        spanned_hyperplane_normals([(1, 0), (0, 1, 1)], 2)


@pytest.mark.parametrize(
    "build, codes, calls",
    [
        (build_2d, exotic_code(64), 1),
        (build_general, moment_code(64), 1),
        (build_general, gray_code(6), 7),
    ],
)
def test_planar_normals_take_one_nullspace(monkeypatch, build, codes, calls):
    # in the plane each normal is its direction's perpendicular, so only
    # the span's complement takes a nullspace; r = 6 keeps one per subset
    seen = []
    real = formulation._nullspace

    def spy(rows):
        seen.append(rows)
        return real(rows)

    monkeypatch.setattr(formulation, "_nullspace", spy)
    build(sos2_family(64), codes)
    assert len(seen) == calls


def test_canonical_direction_examples():
    assert canonical_direction((2, -4)) == (F(1), F(-2))
    assert canonical_direction((-3, 6)) == (F(1), F(-2))
    assert canonical_direction((0, 5, -5)) == (F(0), F(1), F(-1))


def test_canonical_direction_rejects_zero():
    with pytest.raises(ValueError):
        canonical_direction((0, 0))


@st.composite
def spanning_sets(draw):
    """Members in r = 2..4 that are rational combinations of k = 1..r
    generators, so that the span is often a proper subspace or a line,
    with parallel members and, often, the sum of two members, which makes
    a dependent triple, and a zero member among them."""
    r = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=1, max_value=r))
    entry = st.sampled_from([F(x) for x in (-2, -1, 0, 1, 3, F(1, 2), F(-2, 3))])
    gens = draw(st.lists(st.tuples(*[entry] * r), min_size=k, max_size=k))
    members = draw(st.lists(st.tuples(*[entry] * k), min_size=k, max_size=7))
    if len(members) >= 2 and draw(st.booleans()):
        members.append(tuple(x + y for x, y in zip(members[0], members[1])))
    if draw(st.booleans()):
        members.insert(draw(st.integers(0, len(members))), (F(0),) * k)
    C = [
        tuple(sum((c * g[i] for c, g in zip(cs, gens)), F(0)) for i in range(r))
        for cs in members
    ]
    return C, r


@settings(max_examples=400, deadline=None)
@given(spanning_sets())
def test_int_normals_match_fraction_reference(case):
    C, r = case
    try:
        want = spanned_hyperplane_normals_by_rank(C, r)
    except FormulationError as exc:
        with pytest.raises(FormulationError) as got:
            spanned_hyperplane_normals(C, r)
        assert str(got.value) == str(exc)
        return
    # the reference's normals have first nonzero entry 1; times the lcm of
    # their denominators they are coprime ints with a positive first entry
    # s, the scale that each comes with
    want = [as_pair(b) for b in want]
    got = spanned_hyperplane_normals(C, r)
    assert got == want
    assert all(type(x) is int for s, b in got for x in (s, *b))
    assert all(s == next(x for x in b if x) and gcd(*b) == 1 for s, b in got)


def test_normals_annihilate_members():
    C = [vec((1, 0, 0)), vec((0, 1, 0)), vec((0, 0, 1)), vec((4, 2, 1))]
    for _, b in spanned_hyperplane_normals(C, 3):
        hits = sum(1 for c in C if sum(x * y for x, y in zip(b, c)) == 0)
        assert hits >= 2


small_rational = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def family_codes_normals(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=6))
    r = draw(st.integers(min_value=1, max_value=3))
    sets = [
        set(draw(st.lists(st.integers(1, n), min_size=1, max_size=n)))
        for _ in range(d)
    ]
    for v in range(1, n + 1):
        sets[v % d].add(v)
    assume(len({frozenset(T) for T in sets}) == d)
    vector = st.tuples(*[small_rational] * r)
    codes = draw(st.lists(vector, min_size=d, max_size=d, unique=True))
    normals = draw(st.lists(vector, min_size=1, max_size=4))
    return CdcFamily(n, sets), codes, normals


def as_pair(b):
    """A rational normal b as the pair (s, ints) that _rows_from_normals
    takes: s the lcm of b's denominators and ints the vector b * s."""
    s = lcm(*(F(x).denominator for x in b))
    return s, tuple(int(x * s) for x in b)


def assert_extremes_per_component(fam, codes, normals):
    """_rows_from_normals against the per-component reference: the row of
    normal b has direction b and, for each component, the least and the
    greatest b . h over the codes h of the alternatives that hold it.
    Returns the rows."""
    rows = _rows_from_normals(fam, Encoding(codes), [as_pair(b) for b in normals])
    assert len(rows) == len(normals)
    for row, b in zip(rows, normals):
        values = [dot(b, h) for h in codes]
        held = [[values[s - 1] for s in fam.members(v)] for v in range(1, fam.n + 1)]
        direction, lower, upper = row_values(row)
        assert direction == b
        assert lower == tuple(min(vals) for vals in held)
        assert upper == tuple(max(vals) for vals in held)
    return rows


@settings(max_examples=200, deadline=None)
@given(family_codes_normals())
def test_rows_from_normals_take_extremes_per_component(case):
    assert_extremes_per_component(*case)


def test_rows_from_normals_of_one_component():
    # one member rank over one component: itemgetter of one index gives a
    # value, not a tuple
    fam = CdcFamily(1, [(1,)])
    assert_extremes_per_component(fam, [vec((F(1, 2), 3))], [(2, F(-1, 3)), (0, 1)])


def test_rows_from_normals_over_one_two_and_three_members():
    # component 1 is held by one alternative, 2 and 4 by two, 3 by three
    fam = CdcFamily(4, [(1, 2, 3), (2, 3, 4), (3, 4)])
    codes = [vec((0, 0)), vec((1, F(1, 2))), vec((3, -1))]
    assert_extremes_per_component(fam, codes, [(1, 0), (F(2, 3), -1), (-1, 5)])


@pytest.mark.parametrize("d", [3, 8, 16])
def test_rows_from_normals_of_a_disconnected_family(d):
    # build_general appends an artificial component to every alternative
    # of a disconnected family, so one component has d members and every
    # other one has one
    fam = CdcFamily(2 * d, [(2 * i - 1, 2 * i) for i in range(1, d + 1)])
    form = build_general(fam, moment_code(d))
    assert form.artificial and form.n == 2 * d + 1
    padded = CdcFamily(2 * d + 1, [T + (2 * d + 1,) for T in fam.sets])
    normals = [row_values(row)[0] for row in form.rows]
    assert assert_extremes_per_component(padded, list(moment_code(d)), normals) == form.rows


def test_rows_from_normals_zero_normal():
    fam = CdcFamily(3, [(1, 2), (2, 3), (1, 3)])
    codes = [vec((0, 0)), vec((1, 0)), vec((0, 1))]
    assert_extremes_per_component(fam, codes, [(0, 0), (1, 1)])
    (row,) = _rows_from_normals(fam, Encoding(codes), [as_pair((0, 0))])
    assert (row.direction, row.lower, row.upper, row.den) == ((0, 0), (0, 0, 0), (0, 0, 0), 1)


def test_rows_from_normals_zigzag_fraction_normal():
    # the annulus zigzag normal of coordinates 1 and 2: (1/4, -1/2, 0)
    fam = annulus_instance("1", "3", 8)[0]
    codes = list(zigzag_code(3))
    normal = (F(1, 4), F(-1, 2), F(0))
    assert_extremes_per_component(fam, codes, [normal])
    assert as_pair(normal) == (4, (1, -2, 0))


def test_general_sos2_16_golden_row():
    form = build_general(sos2_family(16), exotic_code(16))
    assert len(form.rows) == 2
    by_dir = {row.direction: row for row in form.rows}
    z1 = by_dir[(1, 0)]
    assert z1.lower == tuple(
        map(F, (-4, -4, 4, -3, -3, -3, 3, -2, -2, -2, 2, -1, -1, -1, 1, 0, 0))
    )


def test_general_matches_sos2_closed_form():
    for d in (4, 8, 16):
        a = build_general(sos2_family(d), exotic_code(d))
        b = build_sos2_exotic(d)
        assert canon_rows(a) == canon_rows(b)


def test_general_single_alternative():
    fam = CdcFamily(2, [(1, 2)])
    form = build_general(fam, Encoding([(0, 0)]))
    assert form.rows == []
    # hull equations pin z to the lone code
    assert len(form.hull_equations) == 2


def test_general_rejects_nonconvex_position():
    fam = sos2_family(3)
    bad = Encoding([(0, 0), (1, 0), (2, 0)])  # midpoint on the segment
    with pytest.raises(FormulationError):
        build_general(fam, bad)


def test_general_disconnected_gets_artificial_component():
    fam = CdcFamily(6, [(1, 2), (3, 4), (5, 6)])
    form = build_general(fam, Encoding([(0, 0), (1, 0), (0, 1)]))
    assert form.artificial
    assert form.n == 7
    assert len(form.rows) == 3
    sys = form.assemble()
    # extra lam component is pinned to zero
    assert sys.bounds[6] == (0, 0)
    assert all(len(row.lower) == 7 for row in form.rows)


def test_2d_matches_general_region():
    a = build_2d(sos2_family(4), exotic_code(4))
    b = build_general(sos2_family(4), exotic_code(4))
    assert len(a.rows) >= len(b.rows)
    assert vertex_set(a) == vertex_set(b)


def test_2d_two_codes():
    # two codes span a line, which has no hyperplane family: the one row
    # along it would leave z free along the line, so both builders refuse
    fam = CdcFamily(3, [(1, 2), (2, 3)])
    for build in (build_2d, build_general):
        with pytest.raises(FormulationError, match="^code differences span a line"):
            build(fam, Encoding([(0, 0), (1, 0)]))


# few distinct coordinates with denominators 1, 2, 3 and 5, so that codes
# often share an x or a y and their differences are vertical or horizontal
planar_coordinate = st.sampled_from([F(x) for x in (-1, 0, 2, F(1, 2), F(-2, 3), F(3, 5))])


def strict_hull_vertices(points):
    """The vertices of the planar convex hull of points, by the monotone
    chain; a point on an edge is dropped, so the result is in convex
    position."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(planar_coordinate, planar_coordinate), min_size=2, max_size=10))
def test_2d_directions_match_fraction_reference(points):
    H = strict_hull_vertices(points)
    assume(len(H) >= 2)
    # interleave the vertices, so that the pairs are not met in hull order
    H = H[1::2] + H[::2]
    if len(H) == 2:
        with pytest.raises(FormulationError, match="span a line"):
            build_2d(sos2_family(2), Encoding(H))
        return
    form = build_2d(sos2_family(len(H)), Encoding(H))
    assert [row_values(row)[0] for row in form.rows] == planar_directions(H)


def test_2d_rejects_higher_dim():
    fam, _ = annulus_instance(1, 3, 8)
    with pytest.raises(FormulationError):
        build_2d(fam, gray_code(3))


def test_2d_matches_moment_builder_on_grid():
    fam, _ = grid_triangulation_fixture()
    a = build_2d(fam, moment_code(8))
    b = build_moment_curve(fam)
    assert canon_rows(a) == canon_rows(b)


def test_moment_curve_grid_golden_rows():
    fam, _ = grid_triangulation_fixture()
    form = build_moment_curve(fam)
    assert len(form.rows) == 13
    rows = {row.direction: row for row in form.rows}
    t5 = rows[(5, -1)]
    assert t5.upper == tuple(map(F, (4, 4, 6, 4, 6, 6, 4, 6, -24)))
    t13 = rows[(13, -1)]
    assert t13.upper == tuple(map(F, (12, 42, 42, 42, 42, 40, 40, 40, 40)))


def test_moment_curve_row_count():
    for d in (3, 5, 8):
        form = build_moment_curve(sos2_family(d))
        assert len(form.rows) == 2 * d - 3
    with pytest.raises(FormulationError, match="span a line"):
        build_moment_curve(sos2_family(2))


def test_moment_curve_two_alternatives():
    # the codes (1, 1) and (2, 4) span a line, as in build_general
    with pytest.raises(FormulationError, match="^code differences span a line"):
        build_moment_curve(sos2_family(2))
    with pytest.raises(FormulationError, match="span a line"):
        build_general(sos2_family(2), moment_code(2))


def test_sos2_exotic_17_golden():
    form = build_sos2_exotic(16)
    assert len(form.rows) == 2
    z1, z2 = form.rows
    assert z1.direction == (1, 0) and z2.direction == (0, 1)
    assert z1.lower == tuple(
        map(F, (-4, -4, 4, -3, -3, -3, 3, -2, -2, -2, 2, -1, -1, -1, 1, 0, 0))
    )
    assert z1.upper == tuple(
        map(F, (-4, 4, 4, 4, -3, 3, 3, 3, -2, 2, 2, 2, -1, 1, 1, 1, 0))
    )
    assert z2.lower == tuple(
        map(F, (0, 0, 0, 4, -4, -4, -4, 7, -7, -7, -7, 9, -9, -9, -9, 10, 10))
    )
    assert z2.upper == tuple(
        map(F, (0, 0, 4, 4, 4, -4, 7, 7, 7, -7, 9, 9, 9, -9, 10, 10, 10))
    )


def test_sos2_exotic_rejects_bad_d():
    with pytest.raises((FormulationError, EncodingError)):
        build_sos2_exotic(6)


def test_annulus_row_counts():
    assert len(build_annulus(8, "gray").rows) == 3
    assert len(build_annulus(8, "zigzag").rows) == 6
    assert len(build_annulus(8, "exotic").rows) == 3


def test_annulus_matches_general():
    fam, _ = annulus_instance(1, 3, 8)
    pairs = (
        ("gray", gray_code(3)),
        ("zigzag", zigzag_code(3)),
        ("exotic", exotic_code(8)),
    )
    for kind, enc in pairs:
        closed = build_annulus(8, kind)
        general = build_general(fam, enc)
        assert canon_rows(closed) == canon_rows(general)


def test_annulus_exotic_wrap_normal():
    form = build_annulus(8, "exotic")
    dirs = {canonical_inequality(row.direction, F(0))[0] for row in form.rows}
    # wrap direction (2, 3) contributes the normal (3, -2)
    assert canonical_inequality(vec((3, -2)), F(0))[0] in dirs


def test_annulus_rejects_bad_sizes():
    with pytest.raises(FormulationError):
        build_annulus(12, "gray")
    with pytest.raises(FormulationError):
        build_annulus(6, "exotic")
    with pytest.raises(FormulationError):
        build_annulus(8, "spiral")


def test_bigm_interval_golden():
    p1 = HRepPiece([[1], [-1]], [1, 0])
    p2 = HRepPiece([[1], [-1]], [3, -2])
    M = compute_bigm([p1, p2])
    assert M == [[3, -2], [1, 0]]


def test_bigm_single_piece():
    p1 = HRepPiece([[1], [-1]], [1, 0])
    M = compute_bigm([p1])
    assert M == [[None, None]]


def test_bigm_symmetric_pieces():
    q1 = HRepPiece([[1], [-1]], [-2, 3])
    q2 = HRepPiece([[1], [-1]], [3, -2])
    M = compute_bigm([q1, q2])
    assert M == [[3, -2], [-2, 3]]


def test_bigm_skips_empty_piece():
    p1 = HRepPiece([[1], [-1]], [1, 0])
    empty = HRepPiece([[1], [-1]], [-1, 0])
    p3 = HRepPiece([[1], [-1]], [3, -2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        M = compute_bigm([p1, empty, p3])
    assert M == [[3, -2], [3, 0], [1, 0]]
    assert any("piece 2" in str(w.message) for w in caught)


def test_bigm_errors():
    p1 = HRepPiece([[1], [-1]], [1, 0])
    empty = HRepPiece([[1], [-1]], [-1, 0])
    unbounded = HRepPiece([[1]], [5])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(FormulationError):
            compute_bigm([p1, empty])
    with pytest.raises(FormulationError):
        compute_bigm([p1, unbounded])


def test_bigm_bounds_copy_no_rows(monkeypatch):
    # each piece's rows become an LpProblem's once; its bounds keep them.
    # Each piece is solved cold once, with the zero objective, and every
    # bound is a repriced solve from that optimum, one per row and foreign
    # piece, that brings no rows
    copied, cold, warm = [], [], []
    real = LpProblem._rows
    monkeypatch.setattr(LpProblem, "_rows", lambda self, rows: copied.append(len(rows)) or real(self, rows))
    real_solve = formulation.solve_lp

    def solve(problem, parent=None):
        (cold if parent is None else warm).append(problem)
        return real_solve(problem, parent)

    monkeypatch.setattr(formulation, "solve_lp", solve)
    pieces = [
        HRepPiece([[1, 0], [-1, 0], [0, 1], [F(-1, 2), -1]], [k + 1, -k, 2, 0])
        for k in range(3)
    ]
    M = compute_bigm(pieces)
    assert copied == [4, 4, 4]
    assert M[0] == [3, -1, 2, 0] and M[2] == [2, 0, 2, 0]
    assert len(cold) == 3 and all(p.objective == (0, 0) for p in cold)
    assert len(warm) == 3 * 4 * 2 and all(p.rows == [] for p in warm)


planar_coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def planar_pieces(draw):
    """Two to four boxes in the plane, each maybe cut by one more row of
    Fractions, which compute_bigm scales to ints, so each piece is bounded
    and some are empty."""
    pieces = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        lo = [draw(small_rational) for _ in range(2)]
        hi = [x + draw(st.integers(min_value=0, max_value=3)) for x in lo]
        A = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        b = [hi[0], -lo[0], hi[1], -lo[1]]
        if draw(st.booleans()):
            A.append([draw(planar_coefficient), draw(planar_coefficient)])
            b.append(draw(small_rational))
        pieces.append(HRepPiece(A, b))
    return pieces


@settings(max_examples=100, deadline=None)
@given(planar_pieces())
def test_bigm_is_the_foreign_maxima_over_vertices(pieces):
    # M[i][s] is the greatest value of row s of piece i at a vertex of a
    # nonempty foreign piece
    vertices = [
        enumerate_vertices(2, [(a, LE, b) for a, b in zip(p.A, p.b)]) for p in pieces
    ]
    expected = []
    for i, piece in enumerate(pieces):
        foreign = [v for k, vs in enumerate(vertices) if k != i for v in vs]
        if not foreign:
            expected = None
            break
        expected.append([max(dot(a, v) for v in foreign) for a in piece.A])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if expected is None:
            with pytest.raises(FormulationError, match="every foreign piece is empty"):
                compute_bigm(pieces)
            return
        M = compute_bigm(pieces)
    assert M == expected
    assert all(type(x) is F for row in M for x in row)


def test_bigm_accepts_a_strip_bounded_along_every_foreign_row():
    # both pieces run along x without end, and no row of either reads x
    strip = HRepPiece([[0, 1], [0, -1]], [1, 0])
    higher = HRepPiece([[0, 1], [0, -1]], [3, -2])
    assert compute_bigm([strip, higher]) == [[3, -2], [1, 0]]
    # a foreign row along x is refused
    box = HRepPiece([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0])
    with pytest.raises(FormulationError, match="piece 1 is unbounded"):
        compute_bigm([strip, box])


def slice_at(system, z):
    out = []
    for a_x, a_z, rhs in system.rows:
        shift = sum(c * v for c, v in zip(a_z, z))
        out.append((tuple(a_x), rhs - shift))
    return out


def test_bigm_moment_slices():
    p1 = HRepPiece([[1], [-1]], [1, 0])
    p2 = HRepPiece([[1], [-1]], [3, -2])
    system = build_bigm_moment([p1, p2])
    assert isinstance(system, BigMSystem)
    # at the first code the first piece's rows bind exactly
    rows = slice_at(system, (F(1), F(1)))
    assert rows[0] == ((1,), 1) and rows[1] == ((-1,), 0)
    # at the second code the first piece's upper row relaxes to the M bound;
    # the lower row is already slack there, its gap clamps at zero
    rows = slice_at(system, (F(2), F(4)))
    assert rows[0] == ((1,), 3) and rows[1] == ((-1,), 0)


def test_bigm_moment_gap_never_negative():
    # piece [6,7] has foreign maxima below its own bounds; a raw gap would
    # tighten its rows at foreign codes and cut those pieces off
    pieces = [HRepPiece([[1], [-1]], [i + 1, -i]) for i in range(0, 8, 2)]
    system = build_bigm_moment(pieces)
    for i, piece in enumerate(pieces, start=1):
        rows = slice_at(system, (F(i), F(i * i)))
        for a, rhs in rows:
            if a == (0,):
                continue
            # every piece point must survive its own slice
            for x in (F(2 * i - 2), F(2 * i - 1)):
                assert a[0] * x <= rhs


def test_bigm_moment_activation_weights():
    # activation factor at code j for block i is (i - j)^2
    for i in range(1, 6):
        for j in range(1, 6):
            factor = i * i - 2 * i * j + j * j
            assert factor == (i - j) ** 2
            assert factor >= 1 or i == j


def test_bigm_moment_assemble():
    p1 = HRepPiece([[1], [-1]], [1, 0])
    p2 = HRepPiece([[1], [-1]], [3, -2])
    system = build_bigm_moment([p1, p2])
    sys = system.assemble()
    assert sys.nvars == 3
    assert sys.bounds == [(None, None)] * 3
    assert len(sys.rows) == len(system.rows)


def test_bigm_assemble_scales_each_row_to_ints():
    # the slanted row 2x + y <= 7/2 makes fractional gaps; the system holds
    # each big-M row times the lcm of that row's denominators, as ints, and
    # assemble() only joins a_x and a_z
    p1 = HRepPiece([[1, 0], [-1, 0], [0, 1], [0, -1], [2, 1]], [2, 0, 2, 0, F(7, 2)])
    p2 = HRepPiece([[1, 0], [-1, 0], [0, 1], [0, -1]], [5, -3, 1, 0])
    M = compute_bigm([p1, p2])
    unscaled = []
    for i, piece in enumerate((p1, p2), start=1):
        for a, b, bound in zip(piece.A, piece.b, M[i - 1]):
            gap = max(bound - b, 0)
            unscaled.append((*a, 2 * i * gap, -gap, b + gap * i * i))
    unscaled += [(0, 0, *a_z, rhs) for a_z, rhs in psi(2, 1, 2).ineq_rows()]
    assert any(F(x).denominator > 1 for row in unscaled for x in row)
    system = build_bigm_moment([p1, p2])
    rows = system.assemble().rows
    assert len(rows) == len(system.rows) == len(unscaled)
    for (a, rel, rhs), (a_x, a_z, b), full in zip(rows, system.rows, unscaled):
        assert all(type(x) is int for x in (*a_x, *a_z, b))
        assert (a, rel, rhs) == (a_x + a_z, LE, b)
        scale = lcm(*(F(x).denominator for x in full))
        assert list(a) + [rhs] == [x * scale for x in full]


def test_bigm_refuses_pieces_of_different_dimension():
    line = HRepPiece([[1], [-1]], [1, 0])
    box = HRepPiece([[1, 0], [-1, 0], [0, 1], [0, -1]], [3, -2, 1, 0])
    with pytest.raises(FormulationError, match="different spaces"):
        build_bigm_moment([line, box])


def test_with_cuts_pads_each_cut_and_keeps_its_relation():
    base = build_sos2_exotic(4).assemble()
    cuts = [((1, 2), LE, 3), ((F(1, 2), 0), GE, F(1, 3)), ((0, 1), EQ, 4)]
    got = base.with_cuts(cuts)
    zeros = (0,) * (base.nvars - base.r)
    assert got.rows == base.rows + [
        (zeros + (1, 2), LE, 3),
        (zeros + (F(1, 2), 0), GE, F(1, 3)),
        (zeros + (0, 1), EQ, 4),
    ]
    assert (got.nvars, got.bounds, got.r) == (base.nvars, base.bounds, base.r)


def test_export_import_round_trip():
    # parsing the exported rationals back gives every row and hull
    # equation exactly
    forms = [
        build_sos2_exotic(8),
        build_moment_curve(grid_triangulation_fixture()[0]),
        build_annulus(8, "zigzag"),
    ]
    for form in forms:
        doc = form.to_json()
        assert doc["n"] == form.n and doc["r"] == form.r
        rows = [
            TwoSidedRow(
                [rat(x) for x in row["direction"]],
                [rat(x) for x in row["lower"]],
                [rat(x) for x in row["upper"]],
            )
            for row in doc["rows"]
        ]
        assert rows == form.rows
        hull = [
            (tuple(rat(x) for x in e["a"]), rat(e["b"]))
            for e in doc["hull_equations"]
        ]
        assert hull == form.hull_equations


def test_export_text_renders_rows():
    form = build_sos2_exotic(4)
    text = form.to_text()
    assert "<=" in text
    assert "sum(lam) == 1" in text
    assert text.count("\n") >= len(form.rows)


def test_row_is_int_numerators_over_one_denominator():
    # one row given as Fractions, and as ints over a den at two scalings
    given = TwoSidedRow((F(1, 2), 1), (0, F(-3, 4)), (F(5, 6), 2))
    parts = (given.direction, given.lower, given.upper, given.den)
    assert parts == ((6, 12), (0, -9), (10, 24), 12)
    assert all(type(x) is int for part in parts[:3] for x in part)
    forms = [
        LinearFormulation(2, 2, [row])
        for row in (
            given,
            TwoSidedRow((6, 12), (0, -9), (10, 24), 12),
            TwoSidedRow((18, 36), (0, -27), (30, 72), 36),
        )
    ]
    assert forms[0].rows == forms[1].rows == forms[2].rows
    texts = {(repr(form.to_json()), form.to_text()) for form in forms}
    assert len(texts) == 1
    assert forms[0].to_json()["rows"] == [
        {"direction": ["1/2", "1"], "lower": ["0", "-3/4"], "upper": ["5/6", "2"]}
    ]
    # the one-sided rows are the ints themselves
    assert forms[0].one_sided()[0] == ((0, "lower"), (0, -9, -6, -12), 0)


# one row in every form the constructor reads: (direction, lower, upper,
# den) and the fields it must come out as, all ints, divided by their gcd
ROW_FORMS = [
    (((2, 3), (0, -1), (5, 4), 1), ((2, 3), (0, -1), (5, 4), 1)),
    (((F(2), F(3)), (F(0), F(-1)), (F(5), F(4))), ((2, 3), (0, -1), (5, 4), 1)),
    ((("4/2", "3"), ("0", "-2/2"), ("5", "8/2")), ((2, 3), (0, -1), (5, 4), 1)),
    (((4, 6), (0, -2), (10, 8), 2), ((2, 3), (0, -1), (5, 4), 1)),
    (((F(4), F(6)), (F(0), F(-2)), (F(10), F(8)), 2), ((2, 3), (0, -1), (5, 4), 1)),
    (((2, 3), (0, -1), (5, 4), 3), ((2, 3), (0, -1), (5, 4), 3)),
    (((F(2, 3), F(1)), (F(0), F(-1, 3)), (F(5, 3), F(4, 3))), ((2, 3), (0, -1), (5, 4), 3)),
    ((("2/3", "1"), ("0", "-1/3"), ("5/3", "4/3")), ((2, 3), (0, -1), (5, 4), 3)),
    (((6, 9), (0, -3), (15, 12), 9), ((2, 3), (0, -1), (5, 4), 3)),
    (((F(6), F(9)), (F(0), F(-3)), (F(15), F(12)), 9), ((2, 3), (0, -1), (5, 4), 3)),
]


@pytest.mark.parametrize("given, want", ROW_FORMS)
def test_row_takes_ints_fractions_strings_and_common_factors_alike(given, want):
    # ints coprime with den are kept as given; whole Fractions, strings and
    # ints sharing a factor with den all come out as the same coprime ints
    row = TwoSidedRow(*given)
    fields = (row.direction, row.lower, row.upper, row.den)
    assert fields == want
    assert all(type(x) is int for part in fields[:3] for x in part)
    assert type(row.den) is int


def test_row_keeps_coprime_int_tuples_as_given():
    direction, lower, upper = (2, 3), (0, -1), (5, 4)
    row = TwoSidedRow(direction, lower, upper, 3)
    assert (row.direction, row.lower, row.upper) == (direction, lower, upper)
    assert row.direction is direction and row.lower is lower and row.upper is upper
    with pytest.raises(TypeError):
        TwoSidedRow((2, 3), (0, -1), (5.0, 4), 3)


def test_row_rejects_a_float_and_a_bad_denominator():
    with pytest.raises(TypeError):
        TwoSidedRow((1, 0), (0.5, 0), (1, 1))
    for den in (0, -2, F(1, 2)):
        with pytest.raises(FormulationError, match="den must be a positive int"):
            TwoSidedRow((1, 0), (0, 0), (1, 1), den)


def test_row_shape_validation():
    row = TwoSidedRow((1, 0), [0, 0], [1, 1])
    with pytest.raises(FormulationError):
        LinearFormulation(3, 2, [row])


def test_hull_equations_reject_a_float_rhs():
    with pytest.raises(TypeError):
        LinearFormulation(1, 1, [], hull_equations=[((1,), 0.5)])


def test_one_sided_signs():
    form = build_sos2_exotic(4)
    sys = form.assemble()
    # embedding point lam = e1, z = first code must satisfy every one-sided row
    code = form.codes[0]
    point = (F(1),) + (F(0),) * (form.n - 1) + tuple(code)
    for _, a, rhs in form.one_sided():
        assert sum(x * y for x, y in zip(a, point)) <= rhs
