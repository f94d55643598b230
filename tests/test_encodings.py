"""Unit tests for the code families and their structural predicates."""

import sys
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdcbranch import lp
from cdcbranch.branching import make_scheme
from cdcbranch.cdc import sos2_family
from cdcbranch.encodings import (
    Encoding,
    EncodingError,
    exotic_code,
    gray_code,
    is_convex_position,
    is_hole_free,
    moment_code,
    zigzag_code,
)
from cdcbranch.formulation import build_general
from cdcbranch.numerics import dot, vec
from oracles import (
    affine_hull_by_reduction,
    convex_position_lp,
    faces_by_double_description,
    in_hull_lp,
    separation_certificates_exotic,
)

F = Fraction


def tight_mask(codes, a, b):
    """Bit j for each code j on which a . z <= b holds with equality."""
    return sum(1 << j for j, h in enumerate(codes) if dot(a, h) == b)


def codes(enc):
    return [tuple(int(x) if x.denominator == 1 else x for x in c) for c in enc]


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def test_gray_r1():
    assert codes(gray_code(1)) == [(0,), (1,)]


def test_gray_r2():
    assert codes(gray_code(2)) == [(0, 0), (1, 0), (1, 1), (0, 1)]


def test_gray_r3_endpoints():
    H = codes(gray_code(3))
    assert H[0] == (0, 0, 0)
    assert H[7] == (0, 0, 1)


def test_gray_truncation():
    assert codes(gray_code(3, 5)) == [
        (0, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (0, 1, 0),
        (0, 1, 1),
    ]
    with pytest.raises(EncodingError):
        gray_code(2, 5)


def test_zigzag_r2():
    assert codes(zigzag_code(2)) == [(0, 0), (1, 0), (1, 1), (2, 1)]


def test_zigzag_r3():
    assert codes(zigzag_code(3)) == [
        (0, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (2, 1, 0),
        (2, 1, 1),
        (3, 1, 1),
        (3, 2, 1),
        (4, 2, 1),
    ]


def test_zigzag_wrap_difference_is_power_ladder():
    for r in range(1, 5):
        H = list(zigzag_code(r))
        diff = vec_sub(H[-1], H[0])
        assert diff == vec([2 ** (r - 1 - k) for k in range(r)])


def test_moment_d4():
    assert codes(moment_code(4)) == [(1, 1), (2, 4), (3, 9), (4, 16)]


def test_moment_d1():
    assert codes(moment_code(1)) == [(1, 1)]


def test_exotic_block_r1():
    assert codes(exotic_code(4)) == [(-1, 0), (1, 0), (1, 1), (0, 1)]


def test_exotic_r4_endpoints():
    H = codes(exotic_code(16))
    assert H[0] == (-4, 0)
    assert H[15] == (0, 10)


def test_exotic_rejects_non_multiples_of_four():
    for d in (1, 2, 3, 5, 6, 7, 9):
        with pytest.raises(EncodingError):
            exotic_code(d)


def test_encoding_rejects_duplicates():
    with pytest.raises(EncodingError):
        Encoding([(0, 0), (0, 0)])


def test_gray_steps_single_coordinate():
    for r in range(1, 5):
        H = list(gray_code(r))
        for a, b in zip(H, H[1:]):
            diff = vec_sub(b, a)
            changed = [x for x in diff if x != 0]
            assert len(changed) == 1 and abs(changed[0]) == 1
        # the walk closes up: one more unit step returns to the start
        wrap = vec_sub(H[-1], H[0])
        changed = [x for x in wrap if x != 0]
        assert len(changed) == 1 and abs(changed[0]) == 1


def test_zigzag_steps_are_unit_vectors():
    for r in range(1, 5):
        H = list(zigzag_code(r))
        for a, b in zip(H, H[1:]):
            diff = vec_sub(b, a)
            assert sorted(diff) == [0] * (r - 1) + [1]


def test_exotic_steps_are_axis_multiples():
    for r in (1, 2, 3, 4):
        H = list(exotic_code(4 * r))
        for a, b in zip(H, H[1:]):
            diff = vec_sub(b, a)
            assert diff[0] == 0 or diff[1] == 0
            assert diff != (0, 0)


def test_convex_position_detects_midpoint():
    assert not is_convex_position(Encoding([(0, 0), (1, 1), (2, 2)]))


def test_convex_position_rational_code_on_an_edge():
    # 1/3 + 2/3 == 1: the code lies on the edge x + y == 1 of the others,
    # with a denominator that none of them has
    assert not is_convex_position(Encoding([(0, 0), (1, 0), (0, 1), (F(1, 3), F(2, 3))]))


def test_convex_position_square_with_denominators_three_and_five():
    square = [(F(1, 3), F(2, 5)), (F(4, 3), F(2, 5)), (F(4, 3), F(7, 5)), (F(1, 3), F(7, 5))]
    assert is_convex_position(Encoding(square))
    # the centre, with denominators 6 and 10, is inside it
    assert not is_convex_position(Encoding(square + [(F(5, 6), F(9, 10))]))


def test_convex_position_parabola():
    for d in range(1, 11):
        assert is_convex_position(moment_code(d))


def test_convex_position_standard_families():
    for r in range(1, 5):
        assert is_convex_position(gray_code(r))
        assert is_convex_position(zigzag_code(r))
    assert is_convex_position(exotic_code(16))


def test_hole_free_families():
    assert is_hole_free(gray_code(3))
    assert is_hole_free(zigzag_code(3))
    assert is_hole_free(moment_code(2))
    assert not is_hole_free(moment_code(3))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda r: st.lists(
            st.tuples(*[st.fractions(-9, 9, max_denominator=12)] * r),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
)
def test_scaled_codes_round_trip(points):
    # the codes as ints over den give each code back, and den is the least
    # such scale: no prime divides den and every int
    den, ints = Encoding(points).scaled
    assert all(type(x) is int for x in (den, *(x for h in ints for x in h)))
    assert [tuple(Fraction(x, den) for x in h) for h in ints] == [vec(p) for p in points]
    assert gcd(den, *(x for h in ints for x in h)) == 1


def spy_facets_of_hull(monkeypatch):
    """The codes of each facets_of_hull call, in order, through every
    package module that holds the function."""
    calls = []
    real = lp.facets_of_hull

    def spy(points, *args):
        calls.append(tuple(points))
        return real(points, *args)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("cdcbranch") and (
            getattr(module, "facets_of_hull", None) is real
        ):
            monkeypatch.setattr(module, "facets_of_hull", spy)
    return calls


def test_an_encoding_takes_its_hull_once(monkeypatch):
    # convex position in build_general, the scheme root and the hole test
    # all read the facets that the encoding keeps
    calls = spy_facets_of_hull(monkeypatch)
    fam = sos2_family(8)
    zigzag, exotic = zigzag_code(3), exotic_code(8)
    for _ in range(2):
        build_general(fam, zigzag)
        build_general(fam, exotic)
        make_scheme("variable").root(zigzag)
        make_scheme("exotic").root(exotic)
        assert is_hole_free(zigzag)
    assert calls == [zigzag.codes, exotic.codes]


def test_hole_free_takes_no_hull_when_the_codes_fill_their_box(monkeypatch):
    calls = spy_facets_of_hull(monkeypatch)
    assert is_hole_free(gray_code(3))
    assert calls == []


def test_hole_free_rejects_fractional_codes():
    with pytest.raises(EncodingError):
        is_hole_free(Encoding([(F(1, 2), F(0)), (F(1), F(1))]))


def test_exotic_certificates_r2():
    certs = separation_certificates_exotic(2)
    assert len(certs) == 8
    assert certs[0][0] == (F(-5), F(-2))


def test_exotic_certificates_separate_each_code():
    for r in (2, 3, 5):
        H = list(exotic_code(4 * r))
        certs = separation_certificates_exotic(r)
        for i, (c, b) in enumerate(certs):
            assert c[0] * H[i][0] + c[1] * H[i][1] > b
            for j, h in enumerate(H):
                if j != i:
                    assert c[0] * h[0] + c[1] * h[1] <= b


def test_exotic_certificates_need_r_at_least_two():
    with pytest.raises(EncodingError):
        separation_certificates_exotic(1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=16))
def test_truncations_stay_distinct(r, d):
    if d > 2 ** r:
        return
    for make in (gray_code, zigzag_code):
        H = list(make(r, d))
        assert len(set(H)) == d


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_moment_codes_on_curve(d):
    for i, h in enumerate(moment_code(d), start=1):
        assert h == (F(i), F(i * i))


@st.composite
def random_codes(draw):
    """One to six distinct codes in r <= 3 dimensions, integer or rational.

    About a third are lower-dimensional: only `free` coordinates are
    drawn, and each other one is s * (a free coordinate) + c.
    """
    r = draw(st.integers(1, 3))
    value = draw(
        st.sampled_from(
            [st.integers(0, 2), st.builds(F, st.integers(-6, 6), st.integers(1, 3))]
        )
    )
    free = r if draw(st.integers(0, 2)) else draw(st.integers(0, r - 1))
    maps = [
        (
            draw(st.integers(0, max(free - 1, 0))),
            draw(st.sampled_from([-1, 0, 1])),
            draw(value),
        )
        for _ in range(r - free)
    ]
    H = {}
    for y in draw(st.lists(st.tuples(*[value] * free), min_size=1, max_size=6)):
        z = list(y) + [s * y[j] + c if free else c for j, s, c in maps]
        H[tuple(F(x) for x in z)] = None
    return list(H)


@settings(max_examples=2000, deadline=None)
@given(random_codes())
def test_predicates_match_lp_oracle(H):
    enc = Encoding(H)
    assert is_convex_position(enc) == convex_position_lp(H)
    if any(x.denominator != 1 for h in H for x in h):
        with pytest.raises(EncodingError):
            is_hole_free(enc)
        return
    box = product(*(range(int(min(c)), int(max(c)) + 1) for c in zip(*H)))
    holes = [p for p in box if p not in H and in_hull_lp(H, p)]
    assert is_hole_free(enc) == (not holes)


@settings(max_examples=300, deadline=None)
@given(random_codes())
def test_an_encoding_keeps_its_hull_in_ints(H):
    # the equations read off the int normals of hull are the reference's
    # affine hull of the Fraction codes: the same values, the same types
    # and the same order; each facet is an int row that holds at every
    # code and is tight at one, and its mask is the codes it is tight at
    enc = Encoding(H)
    assert enc.equations == affine_hull_by_reduction(enc.codes)
    assert all(type(x) is F for a, b in enc.equations for x in (*a, b))
    assert all(type(x) is int for a, b in enc.facets for x in (*a, b))
    for a, b in enc.facets:
        assert max(dot(a, h) for h in enc.codes) == b
    assert enc.faces[1] == [tight_mask(enc.codes, a, b) for a, b in enc.facets]
    assert [(tuple(F(x, s) for x in v)) for v, s in enc.hull] == [a for a, _ in enc.equations]


@st.composite
def int_point_sets(draw):
    """Distinct int points in the plane or in 3-d, on a grid of step 12 so
    that midpoints, centroids of three and centroids of four are ints too.
    Some of them are added on purpose: a midpoint (collinear with two
    points), a centroid of three (coplanar with them, inside their
    triangle) and a centroid of four (inside a tetrahedron).  A third of the
    3-d sets lie on one plane, and a third of the planar ones on one line."""
    r = draw(st.sampled_from([2, 3]))
    base = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * r), min_size=1, max_size=6))
    flat = draw(st.integers(0, 2)) == 0
    if flat:
        # the last coordinate a fixed combination of the others
        coeffs = draw(st.tuples(*[st.integers(-1, 1)] * (r - 1)))
        base = [p[:-1] + (sum(c * x for c, x in zip(coeffs, p)),) for p in base]
    P = [tuple(12 * x for x in p) for p in base]
    for k in draw(st.lists(st.sampled_from([2, 3, 4]), max_size=3)):
        if len(P) >= k:
            picks = draw(st.lists(st.sampled_from(P), min_size=k, max_size=k))
            P.append(tuple(sum(xs) // k for xs in zip(*picks)))
    return list(dict.fromkeys(P))


@settings(max_examples=300, deadline=None)
@given(int_point_sets())
def test_convex_position_matches_lp_oracle_on_int_points(H):
    assert is_convex_position(Encoding(H)) == convex_position_lp(H)


@st.composite
def planar_point_sets(draw):
    """Distinct rational points that span the plane.  Beside the drawn
    points, some lie on the segment between two of them, often on a hull
    edge, and some at a convex combination of three, inside or on the
    boundary; so many sets are not in convex position."""
    coord = st.fractions(-6, 6, max_denominator=4)
    P = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=8, unique=True))
    for k in draw(st.lists(st.sampled_from([2, 3]), max_size=3)):
        picks = draw(st.lists(st.sampled_from(P), min_size=k, max_size=k))
        w = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
        P.append(tuple(sum(c * p[i] for c, p in zip(w, picks)) / sum(w) for i in (0, 1)))
    P = list(dict.fromkeys(P))
    assume(not Encoding(P).hull)
    return P


@settings(max_examples=300, deadline=None)
@given(planar_point_sets())
def test_the_planar_chain_gives_the_double_descriptions_facets_and_masks(H):
    # the chain's facets and masks are the double description's as sets,
    # each mask is the codes its facet is tight at, and the verdict read
    # off the masks is the LP oracle's
    enc = Encoding(H)
    den, P = enc.scaled
    facets, masks = lp.facets_of_hull(P, den, [])
    assert len(set(facets)) == len(facets)
    assert set(zip(facets, masks)) == faces_by_double_description(enc)
    assert masks == [tight_mask(enc.codes, a, b) for a, b in facets]
    assert is_convex_position(enc) == convex_position_lp(H)


def test_planar_codes_take_no_double_description(monkeypatch):
    # moment and exotic codes span the plane, so their facets and their
    # convex-position verdict come from the chain; gray and zigzag codes
    # in r = 4 take one double description each
    calls = []
    real = lp._double_description

    def spy(G):
        calls.append(len(G))
        return real(G)

    monkeypatch.setattr(lp, "_double_description", spy)
    for enc, runs in ((moment_code(64), 0), (exotic_code(64), 0),
                      (gray_code(4), 1), (zigzag_code(4), 1)):
        calls.clear()
        assert enc.facets and is_convex_position(enc)
        assert len(calls) == runs, enc.kind
