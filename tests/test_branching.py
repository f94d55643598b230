"""Tests for code-space branching schemes."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcbranch.branching import (
    BranchError,
    BranchOutcome,
    CodeRelaxation,
    ExoticScheme,
    MomentScheme,
    VariableScheme,
    branch_exotic,
    branch_moment,
    branch_variable,
    make_scheme,
    psi,
)
from cdcbranch.encodings import exotic_code, gray_code, moment_code, zigzag_code
from cdcbranch.lp import EQ, GE, LE, enumerate_vertices

from oracles import contains_by_fractions


def zz(*vals):
    return tuple(F(v) for v in vals)


def test_psi_membership():
    assert psi(7, 1, 7).contains(zz(2, 5))
    assert not psi(7, 3, 7).contains(zz(2, 5))
    assert psi(7, 1, 7).contains(zz(1, 1))
    assert psi(7, 1, 7).contains(zz(7, 49))
    assert not psi(7, 1, 7).contains(zz(0, 0))
    assert not psi(7, 1, 7).contains((F(4), F(25, 4)))


def test_psi_single_code():
    q = psi(5, 3, 3)
    assert q.contains(zz(3, 9))
    assert not q.contains(zz(3, 8))
    assert not q.contains(zz(2, 4))


def test_psi_adjacent_pair_is_segment():
    q = psi(7, 1, 2)
    verts = set(enumerate_vertices(2, q.rows))
    assert verts == {zz(1, 1), zz(2, 4)}


def test_psi_vertices_are_codes():
    q = psi(7, 1, 7)
    verts = set(enumerate_vertices(2, q.rows))
    assert verts == {zz(i, i * i) for i in range(1, 8)}


def test_psi_rejects_bad_interval():
    with pytest.raises(BranchError):
        psi(7, 5, 3)
    with pytest.raises(BranchError):
        psi(7, 0, 7)


def test_variable_split_on_fraction():
    enc = gray_code(2)
    sch = make_scheme("variable")
    root = sch.root(enc)
    out = sch.step(root, (F(1, 2), F(0)), enc)
    assert not out.verified and out.tag == "variable"
    (cuts1, q1), (cuts2, q2) = out.children
    assert cuts1 == [((1, 0), LE, 0)]
    assert cuts2 == [((1, 0), GE, 1)]
    assert not q1.contains((F(1, 2), F(0)))
    assert not q2.contains((F(1, 2), F(0)))


def test_variable_verifies_integral_point():
    enc = gray_code(2)
    sch = make_scheme("variable")
    out = sch.step(sch.root(enc), zz(1, 0), enc)
    assert out.verified


def test_variable_picks_lowest_fractional_index():
    enc = zigzag_code(3)
    sch = make_scheme("variable")
    out = sch.step(sch.root(enc), (F(3, 2), F(1, 2), F(0)), enc)
    (cuts1, _), _ = out.children
    assert cuts1[0][0] == (1, 0, 0)


def test_variable_rejects_outside_point():
    enc = gray_code(2)
    sch = make_scheme("variable")
    with pytest.raises(BranchError):
        sch.step(sch.root(enc), zz(5, 5), enc)


def test_moment_split_intervals():
    enc = moment_code(7)
    sch = make_scheme("moment")
    root = sch.root(enc)
    assert root.interval == (1, 7)
    out = sch.step(root, (F(7, 2), F(35, 2)), enc)
    assert out.tag == "moment"
    (_, left), (_, right) = out.children
    assert left.interval == (1, 3)
    assert right.interval == (4, 7)


def test_moment_split_at_integral_offcurve_point():
    # z1 integral but z2 above the curve: still a split, never verified
    enc = moment_code(7)
    sch = make_scheme("moment")
    out = sch.step(sch.root(enc), zz(4, 25), enc)
    assert not out.verified
    (_, left), (_, right) = out.children
    assert left.interval == (1, 4)
    assert right.interval == (5, 7)


def test_moment_verifies_code():
    enc = moment_code(7)
    sch = make_scheme("moment")
    out = sch.step(sch.root(enc), zz(2, 4), enc)
    assert out.verified


def test_moment_children_are_hulls():
    enc = moment_code(7)
    sch = make_scheme("moment")
    out = sch.step(sch.root(enc), (F(5, 2), F(7)), enc)
    for _, child in out.children:
        l, u = child.interval
        verts = set(enumerate_vertices(2, child.rows))
        assert verts == {zz(i, i * i) for i in range(l, u + 1)}


def test_moment_needs_interval():
    bare = CodeRelaxation([((F(1), F(0)), GE, F(0))])
    with pytest.raises(BranchError):
        branch_moment(bare, 7, (F(3, 2), F(3)))


def test_exotic_case_fractional():
    enc = exotic_code(16)
    sch = make_scheme("exotic")
    out = sch.step(sch.root(enc), (F(1, 2), F(0)), enc)
    assert out.tag == "integer-split"
    (cuts1, _), (cuts2, _) = out.children
    assert cuts1 == [((1, 0), LE, 0)]
    assert cuts2 == [((1, 0), GE, 1)]


def test_exotic_case_between_levels():
    enc = exotic_code(16)
    sch = make_scheme("exotic")
    out = sch.step(sch.root(enc), zz(0, 3), enc)
    assert out.tag == "wide-split"
    (cuts1, _), (cuts2, _) = out.children
    assert cuts1 == [((0, 1), LE, 0)]
    assert cuts2 == [((0, 1), GE, 4)]


def test_exotic_case_inside_level():
    # level 4 runs from (-3, 4) to (4, 4); the cuts lean on (3, 7) and (-4, 0)
    enc = exotic_code(16)
    sch = make_scheme("exotic")
    out = sch.step(sch.root(enc), zz(0, 4), enc)
    assert out.tag == "corner-split"
    (cuts1, q1), (cuts2, q2) = out.children
    assert cuts1 == [((3, -6), LE, -33)]
    assert cuts2 == [((-4, 8), LE, 16)]
    assert not q1.contains(zz(0, 4)) and not q2.contains(zz(0, 4))
    # the level's two codes land in different children
    assert q1.contains(zz(-3, 4)) and not q2.contains(zz(-3, 4))
    assert q2.contains(zz(4, 4)) and not q1.contains(zz(4, 4))


def test_exotic_bottom_level_degenerate():
    enc = exotic_code(16)
    sch = make_scheme("exotic")
    out = sch.step(sch.root(enc), zz(0, -9), enc)
    assert out.tag == "corner-split"
    (cuts1, _), (cuts2, _) = out.children
    assert cuts1 == [((2, -3), LE, 25)]
    assert cuts2 == [((2, -3), GE, 29)]


def test_exotic_bottom_level_small():
    enc = exotic_code(8)
    sch = make_scheme("exotic")
    out = sch.step(sch.root(enc), zz(0, -2), enc)
    assert out.tag == "corner-split"
    (cuts1, _), (cuts2, _) = out.children
    assert cuts1 == [((2, -3), LE, 4)]
    assert cuts2 == [((2, -3), GE, 8)]


def test_every_split_hands_on_its_cuts_as_the_int_rows_of_its_region():
    # a child's cuts are the rows its region keeps of them, ints even where
    # the cut came from Fraction codes, so branch and bound hands them to
    # its LP as they are
    gray, exotic, moment = gray_code(2), exotic_code(16), moment_code(7)
    steps = [("variable", gray, (F(1, 2), F(0)))]
    steps += [("exotic", exotic, z) for z in ((F(1, 2), F(0)), zz(0, 3), zz(0, 4), zz(0, -9))]
    steps += [("moment", moment, (F(7, 2), F(35, 2)))]
    tags = set()
    for name, enc, z in steps:
        sch = make_scheme(name)
        out = sch.step(sch.root(enc), z, enc)
        tags.add(out.tag)
        for cuts, region in out.children:
            assert cuts and region.rows[-len(cuts):] == cuts
            for a, _, rhs in cuts:
                assert type(a) is tuple and all(type(x) is int for x in (*a, rhs))
    assert tags == {"variable", "integer-split", "wide-split", "corner-split", "moment"}


def test_exotic_verifies_code():
    enc = exotic_code(16)
    sch = make_scheme("exotic")
    out = sch.step(sch.root(enc), zz(-3, 4), enc)
    assert out.verified


def test_exotic_rejects_outside_point():
    enc = exotic_code(16)
    sch = make_scheme("exotic")
    with pytest.raises(BranchError):
        sch.step(sch.root(enc), zz(0, 100), enc)


def test_scheme_compatibility():
    var = VariableScheme()
    assert var.compatible(gray_code(3))[0]
    assert var.compatible(zigzag_code(3))[0]
    assert not var.compatible(moment_code(3))[0]
    assert not var.compatible(exotic_code(8))[0]

    mom = MomentScheme()
    assert mom.compatible(moment_code(5))[0]
    assert not mom.compatible(gray_code(2))[0]

    exo = ExoticScheme()
    assert exo.compatible(exotic_code(8))[0]
    assert not exo.compatible(moment_code(8))[0]
    assert not exo.compatible(gray_code(3))[0]


def test_make_scheme_unknown():
    with pytest.raises(BranchError):
        make_scheme("bisection")


def test_roots_contain_all_codes():
    cases = (
        (make_scheme("variable"), gray_code(3)),
        (make_scheme("variable"), zigzag_code(3)),
        (make_scheme("moment"), moment_code(7)),
        (make_scheme("exotic"), exotic_code(16)),
    )
    for sch, enc in cases:
        root = sch.root(enc)
        assert all(root.contains(h) for h in enc)


def test_outcome_constructors():
    v = BranchOutcome.verify()
    assert v.verified and v.children is None
    s = BranchOutcome.split("x", [1], None, [2], None)
    assert not s.verified and len(s.children) == 2


def test_relaxation_rejects_bad_relation():
    with pytest.raises(BranchError):
        CodeRelaxation([((F(1), F(0)), "<", F(0))])


def test_relaxation_holds_int_rows():
    # each row is scaled by the lcm of its denominators, entries read as rat
    # reads them; psi writes its rows as ints
    Q = CodeRelaxation([((F(1, 2), "1/3"), LE, 1), ((2, 4), GE, F(3, 2)), ((1, 0), EQ, 2)])
    assert Q.rows == [((3, 2), LE, 6), ((4, 8), GE, 3), ((1, 0), EQ, 2)]
    for region in (Q, psi(5, 2, 4), psi(5, 3, 3)):
        assert all(type(x) is int for a, _, rhs in region.rows for x in (*a, rhs))


def test_relaxation_rejects_a_float_rhs():
    with pytest.raises(TypeError):
        CodeRelaxation([((1, 0), LE, 0.1)])


coefficient = st.integers(min_value=-6, max_value=6)
entry = st.fractions(min_value=-20, max_value=20, max_denominator=7)


@st.composite
def regions_and_points(draw):
    """An int region of LE, GE and EQ rows in r dimensions, and a point
    whose entries have mixed denominators and signs; half of the points
    are moved onto a row, solving that row for one of its nonzero
    coordinates, so they lie on it exactly."""
    r = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.lists(
        st.tuples(st.tuples(*[coefficient] * r), st.sampled_from((LE, GE, EQ)), coefficient),
        min_size=1, max_size=5))
    z = list(draw(st.tuples(*[entry] * r)))
    a, _, rhs = draw(st.sampled_from(rows))
    k = next((k for k, x in enumerate(a) if x), None)
    if k is not None and draw(st.booleans()):
        z[k] += (rhs - sum(x * y for x, y in zip(a, z))) / F(a[k])
    return CodeRelaxation(rows), tuple(z)


@settings(max_examples=300, deadline=None)
@given(regions_and_points())
def test_contains_in_ints_agrees_with_fraction_dot_products(case):
    q, z = case
    assert q.contains(z) == contains_by_fractions(q, z)
