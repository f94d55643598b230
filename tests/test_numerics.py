"""Unit tests for exact rational linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcbranch.encodings import Encoding, gray_code
from cdcbranch.numerics import (
    _gauss_jordan,
    _integer_rows,
    _nullspace,
    dot,
    format_rational,
    rank,
    rat,
    vec,
)
from oracles import (
    dense_gauss_jordan,
    independent_rows_by_rank,
    nullspace_by_reduction,
    rank_by_reduction,
)

F = Fraction


def test_rat_accepts_ints_fractions_strings():
    assert rat(3) == F(3) and type(rat(3)) is F
    q = F(2, 7)
    assert rat(q) is q
    assert rat("-5/9") == F(-5, 9)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_format_parse_round_trip():
    for q in (F(0), F(7), F(-3, 4), F(22, 7), F(-1000000007, 13)):
        assert rat(format_rational(q)) == q
    assert format_rational(F(5)) == "5"
    assert format_rational(F(-2, 3)) == "-2/3"


def test_rank_identity():
    assert rank([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3


def test_rank_scalar_multiples():
    assert rank([(1, 2), (2, 4)]) == 1


def test_rank_gray_step_vectors():
    # the seven consecutive differences of the 8 three-bit codes span R^3
    H = list(gray_code(3))
    steps = [tuple(b - a for a, b in zip(H[i], H[i + 1])) for i in range(7)]
    assert rank(steps) == 3


def test_rank_zero_matrix():
    assert rank([(0, 0), (0, 0)]) == 0


def test_rank_with_fractions():
    assert rank([(F(1, 2), F(1, 3)), (F(3, 2), F(1))]) == 1


def test_nullspace_single_row():
    assert _nullspace([[1, 0]]) == [([0, 1], 1)]


def test_nullspace_full_rank_is_empty():
    assert _nullspace([[1, 0], [0, 1]]) == []


def test_nullspace_dependent_rows():
    assert _nullspace([[1, 3], [2, 6]]) == [([-3, 1], 1)]
    # column 2 is free and held by the rows with pivots 2 and 3: den is 6
    assert _nullspace([[2, 0, 1], [0, 3, 1]]) == [([-3, -2, 6], 6)]


def test_nullspace_of_a_zero_row_is_the_unit_vectors():
    # a zero row stands in for no rows, as enumerate_vertices passes it
    assert _nullspace([[0, 0]]) == [([1, 0], 1), ([0, 1], 1)]


def test_affine_hull_segment():
    enc = Encoding([(0, 0), (1, 0)])
    assert enc.r - len(enc.hull) == 1
    assert len(enc.equations) == 1
    a, b = enc.equations[0]
    assert dot(a, vec((0, 0))) == b and dot(a, vec((1, 0))) == b
    assert dot(a, vec((0, 1))) != b


def test_affine_hull_parabola_codes_span_plane():
    enc = Encoding([(1, 1), (2, 4), (3, 9), (4, 16)])
    assert enc.hull == []
    assert enc.equations == []


def test_affine_hull_single_point():
    enc = Encoding([(5, 7)])
    assert enc.hull == [([1, 0], 1), ([0, 1], 1)]
    assert len(enc.equations) == 2
    for a, b in enc.equations:
        assert dot(a, vec((5, 7))) == b
        assert dot(a, vec((5, 8))) != b or dot(a, vec((6, 7))) != b


def _pivot_rows(M):
    # the pivot columns of the transpose: row operations keep every linear
    # relation among columns, so these are the rows that the rows before
    # them do not span
    return _gauss_jordan([list(col) for col in zip(*_integer_rows(M))])[1]


def test_independent_rows_greedy():
    M = [(0, 0), (1, 0), (2, 0), (1, 1)]
    assert _pivot_rows(M) == [1, 3]


small_rational = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def small_matrix(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=5))
    return [
        tuple(draw(small_rational) for _ in range(n)) for _ in range(m)
    ]


@settings(max_examples=150, deadline=None)
@given(small_matrix())
def test_rank_transpose_invariant(M):
    assert rank(M) == rank(list(zip(*M)))


@settings(max_examples=150, deadline=None)
@given(small_matrix())
def test_nullspace_vectors_annihilate_and_count(M):
    n = len(M[0])
    basis = [tuple(F(x, den) for x in v) for v, den in _nullspace(_integer_rows(M))]
    assert rank_by_reduction(M) + len(basis) == n
    for v in basis:
        assert [dot(row, v) for row in M] == [F(0)] * len(M)
    if basis:
        assert rank_by_reduction(basis) == len(basis)
    # a free column depends on the columns before it; a nullspace vector
    # is fixed by its free entries, so this pins the basis
    cols = list(zip(*M))
    ranks = [rank_by_reduction(cols[:j]) for j in range(n + 1)]
    free = [j for j in range(n) if ranks[j + 1] == ranks[j]]
    assert len(free) == len(basis)
    for v, f in zip(basis, free):
        assert [v[j] for j in free] == [F(int(j == f)) for j in free]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(small_rational, small_rational, small_rational), min_size=1, max_size=6))
def test_affine_hull_equations_hold_at_inputs(points):
    points = list(dict.fromkeys(points))
    eqs = Encoding(points).equations
    diffs = [[x - y for x, y in zip(p, points[0])] for p in points[1:]]
    assert rank_by_reduction(diffs) + len(eqs) == 3
    for p in points:
        for a, b in eqs:
            assert dot(a, vec(p)) == b


@st.composite
def matrix_with_repeats(draw):
    # small_matrix rows, with zero rows and copies of its rows, some
    # rescaled, inserted anywhere
    rows = list(draw(small_matrix()))
    n = len(rows[0])
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(rows)))
        if draw(st.booleans()):
            row = tuple([F(0)] * n)
        else:
            src = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
            c = draw(st.sampled_from([F(1), F(-1), F(3, 7), F(-5, 2)]))
            row = tuple(c * x for x in src)
        rows.insert(at, row)
    return rows


@settings(max_examples=200, deadline=None)
@given(matrix_with_repeats())
def test_independent_rows_match_rank_per_row(M):
    chosen = _pivot_rows(M)
    assert chosen == independent_rows_by_rank(M)
    assert len(chosen) == rank_by_reduction(M)


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_matrix(), matrix_with_repeats()))
def test_rank_and_nullspace_match_the_fraction_reduction(M):
    # each nullspace vector v / den is the reference's, which is fixed by
    # being 1 at its own free column and 0 at the others
    assert rank(M) == rank_by_reduction(M)
    basis = [tuple(F(x, den) for x in v) for v, den in _nullspace(_integer_rows(M))]
    assert basis == nullspace_by_reduction(M, len(M[0]))


@st.composite
def int_matrix(draw):
    """Small int rows of one width, with many zeros and units, and maybe a
    row repeated or negated, so that pivots of 1 and -1, rows that do not
    hold a pivot column and rows reduced to zero all occur."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.sampled_from([1, -1]), st.integers(-9, 9))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        rows.append([-x for x in draw(st.sampled_from(rows))])
    return rows


@settings(max_examples=200, deadline=None)
@given(int_matrix())
def test_sparse_gauss_jordan_gives_the_dense_rows(M):
    # the sparse update takes off f*prow only where prow is nonzero and
    # skips the multiply by a unit pivot: the same reduced rows, the same
    # pivot columns, and the input left as it was
    copy = [list(row) for row in M]
    assert _gauss_jordan(M) == dense_gauss_jordan(M)
    assert M == copy
