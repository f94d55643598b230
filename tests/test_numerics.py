"""Unit tests for exact rational linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcbranch.encodings import gray_code
from cdcbranch.numerics import (
    _gauss_jordan,
    _integer_rows,
    affine_hull,
    dot,
    format_rational,
    nullspace_basis,
    rank,
    rat,
    vec,
    vec_sub,
)
from oracles import canonical_direction, dense_gauss_jordan, independent_rows_by_rank

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
    steps = [vec_sub(H[i + 1], H[i]) for i in range(7)]
    assert rank(steps) == 3


def test_rank_zero_matrix():
    assert rank([(0, 0), (0, 0)]) == 0


def test_rank_with_fractions():
    assert rank([(F(1, 2), F(1, 3)), (F(3, 2), F(1))]) == 1


def test_nullspace_single_row():
    assert nullspace_basis([(1, 0)]) == [(F(0), F(1))]


def test_nullspace_full_rank_is_empty():
    assert nullspace_basis([(1, 0), (0, 1)]) == []


def test_nullspace_dependent_rows():
    basis = nullspace_basis([(1, 3), (2, 6)])
    assert len(basis) == 1
    assert canonical_direction(basis[0]) == canonical_direction((-3, 1))


def test_nullspace_empty_matrix_needs_ncols():
    assert nullspace_basis([], ncols=2) == [(F(1), F(0)), (F(0), F(1))]
    with pytest.raises(ValueError):
        nullspace_basis([])


def test_affine_hull_segment():
    eqs, dim = affine_hull([(0, 0), (1, 0)])
    assert dim == 1
    assert len(eqs) == 1
    a, b = eqs[0]
    assert dot(a, vec((0, 0))) == b and dot(a, vec((1, 0))) == b
    assert dot(a, vec((0, 1))) != b


def test_affine_hull_parabola_codes_span_plane():
    eqs, dim = affine_hull([(1, 1), (2, 4), (3, 9), (4, 16)])
    assert dim == 2
    assert eqs == []


def test_affine_hull_single_point():
    eqs, dim = affine_hull([(5, 7)])
    assert dim == 0
    assert len(eqs) == 2
    for a, b in eqs:
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
    basis = nullspace_basis(M)
    assert rank(M) + len(basis) == n
    for v in basis:
        assert [dot(row, v) for row in M] == [F(0)] * len(M)
    if basis:
        assert rank(basis) == len(basis)
    # a free column depends on the columns before it; a nullspace vector
    # is fixed by its free entries, so this pins the basis
    cols = list(zip(*M))
    free = [j for j in range(n) if rank(cols[: j + 1]) == rank(cols[:j])]
    assert len(free) == len(basis)
    for v, f in zip(basis, free):
        assert [v[j] for j in free] == [F(int(j == f)) for j in free]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(small_rational, small_rational, small_rational), min_size=1, max_size=6))
def test_affine_hull_equations_hold_at_inputs(points):
    eqs, dim = affine_hull(points)
    assert dim + len(eqs) == 3
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
    assert len(chosen) == rank(M)


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
