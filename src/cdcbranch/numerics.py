"""Exact rational linear algebra: one integer elimination, its rank and
its nullspace.

Scalars are ints and Fractions, vectors tuples, matrices lists/tuples of
tuples; no floats are accepted.  Every row is scaled to ints through
_scaled, and _whole, which _scaled asks first, is the one place that reads
an entry's kind.  Every elimination is one integer Gauss-Jordan kernel,
_gauss_jordan, which keeps its rows coprime and updates a row only where
the pivot row is nonzero, as lp._pivot does: rank counts its pivots, a
nullspace vector is read off its reduced rows, an Encoding's affine hull
is the nullspace of its code differences in ints, and lp's double
description starts from one reduction.
"""

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm


def rat(x):
    """Coerce an int, Fraction, or 'p/q' string to Fraction.  Floats and
    bools are rejected.  A Fraction is immutable, so it is returned as it
    is."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not accepted, convert explicitly")
    if isinstance(x, bool):
        raise TypeError("%r is a bool, not a rational" % (x,))
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError("cannot interpret %r as a rational" % (x,))


def format_rational(q):
    """Render a Fraction as 'p' or 'p/q'."""
    q = rat(q)
    return format_ratio(q.numerator, q.denominator)


def format_ratio(x, den):
    """format_rational of the int x over the positive int den, no Fraction."""
    g = gcd(x, den)
    return str(x // g) if g == den else "%d/%d" % (x // g, den // g)


def vec(values):
    """Build a rational vector (tuple of Fraction)."""
    return tuple(rat(x) for x in values)


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch: %d vs %d" % (len(u), len(v)))
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def is_zero_vector(u):
    return all(a == 0 for a in u)


def _whole(row):
    """True when every entry of row is an int, which _scaled keeps as it is."""
    return all(map(isinstance, row, repeat(int)))


def _scaled(row):
    """(s, ints): s the lcm of the row's denominators and ints the row times
    s, a new list.  An int is read as it is and any other entry goes through
    rat, which reads 'p/q' strings and raises TypeError on a float."""
    if _whole(row):
        return 1, list(row)
    row = list(row)
    odd = [i for i, x in enumerate(row) if type(x) is not int]
    for i in odd:
        row[i] = rat(row[i])
    s = lcm(*[row[i].denominator for i in odd])
    if s > 1:
        return s, [x.numerator * (s // x.denominator) for x in row]
    for i in odd:
        row[i] = row[i].numerator
    return 1, row


def _integer_rows(M):
    """Each row of M scaled to ints by the lcm of its own denominators, as
    _scaled reads it; rank is unchanged.  A ragged M raises ValueError."""
    out = [_scaled(row)[1] for row in M]
    if len(set(map(len, out))) > 1:
        raise ValueError("ragged matrix")
    return out


def _coprime(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _gauss_jordan(rows):
    """Integer Gauss-Jordan elimination, every row kept coprime.

    Returns (reduced rows, pivot columns), one row per pivot: positive at
    its own pivot column and zero at every other one.  Columns are taken
    in order, each pivoting on the first row past the pivots found so far
    that holds it; every other row that holds it becomes row*p - f*prow,
    divided by its gcd.  The update is lp._pivot's sparse one: a row is
    multiplied by p (not at all when p is 1), and f*prow is taken off only
    where prow is nonzero, the same ints as the dense update.  The pivot
    columns are those of any echelon form: each column that its
    predecessors do not span.
    """
    rows = [list(r) for r in rows]
    m, pivots = len(rows), []
    for col in range(len(rows[0]) if rows else 0):
        h = len(pivots)
        piv = next((i for i in range(h, m) if rows[i][col]), None)
        if piv is None:
            continue
        prow = _coprime([-x for x in rows[piv]] if rows[piv][col] < 0 else rows[piv])
        rows[piv], rows[h] = rows[h], prow
        p = prow[col]
        nonzero = [(k, y) for k, y in enumerate(prow) if y]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != h:
                new = [x * p for x in row] if p != 1 else row
                for k, y in nonzero:
                    new[k] -= f * y
                rows[i] = _coprime(new)
        pivots.append(col)
        if h + 1 == m:
            break
    return rows[: len(pivots)], pivots


def rank(M):
    """Rank of a rational matrix: the pivots of its integer rows."""
    return len(_gauss_jordan(_integer_rows(M))[1])


def _nullspace(rows):
    """Basis of {v : rows v == 0} for one or more integer rows of one
    width (a zero row stands in for none), one vector per free column, a
    column that _gauss_jordan does not pivot on.  Each is (v, den), v
    integral and den a positive int: v / den is 1 at its own free column
    and 0 at every other one, which makes the basis unique.  Each is read
    off the reduced rows, with no back-substitution: free column f takes
    den, the lcm of the pivots of the rows that hold it, and the pivot
    column c of such a row, pivot p, takes -row[f] * (den // p)."""
    n = len(rows[0])
    red, pivots = _gauss_jordan(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        held = [(c, row[c], row[f]) for c, row in zip(pivots, red) if row[f]]
        den = lcm(*(p for _, p, _ in held))
        v = [0] * n
        v[f] = den
        for c, p, x in held:
            v[c] = -x * (den // p)
        basis.append((v, den))
    return basis

