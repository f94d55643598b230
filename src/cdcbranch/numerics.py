"""Exact rational linear algebra: ranks, nullspaces, affine hulls.

Scalars are ints and Fractions, vectors tuples, matrices lists/tuples of
tuples; no floats are accepted.  Every row is scaled to ints through
_scaled, the one place that reads an entry's kind.
"""

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm


def rat(x):
    """Coerce an int, Fraction, or 'p/q' string to Fraction.  Floats are
    rejected.  A Fraction is immutable, so it is returned as it is."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not accepted, convert explicitly")
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


def vec_sub(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return tuple(a - b for a, b in zip(u, v))


def is_zero_vector(u):
    return all(a == 0 for a in u)


def _scaled(row):
    """(s, ints): s the lcm of the row's denominators and ints the row times
    s, a new list.  An int is read as it is and any other entry goes through
    rat, which reads 'p/q' strings and raises TypeError on a float."""
    if all(map(isinstance, row, repeat(int))):
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


def _bareiss_echelon(rows):
    """Fraction-free elimination on integer rows.

    Returns (echelon rows, pivot column indices).  All intermediate
    divisions are exact, which keeps entry growth polynomial.
    """
    if not rows:
        return [], []
    m, n = len(rows), len(rows[0])
    rows = [list(r) for r in rows]
    pivots = []
    prev = 1
    h = 0
    for col in range(n):
        if h >= m:
            break
        piv = None
        for i in range(h, m):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[h], rows[piv] = rows[piv], rows[h]
        p = rows[h][col]
        # every lower row is rescaled, even where the eliminated entry is
        # zero; the exact divisibility of later steps depends on it
        for i in range(h + 1, m):
            f = rows[i][col]
            for j in range(n):
                rows[i][j] = (p * rows[i][j] - f * rows[h][j]) // prev
        prev = p
        pivots.append(col)
        h += 1
    return rows[: len(pivots)], pivots


def rank(M):
    """Rank of a rational matrix via fraction-free elimination."""
    rows = _integer_rows(M)
    if not rows or not rows[0]:
        return 0
    return len(_bareiss_echelon(rows)[1])


def nullspace_basis(M, ncols=None):
    """Basis of {v : Mv = 0}, one vector per non-pivot column.

    The vector of free column f is 1 at f and 0 at every other free
    column, which makes the basis unique.  An empty matrix (no rows)
    yields the standard basis of dimension ncols, which must then be
    supplied.
    """
    rows = _integer_rows(M)
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for a matrix with no rows")
        return [tuple(Fraction(int(i == j)) for j in range(ncols)) for i in range(ncols)]
    if ncols is not None and ncols != len(rows[0]):
        raise ValueError("ncols disagrees with matrix width")
    return [tuple(Fraction(x, den) for x in v) for v, den in _nullspace(rows)]


def _nullspace(rows):
    """nullspace_basis of integer rows, each vector as (v, den) with v
    integral and v / den the vector.  Pivot entries come from
    back-substitution on the fraction-free echelon form, in ints over one
    common denominator."""
    n = len(rows[0])
    ech, pivots = _bareiss_echelon(rows)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    basis = []
    for f in free:
        v = [0] * n
        v[f] = den = 1
        # back-substitute pivot variables from the bottom row up
        for k in range(len(pivots) - 1, -1, -1):
            col = pivots[k]
            row = ech[k]
            s = sum(row[j] * v[j] for j in range(col + 1, n))
            p = row[col]
            # scaling v and den by p/g > 0 makes v[col] = -s/p integral
            g = gcd(s, p) if p > 0 else -gcd(s, p)
            if p != g:
                v = [x * (p // g) for x in v]
                den *= p // g
            v[col] = -s // g
        basis.append((v, den))
    return basis


def affine_hull(points):
    """Affine hull of a point set as (equations, dimension).

    Each equation is a pair (a, beta) meaning a . z == beta; the
    dimension is that of the hull (0 for a single point).
    """
    pts = [vec(p) for p in points]
    if not pts:
        raise ValueError("affine hull of an empty point set")
    n = len(pts[0])
    base = pts[0]
    directions = [vec_sub(p, base) for p in pts[1:]]
    directions = [d for d in directions if not is_zero_vector(d)]
    normals = nullspace_basis(directions, ncols=n)
    equations = [(a, dot(a, base)) for a in normals]
    return equations, n - len(normals)


def independent_rows(M):
    """Indices of a maximal linearly independent subset of rows, greedy order.

    Row i is chosen when it is not in the span of the rows before it.  Row
    operations keep every linear relation among columns, so these are the
    pivot columns of the fraction-free echelon form of the transpose.
    """
    return _bareiss_echelon([list(col) for col in zip(*_integer_rows(M))])[1]
