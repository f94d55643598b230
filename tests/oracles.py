"""Reference helpers that several test modules share as oracles.

They restate a fact in the simplest way, independently of the package
code it checks.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from cdcbranch.encodings import EncodingError, exotic_code
from cdcbranch.formulation import _LINE_SPAN, FormulationError
from cdcbranch.lp import EQ, LpError, lp_feasible
from cdcbranch.numerics import dot, is_zero_vector, nullspace_basis, rank, vec


def canonical_inequality(a, rhs):
    """Scale a . x <= rhs by a positive factor to coprime integers."""
    full = [Fraction(x) for x in (*a, rhs)]
    scale = lcm(*(x.denominator for x in full))
    ints = [x.numerator * (scale // x.denominator) for x in full]
    g = gcd(*ints) or 1
    return tuple(Fraction(x // g) for x in ints[:-1]), Fraction(ints[-1] // g)


def separation_certificates_exotic(r):
    """Per-code separating inequalities for the exotic family of size 4r.

    Returns one (c, b) per code, meant to hold c . h > b at that code and
    c . h <= b at every other.  Each threshold b is anchored at the code
    four positions away.  r >= 2.
    """
    if r < 2:
        raise EncodingError("certificates need r >= 2")
    cs = []
    for k in range(1, r + 1):
        cs.append((Fraction(-(2 * (r - k) + 3)), Fraction(-2)))
        cs.append((Fraction(2 * (r - k) + 3), Fraction(-2)))
        cs.append((Fraction(2 * (r - k) + 1), Fraction(2)))
        cs.append((Fraction(-(2 * (r - k) + 1)), Fraction(2)))
    H = list(exotic_code(4 * r))
    certs = []
    for i, c in enumerate(cs):
        j = i + 4 if i < 4 else i - 4
        certs.append((c, c[0] * H[j][0] + c[1] * H[j][1]))
    return certs


def in_hull_lp(H, point):
    """The LP oracle: point is a convex combination of the codes H."""
    d = len(H)
    rows = [([h[k] for h in H], EQ, point[k]) for k in range(len(point))]
    rows.append(([1] * d, EQ, 1))
    return lp_feasible(d, rows, bounds=[(0, None)] * d)


def canonical_direction(v):
    """Scale a nonzero vector so its first nonzero entry is +1."""
    v = vec(v)
    for x in v:
        if x != 0:
            return tuple(y / x for y in v)
    raise ValueError("zero vector has no canonical direction")


def spanned_hyperplane_normals_by_rank(C, ambient):
    """formulation.spanned_hyperplane_normals in Fractions, with a rank test
    per subset: normals of all hyperplanes of span(C) spanned by members
    of C, the members being vectors of length ambient.

    Normals are returned inside span(C), canonically scaled and deduped.
    A zero-dimensional span gives []; a one-dimensional span is rejected
    since no hyperplane family exists there.
    """
    dirs = []
    seen = set()
    for c in C:
        c = vec(c)
        if is_zero_vector(c):
            continue
        cd = canonical_direction(c)
        if cd not in seen:
            seen.add(cd)
            dirs.append(cd)
    if not dirs:
        return []
    dim = rank(dirs)
    if dim == 0:
        return []
    if dim == 1:
        raise FormulationError(_LINE_SPAN)
    # orthogonal complement of span(C): a normal must be orthogonal to it
    # to lie inside the span
    complement = nullspace_basis(dirs)
    normals = []
    seen_n = set()
    for subset in combinations(dirs, dim - 1):
        if rank(list(subset)) < dim - 1:
            continue
        system = list(subset) + list(complement)
        null = nullspace_basis(system, ncols=ambient)
        if len(null) != 1:
            continue
        b = canonical_direction(null[0])
        if b not in seen_n:
            seen_n.add(b)
            normals.append(b)
    return normals


def row_values(row):
    """(direction, lower, upper) of a TwoSidedRow as the Fractions its int
    numerators stand for over its denominator."""
    return tuple(
        tuple(Fraction(x, row.den) for x in part)
        for part in (row.direction, row.lower, row.upper)
    )


def planar_directions(H):
    """The row directions of the planar builder over the codes H: the
    perpendicular of each code difference, scaled in Fractions so its
    first nonzero entry is 1, deduped in pair order."""
    return list(
        dict.fromkeys(
            canonical_direction((k[1] - h[1], h[0] - k[0]))
            for h, k in combinations(H, 2)
        )
    )


def classify_rows_by_rank(form, vertices):
    """The facet census by affine dimension, in Fractions: a row is a facet
    when the vertices it holds with equality span one dimension less than
    all of them, never-tight when it holds at none, and tight-nonfacet
    otherwise.  Entries as oracle.classify_rows gives them."""
    if not vertices:
        raise LpError("empty relaxation cannot be classified")

    def dim(points):
        return rank([[x - y for x, y in zip(p, points[0])] for p in points[1:]])

    full = dim(vertices)
    out = []
    for (row, side), a, rhs in form.one_sided():
        tight = [v for v in vertices if dot(a, v) == rhs]
        if not tight:
            cls = "never-tight"
        else:
            cls = "facet" if dim(tight) == full - 1 else "tight-nonfacet"
        out.append({"row": row, "side": side, "class": cls, "coeffs": a, "rhs": rhs})
    return out
