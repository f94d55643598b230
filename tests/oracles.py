"""Reference helpers that several test modules share as oracles.

They restate a fact in the simplest way, independently of the package
code it checks.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from cdcbranch.encodings import EncodingError, exotic_code
from cdcbranch.lp import EQ, LpError, lp_feasible
from cdcbranch.numerics import canonical_direction, dot, rank


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
